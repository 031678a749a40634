"""Frozen reference: the COO assembly of the weighted operator, which
``elliptic._assemble`` replaced with a CSR build from grid slices.  It lists
each interior face twice and each diagonal once as (row, column, value)
triplets and lets scipy sort them into CSR.  Kept verbatim for the
bit-for-bit differential test of the two.  Test-only code.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from lakevortex.elliptic import _B_FACE_MIN, _THETA_MIN
from lakevortex.geometry import Lake


def assemble(lake: Lake) -> tuple[csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """The operator's CSR matrix and its cut faces' rows, coefficients and
    boundary parameters."""
    n = lake.n_cells
    h2 = lake.cell_area
    mask, index, b = lake.mask, lake.index, lake.b
    rows_i, cols_i, vals = [], [], []
    diag = np.zeros(n)
    cut_rows, cut_coeffs, cut_params = [], [], []

    for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)):
        # cut faces: interior cell whose neighbor is outside the mask; the
        # roll wraps only the grid's edge cells, which the padding keeps outside
        cut = mask & ~np.roll(mask, (-di, -dj), axis=(0, 1))

        # interior faces (each handled once, from the +x / +y sides)
        if (di, dj) in ((0, 1), (1, 0)):
            r, c = np.nonzero(mask & ~cut)
            p = index[r, c]
            q = index[r + di, c + dj]
            cf = 2.0 / (b[r, c] + b[r + di, c + dj]) / h2
            rows_i.extend([p, q])
            cols_i.extend([q, p])
            vals.extend([-cf, -cf])
            diag[p] += cf  # a cell has one face per direction: no repeated index
            diag[q] += cf

        r, c = np.nonzero(cut)
        p = index[r, c]
        center = np.column_stack([lake.xs[c], lake.ys[r]])
        ghost = center + np.array([dj * lake.h, di * lake.h])
        theta = np.clip(lake.domain.cut_fraction(center, ghost), _THETA_MIN, 1.0)
        b_ghost = np.maximum(b[r + di, c + dj], _B_FACE_MIN)
        cf = 2.0 / (b[r, c] + b_ghost) / (theta * h2)
        diag[p] += cf
        cut_rows.append(p)
        cut_coeffs.append(cf)
        cut_params.append(lake.domain.boundary_param(center + theta[:, None] * (ghost - center)))

    rows_i.append(np.arange(n))
    cols_i.append(np.arange(n))
    vals.append(diag)
    matrix = csr_matrix((np.concatenate(vals), (np.concatenate(rows_i), np.concatenate(cols_i))),
                        shape=(n, n))
    return (matrix, np.concatenate(cut_rows), np.concatenate(cut_coeffs),
            np.concatenate(cut_params))
