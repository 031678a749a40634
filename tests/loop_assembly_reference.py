"""Frozen reference: the per-cut-face loop assembly of the weighted operator and
the per-ghost-cell boundary trace, with the scalar domain queries they called,
which ``elliptic.assemble_operator`` and ``geometry._build_trace`` replaced with
array operations per direction.  Kept verbatim, less the trace's former
centers field, for the differential tests of the two.  Test-only code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from lakevortex.elliptic import _B_FACE_MIN, _THETA_MIN, OperatorHandle, SolverError
from lakevortex.geometry import TWO_PI, BoundaryTrace, Lake

# ---------------------------------------------------------------------------
# scalar domain queries


def _disk_boundary_param(domain, p) -> float:
    dx = p[0] - domain.center[0]
    dy = p[1] - domain.center[1]
    theta = math.atan2(dy, dx) % TWO_PI
    return theta * domain.radius


def _disk_cut_fraction(domain, p_inside, p_outside) -> float:
    c = np.asarray(domain.center)
    p = np.asarray(p_inside, dtype=float) - c
    d = np.asarray(p_outside, dtype=float) - c - p
    a = float(d @ d)
    b = 2.0 * float(p @ d)
    cc = float(p @ p) - domain.radius**2
    disc = b * b - 4.0 * a * cc
    if disc < 0.0:  # grazing; numerically on the circle
        disc = 0.0
    t = (-b + math.sqrt(disc)) / (2.0 * a)
    return min(max(t, 0.0), 1.0)


def _rect_project_to_boundary(domain, p) -> tuple[float, float]:
    px = min(max(p[0], domain.x0), domain.x1)
    py = min(max(p[1], domain.y0), domain.y1)
    if domain.x0 < px < domain.x1 and domain.y0 < py < domain.y1:
        # interior point: push to the nearest side
        cands = [
            (px - domain.x0, (domain.x0, py)),
            (domain.x1 - px, (domain.x1, py)),
            (py - domain.y0, (px, domain.y0)),
            (domain.y1 - py, (px, domain.y1)),
        ]
        return min(cands)[1]
    return (px, py)


def _rect_boundary_param(domain, p) -> float:
    px, py = _rect_project_to_boundary(domain, p)
    w = domain.x1 - domain.x0
    hgt = domain.y1 - domain.y0
    yc = 0.5 * (domain.y0 + domain.y1)
    # segments: right side up, top leftward, left side down, bottom rightward
    eps = 1e-12
    if abs(px - domain.x1) < eps and py >= yc:
        s = py - yc
    elif abs(py - domain.y1) < eps:
        s = (domain.y1 - yc) + (domain.x1 - px)
    elif abs(px - domain.x0) < eps:
        s = (domain.y1 - yc) + w + (domain.y1 - py)
    elif abs(py - domain.y0) < eps:
        s = (domain.y1 - yc) + w + hgt + (px - domain.x0)
    else:  # right side below midpoint
        s = (domain.y1 - yc) + 2 * w + hgt + (py - domain.y0)
    return s % domain.perimeter()


def _rect_cut_fraction(domain, p_inside, p_outside) -> float:
    ts = []
    dx = p_outside[0] - p_inside[0]
    dy = p_outside[1] - p_inside[1]
    if dx > 0:
        ts.append((domain.x1 - p_inside[0]) / dx)
    elif dx < 0:
        ts.append((domain.x0 - p_inside[0]) / dx)
    if dy > 0:
        ts.append((domain.y1 - p_inside[1]) / dy)
    elif dy < 0:
        ts.append((domain.y0 - p_inside[1]) / dy)
    t = min(t for t in ts if t > 0)
    return min(max(t, 0.0), 1.0)


def boundary_param(domain, p) -> float:
    if domain.kind == "disk":
        return _disk_boundary_param(domain, p)
    return _rect_boundary_param(domain, p)


def cut_fraction(domain, p_inside, p_outside) -> float:
    if domain.kind == "disk":
        return _disk_cut_fraction(domain, p_inside, p_outside)
    return _rect_cut_fraction(domain, p_inside, p_outside)


# ---------------------------------------------------------------------------
# trace and operator


def build_trace(domain, mask: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> BoundaryTrace:
    padded = np.pad(mask, 1, constant_values=False)
    neighbor_of_interior = (
        padded[2:, 1:-1] | padded[:-2, 1:-1] | padded[1:-1, 2:] | padded[1:-1, :-2]
    )
    ghost = neighbor_of_interior & ~mask
    rows, cols = np.nonzero(ghost)
    centers = np.column_stack([xs[cols], ys[rows]])
    params = np.array([boundary_param(domain, p) for p in centers])
    order = np.argsort(params, kind="stable")
    perim = domain.perimeter()
    # start from the cell whose parameter is nearest 0 (mod perimeter)
    p_sorted = params[order]
    start = int(np.argmin(np.minimum(p_sorted, perim - p_sorted)))
    order = np.roll(order, -start)

    rows, cols, params = rows[order], cols[order], params[order]
    gaps = np.diff(params, append=params[0] + perim) % perim
    gaps_prev = np.roll(gaps, 1)
    weights = 0.5 * (gaps + gaps_prev)
    return BoundaryTrace(
        ij=np.column_stack([rows, cols]),
        params=params,
        weights=weights,
    )


def assemble_operator(lake: Lake) -> OperatorHandle:
    """Assemble the weighted 5-point operator and factorize it."""
    n = lake.n_cells
    if n == 0:
        raise SolverError("empty interior: nothing to assemble")
    h2 = lake.cell_area
    mask, index, b = lake.mask, lake.index, lake.b
    ny, nx = mask.shape
    rows_i, cols_i, vals = [], [], []
    diag = np.zeros(n)
    cut_rows, cut_coeffs, cut_params = [], [], []

    for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)):
        shifted = np.zeros_like(mask)
        src = (slice(max(di, 0), ny + min(di, 0)), slice(max(dj, 0), nx + min(dj, 0)))
        dst = (slice(max(-di, 0), ny + min(-di, 0)), slice(max(-dj, 0), nx + min(-dj, 0)))
        shifted[dst] = mask[src]

        # interior faces (each handled once, from the +x / +y sides)
        if (di, dj) in ((0, 1), (1, 0)):
            both = mask & shifted
            r, c = np.nonzero(both)
            p = index[r, c]
            q = index[r + di, c + dj]
            cf = 2.0 / (b[r, c] + b[r + di, c + dj]) / h2
            rows_i.extend([p, q])
            cols_i.extend([q, p])
            vals.extend([-cf, -cf])
            np.add.at(diag, p, cf)
            np.add.at(diag, q, cf)

        # cut faces: interior cell whose neighbor is outside the mask
        # (cells at the grid edge keep cut=True, treating off-grid as outside)
        cut = mask.copy()
        cut[dst] &= ~mask[src]
        r, c = np.nonzero(cut)
        for ri, ci in zip(r, c):
            p = index[ri, ci]
            center = np.array([lake.xs[ci], lake.ys[ri]])
            ghost = center + np.array([dj * lake.h, di * lake.h])
            theta = cut_fraction(lake.domain, center, ghost)
            theta = min(max(theta, _THETA_MIN), 1.0)
            rj, cjj = ri + di, ci + dj
            if 0 <= rj < ny and 0 <= cjj < nx:
                b_ghost = max(b[rj, cjj], _B_FACE_MIN)
            else:
                b_ghost = max(b[ri, ci], _B_FACE_MIN)
            cf = 2.0 / (b[ri, ci] + b_ghost) / (theta * h2)
            diag[p] += cf
            crossing = center + theta * (ghost - center)
            cut_rows.append(p)
            cut_coeffs.append(cf)
            cut_params.append(boundary_param(lake.domain, crossing))

    rows_i.append(np.arange(n))
    cols_i.append(np.arange(n))
    vals.append(diag)
    rows_arr = np.concatenate([np.atleast_1d(a) for a in rows_i])
    cols_arr = np.concatenate([np.atleast_1d(a) for a in cols_i])
    vals_arr = np.concatenate([np.atleast_1d(a) for a in vals])
    matrix = csc_matrix((vals_arr, (rows_arr, cols_arr)), shape=(n, n))
    try:
        # exactly symmetric: minimum degree on A^T + A halves the fill of COLAMD
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"operator factorization failed: {exc}") from exc
    return OperatorHandle(
        lake=lake,
        matrix=matrix,
        lu=lu,
        cut_rows=np.asarray(cut_rows, dtype=np.int64),
        cut_coeffs=np.asarray(cut_coeffs, dtype=float),
        cut_params=np.asarray(cut_params, dtype=float),
    )
