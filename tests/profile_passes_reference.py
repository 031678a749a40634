"""Frozen reference: the radial profile whose bin means took one boolean pass
over the samples per bin, which ``asymptotics.rescale_profile`` replaced with
one grouping of the samples by bin.  Kept verbatim for the bit-for-bit
differential test of the two.  Test-only code.
"""

from __future__ import annotations

import numpy as np


def rescale_profile(lake, zeta: np.ndarray, params, center, diam: float) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    half_width = 3.0 * (diam / 2.0) / params.eps
    coords = np.linspace(-half_width, half_width, 64)
    XX, YY = np.meshgrid(coords, coords)
    px = center[0] + params.eps * XX
    py = center[1] + params.eps * YY

    grid_z = lake.field_to_grid(zeta)
    fx = (px - lake.xs[0]) / lake.h
    fy = (py - lake.ys[0]) / lake.h
    i0 = np.clip(np.floor(fy).astype(int), 0, grid_z.shape[0] - 2)
    j0 = np.clip(np.floor(fx).astype(int), 0, grid_z.shape[1] - 2)
    ty = np.clip(fy - i0, 0.0, 1.0)
    tx = np.clip(fx - j0, 0.0, 1.0)
    vals = (
        grid_z[i0, j0] * (1 - tx) * (1 - ty)
        + grid_z[i0, j0 + 1] * tx * (1 - ty)
        + grid_z[i0 + 1, j0] * (1 - tx) * ty
        + grid_z[i0 + 1, j0 + 1] * tx * ty
    )
    xi = params.eps**2 / params.delta * vals

    rr = np.hypot(XX, YY).ravel()
    vv = xi.ravel()
    n_bins = 24
    edges = np.linspace(0.0, half_width, n_bins + 1)
    means = np.full(n_bins, np.nan)
    idx = np.clip(np.searchsorted(edges, rr, side="right") - 1, 0, n_bins - 1)
    for k in range(n_bins):
        sel = idx == k
        if sel.any():
            means[k] = vv[sel].mean()
    return means
