"""Frozen reference: the steadiness defect evaluated over every cell, which
``variational.steady_residual`` replaced with one over the support and the
cells around each test field's disc.  Kept verbatim, with the helpers it
calls, for the differential test of the two.  Test-only code.
"""

from __future__ import annotations

import numpy as np

from lakevortex.geometry import Lake
from lakevortex.variational import SolveState, vorticity_center


def _bump(p: np.ndarray, center, radius: float):
    """Smooth compactly supported bump and its analytic gradient at points p."""
    dx = p[:, 0] - center[0]
    dy = p[:, 1] - center[1]
    r2 = (dx * dx + dy * dy) / radius**2
    inside = r2 < 1.0 - 1e-12
    phi = np.zeros(len(p))
    gx = np.zeros(len(p))
    gy = np.zeros(len(p))
    u = r2[inside]
    e = np.exp(1.0 - 1.0 / (1.0 - u))
    phi[inside] = e
    dphi = -e / (1.0 - u) ** 2  # d phi / d r2
    gx[inside] = dphi * 2.0 * dx[inside] / radius**2
    gy[inside] = dphi * 2.0 * dy[inside] / radius**2
    return phi, gx, gy


def _test_field_family(center):
    """Deterministic family of smooth compactly supported test fields."""
    offsets = [(0.0, 0.0), (0.12, 0.0), (-0.12, 0.0), (0.0, 0.12), (0.0, -0.12)]
    fields = []
    for ox, oy in offsets:
        for rad in (0.15, 0.3):
            c = (center[0] + ox, center[1] + oy)
            fields.append(("bump", c, rad))
            fields.append(("xbump", c, rad))
            fields.append(("ybump", c, rad))
    return fields


def steady_residual(lake: Lake, state: SolveState) -> float:
    """Weak-form steadiness defect max_phi |sum zeta * rot(psi) . grad(phi) h^2|
    normalized by the plain L1 mass of zeta and max |grad phi|.

    rot(psi) = (d2 psi, -d1 psi) is evaluated by centered differences (one-
    sided at mask edges); the test fields are smooth bumps and coordinate-
    modulated bumps near the vorticity core.
    """
    zeta = state.zeta
    mass_plain = float(zeta.sum()) * lake.cell_area
    if mass_plain <= 0.0:
        return 0.0
    psi_grid = lake.field_to_grid(state.psi_total, fill=np.nan)
    dpsi_dx = _masked_gradient(psi_grid, lake.h, axis=1)
    dpsi_dy = _masked_gradient(psi_grid, lake.h, axis=0)
    rot_x = dpsi_dy[lake.mask]
    rot_y = -dpsi_dx[lake.mask]

    wz = zeta * lake.cell_area
    worst = 0.0
    for kind, c, rad in _test_field_family(vorticity_center(lake, zeta)):
        phi, gx, gy = _bump(lake.centers, c, rad)
        if kind == "xbump":
            sx = lake.centers[:, 0] - c[0]
            gx, gy = phi + sx * gx, sx * gy
        elif kind == "ybump":
            sy = lake.centers[:, 1] - c[1]
            gx, gy = sy * gx, phi + sy * gy
        gnorm = float(np.hypot(gx, gy).max())
        if gnorm <= 0.0:
            continue
        integral = float(np.dot(wz, rot_x * gx + rot_y * gy))
        worst = max(worst, abs(integral) / (mass_plain * gnorm))
    return worst


def _masked_gradient(grid: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centered differences falling back to one-sided next to NaN cells."""
    fwd = np.roll(grid, -1, axis=axis)
    bwd = np.roll(grid, 1, axis=axis)
    centered = (fwd - bwd) / (2 * h)
    one_fwd = (fwd - grid) / h
    one_bwd = (grid - bwd) / h
    out = centered
    out = np.where(np.isnan(out), one_fwd, out)
    out = np.where(np.isnan(out), one_bwd, out)
    return np.where(np.isnan(out), 0.0, out)
