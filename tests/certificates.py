"""Certificates of a solved state, which the tests check and no command
writes: its weighted mass, the three-case optimality conditions of its
bathtub profile, and the weak-form steadiness defect of the vortex.  The
full stream function is K zeta + q - mu, with mu the state's multiplier.
"""

from __future__ import annotations

import numpy as np

from lakevortex.geometry import Lake
from lakevortex.variational import SolveState, vorticity_center

# a cell within this relative distance of the cap counts as capped
PATCH_REL_TOL = 1e-9


def mass(lake: Lake, zeta: np.ndarray) -> float:
    """Weighted mass sum(zeta * b * h^2)."""
    return float(np.dot(zeta, lake.nu_weights))


def optimality_violations(state: SolveState) -> dict:
    """Cell-wise residuals of the three-case optimality conditions.

    On {zeta = cap}: psi >= f_inv((eps^2/delta) zeta); on {0 < zeta < cap}:
    psi = f_inv(...); on {zeta = 0}: psi <= f_inv(...) = 0.  Returns the
    maximal violation per case.
    """
    ctx = state.ctx
    params = ctx.params
    scale = params.eps**2 / params.delta
    psi = state.k_zeta + ctx.q - state.mu
    zeta = state.zeta
    finv = ctx.vf.f_inv(scale * zeta)
    at_cap = zeta >= (1.0 - PATCH_REL_TOL) * params.cap
    at_zero = zeta <= 0.0
    interior = ~at_cap & ~at_zero
    out = {
        "cap": float(np.maximum(finv[at_cap] - psi[at_cap], 0.0).max()) if at_cap.any() else 0.0,
        "interior": float(np.abs(psi[interior] - finv[interior]).max()) if interior.any() else 0.0,
        "zero": float(np.maximum(psi[at_zero] - finv[at_zero], 0.0).max()) if at_zero.any() else 0.0,
    }
    out["max"] = max(out.values())
    return out


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
    psi_grid = np.full(lake.mask.shape, np.nan)  # NaN outside: one-sided differences there
    psi_grid[lake.mask] = state.k_zeta + state.ctx.q - state.mu
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
