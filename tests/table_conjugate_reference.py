"""Frozen reference: the conjugate primitive F_* of a table nonlinearity as
three branches (below, inside and past the knots), which
``VorticityFunction.F_star`` replaced with one formula over the last knot
below t.  Kept verbatim for the differential test of the two, except that
it rebuilds the knots and slope from ``vf.points``.  Test-only code.
"""

from __future__ import annotations

import numpy as np

from lakevortex.nonlinearity import VorticityFunction


def table_F_star(vf: VorticityFunction, t):
    """Conjugate primitive: integral of f_inv from 0 to t (0 for t <= f(0+))."""
    t = np.asarray(t, dtype=float)
    f0 = vf.f_at_zero_plus
    # the knots and slope as the table builds them: a first knot past s = 0
    # adds a flat first segment
    pts = np.asarray(vf.points, dtype=float)
    s, v = pts[:, 0], pts[:, 1]
    if s[0] > 0.0:
        s, v = np.concatenate([[0.0], s]), np.concatenate([[v[0]], v])
    tab = {"s": s, "v": v, "slope": max((v[-1] - v[-2]) / (s[-1] - s[-2]), 1e-12)}
    knots_t = tab["v"]
    knots_s = tab["s"]
    # exact piecewise-quadratic cumulative integral of the pw-linear inverse
    seg = 0.5 * (knots_s[1:] + knots_s[:-1]) * np.diff(knots_t)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    out = np.interp(t, knots_t, cum)
    inside = (t > knots_t[0]) & (t <= knots_t[-1])
    if np.any(inside):
        j = np.clip(np.searchsorted(knots_t, t) - 1, 0, len(knots_t) - 2)
        dt = t - knots_t[j]
        dv = knots_t[j + 1] - knots_t[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(dv > 0, dt / dv, 0.0)
        s_at = knots_s[j] + frac * (knots_s[j + 1] - knots_s[j])
        exact = cum[j] + 0.5 * (knots_s[j] + s_at) * dt
        out = np.where(inside, exact, out)
    over = t > knots_t[-1]
    if np.any(over):
        dt = t - knots_t[-1]
        s_at = knots_s[-1] + dt / tab["slope"]
        out = np.where(over, cum[-1] + 0.5 * (knots_s[-1] + s_at) * dt, out)
    out = np.where(t > f0, out, 0.0)
    return out if out.ndim else float(out)
