"""Vorticity-function families: f, its inverse, the conjugate primitive, and
numerical certificates for the monotonicity and growth hypotheses.

Every family satisfies f(s) = 0 for s <= 0 and is strictly increasing on
[0, inf); f may jump at 0+ (the jump_linear preset exercises f(0+) > 0).
A table may break this (see strictly_increasing); the solver must not get one.
The inverse is extended by 0 at and below f(0+), and the conjugate primitive
is F_*(t) = integral of the inverse from 0 to t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VorticityFunction:
    """A nonlinearity preset: 'power' (max(s,0)^p), 'jump_linear' ((c+s) for
    s>0, else 0), or 'table' (monotone piecewise-linear interpolation).

    Construction reads the preset once.  It sets f_at_zero_plus and
    strictly_increasing (f(0+) >= 0 and rising knots; a table whose first knot
    is past 0 is flat below it), and the family's branches: f for s > 0, and
    f_inv and F_* for t > f(0+)."""

    preset: str
    p: float = 2.0
    c: float = 0.0
    points: tuple = ()

    def __post_init__(self):
        f0, increasing = 0.0, True
        if self.preset == "power":
            if not 1.0 < self.p < math.inf:
                raise ValueError(f"power preset needs a finite exponent p > 1, got {self.p}")
            p, q = self.p, (self.p + 1.0) / self.p
            branches = (lambda x: x ** p, lambda x: x ** (1.0 / p), lambda x: x ** q / q)
        elif self.preset == "jump_linear":
            if not 0.0 <= self.c < math.inf:
                raise ValueError(f"jump_linear preset needs a finite jump c >= 0, got {self.c}")
            f0 = self.c
            branches = (lambda x: f0 + x, lambda x: x - f0, lambda x: 0.5 * (x - f0) ** 2)
        elif self.preset == "table":
            pts = np.asarray(self.points, dtype=float)
            if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
                raise ValueError("table preset needs >= 2 (s, f) pairs")
            if not np.all(np.isfinite(pts)):
                raise ValueError("table preset needs finite (s, f) pairs")
            if np.any(np.diff(pts[:, 0]) <= 0) or pts[0, 0] < 0:
                raise ValueError("table abscissae must be increasing and >= 0")
            s, v = pts[:, 0], pts[:, 1]
            if s[0] > 0.0:
                s = np.concatenate([[0.0], s])
                v = np.concatenate([[v[0]], v])
            with np.errstate(over="ignore", invalid="ignore"):
                dv = np.diff(v)
                slope = dv[-1] / (s[-1] - s[-2])
                # exact piecewise-quadratic cumulative integral of the pw-linear
                # inverse; an entry that overflows (or is inf times a flat
                # segment, NaN) is read only for t past its knot
                cum = np.concatenate([[0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * dv)])
            if not (np.all(np.isfinite(dv)) and math.isfinite(slope)):
                raise ValueError("table f-value differences and last slope must be finite")
            slope = max(slope, 1e-12)  # extrapolated past the last knot, f keeps increasing
            f0, increasing = float(v[0]), bool(v[0] >= 0.0 and np.all(dv > 0.0))

            def f_inv(x):
                return _piecewise(x, x > v[-1], lambda y: s[-1] + (y - v[-1]) / slope,
                                  lambda y: np.interp(y, v, s))

            def F_star(x):
                j = np.maximum(np.searchsorted(v, x) - 1, 0)  # the last knot below x
                return cum[j] + 0.5 * (s[j] + f_inv(x)) * (x - v[j])

            branches = (lambda x: _piecewise(x, x > s[-1], lambda y: v[-1] + slope * (y - s[-1]),
                                             lambda y: np.interp(y, s, v)), f_inv, F_star)
        else:
            raise ValueError(f"unknown nonlinearity preset {self.preset!r}")
        for name, value in zip(("f_at_zero_plus", "strictly_increasing", "_f", "_f_inv", "_F_star"),
                               (f0, increasing, *branches)):
            object.__setattr__(self, name, value)

    def f(self, s):
        s = np.asarray(s, dtype=float)
        return _piecewise(s, s > 0.0, self._f)

    def f_inv(self, t):
        """Inverse of f on (f(0+), inf), identically 0 at and below f(0+)."""
        t = np.asarray(t, dtype=float)
        return _piecewise(t, t > self.f_at_zero_plus, self._f_inv)

    def F_star(self, t):
        """Conjugate primitive: integral of f_inv from 0 to t (0 for t <= f(0+))."""
        t = np.asarray(t, dtype=float)
        return _piecewise(t, t > self.f_at_zero_plus, self._F_star)


def _piecewise(x: np.ndarray, live, value, other=None):
    """value(x) where live holds and other(x) (default 0.0) elsewhere.  Each
    function sees only its own entries: np.where evaluates both on all of x,
    and a discarded entry can overflow.  A 0-d x gives a float in numpy's
    scalar arithmetic, whose power can round apart from its array loop."""
    if not x.ndim:
        return float(value(x[()]) if live else other(x[()]) if other else 0.0)
    out = np.zeros(x.shape)
    out[live] = value(x[live])
    if other is not None:
        out[~live] = other(x[~live])
    return out


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled certificates for the structural hypotheses on f.

    theta0_estimate: supremum of int_0^s (f - f(0+)) / ((f(s) - f(0+)) s).
    theta1_estimate: infimum of F_*(t) / (t f_inv(t)), the conjugate ratio in
    its plain form.  For families with a jump at 0+ the plain ratio
    degenerates to 0 as t approaches f(0+), so the jump-aware variant
    F_*(t) / ((t - f(0+)) f_inv(t)) is recorded alongside; it is the exact
    Legendre dual of the theta0 bound and stays in (0, 1) for jump families.
    Both are NaN when the sampled f does not rise (h1_monotone is False).
    """

    theta0_estimate: float
    theta1_estimate: float
    theta1_jump_adjusted: float
    h1_monotone: bool
    s_max: float
    n_samples: int


def verify_hypotheses(vf: VorticityFunction, s_max: float, n: int) -> HypothesisReport:
    """Numerically certify monotonicity and the two growth-ratio constants.

    Samples a log-spaced grid (0, s_max], integrates f - f(0+) cumulatively
    by the trapezoid rule, and reports the extremal ratios observed.  A
    ValueError means the grid is out of float range for f: s * f(s)
    overflows or underflows, or a family that strictly increases has two
    samples that round to the same f.
    """
    if s_max <= 0.0:
        raise ValueError("s_max must be positive")
    if n < 100:
        raise ValueError("need at least 100 sample points")
    s = np.concatenate([[0.0], np.logspace(np.log10(s_max) - 8, np.log10(s_max), n)])
    f0 = vf.f_at_zero_plus
    try:
        # an underflow turns the ratios' denominators to 0, and f flat
        with np.errstate(over="ignore", under="raise"):
            fs = vf.f(s)
            denom = (fs - f0) * s
    except FloatingPointError:
        raise ValueError(f"s * (f(s) - f(0+)) underflows on the grid down to s = {s[1]:g}") from None
    with np.errstate(over="ignore"):
        # every ratio below is bounded by s * f(s), which must stay finite
        finite = np.all(np.isfinite(fs * s))
    if not finite:
        raise ValueError(f"s * f(s) overflows on the grid up to s_max = {s_max:g}")
    rises = np.diff(fs[1:]) > 0
    monotone = bool(np.all(rises))
    if not monotone and vf.strictly_increasing:
        # f rises between any two samples, so two that do not differ rounded
        # together: f's increment there is below the float resolution of f
        i = 1 + int(np.argmin(rises))
        raise ValueError(f"f does not resolve the grid step from s = {s[i]:g} to {s[i + 1]:g}: "
                         f"the increment is below the float resolution {np.spacing(fs[i]):g} "
                         f"of f = {fs[i]:g}")

    integrand = fs - f0
    integrand[0] = 0.0  # f(0) = 0 contributes nothing below the jump
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s))])
    # the ratio is certified only where the quadrature below the sample point
    # dominates the unresolved first segment [0, s_1] by a fixed factor
    valid = denom > 0.0
    valid &= s >= 16.0 * s[1]
    theta0 = float(np.max(cum[valid] / denom[valid])) if valid.any() else float("nan")
    if not monotone:  # an f that does not rise has no inverse to take conjugate ratios of
        return HypothesisReport(theta0, math.nan, math.nan, monotone, s_max, n)

    t = np.logspace(np.log10(max(f0, 1e-12)) if f0 > 0 else np.log10(vf.f(s_max)) - 8,
                    np.log10(vf.f(s_max)), n)
    finv = vf.f_inv(t)
    fstar = vf.F_star(t)
    denom_plain = t * finv
    denom_adj = (t - f0) * finv
    valid_p = denom_plain > 0.0
    valid_a = denom_adj > 0.0
    theta1 = float(np.min(fstar[valid_p] / denom_plain[valid_p])) if valid_p.any() else float("nan")
    theta1_adj = float(np.min(fstar[valid_a] / denom_adj[valid_a])) if valid_a.any() else float("nan")

    return HypothesisReport(
        theta0_estimate=theta0,
        theta1_estimate=theta1,
        theta1_jump_adjusted=theta1_adj,
        h1_monotone=monotone,
        s_max=s_max,
        n_samples=n,
    )
