"""Frozen reference: ``VorticityFunction`` and ``_piecewise`` as they were
when every member checked which preset it holds, on every call, and a table
kept its knots in a ``_table`` dict.  ``VorticityFunction`` replaced this with
one preset dispatch at construction.  Kept verbatim for the differential test
of the two.  Test-only code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class VorticityFunction:
    """A nonlinearity preset: 'power' (max(s,0)^p), 'jump_linear' ((c+s) for
    s>0, else 0), or 'table' (monotone piecewise-linear interpolation)."""

    preset: str
    p: float = 2.0
    c: float = 0.0
    points: tuple = ()
    _table: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.preset == "power":
            if not 1.0 < self.p < math.inf:
                raise ValueError(f"power preset needs a finite exponent p > 1, got {self.p}")
        elif self.preset == "jump_linear":
            if not 0.0 <= self.c < math.inf:
                raise ValueError(f"jump_linear preset needs a finite jump c >= 0, got {self.c}")
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
            # extrapolation slope beyond the last knot keeps f increasing
            slope = (v[-1] - v[-2]) / (s[-1] - s[-2])
            self._table.update(s=s, v=v, slope=max(slope, 1e-12))
        else:
            raise ValueError(f"unknown nonlinearity preset {self.preset!r}")

    @property
    def strictly_increasing(self) -> bool:
        """f(0+) >= 0 and rising knots; a table whose first knot is past 0 is flat below it."""
        if self.preset != "table":
            return True
        v = self._table["v"]
        return bool(v[0] >= 0.0 and np.all(np.diff(v) > 0.0))

    @property
    def f_at_zero_plus(self) -> float:
        if self.preset == "power":
            return 0.0
        if self.preset == "jump_linear":
            return self.c
        return float(self._table["v"][0])

    def f(self, s):
        s = np.asarray(s, dtype=float)
        if self.preset == "power":
            return _piecewise(s, s > 0.0, lambda x: x ** self.p)
        if self.preset == "jump_linear":
            return _piecewise(s, s > 0.0, lambda x: self.c + x)
        tab = self._table
        return _piecewise(s, s > 0.0, lambda x: _piecewise(
            x, x > tab["s"][-1],
            lambda y: tab["v"][-1] + tab["slope"] * (y - tab["s"][-1]),
            lambda y: np.interp(y, tab["s"], tab["v"])))

    def f_inv(self, t):
        """Inverse of f on (f(0+), inf), identically 0 at and below f(0+)."""
        t = np.asarray(t, dtype=float)
        f0 = self.f_at_zero_plus
        if self.preset == "power":
            return _piecewise(t, t > 0.0, lambda x: x ** (1.0 / self.p))
        if self.preset == "jump_linear":
            return _piecewise(t, t > f0, lambda x: x - f0)
        tab = self._table
        return _piecewise(t, t > f0, lambda x: _piecewise(
            x, x > tab["v"][-1],
            lambda y: tab["s"][-1] + (y - tab["v"][-1]) / tab["slope"],
            lambda y: np.interp(y, tab["v"], tab["s"])))

    def F_star(self, t):
        """Conjugate primitive: integral of f_inv from 0 to t (0 for t <= f(0+))."""
        t = np.asarray(t, dtype=float)
        f0 = self.f_at_zero_plus
        if self.preset == "power":
            q = (self.p + 1.0) / self.p
            return _piecewise(t, t > 0.0, lambda x: x ** q / q)
        if self.preset == "jump_linear":
            return _piecewise(t, t > f0, lambda x: 0.5 * (x - f0) ** 2)
        v, s = self._table["v"], self._table["s"]
        # exact piecewise-quadratic cumulative integral of the pw-linear
        # inverse, continued past the last knot along its extrapolation
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * np.diff(v))])

        def above_f0(x):
            j = np.maximum(np.searchsorted(v, x) - 1, 0)  # the last knot below x
            return cum[j] + 0.5 * (s[j] + self.f_inv(x)) * (x - v[j])

        return _piecewise(t, t > f0, above_f0)


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
