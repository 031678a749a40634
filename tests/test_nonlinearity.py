from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from preset_dispatch_reference import VorticityFunction as DispatchingVorticityFunction
from table_conjugate_reference import table_F_star

from lakevortex.nonlinearity import VorticityFunction, verify_hypotheses


def test_power_values(vf_power2):
    assert vf_power2.f(3.0) == 9.0
    assert vf_power2.f(-1.0) == 0.0
    assert vf_power2.f(0.0) == 0.0


def test_jump_value_at_zero_plus():
    vf = VorticityFunction("jump_linear", c=1.0)
    assert vf.f(1e-12) == pytest.approx(1.0, abs=1e-11)
    assert vf.f(0.0) == 0.0
    assert vf.f_at_zero_plus == 1.0


def test_conjugate_power(vf_power2):
    assert vf_power2.f_inv(4.0) == pytest.approx(2.0, abs=1e-14)
    assert vf_power2.F_star(4.0) == pytest.approx(16.0 / 3.0, rel=1e-14)
    assert (vf_power2.f_inv(-1.0), vf_power2.F_star(-1.0)) == (0.0, 0.0)


def test_conjugate_below_jump_is_zero():
    vf = VorticityFunction("jump_linear", c=1.0)
    assert (vf.f_inv(0.5), vf.F_star(0.5)) == (0.0, 0.0)
    assert vf.f_inv(3.0) == pytest.approx(2.0)
    assert vf.F_star(3.0) == pytest.approx(2.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 1e4))
def test_roundtrip_power(t):
    vf = VorticityFunction("power", p=2.0)
    assert abs(vf.f(vf.f_inv(t)) - t) <= 1e-10 * max(1.0, t)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 1e4))
def test_roundtrip_jump(t):
    vf = VorticityFunction("jump_linear", c=1.0)
    tt = t + vf.f_at_zero_plus  # above the jump
    assert abs(vf.f(vf.f_inv(tt)) - tt) <= 1e-10 * max(1.0, tt)


def test_roundtrip_table():
    vf = VorticityFunction("table", points=((0.0, 0.5), (1.0, 2.0), (2.0, 3.5)))
    t = np.linspace(0.6, 12.0, 200)
    assert np.max(np.abs(vf.f(vf.f_inv(t)) - t)) <= 1e-10 * 12.0


@pytest.mark.parametrize("vf", [
    VorticityFunction("power", p=2.0),
    VorticityFunction("power", p=3.5),
    VorticityFunction("jump_linear", c=1.0),
    VorticityFunction("table", points=((0.0, 0.5), (1.0, 2.0), (2.0, 3.5))),
])
def test_conjugate_primitive_convex(vf):
    t = np.linspace(0.0, 10.0, 400)
    second = np.diff(vf.F_star(t), 2)
    assert np.all(second >= -1e-12)


def _random_table(rng, knots: int, flat_start: bool):
    """The knots (s, v) of a strictly increasing table; a first knot past
    s = 0 adds a flat first segment."""
    rises = np.concatenate([[0.0], rng.uniform(0.01, 2.0, knots - 1)])
    s = np.cumsum(rises) + (rng.uniform(0.1, 1.0) if flat_start else 0.0)
    v = np.cumsum(rises * rng.uniform(0.01, 3.0, knots)) + rng.uniform(0.0, 1.0)
    return s, v


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_table_conjugate_matches_frozen_branches(knots, flat_start, seed):
    """The one-formula table F_* against the frozen three-branch form, at the
    knots, between them and past the last one, on strictly increasing tables."""
    rng = np.random.default_rng(seed)
    s, v = _random_table(rng, knots, flat_start)
    vf = VorticityFunction("table", points=tuple(zip(s, v)))
    between = v[:-1] + rng.uniform(0.0, 1.0, (50, knots - 1)) * np.diff(v)
    t = np.concatenate([v, between.ravel(), v[-1] + rng.uniform(0.0, 10.0, 50)])
    assert np.allclose(vf.F_star(t), table_F_star(vf, t), rtol=1e-14, atol=0.0)
    assert vf.F_star(float(t[-1])) == pytest.approx(table_F_star(vf, float(t[-1])), rel=1e-14)


def _same_bits(new, ref) -> bool:
    return type(new) is type(ref) and np.asarray(new).tobytes() == np.asarray(ref).tobytes()


def _assert_matches_dispatching(fields: dict, knots):
    """The family's f, f_inv, F_*, f(0+) and strict increase, bit for bit
    against the frozen form that checked its preset on every call: at
    negative inputs, 0, f(0+), the knots, between them and past the last
    one, as one array and each as a 0-d float."""
    new, ref = VorticityFunction(**fields), DispatchingVorticityFunction(**fields)
    assert _same_bits(new.f_at_zero_plus, ref.f_at_zero_plus)
    assert _same_bits(new.strictly_increasing, ref.strictly_increasing)
    knots = np.unique(knots)
    x = np.concatenate([[-1.0, -1e-300, 0.0, new.f_at_zero_plus], knots,
                        knots[:-1] + 0.37 * np.diff(knots), knots[-1] + np.array([0.5, 10.0, 1e3])])
    for method in ("f", "f_inv", "F_star"):
        assert _same_bits(getattr(new, method)(x), getattr(ref, method)(x)), method
        for xi in x.tolist():
            assert _same_bits(getattr(new, method)(xi), getattr(ref, method)(xi)), (method, xi)


NON_MONOTONE_POINTS = ((0.0, 0.5), (1.0, 2.0), (2.0, 1.0), (3.0, 4.0))


@pytest.mark.parametrize("fields", [
    *({"preset": "power", "p": p} for p in (1.5, 2.0, 3.5)),
    *({"preset": "jump_linear", "c": c} for c in (0.0, 0.5, 1.0)),
    {"preset": "table", "points": NON_MONOTONE_POINTS},
], ids=["power-1.5", "power-2", "power-3.5", "jump-0", "jump-0.5", "jump-1", "table-non-monotone"])
def test_preset_dispatch_matches_frozen(fields):
    _assert_matches_dispatching(fields, np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_table_dispatch_matches_frozen(knots, flat_start, seed):
    s, v = _random_table(np.random.default_rng(seed), knots, flat_start)
    _assert_matches_dispatching({"preset": "table", "points": tuple(zip(s, v))},
                                np.concatenate([s, v]))


def test_hypothesis_estimates_power():
    rep = verify_hypotheses(VorticityFunction("power", p=2.0), 10.0, 4000)
    assert rep.theta0_estimate == pytest.approx(1.0 / 3.0, abs=5e-4)
    assert rep.theta1_estimate == pytest.approx(2.0 / 3.0, abs=5e-4)
    assert rep.h1_monotone


def test_hypothesis_estimates_jump():
    rep = verify_hypotheses(VorticityFunction("jump_linear", c=1.0), 10.0, 4000)
    assert rep.theta0_estimate == pytest.approx(0.5, abs=5e-4)
    # the plain conjugate ratio degenerates at the jump; the adjusted one does not
    assert rep.theta1_estimate < 0.01
    assert rep.theta1_jump_adjusted == pytest.approx(0.5, abs=5e-4)
    assert rep.h1_monotone


@pytest.mark.parametrize("vf", [
    VorticityFunction("power", p=2.0),
    VorticityFunction("jump_linear", c=1.0),
])
def test_theta0_below_one(vf):
    rep = verify_hypotheses(vf, 10.0, 1000)
    assert 0.0 < rep.theta0_estimate < 1.0


def test_non_monotone_table_flagged():
    rep = verify_hypotheses(VorticityFunction("table", points=NON_MONOTONE_POINTS), 3.0, 500)
    assert rep.h1_monotone is False
    # f has no inverse, so no conjugate ratio; theta0 reads f alone
    assert math.isnan(rep.theta1_estimate) and math.isnan(rep.theta1_jump_adjusted)
    assert math.isfinite(rep.theta0_estimate)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        VorticityFunction("power", p=1.0)
    with pytest.raises(ValueError):
        VorticityFunction("jump_linear", c=-0.5)
    with pytest.raises(ValueError):
        VorticityFunction("table", points=((0.0, 1.0),))
    with pytest.raises(ValueError):
        verify_hypotheses(VorticityFunction("power", p=2.0), 10.0, 50)
    # infinite or NaN knots; a last slope, or a knot f-value difference, that overflows
    for points in (((0.0, 0.0), (1.0, math.inf)), ((0.0, math.nan), (1.0, 1.0)),
                   ((0.0, 0.0), (1e-320, 1.0)), ((0.0, -1e308), (1.0, 1e308))):
        with pytest.raises(ValueError, match="finite"):
            VorticityFunction("table", points=points)
    for points in (((0.0, 0.0), (0.0, 1.0), (1.0, 2.0)), ((1.0, 0.0), (0.5, 1.0))):
        with pytest.raises(ValueError, match="increasing"):
            VorticityFunction("table", points=points)
    with pytest.raises(ValueError, match="unknown nonlinearity preset 'sigmoid'"):
        VorticityFunction("sigmoid")
    for s_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="s_max must be positive"):
            verify_hypotheses(VorticityFunction("power", p=2.0), s_max, 100)


STEEP_TABLE = VorticityFunction("table", points=((0.0, 0.0), (1.0, 1e300)))  # slope 1e300
FLAT_TABLE = VorticityFunction("table", points=((0.0, 0.0), (1.0, 1e-20)))  # slope clamped at 1e-12
# F_*'s cumulative integral overflows on the last segment (inf times a flat
# segment: NaN), and is read only past its knot
WIDE_TABLE = VorticityFunction("table", points=((0.0, 0.0), (1.0, 1.0), (1e300, 1e300)))
FLAT_WIDE_TABLE = VorticityFunction("table", points=((0.0, 0.0), (1e308, 1.0), (1.7e308, 1.0)))


@pytest.mark.parametrize("vf, method, t", [
    # squaring t - f(0+) = -1e160 at t = 0 overflows
    (VorticityFunction("jump_linear", c=1e160), "F_star", [0.0, 1e160 + 1e150]),
    (VorticityFunction("jump_linear", c=1e308), "f_inv", [-1e308, 1.5e308]),
    # extrapolating past the last knot to s = -1e10, or t = -1e300, overflows
    (STEEP_TABLE, "f", [-1e10, 1.5]),
    (FLAT_TABLE, "f_inv", [-1e300, 2e-20]),
    (FLAT_TABLE, "F_star", [-1e300, 2e-20]),
    (WIDE_TABLE, "F_star", [0.0, 0.5]),
    (FLAT_WIDE_TABLE, "F_star", [0.0, 0.5]),
], ids=["jump-F_star", "jump-f_inv", "table-f", "table-f_inv", "table-F_star",
        "wide-table-F_star", "flat-wide-table-F_star"])
def test_discarded_branches_are_not_evaluated(vf, method, t):
    """An entry at or below f(0+) (0 for f) is 0 and its branch is not
    evaluated, so it cannot warn; every other entry is its value alone."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = getattr(vf, method)(np.array(t))
        alone = [getattr(vf, method)(x) for x in t]
    assert out.tolist() == alone
    assert alone[0] == 0.0 and 0.0 < alone[1] < math.inf
