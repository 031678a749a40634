from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_table_conjugate_matches_frozen_branches(knots, flat_start, seed):
    """The one-formula table F_* against the frozen three-branch form, at the
    knots, between them and past the last one, on strictly increasing tables
    (a first knot past s = 0 adds a flat first segment)."""
    rng = np.random.default_rng(seed)
    rises = np.concatenate([[0.0], rng.uniform(0.01, 2.0, knots - 1)])
    s = np.cumsum(rises) + (rng.uniform(0.1, 1.0) if flat_start else 0.0)
    v = np.cumsum(rises * rng.uniform(0.01, 3.0, knots)) + rng.uniform(0.0, 1.0)
    vf = VorticityFunction("table", points=tuple(zip(s, v)))
    tab_v = vf._table["v"]
    between = tab_v[:-1] + rng.uniform(0.0, 1.0, (50, len(tab_v) - 1)) * np.diff(tab_v)
    t = np.concatenate([tab_v, between.ravel(), tab_v[-1] + rng.uniform(0.0, 10.0, 50)])
    assert np.allclose(vf.F_star(t), table_F_star(vf, t), rtol=1e-14, atol=0.0)
    assert vf.F_star(float(t[-1])) == pytest.approx(table_F_star(vf, float(t[-1])), rel=1e-14)


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
    vf = VorticityFunction("table", points=((0.0, 0.5), (1.0, 2.0), (2.0, 1.0), (3.0, 4.0)))
    rep = verify_hypotheses(vf, 3.0, 500)
    assert rep.h1_monotone is False


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        VorticityFunction("power", p=1.0)
    with pytest.raises(ValueError):
        VorticityFunction("jump_linear", c=-0.5)
    with pytest.raises(ValueError):
        VorticityFunction("table", points=((0.0, 1.0),))
    with pytest.raises(ValueError):
        verify_hypotheses(VorticityFunction("power", p=2.0), 10.0, 50)


STEEP_TABLE = VorticityFunction("table", points=((0.0, 0.0), (1.0, 1e300)))  # slope 1e300
FLAT_TABLE = VorticityFunction("table", points=((0.0, 0.0), (1.0, 1e-20)))  # slope clamped at 1e-12


@pytest.mark.parametrize("vf, method, t", [
    # squaring t - f(0+) = -1e160 at t = 0 overflows
    (VorticityFunction("jump_linear", c=1e160), "F_star", [0.0, 1e160 + 1e150]),
    (VorticityFunction("jump_linear", c=1e308), "f_inv", [-1e308, 1.5e308]),
    # extrapolating past the last knot to s = -1e10, or t = -1e300, overflows
    (STEEP_TABLE, "f", [-1e10, 1.5]),
    (FLAT_TABLE, "f_inv", [-1e300, 2e-20]),
    (FLAT_TABLE, "F_star", [-1e300, 2e-20]),
], ids=["jump-F_star", "jump-f_inv", "table-f", "table-f_inv", "table-F_star"])
def test_discarded_branches_are_not_evaluated(vf, method, t):
    """An entry at or below f(0+) (0 for f) is 0 and its branch is not
    evaluated, so it cannot warn; every other entry is its value alone."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = getattr(vf, method)(np.array(t))
        alone = [getattr(vf, method)(x) for x in t]
    assert out.tolist() == alone
    assert alone[0] == 0.0 and 0.0 < alone[1] < math.inf
