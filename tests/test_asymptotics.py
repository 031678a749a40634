from __future__ import annotations

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from certificates import PATCH_REL_TOL, mass
from sweep_states import sweep_with_states

from lakevortex.asymptotics import (
    MIN_PROFILE_CELLS,
    _loglog_slope,
    delta_of_eps,
    mass_fraction_near,
    predicted_target,
    radial_monotonicity_score,
    rescale_profile,
    run_sweep,
    vorticity_center,
)
from lakevortex.elliptic import (
    CompatibilityError,
    SolverError,
    assemble_operator,
    flux_preset,
    solve_background,
)
from lakevortex.geometry import build_lake, disk_indicator_averaged, max_pairwise_distance
from lakevortex.nonlinearity import VorticityFunction
from lakevortex.variational import AdmissibilityError, AdmissibleParams


# ---------------------------------------------------------------------------
# schedules


def test_delta_formulas():
    eps = math.exp(-10.0)
    assert delta_of_eps("critical", eps) == pytest.approx(0.1, rel=1e-12)
    assert delta_of_eps("below_critical", eps) == pytest.approx(0.01, rel=1e-12)
    assert delta_of_eps("above_critical", eps) == pytest.approx(
        1.0 / math.sqrt(10.0), rel=1e-12
    )


def test_below_critical_product_vanishes():
    eps = np.exp(-np.linspace(2, 12, 6))
    products = [delta_of_eps("below_critical", e) * math.log(1 / e) for e in eps]
    assert all(p2 < p1 for p1, p2 in zip(products, products[1:]))
    assert products[-1] == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_above_critical_ratio_decreasing():
    eps = np.exp(-np.linspace(2, 12, 6))
    ratios = [(1.0 / math.log(1 / e)) / delta_of_eps("above_critical", e) for e in eps]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_delta_rejects_large_eps():
    with pytest.raises(AdmissibilityError):
        delta_of_eps("critical", 0.5)
    with pytest.raises(AdmissibilityError):
        delta_of_eps("sideways", 0.1)


# ---------------------------------------------------------------------------
# support and center diagnostics


def test_vorticity_center(disk_const_64):
    lake = disk_const_64
    z = disk_indicator_averaged(lake, (0.25, -0.15), 0.2)
    assert vorticity_center(lake, z) == pytest.approx([0.25, -0.15], abs=1e-3)
    single = np.zeros(lake.n_cells)
    single[42] = 3.0
    assert np.allclose(vorticity_center(lake, single), lake.centers[42])
    with pytest.raises(ValueError):
        vorticity_center(lake, np.zeros(lake.n_cells))


# ---------------------------------------------------------------------------
# profiles


def _profile(lake, zeta, params):
    """The radial bin means around the origin, with the support's diameter."""
    diam = max_pairwise_distance(lake.centers[zeta > 0.0])
    return rescale_profile(lake, zeta, params, (0.0, 0.0), diam)


def test_rescale_profile_radial_bump(disk_const_64):
    lake = disk_const_64
    r2 = np.sum(lake.centers**2, axis=1)
    z = np.exp(-r2 / 0.02)
    params = AdmissibleParams(eps=0.1, delta=0.5, kappa0=1.0, lam=50.0)
    assert radial_monotonicity_score(_profile(lake, z, params)) >= 0.99


def test_rescale_profile_constant_ball_amplitude(disk_const_64):
    lake = disk_const_64
    params = AdmissibleParams(eps=0.1, delta=0.5, kappa0=1.0, lam=50.0)
    c = 2.5
    z = c * disk_indicator_averaged(lake, (0.0, 0.0), 3.0 * params.eps)
    means = _profile(lake, z, params)
    # rescaled amplitude c * eps^2/delta well inside the rescaled ball radius 3:
    # the support spans at most 0.7, so 24 bins over 3 support radii are at
    # most 0.44 wide and the first four lie within rescaled radius 1.75
    assert means[:4] == pytest.approx(c * params.eps**2 / params.delta, rel=1e-6)


def test_radial_score_extremes():
    assert radial_monotonicity_score(np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])) == 1.0
    assert radial_monotonicity_score(np.array([0.5, 1.0, 2.0, 3.0, 4.0, 5.0])) == 0.0
    assert radial_monotonicity_score(np.full(6, 2.0)) == 1.0
    # empty bins are skipped
    assert radial_monotonicity_score(np.array([3.0, np.nan, 2.0, np.nan])) == 1.0


def test_radial_score_ring_profile(disk_const_64):
    # an annulus scores ~1/2 (its rise equals its fall by construction), far
    # below the monotone-core threshold; the score cannot drop strictly below
    # 1/2 for an isolated compact ring, so the boundary value itself is pinned
    lake = disk_const_64
    r = np.hypot(*lake.centers.T)
    ring = np.exp(-((r - 0.25) ** 2) / 0.003)  # annular peak away from center
    params = AdmissibleParams(eps=0.1, delta=0.5, kappa0=1.0, lam=50.0)
    score = radial_monotonicity_score(_profile(lake, ring, params))
    assert score == pytest.approx(0.5, abs=2e-3)
    assert score < 0.9


# ---------------------------------------------------------------------------
# targets


def test_predicted_target_depth_max():
    lake = build_lake("disk_interior_max_b", 64)
    q = np.zeros(lake.n_cells)
    point = lake.centers[predicted_target(lake, q, 1.0, "above_critical")]
    assert np.hypot(*point) <= lake.h


def test_predicted_target_background_max(disk_const_64, disk_const_64_handle):
    q = solve_background(disk_const_64_handle, flux_preset(disk_const_64, "cosine"))
    point = disk_const_64.centers[predicted_target(disk_const_64, q, 1.0, "below_critical")]
    # top boundary-adjacent cell
    assert point[1] > 1.0 - 3 * disk_const_64.h
    assert abs(point[0]) <= 2 * disk_const_64.h


def test_predicted_target_rejects_an_unknown_regime(disk_const_64):
    with pytest.raises(AdmissibilityError, match="unknown regime 'sideways'"):
        predicted_target(disk_const_64, np.zeros(disk_const_64.n_cells), 1.0, "sideways")


def test_predicted_target_combined_moves_with_circulation():
    lake = build_lake("disk_interior_max_b", 64)
    handle = assemble_operator(lake)
    q = solve_background(handle, flux_preset(lake, "cosine", amplitude=0.02))
    strong = lake.centers[predicted_target(lake, q, 100.0, "critical")]
    weak = lake.centers[predicted_target(lake, q, 1e-3, "critical")]
    b_argmax = lake.centers[predicted_target(lake, q, 1.0, "above_critical")]
    q_argmax = lake.centers[predicted_target(lake, q, 1.0, "below_critical")]
    # strong circulation pins the combined target at the depth maximum,
    # vanishing circulation moves it to the background maximum
    assert np.hypot(*(strong - b_argmax)) <= 2 * lake.h
    assert np.hypot(*(weak - q_argmax)) <= 2 * lake.h


def test_mass_fraction_near(disk_const_64):
    lake = disk_const_64
    z = disk_indicator_averaged(lake, (0.3, 0.0), 0.1)
    assert mass_fraction_near(lake, z, (0.3, 0.0), 0.2) == pytest.approx(1.0)
    # a ball of half the patch's radius holds a quarter of its mass
    assert mass_fraction_near(lake, z, (0.3, 0.0), 0.05) == pytest.approx(0.25, abs=0.01)
    assert mass_fraction_near(lake, z, (-0.5, 0.0), 0.2) == pytest.approx(0.0)
    assert mass_fraction_near(lake, np.zeros(lake.n_cells), (0.0, 0.0), 0.2) == 0.0


# ---------------------------------------------------------------------------
# sweep machinery (small grid; the full fixture runs in the acceptance suite)


@pytest.fixture(scope="module")
def small_sweep():
    lake = build_lake("disk_interior_max_b", 96)
    handle = assemble_operator(lake)
    flux = flux_preset(lake, "cosine", amplitude=0.02)
    vf = VorticityFunction("jump_linear", c=0.5)
    report, states = sweep_with_states(handle, flux, "critical", kappa0=1.0, lam=50.0,
                                       eps_list=[0.2, 0.14, 0.1], vf=vf)
    return lake, report, states


def test_sweep_rows_and_slope(small_sweep):
    _, report, _ = small_sweep
    assert len(report.rows) == 3
    assert all(r.converged for r in report.rows)
    assert report.checks["diam_slope"] is not None
    eps = np.array([r.eps for r in report.rows])
    assert np.all(np.diff(eps) < 0)


def test_sweep_rows_satisfy_solve_invariants(small_sweep):
    lake, report, states = small_sweep
    for row, state in zip(report.rows, states, strict=True):
        assert row.dist_boundary > 0
        assert 0.0 <= row.mass_frac <= 1.0
        assert np.isfinite(row.mu) and np.isfinite(row.E_total)
        params = state.ctx.params
        assert mass(lake, state.zeta) == pytest.approx(params.target_mass, rel=1e-8)
        assert not np.any(state.zeta >= (1.0 - PATCH_REL_TOL) * params.cap)


def test_sweep_single_point_has_no_fit():
    lake = build_lake("disk_interior_max_b", 96)
    handle = assemble_operator(lake)
    flux = flux_preset(lake, "cosine", amplitude=0.02)
    vf = VorticityFunction("jump_linear", c=0.5)
    report = run_sweep(handle, flux, "critical", kappa0=1.0, lam=50.0,
                       eps_list=[0.1], vf=vf)
    assert len(report.rows) == 1
    assert report.checks["diam_slope"] is None
    assert report.checks.get("enough_points") is False


def test_sweep_rejects_increasing_eps():
    lake = build_lake("disk_interior_max_b", 96)
    flux = flux_preset(lake, "cosine", amplitude=0.02)
    vf = VorticityFunction("jump_linear", c=0.5)
    with pytest.raises(AdmissibilityError):
        run_sweep(assemble_operator(lake), flux, "critical", kappa0=1.0, lam=50.0,
                  eps_list=[0.1, 0.2], vf=vf)


def test_boundary_depth_max_records_decay_not_floor():
    # depth peaks at the shore: the interior floor does not apply; the decay
    # exponent of the support's boundary distance is recorded, not asserted
    lake = build_lake("disk_boundary_max_b", 96)
    handle = assemble_operator(lake)
    flux = flux_preset(lake, "zero")
    vf = VorticityFunction("jump_linear", c=0.5)
    report = run_sweep(handle, flux, "above_critical", kappa0=1.0,
                       lam=50.0, eps_list=[0.2, 0.14, 0.1], vf=vf)
    assert report.checks["depth_max_interior"] is False
    assert "interior_distance_floor" not in report.checks
    assert report.checks["dist_boundary_positive"] is True
    # the former inline fit of log dist_boundary against log ln(1/eps)
    rows = [r for r in report.rows if r.converged]
    dist_b = np.array([r.dist_boundary for r in rows])
    logs = np.array([math.log(math.log(1 / r.eps)) for r in rows])
    good = dist_b > 0
    assert good.sum() == 3
    fitted = float(-np.polyfit(logs[good], np.log(dist_b[good]), 1)[0])
    assert report.checks["boundary_decay_exponent"] == pytest.approx(fitted, rel=1e-12)


def test_loglog_slope_matches_polyfit():
    # the closed form against LAPACK's least squares, over the entries with y > 0
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(2, 12))
        log_x = np.sort(rng.uniform(-6.0, 2.0, m))
        y = rng.lognormal(0.0, 2.0, m) * rng.choice([-1.0, 0.0, 1.0, 1.0, 1.0], m)
        good = y > 0.0
        if good.sum() < 2:
            assert _loglog_slope(log_x, y) is None
            continue
        fitted = float(np.polyfit(log_x[good], np.log(y[good]), 1)[0])
        assert _loglog_slope(log_x, y) == pytest.approx(fitted, rel=1e-12, abs=1e-12)


def test_loglog_slope_on_a_line_and_below_two_points():
    log_x = np.log([0.2, 0.14, 0.1, 0.07])
    assert _loglog_slope(log_x, np.exp(1.5 * log_x + 0.25)) == pytest.approx(1.5, rel=1e-14)
    assert _loglog_slope(log_x, np.ones(4)) == 0.0
    assert _loglog_slope(log_x, np.array([1.0, 0.0, -1.0, np.nan])) is None
    assert _loglog_slope(log_x[:1], np.array([1.0])) is None


@pytest.mark.parametrize("preset, regime", [("disk_interior_max_b", "critical"),
                                            ("disk_boundary_max_b", "above_critical")])
def test_sweep_fits_without_lapack(monkeypatch, preset, regime):
    """A sweep's slopes (diam_slope, and the shore's decay exponent where the
    depth peaks at the shore) need no LAPACK least squares, whose first call
    raised a 257^2 sweep's peak RSS by about 1 MB."""
    def refused(*args, **kwargs):
        raise AssertionError("a sweep called LAPACK least squares")

    monkeypatch.setattr(np, "polyfit", refused)
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    lake = build_lake(preset, 48)
    report = run_sweep(assemble_operator(lake), flux_preset(lake, "zero"), regime,
                       kappa0=1.0, lam=50.0, eps_list=[0.2, 0.14, 0.1],
                       vf=VorticityFunction("jump_linear", c=0.5))
    assert report.checks["diam_slope"] is not None
    assert ("boundary_decay_exponent" in report.checks) == (regime == "above_critical")


def test_sweep_continues_past_failed_point(monkeypatch, caplog):
    # a numerical failure at the middle point fails that point alone
    import lakevortex.asymptotics as asymptotics

    live = asymptotics.solve_vortex

    def failing_at_014(handle, q, params, *rest, **kw):
        if params.eps == 0.14:
            raise SolverError("injected residual failure")
        return live(handle, q, params, *rest, **kw)

    monkeypatch.setattr(asymptotics, "solve_vortex", failing_at_014)
    lake = build_lake("disk_interior_max_b", 96)
    handle = assemble_operator(lake)
    flux = flux_preset(lake, "cosine", amplitude=0.02)
    vf = VorticityFunction("jump_linear", c=0.5)
    with caplog.at_level(logging.ERROR, logger="lakevortex.asymptotics"):
        report, states = sweep_with_states(handle, flux, "critical", kappa0=1.0, lam=50.0,
                                           eps_list=[0.2, 0.14, 0.1], vf=vf)
    assert [r.converged for r in report.rows] == [True, False, True]
    assert [s is None for s in states] == [False, True, False]
    failed = report.rows[1].row()
    assert failed[:2] == [0.14, delta_of_eps("critical", 0.14)]
    assert all(math.isnan(v) for v in failed[2:])
    assert "sweep point eps=0.14 failed: injected residual failure" in caplog.text
    assert report.checks["all_converged"] is False


@pytest.mark.parametrize("changes, error", [
    ({"eps_list": [0.5, 0.2]}, AdmissibilityError),  # 0.5 is outside (0, 1/e)
    ({"kappa0": 0.0}, AdmissibilityError),
], ids=["eps-above-1/e", "kappa0-zero"])
def test_sweep_rejects_bad_inputs_before_any_solve(monkeypatch, changes, error):
    # the inputs of every point are checked before the first solve, not
    # recorded as failed points
    import lakevortex.asymptotics as asymptotics

    calls = []
    monkeypatch.setattr(asymptotics, "solve_vortex", lambda *a, **kw: calls.append(a))
    lake = build_lake("disk_interior_max_b", 32)
    vf = VorticityFunction("jump_linear", c=0.5)
    args = dict(kappa0=1.0, lam=50.0, eps_list=[0.2, 0.14], vf=vf)
    with pytest.raises(error):
        run_sweep(assemble_operator(lake), flux_preset(lake, "zero"), "critical",
                  **dict(args, **changes))
    assert calls == []


def test_sweep_retains_no_per_point_field():
    """What a sweep still holds when it returns does not grow with its eps
    points by a field per point: four more points add under one n-sized float
    array each (a kept zeta and K zeta would add two)."""
    lake = build_lake("disk_interior_max_b", 64)
    handle = assemble_operator(lake)
    flux = flux_preset(lake, "cosine", amplitude=0.02)
    vf = VorticityFunction("jump_linear", c=0.5)
    eps_list = [0.2, 0.17, 0.14, 0.12, 0.1, 0.085]
    run_sweep(handle, flux, "critical", kappa0=1.0, lam=50.0, eps_list=eps_list[:2],
              vf=vf)  # first-call caches are not the sweep's
    held = {}
    for count in (2, 6):
        tracemalloc.start()
        try:
            report = run_sweep(handle, flux, "critical", kappa0=1.0, lam=50.0,
                               eps_list=eps_list[:count], vf=vf)
            held[count] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(r.converged for r in report.rows)
        del report
    assert held[6] - held[2] < 4 * 8 * lake.n_cells


@pytest.mark.parametrize("regime", ["above_critical", "critical", "below_critical"])
def test_flat_score_sweep_has_one_target_and_small_memory(regime, caplog):
    """Zero flux on constant depth makes every regime's score flat, so every
    cell ties for its maximum.  The target is the first cell, one WARNING says
    so, and the sweep's traced peak stays under 8 MB (99-102 MB while each
    point measured its support against every tied cell)."""
    lake = build_lake("disk_constant_b", 129)
    handle = assemble_operator(lake)
    vf = VorticityFunction("jump_linear", c=0.5)
    tracemalloc.start()
    try:
        with caplog.at_level(logging.WARNING, logger="lakevortex.asymptotics"):
            report = run_sweep(handle, flux_preset(lake, "zero"), regime, kappa0=1.0,
                               lam=50.0, eps_list=[0.2, 0.1], vf=vf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.array_equal(report.target, lake.centers[0])
    assert all(r.converged for r in report.rows)
    tie_warnings = [r.getMessage() for r in caplog.records if "score's maximum" in r.getMessage()]
    assert tie_warnings == [f"{regime} target: {lake.n_cells} cells lie within 1e-10 of the "
                            "score's maximum; the first in index order is used"]


def test_a_unique_score_maximum_logs_no_warning(caplog):
    # the bundled sweeps' lake and flux, at 129^2: one cell at each regime's maximum
    lake = build_lake("disk_interior_max_b", 129)
    q = solve_background(assemble_operator(lake), flux_preset(lake, "cosine", amplitude=0.02))
    with caplog.at_level(logging.WARNING, logger="lakevortex.asymptotics"):
        for regime in ("above_critical", "critical", "below_critical"):
            predicted_target(lake, q, 1.0, regime)
    assert caplog.records == []


def test_sweep_propagates_an_empty_class():
    # lam <= f(0+) + 1: an inadmissible point is the input's fault, not a failed row
    lake = build_lake("disk_interior_max_b", 32)
    vf = VorticityFunction("jump_linear", c=0.5)
    with pytest.raises(AdmissibilityError, match=r"truncation level 1\.0 must exceed f\(0\+\)\+1"):
        run_sweep(assemble_operator(lake), flux_preset(lake, "zero"), "critical", kappa0=1.0,
                  lam=1.0, eps_list=[0.2], vf=vf)


def test_background_beyond_float_range_is_incompatible():
    """A finite custom flux whose circulation potential Q overflows (nu_i +
    nu_i+1 at 1.05e308): the background solve, alone and in a sweep, raises
    CompatibilityError, without numpy's overflow warnings on the way."""
    lake = build_lake("disk_interior_max_b", 64)
    handle = assemble_operator(lake)
    nu = flux_preset(lake, "custom", points=[[0, 1.05e308], [0.7, 0], [5.58, 0]])
    vf = VorticityFunction("jump_linear", c=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CompatibilityError, match="out of float range"):
            solve_background(handle, nu)
        with pytest.raises(CompatibilityError, match="out of float range"):
            run_sweep(handle, nu, "critical", kappa0=1.0, lam=50.0, eps_list=[0.2], vf=vf)


def test_sweep_propagates_programming_errors(monkeypatch):
    # only the package's numerical errors turn into failed rows
    import lakevortex.asymptotics as asymptotics

    def broken(*args, **kwargs):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(asymptotics, "solve_vortex", broken)
    lake = build_lake("disk_interior_max_b", 32)
    vf = VorticityFunction("jump_linear", c=0.5)
    with pytest.raises(TypeError, match="not a numerical failure"):
        run_sweep(assemble_operator(lake), flux_preset(lake, "zero"), "critical", kappa0=1.0,
                  lam=50.0, eps_list=[0.2], vf=vf)


def test_sweep_propagates_value_errors_from_the_profile(monkeypatch):
    # a resolved support always has a profile: an error there is a bug
    import lakevortex.asymptotics as asymptotics

    def broken(*args, **kwargs):
        raise ValueError("not an under-resolved support")

    monkeypatch.setattr(asymptotics, "rescale_profile", broken)
    lake = build_lake("disk_interior_max_b", 32)
    vf = VorticityFunction("jump_linear", c=0.5)
    with pytest.raises(ValueError, match="not an under-resolved support"):
        run_sweep(assemble_operator(lake), flux_preset(lake, "zero"), "critical", kappa0=1.0,
                  lam=50.0, eps_list=[0.2], vf=vf)


def test_sweep_scores_under_resolved_support_as_nan():
    lake = build_lake("disk_interior_max_b", 32)
    vf = VorticityFunction("jump_linear", c=0.5)
    report = run_sweep(assemble_operator(lake), flux_preset(lake, "zero"), "critical", kappa0=1.0,
                       lam=50.0, eps_list=[0.2, 0.1], vf=vf)
    resolved, unresolved = report.rows
    assert resolved.converged and unresolved.converged
    assert resolved.diam_supp >= MIN_PROFILE_CELLS * lake.h
    assert resolved.radial_score == 1.0
    assert unresolved.diam_supp < MIN_PROFILE_CELLS * lake.h
    assert math.isnan(unresolved.radial_score)
