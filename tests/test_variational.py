from __future__ import annotations

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from certificates import PATCH_REL_TOL, mass, optimality_violations, steady_residual
from cold_bathtub_reference import bathtub as cold_bathtub
from plain_iteration_reference import initial_patch_loop
from product_oracle_reference import brute_force_oracle as product_oracle
from sorted_bathtub_reference import bathtub as full_sort_bathtub

from lakevortex.elliptic import apply_K, assemble_operator
from lakevortex.geometry import build_lake, disk_indicator_averaged, rect_lake
from lakevortex.nonlinearity import VorticityFunction
from lakevortex.variational import (
    MASS_TOL_REL,
    AdmissibilityError,
    AdmissibleParams,
    SolveContext,
    SolveState,
    bathtub,
    brute_force_oracle,
    energy,
    initial_patch,
    iterate_step,
    oracle_gap_bound,
    solve_vortex,
)

# frozen run record for the reference fixture (disk_interior_max_b at 128,
# cosine flux 0.02, power p=2, eps=0.1, delta=0.3, kappa0=1, lam=50)
ANCHOR_MU = -0.05247864335306407
ANCHOR_ENERGY = -0.010864022611629207


@pytest.fixture(scope="module")
def power_fixture(interior_128, interior_128_handle, interior_128_q, vf_power2):
    params = AdmissibleParams(eps=0.1, delta=0.3, kappa0=1.0, lam=50.0)
    state = solve_vortex(interior_128_handle, interior_128_q, params, vf_power2,
                         init=(0.0, 0.0))
    return interior_128, interior_128_handle, interior_128_q, params, state


# ---------------------------------------------------------------------------
# admissibility and energy


def test_params_validation():
    with pytest.raises(AdmissibilityError):
        AdmissibleParams(eps=0.0, delta=0.3, kappa0=1.0, lam=50.0)
    lake = rect_lake(1, 1, 0.5)
    tight = AdmissibleParams(eps=1.0, delta=0.5, kappa0=10.0, lam=2.0)
    with pytest.raises(AdmissibilityError, match="empty"):
        tight.check_nonempty(lake, VorticityFunction("power"))


def test_energy_of_zero_field(interior_128, interior_128_q, vf_power2,
                              interior_128_handle):
    params = AdmissibleParams(eps=0.1, delta=0.3, kappa0=1.0, lam=50.0)
    zeta = np.zeros(interior_128.n_cells)
    ctx = SolveContext(interior_128_handle, interior_128_q, params, vf_power2)
    e = energy(ctx, zeta, apply_K(interior_128_handle, zeta), np.flatnonzero(zeta))
    assert e.e_q == 0.0 and e.f_eps == 0.0 and e.total == 0.0


def test_energy_one_cell_matches_dense_quadratic():
    lake = rect_lake(8, 8, 0.1, depth=lambda x, y: 1.0 + 0.3 * y)
    handle = assemble_operator(lake)
    rng = np.random.default_rng(2)
    q = rng.normal(size=lake.n_cells) * 0.1
    vf = VorticityFunction("power", p=2.0)
    params = AdmissibleParams(eps=0.3, delta=0.5, kappa0=1.0, lam=50.0)
    zeta = np.zeros(lake.n_cells)
    zeta[17] = 0.7
    e = energy(SolveContext(handle, q, params, vf), zeta, apply_K(handle, zeta),
               np.flatnonzero(zeta))
    # dense-inverse oracle
    a_inv = np.linalg.inv(handle.matrix.toarray())
    nuw = lake.nu_weights
    k_zeta = a_inv @ (lake.b_int * zeta)
    e_q_dense = 0.5 * float(np.dot(zeta * nuw, k_zeta)) + float(np.dot(q * nuw, zeta))
    scale = params.delta / params.eps**2
    f_dense = scale * float(np.dot(vf.F_star(zeta / scale), nuw))
    assert e.e_q == pytest.approx(e_q_dense, rel=1e-9)
    assert e.total == pytest.approx(e_q_dense - f_dense, rel=1e-9)


def test_seed_patch_energy_growth_coefficient_stable(
    interior_128, interior_128_handle, interior_128_q, vf_jump
):
    # energy of the uniform seed patch admits E = lead(eps) + C * delta with
    # lead = kappa0^2 max(b)/(4 pi) delta^2 ln(1/eps) and C stable across eps
    lake, handle, q = interior_128, interior_128_handle, interior_128_q
    cs = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        delta = 1.0 / math.log(1.0 / eps)
        params = AdmissibleParams(eps=eps, delta=delta, kappa0=1.0, lam=50.0)
        ctx = SolveContext(handle, q, params, vf_jump)
        zeta = initial_patch(ctx, (0.0, 0.0))
        e = energy(ctx, zeta, apply_K(handle, zeta), np.flatnonzero(zeta))
        lead = lake.b_int.max() / (4.0 * math.pi) * delta**2 * math.log(1.0 / eps)
        cs.append((e.total - lead) / delta)
    assert max(cs) - min(cs) <= 0.06  # measured spread 0.024


# ---------------------------------------------------------------------------
# mass and multiplier


def test_mass_examples(interior_128):
    assert mass(interior_128, np.zeros(interior_128.n_cells)) == 0.0
    lake = build_lake("disk_constant_b", 64)
    assert mass(lake, np.ones(lake.n_cells)) == pytest.approx(math.pi, abs=0.05)


def test_seed_patch_mass(interior_128, interior_128_handle, interior_128_q, vf_power2):
    params = AdmissibleParams(eps=0.1, delta=0.3, kappa0=1.0, lam=50.0)
    ctx = SolveContext(interior_128_handle, interior_128_q, params, vf_power2)
    zeta = initial_patch(ctx, (0.2, -0.1))
    radius = params.eps * math.sqrt(params.kappa0 / math.pi)
    tol = 4.0 * interior_128.h / radius
    assert mass(interior_128, zeta) == pytest.approx(params.target_mass, rel=tol)
    assert np.all(zeta <= params.cap * (1 + 1e-12))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 16), ny=st.integers(1, 16),
    on_grid=st.booleans(),  # a seed at a cell center or corner puts ties on the rim
    lam=st.floats(0.05, 5.0),  # small: cells with shallow depth sit at the cap
    log_fill=st.floats(-3.0, 0.0),  # log10 of target / (cap * |D|_nu); 0 and up: no fit
)
def test_initial_patch_matches_frozen_loop_on_random_lakes(seed, nx, ny, on_grid, lam, log_fill):
    """The seed patch against its frozen per-cell loop, bit for bit.  Where
    the loop raises, the uniform value over the whole lake falls short, and
    the patch fills the nearest cells at the cap instead: the target mass,
    at most one cell strictly between 0 and the cap, and no empty cell
    nearer the seed than a filled one."""
    rng = np.random.default_rng(seed)
    lake = rect_lake(nx, ny, 0.1, depth=lambda x, y: rng.uniform(0.2, 2.0, x.shape))
    eps, delta = rng.uniform(0.05, 1.0), rng.uniform(0.1, 1.0)
    cap_mass = lam * delta / eps**2 * lake.measure_nu
    params = AdmissibleParams(eps=eps, delta=delta, kappa0=10**log_fill * cap_mass / delta,
                              lam=lam)
    point = rng.uniform(-0.2, [0.1 * nx + 0.2, 0.1 * ny + 0.2])
    if on_grid:
        point = 0.05 * np.round(point / 0.05)
    ctx = SolveContext(assemble_operator(lake), np.zeros(lake.n_cells), params,
                       VorticityFunction("power"))
    zeta = initial_patch(ctx, point)  # the class is not empty: cap * |D|_nu >= target
    try:
        expected = initial_patch_loop(lake, params, point)
    except AdmissibilityError:
        assert mass(lake, zeta) == pytest.approx(params.target_mass, rel=MASS_TOL_REL)
        assert zeta.max() <= params.cap
        assert np.count_nonzero((zeta > 0.0) & (zeta < params.cap)) <= 1
        d2 = ((lake.centers - point) ** 2).sum(axis=1)
        assert d2[zeta > 0.0].max() <= d2[zeta == 0.0].min(initial=math.inf)
        return
    assert np.array_equal(zeta, expected)


def test_mu_closed_form_constant_stream(disk_const_64, disk_const_64_handle):
    vf = VorticityFunction("jump_linear", c=0.0)  # f(s) = max(s, 0)
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=1.0, lam=50.0)
    psi = np.full(disk_const_64.n_cells, 2.0)
    mu = bathtub(SolveContext(disk_const_64_handle, np.zeros_like(psi), params, vf), psi).mu
    expect = 2.0 - params.kappa0 * params.eps**2 / disk_const_64.measure_nu
    assert mu == pytest.approx(expect, abs=1e-10)


def test_mass_monotone_in_mu(interior_128, interior_128_handle, interior_128_q, vf_power2):
    params = AdmissibleParams(eps=0.1, delta=0.3, kappa0=1.0, lam=50.0)
    psi = interior_128_q + 0.3
    scale = params.delta / params.eps**2

    def mass_at(mu):
        z = np.minimum(scale * vf_power2.f(psi - mu), params.cap)
        return mass(interior_128, z)

    mu0 = bathtub(SolveContext(interior_128_handle, interior_128_q, params, vf_power2), psi).mu
    assert mass_at(mu0 - 0.1) >= mass_at(mu0 + 0.1)


def test_mu_unattainable_target_rejected(disk_const_64, disk_const_64_handle, vf_power2):
    # lam too small for the requested circulation: on the empty class the
    # bathtub's own mass check raises, and so does the seed patch at the cap
    params = AdmissibleParams(eps=1.0, delta=1.0, kappa0=10.0, lam=2.5)
    psi = np.zeros(disk_const_64.n_cells)
    ctx = SolveContext(disk_const_64_handle, np.zeros_like(psi), params, vf_power2)
    with pytest.raises(AdmissibilityError, match="missed the mass target"):
        bathtub(ctx, psi)
    with pytest.raises(AdmissibilityError, match="initial patch cannot carry"):
        initial_patch(ctx, (0.0, 0.0))


def test_solve_rejects_an_empty_class(disk_const_64, disk_const_64_handle, vf_power2):
    lake, handle = disk_const_64, disk_const_64_handle
    q = np.zeros(lake.n_cells)
    params = AdmissibleParams(eps=1.0, delta=1.0, kappa0=10.0, lam=2.5)
    with pytest.raises(AdmissibilityError, match="empty"):
        solve_vortex(handle, q, params, vf_power2)
    # lam <= f(0+) + 1 leaves no room above the jump
    jump = VorticityFunction("jump_linear", c=2.0)
    with pytest.raises(AdmissibilityError, match="truncation level"):
        solve_vortex(handle, q, params, jump)


def test_bathtub_fills_constant_level_at_the_jump(disk_const_64, disk_const_64_handle, vf_jump):
    # every cell is tied at the jump: mu is that level, and the fractional
    # fill of all cells meets the mass exactly
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=1.0, lam=50.0)
    psi = np.full(disk_const_64.n_cells, 0.3)
    ctx = SolveContext(disk_const_64_handle, np.zeros_like(psi), params, vf_jump)
    mu, zeta = bathtub(ctx, psi)[:2]
    assert mu == 0.3
    jump_value = params.delta / params.eps**2 * vf_jump.f_at_zero_plus
    frac = params.target_mass / (jump_value * disk_const_64.nu_weights.sum())
    assert 0.0 < frac < 1.0
    assert np.allclose(zeta, frac * jump_value, rtol=1e-14, atol=0.0)
    assert mass(disk_const_64, zeta) == pytest.approx(params.target_mass, rel=1e-14)


def test_bathtub_with_capped_cells(interior_128, interior_128_handle, interior_128_q, vf_jump):
    # small lam: the top cells sit at the cap, the band below is the free
    # profile, and the mass is met
    params = AdmissibleParams(eps=0.2, delta=0.5, kappa0=40.0, lam=1.6)
    psi = interior_128_q + 2.0 * np.exp(-8.0 * np.sum(interior_128.centers**2, axis=1))
    mu, zeta = bathtub(SolveContext(interior_128_handle, interior_128_q, params, vf_jump),
                       psi)[:2]
    at_cap = zeta == params.cap
    assert at_cap.any() and (zeta[~at_cap] < params.cap).all()
    assert (psi[at_cap] - mu >= vf_jump.f_inv(params.lam) - 1e-12).all()
    scale = params.delta / params.eps**2
    off_level = psi != mu  # cells at the level mu may carry a jump fill
    assert np.allclose(zeta[off_level],
                       np.minimum(scale * vf_jump.f(psi[off_level] - mu), params.cap),
                       rtol=1e-12, atol=0.0)
    assert (zeta[~off_level] <= scale * vf_jump.f_at_zero_plus).all()
    assert abs(mass(interior_128, zeta) - params.target_mass) <= \
        MASS_TOL_REL * params.target_mass


def _random_vf(family: str, rng) -> VorticityFunction:
    if family == "power":  # f(0+) = 0
        return VorticityFunction("power", p=float(rng.uniform(1.2, 4.0)))
    if family == "jump_linear":
        return VorticityFunction("jump_linear", c=float(rng.uniform(0.05, 2.0)))
    knots = np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, 3)])
    values = rng.uniform(0.0, 1.0) + np.cumsum(np.r_[0.0, rng.uniform(0.1, 2.0, 3)])
    vf = VorticityFunction("table", points=tuple(zip(knots, values)))
    assert vf.strictly_increasing
    return vf


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["power", "jump_linear", "table"]),
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 16), ny=st.integers(1, 16),
    distinct=st.sampled_from([0, 1, 2, 3, 6]),  # 0: continuous levels, else ties
    lam_excess=st.floats(0.01, 10.0),
    log_fill=st.floats(-3.0, -0.02),  # log10 of target / (cap * |D|_nu)
    start=st.integers(0, 300),
)
def test_bathtub_matches_full_sort_on_random_lakes(family, seed, nx, ny, distinct,
                                                   lam_excess, log_fill, start):
    # few distinct levels put ties at the candidate floor and at the jump
    # level; a small lam gives a short reach, so the top cells are capped.
    # A start from any cells (none, random ones, or those a call on a nearby
    # psi carries) gives the frozen cold-started call's bits.
    rng = np.random.default_rng(seed)
    vf = _random_vf(family, rng)
    lake = rect_lake(nx, ny, 0.1, depth=lambda x, y: rng.uniform(0.2, 2.0, x.shape))
    lam = vf.f_at_zero_plus + 1.0 + lam_excess
    params = AdmissibleParams(eps=1.0, delta=1.0,
                              kappa0=10**log_fill * lam * lake.measure_nu, lam=lam)
    spread = rng.uniform(0.1, 20.0)
    if distinct:
        psi = rng.choice(spread * np.linspace(0.0, 1.0, distinct + 1)[1:], lake.n_cells)
    else:
        psi = spread * rng.standard_normal(lake.n_cells)
    psi = psi + rng.uniform(-5.0, 5.0)
    ctx = SolveContext(assemble_operator(lake), np.zeros(lake.n_cells), params, vf)

    mu_full, zeta_full = full_sort_bathtub(lake, params, vf, psi)
    cold = cold_bathtub(lake, params, vf, psi)
    mu, zeta = cold.mu, cold.zeta
    assert np.array_equal(cold.support, np.flatnonzero(zeta))
    cells = rng.choice(lake.n_cells, min(start, lake.n_cells), replace=False)
    nearby = psi + 1e-3 * spread * rng.standard_normal(lake.n_cells)
    for cells in (cells, bathtub(ctx, nearby, cells).candidates):
        warm = bathtub(ctx, psi, cells)
        assert warm.mu == mu and np.array_equal(warm.zeta, zeta)
        assert np.array_equal(warm.support, cold.support)
        assert np.isin(warm.support, warm.candidates).all()
    tol = MASS_TOL_REL * params.target_mass
    assert mu == pytest.approx(mu_full, rel=1e-12, abs=1e-12 * spread)
    assert float(np.dot(np.abs(zeta - zeta_full), lake.nu_weights)) <= tol
    for z in (zeta_full, zeta):
        assert abs(mass(lake, z) - params.target_mass) <= tol
        assert 0.0 <= z.min() and z.max() <= params.cap


@pytest.mark.parametrize("family", ["power", "jump_linear"])
def test_warm_bathtub_matches_cold_on_tied_levels(family):
    # thousands of cells share each of a few levels and weigh differently, so
    # the prefix sums depend on the order of tied cells: it must not depend
    # on which candidates a start sorts
    vf = VorticityFunction(family, p=2.0, c=0.5)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        lake = rect_lake(64, 64, 0.02, depth=lambda x, y: rng.uniform(0.2, 2.0, x.shape))
        lam = vf.f_at_zero_plus + 3.0
        params = AdmissibleParams(eps=1.0, delta=1.0, lam=lam,
                                  kappa0=10 ** rng.uniform(-3.0, -0.5) * lam * lake.measure_nu)
        psi = rng.choice(np.linspace(0.0, 1.0, 7)[1:], lake.n_cells) \
            + 0.1 * rng.integers(0, 3, lake.n_cells)
        ctx = SolveContext(assemble_operator(lake), np.zeros(lake.n_cells), params, vf)
        cold = cold_bathtub(lake, params, vf, psi)
        starts = [rng.choice(lake.n_cells, size, replace=False) for size in (0, 10, 100, 1000)]
        starts += [cold.support, np.arange(lake.n_cells)]
        starts.append(bathtub(ctx, psi, starts[0]).candidates)
        for cells in starts:
            warm = bathtub(ctx, psi, cells)
            assert warm.mu == cold.mu and np.array_equal(warm.zeta, cold.zeta)


# ---------------------------------------------------------------------------
# iteration


def test_iteration_preserves_admissibility_and_ascends(power_fixture):
    lake, handle, q, params, state = power_fixture
    assert state.converged
    assert 0.0 <= state.zeta.min() and state.zeta.max() <= params.cap * (1 + 1e-12)
    assert mass(lake, state.zeta) == pytest.approx(
        params.target_mass, rel=1e-8
    )
    trace = np.array(state.energy_trace)
    drops = np.diff(trace) < -1e-10 * np.abs(trace[:-1])
    assert not drops.any()


def test_mixed_step_that_lowers_the_energy_is_discarded(power_fixture, monkeypatch):
    # a mix whose K image points the wrong way: every mixed output loses
    # energy, is discarded and repeats the accepted energy in the trace, and
    # plain steps still reach the same fixed point
    import lakevortex.variational as variational

    _, handle, q, params, state = power_fixture
    calls = []

    def reversed_mix(history, nu):
        (_, _, _), (g1, _, k1) = history
        calls.append(1)
        return g1, -k1

    monkeypatch.setattr(variational, "_anderson_mix", reversed_mix)
    again = solve_vortex(handle, q, params, state.ctx.vf, init=(0.0, 0.0))
    trace = np.array(again.energy_trace)
    assert calls and again.converged
    assert len(trace) == again.iterations + 1
    assert np.count_nonzero(np.diff(trace) == 0.0) == len(calls)
    assert not (np.diff(trace) < -1e-10 * np.abs(trace[:-1])).any()
    assert again.mu == pytest.approx(state.mu, rel=1e-7)


@pytest.mark.parametrize("mix", ["anderson", "every-mix-discarded"])
def test_each_solve_applies_K_once_per_step_and_once_to_its_seed(monkeypatch, mix):
    # so a sweep point's apply_K count is its iterations + 1, and a counter of
    # its own would repeat the iterations; a discarded mixed step counts as a step
    import lakevortex.asymptotics as asymptotics
    import lakevortex.variational as variational
    from lakevortex.elliptic import flux_preset

    calls, per_point, discarded = [0], [], []
    live_apply_K, live_solve = variational.apply_K, asymptotics.solve_vortex

    def counting_apply_K(handle, zeta):
        calls[0] += 1
        return live_apply_K(handle, zeta)

    def counting_solve(*args, **kwargs):
        calls[0] = 0
        state = live_solve(*args, **kwargs)
        per_point.append((calls[0], state.iterations))
        discarded.append(int(np.count_nonzero(np.diff(state.energy_trace) == 0.0)))
        return state

    def reversed_mix(history, nu):  # a mix whose every output loses energy
        (_, _, _), (g1, _, k1) = history
        return g1, -k1

    monkeypatch.setattr(variational, "apply_K", counting_apply_K)
    monkeypatch.setattr(asymptotics, "solve_vortex", counting_solve)
    if mix == "every-mix-discarded":
        monkeypatch.setattr(variational, "_anderson_mix", reversed_mix)
    lake = build_lake("disk_interior_max_b", 64)
    flux = flux_preset(lake, "cosine", amplitude=0.02)
    report = asymptotics.run_sweep(assemble_operator(lake), flux, "critical", 1.0, 50.0,
                                   [0.2, 0.14, 0.1], VorticityFunction("jump_linear", c=0.5))
    assert all(row.converged for row in report.rows) and len(per_point) == 3
    assert all(n_calls == iterations + 1 for n_calls, iterations in per_point)
    assert (sum(discarded) > 0) == (mix == "every-mix-discarded")


def test_each_step_logs_one_debug_line(caplog):
    from lakevortex.elliptic import flux_preset, solve_background

    lake = build_lake("disk_interior_max_b", 48)
    handle = assemble_operator(lake)
    q = solve_background(handle, flux_preset(lake, "cosine", amplitude=0.02))
    params = AdmissibleParams(eps=0.15, delta=0.5, kappa0=1.0, lam=50.0)
    vf = VorticityFunction("jump_linear", c=0.5)
    with caplog.at_level(logging.INFO, logger="lakevortex.variational"):
        solve_vortex(handle, q, params, vf, init=(0.0, 0.0))
    assert not caplog.records  # the step lines are DEBUG only
    with caplog.at_level(logging.DEBUG, logger="lakevortex.variational"):
        state = solve_vortex(handle, q, params, vf, init=(0.0, 0.0))
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(lines) == state.iterations
    for i, line in enumerate(lines, start=1):
        assert re.fullmatch(rf"step {i}: E=\S+ residual=\S+ mu=\S+ support=\d+ candidates=\d+"
                            r"( \(mixed(, discarded)?\))?", line), line
    last = dict(field.split("=") for field in lines[-1].split(": ", 1)[1].split()[:5])
    assert float(last["E"]) == state.energy.total and float(last["mu"]) == state.mu
    assert float(last["residual"]) == pytest.approx(state.fp_residual, rel=1e-3)
    assert int(last["support"]) == np.count_nonzero(state.zeta)
    assert np.count_nonzero(state.zeta) <= int(last["candidates"]) <= lake.n_cells


def test_converged_state_is_fixed_point(power_fixture):
    lake, handle, q, params, state = power_fixture
    new, _, _, residual = iterate_step(state.ctx, state.zeta, state.k_zeta)
    mu, zeta = new.mu, new.zeta
    change = float(np.dot(np.abs(zeta - state.zeta), lake.nu_weights))
    assert residual == pytest.approx(change) and change <= 1e-8 * params.target_mass
    assert mu == pytest.approx(state.mu, rel=1e-7)


def test_optimality_cases_hold(power_fixture):
    _, _, _, _, state = power_fixture
    viol = optimality_violations(state)
    assert viol["max"] <= 1e-6


def test_mu_lower_bound_at_fixed_point(power_fixture):
    # the multiplier's lower bound at small scales: -f_inv(f(0+)+1) + min q - 1
    _, _, q, _, state = power_fixture
    vf = state.ctx.vf
    assert state.mu >= -float(vf.f_inv(vf.f_at_zero_plus + 1.0)) + float(q.min()) - 1.0


def test_regression_anchor(power_fixture):
    _, _, _, _, state = power_fixture
    assert state.converged
    assert state.mu == pytest.approx(ANCHOR_MU, rel=1e-9)
    assert state.energy.total == pytest.approx(ANCHOR_ENERGY, rel=1e-9)
    assert not np.any(state.zeta >= (1.0 - PATCH_REL_TOL) * state.ctx.params.cap)


def test_seed_independence_logged(power_fixture, caplog):
    _, handle, q, params, state = power_fixture
    other = solve_vortex(handle, q, params, state.ctx.vf, init=(0.2, -0.1))
    rel = abs(other.energy.total - state.energy.total) / abs(state.energy.total)
    logging.getLogger(__name__).info(
        "seed independence: relative energy difference %.3e", rel
    )
    assert other.converged
    assert rel <= 1e-6  # observed on this fixture; not asserted as a general law


def test_solve_takes_a_seed_point_not_a_field(power_fixture):
    _, handle, q, params, state = power_fixture
    with pytest.raises(ValueError, match="seed must be a point"):
        solve_vortex(handle, q, params, state.ctx.vf, init=state.zeta)


def test_tiny_truncation_produces_patch(interior_128, interior_128_handle,
                                        interior_128_q, vf_jump):
    # starve the truncation: lam barely above f(0+)+1 with circulation strong
    # enough that the free profile would exceed the cap
    lam_starved = vf_jump.f_at_zero_plus + 1.01
    starved = AdmissibleParams(eps=0.2, delta=0.5, kappa0=40.0, lam=lam_starved)
    state = solve_vortex(interior_128_handle, interior_128_q, starved, vf_jump,
                         init=(0.0, 0.0))
    assert np.any(state.zeta >= (1.0 - PATCH_REL_TOL) * starved.cap)
    # the recommended truncation leaves no cells at the cap
    roomy = AdmissibleParams(eps=0.2, delta=0.5, kappa0=40.0, lam=50.0)
    state2 = solve_vortex(interior_128_handle, interior_128_q, roomy, vf_jump,
                          init=(0.0, 0.0))
    assert not np.any(state2.zeta >= (1.0 - PATCH_REL_TOL) * roomy.cap)


def test_jump_nonlinearity_solve_meets_mass_exactly(critical_state_129):
    lake, handle, q, params, state = critical_state_129
    assert mass(lake, state.zeta) == pytest.approx(params.target_mass, rel=1e-10)
    assert optimality_violations(state)["max"] <= 1e-6
    vf = state.ctx.vf
    assert state.mu >= -float(vf.f_inv(vf.f_at_zero_plus + 1.0)) + float(q.min()) - 1.0


# ---------------------------------------------------------------------------
# brute-force oracle


def test_oracle_single_cell_closed_form(vf_jump):
    lake = rect_lake(1, 1, 0.5)
    handle = assemble_operator(lake)
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=1.0, lam=8.0)
    q = np.zeros(1)
    z_star, e_star = brute_force_oracle(handle, q, params, vf_jump, m=8)
    # unique feasible value: all mass in the one cell
    z_expect = params.target_mass / lake.nu_weights[0]
    assert z_star[0] == pytest.approx(z_expect, rel=1e-12)
    z = np.array([z_expect])
    e_direct = energy(SolveContext(handle, q, params, vf_jump), z, apply_K(handle, z),
                      np.flatnonzero(z))
    assert e_star == pytest.approx(e_direct.total, rel=1e-10)


def test_oracle_without_a_quantized_field_raises(vf_jump):
    # target mass 5 against cap * nu = 16 * 0.25 = 4 in the one cell: no level
    # lies within half a quantum (0.25) of it
    handle = assemble_operator(rect_lake(1, 1, 0.5))
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=10.0, lam=8.0)
    with pytest.raises(AdmissibilityError, match="no quantized field"):
        brute_force_oracle(handle, np.zeros(1), params, vf_jump, m=8)


def test_oracle_symmetric_two_cell(vf_jump):
    lake = rect_lake(2, 1, 0.5)
    handle = assemble_operator(lake)
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=1.0, lam=8.0)
    z_star, _ = brute_force_oracle(handle, np.zeros(2), params, vf_jump, m=8)
    # symmetric functional: maximizer symmetric or a mirror pair
    mirrored, _ = brute_force_oracle(handle, np.zeros(2), params, vf_jump, m=8)
    assert (np.allclose(z_star, z_star[::-1])
            or np.allclose(np.sort(z_star), np.sort(mirrored)))


def test_solver_dominates_oracle_four_cells(vf_jump):
    lake = rect_lake(2, 2, 0.5)
    handle = assemble_operator(lake)
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=1.0, lam=8.0)
    q = 0.1 * lake.centers[:, 0]
    z_star, e_star = brute_force_oracle(handle, q, params, vf_jump, m=8)
    gap = oracle_gap_bound(handle, q, params, vf_jump, m=8)
    state = solve_vortex(handle, q, params, vf_jump, init=lake.centers[0])
    assert state.energy.total >= e_star - gap
    assert state.energy.total >= e_star - 1e-9  # run record: solver wins outright


def test_oracle_guards():
    lake = rect_lake(7, 1, 0.5)
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=1.0, lam=8.0)
    vf = VorticityFunction("power", p=2.0)
    with pytest.raises(ValueError, match="<= 6"):
        brute_force_oracle(assemble_operator(lake), np.zeros(7), params, vf, m=8)
    lake2 = rect_lake(2, 1, 0.5)
    with pytest.raises(ValueError, match="1..12"):
        brute_force_oracle(assemble_operator(lake2), np.zeros(2), params, vf, m=20)


# Both enumerations evaluate the maximizer's energy inside a batch of rows,
# and BLAS may sum the linear term z @ (q nu) of one row in another order in
# a batch of another size: at shape (1, 6), m = 11 the same field's energy
# differs by 5.6e-17 (one unit in the last place of its linear term).  The
# target mass is at most 1, so each energy term stays below 1 (0.89 at most
# over 60 sampled lakes), and reordering its at most 36 products moves it by
# under 36 * 2^-53 < 4e-15.
ORACLE_BATCH_ATOL = 1e-14


@settings(max_examples=15, deadline=None)  # the frozen walk takes up to 4 s a lake
@given(shape=st.sampled_from([(nx, ny) for nx in range(1, 7) for ny in range(1, 7) if nx * ny <= 6]),
       m=st.integers(1, 12), c=st.floats(0.0, 2.0), kappa0=st.floats(0.2, 2.0),
       q_seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 6), m=11, c=0.0, kappa0=1.5, q_seed=21916)
def test_oracle_matches_frozen_product_walk(shape, m, c, kappa0, q_seed):
    """The block enumeration against the frozen chunked itertools.product walk:
    the same maximizer bit for bit, its energy to ORACLE_BATCH_ATOL (or the
    same refusal)."""
    lake = rect_lake(*shape, 0.5)
    handle = assemble_operator(lake)
    params = AdmissibleParams(eps=0.5, delta=0.5, kappa0=kappa0, lam=8.0)
    vf = VorticityFunction("jump_linear", c=c)
    q = np.random.default_rng(q_seed).uniform(-0.5, 0.5, lake.n_cells)
    try:
        z_old, e_old = product_oracle(lake, q, params, vf, m, handle)
    except AdmissibilityError:
        with pytest.raises(AdmissibilityError):
            brute_force_oracle(handle, q, params, vf, m)
        return
    z_new, e_new = brute_force_oracle(handle, q, params, vf, m)
    assert np.array_equal(z_new, z_old)
    assert abs(e_new - e_old) <= ORACLE_BATCH_ATOL


# ---------------------------------------------------------------------------
# steadiness


def test_steady_residual_radial_case(disk_const_64, disk_const_64_handle, vf_power2):
    lake = disk_const_64
    zeta = disk_indicator_averaged(lake, (0.0, 0.0), 0.4)
    # no background flow and mu = 0: the stream function is K zeta alone
    ctx = SolveContext(handle=disk_const_64_handle, q=np.zeros(lake.n_cells),
                       params=AdmissibleParams(eps=0.1, delta=0.5, kappa0=1.0, lam=50.0),
                       vf=vf_power2)
    state = SolveState(zeta=zeta, k_zeta=apply_K(disk_const_64_handle, zeta), mu=0.0,
                       energy=None, energy_trace=[], iterations=0, converged=True,
                       fp_residual=0.0, ctx=ctx)
    assert steady_residual(lake, state) <= 10.0 * lake.h


def test_steady_residual_negative_control(critical_state_129):
    lake, handle, q, params, state = critical_state_129
    base = steady_residual(lake, state)
    rng = np.random.default_rng(7)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    shift = 0.12 * np.array([math.cos(ang), math.sin(ang)])
    grid = lake.field_to_grid(state.zeta)
    di, dj = int(round(shift[1] / lake.h)), int(round(shift[0] / lake.h))
    moved = np.roll(np.roll(grid, di, axis=0), dj, axis=1)
    moved[~lake.mask] = 0.0
    fake = SolveState(zeta=moved[lake.mask], k_zeta=state.k_zeta, mu=state.mu,
                      energy=state.energy, energy_trace=[], iterations=0,
                      converged=True, fp_residual=0.0, ctx=state.ctx)
    assert steady_residual(lake, fake) >= 10.0 * base
