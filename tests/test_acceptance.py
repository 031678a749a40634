"""Acceptance suite: every criterion at its stated tolerance, one line each.

The regime-classification fixture is the interior-peaked-depth disk at
resolution 257 with a cosine background flux and the jump vorticity family;
each vanishing-rate regime uses its bundled flux amplitude (0.02 / 0.02 /
0.15).  Run with `pytest tests/test_acceptance.py -v -s`.  The file also
holds the differential tests of the candidate-set bathtub against the frozen
full-sort bathtub on every regression state, of the bathtub started from
no cells, unrelated cells, the support, carried candidates and every cell
against the frozen cold-started one on every regression state, of the mixed iteration against the frozen plain loop from
the same seeds, of the seed patch against its frozen per-cell loop on every
bundled seed, a count of the cells the bathtub passes to f on a 257^2 state,
a count of the argpartitions and f calls of a bathtub call per start,
a count of the argpartitions and repeated f levels over a 129^2 solve, a
check of every step of that solve against the cold-started bathtub, and a
check of the support diameter against the frozen Qhull diameter on every
regression state, of the exact support zeta > 0 against the relative rule
it replaced, and of diagnose at one target point against the tie-set path it
replaced.  The optimality and steadiness certificates are test
helpers, in certificates.py.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import profile_passes_reference as profile_ref
import pytest
import scipy_geometry_reference as scipy_ref
from certificates import PATCH_REL_TOL, mass, optimality_violations, steady_residual
from cold_bathtub_reference import bathtub as cold_bathtub
from plain_iteration_reference import initial_patch_loop
from plain_iteration_reference import solve_vortex as plain_solve_vortex
from sorted_bathtub_reference import bathtub as full_sort_bathtub
from sweep_states import sweep_with_states

from lakevortex import asymptotics, geometry
from lakevortex.asymptotics import rescale_profile
from lakevortex.elliptic import (
    CompatibilityError,
    apply_K,
    assemble_operator,
    flux_preset,
    kernel_representation_residual,
    solve_background,
)
from lakevortex.geometry import (
    build_lake,
    disk_indicator_averaged,
    green_disk,
    h_kernel,
    h_kernel_bounds,
    max_pairwise_distance,
)
from lakevortex.nonlinearity import VorticityFunction
from lakevortex.variational import (
    MASS_TOL_REL,
    AdmissibleParams,
    SolveContext,
    bathtub,
    brute_force_oracle,
    initial_patch,
    solve_vortex,
    vorticity_center,
)

EPS_LIST = [0.2, 0.14, 0.1, 0.07, 0.05, 0.035, 0.025]
REGIME_AMPLITUDE = {"above_critical": 0.02, "critical": 0.02, "below_critical": 0.15}
FIXTURE_VF = VorticityFunction("jump_linear", c=0.5)


@pytest.fixture(scope="module")
def fixture_lake():
    lake = build_lake("disk_interior_max_b", 257)
    return lake, assemble_operator(lake)


@pytest.fixture(scope="module")
def regime_reports(fixture_lake):
    """The three regime sweeps on the shared 257^2 fixture lake, with each
    point's solved state."""
    lake, handle = fixture_lake
    t0 = time.monotonic()
    reports, states = {}, {}
    for regime, amplitude in REGIME_AMPLITUDE.items():
        flux = flux_preset(lake, "cosine", amplitude=amplitude)
        reports[regime], states[regime] = sweep_with_states(
            handle, flux, regime, kappa0=1.0, lam=50.0,
            eps_list=EPS_LIST, vf=FIXTURE_VF,
        )
    elapsed = time.monotonic() - t0
    return lake, reports, states, elapsed


@pytest.fixture(scope="module")
def regression_states(regime_reports, critical_state_129, interior_128,
                      interior_128_handle, interior_128_q, vf_power2):
    """Every converged state the regression suite produces."""
    lake257, _, swept, _ = regime_reports
    states = []
    for sweep in swept.values():
        states.extend((lake257, s) for s in sweep if s is not None)
    lake129, _, _, _, st129 = critical_state_129
    states.append((lake129, st129))
    params = AdmissibleParams(eps=0.1, delta=0.3, kappa0=1.0, lam=50.0)
    anchor = solve_vortex(interior_128_handle, interior_128_q, params, vf_power2,
                          init=(0.0, 0.0))
    states.append((interior_128, anchor))
    return states


def test_criterion_1_oracle_equivalence(acceptance_report):
    from lakevortex.cli import tiny_oracle_fixtures

    t0 = time.monotonic()
    ok = True
    details = []
    for name, lake, q, params, m in tiny_oracle_fixtures():
        handle = assemble_operator(lake)
        _, e_star, gap = brute_force_oracle(handle, q, params, FIXTURE_VF, m)
        state = solve_vortex(handle, q, params, FIXTURE_VF, init=lake.centers[0])
        this_ok = state.converged and state.energy.total >= e_star - gap
        ok = ok and this_ok
        details.append(f"{name}: {state.energy.total:.6g} >= {e_star:.6g} - {gap:.3g}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    acceptance_report("1 oracle equivalence", ok, f"{'; '.join(details)}; {elapsed:.1f}s")
    assert ok


def test_criterion_2_elliptic_correctness(acceptance_report):
    t0 = time.monotonic()
    psi_center_exact = 1.0 / 16.0 + math.log(2.0) / 8.0

    def psi_exact(r):
        return psi_center_exact - r * r / 4.0 if r <= 0.5 else 0.125 * math.log(1.0 / r)

    errors, errors_linf, hs = [], [], []
    for res in (64, 128, 256):  # h = 1/32, 1/64, 1/128
        lake = build_lake("disk_constant_b", res)
        handle = assemble_operator(lake)
        zeta = disk_indicator_averaged(lake, (0.0, 0.0), 0.5)
        psi = apply_K(handle, zeta)
        c0 = int(np.argmin(np.hypot(*lake.centers.T)))
        errors.append(abs(psi[c0] - psi_exact(float(np.hypot(*lake.centers[c0])))))
        radii = np.hypot(*lake.centers.T)
        exact = np.array([psi_exact(r) for r in radii])
        errors_linf.append(float(np.abs(psi - exact).max()))
        hs.append(lake.h)
    order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    order_linf = float(np.polyfit(np.log(hs), np.log(errors_linf), 1)[0])

    lake8 = build_lake("disk_interior_max_b", 32)
    handle8 = assemble_operator(lake8)
    rng = np.random.default_rng(17)
    z1, z2 = rng.normal(size=(2, lake8.n_cells))
    nuw = lake8.nu_weights
    lhs = float(np.dot(z1 * nuw, apply_K(handle8, z2)))
    rhs = float(np.dot(z2 * nuw, apply_K(handle8, z1)))
    adj_rel = abs(lhs - rhs) / abs(lhs)
    elapsed = time.monotonic() - t0
    ok = order >= 1.8 and order_linf >= 1.8 and adj_rel <= 1e-9 and elapsed < 120.0
    acceptance_report("2 elliptic correctness", ok,
            f"center order={order:.2f}, Linf order={order_linf:.2f} (>=1.8), "
            f"self-adjoint rel={adj_rel:.2e} (<=1e-9), {elapsed:.1f}s")
    assert ok


def test_criterion_3_background_flow(acceptance_report):
    lake = build_lake("disk_constant_b", 128)
    handle = assemble_operator(lake)
    q = solve_background(handle, flux_preset(lake, "cosine"))
    err = float(np.abs(q - lake.centers[:, 1]).max())
    rejected = False
    try:
        solve_background(handle, np.ones(len(lake.boundary)))
    except CompatibilityError:
        rejected = True
    ok = err <= 5.0 * lake.h and rejected
    acceptance_report("3 background flow", ok,
            f"Linf={err:.2e} (<= {5 * lake.h:.2e}), constant-flux rejected={rejected}")
    assert ok


def test_criterion_4_optimality_structure(regression_states, acceptance_report):
    worst_case = 0.0
    worst_mass = 0.0
    ok = True
    for lake, state in regression_states:
        params = state.ctx.params
        viol = optimality_violations(state)["max"]
        mass_err = abs(mass(lake, state.zeta) - params.target_mass)
        worst_case = max(worst_case, viol)
        worst_mass = max(worst_mass, mass_err / params.target_mass)
        ok = ok and state.converged
        ok = ok and viol <= 1e-6
        ok = ok and mass_err <= 1e-8 * params.target_mass
        # the multiplier's small-scale lower bound -f_inv(f(0+)+1) + min q - 1,
        # and no cell at the truncation cap
        vf, q = state.ctx.vf, state.ctx.q
        ok = ok and state.mu >= -float(vf.f_inv(vf.f_at_zero_plus + 1.0)) + float(q.min()) - 1.0
        ok = ok and not np.any(state.zeta >= (1.0 - PATCH_REL_TOL) * params.cap)
    acceptance_report("4 optimality structure", ok,
            f"{len(regression_states)} states, worst case residual "
            f"{worst_case:.2e}, worst mass err {worst_mass:.2e}")
    assert ok


def test_criterion_5_monotone_ascent(regression_states, acceptance_report):
    violations = 0
    for _, state in regression_states:
        trace = np.array(state.energy_trace)
        drops = np.diff(trace) < -1e-10 * np.abs(trace[:-1])
        violations += int(drops.sum())
    ok = violations == 0
    acceptance_report("5 monotone ascent", ok,
            f"{violations} violations across {len(regression_states)} runs")
    assert ok


def test_bathtub_matches_frozen_full_sort(regression_states):
    """The candidate-set bathtub against the frozen bathtub that sorts every
    cell, on the next linearized problem of every regression state."""
    assert len(regression_states) == 23
    for lake, state in regression_states:
        ctx = state.ctx
        psi_free = state.k_zeta + ctx.q
        mu_full, zeta_full = full_sort_bathtub(lake, ctx.params, ctx.vf, psi_free)
        mu_new, zeta_new = bathtub(ctx, psi_free)[:2]
        tol = MASS_TOL_REL * ctx.params.target_mass
        assert mu_new == pytest.approx(mu_full, rel=1e-12, abs=0.0)
        assert float(np.dot(np.abs(zeta_new - zeta_full), lake.nu_weights)) <= tol
        for zeta in (zeta_full, zeta_new):
            assert abs(mass(lake, zeta) - ctx.params.target_mass) <= tol


def test_rescale_profile_matches_frozen_bin_passes(regression_states):
    """The radial bin means from one grouping of the samples against the
    frozen one-pass-per-bin loop, bit for bit, at every regression state's
    vorticity center and support diameter, and at diameter 0, where every
    sample falls in the last bin and the others are empty (NaN)."""
    assert len(regression_states) == 23
    for lake, state in regression_states:
        center = vorticity_center(lake, state.zeta)
        diam = max_pairwise_distance(lake.centers[state.zeta > 0.0])
        for d in (diam, 0.0):
            new = rescale_profile(lake, state.zeta, state.ctx.params, center, d)
            old = profile_ref.rescale_profile(lake, state.zeta, state.ctx.params, center, d)
            assert new.tobytes() == old.tobytes() and np.isnan(new).any() == (d == 0.0)


def test_support_diameter_matches_frozen_qhull(regression_states):
    """The support diameter of every regression state, and each lake's
    diameter, against the frozen Qhull diameter, bit for bit."""
    assert len(regression_states) == 23
    lakes = {id(lake): lake for lake, _ in regression_states}
    for lake in lakes.values():
        assert lake.diameter == scipy_ref.max_pairwise_distance(lake.centers)
    for lake, state in regression_states:
        support = lake.centers[state.zeta > 0.0]
        assert len(support) > 16  # past the reference's brute-force cut-off
        assert (geometry.max_pairwise_distance(support)
                == scipy_ref.max_pairwise_distance(support))


def test_exact_support_matches_the_relative_rule(regression_states, critical_state_129):
    """The support diagnose measures, zeta > 0, against the rule it replaced,
    zeta > 1e-12 max zeta, on every regression state and on power-f states
    (f(0+) = 0, so the field falls continuously to 0 at the rim) at three p
    and three eps on the 129^2 critical lake: the same cells every time."""
    lake129, handle, q, _, _ = critical_state_129
    states = list(regression_states)
    for p in (1.5, 2.0, 3.0):
        for eps in (0.2, 0.1, 0.05):
            params = AdmissibleParams(eps=eps, delta=1.0 / math.log(1.0 / eps), kappa0=1.0,
                                      lam=50.0)
            state = solve_vortex(handle, q, params, VorticityFunction("power", p=p),
                                 init=(0.0, 0.28))
            assert state.converged
            states.append((lake129, state))
    assert len(states) == 32
    smallest = 1.0
    for _, state in states:
        zeta = state.zeta
        assert np.array_equal(zeta > 0.0, zeta > 1e-12 * zeta.max())
        smallest = min(smallest, zeta[zeta > 0.0].min() / zeta.max())
    print(f"smallest positive zeta over 32 states: {smallest:.2e} of the maximum")


@pytest.fixture(scope="module")
def power_state_129(critical_state_129):
    """A power-f (p = 3, f(0+) = 0) state on the 129^2 critical lake: mu comes
    from the bisection of a continuous mass, not from a jump fill."""
    lake, handle, q, params, _ = critical_state_129
    state = solve_vortex(handle, q, params, VorticityFunction("power", p=3.0),
                         init=(0.0, 0.28))
    assert state.converged
    return lake, state


def _starts(state, psi_free, n: int) -> dict:
    """Carried-cell starts for the bathtub on the next problem of state: none,
    an unrelated set (the lowest levels), a random set, the state's support,
    the candidates a call on that problem carries, and every cell."""
    rng = np.random.default_rng(n)
    return {"empty": (), "lowest": np.argsort(psi_free, kind="stable")[:50],
            "random": np.sort(rng.choice(n, 50, replace=False)),
            "support": np.flatnonzero(state.zeta),
            "carried": bathtub(state.ctx, psi_free).candidates,
            "all": np.arange(n)}


def _same_as_cold(warm, cold, psi_free) -> None:
    """warm has the frozen cold call's mu and zeta bit for bit, returns the
    support of zeta, and carries the top candidates, support included."""
    assert warm.mu == cold.mu
    assert np.array_equal(warm.zeta, cold.zeta)
    assert np.array_equal(warm.support, np.flatnonzero(warm.zeta))
    levels = psi_free[warm.candidates]
    assert (np.diff(levels) <= 0.0).all()
    assert np.isin(warm.support, warm.candidates).all()


def test_warm_bathtub_matches_cold_bit_for_bit(regression_states, power_state_129):
    """On the next linearized problem of every regression state and of a
    power-f state, the bathtub started from no cells, unrelated cells (the
    fallback to rungs), the state's support, carried candidates or every
    cell gives the frozen cold-started call's mu and zeta bit for bit, and
    carries the same candidates from every start."""
    assert len(regression_states) == 23
    for lake, state in regression_states + [power_state_129]:
        ctx = state.ctx
        psi_free = state.k_zeta + ctx.q
        cold = cold_bathtub(lake, ctx.params, ctx.vf, psi_free)
        assert np.array_equal(cold.support, np.flatnonzero(cold.zeta))
        carried = None
        for cells in _starts(state, psi_free, lake.n_cells).values():
            warm = bathtub(ctx, psi_free, cells)
            _same_as_cold(warm, cold, psi_free)
            carried = warm.candidates if carried is None else carried
            assert np.array_equal(warm.candidates, carried)


def test_every_step_of_the_solve_matches_cold_bit_for_bit(critical_state_129, monkeypatch):
    """Every bathtub call of the 129^2 critical solve, from the cells the
    solve carries, from no cells and from unrelated cells, against the frozen
    cold-started call, bit for bit."""
    import lakevortex.variational as variational

    lake, handle, q, params, state = critical_state_129
    live_bathtub, calls = variational.bathtub, []

    def checked_bathtub(ctx, psi_free, cells=()):
        warm = live_bathtub(ctx, psi_free, cells)
        cold = cold_bathtub(ctx.handle.lake, ctx.params, ctx.vf, psi_free)
        _same_as_cold(warm, cold, psi_free)
        for start in ((), np.argsort(psi_free, kind="stable")[:50]):
            _same_as_cold(live_bathtub(ctx, psi_free, start), cold, psi_free)
        calls.append(len(cells))
        return warm

    monkeypatch.setattr(variational, "bathtub", checked_bathtub)
    again = solve_vortex(handle, q, params, state.ctx.vf, init=(0.0, 0.28))
    assert len(calls) == again.iterations == state.iterations
    assert np.array_equal(again.zeta, state.zeta) and again.mu == state.mu
    assert min(calls) > 0  # every step starts from carried cells


class _Counts:
    """Counts the full-grid argpartitions and the f calls of each bathtub
    call, and the levels at which f was evaluated twice in one call."""

    def __init__(self, monkeypatch):
        self.argpartition = self.f = self.repeats = 0
        self.seen = set()
        argpartition, f = np.argpartition, VorticityFunction.f

        def counting_argpartition(a, *args, **kwargs):
            self.argpartition += 1
            return argpartition(a, *args, **kwargs)

        def counting_f(vf, s):
            self.f += 1
            key = np.asarray(s).tobytes()
            self.repeats += bool(key) and key in self.seen  # an empty band repeats freely
            self.seen.add(key)
            return f(vf, s)

        monkeypatch.setattr(np, "argpartition", counting_argpartition)
        monkeypatch.setattr(VorticityFunction, "f", counting_f)

    def reset(self) -> None:
        self.argpartition = self.f = self.repeats = 0
        self.seen.clear()


def test_warm_bathtub_sorts_once_and_calls_f_less(critical_state_129, monkeypatch):
    """On the 129^2 critical state, the bathtub started from the candidates
    it carries, or from every cell, partitions nothing; from no cells it
    partitions once per rung.  From the carried candidates it calls f less
    often than the frozen cold-started call.  Within one candidate set no
    level is evaluated twice: a start that sorts one set repeats none."""
    lake, _, q, params, state = critical_state_129
    vf = state.ctx.vf
    psi_free = state.k_zeta + q
    starts = _starts(state, psi_free, lake.n_cells)
    counts = _Counts(monkeypatch)
    cold_bathtub(lake, params, vf, psi_free)
    cold_f = counts.f
    for name, cells in starts.items():
        counts.reset()
        warm = bathtub(state.ctx, psi_free, cells)
        if name in ("carried", "all"):
            assert counts.argpartition == 0 and counts.repeats == 0
        if name == "empty":
            assert counts.argpartition >= 1
        if name == "carried":
            assert counts.f < cold_f
            assert len(warm.candidates) <= 2 * len(warm.support)


def test_solve_partitions_the_grid_only_in_its_first_step(critical_state_129, monkeypatch):
    """Over the 129^2 critical solve only the first bathtub call, which
    starts from the seed patch's support, may partition the full grid; every
    later call starts from the candidates the one before carried, sorts that
    one set and evaluates f at no level twice."""
    import lakevortex.variational as variational

    _, handle, q, params, state = critical_state_129
    counts = _Counts(monkeypatch)
    live_bathtub, partitions, repeats = variational.bathtub, [], []

    def counting_bathtub(*args, **kwargs):
        counts.reset()
        out = live_bathtub(*args, **kwargs)
        partitions.append(counts.argpartition)
        repeats.append(counts.repeats)
        return out

    monkeypatch.setattr(variational, "bathtub", counting_bathtub)
    again = solve_vortex(handle, q, params, state.ctx.vf, init=(0.0, 0.28))
    assert again.iterations == state.iterations == len(partitions)
    assert partitions[0] <= 1 and not any(partitions[1:])
    assert not any(repeats[1:])


def _regression_seeds(regime_reports) -> list:
    """The seed point of each regression state, in the fixture's order."""
    _, reports, swept, _ = regime_reports
    seeds = [reports[regime].target for regime, sweep in swept.items()
             for s in sweep if s is not None]
    return seeds + [(0.0, 0.28), (0.0, 0.0)]


def test_mixed_iteration_matches_frozen_plain_loop(regime_reports, regression_states):
    """The loop with the Anderson-mixed tail against the frozen plain loop
    from the same lake, q, params, f and seed on every regression state: the
    same fixed point to the stopping rule's resolution, in no more steps."""
    assert len(regression_states) == 23
    for (lake, state), seed in zip(regression_states, _regression_seeds(regime_reports)):
        ctx = state.ctx
        plain = plain_solve_vortex(ctx.handle, ctx.q, ctx.params, ctx.vf, init=seed)
        assert state.converged and plain.converged
        assert state.iterations <= plain.iterations
        assert state.mu == pytest.approx(plain.mu, rel=1e-7, abs=0.0)
        assert state.energy.total == pytest.approx(plain.energy.total, rel=1e-12, abs=0.0)
        assert np.array_equal(np.flatnonzero(state.zeta), np.flatnonzero(plain.zeta))
        moved = vorticity_center(lake, state.zeta) - vorticity_center(lake, plain.zeta)
        assert math.hypot(*moved) <= 1e-6 * lake.h


def _tie_diagnose(state, ties) -> asymptotics.Diagnostics:
    """diagnose as it was with a set of tied target points: the mass fraction
    around the tie nearest the vorticity center, and supp_target_dist from
    each support cell to its nearest tie, through a |support| x |ties| matrix."""
    lake, params = state.ctx.handle.lake, state.ctx.params
    xc = vorticity_center(lake, state.zeta)
    sp = lake.centers[state.zeta > 0.0]
    diam = max_pairwise_distance(sp)
    score = float("nan")
    if diam >= asymptotics.MIN_PROFILE_CELLS * lake.h:
        score = asymptotics.radial_monotonicity_score(
            rescale_profile(lake, state.zeta, params, xc, diam))
    ties = np.asarray(ties, dtype=float)
    nearest = ties[int(np.argmin(np.hypot(ties[:, 0] - xc[0], ties[:, 1] - xc[1])))]
    supp_dist = float(np.hypot(ties[:, 0][None, :] - sp[:, 0][:, None],
                               ties[:, 1][None, :] - sp[:, 1][:, None]).min(axis=1).max())
    return asymptotics.Diagnostics(
        eps=params.eps, delta=params.delta, diam_supp=diam, xc=float(xc[0]), yc=float(xc[1]),
        dist_boundary=float(lake.domain.dist_to_boundary(sp).min()), mu=float(state.mu),
        sup_K=float(state.k_zeta.max()), E_q=state.energy.e_q, F_eps=state.energy.f_eps,
        E_total=state.energy.total,
        mass_frac=asymptotics.mass_fraction_near(lake, state.zeta, nearest,
                                                 asymptotics.TARGET_RADIUS),
        radial_score=score, converged=state.converged, supp_target_dist=supp_dist)


def test_one_target_diagnose_matches_the_tie_set_path(regime_reports, regression_states):
    """diagnose at one target point against the tie-set diagnose it replaced,
    fed that point alone, on every regression state at its seed: every field
    bit for bit."""
    assert len(regression_states) == 23
    for (_, state), target in zip(regression_states, _regression_seeds(regime_reports)):
        new = dataclasses.astuple(asymptotics.diagnose(state, target))
        old = dataclasses.astuple(_tie_diagnose(state, [target]))
        assert np.array(new, dtype=float).tobytes() == np.array(old, dtype=float).tobytes()


def test_initial_patch_matches_frozen_loop_on_bundled_seeds(fixture_lake, regime_reports,
                                                            critical_state_129):
    """Every seed patch the bundled configs start from, bit for bit: the
    three regime sweeps, the 129^2 solve and the tiny oracle fixtures."""
    from lakevortex.cli import tiny_oracle_fixtures

    _, handle257 = fixture_lake
    _, reports, _, _ = regime_reports
    cases = [(handle257, AdmissibleParams(eps=row.eps, delta=row.delta, kappa0=1.0, lam=50.0),
              rep.target) for rep in reports.values() for row in rep.rows]
    _, handle129, _, params129, _ = critical_state_129
    cases.append((handle129, params129, (0.0, 0.28)))
    cases.extend((assemble_operator(lake), params, lake.centers[0])
                 for _, lake, _, params, _ in tiny_oracle_fixtures())
    for handle, params, seed in cases:
        ctx = SolveContext(handle, np.zeros(handle.lake.n_cells), params, FIXTURE_VF)
        assert np.array_equal(initial_patch(ctx, seed),
                              initial_patch_loop(handle.lake, params, seed))


def test_bathtub_passes_few_cells_to_f(regression_states, monkeypatch):
    """On the smallest-support 257^2 state the bathtub hands f far fewer than
    n cells; a full sort of all n levels costs about n in its binary search."""
    lake, state = min(((lake, s) for lake, s in regression_states if lake.n_cells > 50_000),
                      key=lambda pair: np.count_nonzero(pair[1].zeta))
    ctx = state.ctx
    cells = []
    f = VorticityFunction.f

    def counting_f(self, s):
        cells.append(np.size(s))
        return f(self, s)

    monkeypatch.setattr(VorticityFunction, "f", counting_f)
    bathtub(ctx, state.k_zeta + ctx.q)
    assert 0 < sum(cells) < lake.n_cells / 4


def test_criterion_6_regime_classification(regime_reports, acceptance_report):
    lake, reports, _, elapsed = regime_reports
    msgs = []

    rep = reports["above_critical"]
    c = rep.checks
    target = rep.target
    dists = [float(np.hypot(target[0] - r.xc, target[1] - r.yc))
             for r in rep.rows]
    a_ok = (c["all_converged"] and dists[-1] <= 0.1 and dists[-1] < dists[0]
            and c["dist_to_target_nonincreasing"] and c["eta_estimate"] >= 0.2)
    msgs.append(f"(a) dist {dists[0]:.3f}->{dists[-1]:.3f} (<=0.1), "
                f"eta={c['eta_estimate']:.2f} (>=0.2): {a_ok}")

    rep = reports["critical"]
    c = rep.checks
    b_ok = (c["all_converged"]
            and c["dist_to_target_final"] <= 0.1
            and c["mu_final_dev"] <= 0.25 * abs(c["mu_target"])
            and c["sup_K_final_dev"] <= 0.25 * abs(c["sup_K_target"]))
    msgs.append(f"(b) dist={c['dist_to_target_final']:.3f}, "
                f"mu dev {c['mu_final_dev']:.4f}/{0.25 * c['mu_target']:.4f}, "
                f"supK dev {c['sup_K_final_dev']:.4f}/{0.25 * c['sup_K_target']:.4f}: {b_ok}")

    rep = reports["below_critical"]
    c = rep.checks
    c_ok = (c["all_converged"]
            and c["mu_final_dev"] <= 0.10 * abs(c["q_max"])
            and c["sup_K_final"] <= 0.1 * abs(c["q_max"])
            and c["support_in_target_nbhd"])
    msgs.append(f"(c) mu dev {c['mu_final_dev']:.4f}/{0.1 * c['q_max']:.4f}, "
                f"supK {c['sup_K_final']:.4f}/{0.1 * c['q_max']:.4f}, "
                f"supp dist {c['supp_target_dist_final']:.3f} (<=0.2): {c_ok}")

    time_ok = elapsed <= 1800.0
    ok = a_ok and b_ok and c_ok and time_ok
    acceptance_report("6 regime classification", ok,
            "; ".join(msgs) + f"; sweeps {elapsed:.0f}s (<=1800s)")
    assert ok


def test_criterion_7_support_scaling(regime_reports, acceptance_report):
    _, reports, _, _ = regime_reports
    slopes = {regime: rep.checks["diam_slope"] for regime, rep in reports.items()}
    ok = all(s is not None and 0.8 <= s <= 1.2 for s in slopes.values())
    acceptance_report("7 support scaling", ok,
            ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()) + " (in [0.8, 1.2])")
    assert ok


def test_criterion_8_profile_shape(regime_reports, acceptance_report):
    _, reports, _, _ = regime_reports
    scores = {regime: rep.rows[-1].radial_score for regime, rep in reports.items()}
    ok = all(np.isfinite(s) and s >= 0.9 for s in scores.values())
    acceptance_report("8 profile shape", ok,
            ", ".join(f"{k}={v:.3f}" for k, v in scores.items()) + " (>=0.9)")
    assert ok


def test_criterion_9_steadiness(critical_state_129, regime_reports, acceptance_report):
    lake129, _, _, _, state129 = critical_state_129
    lake257, _, swept, _ = regime_reports
    coarse = steady_residual(lake129, state129)
    idx = EPS_LIST.index(0.1)
    state257 = swept["critical"][idx]
    fine = steady_residual(lake257, state257)
    factor = coarse / fine
    ok = factor >= 1.5
    acceptance_report("9 steadiness refinement", ok,
            f"residual {coarse:.3e} -> {fine:.3e}, factor {factor:.2f} (>=1.5)")
    assert ok


def test_criterion_10_kernel_validation(acceptance_report):
    lake = build_lake("disk_constant_b", 128)
    rng = np.random.default_rng(123)
    count = 0
    min_slack = float("inf")
    while count < 1000:
        a, b = rng.uniform(-1, 1, size=(2, 2))
        if np.hypot(*a) >= 0.999 or np.hypot(*b) >= 0.999 or np.hypot(*(a - b)) < 1e-9:
            continue
        upper, _ = h_kernel_bounds(lake, a, b)
        min_slack = min(min_slack, upper - h_kernel(lake, a, b))
        count += 1
    bound_ok = min_slack >= -1e-12

    handle = assemble_operator(lake)
    zeta = disk_indicator_averaged(lake, (0.2, 0.1), 0.3)
    zeta = zeta / float(np.dot(zeta, lake.nu_weights))  # unit weighted mass
    sample = np.linspace(0, lake.n_cells - 1, 300).astype(int)
    residual = float(np.abs(kernel_representation_residual(handle, zeta, sample)).max())
    repr_ok = residual <= 5.0 * lake.h

    ok = bound_ok and repr_ok
    acceptance_report("10 kernel validation", ok,
            f"bound slack {min_slack:.2e} (>= -1e-12) at 1000 pairs, "
            f"representation residual {residual:.2e} (<= {5 * lake.h:.2e})")
    assert ok
