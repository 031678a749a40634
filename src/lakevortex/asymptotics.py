"""Vanishing-rate schedules, concentration diagnostics, and sweep orchestration.

A sweep solves the constrained maximization along a decreasing eps list under
one of three circulation vanishing-rate regimes and records, per point, the
support geometry, vorticity center, multiplier, energies, and profile shape.
Regime checks operationalize the asymptotic statements as trends: the final
deviation must be below a stated tolerance and not larger than the first.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import OperatorHandle, SolverError, solve_background
from .geometry import Lake, max_pairwise_distance
from .nonlinearity import VorticityFunction
from .variational import (
    AdmissibilityError,
    AdmissibleParams,
    SolveState,
    solve_vortex,
    vorticity_center,
)

log = logging.getLogger(__name__)

# distance from the shore the above-critical support must keep when the depth
# maximum is interior
ETA_FLOOR = 0.2

# radius of the ball around the target in which mass_frac is measured
TARGET_RADIUS = 0.2

# cells across its diameter a support needs for rescale_profile
MIN_PROFILE_CELLS = 4

DIAG_COLUMNS = (
    "eps", "delta", "diam_supp", "xc", "yc", "dist_boundary", "mu",
    "sup_K", "E_q", "F_eps", "E_total", "mass_frac", "radial_score",
)


def delta_of_eps(regime: str, eps: float) -> float:
    """Vanishing rate delta(eps) for one of the three concentration regimes:
    above_critical = 1/sqrt(ln(1/eps)), critical = 1/ln(1/eps),
    below_critical = 1/ln(1/eps)^2."""
    if not 0.0 < eps < 1.0 / math.e:
        raise AdmissibilityError(f"eps must lie in (0, 1/e), got {eps}")
    t = math.log(1.0 / eps)
    if regime == "above_critical":
        return 1.0 / math.sqrt(t)
    if regime == "critical":
        return 1.0 / t
    if regime == "below_critical":
        return 1.0 / (t * t)
    raise AdmissibilityError(f"unknown regime {regime!r}")


def sweep_params(regime: str, kappa0: float, lam: float, eps_list) -> list:
    """Each point's AdmissibleParams along eps_list, which must strictly decrease;
    an unknown regime, an eps outside (0, 1/e) and a kappa0 <= 0 raise
    AdmissibilityError."""
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if np.any(np.diff(eps_arr) >= 0):
        raise AdmissibilityError("eps list must be strictly decreasing")
    return [AdmissibleParams(eps=e, delta=delta_of_eps(regime, e), kappa0=kappa0, lam=lam)
            for e in eps_arr.tolist()]


def rescale_profile(lake: Lake, zeta: np.ndarray, params: AdmissibleParams,
                    center, diam: float) -> np.ndarray:
    """Radial bin means of the rescaled vorticity xi(x) = (eps^2/delta)
    zeta(center + eps x), sampled by bilinear interpolation (NaN for an empty bin).

    Requires the support diameter diam to span at least MIN_PROFILE_CELLS
    cells, which the caller checks; the local 64 x 64 grid spans 3 support
    radii and the radial profile has 24 bins.
    """
    center = np.asarray(center, dtype=float)
    half_width = 3.0 * (diam / 2.0) / params.eps
    coords = np.linspace(-half_width, half_width, 64)
    XX, YY = np.meshgrid(coords, coords)
    px = center[0] + params.eps * XX
    py = center[1] + params.eps * YY

    grid_z = lake.field_to_grid(zeta)
    fx = (px - lake.xs[0]) / lake.h
    fy = (py - lake.ys[0]) / lake.h
    i0 = np.clip(np.floor(fy).astype(int), 0, grid_z.shape[0] - 2)
    j0 = np.clip(np.floor(fx).astype(int), 0, grid_z.shape[1] - 2)
    ty = np.clip(fy - i0, 0.0, 1.0)
    tx = np.clip(fx - j0, 0.0, 1.0)
    vals = (
        grid_z[i0, j0] * (1 - tx) * (1 - ty)
        + grid_z[i0, j0 + 1] * tx * (1 - ty)
        + grid_z[i0 + 1, j0] * (1 - tx) * ty
        + grid_z[i0 + 1, j0 + 1] * tx * ty
    )
    xi = params.eps**2 / params.delta * vals

    rr = np.hypot(XX, YY).ravel()
    vv = xi.ravel()
    n_bins = 24
    edges = np.linspace(0.0, half_width, n_bins + 1)
    means = np.full(n_bins, np.nan)
    idx = np.clip(np.searchsorted(edges, rr, side="right") - 1, 0, n_bins - 1)
    grouped = vv[np.argsort(idx, kind="stable")]  # each bin's samples in order, in one run
    ends = np.cumsum(np.bincount(idx, minlength=n_bins)).tolist()
    for k, (start, end) in enumerate(zip([0] + ends, ends)):
        if start < end:
            means[k] = grouped[start:end].mean()
    return means


def radial_monotonicity_score(bin_means: np.ndarray) -> float:
    """1 - (positive increments)/(total variation) of the radial bin means,
    empty (NaN) bins skipped; 1 for exactly nonincreasing profiles, 0 for
    strictly increasing ones."""
    d = np.diff(bin_means[~np.isnan(bin_means)])
    tv = float(np.abs(d).sum())
    if tv <= 0.0:
        return 1.0
    pos = float(d[d > 0].sum())
    return 1.0 - pos / tv


def predicted_target(lake: Lake, q: np.ndarray, kappa0: float, regime: str) -> int:
    """Index of the concentration target cell for a regime.

    above_critical: argmax of the depth; critical: argmax of the combined
    potential kappa0*b/(4 pi) + q; below_critical: argmax of the background.
    The target is the first cell, in index order, within 1e-10 of the maximum,
    so a flat score (every cell ties) still gives one point; a WARNING says
    when more than one cell ties.
    """
    if regime == "above_critical":
        score = lake.b_int
    elif regime == "critical":
        score = kappa0 * lake.b_int / (4.0 * math.pi) + q
    elif regime == "below_critical":
        score = q
    else:
        raise AdmissibilityError(f"unknown regime {regime!r}")
    ties = np.flatnonzero(score >= score.max() - 1e-10)
    if ties.size > 1:
        log.warning("%s target: %d cells lie within 1e-10 of the score's maximum; "
                    "the first in index order is used", regime, ties.size)
    return int(ties[0])


def mass_fraction_near(lake: Lake, zeta: np.ndarray, point, radius: float) -> float:
    """Fraction of the weighted mass within a ball around a point."""
    w = zeta * lake.nu_weights
    total = w.sum()
    if total <= 0.0:
        return 0.0
    near = np.hypot(lake.centers[:, 0] - point[0], lake.centers[:, 1] - point[1]) <= radius
    return float(min(max(w[near].sum() / total, 0.0), 1.0))


@dataclass
class Diagnostics:
    """One sweep row; field order matches the CSV column contract."""

    eps: float
    delta: float
    diam_supp: float = math.nan  # the measured fields stay NaN in a failed point's row
    xc: float = math.nan
    yc: float = math.nan
    dist_boundary: float = math.nan
    mu: float = math.nan
    sup_K: float = math.nan
    E_q: float = math.nan
    F_eps: float = math.nan
    E_total: float = math.nan
    mass_frac: float = math.nan
    radial_score: float = math.nan
    converged: bool = True
    supp_target_dist: float = math.nan  # max support distance to the target

    def row(self) -> list:
        return [getattr(self, c) for c in DIAG_COLUMNS]


@dataclass
class SweepReport:
    """A sweep's rows, predicted target point and checks."""

    rows: list
    target: np.ndarray
    checks: dict


def _loglog_slope(log_x: np.ndarray, y: np.ndarray) -> float | None:
    """Least-squares slope of log y against log_x over the entries with y > 0
    (None below two), in closed form: sum (x - mean x)(log y - mean log y) /
    sum (x - mean x)^2.  It matches np.polyfit to 1e-15 relative without its
    LAPACK call, whose first use raised a 257^2 sweep's peak RSS by about 1 MB."""
    good = y > 0.0
    if good.sum() < 2:
        return None
    x, log_y = log_x[good], np.log(y[good])
    x = x - x.mean()
    return float(np.add.reduce(x * (log_y - log_y.mean())) / np.add.reduce(x * x))


def diagnose(state: SolveState, target) -> Diagnostics:
    """Diagnostics row of one solved state, on its operator's lake.

    With a target point, the mass fraction is taken around it and
    supp_target_dist is the largest distance from a support cell to it; with
    target None, the mass fraction is taken around the vorticity center, in
    either case in a ball of radius TARGET_RADIUS.
    """
    lake, params = state.ctx.handle.lake, state.ctx.params
    # vorticity_center raises on a zero field, so the support is not empty
    xc = vorticity_center(lake, state.zeta)
    sp = lake.centers[state.zeta > 0.0]
    diam = max_pairwise_distance(sp)
    score = float("nan")  # an under-resolved support has no profile
    if diam >= MIN_PROFILE_CELLS * lake.h:
        score = radial_monotonicity_score(rescale_profile(lake, state.zeta, params, xc, diam))
    anchor = xc if target is None else np.asarray(target, dtype=float)
    supp_dist = math.nan if target is None else float(np.hypot(*(sp - anchor).T).max())
    return Diagnostics(
        eps=params.eps,
        delta=params.delta,
        diam_supp=diam,
        xc=float(xc[0]),
        yc=float(xc[1]),
        dist_boundary=float(lake.domain.dist_to_boundary(sp).min()),
        mu=float(state.mu),
        sup_K=float(state.k_zeta.max()),
        E_q=state.energy.e_q,
        F_eps=state.energy.f_eps,
        E_total=state.energy.total,
        mass_frac=mass_fraction_near(lake, state.zeta, anchor, TARGET_RADIUS),
        radial_score=score,
        converged=state.converged,
        supp_target_dist=supp_dist,
    )


def run_sweep(handle: OperatorHandle, flux: np.ndarray, regime: str,
              kappa0: float, lam: float, eps_list,
              vf: VorticityFunction, seed=None) -> SweepReport:
    """Solve along a decreasing eps list on the operator's lake and evaluate
    the regime trend checks.

    Every point's params come from sweep_params before the first solve, so a
    bad eps, regime or kappa0 raises.  A point whose solve fails numerically
    (SolverError) is logged and kept as its eps and delta with NaNs and
    converged=False; any other error propagates: a flux beyond float range
    (CompatibilityError) before any solve, a point whose class is empty or
    whose mass the bathtub cannot resolve (AdmissibilityError) after the
    points before it.  Only the rows are kept, not the solved states, so a
    sweep's memory does not grow with its eps list.
    """
    points = sweep_params(regime, kappa0, lam, eps_list)
    lake = handle.lake
    q = solve_background(handle, np.asarray(flux, dtype=float))
    cell = predicted_target(lake, q, kappa0, regime)
    target = lake.centers[cell]
    seed_pt = np.asarray(seed, dtype=float) if seed is not None else target

    def solve_point(params: AdmissibleParams) -> Diagnostics:
        try:
            state = solve_vortex(handle, q, params, vf, init=seed_pt)
        except SolverError as exc:
            log.error("sweep point eps=%g failed: %s", params.eps, exc)
            return Diagnostics(eps=params.eps, delta=params.delta, converged=False)
        return diagnose(state, target)

    rows = [solve_point(p) for p in points]
    checks = _regime_checks(lake, q, regime, kappa0, rows, cell)
    slope = checks["diam_slope"] = _loglog_slope(np.log([r.eps for r in rows]),
                                                 np.array([r.diam_supp for r in rows]))
    if slope is not None:
        checks["diam_slope_in_window"] = bool(0.8 <= slope <= 1.2)
    return SweepReport(rows=rows, target=target, checks=checks)


def _depth_max_is_interior(lake: Lake) -> bool:
    """True when the deepest cell does not touch the mask boundary."""
    r, c = np.argwhere(lake.mask)[int(np.argmax(lake.b_int))]  # cells go row by row
    return bool(lake.mask[[r, r, r + 1, r - 1], [c + 1, c - 1, c, c]].all())


def _trend(first_dev: float, last_dev: float, tol: float) -> bool:
    """Deviation ends below tolerance and did not grow, except when the sweep
    starts already deep inside the tolerance (within half), where direction
    is indistinguishable from noise."""
    return bool(last_dev <= tol and (last_dev <= first_dev + 1e-12 or last_dev <= 0.5 * tol))


def _regime_checks(lake: Lake, q: np.ndarray, regime: str, kappa0: float,
                   rows: list, cell: int) -> dict:
    checks: dict = {"all_converged": all(r.converged for r in rows)}
    ok_rows = [r for r in rows if r.converged]
    if len(ok_rows) < 2:
        checks["enough_points"] = False
        return checks
    checks["enough_points"] = True
    first, last = ok_rows[0], ok_rows[-1]

    target = lake.centers[cell]
    dists = np.array([np.hypot(target[0] - r.xc, target[1] - r.yc) for r in ok_rows])
    checks["dist_to_target_final"] = float(dists[-1])
    # nonincreasing up to one grid cell of slack
    checks["dist_to_target_nonincreasing"] = bool(np.all(np.diff(dists) <= lake.h))
    checks["mass_frac_final"] = last.mass_frac
    checks["mass_frac_trend"] = bool(
        last.mass_frac >= first.mass_frac - 1e-9 and last.mass_frac >= 0.95
    )
    checks["dist_boundary_positive"] = bool(all(r.dist_boundary > 0 for r in ok_rows))

    if regime == "above_critical":
        # multiplier against the leading depth-term growth
        lead = np.array([kappa0 * lake.b_int.max() / (2 * math.pi) * r.delta
                         * math.log(1 / r.eps) for r in ok_rows])
        ratios = np.array([r.mu for r in ok_rows]) / lead
        checks["mu_ratio_first"] = float(ratios[0])
        checks["mu_ratio_final"] = float(ratios[-1])
        checks["mu_ratio_trend"] = _trend(abs(ratios[0] - 1.0), abs(ratios[-1] - 1.0), 0.5)
        checks["depth_max_interior"] = _depth_max_is_interior(lake)
        if checks["depth_max_interior"]:
            eta = float(min(r.dist_boundary for r in ok_rows))
            checks["eta_estimate"] = eta
            checks["interior_distance_floor"] = bool(eta >= ETA_FLOOR)
        else:
            # boundary depth maximum: the support approaches the shore; record
            # the fitted decay exponent of dist vs ln(1/eps) without asserting
            slope = _loglog_slope(np.array([math.log(math.log(1 / r.eps)) for r in ok_rows]),
                                  np.array([r.dist_boundary for r in ok_rows]))
            if slope is not None:
                checks["boundary_decay_exponent"] = -slope
    elif regime == "critical":
        fracs = np.array([r.mass_frac for r in ok_rows])
        checks["mass_frac_nondecreasing"] = bool(np.all(np.diff(fracs) >= -1e-9))
        mu_target = kappa0 * lake.b_int[cell] / (2 * math.pi) + q[cell]
        supk_target = kappa0 * lake.b_int[cell] / (2 * math.pi)
        checks["mu_target"] = float(mu_target)
        checks["mu_final_dev"] = abs(last.mu - mu_target)
        checks["mu_trend"] = _trend(abs(first.mu - mu_target), abs(last.mu - mu_target),
                                    0.25 * abs(mu_target))
        checks["sup_K_target"] = float(supk_target)
        checks["sup_K_final_dev"] = abs(last.sup_K - supk_target)
        checks["sup_K_trend"] = _trend(abs(first.sup_K - supk_target),
                                       abs(last.sup_K - supk_target),
                                       0.25 * abs(supk_target))
    else:  # below_critical
        qmax = float(q.max())
        checks["q_max"] = qmax
        checks["mu_final_dev"] = abs(last.mu - qmax)
        checks["mu_trend"] = _trend(abs(first.mu - qmax), abs(last.mu - qmax), 0.10 * abs(qmax))
        checks["sup_K_final"] = last.sup_K
        checks["sup_K_small"] = bool(last.sup_K <= 0.1 * abs(qmax))
        checks["supp_target_dist_final"] = last.supp_target_dist
        checks["support_in_target_nbhd"] = bool(last.supp_target_dist <= TARGET_RADIUS)
        # peak stream bounded by the leading log growth plus a stable constant
        bmax = float(lake.b_int.max())
        coeffs = [
            (r.sup_K - bmax / (2 * math.pi) * kappa0 * r.delta * math.log(1 / r.eps))
            / r.delta
            for r in ok_rows
        ]
        checks["supK_bound_coeff_max"] = float(max(coeffs))
        checks["supK_growth_bounded"] = bool(max(coeffs) <= 0.5)
    return checks
