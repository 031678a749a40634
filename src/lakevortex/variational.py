"""Constrained energy maximization for the potential vorticity.

The functional E(zeta) = E_q(zeta) - F_eps(zeta) is maximized over the class
of fields with 0 <= zeta <= Lambda*delta/eps^2 and fixed weighted mass
kappa0*delta, by a monotone fixed-point iteration: each step solves the
linearized subproblem exactly, whose solution is the capped level-set
("bathtub") profile zeta = min((delta/eps^2) f(psi_free - mu), cap) with the
multiplier mu found exactly from the sorted levels of psi_free and the prefix
sums of their weights.  Convexity of E_q makes every step an ascent step.
Each step's bathtub starts its search from the candidate cells the previous
step's carried and keeps the support it filled, so the step's bookkeeping
stays on the support.
In the tail, where the support stops changing, steps start from an Anderson
mix of the last two outputs and are kept only if the energy does not fall.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .elliptic import OperatorHandle, apply_K
from .geometry import Lake
from .nonlinearity import VorticityFunction

log = logging.getLogger(__name__)

MASS_TOL_REL = 1e-8
FP_TOL_REL = 1e-8
MAX_ITERS = 500
# mix only once a step moves less than this fraction of the mass: a vortex
# crawling across the grid moves 1e-3 to 1e-2 of it per step, and a mix there
# can carry it past the fixed point the plain iteration settles in
MIX_BELOW = 1e-4
# a mixed output is discarded when its energy falls by more than this, relative;
# rounding alone lowers E by up to 1.6e-15 in plain steps
ENERGY_RTOL = 1e-12


class AdmissibilityError(ValueError):
    """Parameters define an empty or unreachable admissible class."""


@dataclass(frozen=True)
class AdmissibleParams:
    """Scale eps, vanishing factor delta, circulation constant kappa0, and
    truncation level lam; the pointwise cap is lam*delta/eps^2 and the target
    weighted mass is kappa0*delta."""

    eps: float
    delta: float
    kappa0: float
    lam: float

    def __post_init__(self):
        if self.eps <= 0 or self.delta <= 0 or self.kappa0 <= 0:
            raise AdmissibilityError("eps, delta, kappa0 must be positive")
        try:
            cap = self.cap
        except ZeroDivisionError:  # eps^2 underflows to 0
            cap = math.inf
        except OverflowError:  # eps^2 overflows
            cap = 0.0
        for name, value in (("cap lam*delta/eps^2", cap),
                            ("target mass kappa0*delta", self.target_mass)):
            if not 0.0 < value < math.inf:  # the solve's arithmetic needs both as floats
                raise AdmissibilityError(
                    f"{name} must be positive and finite, got {value} for {self}")

    @property
    def cap(self) -> float:
        return self.lam * self.delta / self.eps**2

    @property
    def target_mass(self) -> float:
        return self.kappa0 * self.delta

    def check_nonempty(self, lake: Lake, vf: VorticityFunction) -> None:
        """Raise AdmissibilityError unless the class on lake holds a field and
        the squared norm of b*zeta, which apply_K takes, is a float for every
        field in it."""
        if self.lam <= vf.f_at_zero_plus + 1.0:
            raise AdmissibilityError(
                f"truncation level {self.lam} must exceed f(0+)+1 = "
                f"{vf.f_at_zero_plus + 1.0}"
            )
        if self.cap * lake.measure_nu < self.target_mass:
            raise AdmissibilityError(
                f"admissible class is empty: cap*|D|_nu = "
                f"{self.cap * lake.measure_nu:.3e} < target mass "
                f"{self.target_mass:.3e}"
            )
        # a field's x = b zeta >= 0 sums to m/h^2 and is at most b_max cap, so
        # the squared norm sum(x^2) each apply_K takes is at most this bound,
        # which a field reaches where one cell can hold the mass.  E_q, quadratic
        # in m too, stays far below it (5e-8 of it on the 64^2 disk)
        per_area = self.target_mass / lake.cell_area
        bound = per_area * min(per_area, float(lake.b_int.max()) * self.cap)
        if bound == math.inf:
            raise AdmissibilityError(
                f"target mass {self.target_mass:.3e} is out of float range on this lake: "
                f"the squared norm of b*zeta can reach (m/h^2) min(m/h^2, b_max cap) = inf")


@dataclass(frozen=True)
class Energy:
    """Energy decomposition; total = e_q - f_eps identically."""

    e_q: float
    f_eps: float

    @property
    def total(self) -> float:
        return self.e_q - self.f_eps


@dataclass
class SolveState:
    """Converged (or best-effort) solve state.

    k_zeta caches K zeta; energy_trace records the functional per iteration.
    """

    zeta: np.ndarray
    k_zeta: np.ndarray = field(repr=False)
    mu: float
    energy: Energy
    energy_trace: list
    iterations: int
    converged: bool
    fp_residual: float
    ctx: "SolveContext" = field(repr=False)


@dataclass
class SolveContext:
    """Shared immutable pieces of one maximization problem; the lake is handle.lake."""

    handle: OperatorHandle
    q: np.ndarray
    params: AdmissibleParams
    vf: VorticityFunction


def energy(ctx: SolveContext, zeta: np.ndarray, k_zeta: np.ndarray,
           support: np.ndarray) -> Energy:
    """Evaluate the functional of ctx at zeta, given k_zeta = K zeta.

    E_q = 0.5*sum(zeta*K zeta*b h^2) + sum(q*zeta*b h^2) and the penalty is
    (delta/eps^2) * sum(F_*((eps^2/delta) zeta) * b h^2), each summed over
    support, the cells with zeta > 0 in index order.
    """
    nuw, z = ctx.handle.lake.nu_weights[support], zeta[support]
    e_q = 0.5 * float(np.dot(z * nuw, k_zeta[support])) + float(np.dot(ctx.q[support] * nuw, z))
    scale = ctx.params.delta / ctx.params.eps**2
    f_eps = scale * float(np.dot(ctx.vf.F_star(z / scale), nuw))
    return Energy(e_q=e_q, f_eps=f_eps)


class Rearrangement(NamedTuple):
    """One bathtub output: the multiplier, the field, the cells with zeta > 0
    in index order, and the candidates the next call starts from: the cells
    down to the highest level whose mass reaches the target, in level order."""

    mu: float
    zeta: np.ndarray
    support: np.ndarray
    candidates: np.ndarray


def bathtub(ctx: SolveContext, psi_free: np.ndarray, cells=()) -> Rearrangement:
    """zeta = min((delta/eps^2) f(psi_free - mu), cap) of target mass, with its mu.

    Only a candidate set of the highest levels is sorted, by level and, at
    equal levels, by cell index, with t the lowest level among them.  Every
    cell above t is a candidate, so the mass at t is exact from the
    candidates alone; once it reaches the target, mu >= t and the support
    lies inside the set.  Otherwise the set is the top cells of a rung that
    grows fourfold, up to every cell.  Over the sorted levels with prefix
    sums W of nu, the cells above mu + f_inv(lam) weigh cap*W and f is
    evaluated on the band below them only, once per level of a set.  A search
    over the levels finds the segment holding the target and bisection finds
    mu in it; a target inside the jump of f at 0+ at a level sets mu to it
    and fills the cells exactly at that level by a fraction.

    cells, the candidates of the output for a nearby psi_free (the previous
    fixed-point step's) or the seed patch's support, only moves where the
    work begins: the first set is every cell at or above the lowest level
    among cells, found by one comparison and already in index order; the
    first rung holds 2 len(cells) + 1 cells, and the level search gallops
    out from level len(cells) before it bisects.  The cells above any level,
    their order and so every mass evaluated do not depend on the set, and
    the search ends at the same segment from any start, so mu and zeta are
    the same bits for every cells.  ctx.params must pass check_nonempty,
    which solve_vortex makes once; on an empty class the mass check raises.
    """
    params, vf = ctx.params, ctx.vf
    scale, cap, target = params.delta / params.eps**2, params.cap, params.target_mass
    reach = float(vf.f_inv(params.lam))  # psi - mu beyond which a cell is capped
    nu_all, n = ctx.handle.lake.nu_weights, len(psi_free)

    # the closures read the sorted candidate set in hand; array methods skip numpy's wrappers
    def count_above(t: float, side: str = "left") -> int:
        return int(neg_levels.searchsorted(-t, side))

    def band(mu: float, k_sup: int):  # the mass at mu given count_above(mu), and the band
        k_cap = count_above(mu + reach)
        values = np.minimum(scale * vf.f(levels[k_cap:k_sup] - mu), cap)
        mass = cap * prefix[k_cap] + float(np.dot(values, nuw[k_cap:k_sup]))
        return mass, (k_cap, k_sup, values)

    def at_level(j: int):  # band(levels[j]), once per candidate set
        if j not in memo:
            memo[j] = band(t := float(levels[j]), count_above(t))
        return memo[j]

    def reaches(j: int) -> bool:
        return at_level(j)[0] >= target

    cand = (psi_free >= psi_free[cells].min()).nonzero()[0] if len(cells) else None
    rung = min(n, 2 * len(cells) + 1)  # the top cells taken if that set falls short
    while True:
        if cand is None:
            cand = np.argpartition(psi_free, n - rung)[n - rung:]
            cand.sort()  # ties in index order, whatever the rung
            rung = min(n, 4 * rung)
        order = cand[(-psi_free[cand]).argsort(kind="stable")]
        levels = psi_free[order]
        neg_levels = -levels  # ascending, for searchsorted
        nuw = nu_all[order]
        prefix = np.concatenate(([0.0], nuw.cumsum()))
        memo, k = {}, len(order)
        if k == n or reaches(k - 1):
            break
        cand = None

    # smallest j with mass(levels[j]) >= target (j = n: all capped, the bracket bottom)
    lo, hi = 0, k  # mass(levels[0]) = 0 < target
    j, step = min(max(len(cells), 1), k - 1), 1  # steps double until one crosses its bracket
    while lo < j < hi:
        lo, hi, j = (lo, j, j - step) if reaches(j) else (j, hi, j + step)
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    upper = float(levels[lo])  # mass(upper) < target <= mass(lower); upper > t
    lower = float(levels[hi]) if hi < k else float(levels[-1]) - reach - 1.0

    tie_lo, tie_hi = count_above(upper), count_above(upper, "right")
    jump_value = scale * vf.f_at_zero_plus
    deficit = target - at_level(lo)[0]
    tie_capacity = jump_value * (prefix[tie_hi] - prefix[tie_lo])
    if deficit <= tie_capacity:  # the target sits inside the jump at upper
        mu, fill = upper, deficit / tie_capacity
    else:  # largest mu with mass(mu) >= target, to float resolution; count_above = tie_hi
        mu, fill, above = lower, 0.0, upper
        while mu < (mid := 0.5 * (mu + above)) < above:
            mu, above = (mid, above) if band(mid, tie_hi)[0] >= target else (mu, mid)
    k_cap, k_sup, values = (at_level(lo) if mu == upper else band(mu, tie_hi))[1]

    zeta = np.zeros(n)
    zeta[order[:k_cap]] = cap
    zeta[order[k_cap:k_sup]] = values
    zeta[order[tie_lo:tie_hi]] += fill * jump_value
    filled = order[:tie_hi if fill > 0.0 else k_sup]  # zeta is 0 elsewhere
    error = float(np.dot(zeta[filled], nuw[:len(filled)])) - target
    if abs(error) > MASS_TOL_REL * target:
        raise AdmissibilityError(f"bathtub missed the mass target by {error:.3e}")
    support = np.sort(filled)
    return Rearrangement(mu, zeta, support[zeta[support] != 0.0], order[:hi + 1])


def initial_patch(ctx: SolveContext, seed) -> np.ndarray:
    """Uniform seed patch of target mass centered at a point, on the operator's lake.

    Mimics the standard concentration test profile: value delta*b0/(eps^2*b)
    on a ball of radius eps*sqrt(kappa0/(pi*b0)); discretely the nearest cells
    are filled in distance order (capped), with the last cell partial so the
    mass is met exactly.  The cell that takes the rest is found from the
    remaining mass before each cell, subtracted in fill order.  When the
    whole lake at that value falls short of the mass, the nearest cells are
    filled at the cap instead, which carries the mass of any non-empty class.
    """
    lake, params = ctx.handle.lake, ctx.params
    seed = np.asarray(seed, dtype=float)
    if seed.shape != (2,):
        raise ValueError(f"seed must be a point (x, y), got shape {seed.shape}")
    d2 = (lake.centers[:, 0] - seed[0]) ** 2 + (lake.centers[:, 1] - seed[1]) ** 2
    # all cells: numpy's default sort decides which of the cells at equal
    # distance on the rim takes the rest, and a different rim can send the
    # iteration to a different fixed point
    order = np.argsort(d2)
    radius = params.eps * math.sqrt(params.kappa0 / math.pi)

    # b0 from the cells within the nominal ball (fallback: nearest cell)
    near = d2 <= max(radius, lake.h) ** 2
    b0 = float(lake.b_int[near].min()) if near.any() else float(lake.b_int[order[0]])

    n, nuw = lake.n_cells, lake.nu_weights
    # before the temporaries below: allocated after them, a 257^2 sweep peaks 0.4 MB higher
    zeta = np.zeros(n)
    value_of = np.minimum(params.delta * b0 / (params.eps**2 * lake.b_int), params.cap)
    while True:
        remaining = np.cumsum(np.concatenate(([params.target_mass], -(value_of * nuw)[order])))
        k = int(np.searchsorted(-remaining[1:], 0.0))  # first cell whose mass covers the rest
        if k < n or remaining[k] <= MASS_TOL_REL * params.target_mass:
            break
        if (value_of == params.cap).all():
            raise AdmissibilityError("initial patch cannot carry the target mass")
        value_of = np.full(n, params.cap)  # the whole lake at that value falls short
    zeta[order[:k]] = value_of[order[:k]]
    if k < n:  # it takes the rest, within its cap
        zeta[order[k]] = min(remaining[k] / nuw[order[k]], params.cap)
    return zeta


def iterate_step(ctx: SolveContext, zeta: np.ndarray, k_zeta: np.ndarray, cells=()):
    """One linearize-and-rearrange step from zeta, given k_zeta = K zeta: (the
    bathtub output, K of its field, its energy, weighted L1 norm of its change
    from zeta).  cells are the previous output's candidates, where the
    bathtub begins its work.  The energy never decreases."""
    # no n-sized array outlives its use: psi_free is freed before apply_K and
    # the residual reuses its difference (peak RSS 0.4-1.1 MB lower at 257^2)
    new = bathtub(ctx, k_zeta + ctx.q, cells)
    k_new = apply_K(ctx.handle, new.zeta)
    e_new = energy(ctx, new.zeta, k_new, new.support)
    change = new.zeta - zeta
    return new, k_new, e_new, float(np.dot(np.abs(change, out=change), ctx.handle.lake.nu_weights))


def solve_vortex(handle: OperatorHandle, q: np.ndarray, params: AdmissibleParams,
                 vf: VorticityFunction, init=None) -> SolveState:
    """Iterate the capped level-set update to a fixed point on the operator's lake.

    The iteration starts from initial_patch at the seed point init (None: the
    deepest cell) and stops when the weighted L1 difference between a step's
    output and its input drops below FP_TOL_REL * kappa0 * delta, or after
    MAX_ITERS steps with the best state and converged=False.  Each step's
    bathtub starts from the candidate cells of the last accepted output, the
    first from the seed patch's support, so a step partitions the full grid
    only when those cells fall short of the target.  With -v, every step logs
    one DEBUG line: its index, E, residual, mu, support size and the number
    of candidates it carries to the next step.

    Once two consecutive outputs share their support and capped cells, the
    map is one fixed contraction on that support.  From then on, while the
    last step moved at most MIX_BELOW of the mass, each step's input is the
    Anderson mix (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) of the last two
    outputs, and K of the mix is the same mix of their stored K images, so a
    step still costs one apply_K.  The history restarts when either set
    changes.  A mixed step whose output has lower energy than the last
    accepted state (beyond rounding) is discarded, and the next step starts
    plainly from that state; the discarded step counts in iterations and
    repeats the accepted energy in energy_trace.  Every reported state is a
    bathtub output.
    """
    lake = handle.lake
    params.check_nonempty(lake, vf)
    ctx = SolveContext(handle=handle, q=q, params=params, vf=vf)
    zeta = initial_patch(ctx, lake.centers[np.argmax(lake.b_int)] if init is None else init)
    k = apply_K(handle, zeta)
    support, capped = np.flatnonzero(zeta), None  # of the last accepted output, or of the input
    e = energy(ctx, zeta, k, support)
    last, residual, trace = None, math.inf, [e.total]  # last: the accepted bathtub output
    tol = FP_TOL_REL * params.target_mass
    history = []  # the last two (output, output - input, K output), on the support
    while len(trace) <= MAX_ITERS and residual > tol:
        mixed = len(history) == 2 and residual <= MIX_BELOW * params.target_mass
        if mixed:
            x, k_x = _anderson_mix(history, lake.nu_weights[support])
            zeta_in = np.zeros(lake.n_cells)
            zeta_in[support] = x
        else:
            zeta_in, k_x = zeta, k
        new, k_new, e_new, r_new = iterate_step(ctx, zeta_in, k_x,
                                               support if last is None else last.candidates)
        discard = mixed and e_new.total < trace[-1] - ENERGY_RTOL * abs(trace[-1])
        log.debug("step %d: E=%.17g residual=%.3e mu=%.17g support=%d candidates=%d%s",
                  len(trace), e_new.total, r_new, new.mu, len(new.support), len(new.candidates),
                  " (mixed, discarded)" if discard else " (mixed)" if mixed else "")
        if discard:
            history = []
            trace.append(trace[-1])
            continue
        last, zeta, k, e, residual = new, new.zeta, k_new, e_new, r_new
        trace.append(e.total)
        out_capped = new.support[zeta[new.support] == params.cap]
        if np.array_equal(new.support, support) and np.array_equal(out_capped, capped):
            g = zeta[support]
            history = history[-1:] + [(g, g - zeta_in[support], k)]
        else:
            history = []
            support, capped = new.support, out_capped
    state = SolveState(zeta=zeta, k_zeta=k, mu=last.mu, energy=e, energy_trace=trace,
                       iterations=len(trace) - 1, converged=residual <= tol,
                       fp_residual=residual, ctx=ctx)
    if not state.converged:
        log.warning(
            "fixed point not reached in %d iterations (residual %.3e, tol %.3e)",
            MAX_ITERS, residual, tol,
        )
    return state


def _anderson_mix(history, nu: np.ndarray):
    """The affine mix g1 - gamma (g1 - g0) of the last two outputs, and the same
    mix of their K images, with gamma minimising the nu-weighted L2 norm of
    the mixed residual f1 - gamma (f1 - f0) (Anderson mixing of depth 1).
    Deeper mixes (2, 3, 5 and 8 past outputs) took the same number of steps
    on the bundled configs, up to one step in 328, and keep one more K image
    of n values each."""
    (g0, f0, k0), (g1, f1, k1) = history
    d = f1 - f0
    dd = float(np.dot(d * nu, d))
    gamma = float(np.dot(f1 * nu, d)) / dd if dd > 0.0 else 0.0
    return g1 - gamma * (g1 - g0), k1 - gamma * (k1 - k0)


def vorticity_center(lake: Lake, zeta: np.ndarray) -> np.ndarray:
    """Area-weighted first moment (plain area measure, not the depth-weighted one)."""
    w = zeta * lake.cell_area
    total = w.sum()
    if total <= 0.0:
        raise ValueError("vorticity center of a zero field is undefined")
    return np.array([np.dot(lake.centers[:, 0], w), np.dot(lake.centers[:, 1], w)]) / total


# ---------------------------------------------------------------------------
# brute-force oracle on tiny lakes


def _dense_quadratic(handle: OperatorHandle) -> np.ndarray:
    """Dense matrix W with <zeta, K zeta>_nu = zeta^T W zeta (tiny lakes only)."""
    lake = handle.lake
    a_dense = handle.matrix.toarray()
    a_inv = np.linalg.inv(a_dense)
    d_b = np.diag(lake.b_int)
    return lake.cell_area * d_b @ a_inv @ d_b


def brute_force_oracle(handle: OperatorHandle, q: np.ndarray, params: AdmissibleParams,
                       vf: VorticityFunction, m: int):
    """Enumerate quantized admissible fields and return the best (zeta, E).

    Cell values range over {0, cap*k/m}; fields qualify when their weighted
    mass is within half a mass quantum (the largest single-level increment)
    of the target.  Energies use a dense inverse, independent of the sparse
    iterative path.  Limits: at most 6 cells and m <= 12.
    """
    n = handle.lake.n_cells
    if n > 6:
        raise ValueError("oracle enumeration is limited to lakes with <= 6 cells")
    if m > 12 or m < 1:
        raise ValueError("quantization level m must be in 1..12")
    w = _dense_quadratic(handle)
    nuw = handle.lake.nu_weights
    cap = params.cap
    levels = cap * np.arange(m + 1) / m
    quantum = (cap / m) * float(nuw.max())
    target = params.target_mass

    scale = params.delta / params.eps**2
    block = (m + 1) ** (n - 1)  # the fields at one level of the first cell
    feasible = []
    for i in range(m + 1):
        # row r holds the base-(m+1) digits of r: the fields in lexicographic order
        rows = np.arange(i * block, (i + 1) * block)
        z = levels[np.stack(np.unravel_index(rows, (m + 1,) * n), axis=1)]
        feasible.append(z[np.abs(z @ nuw - target) <= 0.5 * quantum + 1e-12 * target])
    z = np.concatenate(feasible)
    if not len(z):
        raise AdmissibilityError("no quantized field meets the mass constraint within half a quantum")
    e_q = 0.5 * np.einsum("ij,jk,ik->i", z, w, z) + z @ (q * nuw)
    e = e_q - scale * (vf.F_star(z / scale) @ nuw)
    k = int(np.argmax(e))  # the first best field in lexicographic order
    return z[k].copy(), float(e[k])


def oracle_gap_bound(handle: OperatorHandle, q: np.ndarray, params: AdmissibleParams,
                     vf: VorticityFunction, m: int) -> float:
    """Analytic bound on |true max - quantized max| for the tiny-lake oracle.

    Lipschitz constant of the functional in the weighted L1 metric times the
    quantization distance (per-cell rounding plus one mass-rebalancing level).
    """
    w = _dense_quadratic(handle)
    nuw = handle.lake.nu_weights
    cap = params.cap
    # |K zeta|_inf over the class, via the cap field
    k_cap = np.abs(w @ np.full(len(nuw), cap)) / nuw
    lipschitz = float(k_cap.max()) + float(np.abs(q).max()) + float(vf.f_inv(params.lam))
    rounding_l1 = (cap / (2 * m)) * float(nuw.sum())
    quantum = (cap / m) * float(nuw.max())
    return lipschitz * (2.0 * rounding_l1 + 2.0 * quantum)
