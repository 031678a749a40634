"""Frozen reference: the exact sorted bathtub that argsorts every cell, which
``variational.bathtub`` replaced with a sort of a candidate set checked to
hold the support.  Kept verbatim for the differential tests of the two.
Test-only code.
"""

from __future__ import annotations

import numpy as np

from lakevortex.geometry import Lake
from lakevortex.nonlinearity import VorticityFunction
from lakevortex.variational import MASS_TOL_REL, AdmissibilityError, AdmissibleParams


def bathtub(lake: Lake, params: AdmissibleParams, vf: VorticityFunction,
            psi_free: np.ndarray):
    """(mu, zeta) with zeta = min((delta/eps^2) f(psi_free - mu), cap) of target mass.

    Over the levels of psi_free sorted descending with prefix sums W of nu,
    the cells above mu + f_inv(lam) weigh cap*W and f is evaluated on the band
    below them only.
    A binary search over the levels finds the segment holding the target and
    bisection finds mu in it; a target inside the jump of f at 0+ at a level
    sets mu to it and fills the cells exactly at that level by a fraction.
    """
    params.check_nonempty(lake, vf)
    scale, cap, target = params.delta / params.eps**2, params.cap, params.target_mass
    reach = float(vf.f_inv(params.lam))  # psi - mu beyond which a cell is capped
    nu_all, n = lake.nu_weights, len(psi_free)
    order = np.argsort(psi_free)[::-1]
    levels = psi_free[order]
    neg_levels = -levels  # ascending, for searchsorted
    nuw = nu_all[order]
    prefix = np.concatenate(([0.0], np.cumsum(nuw)))

    def count_above(t: float, side: str = "left") -> int:
        return int(np.searchsorted(neg_levels, -t, side))

    def band(mu: float):
        k_cap, k_sup = count_above(mu + reach), count_above(mu)
        return k_cap, k_sup, np.minimum(scale * vf.f(levels[k_cap:k_sup] - mu), cap)

    def mass_at(mu: float) -> float:
        k_cap, k_sup, values = band(mu)
        return cap * prefix[k_cap] + float(np.dot(values, nuw[k_cap:k_sup]))

    # smallest k with mass(levels[k]) >= target (k = n: all capped, the bracket bottom)
    lo, hi = 0, n  # mass(levels[0]) = 0 < target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mass_at(float(levels[mid])) >= target else (mid, hi)
    upper = float(levels[lo])  # mass(upper) < target <= mass(lower)
    lower = float(levels[hi]) if hi < n else float(levels[-1]) - reach - 1.0

    tie_lo, tie_hi = count_above(upper), count_above(upper, "right")
    jump_value = scale * vf.f_at_zero_plus
    deficit = target - mass_at(upper)
    tie_capacity = jump_value * (prefix[tie_hi] - prefix[tie_lo])
    if deficit <= tie_capacity:  # the target sits inside the jump at upper
        mu, fill = upper, deficit / tie_capacity
    else:  # largest mu with mass(mu) >= target, to float resolution
        mu, fill, above = lower, 0.0, upper
        while mu < (mid := 0.5 * (mu + above)) < above:
            mu, above = (mid, above) if mass_at(mid) >= target else (mu, mid)

    k_cap, k_sup, values = band(mu)
    zeta = np.zeros(n)
    zeta[order[:k_cap]] = cap
    zeta[order[k_cap:k_sup]] = values
    zeta[order[tie_lo:tie_hi]] += fill * jump_value
    error = float(np.dot(zeta, nu_all)) - target
    if abs(error) > MASS_TOL_REL * target:
        raise AdmissibilityError(f"bathtub missed the mass target by {error:.3e}")
    return mu, zeta
