"""Frozen reference: the cold start of the candidate-set bathtub, which
``variational.bathtub`` replaced with a first rung and a level search sized
from the support of a nearby output.  Cold, the first rung holds a lower bound
on any sufficient number of candidates, from the spread of the levels, and
the level search bisects every candidate.  Kept verbatim, with the warm-start
branches it no longer takes removed, for the differential tests of the two.
Test-only code.
"""

from __future__ import annotations

import math

import numpy as np

from lakevortex.geometry import Lake
from lakevortex.nonlinearity import VorticityFunction
from lakevortex.variational import (
    MASS_TOL_REL,
    AdmissibilityError,
    AdmissibleParams,
    Rearrangement,
)


def bathtub(lake: Lake, params: AdmissibleParams, vf: VorticityFunction,
            psi_free: np.ndarray) -> Rearrangement:
    """zeta = min((delta/eps^2) f(psi_free - mu), cap) of target mass, with its
    mu, its support and the size of its last candidate rung.  The first rung
    holds 1 + ceil(target / per_cell) cells, where each cell above the lowest
    candidate level weighs at most
    per_cell = (delta/eps^2) f(min(max psi_free - min psi_free, f_inv(lam))) * max nu.
    """
    params.check_nonempty(lake, vf)
    scale, cap, target = params.delta / params.eps**2, params.cap, params.target_mass
    reach = float(vf.f_inv(params.lam))  # psi - mu beyond which a cell is capped
    nu_all, n = lake.nu_weights, len(psi_free)

    # the closures read the sorted candidate set of the current rung
    def count_above(t: float, side: str = "left") -> int:
        return int(np.searchsorted(neg_levels, -t, side))

    def band(mu: float):
        k_cap, k_sup = count_above(mu + reach), count_above(mu)
        return k_cap, k_sup, np.minimum(scale * vf.f(levels[k_cap:k_sup] - mu), cap)

    def mass_at(mu: float) -> float:
        k_cap, k_sup, values = band(mu)
        return cap * prefix[k_cap] + float(np.dot(values, nuw[k_cap:k_sup]))

    def reaches(j: int) -> bool:
        return mass_at(float(levels[j])) >= target

    spread = min(float(psi_free.max() - psi_free.min()), reach)  # f(reach) = lam: no overflow
    per_cell = scale * vf.f(spread) * float(nu_all.max())
    k = n if per_cell <= 0.0 else min(n, 1 + math.ceil(min(target / per_cell, n)))
    while True:
        order = np.argpartition(psi_free, n - k)[n - k:]
        order.sort()  # ties in index order, whatever k is
        order = order[np.argsort(-psi_free[order], kind="stable")]
        levels = psi_free[order]
        neg_levels = -levels  # ascending, for searchsorted
        nuw = nu_all[order]
        prefix = np.concatenate(([0.0], np.cumsum(nuw)))
        if k == n or reaches(k - 1):
            break
        k = min(n, 4 * k)

    # smallest j with mass(levels[j]) >= target (j = n: all capped, the bracket bottom)
    lo, hi = 0, k  # mass(levels[0]) = 0 < target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    upper = float(levels[lo])  # mass(upper) < target <= mass(lower); upper > t
    lower = float(levels[hi]) if hi < k else float(levels[-1]) - reach - 1.0

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
    support = np.sort(order[:tie_hi if fill > 0.0 else k_sup])
    return Rearrangement(mu, zeta, support[zeta[support] != 0.0], k)

