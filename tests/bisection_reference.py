"""Frozen reference: the multiplier bisection with tie fill that the exact
sorted bathtub (``variational.bathtub``) replaced, kept verbatim for the
differential test of the two on the regression states.  Test-only code.
"""

from __future__ import annotations

import numpy as np

from lakevortex.geometry import Lake
from lakevortex.nonlinearity import VorticityFunction
from lakevortex.variational import MASS_TOL_REL, AdmissibilityError, AdmissibleParams

BISECT_ITERS = 80


def _bathtub_update(psi_free: np.ndarray, mu: float, params: AdmissibleParams,
                    vf: VorticityFunction) -> np.ndarray:
    scale = params.delta / params.eps**2
    return np.minimum(scale * vf.f(psi_free - mu), params.cap)


def _mu_with_tie_fill(lake: Lake, params: AdmissibleParams, vf: VorticityFunction,
                      psi_free: np.ndarray):
    """Return (mu, zeta) with zeta meeting the mass constraint.

    When f jumps at 0+ the mass-of-mu map is discontinuous and no mu may hit
    the target; in that case cells on the critical level set {psi_free = mu}
    are filled fractionally (a tie set of the level-set construction), which
    still satisfies the optimality cases because the inverse vanishes at and
    below the jump.
    """
    params.check_nonempty(lake, vf)
    nuw = lake.nu_weights
    target = params.target_mass
    tol = MASS_TOL_REL * target

    def mass_at(mu):
        return float(np.dot(_bathtub_update(psi_free, mu, params, vf), nuw))

    lo = float(psi_free.min()) - float(vf.f_inv(params.lam)) - 1.0
    hi = float(psi_free.max())
    if mass_at(lo) < target - tol:
        raise AdmissibilityError(
            "mass target unattainable at the bracket bottom; truncation level "
            "too small for the requested circulation"
        )
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mass_at(mid) >= target:
            lo = mid
        else:
            hi = mid
    # tie-break toward larger mu (smaller vortex support)
    for mu in (hi, lo):
        zeta = _bathtub_update(psi_free, mu, params, vf)
        m = float(np.dot(zeta, nuw))
        if abs(m - target) <= tol:
            return mu, zeta
    # jump in the mass map between lo and hi: fill the critical level set
    mu = hi
    zeta = _bathtub_update(psi_free, mu, params, vf)
    m_hi = float(np.dot(zeta, nuw))
    deficit = target - m_hi
    jump_value = params.delta / params.eps**2 * vf.f_at_zero_plus
    tie = (psi_free >= lo - 1e-30) & (psi_free <= hi + (hi - lo)) & (zeta <= 0.0)
    tie_capacity = float(np.dot(np.full(tie.sum(), jump_value), nuw[tie])) if tie.any() else 0.0
    if deficit < -tol or tie_capacity < deficit - tol:
        raise AdmissibilityError(
            f"bisection could not meet the mass constraint: deficit {deficit:.3e}, "
            f"tie capacity {tie_capacity:.3e}"
        )
    if tie.any() and deficit > 0.0:
        frac = deficit / tie_capacity
        zeta = zeta.copy()
        zeta[tie] = frac * jump_value
    return mu, zeta
