"""Test-only references for the differential tests of old and new.

``solve_vortex`` is the plain fixed-point loop that ``variational.solve_vortex``
replaced with Anderson mixing of the fixed-support tail: a plain loop over the
live ``variational.iterate_step``, not a frozen copy of the old code.  Every
step's bathtub starts from support size 0, where the live loop starts it from
the size of the last output's support.
``initial_patch_loop`` is kept verbatim: the per-cell loop of
``variational.initial_patch`` that a sort of a candidate disc replaced.
"""

from __future__ import annotations

import math

import numpy as np

from lakevortex.elliptic import OperatorHandle, apply_K
from lakevortex.geometry import Lake
from lakevortex.nonlinearity import VorticityFunction
from lakevortex.variational import (
    FP_TOL_REL,
    MASS_TOL_REL,
    MAX_ITERS,
    AdmissibilityError,
    AdmissibleParams,
    SolveContext,
    SolveState,
    energy,
    initial_patch,
    iterate_step,
)


def solve_vortex(handle: OperatorHandle, q: np.ndarray, params: AdmissibleParams,
                 vf: VorticityFunction, init) -> SolveState:
    """Plain iteration on the operator's lake from the patch at the seed
    point init: every step's input is the previous output, until the
    successive weighted L1 difference drops below FP_TOL_REL * kappa0 * delta."""
    ctx = SolveContext(handle=handle, q=q, params=params, vf=vf)
    zeta = initial_patch(ctx, np.asarray(init, dtype=float))
    k = apply_K(handle, zeta)
    e = energy(ctx, zeta, k, np.flatnonzero(zeta))
    mu, residual, trace = 0.0, math.inf, [e.total]
    tol = FP_TOL_REL * params.target_mass
    for _ in range(MAX_ITERS):
        new, k, e, residual = iterate_step(ctx, zeta, k)
        mu, zeta = new.mu, new.zeta
        trace.append(e.total)
        if residual <= tol:
            break
    return SolveState(zeta=zeta, k_zeta=k, mu=mu, energy=e, energy_trace=trace,
                      iterations=len(trace) - 1, converged=residual <= tol,
                      fp_residual=residual, ctx=ctx)


def initial_patch_loop(lake: Lake, params: AdmissibleParams, seed) -> np.ndarray:
    """The seed patch filled cell by cell in distance order."""
    seed = np.asarray(seed, dtype=float)
    d2 = np.sum((lake.centers - seed) ** 2, axis=1)
    order = np.argsort(d2)
    radius = params.eps * math.sqrt(params.kappa0 / math.pi)

    # b0 from the cells within the nominal ball (fallback: nearest cell)
    near = d2 <= max(radius, lake.h) ** 2
    b0 = float(lake.b_int[near].min()) if near.any() else float(lake.b_int[order[0]])

    zeta = np.zeros(lake.n_cells)
    nuw = lake.nu_weights
    remaining = params.target_mass
    value_of = np.minimum(params.delta * b0 / (params.eps**2 * lake.b_int), params.cap)
    for c in order:
        cell_mass = value_of[c] * nuw[c]
        if cell_mass >= remaining:
            zeta[c] = remaining / nuw[c]
            if zeta[c] > params.cap:  # cannot fit the remainder in this cell
                zeta[c] = params.cap
                remaining -= params.cap * nuw[c]
                continue
            remaining = 0.0
            break
        zeta[c] = value_of[c]
        remaining -= cell_mass
    if remaining > MASS_TOL_REL * params.target_mass:
        raise AdmissibilityError("initial patch cannot carry the target mass")
    return zeta
