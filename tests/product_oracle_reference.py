"""Frozen reference: the brute-force oracle that walked itertools.product in
chunks of 65536 rows and kept a running best, which
``variational.brute_force_oracle`` replaced with one block of fields per
level of the first cell and one argmax.  Kept verbatim for the differential
test of the two.  Test-only code.
"""

from __future__ import annotations

import itertools

import numpy as np

from lakevortex.elliptic import OperatorHandle
from lakevortex.geometry import Lake
from lakevortex.nonlinearity import VorticityFunction
from lakevortex.variational import AdmissibilityError, AdmissibleParams, _dense_quadratic


def brute_force_oracle(lake: Lake, q: np.ndarray, params: AdmissibleParams,
                       vf: VorticityFunction, m: int, handle: OperatorHandle):
    """Enumerate quantized admissible fields and return the best (zeta, E).

    Cell values range over {0, cap*k/m}; fields qualify when their weighted
    mass is within half a mass quantum (the largest single-level increment)
    of the target.  Energies use a dense inverse, independent of the sparse
    iterative path.  Limits: at most 6 cells and m <= 12.
    """
    n = lake.n_cells
    if n > 6:
        raise ValueError("oracle enumeration is limited to lakes with <= 6 cells")
    if m > 12 or m < 1:
        raise ValueError("quantization level m must be in 1..12")
    w = _dense_quadratic(handle)
    nuw = lake.nu_weights
    cap = params.cap
    levels = cap * np.arange(m + 1) / m
    quantum = (cap / m) * float(nuw.max())
    target = params.target_mass

    lin = q * nuw
    scale = params.delta / params.eps**2
    best_e = -np.inf
    best_z = None
    found = False
    chunk = []

    def flush(rows):
        nonlocal best_e, best_z, found
        if not rows:
            return
        z = np.array(rows)
        masses = z @ nuw
        ok = np.abs(masses - target) <= 0.5 * quantum + 1e-12 * target
        if not ok.any():
            return
        z = z[ok]
        found = True
        e_q = 0.5 * np.einsum("ij,jk,ik->i", z, w, z) + z @ lin
        f_eps = scale * (vf.F_star(z / scale) @ nuw)
        e = e_q - f_eps
        k = int(np.argmax(e))
        if e[k] > best_e:
            best_e = float(e[k])
            best_z = z[k].copy()

    for combo in itertools.product(levels, repeat=n):
        chunk.append(combo)
        if len(chunk) >= 65536:
            flush(chunk)
            chunk = []
    flush(chunk)
    if not found:
        raise AdmissibilityError(
            "no quantized field meets the mass constraint within half a quantum"
        )
    return best_z, best_e
