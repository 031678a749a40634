"""Weighted elliptic operator: assembly, inverse application, background flow.

The strong form is -div(b^{-1} grad psi) = b * zeta with a homogeneous
Dirichlet condition, discretized by a symmetric 5-point stencil whose face
coefficients are the harmonic mean of adjacent 1/b values (= 2/(b_P + b_N)).
Faces cut by the curved boundary keep the matrix symmetric: the Dirichlet
value enters through a shortened arm of length theta*h (linear-extrapolation
ghost treatment), which preserves the M-matrix property and restores
second-order accuracy that a staircase mask would destroy.

A is assembled in CSR, where the residual product A x is a row gather, and
SuperLU factors its free CSC view A^T, whose transposed solve answers A x = b
for any A; the symmetry only makes that factor the same bits as A's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from .geometry import Lake, green_disk_grid, periodic_interp

log = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-10
COMPATIBILITY_TOL = 1e-8  # relative to the boundary integral of |nu|
_THETA_MIN = 1e-6
_B_FACE_MIN = 1e-8  # clamp for (near-)zero depth at boundary-adjacent faces


class SolverError(RuntimeError):
    """A numerical failure inside an admissible problem: a missed residual or
    mass contract, a failed factorization, a value beyond float range."""


class CompatibilityError(ValueError):
    """Boundary flux that is incompatible or puts the background beyond float range."""


@dataclass
class OperatorHandle:
    """Assembled weighted operator with a cached sparse factorization."""

    lake: Lake
    matrix: csr_matrix
    lu: object
    cut_rows: np.ndarray      # interior cell index per cut face
    cut_coeffs: np.ndarray    # c/(theta*h^2) per cut face
    cut_params: np.ndarray    # boundary arclength coordinate of each crossing

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        norm = math.sqrt(rhs.dot(rhs))  # np.linalg.norm's sum; a finite field's may overflow
        if not math.isfinite(norm) and not np.isfinite(rhs).all():
            raise ValueError("field contains non-finite values")
        # lu factors A^T, so its transposed solve answers A x = b; it is also
        # SuperLU's faster solve (4.7 against 5.7 ms at 257^2)
        sol = self.lu.solve(rhs, "T")
        if norm > 0.0:
            res = self.matrix @ sol  # the residual of A x = b: a factor of another A fails here
            res -= rhs
            res = math.sqrt(res.dot(res)) / norm
            if not res <= RESIDUAL_TOL:  # a NaN residual fails too
                raise SolverError(
                    f"sparse solve residual {res:.3e} exceeds {RESIDUAL_TOL:.0e} "
                    f"(direct factorization, no iteration count)"
                )
        return sol


def assemble_operator(lake: Lake) -> OperatorHandle:
    """Assemble the weighted 5-point operator and factorize it."""
    if lake.n_cells == 0:
        raise SolverError("empty interior: nothing to assemble")
    # the neighbour and face arrays die with _assemble's frame, before the
    # factorization's peak
    matrix, cut_rows, cut_coeffs, cut_params = _assemble(lake)
    try:
        # exactly symmetric: minimum degree on A^T + A halves the fill of COLAMD.
        # The 5-point stencil's supernodes are tiny: one-column panels factor
        # 257^2 in 186 ms instead of 259 (x86-64), with the same ordering and fill
        lu = splu(matrix.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  panel_size=1, options={"SymmetricMode": True})
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"operator factorization failed: {exc}") from exc
    return OperatorHandle(lake=lake, matrix=matrix, lu=lu, cut_rows=cut_rows,
                          cut_coeffs=cut_coeffs, cut_params=cut_params)


def _assemble(lake: Lake) -> tuple[csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """The operator's CSR matrix and its cut faces' rows, coefficients and
    boundary parameters, from one grid slice per direction (the grid's edge
    cells are padding).  Cells are numbered row by row, so a row's columns
    are the cells at row - 1, column - 1, itself, column + 1 and row + 1; a
    diagonal sums its faces right, left, cut right, row + 1, row - 1, cut
    row + 1, cut left, cut row - 1; cut faces go by direction in that order."""
    n, h2, inner = lake.n_cells, lake.cell_area, lake.mask[1:-1, 1:-1]
    ny, nx = lake.mask.shape
    nbr, face, cut = {}, {}, {}  # per cell: neighbour (-1 outside), interior and cut face
    cut_rows, cut_coeffs, cut_params = [], [], []
    for name, di, dj in (("right", 0, 1), ("down", 1, 0), ("left", 0, -1), ("up", -1, 0)):
        window = np.s_[1 + di:ny - 1 + di, 1 + dj:nx - 1 + dj]
        nbr[name], b_nbr = lake.index[window][inner], lake.b[window][inner]
        outside = nbr[name] < 0
        # b_int > 0, so every quotient is finite; a face to the outside is 0 here
        face[name] = 2.0 / (lake.b_int + b_nbr) / h2
        face[name][outside] = 0.0

        p = np.flatnonzero(outside)
        center = lake.centers[p]
        ghost = center + np.array([dj * lake.h, di * lake.h])
        theta = np.clip(lake.domain.cut_fraction(center, ghost), _THETA_MIN, 1.0)
        cf = 2.0 / (lake.b_int[p] + np.maximum(b_nbr[p], _B_FACE_MIN)) / (theta * h2)
        cut[name] = np.zeros(n)
        cut[name][p] = cf
        cut_rows.append(p)
        cut_coeffs.append(cf)
        cut_params.append(lake.domain.boundary_param(center + theta[:, None] * (ghost - center)))

    diag = (face["right"] + face["left"] + cut["right"] + face["down"] + face["up"]
            + cut["down"] + cut["left"] + cut["up"])
    # int32 indices, as scipy stores them: MAX_CELLS keeps 5 n below 2^31
    cols = np.stack([nbr["up"], nbr["left"], np.arange(n), nbr["right"], nbr["down"]], axis=1,
                    dtype=np.int32)
    vals = np.stack([-face["up"], -face["left"], diag, -face["right"], -face["down"]], axis=1)
    cut_rows = np.concatenate(cut_rows)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(5 - np.bincount(cut_rows, minlength=n), out=indptr[1:])  # a cut face has no entry
    keep = cols >= 0
    matrix = csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))
    return matrix, cut_rows, np.concatenate(cut_coeffs), np.concatenate(cut_params)


def apply_K(handle: OperatorHandle, zeta: np.ndarray) -> np.ndarray:
    """Apply the inverse operator: solve -div(b^{-1} grad psi) = b * zeta, psi = 0 on the boundary."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (handle.lake.n_cells,):
        raise ValueError(f"field must have shape ({handle.lake.n_cells},)")
    return handle.solve(handle.lake.b_int * zeta)


def flux_compatibility(lake: Lake, nu: np.ndarray) -> float:
    """Boundary integral of the flux over the ordered trace.  A non-finite flux
    gives a non-finite integral without numpy's warning: the caller reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.dot(np.asarray(nu, dtype=float), lake.boundary.weights))


def _compatibility(lake: Lake, nu: np.ndarray) -> tuple[bool, float, float]:
    """Whether nu meets the compatibility condition, and the integrals of nu
    and |nu|: the first must vanish within COMPATIBILITY_TOL of the second, a
    bound that scales with the flux like the rounding in the integral does."""
    integral, size = flux_compatibility(lake, nu), flux_compatibility(lake, np.abs(nu))
    return abs(integral) <= COMPATIBILITY_TOL * size < math.inf, integral, size  # NaN fails


def circulation_potential(lake: Lake, nu: np.ndarray) -> np.ndarray:
    """Cumulative integral Q(s) of the flux along the boundary trace, Q(0) = 0.

    Uses the trapezoid rule on the trace's arclength gaps, which is exactly
    consistent with the compatibility quadrature: the loop closes to the
    compatibility integral.
    """
    nu = np.asarray(nu, dtype=float)
    params = lake.boundary.params
    perim = lake.domain.perimeter()
    gaps = np.diff(params, append=params[0] + perim) % perim
    incr = 0.5 * (nu + np.roll(nu, -1)) * gaps
    q = np.empty(len(nu))
    q[0] = 0.0
    q[1:] = np.cumsum(incr[:-1])
    return q


def solve_background(handle: OperatorHandle, nu: np.ndarray) -> np.ndarray:
    """Irrotational background flow from a boundary penetration flux.

    The tangential condition is converted to Dirichlet data by cumulative
    integration of nu along the boundary trace (anchored to 0 at the first
    trace cell); then -div(b^{-1} grad q) = 0 is solved with that data.
    The flux must satisfy the zero-mean compatibility condition (see
    _compatibility), and keep the squared norm of the right-hand side a float.
    """
    lake = handle.lake
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (len(lake.boundary),):
        raise ValueError(f"flux must have one value per boundary cell ({len(lake.boundary)})")
    compatible, integral, size = _compatibility(lake, nu)
    if not compatible:
        raise CompatibilityError(f"boundary flux is incompatible: integral over the boundary is "
                                 f"{integral:.3e}, must vanish within {COMPATIBILITY_TOL:.0e} "
                                 f"of the integral of |nu|, {size:.3e}")
    if not nu.any():
        return np.zeros(lake.n_cells)
    with np.errstate(over="ignore", invalid="ignore"):  # a Q beyond float range fails below
        q_bnd = circulation_potential(lake, nu)
        dirichlet = periodic_interp(handle.cut_params, lake.boundary.params, q_bnd,
                                    lake.domain.perimeter())
        rhs = np.zeros(lake.n_cells)
        np.add.at(rhs, handle.cut_rows, handle.cut_coeffs * dirichlet)
        norm2 = rhs.dot(rhs)
    if not norm2 < math.inf:  # NaN fails too: the solve takes this squared norm
        raise CompatibilityError("boundary flux is out of float range for the background solve")
    return handle.solve(rhs)


def flux_preset(lake: Lake, name: str, amplitude: float = 1.0,
                points=None) -> np.ndarray:
    """Per-boundary-cell flux values for a named preset.

    'zero' and 'cosine' are analytic; 'custom' interpolates (angle, value)
    pairs periodically, one per direction (angle mod 2 pi).  The cosine and
    custom fluxes are mean-corrected in the trace quadrature so the
    compatibility condition holds to rounding, and the correction magnitude
    is logged; a corrected flux that still fails the condition is rounding
    alone (a constant custom flux), and is zero flux.  A flux whose values,
    or the integral of |nu|, overflow raises ValueError.
    """
    trace = lake.boundary
    if name == "zero":
        return np.zeros(len(trace))
    theta = trace.params / lake.domain.perimeter() * 2.0 * np.pi
    # finite values can overflow: the check at the end says so, numpy's warnings only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        if name == "cosine":
            nu = amplitude * np.cos(theta)
        elif name == "custom":
            if points is None or len(points) == 0:
                raise ValueError("custom flux needs (angle, value) pairs")
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
                raise ValueError("custom flux needs finite (angle, value) pairs")
            ang = np.mod(pts[:, 0], 2.0 * np.pi)  # directions, so -1 and 2 pi - 1 agree
            order = np.argsort(ang)
            ang, val = ang[order], pts[order, 1]
            if (np.diff(ang) == 0.0).any():
                raise ValueError("custom flux has two points at one direction")
            nu = amplitude * periodic_interp(theta, ang, val, 2.0 * np.pi)
        else:
            raise ValueError(f"unknown flux preset {name!r}")
        correction = flux_compatibility(lake, nu) / trace.weights.sum()
        nu = nu - correction
    if correction != 0.0:
        log.info("flux preset %s: mean correction %.3e applied", name, correction)
    compatible, _, size = _compatibility(lake, nu)
    if not size < math.inf:  # a value, or the integral of |nu|, is not finite
        raise ValueError("values are not finite: the flux overflows")
    return nu if compatible else np.zeros(len(trace))


def kernel_representation_residual(handle: OperatorHandle, zeta: np.ndarray,
                                   sample_cells: np.ndarray) -> np.ndarray:
    """Residual of K*zeta against the disk log-kernel representation.

    Computes K zeta(x) - b(x) * sum_y G(x, y) zeta(y) b(y) h^2 at the sampled
    interior cells, with the singular self-cell replaced by its exact cell
    integral over an equal-area disk.  For a constant-depth disk the
    correction kernel vanishes and the residual is pure discretization error;
    for variable depth it measures the bounded correction term.
    """
    lake = handle.lake
    psi = apply_K(handle, zeta)
    nuw = lake.nu_weights
    h2 = lake.cell_area
    r_e = lake.h / np.sqrt(np.pi)  # equal-area disk radius for the self cell
    out = np.empty(len(sample_cells))
    for k, c in enumerate(sample_cells):
        x = lake.centers[c]
        g = green_disk_grid(x, lake.centers)
        # exact integral of the log kernel over the equal-area self cell plus
        # the smooth image part evaluated at the center
        rx2 = float(x @ x)
        self_log = r_e**2 / 4.0 + (r_e**2 / 2.0) * np.log(1.0 / r_e)
        self_smooth = h2 * np.log(max(1.0 - rx2, 1e-300)) / (2.0 * np.pi)
        g[c] = (self_log + self_smooth) / h2
        conv = lake.b_int[c] * float(g @ (zeta * nuw))
        out[k] = psi[c] - conv
    return out
