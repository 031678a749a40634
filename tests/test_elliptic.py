from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import coo_assembly_reference as coo_ref
import loop_assembly_reference as loop_ref
import numpy as np
import pytest
from scipy.sparse import csr_matrix

from lakevortex import elliptic
from lakevortex.elliptic import (
    CompatibilityError,
    SolverError,
    apply_K,
    assemble_operator,
    circulation_potential,
    flux_compatibility,
    flux_preset,
    kernel_representation_residual,
    solve_background,
)
from lakevortex.geometry import (
    PRESETS,
    DiskDomain,
    build_lake,
    disk_indicator_averaged,
    rect_lake,
)

TWO_PI = 2.0 * math.pi

# value of the stream function at the origin for a unit source patch of
# radius 1/2 on the constant-depth unit disk: 1/16 + ln(2)/8
PSI_CENTER_EXACT = 1.0 / 16.0 + math.log(2.0) / 8.0


def psi_exact_radial(r: float) -> float:
    if r <= 0.5:
        return PSI_CENTER_EXACT - r * r / 4.0
    return 0.125 * math.log(1.0 / r)


# ---------------------------------------------------------------------------
# assembly


def test_constant_depth_stencil_is_plain_five_point(disk_const_64, disk_const_64_handle):
    lake, handle = disk_const_64, disk_const_64_handle
    # pick a cell with all four neighbors interior, far from the rim
    c = np.argmin(np.hypot(lake.centers[:, 0] - 0.3, lake.centers[:, 1] + 0.2))
    row = handle.matrix.getrow(c).toarray().ravel()
    inv_h2 = 1.0 / lake.cell_area
    assert row[c] == pytest.approx(4.0 * inv_h2, rel=1e-14)
    off = row[row != 0]
    assert sorted(off)[:4] == pytest.approx([-inv_h2] * 4, rel=1e-14)


def _bilinear_form(handle, u, v) -> float:
    """Discrete energy form a(u, v) = sum b^{-1} grad u . grad v h^2."""
    return float(u @ (handle.matrix @ v)) * handle.lake.cell_area


def test_bilinear_form_positive_definite(disk_const_64_handle):
    rng = np.random.default_rng(0)
    n = disk_const_64_handle.lake.n_cells
    for _ in range(20):
        u = rng.normal(size=n)
        assert _bilinear_form(disk_const_64_handle, u, u) > 0.0


def test_bilinear_form_symmetric(interior_128_handle):
    rng = np.random.default_rng(1)
    n = interior_128_handle.lake.n_cells
    for _ in range(10):
        u, v = rng.normal(size=(2, n))
        lhs = _bilinear_form(interior_128_handle, u, v)
        rhs = _bilinear_form(interior_128_handle, v, u)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)


def test_matrix_exactly_symmetric(interior_128_handle):
    a = interior_128_handle.matrix
    assert abs(a - a.T).max() == 0.0


def test_factorization_uses_symmetric_ordering():
    # symmetric mode permutes rows and columns alike; the minimum-degree
    # ordering on A^T + A keeps the fill near half of COLAMD's (0.98M at 129^2)
    handle = assemble_operator(build_lake("disk_interior_max_b", 129))
    assert np.array_equal(handle.lu.perm_r, handle.lu.perm_c)
    assert handle.lu.L.nnz + handle.lu.U.nnz < 700_000


def _differential_lakes():
    for preset in PRESETS:
        for resolution in (16, 33, 64, 129):
            yield build_lake(preset, resolution)
    yield rect_lake(8, 8, 0.1, depth=lambda x, y: 1.0 + 0.5 * x)
    yield rect_lake(5, 3, 0.25)


def test_array_assembly_matches_frozen_loop():
    """Array-built operator and trace against the frozen per-face loops, on
    every preset at four resolutions and on two rectangle fixtures."""
    for lake in _differential_lakes():
        trace = lake.boundary
        ref_trace = loop_ref.build_trace(lake.domain, lake.mask, lake.xs, lake.ys)
        assert np.array_equal(trace.ij, ref_trace.ij)
        assert np.abs(trace.params - ref_trace.params).max() <= 1e-13
        assert np.abs(trace.weights - ref_trace.weights).max() <= 1e-13

        handle, ref = assemble_operator(lake), loop_ref.assemble_operator(lake)
        assert np.array_equal(handle.cut_rows, ref.cut_rows)
        assert handle.cut_coeffs == pytest.approx(ref.cut_coeffs, rel=1e-13, abs=0.0)
        assert np.abs(handle.cut_params - ref.cut_params).max() <= 1e-13
        assert np.array_equal(handle.matrix.indptr, ref.matrix.indptr)
        assert np.array_equal(handle.matrix.indices, ref.matrix.indices)
        assert handle.matrix.data == pytest.approx(ref.matrix.data, rel=1e-13, abs=0.0)

        nu = flux_preset(lake, "cosine")
        q, q_ref = solve_background(handle, nu), solve_background(ref, nu)
        assert np.abs(q - q_ref).max() <= 1e-12


def test_assembly_matches_frozen_coo_bit_for_bit():
    """The CSR assembly from grid slices against the frozen COO assembly, bit
    for bit: indptr, indices and data with their dtypes, and the cut faces'
    rows, coefficients and boundary parameters.  On every preset at 16, 17,
    33, 64, 129 and 257 cells per side, the rectangle fixtures and the tiny
    oracle lakes; no assembly warns, although the cells around a lake have
    depth 0."""
    lakes = [build_lake(p, r) for p in PRESETS for r in (16, 17, 33, 64, 129, 257)]
    lakes += [rect_lake(8, 8, 0.1, depth=lambda x, y: 1.0 + 0.5 * x), rect_lake(5, 3, 0.25),
              rect_lake(1, 1, 0.5), rect_lake(2, 1, 0.5), rect_lake(2, 2, 0.5)]
    for lake in lakes:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix, *cuts = elliptic._assemble(lake)
        ref, *ref_cuts = coo_ref.assemble(lake)
        for new, old in zip([matrix.indptr, matrix.indices, matrix.data, *cuts],
                            [ref.indptr, ref.indices, ref.data, *ref_cuts]):
            assert new.dtype == old.dtype and new.shape == old.shape
            assert new.tobytes() == old.tobytes()


def test_operator_is_exactly_symmetric_and_transposed_solve_matches():
    """OperatorHandle.solve uses SuperLU's transposed solve with the factor
    of A^T; its plain solve, of A^T x = b, agrees because the assembled
    matrix equals its transpose."""
    rng = np.random.default_rng(3)
    for lake in _differential_lakes():
        handle = assemble_operator(lake)
        assert (handle.matrix != handle.matrix.T).nnz == 0
        rhs = rng.normal(size=handle.lake.n_cells)
        plain = handle.lu.solve(rhs)
        assert np.abs(handle.solve(rhs) - plain).max() <= 1e-13 * np.abs(plain).max()


def test_domain_queries_called_per_direction_not_per_face(monkeypatch):
    """A 129^2 disk lake has hundreds of cut faces; building and assembling it
    asks the domain once per direction, plus once for the trace."""
    calls = {"cut_fraction": 0, "boundary_param": 0}
    for name in calls:
        query = getattr(DiskDomain, name)

        def counted(self, *args, _name=name, _query=query):
            calls[_name] += 1
            return _query(self, *args)

        monkeypatch.setattr(DiskDomain, name, counted)
    lake = build_lake("disk_interior_max_b", 129)
    handle = assemble_operator(lake)
    assert len(handle.cut_rows) > 400
    assert calls["cut_fraction"] <= 4 and calls["boundary_param"] <= 4 + 1


def test_triplets_are_freed_before_the_factorization(monkeypatch):
    """When splu starts, the memory assemble_operator still holds is the CSR
    matrix and the cut-face arrays: the per-cell neighbour, face and packing
    arrays of the assembly are gone from under the factorization's peak."""
    lake = build_lake("disk_interior_max_b", 64)
    assemble_operator(lake)  # first-call caches are not the assembly's
    live, traced = elliptic.splu, []

    def measured(*args, **kwargs):
        traced.append(tracemalloc.get_traced_memory()[0])
        return live(*args, **kwargs)

    monkeypatch.setattr(elliptic, "splu", measured)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        handle = assemble_operator(lake)
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (handle.matrix.data, handle.matrix.indices,
                                  handle.matrix.indptr, handle.cut_rows,
                                  handle.cut_coeffs, handle.cut_params))
    (at_splu,) = traced
    # under one float per cell beyond what the handle keeps
    assert kept <= at_splu - before < kept + 8 * lake.n_cells


def test_empty_interior_rejected():
    # a valid Lake always has interior cells; force the degenerate case to
    # exercise the assembly guard
    lake = rect_lake(1, 1, 0.5)
    lake.b_int = lake.b_int[:0]
    with pytest.raises(SolverError, match="empty interior"):
        assemble_operator(lake)


# ---------------------------------------------------------------------------
# inverse application


def test_apply_K_zero_source(disk_const_64_handle):
    psi = apply_K(disk_const_64_handle, np.zeros(disk_const_64_handle.lake.n_cells))
    assert np.all(psi == 0.0)


def test_apply_K_analytic_patch(disk_const_64, disk_const_64_handle):
    lake = disk_const_64
    zeta = disk_indicator_averaged(lake, (0.0, 0.0), 0.5)
    psi = apply_K(disk_const_64_handle, zeta)
    c0 = np.argmin(np.hypot(*lake.centers.T))
    r0 = float(np.hypot(*lake.centers[c0]))
    assert psi[c0] == pytest.approx(psi_exact_radial(r0), abs=5.0 * lake.h**2)


def test_mesh_convergence_order():
    errors = []
    hs = []
    for res in (64, 128):
        lake = build_lake("disk_constant_b", res)
        handle = assemble_operator(lake)
        zeta = disk_indicator_averaged(lake, (0.0, 0.0), 0.5)
        psi = apply_K(handle, zeta)
        c0 = np.argmin(np.hypot(*lake.centers.T))
        errors.append(abs(psi[c0] - psi_exact_radial(float(np.hypot(*lake.centers[c0])))))
        hs.append(lake.h)
    order = math.log(errors[0] / errors[1]) / math.log(hs[0] / hs[1])
    assert order >= 1.8


def test_mesh_convergence_variable_depth_manufactured():
    # manufactured radial solution psi = (1 - r^2)^2 on the variable-depth
    # disk b = 1 - r^2/2; the source is evaluated by an independent
    # finite-difference quadrature of the continuum operator
    def b_of(r):
        return 1.0 - r * r / 2.0

    def rhs_of(r):
        def flux(rr):
            return rr * (-4.0 * rr * (1.0 - rr * rr)) / b_of(rr)

        step = 1e-5
        d = (flux(r + step) - flux(r - step)) / (2.0 * step)
        return -d / np.maximum(r, 1e-12)

    errors, hs = [], []
    for res in (64, 128):
        lake = build_lake("disk_interior_max_b", res)
        handle = assemble_operator(lake)
        r = np.hypot(*lake.centers.T)
        psi = apply_K(handle, rhs_of(r) / lake.b_int)
        errors.append(float(np.abs(psi - (1.0 - r * r) ** 2).max()))
        hs.append(lake.h)
    order = math.log(errors[0] / errors[1]) / math.log(hs[0] / hs[1])
    assert order >= 1.8


def test_self_adjointness_against_dense_oracle():
    lake = rect_lake(8, 8, 0.1, depth=lambda x, y: 1.0 + 0.5 * x)
    handle = assemble_operator(lake)
    rng = np.random.default_rng(5)
    z1, z2 = rng.normal(size=(2, lake.n_cells))
    nuw = lake.nu_weights
    lhs = float(np.dot(z1 * nuw, apply_K(handle, z2)))
    rhs = float(np.dot(z2 * nuw, apply_K(handle, z1)))
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)
    # dense linear-algebra oracle for the same solve
    a_dense = handle.matrix.toarray()
    psi_dense = np.linalg.solve(a_dense, lake.b_int * z1)
    assert np.allclose(apply_K(handle, z1), psi_dense, rtol=1e-10, atol=1e-12)


def test_solve_residual_contract(interior_128, interior_128_handle):
    rng = np.random.default_rng(9)
    zeta = np.abs(rng.normal(size=interior_128.n_cells))
    psi = apply_K(interior_128_handle, zeta)
    rhs = interior_128.b_int * zeta
    res = np.linalg.norm(interior_128_handle.matrix @ psi - rhs) / np.linalg.norm(rhs)
    assert res <= 1e-10


def test_degenerate_depth_operator_solves():
    # shore-vanishing depth: clamped faces keep the stencil finite and SPD
    lake = build_lake("disk_degenerate_b", 64)
    handle = assemble_operator(lake)
    zeta = disk_indicator_averaged(lake, (0.0, 0.0), 0.4)
    psi = apply_K(handle, zeta)
    assert np.all(np.isfinite(psi))
    assert psi.min() > 0.0
    rng = np.random.default_rng(21)
    u = rng.normal(size=lake.n_cells)
    assert _bilinear_form(handle, u, u) > 0.0


def test_positivity_of_inverse(interior_128, interior_128_handle):
    zeta = np.zeros(interior_128.n_cells)
    zeta[interior_128.n_cells // 3] = 1.0
    psi = apply_K(interior_128_handle, zeta)
    assert psi.min() > 0.0


def test_apply_K_validates_input(disk_const_64_handle):
    with pytest.raises(ValueError):
        apply_K(disk_const_64_handle, np.ones(3))
    for value in (np.nan, np.inf, -np.inf):
        bad = np.ones(disk_const_64_handle.lake.n_cells)
        bad[0] = value
        with pytest.raises(ValueError, match="non-finite"):
            apply_K(disk_const_64_handle, bad)


def test_solve_background_rejects_non_finite_flux(disk_const_64_handle):
    # a NaN or infinite flux has a NaN or infinite integral, which is not
    # within the compatibility tolerance of zero
    for values in ([np.nan], [np.inf], [np.inf, -np.inf]):
        nu = np.zeros(len(disk_const_64_handle.lake.boundary))
        nu[3:3 + len(values)] = values
        with pytest.raises(CompatibilityError):
            solve_background(disk_const_64_handle, nu)


def test_apply_K_overflowing_norm_is_a_solver_error(disk_const_64_handle):
    # a finite field whose norm overflows is not a non-finite field
    with pytest.raises(SolverError), np.errstate(over="ignore", invalid="ignore"):
        apply_K(disk_const_64_handle, np.full(disk_const_64_handle.lake.n_cells, 1e300))


def test_corrupted_solution_fails_residual_check(disk_const_64_handle):
    handle = disk_const_64_handle
    zeta = np.ones(handle.lake.n_cells)
    assert np.all(np.isfinite(apply_K(handle, zeta)))

    class CorruptedLU:
        def __init__(self, damage):
            self.damage = damage

        def solve(self, rhs, trans="N"):
            return self.damage(handle.lu.solve(rhs, trans))

    for damage in (lambda sol: sol * (1.0 + 1e-6), lambda sol: np.full_like(sol, np.nan)):
        corrupted = dataclasses.replace(handle, lu=CorruptedLU(damage))
        with pytest.raises(SolverError, match="residual"):
            apply_K(corrupted, zeta)


def _skewed(matrix):
    """A copy of matrix with one off-diagonal entry scaled by 1.5: A != A^T."""
    matrix = matrix.copy()
    p = matrix.shape[0] // 2
    assert matrix[p, p + 1] != 0.0
    matrix[p, p + 1] *= 1.5
    return matrix


def test_operator_that_lost_symmetry_fails_residual_check(disk_const_64_handle):
    # a factor that does not match the handle's matrix fails the residual,
    # which is taken against the handle's A itself
    handle = disk_const_64_handle
    skewed = dataclasses.replace(handle, matrix=_skewed(handle.matrix))
    with pytest.raises(SolverError, match="residual"):
        apply_K(skewed, np.ones(handle.lake.n_cells))


def test_assembled_operator_without_symmetry_solves_A_not_its_transpose(disk_const_64,
                                                                       monkeypatch):
    # the factor is of A^T and the solve transposed: that answers A x = b for
    # any assembled A, not only for a symmetric one
    monkeypatch.setattr(elliptic, "csr_matrix", lambda *a, **k: _skewed(csr_matrix(*a, **k)))
    handle = assemble_operator(disk_const_64)
    rhs = disk_const_64.b_int.copy()
    x = apply_K(handle, np.ones(handle.lake.n_cells))
    a = handle.matrix
    assert (a != a.T).nnz == 2
    assert np.linalg.norm(a @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert np.linalg.norm(a.T @ x - rhs) > 1e-6 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# background flow


def test_background_zero_flux(disk_const_64, disk_const_64_handle):
    q = solve_background(disk_const_64_handle, np.zeros(len(disk_const_64.boundary)))
    assert np.all(q == 0.0)


def test_background_cosine_gives_vertical_coordinate(disk_const_64, disk_const_64_handle):
    nu = flux_preset(disk_const_64, "cosine")
    q = solve_background(disk_const_64_handle, nu)
    err = np.abs(q - disk_const_64.centers[:, 1]).max()
    assert err <= 5.0 * disk_const_64.h
    probe = np.argmin(np.hypot(disk_const_64.centers[:, 0],
                               disk_const_64.centers[:, 1] - 0.5))
    assert q[probe] == pytest.approx(0.5, abs=5.0 * disk_const_64.h)


def test_background_constant_flux_rejected(disk_const_64, disk_const_64_handle):
    nu = np.ones(len(disk_const_64.boundary))
    # the integral is the perimeter, 2 pi
    with pytest.raises(CompatibilityError,
                       match=r"boundary is 6\.283e\+00, must vanish within 1e-08"):
        solve_background(disk_const_64_handle, nu)


def test_circulation_potential_anchored_and_closed(disk_const_64):
    lake = disk_const_64
    nu = flux_preset(lake, "cosine")
    big_q = circulation_potential(lake, nu)
    assert big_q[0] == 0.0
    # loop closure equals the compatibility integral (zero after correction)
    assert flux_compatibility(lake, nu) == pytest.approx(0.0, abs=1e-13)
    theta = lake.boundary.params
    assert np.abs(big_q - (np.sin(theta) - math.sin(theta[0]))).max() <= 5e-3


def test_custom_flux_mean_corrected(disk_const_64):
    pts = [(0.0, 1.0), (math.pi / 2, 0.3), (math.pi, -0.2), (3 * math.pi / 2, 0.1)]
    nu = flux_preset(disk_const_64, "custom", points=pts)
    assert abs(flux_compatibility(disk_const_64, nu)) <= 1e-12


def test_custom_flux_angles_are_directions():
    # -1 and 2 pi - 1 name one direction: the flux between them interpolates
    # periodically instead of taking the first point's value
    lake = build_lake("disk_interior_max_b", 64)
    negative = flux_preset(lake, "custom", points=[(-1.0, 1.0), (1.0, 0.0), (3.0, -1.0)])
    wrapped = flux_preset(lake, "custom",
                          points=[(TWO_PI - 1.0, 1.0), (1.0, 0.0), (3.0, -1.0)])
    assert np.array_equal(negative, wrapped)
    for duplicate in ([(0.0, 1.0), (TWO_PI, 0.0)], [(-1.0, 1.0), (TWO_PI - 1.0, 0.5)]):
        with pytest.raises(ValueError, match="one direction"):
            flux_preset(lake, "custom", points=duplicate)


@pytest.mark.parametrize("name, points, message", [
    ("custom", None, "needs \\(angle, value\\) pairs"),
    ("custom", [], "needs \\(angle, value\\) pairs"),
    ("custom", [(0.0, 1.0), (1.0, math.inf)], "finite"),
    ("custom", [(math.nan, 1.0), (1.0, 0.0)], "finite"),
    ("custom", [(0.0, 1.0, 2.0)], "finite"),
    ("source", None, "unknown flux preset 'source'"),
], ids=["custom-none", "custom-empty", "custom-inf", "custom-nan", "custom-triple",
        "unknown-preset"])
def test_flux_preset_rejects_bad_points_and_names(disk_const_64, name, points, message):
    with pytest.raises(ValueError, match=message):
        flux_preset(disk_const_64, name, points=points)


def test_factorization_failure_is_a_solver_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(elliptic, "splu", singular)
    with pytest.raises(SolverError, match="factorization failed: Factor is exactly singular"):
        assemble_operator(rect_lake(2, 2, 0.5))


def test_flux_needs_matching_length(disk_const_64_handle):
    with pytest.raises(ValueError, match="boundary cell"):
        solve_background(disk_const_64_handle, np.zeros(3))


# ---------------------------------------------------------------------------
# kernel representation


def test_representation_constant_depth(disk_const_64, disk_const_64_handle):
    lake = disk_const_64
    zeta = disk_indicator_averaged(lake, (0.2, 0.1), 0.3)
    zeta = zeta / float(np.dot(zeta, lake.nu_weights))  # unit weighted mass
    res = kernel_representation_residual(disk_const_64_handle, zeta, np.arange(lake.n_cells))
    assert np.abs(res).max() <= 5.0 * lake.h


def test_representation_correction_bounded_under_shrinking_support(
    interior_128, interior_128_handle
):
    lake = interior_128
    sample = np.linspace(0, lake.n_cells - 1, 150).astype(int)
    residuals = []
    for radius in (0.2, 0.1, 0.05, 0.025):
        zeta = disk_indicator_averaged(lake, (0.1, 0.2), radius)
        zeta = zeta / float(np.dot(zeta, lake.nu_weights))
        res = kernel_representation_residual(interior_128_handle, zeta, sample)
        residuals.append(float(np.abs(res).max()))
    # bounded, not growing like the log of the shrinking radius
    assert max(residuals) <= 1.25 * residuals[0]
