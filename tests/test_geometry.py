from __future__ import annotations

import math

import loop_assembly_reference as loop_ref
import numpy as np
import pytest
import scipy_geometry_reference as scipy_ref
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from lakevortex import geometry
from lakevortex.geometry import (
    PRESETS,
    DiskDomain,
    GeometryError,
    RectDomain,
    build_lake,
    disk_box_overlap,
    green_disk,
    h_kernel,
    h_kernel_bounds,
    rect_lake,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# lake construction


def test_constant_depth_disk(disk_const_64):
    lake = disk_const_64
    assert np.all(lake.b_int == 1.0)
    assert abs(lake.diameter - 2.0) <= lake.h


def test_interior_max_depth_peaks_at_origin():
    lake = build_lake("disk_interior_max_b", 64)
    argmax = lake.centers[np.argmax(lake.b_int)]
    nearest_origin = lake.centers[np.argmin(np.hypot(*lake.centers.T))]
    assert np.allclose(argmax, nearest_origin)


def test_degenerate_depth_positive_inside_vanishing_at_rim():
    lake = build_lake("disk_degenerate_b", 64)
    assert lake.b_int.min() > 0.0
    ghost_b = lake.b[tuple(lake.boundary.ij.T)]
    assert np.all(ghost_b < 10.0 * lake.h)


def test_unknown_preset_rejected():
    with pytest.raises(GeometryError, match="unknown preset"):
        build_lake("atlantis", 64)


def test_resolution_too_small_rejected():
    with pytest.raises(GeometryError, match="resolution"):
        build_lake("disk_constant_b", 8)


def _assert_connected_inside_grid(mask: np.ndarray) -> None:
    """One 4-connected component, and no interior cell on the grid's edge."""
    _, n_components = ndimage.label(mask, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    assert n_components == 1
    assert not (mask[[0, -1]].any() or mask[:, [0, -1]].any())


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_invariants(preset):
    # build_lake does not check connectivity: its masks are connected by
    # construction, on odd and even grids up to the cell budget
    resolutions = [16, 17, 32, 33, 128, 129, 257]
    if preset in ("disk_constant_b", "rect_constant_b"):
        resolutions += [1023, 1024]
    for resolution in resolutions:
        lake = build_lake(preset, resolution)
        assert np.all(lake.b_int > 0.0)
        assert lake.measure_nu > 0.0
        _assert_connected_inside_grid(lake.mask)


@pytest.mark.parametrize("h", [0.1, 1.0 / 3.0, 2.0 / 129])
def test_rect_lake_fills_its_grid_inside_one_cell_of_padding(h):
    for nx in (1, 2, 3, 8, 29):
        for ny in (1, 2, 5, 29):
            lake = rect_lake(nx, ny, h)
            assert lake.n_cells == nx * ny
            assert lake.mask[1:-1, 1:-1].all()
            _assert_connected_inside_grid(lake.mask)


def test_diameter_matches_brute_force(disk_const_64):
    lake = build_lake("rect_constant_b", 24)
    pts = lake.centers
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    assert lake.diameter == pytest.approx(math.sqrt(d2.max()), abs=1e-12)
    # degenerate supports: none, one cell, two cells, the first grid row
    lake = disk_const_64
    row = np.flatnonzero(lake.centers[:, 1] == lake.centers[0, 1])
    pair = float(np.hypot(*(lake.centers[10] - lake.centers[200])))
    ends = float(np.hypot(*(lake.centers[row[-1]] - lake.centers[row[0]])))
    for cells, expect in (([], 0.0), ([10], 0.0), ([10, 200], pair), (row, ends)):
        zeta = np.zeros(lake.n_cells)
        zeta[cells] = 1.0
        support = lake.centers[zeta > 0.0]
        assert geometry.max_pairwise_distance(support) == pytest.approx(expect, rel=1e-12)


def _brute_diameter(points: np.ndarray) -> float:
    if len(points) <= 1:
        return 0.0
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


def _assert_diameter_matches_qhull(points: np.ndarray) -> None:
    """The row/column-extreme diameter equals the frozen Qhull one and the
    brute force over every pair, bit for bit."""
    d = geometry.max_pairwise_distance(points)
    assert d == scipy_ref.max_pairwise_distance(points)
    assert d == _brute_diameter(points)


masks = hnp.arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(masks, st.sampled_from([16, 64, 129, 257]))
def test_diameter_matches_qhull_on_grid_subsets(mask, resolution):
    # cell centers of build_lake's grid, offset by a few cells
    h = 2.0 / resolution
    rows, cols = np.nonzero(mask)
    _assert_diameter_matches_qhull(np.column_stack([-1.0 + h * (cols + 3.5),
                                                    -1.0 + h * (rows + 5.5)]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]),
       st.lists(st.integers(-40, 40), min_size=1, max_size=60),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.sampled_from([2.0 / 129, 2.0 / 257, 0.1]))
def test_diameter_matches_qhull_on_collinear_sets(direction, steps, x0, y0, h):
    t = np.asarray(steps, dtype=float)
    _assert_diameter_matches_qhull(np.column_stack([x0 + direction[0] * h * t,
                                                    y0 + direction[1] * h * t]))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(0, 60), st.just(2)),
                  elements=st.floats(-10.0, 10.0)))
def test_diameter_matches_qhull_on_random_points(points):
    _assert_diameter_matches_qhull(points)


def test_diameter_in_blocks_matches_one_block(monkeypatch):
    # on a diagonal every point is the extreme of its row and its column
    t = np.arange(50.0)
    points = np.column_stack([0.01 * t, 0.02 * t - 0.5])
    expect = _brute_diameter(points)
    for block in (1, 7, 49, 2500):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        assert geometry.max_pairwise_distance(points) == expect


def test_periodic_interp_wraps_around_the_period():
    xp, fp = np.array([1.0, 2.0, 4.0]), np.array([10.0, 20.0, 40.0])
    x = np.array([1.0, 3.0, 0.5, -4.5, 5.5, 6.0, 4.5])
    # 0.5, -4.5 and 5.5 are one point, on the segment from 4 to 1 + 5
    expect = [10.0, 30.0, 17.5, 17.5, 17.5, 10.0, 32.5]
    assert geometry.periodic_interp(x, xp, fp, 5.0) == pytest.approx(expect, rel=1e-15)


def test_boundary_trace_ordering_and_weights(disk_const_64):
    trace = disk_const_64.boundary
    # counterclockwise from the cell nearest parameter 0, cyclically increasing
    gaps = np.diff(trace.params)
    assert np.all(gaps > 0)
    assert trace.params[0] < 4 * disk_const_64.h
    assert trace.weights.sum() == pytest.approx(TWO_PI, rel=1e-12)
    # ghost cells sit outside the unit disk, each within one cell of an interior cell
    r = np.hypot(disk_const_64.xs[trace.ij[:, 1]], disk_const_64.ys[trace.ij[:, 0]])
    assert np.all(r >= 1.0) and np.all(r < 1.0 + disk_const_64.h)


@pytest.mark.parametrize("domain", [DiskDomain(), DiskDomain((0.1, -0.2), 0.7),
                                    RectDomain(-0.8, 0.8, -0.5, 0.5)])
def test_array_domain_queries_match_scalar_reference(domain):
    rng = np.random.default_rng(8)
    points = rng.uniform(-1.2, 1.2, size=(400, 2))
    expect = [loop_ref.boundary_param(domain, p) for p in points]
    assert domain.boundary_param(points) == pytest.approx(expect, rel=0.0, abs=1e-13)
    # segments from inside points outward by up to one step along an axis
    inside = points[domain.contains(points)]
    steps = np.zeros_like(inside)
    axis = rng.integers(0, 2, size=len(inside))
    steps[np.arange(len(inside)), axis] = rng.choice([-0.5, 0.5], size=len(inside))
    outside = inside + steps
    crossing = ~domain.contains(outside)
    inside, outside = inside[crossing], outside[crossing]
    assert len(inside) > 20
    expect = [loop_ref.cut_fraction(domain, a, b) for a, b in zip(inside, outside)]
    assert domain.cut_fraction(inside, outside) == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_rect_projection_pushes_inner_points_to_nearest_side():
    rect = RectDomain(-0.8, 0.8, -0.5, 0.5)
    points = np.array([[0.7, 0.0], [0.0, 0.45], [-0.75, 0.1], [0.1, -0.4], [1.0, 1.0], [0.8, 0.2]])
    expect = [[0.8, 0.0], [0.0, 0.5], [-0.8, 0.1], [0.1, -0.5], [0.8, 0.5], [0.8, 0.2]]
    assert np.array_equal(rect.project_to_boundary(points), expect)


def test_rect_distance_to_boundary_is_the_nearest_side():
    # the dist_boundary of every rect_constant_b solve: the distance to the
    # nearest side, the projection's distance inside, negative outside
    rect = RectDomain(-0.8, 0.8, -0.5, 0.5)
    points = np.array([[0.7, 0.0], [0.0, 0.45], [-0.75, 0.1], [0.1, -0.4], [0.0, 0.0],
                       [1.0, 0.0], [0.8, 0.2]])
    expect = [0.1, 0.05, 0.05, 0.1, 0.5, -0.2, 0.0]
    assert rect.dist_to_boundary(points) == pytest.approx(expect, rel=0.0, abs=1e-15)
    inside = points[rect.contains(points)]
    nearest = rect.project_to_boundary(inside)
    assert rect.dist_to_boundary(inside) == pytest.approx(
        np.hypot(*(inside - nearest).T), rel=0.0, abs=1e-15)
    assert rect.dist_to_boundary((0.0, 0.45)) == pytest.approx(0.05, rel=0.0, abs=1e-15)


def test_rect_lake_places_requested_cells():
    lake = rect_lake(4, 1, 0.25)
    assert lake.n_cells == 4
    assert np.allclose(lake.centers[:, 1], 0.125)


@pytest.mark.parametrize("nx, ny", [(0, 2), (2, 0), (-1, 1)])
def test_rect_lake_needs_a_cell_each_way(nx, ny):
    with pytest.raises(GeometryError, match="at least one cell"):
        rect_lake(nx, ny, 0.5)


@pytest.mark.parametrize("depth, message", [
    (0.0, "depth must be positive"),
    (-1.0, "depth must be positive"),
    (lambda X, Y: X - 0.5, "depth must be positive"),  # 0 on the first column of cells
    # positive, but b h^2 rounds to 0 in every cell
    (5e-324, "weighted measure of the lake is not positive"),
], ids=["zero", "negative", "zero-somewhere", "measure-underflows"])
def test_lake_needs_positive_depth_and_measure(depth, message):
    with pytest.raises(GeometryError, match=message):
        rect_lake(2, 2, 0.5, depth=depth)


# ---------------------------------------------------------------------------
# disk Green function


def test_h_kernel_needs_distinct_points(disk_const_64):
    with pytest.raises(GeometryError, match="distinct points"):
        h_kernel(disk_const_64, (0.25, -0.1), (0.25, -0.1))


def test_green_center_value():
    # image formula by hand: G(0, (1/2, 0)) = ln(2) / (2 pi)
    assert green_disk((0.0, 0.0), (0.5, 0.0)) == pytest.approx(
        math.log(2.0) / TWO_PI, abs=1e-14
    )


def test_green_symmetry_pair():
    a, b = (0.3, 0.1), (0.1, 0.3)
    assert green_disk(a, b) == pytest.approx(green_disk(b, a), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-0.95, 0.95), st.floats(-0.95, 0.95),
    st.floats(-0.95, 0.95), st.floats(-0.95, 0.95),
)
def test_green_symmetry_random(ax, ay, bx, by):
    a, b = np.array([ax, ay]), np.array([bx, by])
    if np.hypot(*a) >= 0.999 or np.hypot(*b) >= 0.999 or np.hypot(*(a - b)) < 1e-6:
        return
    assert abs(green_disk(a, b) - green_disk(b, a)) <= 1e-12


def test_green_vanishes_at_boundary():
    vals = [green_disk((0.0, 0.0), (r, 0.0)) for r in (0.9, 0.99, 0.999)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 1e-3 / TWO_PI * 10


def test_green_coincident_rejected():
    with pytest.raises(GeometryError, match="singular"):
        green_disk((0.2, 0.2), (0.2, 0.2))
    with pytest.raises(GeometryError, match="inside"):
        green_disk((1.5, 0.0), (0.2, 0.2))


# ---------------------------------------------------------------------------
# regular kernel part


def test_h_kernel_center_is_constant(disk_const_64):
    # H(0, y) = ln(diam)/2pi: the log singularity cancels against the image term
    expect = math.log(disk_const_64.diameter) / TWO_PI
    for y in ((0.3, 0.4), (0.01, 0.0), (-0.7, 0.2)):
        assert h_kernel(disk_const_64, (0.0, 0.0), y) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(math.log(2.0) / TWO_PI, abs=disk_const_64.h)


def test_h_kernel_bound_attained_near_center(disk_const_64):
    # at x = 0 and tiny |y| both sides approach ln(diam/1)/2pi
    upper, _ = h_kernel_bounds(disk_const_64, (0.0, 0.0), (1e-6, 0.0))
    hval = h_kernel(disk_const_64, (0.0, 0.0), (1e-6, 0.0))
    assert upper - hval == pytest.approx(0.0, abs=1e-5)


def test_h_kernel_symmetric(disk_const_64):
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.uniform(-0.7, 0.7, size=(2, 2))
        if np.hypot(*(a - b)) < 1e-3:
            continue
        assert h_kernel(disk_const_64, a, b) == pytest.approx(
            h_kernel(disk_const_64, b, a), abs=1e-12
        )


def test_h_kernel_upper_bound_thousand_pairs(disk_const_64):
    rng = np.random.default_rng(123)
    count = 0
    min_slack = float("inf")
    while count < 1000:
        a, b = rng.uniform(-1, 1, size=(2, 2))
        if np.hypot(*a) >= 0.999 or np.hypot(*b) >= 0.999 or np.hypot(*(a - b)) < 1e-9:
            continue
        upper, _ = h_kernel_bounds(disk_const_64, a, b)
        min_slack = min(min_slack, upper - h_kernel(disk_const_64, a, b))
        count += 1
    assert min_slack >= -1e-12


def test_h_kernel_rejects_non_disk():
    lake = build_lake("rect_constant_b", 32)
    with pytest.raises(GeometryError, match="disk"):
        h_kernel(lake, (0.1, 0.1), (0.2, 0.2))


# ---------------------------------------------------------------------------
# overlap helper


def test_disk_box_overlap_against_subsampling():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x0, y0 = rng.uniform(-1.2, 0.8, size=2)
        w, hgt = rng.uniform(0.05, 0.8, size=2)
        r = rng.uniform(0.2, 1.0)
        exact = disk_box_overlap(r, x0, x0 + w, y0, y0 + hgt)
        xs = np.linspace(x0, x0 + w, 200)
        ys = np.linspace(y0, y0 + hgt, 200)
        X, Y = np.meshgrid(xs, ys)
        approx = np.mean(X * X + Y * Y <= r * r) * w * hgt
        assert exact == pytest.approx(approx, abs=3e-3 * max(w * hgt, r * r))
