"""Discretized lake geometry: domains, depth presets, boundary traces, disk kernels.

A lake is a uniform Cartesian cell grid with an interior mask (cell centers
strictly inside the domain) and a per-cell depth field b.  The weighted
measure used throughout the package is nu = b * dm, realized discretely as
b * h^2 per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# each preset's depth b(X, Y) on the grid of its domain (see build_lake)
PRESETS = {
    "disk_interior_max_b": lambda X, Y: np.maximum(1.0 - (X * X + Y * Y) / 2.0, 0.0),
    "disk_boundary_max_b": lambda X, Y: np.maximum(1.0 + X, 0.0),
    "disk_constant_b": lambda X, Y: np.ones_like(X),
    "disk_degenerate_b": lambda X, Y: np.sqrt(np.maximum(1.0 - (X * X + Y * Y), 0.0)),
    "rect_constant_b": lambda X, Y: np.ones_like(X),
}

# bounding-box cells (resolution^2) build_lake accepts; checked before any
# array is allocated, so an oversized grid is rejected up front.  The LU
# holds about 1 KB per interior cell: peak RSS of a fresh process after
# assemble_operator is 104, 151, 250 and 952 MB at 257^2, 363^2, 513^2 and
# 1024^2 (823,592 cells, factored in 10 s), from 61 MB before build_lake
MAX_CELLS = 1 << 20


class GeometryError(ValueError):
    """Invalid geometric construction or query."""


# ---------------------------------------------------------------------------
# domains


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row dot products of two (m, 2) arrays by the vector @ vector kernel: near
    the circle |p|^2 - 1 cancels, so other rounding moves short arms ~1e-13."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class DiskDomain:
    """The open unit disk at the origin, which every disk kernel below assumes;
    boundary parametrized by arclength counterclockwise from angle 0."""

    center = (0.0, 0.0)
    radius = 1.0
    kind = "disk"

    def contains(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.hypot(p[..., 0], p[..., 1]) < 1.0

    def dist_to_boundary(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return 1.0 - np.hypot(p[..., 0], p[..., 1])

    def perimeter(self) -> float:
        return TWO_PI

    def boundary_param(self, p) -> np.ndarray:
        """Arclength coordinates in [0, perimeter) of the projections of the (m, 2) points p."""
        p = np.asarray(p, dtype=float)
        return np.arctan2(p[:, 1], p[:, 0]) % TWO_PI

    def cut_fraction(self, p_inside, p_outside) -> np.ndarray:
        """Fractions t in [0, 1] where the segments p_inside -> p_outside, rows of
        two (m, 2) arrays, cross the circle."""
        p = np.asarray(p_inside, dtype=float)
        d = np.asarray(p_outside, dtype=float) - p
        a = _row_dot(d, d)
        b = 2.0 * _row_dot(p, d)
        cc = _row_dot(p, p) - 1.0
        disc = np.maximum(b * b - 4.0 * a * cc, 0.0)  # < 0 when grazing; on the circle
        return np.clip((-b + np.sqrt(disc)) / (2.0 * a), 0.0, 1.0)


@dataclass(frozen=True)
class RectDomain:
    """Open axis-aligned rectangle (x0, x1) x (y0, y1)."""

    x0: float
    x1: float
    y0: float
    y1: float

    kind = "rect"

    def contains(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return (
            (p[..., 0] > self.x0)
            & (p[..., 0] < self.x1)
            & (p[..., 1] > self.y0)
            & (p[..., 1] < self.y1)
        )

    def dist_to_boundary(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.minimum.reduce(
            [
                p[..., 0] - self.x0,
                self.x1 - p[..., 0],
                p[..., 1] - self.y0,
                self.y1 - p[..., 1],
            ]
        )

    def perimeter(self) -> float:
        return 2.0 * ((self.x1 - self.x0) + (self.y1 - self.y0))

    def boundary_param(self, p) -> np.ndarray:
        """Arclength ccw from the midpoint of the right side, of the projections
        of the (m, 2) points p."""
        px, py = self.project_to_boundary(p).T
        w = self.x1 - self.x0
        hgt = self.y1 - self.y0
        yc = 0.5 * (self.y0 + self.y1)
        top = self.y1 - yc
        # segments: right side up, top leftward, left side down, bottom rightward,
        # and last the right side below the midpoint
        eps = 1e-12
        s = np.select(
            [(np.abs(px - self.x1) < eps) & (py >= yc), np.abs(py - self.y1) < eps,
             np.abs(px - self.x0) < eps, np.abs(py - self.y0) < eps],
            [py - yc, top + (self.x1 - px), top + w + (self.y1 - py),
             top + w + hgt + (px - self.x0)],
            top + 2 * w + hgt + (py - self.y0),
        )
        return s % self.perimeter()

    def project_to_boundary(self, p) -> np.ndarray:
        """Nearest boundary points of the (m, 2) points p."""
        q = np.clip(np.asarray(p, dtype=float), (self.x0, self.y0), (self.x1, self.y1))
        x, y = q.T
        # interior points: push to the nearest side
        inner = np.flatnonzero((self.x0 < x) & (x < self.x1) & (self.y0 < y) & (y < self.y1))
        dist = np.column_stack([x - self.x0, self.x1 - x, y - self.y0, self.y1 - y])[inner]
        side = dist.argmin(axis=1)
        q[inner, side // 2] = np.array([self.x0, self.x1, self.y0, self.y1])[side]
        return q

    def cut_fraction(self, p_inside, p_outside) -> np.ndarray:
        """Fractions t in [0, 1] where the segments p_inside -> p_outside, rows of
        two (m, 2) arrays, first leave the rectangle."""
        p = np.asarray(p_inside, dtype=float)
        d = np.asarray(p_outside, dtype=float) - p
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (np.where(d > 0, (self.x1, self.y1), (self.x0, self.y0)) - p) / d
        t = np.where((d != 0) & (t > 0), t, np.inf).min(axis=1)
        return np.clip(t, 0.0, 1.0)


# ---------------------------------------------------------------------------
# boundary trace


@dataclass(frozen=True)
class BoundaryTrace:
    """Ordered ghost-cell trace along the domain boundary.

    Cells are the masked-out grid cells 4-adjacent to interior cells, ordered
    counterclockwise by the arclength coordinate of their boundary projection,
    starting from the cell nearest parameter 0.  Weights approximate the true
    boundary arclength measure (half-distance to each neighbor along the
    boundary), so that sum(weights) equals the domain perimeter exactly.
    """

    ij: np.ndarray          # (m, 2) row, col indices into the grid
    params: np.ndarray      # (m,) arclength coordinates, increasing
    weights: np.ndarray     # (m,) arclength weights

    def __len__(self) -> int:
        return self.ij.shape[0]


def periodic_interp(x, xp: np.ndarray, fp: np.ndarray, period: float) -> np.ndarray:
    """Linear interpolation at x of the knots (xp, fp), xp increasing within
    one period, extended with the given period."""
    x = np.asarray(x, dtype=float) % period
    xp_ext = np.concatenate([xp, [xp[0] + period]])
    fp_ext = np.concatenate([fp, [fp[0]]])
    # shift queries below the first knot into the wrap-around segment
    return np.interp(np.where(x < xp[0], x + period, x), xp_ext, fp_ext)


# ---------------------------------------------------------------------------
# lake


@dataclass
class Lake:
    """Immutable discretized lake: grid, interior mask, depth, boundary trace.

    Attributes
    ----------
    h : grid spacing; cell_area = h^2
    mask : (ny, nx) bool, True on interior cells
    b : (ny, nx) depth sampled at cell centers (clamped >= 0 outside)
    index : (ny, nx) int, interior cell number or -1; cells go row by row
    centers : (n, 2) coordinates of interior cell centers
    b_int : (n,) depth on interior cells
    nu_weights, measure_nu : (n,) weighted measure b * h^2 per cell, read-only; its sum
    """

    preset_id: str
    domain: object
    h: float
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray
    b: np.ndarray
    index: np.ndarray
    centers: np.ndarray
    b_int: np.ndarray
    boundary: BoundaryTrace
    nu_weights: np.ndarray
    measure_nu: float

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    @property
    def n_cells(self) -> int:
        return self.b_int.shape[0]

    @cached_property
    def diameter(self) -> float:
        """Max pairwise distance between interior cell centers, computed on first use."""
        return max_pairwise_distance(self.centers)

    def field_to_grid(self, u: np.ndarray) -> np.ndarray:
        g = np.zeros(self.mask.shape)
        g[self.mask] = u
        return g


def _line_extremes(key: np.ndarray, value: np.ndarray) -> np.ndarray:
    """True where value is the least or greatest among the points of equal key."""
    _, group = np.unique(key, return_inverse=True)
    lo = np.full(group.max() + 1, np.inf)
    hi = -lo
    np.minimum.at(lo, group, value)
    np.maximum.at(hi, group, value)
    return (value == lo[group]) | (value == hi[group])


# pairs of points max_pairwise_distance compares at once: bounds its memory
# for any point set
_PAIR_BLOCK = 1 << 20


def max_pairwise_distance(points: np.ndarray) -> float:
    """Diameter of a finite point set.

    A point strictly between two others of its row (equal y) or its column
    (equal x) is no farther from any point q than the farther of those two,
    in rounded arithmetic too.  So only the points that are extremes of both
    their row and their column are compared, all pairs.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] <= 1:
        return 0.0
    x, y = points.T
    keep = _line_extremes(y, x) & _line_extremes(x, y)
    x, y = x[keep], y[keep]
    rows = max(1, _PAIR_BLOCK // x.size)
    d2 = max(((x[i:i + rows, None] - x) ** 2 + (y[i:i + rows, None] - y) ** 2).max()
             for i in range(0, x.size, rows))
    return float(np.sqrt(d2))


def _build_trace(domain, mask: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> BoundaryTrace:
    padded = np.pad(mask, 1, constant_values=False)
    neighbor_of_interior = (
        padded[2:, 1:-1] | padded[:-2, 1:-1] | padded[1:-1, 2:] | padded[1:-1, :-2]
    )
    ghost = neighbor_of_interior & ~mask
    rows, cols = np.nonzero(ghost)
    params = domain.boundary_param(np.column_stack([xs[cols], ys[rows]]))
    order = np.argsort(params, kind="stable")
    perim = domain.perimeter()
    # start from the cell whose parameter is nearest 0 (mod perimeter)
    p_sorted = params[order]
    start = int(np.argmin(np.minimum(p_sorted, perim - p_sorted)))
    order = np.roll(order, -start)

    rows, cols, params = rows[order], cols[order], params[order]
    gaps = np.diff(params, append=params[0] + perim) % perim
    gaps_prev = np.roll(gaps, 1)
    weights = 0.5 * (gaps + gaps_prev)
    return BoundaryTrace(
        ij=np.column_stack([rows, cols]),
        params=params,
        weights=weights,
    )


def _assemble_lake(preset: str, domain, xs: np.ndarray, ys: np.ndarray, h: float,
                   depth) -> Lake:
    """The lake of domain on the grid xs x ys, with depth(X, Y) clamped at 0."""
    X, Y = np.meshgrid(xs, ys)
    mask = domain.contains(np.stack([X, Y], axis=-1))
    if not mask.any():
        raise GeometryError("resolution too small: no interior cell")
    # each mask row is one run, and adjacent rows overlap: connected by construction
    b_grid = np.maximum(np.asarray(depth(X, Y), dtype=float), 0.0)
    rows, cols = np.nonzero(mask)
    index = -np.ones(mask.shape, dtype=np.int64)
    index[rows, cols] = np.arange(rows.size)
    centers = np.column_stack([xs[cols], ys[rows]])
    b_int = b_grid[rows, cols]
    if np.any(b_int <= 0.0):
        raise GeometryError("depth must be positive on interior cells")
    nu_weights = b_int * (h * h)
    nu_weights.flags.writeable = False
    measure_nu = float(nu_weights.sum())
    if measure_nu <= 0.0:
        raise GeometryError("weighted measure of the lake is not positive")
    return Lake(
        preset_id=preset,
        domain=domain,
        h=h,
        xs=xs,
        ys=ys,
        mask=mask,
        b=b_grid,
        index=index,
        centers=centers,
        b_int=b_int,
        boundary=_build_trace(domain, mask, xs, ys),
        nu_weights=nu_weights,
        measure_nu=measure_nu,
    )


def build_lake(preset: str, resolution: int) -> Lake:
    """Build a discretized lake for a named geometry/depth preset.

    resolution is the cell count per side of the bounding box; the grid
    spacing is side/resolution.  Requires 16 <= resolution and
    resolution^2 <= MAX_CELLS.
    """
    if preset not in PRESETS:
        raise GeometryError(
            f"unknown preset {preset!r}; available: {', '.join(PRESETS)}"
        )
    if resolution < 16:
        raise GeometryError(f"resolution must be >= 16, got {resolution}")
    if resolution * resolution > MAX_CELLS:
        raise GeometryError(
            f"resolution {resolution} exceeds the cell budget: "
            f"{resolution}^2 > {MAX_CELLS} cells"
        )
    domain = DiskDomain() if preset.startswith("disk") else RectDomain(-0.8, 0.8, -0.5, 0.5)
    h = 2.0 / resolution  # domain box [-1, 1]^2 for every preset
    # pad the grid two cells beyond the domain box so the ghost ring is on-grid
    xs = -1.0 + h * (np.arange(-2, resolution + 2) + 0.5)
    ys = xs.copy()
    return _assemble_lake(preset, domain, xs, ys, h, PRESETS[preset])


def rect_lake(nx: int, ny: int, h: float, depth=1.0, preset_id: str = "rect_custom") -> Lake:
    """Small rectangular lake with explicit cell counts, used for fixtures.

    Unlike build_lake this places exactly nx x ny interior cells and allows an
    arbitrary positive depth (a constant or a callable b(x, y)).
    """
    if nx < 1 or ny < 1:
        raise GeometryError("need at least one cell in each direction")
    domain = RectDomain(0.0, nx * h, 0.0, ny * h)
    xs = h * (np.arange(-1, nx + 1) + 0.5)
    ys = h * (np.arange(-1, ny + 1) + 0.5)
    b = depth if callable(depth) else lambda X, Y: np.full(X.shape, float(depth))
    return _assemble_lake(preset_id, domain, xs, ys, h, b)


# ---------------------------------------------------------------------------
# disk kernels


def green_disk(x, y) -> float:
    """Dirichlet Green function of -Laplace on the unit disk (method of images).

    G(x, y) = (1/2pi) ln(|x - y*| |y| / |x - y|) with y* = y/|y|^2.  G is symmetric,
    so for y within 1e-14 of the origin the image of x is taken instead, which gives
    G(x, 0) = (1/2pi) ln(1/|x|).  Both points must lie strictly inside.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = float(np.hypot(*x))
    ry = float(np.hypot(*y))
    if rx >= 1.0 or ry >= 1.0:
        raise GeometryError("both points must lie strictly inside the unit disk")
    d = float(np.hypot(*(x - y)))
    if d < 1e-14:
        raise GeometryError("Green function is singular at coincident points")
    if ry < 1e-14:
        x, y, ry = y, x, rx
    y_star = y / (ry * ry)
    num = float(np.hypot(*(x - y_star))) * ry
    return math.log(num / d) / TWO_PI


def green_disk_grid(x, points: np.ndarray) -> np.ndarray:
    """Vectorized green_disk(x, p) over rows p of points (x not in points)."""
    x = np.asarray(x, dtype=float)
    pts = np.asarray(points, dtype=float)
    d = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])
    ry = np.hypot(pts[:, 0], pts[:, 1])
    # rho^2 = |x - y|^2 + (1 - |x|^2)(1 - |y|^2) avoids the y -> 0 special case
    rho = np.sqrt(d * d + (1.0 - x @ x) * (1.0 - ry * ry))
    with np.errstate(divide="ignore"):
        g = np.log(rho / d) / TWO_PI
    return g


def h_kernel(lake: Lake, x, y) -> float:
    """Regular part of the inverse-operator kernel relative to the log kernel:
    H(x, y) = (1/2pi) ln(diam(D)/|x - y|) - G(x, y).  Disk lakes only."""
    if getattr(lake.domain, "kind", None) != "disk":
        raise GeometryError("analytic kernel is only available for disk lakes")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = float(np.hypot(*(x - y)))
    if d < 1e-14:
        raise GeometryError("kernel evaluation needs distinct points")
    return math.log(lake.diameter / d) / TWO_PI - green_disk(x, y)


def h_kernel_bounds(lake: Lake, x, y) -> tuple[float, float]:
    """Reference (upper, lower) envelopes for the regular kernel part H.

    The upper bound is asserted by the validation suite; the lower variant is
    recorded for diagnostics only, since its printed form mixes |x + y| with
    boundary distances and is not used as an invariant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = float(np.hypot(*(x - y)))
    dist_x = float(lake.domain.dist_to_boundary(x))
    dist_y = float(lake.domain.dist_to_boundary(y))
    upper = math.log(lake.diameter / max(d, dist_x, dist_y)) / TWO_PI
    denom = float(np.hypot(*(x + y))) + 2.0 * max(dist_x, dist_y)
    lower = math.log(lake.diameter / denom) / TWO_PI
    return upper, lower


# ---------------------------------------------------------------------------
# misc utilities


def disk_box_overlap(radius: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Area of the intersection of B_radius(0) with [x0,x1] x [y0,y1]."""

    def corner(w: float, hgt: float) -> float:
        # area of B_radius(0) cap [0, w] x [0, hgt] for w, hgt >= 0
        w = min(w, radius)
        hgt = min(hgt, radius)
        if w <= 0.0 or hgt <= 0.0:
            return 0.0

        def antider(t: float) -> float:
            t = min(max(t, -radius), radius)
            return 0.5 * (t * math.sqrt(max(radius * radius - t * t, 0.0))
                          + radius * radius * math.asin(t / radius))

        # integrate min(hgt, sqrt(R^2 - x^2)) over x in [0, w]
        x_cross = math.sqrt(max(radius * radius - hgt * hgt, 0.0))
        if w <= x_cross:
            return w * hgt
        return x_cross * hgt + (antider(w) - antider(x_cross))

    def signed(x: float, y: float) -> float:
        return math.copysign(1.0, x) * math.copysign(1.0, y) * corner(abs(x), abs(y))

    return signed(x1, y1) - signed(x0, y1) - signed(x1, y0) + signed(x0, y0)


def disk_indicator_averaged(lake: Lake, center, radius: float) -> np.ndarray:
    """Cell-averaged indicator of B_radius(center) on the interior cells."""
    h = lake.h
    vals = np.empty(lake.n_cells)
    for k, (cx, cy) in enumerate(lake.centers):
        x0, y0 = cx - center[0] - h / 2, cy - center[1] - h / 2
        vals[k] = disk_box_overlap(radius, x0, x0 + h, y0, y0 + h) / (h * h)
    return vals
