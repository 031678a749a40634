"""Frozen reference: the point-set diameter through Qhull's convex hull, which
``geometry.max_pairwise_distance`` replaced with numpy so that the package no
longer imports ``scipy.spatial``.  Kept verbatim for the differential tests of
the two.  Test-only code.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, QhullError


def max_pairwise_distance(points: np.ndarray) -> float:
    """Diameter of a finite point set; hull-accelerated, robust to collinearity."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] <= 1:
        return 0.0
    hull_pts = points
    if points.shape[0] > 16:
        try:
            hull_pts = points[ConvexHull(points).vertices]
        except QhullError:
            # degenerate (collinear) input; exact via principal-axis extremes
            centered = points - points.mean(axis=0)
            axis = np.linalg.svd(centered, full_matrices=False)[2][0]
            proj = centered @ axis
            hull_pts = points[[int(np.argmin(proj)), int(np.argmax(proj))]]
    d2 = np.sum((hull_pts[:, None, :] - hull_pts[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))
