"""Planar geometry kernel: Bezier curves, discrete Frechet distance,
segment-to-segment distances and curvature-radius estimation.

Points are float arrays of shape (2,), polylines arrays of shape (n, 2),
all in meters. Every function is pure: no hidden state, safe to call
concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ControlPointSet",
    "bezier_point",
    "sample_bezier",
    "discrete_frechet",
    "frechet_bruteforce",
    "segment_self_distances",
    "min_curvature_radius",
    "polyline_lengths",
]

BRUTEFORCE_CELL_LIMIT = 64


@dataclass
class ControlPointSet:
    """Ordered 2-D control points confined to a square map.

    The genotype of the search: the curve built from these points is the
    road centerline. Points must stay inside ``[0, map_size]^2``.
    """

    points: np.ndarray
    map_size: float = 200.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("control points must be an (n, 2) array")
        if pts.shape[0] < 2:
            raise ValueError("need at least 2 control points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control points must be finite")
        if self.map_size <= 0:
            raise ValueError("map_size must be positive")
        if pts.min() < 0.0 or pts.max() > self.map_size:
            raise ValueError("control points must lie inside the map")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def copy(self) -> "ControlPointSet":
        return ControlPointSet(self.points.copy(), self.map_size)


def _as_polyline(p, min_points=1) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < min_points:
        raise ValueError(f"expected an (n>={min_points}, 2) polyline")
    return arr


def bezier_point(cps: ControlPointSet, t: float) -> np.ndarray:
    """Evaluate the degree-(n-1) Bezier curve at parameter ``t``.

    Uses the de Casteljau recurrence, so the result is numerically stable
    and always inside the convex hull of the control points.

    >>> bezier_point(ControlPointSet([[0, 0], [2, 2], [4, 0]], 10.0), 0.5)
    array([2., 1.])
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    b = cps.points.astype(float, copy=True)
    while len(b) > 1:
        b = (1.0 - t) * b[:-1] + t * b[1:]
    return b[0]


def sample_bezier(cps: ControlPointSet, num_samples: int) -> np.ndarray:
    """Sample the Bezier curve at uniform parameter values.

    Returns the curve points at t = i/(num_samples-1), with exactly
    coincident consecutive samples collapsed. First and last samples are
    the first and last control points.
    """
    if num_samples < 2:
        raise ValueError("num_samples must be >= 2")
    w = np.linspace(0.0, 1.0, num_samples)[:, None, None]
    b = np.broadcast_to(cps.points, (num_samples,) + cps.points.shape).copy()
    while b.shape[1] > 1:
        b = (1.0 - w) * b[:, :-1] + w * b[:, 1:]
    pts = b[:, 0, :]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    return pts[keep]


def polyline_lengths(p) -> np.ndarray:
    """Cumulative arc length at every vertex (first entry is 0)."""
    p = _as_polyline(p, 2)
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _frechet_table_py(d) -> float:
    # same recurrence as the numba kernel, on plain lists
    rows = d.tolist()
    n = len(rows[0])
    prev = rows[0]
    for j in range(1, n):
        prev[j] = prev[j] if prev[j] > prev[j - 1] else prev[j - 1]
    for row in rows[1:]:
        row[0] = row[0] if row[0] > prev[0] else prev[0]
        for j in range(1, n):
            best = prev[j]
            if prev[j - 1] < best:
                best = prev[j - 1]
            if row[j - 1] < best:
                best = row[j - 1]
            if best > row[j]:
                row[j] = best
        prev = row
    return float(prev[-1])


try:  # pairwise reports over many failures need the fast path
    from numba import njit as _njit

    @_njit(cache=True)
    def _frechet_table_nb(d):  # pragma: no cover - exercised via discrete_frechet
        m, n = d.shape
        for j in range(1, n):
            if d[0, j] < d[0, j - 1]:
                d[0, j] = d[0, j - 1]
        for i in range(1, m):
            if d[i, 0] < d[i - 1, 0]:
                d[i, 0] = d[i - 1, 0]
            for j in range(1, n):
                best = d[i - 1, j]
                if d[i - 1, j - 1] < best:
                    best = d[i - 1, j - 1]
                if d[i, j - 1] < best:
                    best = d[i, j - 1]
                if best > d[i, j]:
                    d[i, j] = best
        return d[m - 1, n - 1]
except ImportError:  # pragma: no cover
    _frechet_table_nb = None


def discrete_frechet(p, q) -> float:
    """Discrete Frechet distance between two polylines.

    Standard dynamic program over the |p| x |q| coupling table: the
    minimum over monotone couplings of the maximum paired point distance.
    Symmetric in its arguments.
    """
    p = _as_polyline(p)
    q = _as_polyline(q)
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    if _frechet_table_nb is not None:
        return float(_frechet_table_nb(d))
    return _frechet_table_py(d)


def frechet_bruteforce(p, q) -> float:
    """Independent oracle for :func:`discrete_frechet`.

    Exhaustively enumerates every monotone coupling of the two point
    sequences and takes the min over couplings of the max paired
    distance. Exponential: refuses inputs with |p|*|q| > 64 cells.
    """
    p = _as_polyline(p)
    q = _as_polyline(q)
    if len(p) * len(q) > BRUTEFORCE_CELL_LIMIT:
        raise ValueError("input too large for exhaustive enumeration")
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2).tolist()
    last_i, last_j = len(p) - 1, len(q) - 1
    best = [float("inf")]

    def walk(i, j, cur):
        if d[i][j] > cur:
            cur = d[i][j]
        if i == last_i and j == last_j:
            if cur < best[0]:
                best[0] = cur
            return
        if i < last_i:
            walk(i + 1, j, cur)
        if j < last_j:
            walk(i, j + 1, cur)
        if i < last_i and j < last_j:
            walk(i + 1, j + 1, cur)

    walk(0, 0, 0.0)
    return best[0]


def _point_segment_dist(points, a, b):
    # all-pairs distance from points (m,2) to segments a->b (k,2)
    ab = b - a  # (k,2)
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom == 0.0, 1.0, denom)
    ap = points[:, None, :] - a[None, :, :]  # (m,k,2)
    t = np.clip(np.einsum("mkj,kj->mk", ap, ab) / denom, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.linalg.norm(points[:, None, :] - proj, axis=2)


def segment_self_distances(p) -> np.ndarray:
    """All-pairs distance matrix between the segments of a polyline.

    Entry (i, j) is the minimum distance between segment i and segment j;
    properly crossing pairs get exactly 0. Used by the road validator's
    fold-back check.
    """
    p = _as_polyline(p, 2)
    a, b = p[:-1], p[1:]

    # proper crossings via orientation signs
    ab = b - a
    diff_aa = a[:, None, :] - a[None, :, :]  # a_i - a_j
    diff_ba = b[:, None, :] - a[None, :, :]  # b_i - a_j
    cross_j_ai = ab[None, :, 0] * diff_aa[:, :, 1] - ab[None, :, 1] * diff_aa[:, :, 0]
    cross_j_bi = ab[None, :, 0] * diff_ba[:, :, 1] - ab[None, :, 1] * diff_ba[:, :, 0]
    # segment j straddled by segment i's endpoints and vice versa
    straddle_i = cross_j_ai * cross_j_bi < 0
    crossing = straddle_i & straddle_i.T

    # endpoint-to-segment distances cover touching and near misses
    d_as = _point_segment_dist(a, a, b)  # d(a_i, seg_j)
    d_bs = _point_segment_dist(b, a, b)
    dist = np.minimum(np.minimum(d_as, d_bs), np.minimum(d_as.T, d_bs.T))
    dist[crossing] = 0.0
    return dist


def min_curvature_radius(p) -> float:
    """Minimum circumradius over all consecutive point triples.

    Collinear triples contribute +inf; a perfectly straight polyline
    therefore returns +inf.
    """
    p = _as_polyline(p)
    if len(p) < 3:
        raise ValueError("need at least 3 points")
    a, b, c = p[:-2], p[1:-1], p[2:]
    ab = np.linalg.norm(b - a, axis=1)
    bc = np.linalg.norm(c - b, axis=1)
    ca = np.linalg.norm(a - c, axis=1)
    u, v = b - a, c - a
    cross = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    with np.errstate(divide="ignore"):
        radii = np.where(cross > 0.0, ab * bc * ca / (2.0 * cross), np.inf)
    return float(radii.min())
