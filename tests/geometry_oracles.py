"""Reference geometry that only the tests use: single-point Bezier
evaluation, the discrete Frechet distance by a plain dynamic program and
by exhaustive enumeration, a population's average pairwise Frechet
distance, all-pairs segment distances with polyline self-intersection and
the road's fold-back rule, shoelace area and convex clipping.

They are kept as independent oracles next to the library's own routines
(the sampled Bezier curve, the batched Frechet kernel, the novelty
filter's incremental average, the road validator's fold-back check, the
simulator's lane-strip clipper), not as part of the library.
"""
import numpy as np

from roadsearch.geometry import ControlPointSet, polyline_lengths

BRUTEFORCE_CELL_LIMIT = 64


def bezier_point(cps: ControlPointSet, t: float) -> np.ndarray:
    """Evaluate the degree-(n-1) Bezier curve at parameter ``t`` by the
    de Casteljau recurrence.

    >>> bezier_point(ControlPointSet([[0, 0], [2, 2], [4, 0]]), 0.5)
    array([2., 1.])
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    b = cps.points.astype(float, copy=True)
    while len(b) > 1:
        b = (1.0 - t) * b[:-1] + t * b[1:]
    return b[0]


def _distance_table(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != 2 or q.shape[1] != 2 \
            or len(p) == 0 or len(q) == 0:
        raise ValueError("expected two (n>=1, 2) polylines")
    return np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)


def discrete_frechet_reference(p, q) -> float:
    """Discrete Frechet distance by the row-by-row dynamic program over
    the full |p| x |q| table of ``np.linalg.norm`` distances, on plain
    Python floats (Eiter & Mannila 1994)."""
    rows = _distance_table(p, q).tolist()
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


def population_avg_frechet(curves) -> float | None:
    """Mean Frechet distance over every pair of the given centerlines, by
    the reference dynamic program; None ("n/a") with fewer than two."""
    n = len(curves)
    if n < 2:
        return None
    rows, cols = np.triu_indices(n, k=1)
    return float(np.mean([discrete_frechet_reference(curves[i], curves[j])
                          for i, j in zip(rows, cols)]))


def frechet_bruteforce(p, q) -> float:
    """Discrete Frechet distance by enumerating every monotone coupling
    of the two point sequences: the min over couplings of the max paired
    distance. Exponential: refuses inputs with |p|*|q| > 64 cells."""
    d = _distance_table(p, q)
    if d.size > BRUTEFORCE_CELL_LIMIT:
        raise ValueError("input too large for exhaustive enumeration")
    d = d.tolist()
    last_i, last_j = len(d) - 1, len(d[0]) - 1
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
    properly crossing pairs get exactly 0. The road validator's fold-back
    check computes these entries for its candidate pairs only.
    """
    p = np.asarray(p, dtype=float)
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


def fold_hits(center, buffer: float, exempt_arc: float) -> np.ndarray:
    """The road validator's fold-back rule over every segment pair, as a
    boolean matrix: entry (i, j) is set when segments i and j >= i + 2
    cross or touch (distance 0), or come within ``buffer`` of each other
    more than ``exempt_arc`` apart along the curve. The road folds back
    when any entry is set."""
    center = np.asarray(center, dtype=float)
    dist = segment_self_distances(center)
    cum = polyline_lengths(center)
    gap = cum[:-1][None, :] - cum[1:][:, None]
    m = len(center) - 1
    nonadjacent = np.arange(m)[None, :] - np.arange(m)[:, None] >= 2
    return nonadjacent & (((gap > exempt_arc) & (dist < buffer)) | (dist == 0.0))


def self_intersects(p, buffer: float) -> bool:
    """True iff two non-adjacent segments of ``p`` cross or come within
    ``buffer`` of each other. Adjacent segments (sharing an endpoint) are
    exempt.
    """
    if buffer < 0:
        raise ValueError("buffer must be >= 0")
    p = np.asarray(p, dtype=float)
    m = len(p) - 1
    if m < 3:
        return False
    dist = segment_self_distances(p)
    nonadjacent = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :]) >= 2
    hits = nonadjacent & ((dist < buffer) | (dist == 0.0))
    return bool(hits.any())


def polygon_area(poly) -> float:
    """Unsigned shoelace area of a polygon given as vertex list/array."""
    if len(poly) < 3:
        return 0.0
    arr = np.asarray(poly, dtype=float)
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def convex_clip_area(subject, clipper) -> float:
    """Area of ``subject`` polygon clipped to a convex ``clipper`` polygon.

    Sutherland-Hodgman against each clipper edge; the clipper must be
    convex (any vertex order), the subject simple.
    """
    clip = [tuple(v) for v in np.asarray(clipper, dtype=float)]
    if polygon_area(clip) == 0.0:
        return 0.0
    # orient the clipper counter-clockwise so "inside" is left of each edge
    arr = np.asarray(clip)
    signed = 0.5 * float(
        np.dot(arr[:, 0], np.roll(arr[:, 1], -1)) - np.dot(arr[:, 1], np.roll(arr[:, 0], -1))
    )
    if signed < 0:
        clip = clip[::-1]
    poly = [tuple(v) for v in np.asarray(subject, dtype=float)]
    nclip = len(clip)
    for e in range(nclip):
        if len(poly) < 3:
            return 0.0
        ex, ey = clip[e]
        nx = -(clip[(e + 1) % nclip][1] - ey)
        ny = clip[(e + 1) % nclip][0] - ex
        out = []
        px, py = poly[-1]
        dprev = (px - ex) * nx + (py - ey) * ny
        for cx, cy in poly:
            d = (cx - ex) * nx + (cy - ey) * ny
            if (d >= 0.0) != (dprev >= 0.0):
                t = dprev / (dprev - d)
                out.append((px + t * (cx - px), py + t * (cy - py)))
            if d >= 0.0:
                out.append((cx, cy))
            px, py, dprev = cx, cy, d
        poly = out
    return polygon_area(poly)
