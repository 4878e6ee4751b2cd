"""Reference geometry that only the tests use: single-point Bezier
evaluation, the discrete Frechet distance by a plain dynamic program and
by exhaustive enumeration, a population's average pairwise Frechet
distance, polyline self-intersection, shoelace area and convex clipping.

They are kept as independent oracles next to the library's own routines
(the sampled Bezier curve, the batched Frechet kernel, the novelty
filter's incremental average, the road validator's fold-back check, the
simulator's lane-strip clipper), not as part of the library.
"""
import numpy as np

from roadsearch.geometry import ControlPointSet, segment_self_distances

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
