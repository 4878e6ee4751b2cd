"""Reference geometry that only the tests use: polyline
self-intersection, shoelace area and convex clipping.

They are kept as independent oracles next to the library's own routines
(the road validator's fold-back check, the simulator's lane-strip
clipper), not as part of the library.
"""
import numpy as np

from roadsearch.geometry import segment_self_distances


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
