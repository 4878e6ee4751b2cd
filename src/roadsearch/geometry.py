"""Planar geometry kernel: Bezier curves, discrete Frechet distance,
arc lengths and curvature-radius estimation.

Points are float arrays of shape (2,), polylines arrays of shape (n, 2),
all in meters. Every function is pure: no hidden state, safe to call
concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "MAP_SIZE",
    "ControlPointSet",
    "sample_bezier",
    "frechet_pairs",
    "min_curvature_radius",
    "polyline_lengths",
]

# side in meters of the square map every road lies on
MAP_SIZE = 200.0


@dataclass
class ControlPointSet:
    """Ordered 2-D control points confined to the square map.

    The genotype of the search: the curve built from these points is the
    road centerline. Points must stay inside ``[0, MAP_SIZE]^2``.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("control points must be an (n, 2) array")
        if pts.shape[0] < 2:
            raise ValueError("need at least 2 control points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control points must be finite")
        if pts.min() < 0.0 or pts.max() > MAP_SIZE:
            raise ValueError("control points must lie inside the map")
        self.points = pts


def _as_polyline(p, min_points=1) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < min_points:
        raise ValueError(f"expected an (n>={min_points}, 2) polyline")
    return arr


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


# pairs per anti-diagonal sweep: bounds the working set (about 3 MB for
# curves of 100 points) however many pairs a caller passes
FRECHET_CHUNK = 128
# anti-diagonals whose point distances one numpy call computes
_DIAGONALS_PER_BLOCK = 8


def _as_curves(curves) -> list:
    # one polyline -> [it]; a sequence or (B, n, 2) stack of them -> a list
    if (isinstance(curves, np.ndarray) and curves.ndim < 3) or (
            len(curves) and np.ndim(curves[0]) == 1):
        return [_as_polyline(curves)]
    return [_as_polyline(c) for c in curves]


def _stack(polys: list) -> np.ndarray:
    # (b, n, 2) with shorter curves padded by repeating their last point:
    # coupling the copies with the other curve's last point adds only a
    # distance every coupling holds, so no Frechet distance changes
    stack = np.empty((len(polys), max(len(c) for c in polys), 2))
    for b, c in enumerate(polys):
        stack[b, :len(c)] = c
        stack[b, len(c):] = c[-1]
    return stack


def _frechet_sweep(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    batch, n, m = max(len(p), len(q)), p.shape[1], q.shape[1]
    pxy = np.ascontiguousarray(p.transpose(0, 2, 1))[:, :, None, :]  # (b, 2, 1, n)
    # q reversed and padded so that window s holds q[m+n-2-s-i] at row i:
    # diagonal k (cells (i, k-i)) is window m+n-2-k, a strided view
    qpad = np.zeros((len(q), 2, m + 2 * (n - 1)))
    qpad[:, :, n - 1:n - 1 + m] = q[:, ::-1].transpose(0, 2, 1)
    windows = sliding_window_view(qpad, n, axis=-1)
    # rows for diagonals k-2, k-1 and k; entry i+1 holds cell (i, k-i)
    older, prev, cur = (np.full((batch, n + 1), np.inf) for _ in range(3))
    block = np.empty((batch, 2, _DIAGONALS_PER_BLOCK, n))
    diagonals = n + m - 1
    for k0 in range(0, diagonals, _DIAGONALS_PER_BLOCK):
        count = min(_DIAGONALS_PER_BLOCK, diagonals - k0)
        # squared distances of this block's cells, rows [top, bottom)
        top, bottom = max(0, k0 - m + 1), min(k0 + count - 1, n - 1) + 1
        s0 = m + n - 2 - k0
        d = block[:, :, :count, :bottom - top]
        np.subtract(pxy[..., top:bottom],
                    windows[:, :, s0 - count + 1:s0 + 1, top:bottom][:, :, ::-1], out=d)
        np.multiply(d, d, out=d)
        sq = np.add(d[:, 0], d[:, 1], out=d[:, 0])
        for k in range(k0, k0 + count):
            lo, hi = max(0, k - m + 1), min(k, n - 1) + 1  # rows i in [lo, hi)
            dist, best = sq[:, k - k0, lo - top:hi - top], cur[:, lo + 1:hi + 1]
            if k == 0:  # every coupling starts at (0, 0)
                best[...] = dist
            else:
                np.minimum(prev[:, lo:hi], prev[:, lo + 1:hi + 1], out=best)
                np.minimum(best, older[:, lo:hi], out=best)
                np.maximum(best, dist, out=best)
            older, prev, cur = prev, cur, older
    return np.sqrt(prev[:, n])


def frechet_pairs(ps, qs) -> np.ndarray:
    """Discrete Frechet distances of B pairs of polylines, shape (B,).

    ``ps`` and ``qs`` are each one polyline or a sequence (or a
    ``(B, n, 2)`` stack) of them; one polyline is paired with every curve
    on the other side. The standard dynamic program over each |p| x |q|
    coupling table (Eiter & Mannila 1994) runs on a stack of tables at
    once, one anti-diagonal at a time: cell (i, j) needs only diagonals
    i+j-1 and i+j-2, so three rolling rows padded with +inf hold the state.
    Point distances are computed eight diagonals at a time from a strided
    view of the reversed q, and no |p| x |q| table is built. Every cell is a min or max of earlier
    cells, so each result is exactly one paired distance. The sweep runs
    on squared distances and takes the square root at the end, which
    gives the same value as ``sqrt(dx*dx + dy*dy)`` per cell because the
    square root is monotone.
    """
    p, q = _as_curves(ps), _as_curves(qs)
    if len(p) != len(q) and 1 not in (len(p), len(q)):
        raise ValueError(f"cannot pair {len(p)} curves with {len(q)}")
    batch = len(q) if len(p) == 1 else len(p)
    out = np.empty(batch)
    for s in range(0, batch, FRECHET_CHUNK):
        part = slice(s, s + FRECHET_CHUNK)
        out[part] = _frechet_sweep(_stack(p if len(p) == 1 else p[part]),
                                   _stack(q if len(q) == 1 else q[part]))
    return out


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
