"""Road construction and pre-execution validity checking.

A :class:`ControlPointSet` (genotype) becomes a :class:`RoadSpec`
(phenotype): an arc-length-resampled centerline with left/right lane
boundaries at +-LANE_WIDTH. The road is two lanes wide; the vehicle keeps
the right lane. ``validate`` decides whether the road is drivable at all
before any simulation is spent on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    MAP_SIZE,
    ControlPointSet,
    min_curvature_radius,
    polyline_lengths,
    sample_bezier,
)

__all__ = [
    "LANE_WIDTH",
    "NUM_SAMPLES",
    "MIN_RADIUS",
    "OVERLAP_BUFFER",
    "PARAMS",
    "RoadSpec",
    "ValidityReport",
    "build_road",
    "validate",
    "road_to_dict",
    "road_from_dict",
    "OUT_OF_MAP",
    "OVERLAP",
    "TOO_SHARP",
    "TOO_SHORT",
]

OUT_OF_MAP = "OUT_OF_MAP"
OVERLAP = "OVERLAP"
TOO_SHARP = "TOO_SHARP"
TOO_SHORT = "TOO_SHORT"

# the geometry every road is built and judged with: lane width in meters,
# centerline points, the sharpest curve the vehicle is assumed to manage,
# and the distance under which a fold counts as overlap, one full road
# width so nearly-touching folds are rejected, not just exact crossings
LANE_WIDTH = 4.0
NUM_SAMPLES = 100
MIN_RADIUS = 7.0
OVERLAP_BUFFER = 2.0 * LANE_WIDTH

# the geometry under the names that a protocol road line's "params" gives
# it, in the order it always has
PARAMS = {"lane_width": LANE_WIDTH, "num_samples": NUM_SAMPLES, "min_radius": MIN_RADIUS,
          "map_size": MAP_SIZE, "overlap_buffer": OVERLAP_BUFFER}


@dataclass
class RoadSpec:
    """Executable road: centerline plus lane boundaries, equal point counts."""

    centerline: np.ndarray
    left_boundary: np.ndarray
    right_boundary: np.ndarray

    def length(self) -> float:
        return float(polyline_lengths(self.centerline)[-1])


@dataclass
class ValidityReport:
    valid: bool
    violations: list = field(default_factory=list)

    def kinds(self):
        return [v["kind"] for v in self.violations]


def _resample_uniform(p: np.ndarray, num_samples: int) -> np.ndarray:
    cum = polyline_lengths(p)
    total = cum[-1]
    if total == 0.0:
        return p[:2].copy()
    s = np.linspace(0.0, total, num_samples)
    x = np.interp(s, cum, p[:, 0])
    y = np.interp(s, cum, p[:, 1])
    return np.column_stack([x, y])


def _unit_left_normals(p: np.ndarray) -> np.ndarray:
    # tangent at a vertex = mean of the adjacent segment directions
    seg = np.diff(p, axis=0)
    norms = np.linalg.norm(seg, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    d = seg / norms
    tang = np.empty_like(p)
    tang[0] = d[0]
    tang[-1] = d[-1]
    tang[1:-1] = d[:-1] + d[1:]
    tn = np.linalg.norm(tang, axis=1, keepdims=True)
    degenerate = tn[:, 0] == 0.0
    if degenerate.any():  # 180-degree reversal; fall back to incoming direction
        tang[1:-1][degenerate[1:-1]] = d[:-1][degenerate[1:-1]]
        tn = np.linalg.norm(tang, axis=1, keepdims=True)
        tn[tn == 0.0] = 1.0
    tang /= tn
    return np.column_stack([-tang[:, 1], tang[:, 0]])


def build_road(cps: ControlPointSet) -> RoadSpec:
    """Build the road for a control-point set.

    The centerline is the Bezier curve sampled uniformly in parameter and
    then resampled to approximately uniform arc-length spacing; boundaries
    sit at +-LANE_WIDTH along the per-point normals. Degenerate curves
    still produce a RoadSpec; ``validate`` reports them as TOO_SHORT.
    """
    raw = sample_bezier(cps, NUM_SAMPLES)
    if len(raw) < 2:  # all control points coincide
        raw = np.vstack([cps.points[0], cps.points[-1] + [1e-9, 0.0]])
    center = _resample_uniform(raw, NUM_SAMPLES)
    normals = _unit_left_normals(center)
    left = center + LANE_WIDTH * normals
    right = center - LANE_WIDTH * normals
    return RoadSpec(center, left, right)


# arc separation (in lane widths) under which centerline proximity is the
# road simply continuing, not a fold; local sharpness is TOO_SHARP's job
FOLD_EXEMPT_LANE_WIDTHS = 4.0
# slack in meters on the bounding-box bound, far above the rounding of a
# box gap or a distance on this map: a float projection can land an ulp
# outside a segment's box and still give distance 0
BOX_MARGIN = 1e-6


def _near_pairs(center: np.ndarray, buffer: float, exempt_arc: float):
    """The segment pairs (i, j >= i + 2) that may fold, as arrays
    ``(i, j, gap, dist)``: the arc gap from the end of segment i to the
    start of j, and the exact distance between them, 0 if they cross.

    Broad phase: the gap between two segments' bounding boxes on their
    wider-apart axis is a lower bound on their distance, so only pairs
    whose boxes come within ``buffer`` beyond ``exempt_arc``, or touch,
    can hit (Ericson, Real-Time Collision Detection, 2004, ch. 7). Narrow
    phase: each kept pair's distance takes the same float operations as
    an all-pairs distance matrix, so it is that matrix's entry bit for bit.
    """
    a, b = center[:-1], center[1:]
    lo, hi = np.minimum(a, b).T, np.maximum(a, b).T
    box = np.maximum(lo[0][None, :] - hi[0][:, None], lo[0][:, None] - hi[0][None, :])
    np.maximum(box, lo[1][None, :] - hi[1][:, None], out=box)
    np.maximum(box, lo[1][:, None] - hi[1][None, :], out=box)
    cum = polyline_lengths(center)
    gap = cum[:-1][None, :] - cum[1:][:, None]
    maybe = ((box < buffer + BOX_MARGIN) & (gap > exempt_arc)) | (box <= BOX_MARGIN)
    i, j = divmod(np.flatnonzero(maybe), len(maybe))
    i, j = i[j >= i + 2], j[j >= i + 2]
    # point p[k] against segment s[k] -> e[k]: each end of segment i
    # against segment j, then each end of j against i
    seg = np.concatenate([j, j, i, i])
    p, s, e = center[np.concatenate([i, i + 1, j, j + 1])], center[seg], center[seg + 1]
    se, ps = e - s, p - s
    denom = np.einsum("ij,ij->i", se, se)
    t = np.clip(np.einsum("ij,ij->i", ps, se) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    d = np.linalg.norm(p - (s + t[:, None] * se), axis=1).reshape(4, -1)
    dist = np.minimum(np.minimum(d[0], d[1]), np.minimum(d[2], d[3]))
    # a proper crossing: each segment's endpoints lie strictly either side of the other's line
    side = (se[:, 0] * ps[:, 1] - se[:, 1] * ps[:, 0]).reshape(4, -1)
    dist[(side[0] * side[1] < 0) & (side[2] * side[3] < 0)] = 0.0
    return i, j, gap[i, j], dist


def _folds_back(center: np.ndarray, buffer: float, exempt_arc: float) -> bool:
    """Does the centerline come within ``buffer`` of itself between points
    more than ``exempt_arc`` apart along the curve?

    Unlike raw segment adjacency, the exemption is by arc separation:
    with densely sampled centerlines every segment is trivially near its
    neighbours, and only far-apart proximity means overlapping asphalt.
    Crossings (distance exactly 0) always count.
    """
    _, _, gap, dist = _near_pairs(center, buffer, exempt_arc)
    return bool((((gap > exempt_arc) & (dist < buffer)) | (dist == 0.0)).any())


def validate(road: RoadSpec) -> ValidityReport:
    """Pre-execution validity check; invalid roads are never simulated."""
    violations = []
    center = road.centerline
    if _folds_back(center, OVERLAP_BUFFER, FOLD_EXEMPT_LANE_WIDTHS * LANE_WIDTH):
        violations.append({
            "kind": OVERLAP,
            "detail": f"centerline folds back on itself within {OVERLAP_BUFFER:g} m",
        })
    if len(center) >= 3:
        radius = min_curvature_radius(center)
        if radius < MIN_RADIUS:
            violations.append({
                "kind": TOO_SHARP,
                "detail": f"min circumradius {radius:.2f} m < {MIN_RADIUS:g} m",
            })
    for name, boundary in (("left", road.left_boundary), ("right", road.right_boundary)):
        if boundary.min() < 0.0 or boundary.max() > MAP_SIZE:
            violations.append({
                "kind": OUT_OF_MAP,
                "detail": f"{name} boundary leaves the {MAP_SIZE:g} m map",
            })
    length = road.length()
    if length < 4.0 * LANE_WIDTH:
        violations.append({
            "kind": TOO_SHORT,
            "detail": f"arc length {length:.2f} m < {4.0 * LANE_WIDTH:g} m",
        })
    return ValidityReport(valid=not violations, violations=violations)


def road_to_dict(road: RoadSpec) -> dict:
    """JSON-ready form; also the payload of the external-SUT protocol."""
    return {
        "centerline": road.centerline.tolist(),
        "left_boundary": road.left_boundary.tolist(),
        "right_boundary": road.right_boundary.tolist(),
        "params": dict(PARAMS),
    }


def road_from_dict(data: dict) -> RoadSpec:
    """Inverse of :func:`road_to_dict`. Raises ValueError unless ``params``
    holds this version's geometry and the three point arrays are finite
    and share one (n >= 2, 2) shape."""
    if data["params"] != PARAMS:
        raise ValueError(f"road params {data['params']!r} are not {PARAMS!r}")
    arrays = [np.asarray(data[key], dtype=float)
              for key in ("centerline", "left_boundary", "right_boundary")]
    shape = arrays[0].shape
    if (len(shape) != 2 or shape[0] < 2 or shape[1] != 2
            or any(a.shape != shape for a in arrays) or not np.isfinite(arrays).all()):
        raise ValueError("road point arrays must be finite and share one (n >= 2, 2) shape")
    return RoadSpec(*arrays)
