"""Built-in deterministic system under test.

A kinematic-bicycle vehicle with a pure-pursuit lane-keeping controller
drives the right lane of a road. The oracle monitors, at every step, the
percentage of the vehicle's bounding-box area outside the right lane
(covering both "crossed the center line" and "left the road"); a test
fails when that percentage ever exceeds 95.

Everything here is a pure function of its inputs: fixed-step Euler
integration, no randomness, so repeated runs are bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import polyline_lengths
from .road import RoadSpec

__all__ = [
    "PASS",
    "FAIL",
    "INVALID",
    "OOB_FAIL_THRESHOLD",
    "DT",
    "MAX_TIME",
    "WHEELBASE",
    "WIDTH",
    "LENGTH",
    "MAX_STEER",
    "LOOKAHEAD",
    "STEER_RATE",
    "VehicleParams",
    "VehicleState",
    "TestResult",
    "step",
    "pure_pursuit",
    "oob_percent",
    "run_test",
    "invalid_result",
]

PASS = "PASS"
FAIL = "FAIL"
INVALID = "INVALID"

OOB_FAIL_THRESHOLD = 95.0
# the Euler step and the time cap of every drive, in seconds
DT = 0.05
MAX_TIME = 120.0

# the vehicle: body and axle geometry in meters, steering limit in
# radians, pure-pursuit lookahead in meters of arc, and the rate in rad/s
# at which the road wheels can slew. The slew limit is what makes high
# speed on sharply curving roads genuinely dangerous: the time to swing
# the steering across an S-transition is fixed, so the distance covered
# while under-steered grows with speed.
WHEELBASE = 2.5
WIDTH = 1.8
LENGTH = 4.3
MAX_STEER = 0.6
LOOKAHEAD = 8.0
STEER_RATE = 0.5

# meters by which the in-lane test widens the footprint and narrows the
# quads; far above the rounding error of coordinates on a 200 m map
CONTAINMENT_MARGIN = 1e-6


@dataclass
class VehicleParams:
    """The vehicle's one setting: its constant speed in m/s."""

    speed: float = 12.0

    def __post_init__(self):
        if isinstance(self.speed, bool) or not (math.isfinite(self.speed) and self.speed > 0):
            raise ValueError("speed must be positive and finite")


@dataclass
class VehicleState:
    """Rear-axle midpoint pose; heading normalized to (-pi, pi]."""

    position: np.ndarray
    heading: float
    steer: float = 0.0
    time: float = 0.0


@dataclass
class TestResult:
    __test__ = False  # not a pytest class

    verdict: str
    trajectory: list = field(default_factory=list)
    # oob_trace[i] is the out-of-bounds percentage at trajectory[i]
    oob_trace: list = field(default_factory=list)
    max_oob: float = 0.0
    error: str | None = None


def invalid_result(error: str | None = None) -> TestResult:
    return TestResult(verdict=INVALID, max_oob=0.0, error=error)


def _wrap_angle(a: float) -> float:
    # (-pi, pi]
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def step(state: VehicleState, steer_cmd: float, params: VehicleParams) -> VehicleState:
    """One Euler step of ``DT`` seconds of the kinematic bicycle model.

    The steer command is clamped to +-MAX_STEER and the applied steer can
    move at most STEER_RATE*DT per step from its previous value; the
    position advances by exactly speed*DT along the current heading, and
    the heading turns by (speed*DT / WHEELBASE) * tan(steer).
    """
    x, y = state.position.tolist()
    if not (math.isfinite(steer_cmd) and math.isfinite(state.heading)
            and math.isfinite(x) and math.isfinite(y)):
        raise ValueError("non-finite state or steer command")
    target = min(MAX_STEER, max(-MAX_STEER, steer_cmd))
    slew = STEER_RATE * DT
    steer = state.steer + min(slew, max(-slew, target - state.steer))
    ds = params.speed * DT
    position = np.array([x + ds * math.cos(state.heading), y + ds * math.sin(state.heading)])
    heading = _wrap_angle(state.heading + ds / WHEELBASE * math.tan(steer))
    return VehicleState(position, heading, steer, state.time + DT)


class _Path:
    """A polyline prepared for nearest-point and arc-length queries: the
    per-segment columns are built once per road, not at every step."""

    __slots__ = ("xs", "ys", "cum", "total", "ax", "ay", "abx", "aby", "denom")

    def __init__(self, points: np.ndarray):
        self.xs = np.ascontiguousarray(points[:, 0])
        self.ys = np.ascontiguousarray(points[:, 1])
        self.cum = polyline_lengths(points)
        self.total = float(self.cum[-1])
        self.ax, self.ay = self.xs[:-1], self.ys[:-1]
        self.abx, self.aby = np.diff(self.xs), np.diff(self.ys)
        denom = self.abx * self.abx + self.aby * self.aby
        self.denom = np.where(denom == 0.0, 1.0, denom)


def _project_on_path(x: float, y: float, path: _Path) -> float:
    """Arc length of the nearest point on the path to ``(x, y)``."""
    t = (x - path.ax) * path.abx + (y - path.ay) * path.aby
    t = np.minimum(np.maximum(t / path.denom, 0.0), 1.0)
    ex = x - (path.ax + t * path.abx)
    ey = y - (path.ay + t * path.aby)
    i = int((ex * ex + ey * ey).argmin())
    cum = path.cum
    return float(cum[i] + t[i] * (cum[i + 1] - cum[i]))


def _point_at_arclength(path: _Path, s: float):
    s = min(max(s, 0.0), path.total)
    return float(np.interp(s, path.cum, path.xs)), float(np.interp(s, path.cum, path.ys))


def pure_pursuit(state: VehicleState, path: _Path):
    """Steer toward the point ``LOOKAHEAD`` meters of arc ahead of the
    vehicle's nearest point on ``path``.

    Returns ``(steer, s)``, ``s`` being the arc length of that nearest
    point; once it reaches the end of the path, steer is 0.
    """
    x, y = state.position.tolist()
    s = _project_on_path(x, y, path)
    if s >= path.total - 1e-9:
        return 0.0, s
    gx, gy = _point_at_arclength(path, s + LOOKAHEAD)
    alpha = _wrap_angle(math.atan2(gy - y, gx - x) - state.heading)
    steer = math.atan(2.0 * WHEELBASE * math.sin(alpha) / LOOKAHEAD)
    steer = min(MAX_STEER, max(-MAX_STEER, steer))
    return steer, s


def _footprint(state: VehicleState):
    """Body center, heading unit vector and the four CCW corners of the
    oriented bounding rectangle.

    The body center sits WHEELBASE/2 ahead of the rear axle, so the
    rectangle overhangs both axles equally.
    """
    x, y = state.position.tolist()
    ux, uy = math.cos(state.heading), math.sin(state.heading)
    nx, ny = -uy, ux
    half = 0.5 * WHEELBASE
    cx, cy = x + half * ux, y + half * uy
    hl, hw = 0.5 * LENGTH, 0.5 * WIDTH
    corners = (
        (cx - hl * ux - hw * nx, cy - hl * uy - hw * ny),
        (cx + hl * ux - hw * nx, cy + hl * uy - hw * ny),
        (cx + hl * ux + hw * nx, cy + hl * uy + hw * ny),
        (cx - hl * ux + hw * nx, cy - hl * uy + hw * ny),
    )
    return (cx, cy), (ux, uy), corners


def _meets(ax, ay, bx, by, cx, cy, ux, uy, hl, hw) -> bool:
    """Does segment a-b meet the rectangle centered at c with axis u and
    half-extents hl (along u) and hw? Separating-axis test in the
    rectangle's frame: its two axes, then the segment's normal."""
    ax, ay, bx, by = ax - cx, ay - cy, bx - cx, by - cy
    a_u, a_n = ax * ux + ay * uy, ay * ux - ax * uy
    b_u, b_n = bx * ux + by * uy, by * ux - bx * uy
    if (a_u > hl and b_u > hl) or (a_u < -hl and b_u < -hl):
        return False
    if (a_n > hw and b_n > hw) or (a_n < -hw and b_n < -hw):
        return False
    d_u, d_n = b_u - a_u, b_n - a_n
    return abs(a_u * d_n - a_n * d_u) <= hl * abs(d_n) + hw * abs(d_u)


def _strictly_inside(px, py, quad) -> bool:
    # clockwise convex quad: the interior lies right of every edge; the
    # point must lie more than CONTAINMENT_MARGIN to the right of each
    ax, ay = quad[-1]
    for bx, by in quad:
        ex, ey = bx - ax, by - ay
        if ex * (py - ay) - ey * (px - ax) >= -CONTAINMENT_MARGIN * (abs(ex) + abs(ey)):
            return False
        ax, ay = bx, by
    return True


class _LaneStrip:
    """Right-lane strip pre-chopped into per-segment quads.

    Quad i is ``(c[i], c[i+1], r[i+1], r[i])`` over the centerline ``c``
    and the right boundary ``r``: it is bounded by a centerline edge, a
    right-boundary edge and two rungs ``c[i]-r[i]``, each rung shared with
    the neighbouring quad. Tiling assumption: every quad is strictly
    convex and clockwise, so neighbours lie on opposite sides of their
    shared rung and the quads tile the strip; summing per-quad footprint
    overlaps then equals the overlap with the whole strip polygon. It
    holds where the curve radius stays well above the lane width, as on
    every valid golden road. ``tiled`` records whether it holds for this
    strip; the in-lane test of :meth:`contains` relies on it and answers
    "no" where it fails.
    """

    __slots__ = ("xlo", "ylo", "xhi", "yhi", "quads", "tiled")

    def __init__(self, center: np.ndarray, right: np.ndarray):
        if len(center) != len(right) or len(center) < 2:
            raise ValueError("degenerate lane polygon")
        c0, c1, r0, r1 = center[:-1], center[1:], right[:-1], right[1:]
        lo = np.minimum(np.minimum(c0, c1), np.minimum(r0, r1))
        hi = np.maximum(np.maximum(c0, c1), np.maximum(r0, r1))
        self.xlo, self.ylo = lo[:, 0].copy(), lo[:, 1].copy()
        self.xhi, self.yhi = hi[:, 0].copy(), hi[:, 1].copy()
        corners = np.stack([c0, c1, r1, r0], axis=1)  # (m, 4, 2)
        self.quads = [tuple(map(tuple, q)) for q in corners.tolist()]
        edge = np.roll(corners, -1, axis=1) - corners
        following = np.roll(edge, -1, axis=1)
        turn = edge[:, :, 0] * following[:, :, 1] - edge[:, :, 1] * following[:, :, 0]
        self.tiled = bool(np.all(turn < 0.0))  # every corner turns right

    def near(self, corners) -> list:
        """Indices of the quads whose bounding box meets the corners' one."""
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = corners
        mask = self.xlo <= max(x0, x1, x2, x3)
        mask &= self.ylo <= max(y0, y1, y2, y3)
        mask &= self.xhi >= min(x0, x1, x2, x3)
        mask &= self.yhi >= min(y0, y1, y2, y3)
        return mask.nonzero()[0].tolist()

    def contains(self, near: list, center, axis) -> bool:
        """Does the vehicle rectangle (``center``, unit ``axis``) certainly
        lie inside the union of the ``near`` quads?

        Connectivity argument: the boundary of that union consists of the
        centerline and right-boundary edges of the near quads plus every
        rung that borders only one near quad (the start and end caps
        included). The rectangle is connected, so if it meets none of
        those segments and one of its points (its center) lies inside a
        near quad, it lies wholly inside the union. Both tests use
        ``CONTAINMENT_MARGIN``: the rectangle is widened for "meets" and
        the quad narrowed for "inside", so rounding can only turn an
        answer into "no". A "no" is not "outside"; the caller clips.
        """
        if not self.tiled or not near:
            return False
        cx, cy = center
        ux, uy = axis
        quads = self.quads
        if not any(_strictly_inside(cx, cy, quads[i]) for i in near):
            return False
        hl = 0.5 * LENGTH + CONTAINMENT_MARGIN
        hw = 0.5 * WIDTH + CONTAINMENT_MARGIN
        last = len(near) - 1
        for k, i in enumerate(near):
            (c0x, c0y), (c1x, c1y), (r1x, r1y), (r0x, r0y) = quads[i]
            if (_meets(c0x, c0y, c1x, c1y, cx, cy, ux, uy, hl, hw)
                    or _meets(r0x, r0y, r1x, r1y, cx, cy, ux, uy, hl, hw)):
                return False
            if (k == 0 or near[k - 1] != i - 1) \
                    and _meets(c0x, c0y, r0x, r0y, cx, cy, ux, uy, hl, hw):
                return False
            if (k == last or near[k + 1] != i + 1) \
                    and _meets(c1x, c1y, r1x, r1y, cx, cy, ux, uy, hl, hw):
                return False
        return True


def _clip_area(quad, edges) -> float:
    # Sutherland-Hodgman of one quad against the rect's 4 half-planes,
    # plain floats: this runs a few thousand times per simulated test
    poly = quad
    for ex, ey, nx, ny in edges:
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
        if len(out) < 3:
            return 0.0
        poly = out
    area = 0.0
    px, py = poly[-1]
    for cx, cy in poly:
        area += px * cy - cx * py
        px, py = cx, cy
    return 0.5 * abs(area)


def oob_percent(state: VehicleState, strip: _LaneStrip) -> float:
    """Percentage of the vehicle's bounding-box area outside the right lane.

    The right lane is the strip between centerline and right boundary,
    clipped quad by quad against the vehicle's oriented bounding
    rectangle; 0 means fully in lane, 100 fully outside (over the center
    line or off road).

    Early-out: when :meth:`_LaneStrip.contains` proves the rectangle lies
    inside the near quads, the answer is 0.0 without clipping. That is
    the value the clip gives too: the near quads tile the part of the
    strip under the rectangle, so their clipped areas sum to
    LENGTH x WIDTH up to rounding, and the ``out < 1e-9`` branch below
    turns that rounding into 0.0. Every other footprint is clipped as
    before, including one wholly outside the lane: its clip may differ
    from exactly 100 by rounding, so no early-out claims that value.
    """
    center, (ux, uy), rect = _footprint(state)
    near = strip.near(rect)
    if strip.contains(near, center, (ux, uy)):
        return 0.0
    # inward half-plane normals of the CCW rectangle
    edges = (
        (rect[0][0], rect[0][1], -uy, ux),
        (rect[1][0], rect[1][1], -ux, -uy),
        (rect[2][0], rect[2][1], uy, -ux),
        (rect[3][0], rect[3][1], ux, uy),
    )
    inside = 0.0
    for i in near:
        inside += _clip_area(strip.quads[i], edges)
    out = 100.0 * (1.0 - inside / (LENGTH * WIDTH))
    if out < 1e-9:  # clipping noise
        return 0.0
    return min(out, 100.0)


def run_test(road: RoadSpec, vparams: VehicleParams | None = None) -> TestResult:
    """Drive the road and judge it.

    The vehicle starts on the right-lane center, far enough in that its
    body is fully on the strip, and the run ends when the front would pass
    the road end, when ``MAX_TIME`` is up, or immediately after the
    out-of-bounds percentage exceeds the failure threshold.

    Callers must validate the road first; invalid roads never get here.
    """
    vp = vparams or VehicleParams()
    path = _Path(0.5 * (road.centerline + road.right_boundary))
    start_s = 0.5 * (LENGTH - WHEELBASE)  # rear overhang behind the rear axle
    # front overhang plus one step, so the recorded body never passes the end
    end_margin = 0.5 * (LENGTH + WHEELBASE) + vp.speed * DT

    x0, y0 = _point_at_arclength(path, start_s)
    ahead_x, ahead_y = _point_at_arclength(path, start_s + 1.0)
    state = VehicleState(np.array([x0, y0]), math.atan2(ahead_y - y0, ahead_x - x0))
    strip = _LaneStrip(road.centerline, road.right_boundary)

    trajectory = [state]
    oob0 = oob_percent(state, strip)
    oob_trace = [oob0]
    max_oob = oob0

    while True:
        steer, s = pure_pursuit(state, path)
        if s >= path.total - end_margin:
            break
        state = step(state, steer, vp)
        oob = oob_percent(state, strip)
        trajectory.append(state)
        oob_trace.append(oob)
        if oob > max_oob:
            max_oob = oob
        if oob > OOB_FAIL_THRESHOLD:
            break
        if state.time >= MAX_TIME - 0.5 * DT:
            break

    verdict = FAIL if max_oob > OOB_FAIL_THRESHOLD else PASS
    return TestResult(verdict, trajectory, oob_trace, max_oob)
