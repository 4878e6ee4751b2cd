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
    "VehicleParams",
    "VehicleState",
    "OobSample",
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
DT = 0.05
MAX_TIME = 120.0


@dataclass
class VehicleParams:
    """Vehicle geometry, speed and steering actuation limits.

    ``steer_rate`` bounds how fast the road wheels can slew. It is what
    makes high speed on sharply curving roads genuinely dangerous: the
    time to swing the steering across an S-transition is fixed, so the
    distance covered while under-steered grows with speed.
    """

    wheelbase: float = 2.5
    width: float = 1.8
    length: float = 4.3
    speed: float = 12.0
    max_steer: float = 0.6
    lookahead: float = 8.0
    steer_rate: float = 0.5

    def __post_init__(self):
        for name in ("wheelbase", "width", "length", "speed", "max_steer",
                     "lookahead", "steer_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_steer >= math.pi / 2:
            raise ValueError("max_steer must be < pi/2")


@dataclass
class VehicleState:
    """Rear-axle midpoint pose; heading normalized to (-pi, pi]."""

    position: np.ndarray
    heading: float
    steer: float = 0.0
    time: float = 0.0


@dataclass
class OobSample:
    time: float
    oob_percent: float


@dataclass
class TestResult:
    __test__ = False  # not a pytest class

    verdict: str
    trajectory: list = field(default_factory=list)
    oob_trace: list = field(default_factory=list)
    max_oob: float = 0.0
    completed: bool = False
    error: str | None = None


def invalid_result(error: str | None = None) -> TestResult:
    return TestResult(verdict=INVALID, max_oob=0.0, completed=False, error=error)


def _wrap_angle(a: float) -> float:
    # (-pi, pi]
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def step(state: VehicleState, steer_cmd: float, params: VehicleParams, dt: float) -> VehicleState:
    """One Euler step of the kinematic bicycle model.

    The steer command is clamped to +-max_steer and the applied steer can
    move at most steer_rate*dt per step from its previous value; the
    position advances by exactly speed*dt along the current heading, and
    the heading turns by (speed*dt / wheelbase) * tan(steer).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not (math.isfinite(steer_cmd) and math.isfinite(state.heading)
            and np.all(np.isfinite(state.position))):
        raise ValueError("non-finite state or steer command")
    target = min(params.max_steer, max(-params.max_steer, steer_cmd))
    slew = params.steer_rate * dt
    steer = state.steer + min(slew, max(-slew, target - state.steer))
    ds = params.speed * dt
    x, y = state.position
    position = np.array([x + ds * math.cos(state.heading), y + ds * math.sin(state.heading)])
    heading = _wrap_angle(state.heading + ds / params.wheelbase * math.tan(steer))
    return VehicleState(position, heading, steer, state.time + dt)


def _project_on_path(point: np.ndarray, path: np.ndarray, cum: np.ndarray) -> float:
    """Arc length of the nearest point on the path to ``point``."""
    a, b = path[:-1], path[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.clip(np.einsum("ij,ij->i", point - a, ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    i = int(np.argmin(np.einsum("ij,ij->i", point - proj, point - proj)))
    return float(cum[i] + t[i] * (cum[i + 1] - cum[i]))


def _point_at_arclength(path: np.ndarray, cum: np.ndarray, s: float) -> np.ndarray:
    s = min(max(s, 0.0), float(cum[-1]))
    x = np.interp(s, cum, path[:, 0])
    y = np.interp(s, cum, path[:, 1])
    return np.array([x, y])


def pure_pursuit(state: VehicleState, path: np.ndarray, cum: np.ndarray,
                 params: VehicleParams):
    """Steer toward the point ``lookahead`` meters of arc ahead of the
    vehicle's nearest point on ``path`` (``cum`` is its
    :func:`polyline_lengths`).

    Returns ``(steer, s)``, ``s`` being the arc length of that nearest
    point; once it reaches the end of the path, steer is 0.
    """
    s = _project_on_path(state.position, path, cum)
    if s >= cum[-1] - 1e-9:
        return 0.0, s
    goal = _point_at_arclength(path, cum, s + params.lookahead)
    dx, dy = goal - state.position
    alpha = _wrap_angle(math.atan2(dy, dx) - state.heading)
    steer = math.atan(2.0 * params.wheelbase * math.sin(alpha) / params.lookahead)
    steer = min(params.max_steer, max(-params.max_steer, steer))
    return steer, s


def _footprint(state: VehicleState, params: VehicleParams) -> np.ndarray:
    """Oriented bounding rectangle, CCW corners.

    The body center sits wheelbase/2 ahead of the rear axle, so the
    rectangle overhangs both axles equally.
    """
    u = np.array([math.cos(state.heading), math.sin(state.heading)])
    n = np.array([-u[1], u[0]])
    c = state.position + 0.5 * params.wheelbase * u
    hl, hw = 0.5 * params.length, 0.5 * params.width
    return np.array([
        c - hl * u - hw * n,
        c + hl * u - hw * n,
        c + hl * u + hw * n,
        c - hl * u + hw * n,
    ])


class _LaneStrip:
    """Right-lane strip pre-chopped into per-segment quads.

    The quads tile the strip exactly for any road that passes validation,
    so summing per-quad footprint overlaps equals the overlap with the
    whole strip polygon.
    """

    __slots__ = ("qlo", "qhi", "quads")

    def __init__(self, center: np.ndarray, right: np.ndarray):
        if len(center) != len(right) or len(center) < 2:
            raise ValueError("degenerate lane polygon")
        c0, c1, r0, r1 = center[:-1], center[1:], right[:-1], right[1:]
        self.qlo = np.minimum(np.minimum(c0, c1), np.minimum(r0, r1))
        self.qhi = np.maximum(np.maximum(c0, c1), np.maximum(r0, r1))
        corners = np.stack([c0, c1, r1, r0], axis=1)  # (m, 4, 2)
        self.quads = [tuple(map(tuple, q)) for q in corners.tolist()]


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


def oob_percent(state: VehicleState, strip: _LaneStrip, params: VehicleParams) -> float:
    """Percentage of the vehicle's bounding-box area outside the right lane.

    The right lane is the strip between centerline and right boundary,
    clipped against the vehicle's oriented bounding rectangle; 0 means
    fully in lane, 100 fully outside (over the center line or off road).
    """
    rect = _footprint(state, params)
    ux, uy = math.cos(state.heading), math.sin(state.heading)
    # inward half-plane normals of the CCW rectangle
    edges = (
        (rect[0, 0], rect[0, 1], -uy, ux),
        (rect[1, 0], rect[1, 1], -ux, -uy),
        (rect[2, 0], rect[2, 1], uy, -ux),
        (rect[3, 0], rect[3, 1], ux, uy),
    )
    rlo, rhi = rect.min(axis=0), rect.max(axis=0)
    mask = np.all(strip.qlo <= rhi, axis=1) & np.all(strip.qhi >= rlo, axis=1)
    inside = 0.0
    for i in np.nonzero(mask)[0]:
        inside += _clip_area(strip.quads[i], edges)
    out = 100.0 * (1.0 - inside / (params.length * params.width))
    if out < 1e-9:  # clipping noise
        return 0.0
    return min(out, 100.0)


def run_test(road: RoadSpec, vparams: VehicleParams | None = None,
             dt: float = DT, max_time: float = MAX_TIME) -> TestResult:
    """Drive the road and judge it.

    The vehicle starts on the right-lane center, far enough in that its
    body is fully on the strip, and the run ends when the front would pass
    the road end, when ``max_time`` is up, or immediately after the
    out-of-bounds percentage exceeds the failure threshold.

    Callers must validate the road first; invalid roads never get here.
    """
    vp = vparams or VehicleParams()
    lane_center = 0.5 * (road.centerline + road.right_boundary)
    cum = polyline_lengths(lane_center)
    total = float(cum[-1])
    start_s = 0.5 * (vp.length - vp.wheelbase)  # rear overhang behind the rear axle
    # front overhang plus one step, so the recorded body never passes the end
    end_margin = 0.5 * (vp.length + vp.wheelbase) + vp.speed * dt

    pos0 = _point_at_arclength(lane_center, cum, start_s)
    ahead = _point_at_arclength(lane_center, cum, start_s + 1.0)
    heading0 = math.atan2(ahead[1] - pos0[1], ahead[0] - pos0[0])
    state = VehicleState(pos0, heading0)
    strip = _LaneStrip(road.centerline, road.right_boundary)

    trajectory = [state]
    oob0 = oob_percent(state, strip, vp)
    oob_trace = [OobSample(0.0, oob0)]
    max_oob = oob0
    completed = False

    while True:
        steer, s = pure_pursuit(state, lane_center, cum, vp)
        if s >= total - end_margin:
            completed = True
            break
        state = step(state, steer, vp, dt)
        oob = oob_percent(state, strip, vp)
        trajectory.append(state)
        oob_trace.append(OobSample(state.time, oob))
        if oob > max_oob:
            max_oob = oob
        if oob > OOB_FAIL_THRESHOLD:
            break
        if state.time >= max_time - 0.5 * dt:
            break

    verdict = FAIL if max_oob > OOB_FAIL_THRESHOLD else PASS
    return TestResult(verdict, trajectory, oob_trace, max_oob, completed)
