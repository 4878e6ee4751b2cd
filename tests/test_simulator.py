import json
import math
from pathlib import Path

import numpy as np
import pytest

from roadsearch import simulator
from roadsearch.geometry import ControlPointSet, min_curvature_radius
from roadsearch.road import RoadSpec, build_road, validate
from roadsearch.simulator import (
    DT,
    FAIL,
    LENGTH,
    LOOKAHEAD,
    MAX_STEER,
    MAX_TIME,
    PASS,
    STEER_RATE,
    WHEELBASE,
    WIDTH,
    TestResult,
    VehicleParams,
    VehicleState,
    invalid_result,
    oob_percent,
    pure_pursuit,
    run_test,
    step,
)
from roadsearch.simulator import _clip_area, _footprint, _LaneStrip, _Path

from geometry_oracles import convex_clip_area

# valid road that the built-in vehicle noticeably struggles with at 25 m/s
WIGGLY_POINTS = [[43.643, 197.805], [55.718, 22.685], [98.85, 144.87],
                 [122.541, 123.161], [127.774, 126.756], [129.811, 178.505],
                 [166.053, 14.54]]
# valid road that fails outright at 25 m/s
FAILING_POINTS = [[24.168, 122.524], [76.111, 6.78], [111.928, 167.398],
                  [116.366, 129.561], [130.004, 78.709], [132.545, 115.23],
                  [149.369, 192.498]]


def straight_road(y=100.0, n=7):
    pts = np.column_stack([np.linspace(0, 200, n), np.full(n, y)])
    return build_road(ControlPointSet(pts))


def road_from(points):
    road = build_road(ControlPointSet(np.asarray(points)))
    assert validate(road).valid
    return road


def state_at(x, y, heading=0.0, steer=0.0):
    return VehicleState(np.array([x, y], dtype=float), heading, steer)


class TestVehicleParams:
    @pytest.mark.parametrize("name", ["speed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        # speed=nan used to give a FAIL after one step, speed=inf a PASS
        with pytest.raises(ValueError, match=name):
            VehicleParams(**{name: value})


class TestStep:
    def test_straight_motion(self):
        vp = VehicleParams(speed=10.0)
        s1 = step(state_at(0, 0), 0.0, vp)
        assert np.allclose(s1.position, [10.0 * DT, 0.0])
        assert s1.heading == 0.0
        assert s1.time == pytest.approx(DT)

    def test_steer_command_clamped(self):
        vp = VehicleParams()
        a = step(state_at(0, 0, steer=MAX_STEER), 2 * MAX_STEER, vp)
        b = step(state_at(0, 0, steer=MAX_STEER), MAX_STEER, vp)
        assert np.array_equal(a.position, b.position)
        assert a.heading == b.heading and a.steer == b.steer
        assert abs(a.steer) <= MAX_STEER

    def test_steer_slew_limited(self):
        s1 = step(state_at(0, 0, steer=0.0), MAX_STEER, VehicleParams())
        assert s1.steer == pytest.approx(STEER_RATE * DT)

    def test_constant_steer_circle_radius(self):
        # kinematic bicycle on constant steer: radius = wheelbase / tan(steer),
        # checked with an algebraic (Kasa) circle fit of the trajectory
        vp = VehicleParams(speed=12.0)
        delta = 0.3
        state = state_at(0, 0, heading=0.0, steer=delta)
        pts = [state.position.copy()]
        for _ in range(2000):
            state = step(state, delta, vp)
            pts.append(state.position.copy())
        pts = np.array(pts)
        a = np.column_stack([2 * pts[:, 0], 2 * pts[:, 1], np.ones(len(pts))])
        b = (pts ** 2).sum(axis=1)
        (cx, cy, c), *_ = np.linalg.lstsq(a, b, rcond=None)
        radius = math.sqrt(c + cx * cx + cy * cy)
        expected = WHEELBASE / math.tan(delta)
        assert radius == pytest.approx(expected, rel=0.01)

    def test_rejects_bad_inputs(self):
        vp = VehicleParams()
        with pytest.raises(ValueError):
            step(state_at(0, 0), math.nan, vp)
        with pytest.raises(ValueError):
            step(state_at(math.inf, 0), 0.0, vp)

    def test_heading_stays_wrapped(self):
        vp = VehicleParams()
        state = state_at(0, 0, steer=MAX_STEER)
        for _ in range(1000):
            state = step(state, MAX_STEER, vp)
            assert -math.pi < state.heading <= math.pi


class TestPurePursuit:
    def test_aligned_on_straight_path(self):
        path = _Path(np.column_stack([np.linspace(0, 100, 51), np.zeros(51)]))
        steer, s = pure_pursuit(state_at(10, 0), path)
        assert steer == pytest.approx(0.0, abs=1e-12)
        assert s == pytest.approx(10.0) and s < path.total

    def test_goal_directly_left(self):
        # nearest point and goal chosen so alpha = pi/2:
        # steer = atan(2 * wheelbase * sin(alpha) / lookahead) = atan(5/8),
        # inside the steering limit
        assert (WHEELBASE, LOOKAHEAD) == (2.5, 8.0) and MAX_STEER > math.atan(5.0 / 8.0)
        path = _Path(np.array([[0.0, 0.0], [0.0, 8.0], [0.0, 16.0]]))
        steer, _ = pure_pursuit(state_at(0, 0), path)
        assert steer == pytest.approx(math.atan(5.0 / 8.0), abs=1e-9)

    def test_mirrored_offsets_mirror_steer(self):
        path = _Path(np.column_stack([np.linspace(0, 100, 51), np.zeros(51)]))
        up, _ = pure_pursuit(state_at(10, 1.5), path)
        down, _ = pure_pursuit(state_at(10, -1.5), path)
        assert up == pytest.approx(-down, abs=1e-12)
        assert up < 0  # offset left of the path steers right

    def test_beyond_path_end(self):
        path = _Path(np.array([[0.0, 0.0], [10.0, 0.0]]))
        steer, s = pure_pursuit(state_at(15, 0), path)
        assert steer == 0.0
        assert s >= path.total - 1e-9


def lane_strip(road):
    return _LaneStrip(road.centerline, road.right_boundary)


class TestOobPercent:
    def test_centered_in_lane(self):
        road = straight_road()
        # right-lane center is y=98; rear axle so body center sits there
        st = state_at(100 - WHEELBASE / 2, 98.0)
        assert oob_percent(st, lane_strip(road)) == 0.0

    def test_fully_in_opposite_lane(self):
        road = straight_road()
        st = state_at(100 - WHEELBASE / 2, 102.0)
        assert oob_percent(st, lane_strip(road)) == pytest.approx(100.0)

    def test_straddling_centerline_is_half_out(self):
        road = straight_road()
        st = state_at(100 - WHEELBASE / 2, 100.0)  # body center on the centerline
        assert oob_percent(st, lane_strip(road)) == pytest.approx(50.0, abs=0.5)

    def test_bounds(self):
        road = road_from(WIGGLY_POINTS)
        vp = VehicleParams(speed=25.0)
        result = run_test(road, vp)
        for oob in result.oob_trace:
            assert 0.0 <= oob <= 100.0

    def test_matches_whole_strip_clip_oracle(self):
        # the simulator clips per-segment quads with its own routine; the
        # oracle clips the whole right-lane polygon against the footprint
        road = road_from(WIGGLY_POINTS)
        strip = np.vstack([road.centerline, road.right_boundary[::-1]])
        quads = lane_strip(road)
        states = run_test(road, VehicleParams(speed=25.0)).trajectory[::10]
        assert len(states) > 20
        for st in states:
            inside = convex_clip_area(strip, np.array(_footprint(st)[2]))
            expected = min(max(100.0 * (1.0 - inside / (LENGTH * WIDTH)), 0.0), 100.0)
            assert oob_percent(st, quads) == pytest.approx(expected, abs=1e-6)

    def test_degenerate_lane_rejected(self):
        road = straight_road()
        bad = RoadSpec(road.centerline, road.left_boundary,
                       road.right_boundary[:10])
        with pytest.raises(ValueError):
            lane_strip(bad)


class TestRunTest:
    def test_straight_road_passes_clean(self):
        result = run_test(straight_road())
        assert result.verdict == PASS
        assert result.max_oob == 0.0
        # the drive reached the road's end, well before the time cap
        assert result.trajectory[-1].time < MAX_TIME - DT

    def test_wiggly_road_measurable_oob_at_speed(self):
        road = road_from(WIGGLY_POINTS)
        result = run_test(road, VehicleParams(speed=25.0))
        assert result.max_oob > 0.0

    def test_failing_road_fails(self):
        road = road_from(FAILING_POINTS)
        result = run_test(road, VehicleParams(speed=25.0))
        assert result.verdict == FAIL
        assert result.max_oob > 95.0

    def test_repeat_runs_bit_identical(self):
        road = road_from(WIGGLY_POINTS)
        vp = VehicleParams(speed=25.0)
        a = run_test(road, vp)
        b = run_test(road, vp)
        assert a.max_oob == b.max_oob
        assert a.verdict == b.verdict
        assert len(a.trajectory) == len(b.trajectory)
        for sa, sb in zip(a.trajectory, b.trajectory):
            assert np.array_equal(sa.position, sb.position)
            assert sa.heading == sb.heading and sa.steer == sb.steer

    def test_speed_invariant_spacing(self):
        road = road_from(WIGGLY_POINTS)
        vp = VehicleParams(speed=25.0)
        result = run_test(road, vp)
        pos = np.array([s.position for s in result.trajectory])
        d = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert np.abs(d - 25.0 * DT).max() < 1e-9

    def test_mirror_symmetry(self):
        road = road_from(WIGGLY_POINTS)
        flip = np.array([1.0, -1.0])
        mirrored = RoadSpec(road.centerline * flip, road.left_boundary * flip,
                            road.right_boundary * flip)
        vp = VehicleParams(speed=25.0)
        a = run_test(road, vp)
        b = run_test(mirrored, vp)
        assert b.max_oob == pytest.approx(a.max_oob, abs=1e-6)
        assert len(a.trajectory) == len(b.trajectory)
        pa = np.array([s.position for s in a.trajectory])
        pb = np.array([s.position for s in b.trajectory])
        assert np.abs(pa * flip - pb).max() < 1e-6

    def test_verdict_consistency(self):
        for pts in (WIGGLY_POINTS, FAILING_POINTS):
            result = run_test(road_from(pts), VehicleParams(speed=25.0))
            assert result.max_oob == max(result.oob_trace)
            assert (result.verdict == FAIL) == (result.max_oob > 95.0)

    def test_max_time_flags_incomplete(self):
        # at 1 m/s the 200 m road takes longer than the time cap
        result = run_test(straight_road(), VehicleParams(speed=1.0))
        assert result.verdict == PASS
        # stopped by the time cap, not at the road's end
        assert abs(result.trajectory[-1].time - MAX_TIME) < DT / 2
        assert len(result.trajectory) - 1 == round(MAX_TIME / DT)

    def test_trajectory_and_trace_paired(self):
        result = run_test(road_from(WIGGLY_POINTS), VehicleParams(speed=25.0))
        assert len(result.trajectory) == len(result.oob_trace)
        times = [s.time for s in result.trajectory]
        assert times == sorted(times)


def test_invalid_result_shape():
    r = invalid_result("protocol-error")
    assert r.verdict == "INVALID"
    assert r.trajectory == [] and r.oob_trace == []
    assert r.error == "protocol-error"


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_roads.json").read_text())


@pytest.fixture(scope="module")
def golden_valid_roads():
    roads = []
    for entry in GOLDEN["entries"]:
        road = build_road(ControlPointSet(np.asarray(entry["points"])))
        if validate(road).valid:
            roads.append(road)
    return roads


def clipped_oob(state, strip):
    """oob_percent without its in-lane early-out: every quad whose
    bounding box meets the footprint's, clipped with _clip_area and
    summed in quad order. The preselection is recomputed here from the
    quads themselves."""
    _, (ux, uy), rect = _footprint(state)
    xs, ys = [p[0] for p in rect], [p[1] for p in rect]
    edges = ((rect[0][0], rect[0][1], -uy, ux), (rect[1][0], rect[1][1], -ux, -uy),
             (rect[2][0], rect[2][1], uy, -ux), (rect[3][0], rect[3][1], ux, uy))
    inside = 0.0
    for quad in strip.quads:
        qx, qy = [p[0] for p in quad], [p[1] for p in quad]
        if (min(qx) <= max(xs) and min(qy) <= max(ys)
                and max(qx) >= min(xs) and max(qy) >= min(ys)):
            inside += _clip_area(quad, edges)
    # the module's constants, read at call time: a test may widen the body
    out = 100.0 * (1.0 - inside / (simulator.LENGTH * simulator.WIDTH))
    return 0.0 if out < 1e-9 else min(out, 100.0)


def test_every_step_matches_full_clip(golden_valid_roads):
    # the early-out may only skip work: each step of each valid golden road
    # at 25 m/s gives bit for bit the per-quad clip's value
    vp = VehicleParams(speed=25.0)
    steps, positive, mismatches = 0, 0, []
    for k, road in enumerate(golden_valid_roads):
        strip = lane_strip(road)
        result = run_test(road, vp)
        for n, (st, oob) in enumerate(zip(result.trajectory, result.oob_trace)):
            want = clipped_oob(st, strip)
            if oob != want:
                mismatches.append((k, n, oob, want))
            positive += want > 0.0
        steps += len(result.trajectory)
    assert mismatches == []
    assert len(golden_valid_roads) == 84 and steps > 10000 and positive > 100


def body_pose(lane, cum, s, lateral, yaw):
    """Vehicle whose body center sits ``lateral`` m left of the lane
    center at arc length ``s`` (extrapolated past either end), heading
    ``yaw`` off the lane direction."""
    i = min(max(int(np.searchsorted(cum, s)) - 1, 0), len(cum) - 2)
    a, b = lane[i], lane[i + 1]
    u = (b - a) / np.linalg.norm(b - a)
    center = a + (s - cum[i]) * u + lateral * np.array([-u[1], u[0]])
    heading = math.atan2(u[1], u[0]) + yaw
    rear = center - 0.5 * WHEELBASE * np.array([math.cos(heading), math.sin(heading)])
    return VehicleState(rear, heading)


def test_in_lane_early_out_is_conservative(golden_valid_roads, monkeypatch):
    rng = np.random.default_rng(6)
    sharpest = sorted(golden_valid_roads, key=lambda r: min_curvature_radius(r.centerline))[:4]
    # lateral offsets of the body center from the lane center (4 m lane,
    # 1.8 m body): its left side near the centerline, its right side near
    # the right boundary, anywhere across the start and end caps, and
    # well inside the lane
    edge = 2.0 - 0.5 * WIDTH
    regions = {"centerline": lambda total: (rng.uniform(0, total), edge + rng.uniform(-0.4, 0.4)),
               "right": lambda total: (rng.uniform(0, total), -edge + rng.uniform(-0.4, 0.4)),
               "start cap": lambda total: (rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5)),
               "end cap": lambda total: (total + rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5)),
               "inside": lambda total: (rng.uniform(0, total), rng.uniform(-0.9, 0.9))}
    unsound, mismatches = [], []
    said_inside, out_of_lane, clearly_in, clearly_in_said = {}, {}, 0, 0
    for road in sharpest:
        strip = lane_strip(road)
        assert strip.tiled
        lane = 0.5 * (road.centerline + road.right_boundary)
        cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(lane, axis=0), axis=1))])
        for name, draw in regions.items():
            for _ in range(100):
                s, lateral = draw(cum[-1])
                st = body_pose(lane, cum, s, lateral, rng.uniform(-0.15, 0.15))
                center, axis, rect = _footprint(st)
                inside = strip.contains(strip.near(rect), center, axis)
                full = clipped_oob(st, strip)
                if inside and full > 0.0:
                    unsound.append((name, s, lateral, full))
                if oob_percent(st, strip) != full:
                    mismatches.append((name, s, lateral))
                said_inside[name] = said_inside.get(name, 0) + inside
                out_of_lane[name] = out_of_lane.get(name, 0) + (full > 0.0)
                with monkeypatch.context() as roomy:
                    roomy.setattr(simulator, "LENGTH", LENGTH + 0.2)
                    roomy.setattr(simulator, "WIDTH", WIDTH + 0.2)
                    clear = clipped_oob(st, strip) == 0.0  # 0.1 m clear all round
                if clear:
                    clearly_in += 1
                    clearly_in_said += inside
    assert unsound == [] and mismatches == []
    # every region puts footprints on both sides of the answer
    for name in regions:
        assert said_inside[name] > 0, name
        assert out_of_lane[name] > 0 or name == "inside", name
    assert clearly_in > 500 and clearly_in_said >= 0.95 * clearly_in


def test_contains_says_no_off_the_tiling():
    # one far quad of the strip twisted (its last right-boundary point
    # moved across the centerline): the strip is no longer a tiling, so a
    # footprint that is well inside the lane gets no early-out, only the clip
    road = straight_road()
    right = road.right_boundary.copy()
    right[-1] = road.left_boundary[-1]
    strip = _LaneStrip(road.centerline, right)
    st = state_at(100 - WHEELBASE / 2, 98.0)
    center, axis, rect = _footprint(st)
    assert not strip.tiled and lane_strip(road).tiled
    assert not strip.contains(strip.near(rect), center, axis)
    assert lane_strip(road).contains(strip.near(rect), center, axis)
    assert oob_percent(st, strip) == clipped_oob(st, strip) == 0.0
