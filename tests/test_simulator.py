import math

import numpy as np
import pytest

from roadsearch.geometry import ControlPointSet, polyline_lengths
from roadsearch.road import RoadParams, RoadSpec, build_road, validate
from roadsearch.simulator import (
    FAIL,
    PASS,
    OobSample,
    TestResult,
    VehicleParams,
    VehicleState,
    invalid_result,
    oob_percent,
    pure_pursuit,
    run_test,
    step,
)
from roadsearch.simulator import _footprint, _LaneStrip

from geometry_oracles import convex_clip_area

# valid road that the built-in vehicle noticeably struggles with at 25 m/s
WIGGLY_POINTS = [[43.643, 197.805], [55.718, 22.685], [98.85, 144.87],
                 [122.541, 123.161], [127.774, 126.756], [129.811, 178.505],
                 [166.053, 14.54]]
# valid road that fails outright at 25 m/s
FAILING_POINTS = [[24.168, 122.524], [76.111, 6.78], [111.928, 167.398],
                  [116.366, 129.561], [130.004, 78.709], [132.545, 115.23],
                  [149.369, 192.498]]


def straight_road(y=100.0, map_size=200.0, n=7):
    pts = np.column_stack([np.linspace(0, map_size, n), np.full(n, y)])
    return build_road(ControlPointSet(pts, map_size), RoadParams(map_size=map_size))


def road_from(points):
    road = build_road(ControlPointSet(np.asarray(points), 200.0), RoadParams())
    assert validate(road).valid
    return road


def state_at(x, y, heading=0.0, steer=0.0):
    return VehicleState(np.array([x, y], dtype=float), heading, steer)


class TestStep:
    def test_straight_motion(self):
        vp = VehicleParams(speed=10.0)
        s1 = step(state_at(0, 0), 0.0, vp, 0.1)
        assert np.allclose(s1.position, [1.0, 0.0])
        assert s1.heading == 0.0
        assert s1.time == pytest.approx(0.1)

    def test_steer_command_clamped(self):
        vp = VehicleParams()
        a = step(state_at(0, 0, steer=vp.max_steer), 2 * vp.max_steer, vp, 0.05)
        b = step(state_at(0, 0, steer=vp.max_steer), vp.max_steer, vp, 0.05)
        assert np.array_equal(a.position, b.position)
        assert a.heading == b.heading and a.steer == b.steer
        assert abs(a.steer) <= vp.max_steer

    def test_steer_slew_limited(self):
        vp = VehicleParams(steer_rate=0.5)
        s1 = step(state_at(0, 0, steer=0.0), vp.max_steer, vp, 0.05)
        assert s1.steer == pytest.approx(0.5 * 0.05)

    def test_constant_steer_circle_radius(self):
        # kinematic bicycle on constant steer: radius = wheelbase / tan(steer),
        # checked with an algebraic (Kasa) circle fit of the trajectory
        vp = VehicleParams(speed=12.0)
        delta = 0.3
        state = state_at(0, 0, heading=0.0, steer=delta)
        pts = [state.position.copy()]
        for _ in range(2000):
            state = step(state, delta, vp, 0.05)
            pts.append(state.position.copy())
        pts = np.array(pts)
        a = np.column_stack([2 * pts[:, 0], 2 * pts[:, 1], np.ones(len(pts))])
        b = (pts ** 2).sum(axis=1)
        (cx, cy, c), *_ = np.linalg.lstsq(a, b, rcond=None)
        radius = math.sqrt(c + cx * cx + cy * cy)
        expected = vp.wheelbase / math.tan(delta)
        assert radius == pytest.approx(expected, rel=0.01)

    def test_rejects_bad_inputs(self):
        vp = VehicleParams()
        with pytest.raises(ValueError):
            step(state_at(0, 0), 0.0, vp, 0.0)
        with pytest.raises(ValueError):
            step(state_at(0, 0), math.nan, vp, 0.05)
        with pytest.raises(ValueError):
            step(state_at(math.inf, 0), 0.0, vp, 0.05)

    def test_heading_stays_wrapped(self):
        vp = VehicleParams()
        state = state_at(0, 0, steer=vp.max_steer)
        for _ in range(1000):
            state = step(state, vp.max_steer, vp, 0.05)
            assert -math.pi < state.heading <= math.pi


class TestPurePursuit:
    def test_aligned_on_straight_path(self):
        path = np.column_stack([np.linspace(0, 100, 51), np.zeros(51)])
        cum = polyline_lengths(path)
        steer, s = pure_pursuit(state_at(10, 0), path, cum, VehicleParams())
        assert steer == pytest.approx(0.0, abs=1e-12)
        assert s == pytest.approx(10.0) and s < cum[-1]

    def test_goal_directly_left(self):
        # nearest point and goal chosen so alpha = pi/2:
        # steer = atan(2 * wheelbase * sin(alpha) / lookahead) = atan(5/8)
        vp = VehicleParams(wheelbase=2.5, lookahead=8.0, max_steer=1.0)
        path = np.array([[0.0, 0.0], [0.0, 8.0], [0.0, 16.0]])
        steer, _ = pure_pursuit(state_at(0, 0), path, polyline_lengths(path), vp)
        assert steer == pytest.approx(math.atan(5.0 / 8.0), abs=1e-9)

    def test_mirrored_offsets_mirror_steer(self):
        vp = VehicleParams()
        path = np.column_stack([np.linspace(0, 100, 51), np.zeros(51)])
        cum = polyline_lengths(path)
        up, _ = pure_pursuit(state_at(10, 1.5), path, cum, vp)
        down, _ = pure_pursuit(state_at(10, -1.5), path, cum, vp)
        assert up == pytest.approx(-down, abs=1e-12)
        assert up < 0  # offset left of the path steers right

    def test_beyond_path_end(self):
        path = np.array([[0.0, 0.0], [10.0, 0.0]])
        cum = polyline_lengths(path)
        steer, s = pure_pursuit(state_at(15, 0), path, cum, VehicleParams())
        assert steer == 0.0
        assert s >= cum[-1] - 1e-9


def lane_strip(road):
    return _LaneStrip(road.centerline, road.right_boundary)


class TestOobPercent:
    def test_centered_in_lane(self):
        road = straight_road()
        # right-lane center is y=98; rear axle so body center sits there
        vp = VehicleParams()
        st = state_at(100 - vp.wheelbase / 2, 98.0)
        assert oob_percent(st, lane_strip(road), vp) == 0.0

    def test_fully_in_opposite_lane(self):
        road = straight_road()
        vp = VehicleParams()
        st = state_at(100 - vp.wheelbase / 2, 102.0)
        assert oob_percent(st, lane_strip(road), vp) == pytest.approx(100.0)

    def test_straddling_centerline_is_half_out(self):
        road = straight_road()
        vp = VehicleParams()
        st = state_at(100 - vp.wheelbase / 2, 100.0)  # body center on the centerline
        assert oob_percent(st, lane_strip(road), vp) == pytest.approx(50.0, abs=0.5)

    def test_bounds(self):
        road = road_from(WIGGLY_POINTS)
        vp = VehicleParams(speed=25.0)
        result = run_test(road, vp)
        for sample in result.oob_trace:
            assert 0.0 <= sample.oob_percent <= 100.0

    def test_matches_whole_strip_clip_oracle(self):
        # the simulator clips per-segment quads with its own routine; the
        # oracle clips the whole right-lane polygon against the footprint
        road = road_from(WIGGLY_POINTS)
        vp = VehicleParams(speed=25.0)
        strip = np.vstack([road.centerline, road.right_boundary[::-1]])
        quads = lane_strip(road)
        states = run_test(road, vp).trajectory[::10]
        assert len(states) > 20
        for st in states:
            inside = convex_clip_area(strip, _footprint(st, vp))
            expected = min(max(100.0 * (1.0 - inside / (vp.length * vp.width)), 0.0), 100.0)
            assert oob_percent(st, quads, vp) == pytest.approx(expected, abs=1e-6)

    def test_degenerate_lane_rejected(self):
        road = straight_road()
        bad = RoadSpec(road.centerline, road.left_boundary,
                       road.right_boundary[:10], road.params)
        with pytest.raises(ValueError):
            lane_strip(bad)


class TestRunTest:
    def test_straight_road_passes_clean(self):
        result = run_test(straight_road())
        assert result.verdict == PASS
        assert result.max_oob == 0.0
        assert result.completed

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
        result = run_test(road, vp, dt=0.05)
        pos = np.array([s.position for s in result.trajectory])
        d = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert np.abs(d - 25.0 * 0.05).max() < 1e-9

    def test_mirror_symmetry(self):
        road = road_from(WIGGLY_POINTS)
        flip = np.array([1.0, -1.0])
        mirrored = RoadSpec(road.centerline * flip, road.left_boundary * flip,
                            road.right_boundary * flip, road.params)
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
            trace_max = max(s.oob_percent for s in result.oob_trace)
            assert result.max_oob == trace_max
            assert (result.verdict == FAIL) == (result.max_oob > 95.0)

    def test_max_time_flags_incomplete(self):
        road = straight_road()
        result = run_test(road, VehicleParams(speed=12.0), max_time=2.0)
        assert result.verdict == PASS
        assert not result.completed

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
