import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_oracles import fold_hits, segment_self_distances
from roadsearch import road as road_module
from roadsearch.geometry import ControlPointSet, min_curvature_radius, polyline_lengths
from roadsearch.road import (
    OUT_OF_MAP,
    OVERLAP,
    TOO_SHARP,
    TOO_SHORT,
    FOLD_EXEMPT_LANE_WIDTHS,
    LANE_WIDTH,
    MIN_RADIUS,
    NUM_SAMPLES,
    OVERLAP_BUFFER,
    _folds_back,
    _near_pairs,
    build_road,
    road_from_dict,
    road_to_dict,
    validate,
)


def straight_cps(y=100.0, n=7):
    pts = np.column_stack([np.linspace(0, 200, n), np.full(n, y)])
    return ControlPointSet(pts)


def arc_cps(center, radius, deg_from, deg_to, n=7):
    ang = np.radians(np.linspace(deg_from, deg_to, n))
    pts = np.column_stack([center[0] + radius * np.cos(ang),
                           center[1] + radius * np.sin(ang)])
    return ControlPointSet(pts)


def road_line(**params):
    """A protocol road line of a straight road, its params changed."""
    data = road_to_dict(build_road(straight_cps()))
    data["params"].update(params)
    return data


class TestRoadParams:
    """The road line's ``params``: the fixed geometry, and nothing else."""

    def test_overlap_buffer_defaults_to_road_width(self):
        assert OVERLAP_BUFFER == 2.0 * LANE_WIDTH == 8.0
        assert road_to_dict(build_road(straight_cps()))["params"] == {
            "lane_width": 4.0, "num_samples": 100, "min_radius": 7.0,
            "map_size": 200.0, "overlap_buffer": 8.0}

    def test_rejects_bad_values(self):
        # a road built under another geometry would be judged under this one
        for params in ({"lane_width": 0}, {"lane_width": 3.5}, {"num_samples": 1},
                       {"num_samples": 50.5}, {"min_radius": -1}, {"map_size": 250.0}):
            with pytest.raises(ValueError, match="params"):
                road_from_dict(road_line(**params))
        data = road_line()
        del data["params"]["overlap_buffer"]
        with pytest.raises(ValueError, match="params"):
            road_from_dict(data)

    @pytest.mark.parametrize("name", ["lane_width", "min_radius", "map_size",
                                      "overlap_buffer", "num_samples"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        # with a NaN min_radius no road would ever be too sharp
        with pytest.raises(ValueError, match="params"):
            road_from_dict(road_line(**{name: value}))


class TestBuildRoad:
    def test_straight_boundaries(self):
        road = build_road(straight_cps())
        assert np.allclose(road.left_boundary[:, 1], 104.0)
        assert np.allclose(road.right_boundary[:, 1], 96.0)
        assert np.allclose(road.centerline[:, 1], 100.0)

    def test_point_counts_match(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = np.sort(rng.uniform(0, 200, (7, 2)), axis=0)
            road = build_road(ControlPointSet(pts))
            assert len(road.centerline) == len(road.left_boundary) == len(road.right_boundary)

    def test_right_curve_left_boundary_longer(self):
        # clockwise quarter arc: outer (left) boundary is longer
        road = build_road(arc_cps((100, 20), 80, 90, 10))
        left_len = polyline_lengths(road.left_boundary)[-1]
        right_len = polyline_lengths(road.right_boundary)[-1]
        assert left_len > right_len

    def test_offset_distance_is_lane_width(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pts = np.sort(rng.uniform(0, 200, (7, 2)), axis=0)
            road = build_road(ControlPointSet(pts))
            dl = np.linalg.norm(road.left_boundary - road.centerline, axis=1)
            dr = np.linalg.norm(road.right_boundary - road.centerline, axis=1)
            assert np.abs(dl - 4.0).max() < 1e-6
            assert np.abs(dr - 4.0).max() < 1e-6

    def test_arclength_spacing_nearly_uniform(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            pts = np.sort(rng.uniform(0, 200, (7, 2)), axis=0)
            road = build_road(ControlPointSet(pts))
            seg = np.linalg.norm(np.diff(road.centerline, axis=0), axis=1)
            assert seg.max() - seg.min() < 0.2 * seg.mean() * 2
            assert np.abs(seg - seg.mean()).max() < 0.2 * seg.mean()

    def test_build_is_deterministic(self):
        c = straight_cps()
        a = build_road(c)
        b = build_road(c)
        assert np.array_equal(a.centerline, b.centerline)
        assert np.array_equal(a.left_boundary, b.left_boundary)


class TestValidate:
    def test_straight_road_valid(self):
        report = validate(build_road(straight_cps()))
        assert report.valid
        assert report.violations == []

    def test_crossing_centerline_overlaps(self):
        # control polygon sweeps an X; the curve crosses itself
        pts = np.array([[40.0, 40.0], [180.0, 180.0], [180.0, 40.0],
                        [40.0, 180.0], [40.0, 100.0], [120.0, 100.0]])
        road = build_road(ControlPointSet(pts))
        report = validate(road)
        assert not report.valid
        assert OVERLAP in report.kinds()

    def test_tight_arc_too_sharp(self):
        # control points on a 3 m circle arc; resulting curve is sharper
        # than the 7 m minimum turning radius
        cps = arc_cps((100, 100), 3.0, 180, 0)
        road = build_road(cps)
        assert min_curvature_radius(road.centerline) < MIN_RADIUS
        report = validate(road)
        assert not report.valid
        assert TOO_SHARP in report.kinds()

    def test_boundary_out_of_map(self):
        # straight road hugging the top edge: left boundary leaves the map
        road = build_road(straight_cps(y=198.0))
        report = validate(road)
        assert OUT_OF_MAP in report.kinds()

    def test_too_short(self):
        pts = np.array([[100.0, 100.0], [101.0, 100.0], [102.0, 100.0]])
        road = build_road(ControlPointSet(pts))
        report = validate(road)
        assert TOO_SHORT in report.kinds()

    def test_valid_iff_no_violations(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pts = np.sort(rng.uniform(0, 200, (7, 2)), axis=0)
            report = validate(build_road(ControlPointSet(pts)))
            assert report.valid == (len(report.violations) == 0)

    def test_validate_deterministic(self):
        rng = np.random.default_rng(17)
        pts = np.sort(rng.uniform(0, 200, (7, 2)), axis=0)
        road = build_road(ControlPointSet(pts))
        a = validate(road)
        b = validate(road)
        assert a.valid == b.valid and a.kinds() == b.kinds()

    def test_overlap_monotone_in_buffer(self):
        # U-shaped road whose return pass sits ~12 m away
        pts = np.array([[20.0, 80.0], [120.0, 80.0], [170.0, 80.0],
                        [170.0, 92.0], [120.0, 92.0], [20.0, 92.0]])
        road = build_road(ControlPointSet(pts))
        exempt = FOLD_EXEMPT_LANE_WIDTHS * LANE_WIDTH
        flagged = []
        for buffer in (2.0, 6.0, 10.0, 14.0, 18.0, 24.0):
            flagged.append(_folds_back(road.centerline, buffer, exempt))
        # validate's OVERLAP is the same check at OVERLAP_BUFFER
        assert (OVERLAP in validate(road).kinds()) == \
            _folds_back(road.centerline, OVERLAP_BUFFER, exempt)
        # once flagged at some buffer, stays flagged for larger buffers
        for small, large in zip(flagged, flagged[1:]):
            assert (not small) or large
        assert flagged[-1]  # a 24 m buffer must catch a 12 m fold


EXEMPT_ARC = FOLD_EXEMPT_LANE_WIDTHS * LANE_WIDTH
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_roads.json").read_text())


def check_against_oracle(center, buffer=OVERLAP_BUFFER, exempt_arc=EXEMPT_ARC) -> bool:
    """Require the two-phase fold check to give the all-pairs verdict, to
    keep every pair that hits, and to compute each kept pair's arc gap and
    distance bit for bit as the all-pairs matrices do; returns the verdict."""
    center = np.asarray(center, dtype=float)
    hits = fold_hits(center, buffer, exempt_arc)
    assert _folds_back(center, buffer, exempt_arc) == hits.any()
    i, j, gap, dist = _near_pairs(center, buffer, exempt_arc)
    assert (j >= i + 2).all()
    assert set(zip(*np.nonzero(hits))) <= set(zip(i, j))
    cum = polyline_lengths(center)
    assert gap.tobytes() == (cum[j] - cum[i + 1]).tobytes()
    assert dist.tobytes() == segment_self_distances(center)[i, j].tobytes()
    return bool(hits.any())


@st.composite
def polylines(draw):
    # small integer grids give exact touches, collinear overlaps and
    # repeated points; the continuous draws give general position
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        coord = st.integers(0, 12).map(float)
    else:
        coord = st.floats(0, 40, allow_nan=False, allow_infinity=False)
    return np.array([[draw(coord), draw(coord)] for _ in range(n)])


class TestFoldCheckOracle:
    """``_folds_back`` against the all-pairs rule of ``geometry_oracles``."""

    def test_tiny_loop_crossing_inside_exempt_arc(self):
        # the fourth segment crosses the first 4 m of arc later
        loop = [[0, 0], [4, 0], [4, 2], [2, 2], [2, -2], [6, -2]]
        assert check_against_oracle(loop)

    def test_vertex_on_nonadjacent_segment(self):
        # the last vertex lies on the first segment: distance 0, no proper crossing
        touch = np.array([[0, 0], [10, 0], [10, 5], [5, 5], [5, 0]], dtype=float)
        assert segment_self_distances(touch)[0, 3] == 0.0
        assert check_against_oracle(touch)
        touch[-1, 1] = 1e-9  # a hair above it, and within the exempt arc
        assert not check_against_oracle(touch)

    @pytest.mark.parametrize("offset, folds", [
        (OVERLAP_BUFFER, False), (np.nextafter(OVERLAP_BUFFER, 0.0), True)])
    def test_parallel_return_pass_at_the_buffer(self, offset, folds):
        # out along y = 0 and back along y = offset, 48 m of arc later
        u_turn = [[0, 0], [100, 0], [120, 0], [120, offset], [100, offset], [0, offset]]
        assert check_against_oracle(u_turn) is folds

    def test_touch_one_ulp_outside_the_box(self, monkeypatch):
        # a + (b - a) rounds one ulp past b in x, so a later vertex there
        # projects onto the first segment at distance exactly 0 while its
        # segments' boxes lie an ulp outside the first one's
        a, b = np.array([14.672525713279342, 11.92283054479322]), \
            np.array([160.3788111780643, 120.27014453209075])
        p = a + (b - a)
        assert p[0] == np.nextafter(b[0], np.inf) and p[1] == b[1]
        turn = b + [-5.0, -30.0]
        points = [a, b, turn, [p[0], turn[1]], p, p + [10.0, 10.0]]
        # with the whole curve exempt, only distance 0 counts
        assert check_against_oracle(points, exempt_arc=1000.0)
        monkeypatch.setattr(road_module, "BOX_MARGIN", 0.0)
        assert not _folds_back(np.array(points), OVERLAP_BUFFER, 1000.0)

    def test_collinear_overlapping_segments(self):
        # back over the first segment along the same line: far along the
        # arc, and within the exempt arc, where only distance 0 counts
        assert check_against_oracle([[0, 0], [60, 0], [100, 0], [80, 0], [20, 0]])
        check_against_oracle([[0, 0], [6, 0], [10, 0], [8, 0], [2, 0]])
        check_against_oracle([[0, 0], [6, 3], [10, 5], [8, 4], [2, 1]])

    def test_straight_road_has_no_candidate_pairs(self):
        assert len(_near_pairs(build_road(straight_cps()).centerline,
                               OVERLAP_BUFFER, EXEMPT_ARC)[0]) == 0

    def test_golden_centerlines(self):
        folds = 0
        for entry in GOLDEN["entries"]:
            center = build_road(ControlPointSet(np.asarray(entry["points"]))).centerline
            folds += check_against_oracle(center)
        assert folds == sum(OVERLAP in e["kinds"] for e in GOLDEN["entries"]) > 0

    @given(polylines(), st.sampled_from([0.0, 1.0, 2.5, OVERLAP_BUFFER]),
           st.sampled_from([0.0, 3.0, EXEMPT_ARC]))
    @settings(max_examples=300, deadline=None)
    def test_random_polylines(self, points, buffer, exempt_arc):
        check_against_oracle(points, buffer, exempt_arc)


class TestSerialization:
    def test_round_trip(self):
        road = build_road(straight_cps())
        data = road_to_dict(road)
        back = road_from_dict(data)
        assert np.allclose(back.centerline, road.centerline)
        assert np.allclose(back.left_boundary, road.left_boundary)
        assert np.allclose(back.right_boundary, road.right_boundary)
        assert road_to_dict(back) == data
        assert len(road.centerline) == NUM_SAMPLES

    def test_schema_keys(self):
        data = road_to_dict(build_road(straight_cps()))
        assert set(data) == {"centerline", "left_boundary", "right_boundary", "params"}
        assert set(data["params"]) == {"lane_width", "num_samples", "min_radius",
                                       "map_size", "overlap_buffer"}
