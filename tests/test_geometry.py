import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsearch.geometry import (
    FRECHET_CHUNK,
    ControlPointSet,
    frechet_pairs,
    min_curvature_radius,
    polyline_lengths,
    sample_bezier,
)
from roadsearch.road import build_road

from geometry_oracles import (
    bezier_point,
    convex_clip_area,
    discrete_frechet_reference,
    frechet_bruteforce,
    polygon_area,
    self_intersects,
)

GOLDEN = Path(__file__).parent / "data" / "golden_roads.json"


def cps(points):
    return ControlPointSet(np.asarray(points, dtype=float))


class TestControlPointSet:
    def test_rejects_out_of_map(self):
        with pytest.raises(ValueError):
            cps([[0, 0], [250, 10]])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            cps([[1, 1]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cps([[0, 0], [np.nan, 1]])
        with pytest.raises(ValueError):
            cps([[0, 0], [np.inf, 1]])


class TestBezierPoint:
    def test_linear_midpoint(self):
        p = bezier_point(cps([[0, 0], [10, 0]]), 0.5)
        assert np.allclose(p, [5, 0])

    def test_endpoints(self):
        c = cps([[0, 0], [2, 2], [4, 0]])
        assert np.allclose(bezier_point(c, 0.0), [0, 0])
        assert np.allclose(bezier_point(c, 1.0), [4, 0])

    def test_quadratic_midpoint(self):
        # B(1/2) = P0/4 + P1/2 + P2/4
        p = bezier_point(cps([[0, 0], [2, 2], [4, 0]]), 0.5)
        assert np.allclose(p, [2, 1])

    def test_t_out_of_range(self):
        c = cps([[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            bezier_point(c, 1.5)
        with pytest.raises(ValueError):
            bezier_point(c, -0.1)


class TestSampleBezier:
    def test_linear(self):
        pts = sample_bezier(cps([[0, 0], [10, 0]]), 3)
        assert np.allclose(pts, [[0, 0], [5, 0], [10, 0]])

    def test_two_samples_are_endpoints(self):
        pts = sample_bezier(cps([[0, 0], [2, 2], [4, 0]]), 2)
        assert np.allclose(pts, [[0, 0], [4, 0]])

    def test_quadratic_five_samples(self):
        # de Casteljau by hand at t in {0, 1/4, 1/2, 3/4, 1}
        pts = sample_bezier(cps([[0, 0], [2, 2], [4, 0]]), 5)
        assert np.allclose(pts, [[0, 0], [1, 0.75], [2, 1], [3, 0.75], [4, 0]])

    def test_coincident_samples_collapse(self):
        # both control points identical except the last: early samples repeat
        pts = sample_bezier(cps([[1, 1], [1, 1], [1, 1], [2, 1]]), 50)
        d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert (d > 0).all()

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            sample_bezier(cps([[0, 0], [1, 0]]), 1)


@st.composite
def polylines(draw, max_points=5):
    n = draw(st.integers(1, max_points))
    coords = st.floats(0, 10, allow_nan=False, allow_infinity=False)
    return np.array([[draw(coords), draw(coords)] for _ in range(n)])


class TestDiscreteFrechet:
    def test_single_points(self):
        assert frechet_pairs([[0, 0]], [[3, 4]])[0] == pytest.approx(5.0)

    def test_identity(self):
        p = np.array([[0, 0], [1, 2], [3, 3], [5, 1]], dtype=float)
        assert frechet_pairs(p, p)[0] == 0.0

    def test_translated_line(self):
        p = [[0, 0], [1, 0], [2, 0]]
        q = [[0, 1], [1, 1], [2, 1]]
        assert frechet_pairs(p, q)[0] == pytest.approx(1.0)

    def test_matches_bruteforce_on_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            p = rng.uniform(0, 10, size=(rng.integers(1, 6), 2))
            q = rng.uniform(0, 10, size=(rng.integers(1, 6), 2))
            assert abs(frechet_pairs(p, q)[0] - frechet_bruteforce(p, q)) <= 1e-9

    @given(polylines(), polylines())
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, p, q):
        assert frechet_pairs(p, q)[0] == pytest.approx(frechet_pairs(q, p)[0], abs=1e-12)

    @given(polylines())
    @settings(max_examples=50, deadline=None)
    def test_lower_bound_first_last(self, p):
        rng = np.random.default_rng(0)
        q = p + rng.uniform(-1, 1, size=(1, 2))
        d = frechet_pairs(p, q)[0]
        assert d >= np.linalg.norm(p[0] - q[0]) - 1e-12
        assert d >= np.linalg.norm(p[-1] - q[-1]) - 1e-12

    @given(polylines(), polylines(),
           st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=80, deadline=None)
    def test_translation_invariance(self, p, q, dx, dy):
        t = np.array([dx, dy])
        assert frechet_pairs(p + t, q + t)[0] == pytest.approx(
            frechet_pairs(p, q)[0], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frechet_pairs(np.empty((0, 2)), [[1, 1]])[0]


@pytest.fixture(scope="module")
def golden_centerlines():
    entries = json.loads(GOLDEN.read_text())["entries"][:20]
    return [build_road(ControlPointSet(np.asarray(e["points"]))).centerline
            for e in entries]


def reference(ps, qs):
    return np.array([discrete_frechet_reference(p, q) for p, q in zip(ps, qs)])


class TestFrechetPairs:
    """The batched kernel must equal the row-by-row reference DP exactly."""

    def test_all_pairs_of_golden_centerlines(self, golden_centerlines):
        curves = golden_centerlines
        rows, cols = np.triu_indices(len(curves), k=1)
        ps, qs = [curves[i] for i in rows], [curves[j] for j in cols]
        assert len(ps) > FRECHET_CHUNK  # spans more than one sweep
        got = frechet_pairs(ps, qs)
        assert np.array_equal(got, reference(ps, qs))
        assert np.array_equal(frechet_pairs(np.stack(ps), np.stack(qs)), got)

    def test_unequal_lengths(self, golden_centerlines):
        rng = np.random.default_rng(5)
        ps = [c[:int(rng.integers(1, 101))] for c in golden_centerlines]
        qs = [c[int(rng.integers(0, 100)):] for c in golden_centerlines[::-1]]
        assert len({len(p) for p in ps}) > 1 and len({len(q) for q in qs}) > 1
        assert np.array_equal(frechet_pairs(ps, qs), reference(ps, qs))

    def test_one_point_curves(self):
        rng = np.random.default_rng(6)
        ps = [rng.uniform(0, 10, (1, 2)) for _ in range(6)]
        qs = [rng.uniform(0, 10, (n, 2)) for n in (1, 1, 2, 3, 5, 8)]
        assert np.array_equal(frechet_pairs(ps, qs), reference(ps, qs))
        assert np.array_equal(frechet_pairs(qs, ps), reference(qs, ps))
        assert frechet_pairs([[0, 0]], [[3, 4]]).tolist() == [5.0]

    def test_one_curve_broadcasts_against_a_stack(self, golden_centerlines):
        cand, curves = golden_centerlines[0], golden_centerlines[1:13]
        want = reference([cand] * len(curves), curves)
        assert np.array_equal(frechet_pairs(cand, curves), want)
        assert np.array_equal(frechet_pairs(curves, cand), reference(curves, [cand] * 12))
        assert np.array_equal(frechet_pairs(cand, np.stack(curves)), want)

    def test_single_pair_matches_reference(self, golden_centerlines):
        p, q = golden_centerlines[3], golden_centerlines[7]
        assert frechet_pairs(p, q)[0] == discrete_frechet_reference(p, q)

    def test_empty_batch_and_mismatched_counts(self):
        assert frechet_pairs([], [[0, 0], [1, 0]]).shape == (0,)
        with pytest.raises(ValueError):
            frechet_pairs([[[0, 0]], [[1, 1]]], [[[0, 0]], [[1, 1]], [[2, 2]]])
        with pytest.raises(ValueError):
            frechet_pairs([np.empty((0, 2))], [[[0, 0]]])

    @given(st.lists(st.tuples(polylines(max_points=6), polylines(max_points=6)),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_bruteforce(self, pairs):
        ps, qs = [p for p, _ in pairs], [q for _, q in pairs]
        got = frechet_pairs(ps, qs)
        assert got.tolist() == [frechet_bruteforce(p, q) for p, q in pairs]
        assert np.array_equal(got, reference(ps, qs))


class TestFrechetBruteforce:
    def test_single_pair(self):
        assert frechet_bruteforce([[0, 0]], [[3, 4]]) == pytest.approx(5.0)

    def test_identical_two_point_lines(self):
        assert frechet_bruteforce([[0, 0], [1, 0]], [[0, 0], [1, 0]]) == 0.0

    def test_forced_coupling(self):
        # q has one point: coupling forced, distance = max(1, sqrt(5))
        assert frechet_bruteforce([[0, 0], [2, 0]], [[0, 1]]) == pytest.approx(math.sqrt(5))

    def test_refuses_large_inputs(self):
        p = np.zeros((9, 2))
        q = np.zeros((9, 2))
        with pytest.raises(ValueError):
            frechet_bruteforce(p, q)


class TestSelfIntersects:
    def test_straight_line(self):
        assert not self_intersects([[0, 0], [1, 0], [2, 0]], 0.1)

    def test_figure_eight_crossing(self):
        assert self_intersects([[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]], 0.0)

    def test_parallel_passes_buffer(self):
        # out along y=0, back along y=1: non-adjacent segments 1 m apart
        p = [[0, 0], [10, 0], [10, 1], [0, 1]]
        assert self_intersects(p, 4.0)
        assert not self_intersects(p, 0.5)

    def test_negative_buffer_rejected(self):
        with pytest.raises(ValueError):
            self_intersects([[0, 0], [1, 0], [2, 0]], -1.0)


class TestMinCurvatureRadius:
    def test_circle_samples(self):
        ang = np.radians(np.arange(0, 360, 10))
        circle = 50.0 * np.column_stack([np.cos(ang), np.sin(ang)])
        assert min_curvature_radius(circle) == pytest.approx(50.0, abs=0.5)

    def test_collinear_is_infinite(self):
        assert min_curvature_radius([[0, 0], [1, 0], [2, 0], [3, 0]]) == np.inf

    def test_right_isoceles(self):
        assert min_curvature_radius([[0, 0], [1, 1], [2, 0]]) == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            min_curvature_radius([[0, 0], [1, 0]])


class TestBezierProperties:
    def test_endpoint_interpolation_random(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = rng.integers(2, 10)
            c = ControlPointSet(rng.uniform(0, 200, (n, 2)))
            assert np.linalg.norm(bezier_point(c, 0.0) - c.points[0]) < 1e-9
            assert np.linalg.norm(bezier_point(c, 1.0) - c.points[-1]) < 1e-9

    def test_convex_hull_containment(self):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            pts = rng.uniform(0, 200, (n, 2))
            c = ControlPointSet(pts)
            try:
                hull = scipy_spatial.ConvexHull(pts)
            except scipy_spatial.QhullError:
                continue  # degenerate (collinear) control polygon
            ts = rng.uniform(0, 1, 100)
            curve = np.array([bezier_point(c, t) for t in ts])
            # inside all hull half-planes up to tolerance
            dist = curve @ hull.equations[:, :2].T + hull.equations[:, 2]
            assert dist.max() <= 1e-9


class TestClipping:
    def test_polygon_area_square(self):
        assert polygon_area([[0, 0], [2, 0], [2, 2], [0, 2]]) == pytest.approx(4.0)

    def test_disjoint(self):
        sq = [[0, 0], [1, 0], [1, 1], [0, 1]]
        far = [[5, 5], [6, 5], [6, 6], [5, 6]]
        assert convex_clip_area(sq, far) == 0.0

    def test_contained(self):
        inner = [[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]]
        outer = [[0, 0], [1, 0], [1, 1], [0, 1]]
        assert convex_clip_area(inner, outer) == pytest.approx(0.25)

    def test_half_overlap(self):
        a = [[0, 0], [2, 0], [2, 1], [0, 1]]
        b = [[1, -1], [3, -1], [3, 2], [1, 2]]
        assert convex_clip_area(a, b) == pytest.approx(1.0)

    def test_clipper_orientation_irrelevant(self):
        a = [[0, 0], [2, 0], [2, 1], [0, 1]]
        b_ccw = [[1, -1], [3, -1], [3, 2], [1, 2]]
        b_cw = b_ccw[::-1]
        assert convex_clip_area(a, b_cw) == pytest.approx(convex_clip_area(a, b_ccw))


def test_polyline_lengths():
    cum = polyline_lengths([[0, 0], [3, 4], [3, 10]])
    assert np.allclose(cum, [0, 5, 11])
