import math
from unittest import mock

import numpy as np
import pytest

from roadsearch import search
from roadsearch.geometry import ControlPointSet, frechet_pairs
from roadsearch.search import (
    FAIL,
    INVALID,
    INVALID_SEED_ACCEPT_PROB,
    PASS,
    FailureArchive,
    Individual,
    SearchConfig,
    builtin_driver,
    crossover,
    evaluate,
    guided_seed_individual,
    mutate,
    _pairwise_frechet,
    novelty_accept,
    random_individual,
    run_search,
    select,
)
from roadsearch.protocol import SutDescriptor
from roadsearch.report import archive_to_dict
from roadsearch.road import RoadSpec, ValidityReport
from roadsearch.simulator import VehicleParams

from geometry_oracles import population_avg_frechet
from make_golden_searches import polygon_road
from test_simulator import FAILING_POINTS, WIGGLY_POINTS


class FakeRng:
    """Scripted RNG: hands out pre-chosen values in call order."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self, size=None):
        if size is None:
            return self._randoms.pop(0)
        return np.array([self._randoms.pop(0) for _ in range(size)])

    def integers(self, low, high=None, size=None):
        if size is None:
            return self._integers.pop(0)
        return np.array([self._integers.pop(0) for _ in range(size)])

    def uniform(self, low, high, size=None):
        return (np.asarray(low) + np.asarray(high)) / 2.0


def make_ind(points, fitness=None, verdict=None):
    ind = Individual(ControlPointSet(np.asarray(points, float)))
    ind.fitness, ind.verdict = fitness, verdict
    return ind


def stub_evaluator(fitness_fn, verdict_fn=None):
    def _eval(ind):
        ind.fitness = fitness_fn(ind.genotype)
        ind.verdict = verdict_fn(ind.genotype) if verdict_fn else PASS
        return ind
    return _eval


@pytest.fixture
def polygon_roads():
    """Individuals' roads are their control polygons, and a road is
    valid when its first point lies below y = 100. Patched apart from
    ``monkeypatch``, which some tests undo mid-test."""
    low_start = lambda road: ValidityReport(valid=road.centerline[0, 1] < 100.0)
    with mock.patch.object(search, "build_road", polygon_road), \
            mock.patch.object(search, "validate", low_start):
        yield


class TestSearchConfig:
    def test_population_defaults_per_variant(self):
        assert SearchConfig(variant="A").population_size == 25
        assert SearchConfig(variant="B").population_size == 25
        assert SearchConfig(variant="C").population_size == 15

    def test_budget_default(self):
        assert SearchConfig().max_evaluations == 300

    def test_ranges(self):
        with pytest.raises(ValueError):
            SearchConfig(variant="D")
        with pytest.raises(ValueError):
            SearchConfig(population_size=1)

    @pytest.mark.parametrize("bad", [
        {"max_evaluations": math.nan}, {"max_evaluations": math.inf},
        {"population_size": math.nan}, {"population_size": math.inf},
        # a float count crashes range() or numpy mid-run
        {"population_size": 2.5}, {"population_size": 25.0},
        {"max_evaluations": 60.5},
        # None once meant the default budget; a string is no switch
        {"max_evaluations": None},
        {"novelty_filter": "false"}, {"novelty_filter": 1},
    ], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
    def test_non_finite_rejected(self, bad):
        # a NaN or infinite max_evaluations budget would never run out
        with pytest.raises(ValueError):
            SearchConfig(**bad)

    @pytest.mark.parametrize("seed", [1.5, 1.0, -1, True, "1", None])
    def test_seed_must_be_non_negative_integer(self, seed):
        # a float seed used to pass and crash the run inside numpy
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert SearchConfig(seed=np.int64(3)).seed == 3


class TestRandomIndividual:
    def test_shape_and_bounds(self):
        rng = np.random.default_rng(0)
        ind = random_individual(rng)
        pts = ind.genotype.points
        assert pts.shape == (7, 2)
        assert pts.min() >= 0.0 and pts.max() <= 200.0
        assert ind.fitness is None and ind.verdict is None

    def test_sorted_by_x(self):
        rng = np.random.default_rng(1)
        ind = random_individual(rng)
        xs = ind.genotype.points[:, 0]
        assert (np.diff(xs) >= 0).all()

    def test_same_seed_same_individual(self):
        a = random_individual(np.random.default_rng(42))
        b = random_individual(np.random.default_rng(42))
        assert np.array_equal(a.genotype.points, b.genotype.points)

    def test_uniform_mean(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([random_individual(rng).genotype.points
                         for _ in range(1000)])
        assert 90 < pts[:, 0].mean() < 110
        assert 90 < pts[:, 1].mean() < 110


class TestEvaluate:
    def test_collinear_road_passes_with_zero(self):
        pts = np.column_stack([np.linspace(10, 190, 7), np.full(7, 100.0)])
        ind = make_ind(pts)
        evaluate(ind, builtin_driver(VehicleParams()))
        assert ind.verdict == PASS
        assert ind.fitness == 0.0
        assert ind.validity.valid and len(ind.road.centerline) > 0

    def test_self_crossing_polygon_invalid(self):
        pts = [[40, 40], [180, 180], [180, 40], [40, 180], [40, 100], [120, 100], [150, 100]]
        ind = make_ind(pts)
        evaluate(ind, builtin_driver(VehicleParams()))
        assert ind.verdict == INVALID
        assert ind.fitness == 0.0

    def test_wiggly_road_nonzero_fitness_at_speed(self):
        ind = make_ind(WIGGLY_POINTS)
        evaluate(ind, builtin_driver(VehicleParams(speed=25.0)))
        assert ind.verdict in (PASS, FAIL)
        assert ind.fitness > 0.0

    def test_invalid_road_not_driven(self):
        pts = [[40, 40], [180, 180], [180, 40], [40, 180], [40, 100], [120, 100], [150, 100]]
        driven = []
        ind = make_ind(pts)
        evaluate(ind, driven.append)
        assert ind.verdict == INVALID and driven == []

    def test_double_evaluate_rejected(self):
        ind = make_ind(WIGGLY_POINTS, fitness=1.0, verdict=PASS)
        with pytest.raises(ValueError):
            evaluate(ind, builtin_driver(VehicleParams()))


class TestSelect:
    def test_single_individual(self):
        pop = [make_ind([[0, 0], [1, 1], [2, 2]], fitness=5.0, verdict=PASS)]
        rng = np.random.default_rng(0)
        assert select(pop, rng) is pop[0]

    def test_best_always_wins_its_tournaments(self):
        pop = [make_ind([[i, 0], [i + 1, 1], [i + 2, 2]], fitness=f, verdict=PASS)
               for i, f in enumerate([10.0, 99.0, 50.0])]
        rng = FakeRng(integers=[1, 2])  # best (index 1) vs index 2
        assert select(pop, rng) is pop[1]

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            select([], np.random.default_rng(0))

    def test_tournament_probabilities(self):
        # size-2 tournaments with replacement over fitnesses [0, 50, 100]:
        # win chances 1/9, 3/9, 5/9
        pop = [make_ind([[i, 0], [i + 1, 1], [i + 2, 2]], fitness=f, verdict=PASS)
               for i, f in enumerate([0.0, 50.0, 100.0])]
        assert search.TOURNAMENT_SIZE == 2
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        n = 10000
        for _ in range(n):
            winner = select(pop, rng)
            counts[next(i for i, p in enumerate(pop) if p is winner)] += 1
        expected = np.array([1, 3, 5]) / 9 * n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 16.27  # p ~ 3e-4 for 2 dof

    def test_ties_break_to_lower_index(self):
        pop = [make_ind([[i, 0], [i + 1, 1], [i + 2, 2]], fitness=1.0, verdict=PASS)
               for i in range(3)]
        rng = FakeRng(integers=[2, 0])
        assert select(pop, rng) is pop[0]


class TestCrossover:
    def test_no_crossover_copies_parents(self, monkeypatch):
        monkeypatch.setattr(search, "CROSSOVER_PROB", 0.0)
        a = make_ind([[0, 0], [1, 1], [2, 2], [3, 3]])
        b = make_ind([[0, 5], [1, 6], [2, 7], [3, 8]])
        c1, c2 = crossover(a, b, np.random.default_rng(0))
        assert np.array_equal(c1.genotype.points, a.genotype.points)
        assert np.array_equal(c2.genotype.points, b.genotype.points)
        assert c1.fitness is None and c2.fitness is None

    def test_identical_parents_identical_children(self, monkeypatch):
        monkeypatch.setattr(search, "CROSSOVER_PROB", 1.0)
        a = make_ind([[0, 0], [1, 1], [2, 2], [3, 3]])
        b = make_ind([[0, 0], [1, 1], [2, 2], [3, 3]])
        c1, c2 = crossover(a, b, np.random.default_rng(1))
        assert np.array_equal(c1.genotype.points, a.genotype.points)
        assert np.array_equal(c2.genotype.points, a.genotype.points)

    def test_one_point_cut_semantics(self):
        a = make_ind([[0, 0], [1, 1], [2, 2], [3, 3]])
        b = make_ind([[0, 5], [1, 6], [2, 7], [3, 8]])
        rng = FakeRng(randoms=[0.0], integers=[2])  # crossover fires, cut at 2
        c1, c2 = crossover(a, b, rng)
        assert np.array_equal(c1.genotype.points,
                              [[0, 0], [1, 1], [2, 7], [3, 8]])
        assert np.array_equal(c2.genotype.points,
                              [[0, 5], [1, 6], [2, 2], [3, 3]])

    def test_length_mismatch_rejected(self):
        a = make_ind([[0, 0], [1, 1], [2, 2]])
        b = make_ind([[0, 0], [1, 1], [2, 2], [3, 3]])
        with pytest.raises(ValueError):
            crossover(a, b, np.random.default_rng(0))


class TestMutate:
    def test_zero_probability_unchanged(self, monkeypatch):
        monkeypatch.setattr(search, "MUTATION_PROB", 0.0)
        ind = make_ind([[10, 10], [20, 20], [30, 30]])
        out = mutate(ind, np.random.default_rng(0))
        assert np.array_equal(out.genotype.points, ind.genotype.points)

    def test_moves_stay_in_map(self, monkeypatch):
        monkeypatch.setattr(search, "MUTATION_PROB", 1.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            ind = random_individual(rng)
            out = mutate(ind, rng)
            pts = out.genotype.points
            assert pts.min() >= 0.0 and pts.max() <= 200.0

    def test_chebyshev_distance_bounded(self, monkeypatch):
        monkeypatch.setattr(search, "MUTATION_PROB", 1.0)
        rng = np.random.default_rng(9)
        pts = np.array([[50.0, 50.0], [100.0, 100.0], [150.0, 150.0]])
        for _ in range(200):
            out = mutate(make_ind(pts), rng)
            # points are far apart, so sorting keeps the pairing
            d = np.abs(out.genotype.points - pts)
            assert d.max() <= search.MUTATION_RANGE + 1e-12

    def test_probability_one_moves_every_point(self, monkeypatch):
        monkeypatch.setattr(search, "MUTATION_PROB", 1.0)
        rng = np.random.default_rng(11)
        pts = np.array([[50.0, 50.0], [100.0, 100.0], [150.0, 150.0]])
        for _ in range(1000):
            out = mutate(make_ind(pts), rng)
            d = np.abs(out.genotype.points - pts)
            assert (d.max(axis=1) > 0).all()

    def test_fitness_reset(self, monkeypatch):
        monkeypatch.setattr(search, "MUTATION_PROB", 0.5)
        ind = make_ind([[10, 10], [20, 20], [30, 30]], fitness=3.0, verdict=PASS)
        out = mutate(ind, np.random.default_rng(0))
        assert out.fitness is None and out.verdict is None


class TestPopulationAvgFrechet:
    def test_identical_curves_zero(self):
        c = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert population_avg_frechet([c, c.copy()]) == 0.0

    def test_single_curve_is_na(self):
        assert population_avg_frechet([np.array([[0.0, 0.0], [1.0, 0.0]])]) is None
        assert population_avg_frechet([]) is None

    def test_three_curves_mean(self):
        # single-point curves at a 3-4-5 triangle: pairwise {3, 4, 5}
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 0.0]])
        c = np.array([[0.0, 4.0]])
        assert population_avg_frechet([a, b, c]) == pytest.approx(4.0)


def novelty_accept_from_scratch(candidate, curves) -> bool:
    """Reference novelty rule that rebuilds the population's whole
    Frechet matrix on every call."""
    n = len(curves)
    if n < 2:
        return True
    d = np.array([frechet_pairs(candidate, c)[0] for c in curves])
    j = int(np.argmin(d))
    mat = _pairwise_frechet(curves)
    pairs = n * (n - 1) / 2
    old_sum = mat[np.triu_indices(n, k=1)].sum()
    new_sum = old_sum - mat[j].sum() + (d.sum() - d[j])
    return new_sum / pairs > old_sum / pairs


class TestNoveltyAccept:
    def test_identical_candidate_rejected(self):
        curves = [np.array([[0.0, 0.0], [1.0, 0.0]]),
                  np.array([[0.0, 5.0], [1.0, 5.0]])]
        assert not novelty_accept(curves[0].copy(), curves, _pairwise_frechet(curves))

    def test_distant_candidate_accepted(self):
        cluster = [np.array([[0.0, 0.0], [1.0, 0.0]]) for _ in range(3)]
        far = np.array([[50.0, 50.0], [51.0, 50.0]])
        assert novelty_accept(far, cluster, _pairwise_frechet(cluster))

    def test_matches_bruteforce_recomputation(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            curves = [rng.uniform(0, 100, (4, 2)) for _ in range(5)]
            cand = rng.uniform(0, 100, (4, 2))
            got = novelty_accept(cand, curves, _pairwise_frechet(curves))
            # brute force: recompute both averages from scratch
            old = population_avg_frechet(curves)
            j = int(np.argmin([frechet_pairs(cand, c)[0] for c in curves]))
            swapped = list(curves)
            swapped[j] = cand
            new = population_avg_frechet(swapped)
            assert got == (new > old)


class TestFailureArchive:
    @staticmethod
    def failing(*xs):
        # one failing individual per x, its road a 1 m segment starting there
        inds = []
        for x in xs:
            ind = make_ind([[0, 0], [1, 1], [2, 2]], fitness=99.0, verdict=FAIL)
            c = np.array([[x, 0.0], [x + 1.0, 0.0]])
            ind.road = RoadSpec(c, c, c)
            inds.append(ind)
        return inds

    def test_only_failures_accepted(self):
        passing = make_ind([[0, 0], [1, 1], [2, 2]], fitness=0.0, verdict=PASS)
        with pytest.raises(ValueError, match="only holds failing"):
            FailureArchive(self.failing(0.0) + [passing])

    def test_aggregates(self):
        arch = FailureArchive(self.failing(0.0, 3.0))
        assert arch.avg_frechet() == pytest.approx(3.0)
        assert arch.max_frechet() == pytest.approx(3.0)

    def test_avg_and_max_share_one_matrix(self, monkeypatch):
        calls = []
        kernel = search.frechet_pairs

        def counted(a, b):
            calls.append(len(a))
            return kernel(a, b)

        monkeypatch.setattr(search, "frechet_pairs", counted)
        arch = FailureArchive(self.failing(0.0, 3.0, 10.0))
        assert arch.avg_frechet() == pytest.approx((3.0 + 10.0 + 7.0) / 3)
        assert arch.max_frechet() == pytest.approx(10.0)
        assert arch.pairwise().shape == (3, 3)
        assert calls == [3]  # one batched call for the three pairs

    def test_na_below_two(self):
        assert FailureArchive([]).avg_frechet() is None
        arch = FailureArchive(self.failing(0.0))
        assert arch.avg_frechet() is None and arch.max_frechet() is None


def fitness_by_mean_y(cps):
    return float(cps.points[:, 1].mean()) / 2.0


class TestRunSearch:
    def test_budget_arithmetic_variant_a(self):
        # pop 25, budget 50: exactly one seed generation and one offspring
        # generation, no restarts
        cfg = SearchConfig(variant="A", max_evaluations=50, seed=3)
        report = run_search(cfg, stub_evaluator(fitness_by_mean_y))
        kinds = [e["kind"] for e in report.events]
        assert kinds.count("SEED") == 1
        assert kinds.count("GENERATION") == 1
        assert kinds.count("RESEED") == 0
        assert kinds[-1] == "BUDGET_EXHAUSTED"
        assert report.aggregates["T"] == 50

    def test_variant_b_reseeds_after_every_fail(self):
        always_fail = stub_evaluator(lambda c: 100.0, lambda c: FAIL)
        cfg = SearchConfig(variant="B", max_evaluations=10, seed=5)
        report = run_search(cfg, always_fail)
        kinds = [e["kind"] for e in report.events]
        assert kinds.count("FAIL") == 10
        assert kinds.count("RESEED") == 10
        for i, kind in enumerate(kinds):
            if kind == "FAIL":
                assert kinds[i + 1] == "RESEED"
        assert report.aggregates["F"] == 10

    def test_variant_a_never_reseeds_on_fail(self):
        always_fail = stub_evaluator(lambda c: 100.0, lambda c: FAIL)
        cfg = SearchConfig(variant="A", max_evaluations=30, seed=5)
        report = run_search(cfg, always_fail)
        kinds = [e["kind"] for e in report.events]
        assert kinds.count("RESEED") == 0
        assert report.aggregates["F"] == 30

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_records_are_the_evaluated_individuals(self, variant):
        received = []
        fails_high = lambda c: FAIL if c.points[:, 1].mean() > 120 else PASS
        stub = stub_evaluator(fitness_by_mean_y, fails_high)

        def evaluator(ind):
            received.append(ind)
            return stub(ind)

        cfg = SearchConfig(variant=variant, max_evaluations=60, seed=3)
        report = run_search(cfg, evaluator)
        assert len(report.records) == len(received) == 60
        assert all(r is ind for r, ind in zip(report.records, received))
        assert len({id(r) for r in report.records}) == 60
        assert all(r.eval_time is not None and r.eval_time >= 0 for r in report.records)
        fail_tests = [e["test"] for e in report.events if e["kind"] == "FAIL"]
        assert fail_tests
        assert fail_tests == [i for i, r in enumerate(report.records) if r.verdict == FAIL]

        archive = archive_to_dict(report, VehicleParams(speed=25.0), SutDescriptor())
        for i, rec in enumerate(archive["records"]):
            assert rec["id"] == i
            assert list(rec) == ["id", "genotype", "verdict", "fitness", "eval_time", "error"]

    def test_guided_seed_fraction(self, polygon_roads):
        # validity cuts the genotype space in half; guided draws accept
        # invalid candidates with probability 0.25, so the valid share of
        # accepted candidates approaches 0.5/(0.5 + 0.5*0.25) = 0.8
        rng = np.random.default_rng(17)
        n = 100000
        valid = sum(guided_seed_individual(rng).genotype.points[0, 1] < 100.0
                    for _ in range(n))
        frac = valid / n
        assert frac == pytest.approx(0.8, abs=0.01)
        # independent brute-force simulation of the same acceptance rule
        sim = np.random.default_rng(99)
        accepted = valid_accepted = 0
        while accepted < n:
            is_valid = sim.random() < 0.5
            if is_valid or sim.random() < INVALID_SEED_ACCEPT_PROB:
                accepted += 1
                valid_accepted += is_valid
        assert frac == pytest.approx(valid_accepted / accepted, abs=0.015)

    def test_variant_c_reseeds_are_guided(self, polygon_roads):
        # an always-failing evaluator forces a reseed per evaluation; the
        # reseeded (guided) records must lean valid, the first (unguided)
        # epoch is plain random
        always_fail = stub_evaluator(lambda c: 100.0, lambda c: FAIL)
        cfg = SearchConfig(variant="C", max_evaluations=400, seed=17)
        report = run_search(cfg, always_fail)
        flags = [r.genotype.points[0, 1] < 100.0 for r in report.records[1:]]
        assert np.mean(flags) == pytest.approx(0.8, abs=0.08)

    def test_counts_add_up(self):
        rng_verdict = lambda c: (FAIL if c.points[0, 1] > 190 else
                                 (INVALID if c.points[0, 1] < 60 else PASS))
        cfg = SearchConfig(variant="A", max_evaluations=120, seed=23)
        report = run_search(cfg, stub_evaluator(fitness_by_mean_y, rng_verdict))
        agg = report.aggregates
        assert agg["T"] == len(report.records) == 120
        assert agg["P"] + agg["I"] + agg["F"] == agg["T"]

    def test_budget_never_exceeded(self):
        for budget in (7, 25, 60):
            cfg = SearchConfig(variant="A", max_evaluations=budget, seed=2)
            report = run_search(cfg, stub_evaluator(fitness_by_mean_y))
            assert len(report.records) <= budget

    def test_partial_seed_flagged(self):
        cfg = SearchConfig(variant="A", max_evaluations=7, seed=2)
        report = run_search(cfg, stub_evaluator(fitness_by_mean_y))
        last = report.events[-1]
        assert last["kind"] == "BUDGET_EXHAUSTED"
        assert last["partial_seed"] is True

    @staticmethod
    def count_draws(monkeypatch, name):
        draws, draw = [], getattr(search, name)
        monkeypatch.setattr(search, name, lambda rng: draws.append(1) or draw(rng))
        return draws

    def test_no_seed_drawn_past_the_budget(self, monkeypatch):
        # the budget is checked before each seed is drawn, not after
        draws = self.count_draws(monkeypatch, "random_individual")
        cfg = SearchConfig(variant="A", population_size=25, max_evaluations=7, seed=2)
        report = run_search(cfg, stub_evaluator(fitness_by_mean_y))
        assert report.aggregates["T"] == 7
        assert len(draws) == 7

    def test_no_guided_seed_drawn_past_the_budget(self, monkeypatch, polygon_roads):
        # the first test fails and variant C reseeds, guided; the budget
        # ends five tests into that batch of 15
        draws = self.count_draws(monkeypatch, "guided_seed_individual")
        verdicts = iter([FAIL])
        evaluator = stub_evaluator(fitness_by_mean_y, lambda c: next(verdicts, PASS))
        cfg = SearchConfig(variant="C", max_evaluations=6, seed=4)
        report = run_search(cfg, evaluator)
        assert [(e["kind"], e.get("guided")) for e in report.events] == [
            ("SEED", False), ("FAIL", None), ("RESEED", None), ("SEED", True),
            ("BUDGET_EXHAUSTED", None)]
        assert len(draws) == report.aggregates["T"] - 1 == 5

    def test_genotype_closure(self):
        cfg = SearchConfig(variant="A", max_evaluations=150, seed=29)
        report = run_search(cfg, stub_evaluator(fitness_by_mean_y))
        for rec in report.records:
            pts = rec.genotype.points
            assert pts.shape == (7, 2)
            assert pts.min() >= 0.0 and pts.max() <= 200.0

    def test_running_best_monotone_within_epoch(self):
        cfg = SearchConfig(variant="A", max_evaluations=125, seed=31)
        report = run_search(cfg, stub_evaluator(fitness_by_mean_y))
        # generation blocks of 25; the best fitness seen so far never drops
        fits = [r.fitness for r in report.records]
        block_best = [max(fits[i:i + 25]) for i in range(0, len(fits), 25)]
        running = np.maximum.accumulate(block_best)
        assert (np.diff(running) >= 0).all()

    def test_reproducible_with_builtin_evaluator(self):
        cfg = SearchConfig(variant="B", max_evaluations=30, seed=8)
        drive = builtin_driver(VehicleParams(speed=25.0))
        ev = lambda ind: evaluate(ind, drive)
        r1 = run_search(cfg, ev)
        r2 = run_search(cfg, ev)
        assert [e["kind"] for e in r1.events] == [e["kind"] for e in r2.events]
        assert [(r.verdict, r.fitness) for r in r1.records] == \
               [(r.verdict, r.fitness) for r in r2.records]
        assert r1.aggregates == r2.aggregates

    def test_novelty_filter_runs(self, polygon_roads):
        cfg = SearchConfig(variant="A", max_evaluations=60, seed=13,
                           novelty_filter=True)
        report = run_search(cfg, stub_evaluator(fitness_by_mean_y))
        assert report.aggregates["T"] <= 60
        assert report.events[-1]["kind"] == "BUDGET_EXHAUSTED"

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("seed", [3, 13, 29])
    def test_novelty_filter_same_run_as_from_scratch_rule(self, monkeypatch, polygon_roads,
                                                          variant, seed):
        cfg = SearchConfig(variant=variant, population_size=12,
                           max_evaluations=60, seed=seed, novelty_filter=True)
        fails_high = lambda c: FAIL if c.points[:, 1].mean() > 135 else PASS

        def run():
            decisions, selected_from = [], []
            rule, tournament = search.novelty_accept, search.select

            def recorded_select(pop, rng):
                selected_from.append(list(pop))
                return tournament(pop, rng)

            def checked(candidate, curves, mat):
                # the curves judged against are the current population's
                pop = selected_from[-1]
                assert len(curves) == len(pop)
                assert all(c is p.road.centerline for c, p in zip(curves, pop))
                decisions.append(rule(candidate, curves, mat))
                return decisions[-1]

            monkeypatch.setattr(search, "select", recorded_select)
            monkeypatch.setattr(search, "novelty_accept", checked)
            report = run_search(cfg, stub_evaluator(fitness_by_mean_y, fails_high))
            monkeypatch.undo()
            records = [(r.genotype.points.tolist(), r.verdict, r.fitness, r.error)
                       for r in report.records]
            return records, report.events, report.aggregates, decisions

        shared = run()
        monkeypatch.setattr(search, "novelty_accept",
                            lambda cand, curves, mat: novelty_accept_from_scratch(cand, curves))
        scratch = run()
        assert shared == scratch
        records, events, _, decisions = shared
        assert len(records) == 60
        assert [e["kind"] for e in events].count("GENERATION") >= 2
        assert any(decisions) and not all(decisions)

    def test_novelty_population_matrix_built_once_per_generation(self, monkeypatch,
                                                                 polygon_roads):
        # a generation's n offspring share one n x n population matrix and
        # add n distances each; every test passes, so the failure archive
        # computes none. Distances are counted as pairs passed to the kernel.
        n = 6
        pairs, decisions = [], []
        kernel, accept = search.frechet_pairs, search.novelty_accept

        def counted(ps, qs):
            d = kernel(ps, qs)
            pairs.append(len(d))
            return d

        def recorded(candidate, curves, mat):
            decisions[-1].append(accept(candidate, curves, mat))
            return decisions[-1][-1]

        def mark(event):
            if event["kind"] == "GENERATION":
                decisions.append([])
            marks.append((event["kind"], sum(pairs), len(evaluated)))

        monkeypatch.setattr(search, "frechet_pairs", counted)
        monkeypatch.setattr(search, "novelty_accept", recorded)
        matrix, full = n * (n - 1) // 2, n * (n - 1) // 2 + n * n
        cut_short = []
        # at seed 7 the first budget ends with the second generation and
        # the others part-way through a generation
        for budget in (2 * n + 1, 3 * n, 4 * n - 3, 5 * n):
            pairs.clear()
            decisions.clear()
            marks, evaluated = [], []
            evaluate = stub_evaluator(fitness_by_mean_y)
            cfg = SearchConfig(variant="A", population_size=n, max_evaluations=budget,
                               seed=7, novelty_filter=True)
            run_search(cfg, lambda ind: evaluated.append(ind) or evaluate(ind), reporter=mark)
            spans = [(after - before, done - start)
                     for (kind, before, start), (_, after, done) in zip(marks, marks[1:])
                     if kind == "GENERATION"]
            assert len(spans) >= 2 and [len(d) for d in decisions[:-1]] == [n] * (len(spans) - 1)
            assert [p for p, _ in spans[:-1]] == [full] * (len(spans) - 1)
            # in the generation the budget ends, children past the budget
            # are not checked: the last check is the child whose test spent it
            last, (last_pairs, last_evals) = decisions[-1], spans[-1]
            assert last_pairs == matrix + n * len(last)
            cut_short.append(len(last) < n)
            if cut_short[-1]:
                assert last[-1] and sum(last) == last_evals
        assert cut_short == [False, True, True, True]

    @pytest.mark.parametrize("variant, novelty", [("C", False), ("A", True)])
    def test_each_genotype_built_and_validated_once(self, monkeypatch, variant, novelty):
        # guided reseeds, novelty checks, evaluation and the failure archive
        # all read the individual's one road and validity report
        built, validated, genotype_of, decisions = {}, {}, {}, []
        build, check, accept = search.build_road, search.validate, search.novelty_accept

        def counted_build(cps):
            built.setdefault(id(cps), [cps, 0])[1] += 1  # holds cps: no id reuse
            road = build(cps)
            genotype_of[id(road)] = cps, road
            return road

        def counted_check(road):
            cps, _ = genotype_of[id(road)]
            validated[id(cps)] = validated.get(id(cps), 0) + 1
            return check(road)

        def recorded(candidate, curves, mat):
            decisions.append(accept(candidate, curves, mat))
            return decisions[-1]

        monkeypatch.setattr(search, "build_road", counted_build)
        monkeypatch.setattr(search, "validate", counted_check)
        monkeypatch.setattr(search, "novelty_accept", recorded)
        cfg = SearchConfig(variant=variant, population_size=6, max_evaluations=30,
                           seed=5, novelty_filter=novelty)
        drive = builtin_driver(VehicleParams(speed=25.0))
        report = run_search(cfg, lambda ind: evaluate(ind, drive))

        assert report.aggregates["T"] == 30 and report.aggregates["F"] >= 1
        if variant == "C":
            assert any(e["kind"] == "SEED" and e["guided"] for e in report.events)
        else:
            assert [e["kind"] for e in report.events].count("GENERATION") >= 2
            assert any(decisions) and not all(decisions)
        assert {id(r.genotype) for r in report.records} <= validated.keys() <= built.keys()
        assert max(n for _, n in built.values()) == 1
        assert max(validated.values()) == 1
