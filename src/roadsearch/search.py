"""Genetic search over control-point sets.

One individual is one :class:`ControlPointSet`; fitness is the maximum
out-of-bounds percentage the built road provokes in the system under
test. Three restart policies are supported:

* variant A -- never restart, keep exploiting the population;
* variant B -- on every failing test, throw the population away and
  reseed at random;
* variant C -- like B, but reseeding prefers candidates whose road passes
  the validity check (invalid candidates are still admitted with a small
  probability, never strictly excluded).

Offspring admission can optionally be gated by a novelty rule based on
the population's average pairwise Frechet distance.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import MAP_SIZE, ControlPointSet, frechet_pairs
from .road import RoadSpec, ValidityReport, build_road, validate
from .simulator import FAIL, INVALID, PASS, TestResult, VehicleParams, invalid_result, run_test

__all__ = [
    "SearchConfig",
    "Individual",
    "FailureArchive",
    "RunReport",
    "random_individual",
    "guided_seed_individual",
    "Driver",
    "builtin_driver",
    "judge",
    "evaluate",
    "select",
    "crossover",
    "mutate",
    "novelty_accept",
    "run_search",
    "INVALID_SEED_ACCEPT_PROB",
    "NUM_CONTROL_POINTS",
    "TOURNAMENT_SIZE",
    "CROSSOVER_PROB",
    "MUTATION_PROB",
    "MUTATION_RANGE",
]

VARIANTS = ("A", "B", "C")
RESTART_VARIANTS = ("B", "C")

# control points per genotype: a degree-six Bezier curve
NUM_CONTROL_POINTS = 7
# chance that a validity-guided reseed admits an invalid candidate anyway
INVALID_SEED_ACCEPT_PROB = 0.25
# contestants per tournament, drawn with replacement
TOURNAMENT_SIZE = 2
# chance that two selected parents are recombined rather than copied
CROSSOVER_PROB = 0.8
# per-point chance of a mutation, and the half-side in meters of the
# square a mutated point is redrawn from
MUTATION_PROB = 0.2
MUTATION_RANGE = 25.0

# drives one valid road through a system under test and returns its verdict
Driver = Callable[[RoadSpec], TestResult]


@dataclass
class SearchConfig:
    """Everything one search run needs, including the RNG seed.

    The budget is ``max_evaluations`` tests (300 by default), checked
    before each seed is drawn and each offspring built. ``population_size``
    defaults to 25 for variants A/B and 15 for variant C. The genotype and
    the GA's operators are fixed: see ``NUM_CONTROL_POINTS``,
    ``TOURNAMENT_SIZE``, ``CROSSOVER_PROB``, ``MUTATION_PROB`` and
    ``MUTATION_RANGE``, with single-individual elitism.
    """

    variant: str = "A"
    population_size: int | None = None
    max_evaluations: int = 300
    novelty_filter: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.population_size is None:
            self.population_size = 15 if self.variant == "C" else 25
        # a float count or seed crashes range() or numpy mid-run, and a NaN or
        # inf budget never runs out
        lower = {"population_size": 2, "max_evaluations": 1, "seed": 0}
        for name, low in lower.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        # a truthy string such as "false" would switch the filter on
        if not isinstance(self.novelty_filter, bool):
            raise ValueError("novelty_filter must be true or false")


@dataclass(eq=False)  # identity semantics; fields hold numpy arrays
class Individual:
    """A genotype with its road and validity, each made once when first
    read, and the verdict and fitness its evaluation fills in;
    ``run_search`` adds the seconds that evaluation took."""

    genotype: ControlPointSet
    fitness: float | None = None
    verdict: str | None = None
    error: str | None = None
    eval_time: float | None = None

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None

    @cached_property
    def road(self) -> RoadSpec:
        return build_road(self.genotype)

    @cached_property
    def validity(self) -> ValidityReport:
        return validate(self.road)


@dataclass
class RunReport:
    config: SearchConfig
    records: list = field(default_factory=list)  # evaluated Individuals; record i is test i
    events: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)


class FailureArchive:
    """Failing individuals plus their pairwise Frechet matrix, computed
    once when first read."""

    def __init__(self, failures: list[Individual]):
        if any(ind.verdict != FAIL for ind in failures):
            raise ValueError("archive only holds failing individuals")
        self.failures = failures
        self._matrix: np.ndarray | None = None

    def pairwise(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _pairwise_frechet([f.road.centerline for f in self.failures])
        return self._matrix

    def avg_frechet(self) -> float | None:
        if len(self.failures) < 2:
            return None
        mat = self.pairwise()
        return float(mat[np.triu_indices(len(mat), k=1)].mean())

    def max_frechet(self) -> float | None:
        if len(self.failures) < 2:
            return None
        return float(self.pairwise().max())


def _sorted_by_x(points: np.ndarray) -> np.ndarray:
    return points[np.argsort(points[:, 0], kind="stable")]


def random_individual(rng) -> Individual:
    """Uniform control points in the map, kept sorted by x so roads run
    across the map instead of folding back at random."""
    pts = rng.uniform(0.0, MAP_SIZE, size=(NUM_CONTROL_POINTS, 2))
    return Individual(ControlPointSet(_sorted_by_x(pts)))


def guided_seed_individual(rng) -> Individual:
    """Draw a seed candidate with a soft preference for valid roads.

    Valid candidates are accepted immediately; invalid ones only with
    probability INVALID_SEED_ACCEPT_PROB, so they are disfavoured but
    never strictly excluded. Used by variant C when reseeding.
    """
    while True:
        ind = random_individual(rng)
        if ind.validity.valid or rng.random() < INVALID_SEED_ACCEPT_PROB:
            return ind


def builtin_driver(vparams: VehicleParams) -> Driver:
    """Driver over the built-in simulator."""
    def drive(road: RoadSpec) -> TestResult:
        return run_test(road, vparams)
    return drive


def judge(road: RoadSpec, validity: ValidityReport, drive: Driver) -> TestResult:
    """Drive the road only if its validity report says it is valid."""
    if not validity.valid:
        return invalid_result()
    return drive(road)


def evaluate(ind: Individual, drive: Driver) -> Individual:
    """Judge one individual's road.

    Invalid roads get verdict INVALID and fitness 0 without being driven;
    valid roads get fitness = max out-of-bounds percentage.
    """
    if ind.evaluated:
        raise ValueError("individual already evaluated")
    result = judge(ind.road, ind.validity, drive)
    ind.verdict, ind.fitness, ind.error = result.verdict, result.max_oob, result.error
    return ind


def select(pop: list, rng) -> Individual:
    """Tournament selection; contestants drawn with replacement, ties
    broken by lower population index."""
    if not pop:
        raise ValueError("empty population")
    contestants = rng.integers(0, len(pop), size=TOURNAMENT_SIZE)
    best = int(contestants[0])
    for c in contestants[1:]:
        c = int(c)
        if pop[c].fitness > pop[best].fitness or (
                pop[c].fitness == pop[best].fitness and c < best):
            best = c
    return pop[best]


def crossover(a: Individual, b: Individual, rng):
    """One-point crossover with probability CROSSOVER_PROB; children are
    re-sorted by x and returned unevaluated."""
    ga, gb = a.genotype.points, b.genotype.points
    if len(ga) != len(gb):
        raise ValueError("genotype length mismatch")
    if rng.random() < CROSSOVER_PROB:
        cut = int(rng.integers(1, len(ga)))
        c1 = np.vstack([ga[:cut], gb[cut:]])
        c2 = np.vstack([gb[:cut], ga[cut:]])
    else:
        c1, c2 = ga.copy(), gb.copy()
    return (Individual(ControlPointSet(_sorted_by_x(c1))),
            Individual(ControlPointSet(_sorted_by_x(c2))))


def mutate(ind: Individual, rng) -> Individual:
    """Per point, with probability MUTATION_PROB, redraw it uniformly from
    the square of half-side MUTATION_RANGE around its old position,
    clipped to the map. Result is re-sorted by x and unevaluated."""
    pts = ind.genotype.points.copy()
    mask = rng.random(len(pts)) < MUTATION_PROB
    if mask.any():
        old = pts[mask]
        drawn = rng.uniform(old - MUTATION_RANGE, old + MUTATION_RANGE)
        pts[mask] = np.clip(drawn, 0.0, MAP_SIZE)
    return Individual(ControlPointSet(_sorted_by_x(pts)))


def _pairwise_frechet(curves) -> np.ndarray:
    # the n(n-1)/2 pairs of the upper triangle in one batched call
    n = len(curves)
    rows, cols = np.triu_indices(n, k=1)
    mat = np.zeros((n, n))
    mat[rows, cols] = mat[cols, rows] = frechet_pairs([curves[i] for i in rows],
                                                      [curves[j] for j in cols])
    return mat


def novelty_accept(candidate, curves, mat: np.ndarray) -> bool:
    """Would swapping the candidate in for its most-similar population
    member strictly raise the population's average Frechet distance?

    ``mat`` holds the Frechet distances between the ``curves``
    (``mat[i, j]`` for curves i and j), computed once per population; only
    the candidate's n distances are computed here, in one batched call."""
    n = len(curves)
    if n < 2:
        return True
    d = frechet_pairs(candidate, curves)
    j = int(np.argmin(d))
    pairs = n * (n - 1) / 2
    old_sum = mat[np.triu_indices(n, k=1)].sum()
    new_sum = old_sum - mat[j].sum() + (d.sum() - d[j])
    return new_sum / pairs > old_sum / pairs


def _offspring(pop: list, rng, config: SearchConfig):
    """Yield one generation's n offspring: tournament selection, crossover
    and mutation. With the novelty filter, a child that would not raise the
    population's average Frechet distance is replaced by its evaluated
    parent.

    Every child is drawn before the first is yielded, so the RNG order
    does not depend on the budget; a child is built and checked only when
    it is pulled, and the caller stops pulling once the budget is spent."""
    drawn: list[tuple[Individual, Individual]] = []
    while len(drawn) < config.population_size:
        p1 = select(pop, rng)
        p2 = select(pop, rng)
        c1, c2 = crossover(p1, p2, rng)
        for child, parent in ((c1, p1), (c2, p2)):
            if len(drawn) >= config.population_size:
                break
            drawn.append((mutate(child, rng), parent))
    if config.novelty_filter:
        # pop stays fixed until the generation ends, so its curves and
        # their matrix serve every offspring's novelty check
        curves = [p.road.centerline for p in pop]
        mat = _pairwise_frechet(curves)
    for child, parent in drawn:
        if config.novelty_filter and not novelty_accept(child.road.centerline, curves, mat):
            child = parent  # denied: the slot keeps the parent
        yield child


def run_search(config: SearchConfig, evaluator, *, reporter=None) -> RunReport:
    """Run one seeded search and report every evaluated test.

    ``evaluator(ind) -> ind`` fills in fitness and verdict (``evaluate``
    with a driver does). The road and its validity come from the
    individual: variant C's guided reseeds, the novelty filter and the
    Frechet aggregates read them. ``reporter`` is an optional callable
    invoked with every event as it happens.

    The returned report satisfies T = P + I + F, and in variants B/C every
    FAIL event is immediately followed by a RESEED event.
    """
    rng = np.random.default_rng(config.seed)
    records: list[Individual] = []
    events: list[dict] = []

    def emit(kind: str, **detail):
        event = {"kind": kind, **detail}
        events.append(event)
        if reporter is not None:
            reporter(event)

    epoch = gen_index = 0
    pop: list[Individual] = []  # empty until a seed batch completes
    partial_seed = False
    while len(records) < config.max_evaluations:
        seeding = not pop
        if seeding:
            guided = config.variant == "C" and epoch > 0
            emit("SEED", epoch=epoch, guided=guided)
            gen_index = 0
            draw = guided_seed_individual if guided else random_individual
            batch = (draw(rng) for _ in range(config.population_size))
        else:
            gen_index += 1
            emit("GENERATION", epoch=epoch, index=gen_index)
            batch = _offspring(pop, rng, config)
        # evaluate in order; only here is the budget checked, before the next
        # individual is drawn or built. Only a fresh FAIL reseeds (no B/C population holds one).
        reached, reseed = [], False
        for ind in batch:
            if not ind.evaluated:
                t0 = time.perf_counter()
                evaluator(ind)
                ind.eval_time = time.perf_counter() - t0
                records.append(ind)
                if ind.verdict == FAIL:
                    emit("FAIL", test=len(records) - 1, fitness=ind.fitness)
                    reseed = config.variant in RESTART_VARIANTS
            reached.append(ind)
            if reseed or len(records) >= config.max_evaluations:
                break
        if reseed:
            emit("RESEED", epoch=epoch)
            epoch += 1
            pop = []
            continue
        if len(reached) < config.population_size:
            partial_seed = seeding  # the budget ran out mid-batch
            break
        if not seeding:
            # single-individual elitism: the best parent replaces the worst
            # child if it is strictly fitter; max and min keep the first of equals
            best = max(pop, key=lambda ind: ind.fitness)
            worst = min(range(len(reached)), key=lambda i: reached[i].fitness)
            if best.fitness > reached[worst].fitness:
                reached[worst] = best
        pop = reached

    emit("BUDGET_EXHAUSTED", evaluations=len(records), partial_seed=partial_seed)

    counts = {PASS: 0, INVALID: 0, FAIL: 0}
    for ind in records:
        counts[ind.verdict] += 1
    archive = FailureArchive([ind for ind in records if ind.verdict == FAIL])
    aggregates = {
        "T": len(records),
        "P": counts[PASS],
        "I": counts[INVALID],
        "F": counts[FAIL],
        "avg_frechet_failures": archive.avg_frechet(),
        "max_frechet_failures": archive.max_frechet(),
    }
    return RunReport(config=config, records=records, events=events,
                     aggregates=aggregates)
