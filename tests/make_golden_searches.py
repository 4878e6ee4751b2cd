"""Freeze the golden-search corpus: seeded runs of ``run_search`` with a
stub evaluator, and the records, events and aggregates they give.

    PYTHONPATH=src python tests/make_golden_searches.py [--out PATH]

The stub needs no simulator, and each road is its control polygon, so
the corpus pins the search itself: the RNG order of seeding, selection,
crossover, mutation and novelty checks, and where each variant reseeds
and stops. Run it only to re-freeze the corpus on purpose:
``tests/test_golden_searches.py`` holds every later change to the same
runs.
"""
import argparse
import hashlib
import json
from pathlib import Path
from unittest import mock

from roadsearch import search
from roadsearch.road import RoadSpec, ValidityReport
from roadsearch.search import FAIL, INVALID, PASS, SearchConfig, run_search

SEEDS = (2, 3, 4, 5)
# (max_evaluations, population_size): ends in the first seed batch, one
# evaluation into the first generation, and after several generations
BUDGETS = ((4, 6), (7, 6), (30, 6), (50, 8))
OUT = Path(__file__).parent / "data" / "golden_searches.json"


def polygon_road(cps) -> RoadSpec:
    """Stub road: the control polygon, with no Bezier sampling."""
    c = cps.points
    return RoadSpec(c, c, c)


def low_start_invalid(road) -> ValidityReport:
    return ValidityReport(valid=road.centerline[0, 1] >= 40.0)


def stub_evaluate(ind):
    """INVALID when the first point is low, FAIL when the road runs high
    on average; fitness is half the mean y (0 for INVALID)."""
    mean_y = float(ind.genotype.points[:, 1].mean())
    if not ind.validity.valid:
        ind.verdict, ind.fitness = INVALID, 0.0
    else:
        ind.verdict, ind.fitness = (FAIL if mean_y > 125.0 else PASS), mean_y / 2.0
    return ind


def cases():
    for variant in ("A", "B", "C"):
        for novelty in (False, True):
            for seed in SEEDS:
                for budget, pop in BUDGETS:
                    yield {"variant": variant, "novelty": novelty, "seed": seed,
                           "budget": budget, "pop": pop}


def run_case(case: dict) -> dict:
    """The records, events (each with the record count when it was
    emitted) and aggregates of one seeded run."""
    cfg = SearchConfig(variant=case["variant"], population_size=case["pop"],
                       max_evaluations=case["budget"], seed=case["seed"],
                       novelty_filter=case["novelty"])
    at = []
    evaluated = []

    def counted(ind):
        evaluated.append(ind)
        return stub_evaluate(ind)

    with mock.patch.object(search, "build_road", polygon_road), \
            mock.patch.object(search, "validate", low_start_invalid):
        report = run_search(cfg, counted, reporter=lambda event: at.append(len(evaluated)))
    return {
        "verdicts": "".join(r.verdict[0] for r in report.records),
        "fitness": [r.fitness for r in report.records],
        "genotypes": [hashlib.sha256(r.genotype.points.tobytes()).hexdigest()[:10]
                      for r in report.records],
        "events": report.events,
        "event_at": at,
        "aggregates": report.aggregates,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    entries = [{**case, **run_case(case)} for case in cases()]
    lines = ",\n".join(json.dumps(e) for e in entries)
    args.out.write_text(f'{{"cases": [\n{lines}\n]}}\n')
    print(f"{len(entries)} searches, {sum(len(e['verdicts']) for e in entries)} "
          f"records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
