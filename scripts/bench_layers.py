"""Time four layers of roadsearch on the golden corpus and record each.

    PYTHONPATH=src python scripts/bench_layers.py [--passes N] [--label NAME]

The roads are those of ``tests/data/golden_roads.json`` (a fixed, seeded
corpus), each built once. One run merges a row per layer under
``--label`` into ``BENCH_<layer>.json`` in the working directory; times
are medians over ``--passes``. A tree is measured with its own copy of
this script: ``PYTHONPATH=<tree>/src python <tree>/scripts/bench_layers.py``.

- validate: the 200 corpus roads plus 300 roads drawn as the search draws
  its seeds (seed 0). ``validate_us_p50`` and ``folds_back_us_p50`` (the
  fold check, with ``validate``'s buffer and exempt arc) are medians over
  roads of each road's median; ``overlap_roads`` counts OVERLAP verdicts
  and must not differ between labels; ``narrow_pair_share`` is the mean
  share of a road's non-adjacent segment pairs whose exact distance the
  fold check computes.
- simulator: each valid road driven with ``run_test`` at its corpus
  speed. ``us_per_step`` is the median pass's ``run_test`` time over
  ``steps``; ``run_test_ms_p50`` the median over roads; and
  ``clip_step_share`` the share of out-of-bounds evaluations (the start
  pose and every step) that call the lane-strip clip, counted in an
  untimed pass.
- frechet: the first 24 centerlines stand in for a population of 12 and
  12 offspring. ``ms_per_pair`` times ``frechet_pairs`` on batches of 1,
  12 and 66 pairs of the population; ``novelty_ms_per_offspring`` is one
  generation's population matrix plus a ``novelty_accept`` check of each
  offspring, over the 12 offspring.
- protocol: the valid 25 m/s roads, judged in-process with ``judge`` and
  then, in corpus order, by ``python -m roadsearch.protocol --speed 25``
  through one ``SutSession`` per pass; the child inherits ``PYTHONPATH``,
  so it runs the tree under test. ``overhead_ms_*`` is a road's external
  time minus its median ``judge`` time, over every road but each pass's
  first, which includes starting the child (``first_road_*``);
  ``mismatches`` counts roads whose verdicts differ or whose ``max_oob``
  differ by more than 1e-9.
"""
import argparse
import json
import os
import platform
import shlex
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import roadsearch
from roadsearch import protocol, search, simulator
from roadsearch.geometry import ControlPointSet, frechet_pairs
from roadsearch.road import (FOLD_EXEMPT_LANE_WIDTHS, LANE_WIDTH, OVERLAP, OVERLAP_BUFFER,
                             _folds_back, _near_pairs, build_road, validate)
from roadsearch.simulator import VehicleParams, run_test

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_roads.json"
RANDOM_ROADS = 300  # validate layer: seeded random roads on top of the corpus
SEED = 0
POPULATION = 12  # frechet layer: the first 2 * POPULATION corpus roads
BATCHES = (1, 12, 66)
SPEED = 25.0  # protocol layer: the corpus roads at this speed
DESCRIPTIONS = {  # each BENCH file's top-level key and text
    "validate": ("roads", f"tests/data/golden_roads.json (200) plus {RANDOM_ROADS} "
                          f"seeded random roads (seed {SEED})"),
    "simulator": ("corpus", "tests/data/golden_roads.json, valid roads at corpus speed"),
    "frechet": ("corpus", "tests/data/golden_roads.json, centerlines of the first 24 roads"),
    "protocol": ("corpus", "tests/data/golden_roads.json, valid roads at 25 m/s"),
}


def load_corpus() -> list:
    """(speed, road) per corpus entry, in corpus order."""
    return [(e["speed"], build_road(ControlPointSet(np.asarray(e["points"]))))
            for e in json.loads(CORPUS.read_text())["entries"]]


def timed(fn, *args):
    """(seconds, result) of one call."""
    t0 = perf_counter()
    result = fn(*args)
    return perf_counter() - t0, result


def p50(times) -> float:
    """Median over roads of each road's median; ``times`` is passes x roads."""
    return statistics.median(statistics.median(t) for t in zip(*times))


def ms(seconds: float) -> float:
    return round(seconds * 1e3, 2)


def validate_layer(roads: list, passes: int) -> dict:
    rng = np.random.default_rng(SEED)
    roads = roads + [search.random_individual(rng).road for _ in range(RANDOM_ROADS)]
    exempt = FOLD_EXEMPT_LANE_WIDTHS * LANE_WIDTH
    validate_s, folds_back_s = [[] for _ in range(passes)], [[] for _ in range(passes)]
    for p in range(passes):
        for r in roads:
            validate_s[p].append(timed(validate, r)[0])
            folds_back_s[p].append(timed(_folds_back, r.centerline, OVERLAP_BUFFER, exempt)[0])
    shares = [len(_near_pairs(c, OVERLAP_BUFFER, exempt)[0]) / ((len(c) - 2) * (len(c) - 3) / 2)
              for c in (r.centerline for r in roads) if len(c) > 3]
    return {
        "roads": len(roads),
        "passes": passes,
        "validate_us_p50": round(p50(validate_s) * 1e6, 1),
        "folds_back_us_p50": round(p50(folds_back_s) * 1e6, 1),
        "overlap_roads": sum(OVERLAP in validate(r).kinds() for r in roads),
        "narrow_pair_share": round(statistics.mean(shares), 4),
    }


def count_clip_steps(drives: list):
    """(steps, evaluations, evaluations that clipped) over one pass."""
    calls = {"oob": 0, "clipped": 0, "clip": 0}
    oob_percent, clip_area = simulator.oob_percent, simulator._clip_area

    def counting_clip(*args):
        calls["clip"] += 1
        return clip_area(*args)

    def counting_oob(*args):
        before = calls["clip"]
        result = oob_percent(*args)
        calls["oob"] += 1
        calls["clipped"] += calls["clip"] > before
        return result

    simulator.oob_percent, simulator._clip_area = counting_oob, counting_clip
    try:
        steps = sum(len(run_test(r, vp).trajectory) - 1 for r, vp in drives)
    finally:
        simulator.oob_percent, simulator._clip_area = oob_percent, clip_area
    return steps, calls["oob"], calls["clipped"]


def simulator_layer(valid: list, passes: int) -> dict:
    drives = [(r, VehicleParams(speed=speed)) for speed, r in valid]
    steps, evaluations, clipped = count_clip_steps(drives)
    times = [[timed(run_test, r, vp)[0] for r, vp in drives] for _ in range(passes)]
    totals = [sum(t) for t in times]
    return {
        "roads": len(drives),
        "steps": steps,
        "passes": passes,
        "us_per_step": round(statistics.median(totals) / steps * 1e6, 1),
        "us_per_step_passes": [round(t / steps * 1e6, 1) for t in totals],
        "run_test_ms_p50": ms(p50(times)),
        "oob_evaluations": evaluations,
        "clipped_evaluations": clipped,
        "clip_step_share": round(clipped / evaluations, 4),
    }


def frechet_layer(curves: list, passes: int) -> dict:
    pop, children = curves[:POPULATION], curves[POPULATION:]
    rows, cols = np.triu_indices(POPULATION, k=1)
    ps, qs = [pop[i] for i in rows], [pop[j] for j in cols]

    def median_s(fn, *args):
        return statistics.median(timed(fn, *args)[0] for _ in range(passes))

    ms_per_pair = {str(b): round(median_s(frechet_pairs, ps[:b], qs[:b]) / b * 1e3, 3)
                   for b in BATCHES}
    mat = search._pairwise_frechet(pop)

    def checks():
        return [search.novelty_accept(child, pop, mat) for child in children]

    matrix_s, checks_s = median_s(search._pairwise_frechet, pop), median_s(checks)
    return {
        "points_per_curve": sorted({len(c) for c in curves}),
        "passes": passes,
        "ms_per_pair": ms_per_pair,
        "novelty_ms_per_offspring": round((matrix_s + checks_s) / len(children) * 1e3, 3),
        "novelty_matrix_ms": ms(matrix_s),
        "novelty_check_ms": round(checks_s / len(children) * 1e3, 3),
        "accepted": int(sum(checks())),
    }


def protocol_layer(roads: list, passes: int) -> dict:
    drive = search.builtin_driver(VehicleParams(speed=SPEED))

    def judge(r):
        return search.judge(r, validate(r), drive)

    judged = [[timed(judge, r) for r in roads] for _ in range(passes)]
    judge_s = [statistics.median(t for t, _ in per_road) for per_road in zip(*judged)]
    direct = [result for _, result in judged[-1]]

    sut = protocol.SutDescriptor(timeout=120.0, command=(
        f"{shlex.quote(sys.executable)} -m roadsearch.protocol --speed {SPEED:g}"))
    steady, first, external, mismatches = [], [], [], 0
    for _ in range(passes):
        with protocol.SutSession(sut) as session:
            times, results = zip(*(timed(session.evaluate, r) for r in roads))
        external += times
        first.append(times[0])
        steady += [t - j for t, j in zip(times[1:], judge_s[1:])]
        mismatches += sum(r.verdict != d.verdict or abs(r.max_oob - d.max_oob) > 1e-9
                          for r, d in zip(results, direct))
    return {
        "roads": len(roads),
        "passes": passes,
        "overhead_ms_p50": ms(np.percentile(steady, 50)),
        "overhead_ms_p90": ms(np.percentile(steady, 90)),
        "first_road_ms": ms(statistics.median(first)),
        "first_road_overhead_ms": ms(statistics.median(first) - judge_s[0]),
        "external_ms_p50": ms(np.percentile(external, 50)),
        "judge_ms_p50": ms(np.percentile(judge_s, 50)),
        "mismatches": mismatches,
    }


def record(layer: str, label: str, row: dict):
    """Merge ``row`` and the machine it ran on into ``BENCH_<layer>.json``."""
    path = Path(f"BENCH_{layer}.json")
    data = json.loads(path.read_text()) if path.exists() else {}
    key, text = DESCRIPTIONS[layer]
    data.setdefault(key, text)
    data.setdefault("runs", {})[label] = {
        **row,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "roadsearch": roadsearch.__version__,
    }
    path.write_text(json.dumps(data, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--label", default="current")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    corpus = load_corpus()
    valid = [(speed, r) for speed, r in corpus if validate(r).valid]
    rows = {
        "validate": validate_layer([r for _, r in corpus], args.passes),
        "simulator": simulator_layer(valid, args.passes),
        "frechet": frechet_layer([r.centerline for _, r in corpus[:2 * POPULATION]], args.passes),
        "protocol": protocol_layer([r for speed, r in valid if speed == SPEED], args.passes),
    }
    for layer, row in rows.items():
        record(layer, args.label, row)
    json.dump({args.label: rows}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
