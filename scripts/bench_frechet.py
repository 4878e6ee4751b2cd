"""Time the discrete Frechet distance and the novelty filter on golden roads.

    PYTHONPATH=src python scripts/bench_frechet.py [--repeats N]
        [--label NAME] [--out BENCH_frechet.json]

The centerlines of the first 24 roads of ``tests/data/golden_roads.json``
(a fixed, seeded corpus; 100 points each) stand in for a population of 12
and 12 offspring. Reported per label, each a median over ``--repeats``:

- ``ms_per_pair``: time per pair for a batch of B = 1, 12 and 66 pairs
  taken from the population's upper triangle, through ``frechet_pairs``
  where the tree has it and through a loop of ``discrete_frechet``
  otherwise;
- ``novelty_ms_per_offspring``: one generation's novelty cost divided by
  its 12 offspring, i.e. the population matrix (66 pairs) plus a
  ``novelty_accept`` check of each offspring (12 pairs each); the
  matrix's and the checks' shares are reported too.

The result is merged into ``--out`` under ``--label``, so a parent and a
change can be recorded into one file by running the script twice with
``PYTHONPATH`` pointing at each tree.
"""
import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import roadsearch
from roadsearch import geometry, search
from roadsearch.geometry import ControlPointSet
from roadsearch.road import build_road

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_roads.json"
POPULATION = 12
BATCHES = (1, 12, 66)


def corpus_centerlines(count):
    entries = json.loads(CORPUS.read_text())["entries"][:count]
    return [build_road(ControlPointSet(np.asarray(e["points"]))).centerline
            for e in entries]


def pair_kernel():
    if hasattr(geometry, "frechet_pairs"):
        return "frechet_pairs", geometry.frechet_pairs
    return "discrete_frechet loop", lambda ps, qs: np.array(
        [geometry.discrete_frechet(p, q) for p, q in zip(ps, qs)])


def median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=Path("BENCH_frechet.json"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    curves = corpus_centerlines(2 * POPULATION)
    pop, children = curves[:POPULATION], curves[POPULATION:]
    rows, cols = np.triu_indices(POPULATION, k=1)
    ps, qs = [pop[i] for i in rows], [pop[j] for j in cols]
    name, kernel = pair_kernel()
    ms_per_pair = {}
    for b in BATCHES:
        seconds = median_s(lambda: kernel(ps[:b], qs[:b]), args.repeats)
        ms_per_pair[str(b)] = round(seconds / b * 1e3, 3)

    def matrix():
        return search._pairwise_frechet(pop)

    mat = matrix()

    def checks():
        return [search.novelty_accept(child, pop, mat) for child in children]

    matrix_s, checks_s = median_s(matrix, args.repeats), median_s(checks, args.repeats)
    result = {
        "kernel": name,
        "points_per_curve": sorted({len(c) for c in curves}),
        "repeats": args.repeats,
        "ms_per_pair": ms_per_pair,
        "novelty_ms_per_offspring": round((matrix_s + checks_s) / len(children) * 1e3, 3),
        "novelty_matrix_ms": round(matrix_s * 1e3, 2),
        "novelty_check_ms": round(checks_s / len(children) * 1e3, 3),
        "accepted": int(sum(checks())),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "roadsearch": roadsearch.__version__,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("corpus", "tests/data/golden_roads.json, centerlines of the first 24 roads")
    data.setdefault("runs", {})[args.label] = result
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    json.dump({args.label: result}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
