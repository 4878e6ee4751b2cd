"""Time the road validity check on a fixed set of roads.

    PYTHONPATH=src python scripts/bench_validate.py [--passes N]
        [--random N] [--seed S] [--label NAME] [--out BENCH_validate.json]

The roads are the 200 genotypes of ``tests/data/golden_roads.json`` plus
``--random`` seeded roads drawn as the search draws its seeds (7 control
points uniform on the map, sorted by x). Every road is built once; then
each pass calls ``validate`` and ``_folds_back`` (the fold check, with
``validate``'s buffer and exempt arc) once per road. Reported per label:

- ``validate_us_p50`` and ``folds_back_us_p50``: median over roads of
  each road's median time over passes;
- ``overlap_roads``: roads that ``validate`` finds OVERLAP, which must
  not differ between labels;
- ``narrow_pair_share``: mean over roads with non-adjacent segment
  pairs of the share of them whose exact distance is computed (1.0 for
  an all-pairs check, which computes every one).

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
from roadsearch import road
from roadsearch.geometry import MAP_SIZE, ControlPointSet
from roadsearch.road import FOLD_EXEMPT_LANE_WIDTHS, LANE_WIDTH, OVERLAP, OVERLAP_BUFFER

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_roads.json"


def roads(count: int, seed: int) -> list:
    genotypes = [np.asarray(e["points"]) for e in json.loads(CORPUS.read_text())["entries"]]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        pts = rng.uniform(0.0, MAP_SIZE, size=(7, 2))
        genotypes.append(pts[np.argsort(pts[:, 0], kind="stable")])
    return [road.build_road(ControlPointSet(g)) for g in genotypes]


def narrow_share(center: np.ndarray, exempt: float) -> float:
    """Share of the non-adjacent segment pairs whose exact distance the
    fold check computes; a tree without a broad phase computes all."""
    near_pairs = getattr(road, "_near_pairs", None)
    if near_pairs is None:
        return 1.0
    m = len(center) - 1
    return len(near_pairs(center, OVERLAP_BUFFER, exempt)[0]) / ((m - 1) * (m - 2) / 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--random", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=Path("BENCH_validate.json"))
    args = parser.parse_args(argv)
    if args.passes < 1 or args.random < 0:
        parser.error("--passes must be at least 1 and --random at least 0")

    built = roads(args.random, args.seed)
    exempt = FOLD_EXEMPT_LANE_WIDTHS * LANE_WIDTH
    times = {"validate": [[] for _ in built], "folds_back": [[] for _ in built]}
    for _ in range(args.passes):
        for k, r in enumerate(built):
            t0 = perf_counter()
            road.validate(r)
            t1 = perf_counter()
            road._folds_back(r.centerline, OVERLAP_BUFFER, exempt)
            t2 = perf_counter()
            times["validate"][k].append(t1 - t0)
            times["folds_back"][k].append(t2 - t1)

    def p50_us(per_road):
        return round(statistics.median(statistics.median(t) for t in per_road) * 1e6, 1)

    result = {
        "roads": len(built),
        "passes": args.passes,
        "validate_us_p50": p50_us(times["validate"]),
        "folds_back_us_p50": p50_us(times["folds_back"]),
        "overlap_roads": sum(OVERLAP in road.validate(r).kinds() for r in built),
        "narrow_pair_share": round(statistics.mean(
            narrow_share(r.centerline, exempt) for r in built if len(r.centerline) > 3), 4),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "roadsearch": roadsearch.__version__,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("roads", f"tests/data/golden_roads.json (200) plus {args.random} "
                             f"seeded random roads (seed {args.seed})")
    data.setdefault("runs", {})[args.label] = result
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    json.dump({args.label: result}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
