"""Time the built-in simulator on the golden corpus's valid roads.

    PYTHONPATH=src python scripts/bench_simulator.py [--passes N]
        [--label NAME] [--out BENCH_simulator.json]

Every valid road of ``tests/data/golden_roads.json`` (a fixed, seeded
corpus) is driven with ``run_test`` at its corpus speed, once per pass.
Only ``run_test`` is timed; roads are built and validated beforehand.
Reported per label:

- ``steps``: simulator steps over the corpus (one pass);
- ``us_per_step``: median over passes of total ``run_test`` time / steps;
- ``run_test_ms_p50``: median over roads of each road's median time;
- ``clip_step_share``: share of out-of-bounds evaluations (the start
  pose and every step) that call the lane-strip clip; it is counted in
  an extra, untimed pass that wraps ``oob_percent`` and ``_clip_area``.

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
from roadsearch import simulator
from roadsearch.geometry import ControlPointSet
from roadsearch.road import build_road, validate
from roadsearch.simulator import VehicleParams, run_test

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_roads.json"


def corpus_roads():
    roads = []
    for entry in json.loads(CORPUS.read_text())["entries"]:
        road = build_road(ControlPointSet(np.asarray(entry["points"])))
        if validate(road).valid:
            roads.append((road, VehicleParams(speed=entry["speed"])))
    return roads


def count_clip_steps(roads):
    """(evaluations, evaluations that clipped) over one pass."""
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
        for road, vp in roads:
            run_test(road, vp)
    finally:
        simulator.oob_percent, simulator._clip_area = oob_percent, clip_area
    return calls["oob"], calls["clipped"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=Path("BENCH_simulator.json"))
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    roads = corpus_roads()
    steps = sum(len(run_test(road, vp).trajectory) - 1 for road, vp in roads)
    per_road = [[] for _ in roads]
    totals = []
    for _ in range(args.passes):
        total = 0.0
        for k, (road, vp) in enumerate(roads):
            t0 = perf_counter()
            run_test(road, vp)
            elapsed = perf_counter() - t0
            per_road[k].append(elapsed)
            total += elapsed
        totals.append(total)
    evaluations, clipped = count_clip_steps(roads)

    result = {
        "roads": len(roads),
        "steps": steps,
        "passes": args.passes,
        "us_per_step": round(statistics.median(totals) / steps * 1e6, 1),
        "us_per_step_passes": [round(t / steps * 1e6, 1) for t in totals],
        "run_test_ms_p50": round(statistics.median(
            statistics.median(times) for times in per_road) * 1e3, 2),
        "oob_evaluations": evaluations,
        "clipped_evaluations": clipped,
        "clip_step_share": round(clipped / evaluations, 4),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "roadsearch": roadsearch.__version__,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("corpus", "tests/data/golden_roads.json, valid roads at corpus speed")
    data.setdefault("runs", {})[args.label] = result
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    json.dump({args.label: result}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
