"""Time the external SUT protocol against in-process judging.

    PYTHONPATH=src python scripts/bench_protocol.py [--passes N]
        [--label NAME] [--out BENCH_protocol.json]

The valid 25 m/s roads of ``tests/data/golden_roads.json`` (a fixed,
seeded corpus) are judged in-process with ``search.judge`` and then
handed, in corpus order, to ``python -m roadsearch.protocol --speed 25``
through ``protocol.external_evaluate``, once per pass. A pass is one
``SutSession`` where the tree has it (a child for the whole pass) and a
spawn per road otherwise. The child inherits ``PYTHONPATH``, so it runs
the tree under test. Reported per label:

- ``overhead_ms_p50`` / ``overhead_ms_p90``: per-road protocol overhead,
  i.e. a road's external time minus its median in-process ``judge``
  time, over every road but each pass's first;
- ``first_road_ms`` / ``first_road_overhead_ms``: the first road of a
  pass, which includes starting the child (median over passes);
- ``external_ms_p50`` and ``judge_ms_p50``: the two times themselves;
- ``mismatches``: roads whose external verdict differs from the
  in-process one or whose ``max_oob`` differs by more than 1e-9.

The result is merged into ``--out`` under ``--label``, so a parent and a
change can be recorded into one file by running the script twice with
``PYTHONPATH`` pointing at each tree.
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
from roadsearch import protocol
from roadsearch.geometry import ControlPointSet
from roadsearch.road import build_road, validate
from roadsearch.search import builtin_driver, judge
from roadsearch.simulator import VehicleParams

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_roads.json"
SPEED = 25.0


def corpus_roads():
    roads = []
    for entry in json.loads(CORPUS.read_text())["entries"]:
        road = build_road(ControlPointSet(np.asarray(entry["points"])))
        if entry["speed"] == SPEED and validate(road).valid:
            roads.append(road)
    return roads


def external_pass(roads, sut):
    """(seconds per road, results) for one pass over ``roads``."""
    session = protocol.SutSession(sut) if hasattr(protocol, "SutSession") else None
    times, results = [], []
    try:
        for road in roads:
            t0 = perf_counter()
            if session is None:
                result = protocol.external_evaluate(road, sut)
            else:
                result = protocol.external_evaluate(road, sut, session)
            times.append(perf_counter() - t0)
            results.append(result)
    finally:
        if session is not None:
            session.close()
    return times, results


def percentile(values, q):
    return float(np.percentile(values, q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", type=Path, default=Path("BENCH_protocol.json"))
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    roads = corpus_roads()
    drive = builtin_driver(VehicleParams(speed=SPEED))
    judged = [[] for _ in roads]
    for _ in range(args.passes):
        for k, road in enumerate(roads):
            t0 = perf_counter()
            judge(road, validate(road), drive)
            judged[k].append(perf_counter() - t0)
    judge_s = [statistics.median(times) for times in judged]
    direct = [judge(road, validate(road), drive) for road in roads]

    sut = protocol.SutDescriptor(
        command=f"{shlex.quote(sys.executable)} -m roadsearch.protocol --speed {SPEED:g}",
        timeout=120.0)
    steady, first, first_overhead, external = [], [], [], []
    mismatches = 0
    for _ in range(args.passes):
        times, results = external_pass(roads, sut)
        external += times
        first.append(times[0])
        first_overhead.append(times[0] - judge_s[0])
        steady += [t - j for t, j in zip(times[1:], judge_s[1:])]
        mismatches += sum(r.verdict != d.verdict or abs(r.max_oob - d.max_oob) > 1e-9
                          for r, d in zip(results, direct))

    ms = lambda seconds: round(seconds * 1e3, 2)
    result = {
        "roads": len(roads),
        "passes": args.passes,
        "driver": ("one SutSession per pass" if hasattr(protocol, "SutSession")
                   else "a spawn per road"),
        "overhead_ms_p50": ms(percentile(steady, 50)),
        "overhead_ms_p90": ms(percentile(steady, 90)),
        "first_road_ms": ms(statistics.median(first)),
        "first_road_overhead_ms": ms(statistics.median(first_overhead)),
        "external_ms_p50": ms(percentile(external, 50)),
        "judge_ms_p50": ms(percentile(judge_s, 50)),
        "mismatches": mismatches,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "roadsearch": roadsearch.__version__,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("corpus", "tests/data/golden_roads.json, valid roads at 25 m/s")
    data.setdefault("runs", {})[args.label] = result
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    json.dump({args.label: result}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
