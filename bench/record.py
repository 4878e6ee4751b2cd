#!/usr/bin/env python3
"""Record reference verdicts for the benchmark's seeds from a given commit.

    python3 bench/record.py --commit <rev> --seeds 900-903 --out refs.json

Each seed is run through ``roadsearch run`` once per workload, with the
built-in SUT (search_external's reference is the in-process result, so
the benchmark's external run is a protocol differential). The commit's
``src/`` is exported with ``git archive`` first, so a claim can be
checked on a seed the committed pool does not hold:
``run_bench.py --references refs.json --seed 900``. Entries of an
existing output file are kept unless re-recorded; seeds from another
commit go to another file.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

from workloads import (
    REFERENCES,
    ROOT,
    WORK,
    WORKLOADS,
    cli_argv,
    reference_entry,
    write_config,
)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export_commit(rev: str) -> Path:
    dest = WORK / f"record-{rev}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def resolve(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def record(seeds: list[int]) -> dict:
    """Run in a process whose sys.path starts at the tree being recorded."""
    import numpy as np

    from roadsearch import cli
    from roadsearch.geometry import ControlPointSet
    from roadsearch.road import RoadParams, build_road, validate

    road_params = RoadParams()
    work = WORK / "record"
    out = {}
    for seed in seeds:
        entries = {}
        for w in WORKLOADS.values():
            config = write_config(w, work / f"{w.name}.json")
            run_dir = work / "out"
            shutil.rmtree(run_dir, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(cli_argv(w, seed, config, run_dir)) != 0:
                    raise SystemExit(f"seed {seed} {w.name}: roadsearch run failed")
            with open(run_dir / "run01.json", encoding="utf-8") as fh:
                archive = json.load(fh)
            valid = [validate(build_road(ControlPointSet(np.asarray(r["genotype"], dtype=float),
                                                         road_params.map_size),
                                         road_params)).valid
                     for r in archive["records"]]
            entries[w.name] = reference_entry(archive, valid)
        builtin, external = entries["search_builtin"], entries["search_external"]
        n = len(external["verdicts"])
        if (builtin["verdicts"][:n] != external["verdicts"]
                or builtin["max_oob"][:n] != external["max_oob"]):
            raise SystemExit(f"seed {seed}: a shorter budget is not a prefix of the longer one")
        out[str(seed)] = entries
        print(f"seed {seed}: " + " ".join(
            f"{k}={e['aggregates']['T']}/{e['aggregates']['F']}F" for k, e in entries.items()),
            file=sys.stderr, flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-32 or 5,9,12")
    parser.add_argument("--commit", default="HEAD", help="git revision to record from")
    parser.add_argument("--out", type=Path, default=REFERENCES)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    if args.worker:
        json.dump(record(seeds), sys.stdout)
        return 0

    commit = resolve(args.commit)
    existing = {"seeds": {}}
    if args.out.exists():
        with open(args.out, encoding="utf-8") as fh:
            existing = json.load(fh)
        if existing.get("source") != commit:
            parser.error(f"{args.out} holds seeds recorded from {existing.get('source')}, "
                         f"not {commit}; give another --out")

    src = export_commit(commit)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    worker = subprocess.run([sys.executable, __file__, "--worker", "--seeds", args.seeds],
                            env=env, stdout=subprocess.PIPE, text=True, check=True)
    entries = json.loads(worker.stdout)

    existing["source"] = commit
    existing["recorded_with"] = {"python": platform.python_version(),
                                 "machine": platform.machine()}
    existing["seeds"].update(entries)
    existing["seeds"] = dict(sorted(existing["seeds"].items(), key=lambda kv: int(kv[0])))
    args.out.write_text(json.dumps(existing, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} seed(s) into {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
