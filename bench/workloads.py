"""Workload table and reference records shared by run_bench.py and record.py.

Every workload is one ``roadsearch run`` invocation (search plus
``write_report``) with variant A at 25 m/s. The search's GA seeds come
from the pool of seeds that ``references.json`` holds frozen verdicts
for, so every evaluation the benchmark makes is checked.
"""
from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCES = BENCH_DIR / "references.json"

SPEED = 25.0
OOB_TOL = 1e-9  # the bound `replay` and the protocol differential use
ERROR_TAGS = ("spawn-error", "timeout", "protocol-error")
VERDICT_CODE = {"PASS": "P", "FAIL": "F", "INVALID": "I"}


@dataclass(frozen=True)
class Workload:
    name: str
    population: int
    evals: int
    novelty: bool
    external: bool
    tail_pct: int  # highest percentile with >= 10 driven tests beyond it in every seed window
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("search_builtin", 25, 75, False, False, 90,
                 "GA on the built-in SUT: run_test and validate dominate, the archive "
                 "Frechet and the report are small, protocol is idle"),
        Workload("search_novelty", 12, 13, True, False, 60,
                 "GA with the novelty filter, one generation of 12 offspring: "
                 "novelty_accept's Frechet DPs dominate, the simulator is a small share; "
                 "test_ms_* rest on only 28-42 driven tests"),
        Workload("search_external", 25, 15, False, True, 65,
                 "built-in simulator behind the line protocol, one child process per "
                 "driven test: protocol overhead dominates; records must equal "
                 "search_builtin's prefix"),
    )
}


def sut_command() -> str:
    """The protocol server of the tree under test, run by this interpreter."""
    return f"{shlex.quote(sys.executable)} -m roadsearch.protocol --speed {SPEED:g}"


def write_config(workload: Workload, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"search": {"population_size": workload.population},
                                "vehicle": {"speed": SPEED}}), encoding="utf-8")
    return path


def cli_argv(workload: Workload, seed: int, config: Path, out: Path,
             evals: int | None = None, sut: str | None = None) -> list[str]:
    """Arguments of the ``roadsearch run`` invocation one search makes.

    ``sut`` is the external SUT command; None drives the built-in SUT.
    """
    argv = ["run", "--config", str(config), "--variant", "A", "--seed", str(seed),
            "--budget-evals", str(evals or workload.evals), "--out", str(out)]
    if workload.novelty:
        argv.append("--novelty")
    if sut is not None:
        argv += ["--sut", sut]
    return argv


def reference_entry(archive: dict, valid: list[bool]) -> dict:
    """Compact reference for one archived run: verdict letters, max_oob per
    test, whether each road passed validation, and the aggregates."""
    records = archive["records"]
    return {
        "verdicts": "".join(VERDICT_CODE[r["verdict"]] for r in records),
        "max_oob": [r["fitness"] for r in records],
        "valid": "".join("1" if v else "0" for v in valid),
        "aggregates": archive["aggregates"],
    }


def load_references(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["seeds"] = {int(k): v for k, v in data["seeds"].items()}
    return data
