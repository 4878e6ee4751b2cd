"""Smoke test of the benchmark at tiny budgets.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced, checks that each metric
BENCHMARK.json names is printed with its unit, that the reference check
passes, that search_external's records equal search_builtin's prefix,
and that a broken SUT command fails the run with one failed evaluation
per driven test.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# enough evaluations for a few driven tests and, with --novelty, a generation
TINY = {"search_builtin": 30, "search_novelty": 13, "search_external": 12}
SELF_TIMES = ("cli.self_s", "search.self_s", "road.self_s", "simulator.self_s",
              "geometry.frechet.self_s", "protocol.self_s", "report.self_s")


def bench(workload, trace, *extra, evals=None):
    argv = [sys.executable, str(BENCH / "run_bench.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.1", "--trace", str(trace),  # one pass
            "--budget-evals", str(evals or TINY[workload]), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, (json.loads(lines[-1]) if lines else None), proc.stderr


def archive(workload):
    with open(BENCH / "_work" / workload / "out" / "run01.json", encoding="utf-8") as fh:
        return json.load(fh)["records"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_reports_every_metric(workload, trace):
    code, lines, result, err = bench(workload, trace)
    assert code == 0, err + "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= TINY[workload]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} " in "\n".join(lines)
    assert any(line.startswith("error_share 0 ") for line in lines)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert sum(metrics[name] for name in SELF_TIMES) == pytest.approx(
            metrics["trace.wall_s"], rel=1e-6)
    else:
        assert all(v > 0 for v in metrics.values())


def test_traced_counts_repeat_exactly():
    exact = ("simulator.steps", "geometry.frechet.calls", "geometry.frechet.cells",
             "search.novelty.frechet_per_call", "protocol.spawns")
    runs = [bench("search_novelty", 1)[2]["metrics"] for _ in range(2)]
    assert [[r[k]["value"] for k in exact] for r in runs][0] == \
        [[r[k]["value"] for k in exact] for r in runs][1]
    assert runs[0]["search.novelty.frechet_per_call"]["value"] == 78  # 12 + 12*11/2


def test_external_records_equal_builtin_prefix():
    n = TINY["search_external"]
    assert bench("search_builtin", 0, evals=n)[0] == 0
    builtin = archive("search_builtin")
    assert bench("search_external", 0, evals=n)[0] == 0
    external = archive("search_external")
    key = [(r["verdict"], r["fitness"], r["genotype"]) for r in external]
    assert key == [(r["verdict"], r["fitness"], r["genotype"]) for r in builtin]


def test_broken_sut_fails_every_driven_test():
    # all 15 evaluations are drawn from the random initial population of
    # 25, so the roads do not depend on the (wrong) verdicts
    broken = f"{sys.executable} -c pass"
    code, lines, result, _ = bench("search_external", 0, "--sut", broken, evals=15)
    assert code == 1 and not result["correct"]
    refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    window = json.loads(next(line for line in lines if line.startswith("# facts "))[8:])
    assert window["passes"] == 1
    driven = sum(refs["seeds"][str(seed)]["search_external"]["valid"][:15].count("1")
                 for seed in window["ga_seeds"])
    assert driven > 0 and result["failed"] == driven


def test_refuses_to_run_without_the_source_tree(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "bench" / "references.json").write_bytes((BENCH / "references.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", "search_builtin",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
