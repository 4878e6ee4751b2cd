#!/usr/bin/env python3
"""Seeded benchmark of roadsearch's search loop.

    python3 bench/run_bench.py --workload search_builtin --seed 1 --seconds 40 --trace 0

One process, one client, closed loop: the GA waits for every verdict and
at most one SUT child process is alive. Each search is one
``roadsearch run`` invocation (search plus ``write_report``) driven
in-process through ``roadsearch.cli.main``. A run takes a fixed window
of ``SEEDS`` consecutive reference seeds, so the same ``--seed`` always
gives the same searches, and makes passes over that window while the
next pass would still end within ``--seconds``. A seed's wall time and
each of its tests' times are the medians over the passes.
Every search's records are checked against ``references.json``: same
verdict and |delta max_oob| <= 1e-9 per test, same T/P/I/F and Frechet
aggregates. An error-tagged INVALID or a mismatch is a failed
evaluation and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
first three seeds untraced and then traced, with spans around the public
functions each module exposes (see ``instrument``), and reports the
per-layer metrics; the spans are written to ``bench/_work/<workload>/``.
The last line of standard output is one JSON object; the lines above it
name every metric with its unit and the machine facts.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

from tracing import ModuleProxy, Span, Tracer, ancestors, self_times, write_spans
from workloads import (
    BENCH_DIR,
    ERROR_TAGS,
    OOB_TOL,
    REFERENCES,
    SPEED,
    SRC,
    VERDICT_CODE,
    WORK,
    WORKLOADS,
    Workload,
    cli_argv,
    load_references,
    sut_command,
    write_config,
)

SETUP_PROBES = 7
SEEDS = 6  # GA seeds per run: every six-seed window of the pool leaves each tail 10 driven tests
TRACE_SEEDS = 3  # at 75 evaluations, no three consecutive pool seeds lack a pair of failures
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END = {
    "evals_per_s": "1/s",
    "test_ms_p50": "ms",
    "test_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulator.run_test.calls": "count",
    "simulator.run_test.ms_p50": "ms",
    "simulator.run_test.ms_tail": "ms",
    "simulator.steps": "count",
    "simulator.us_per_step": "us",
    "simulator.self_s": "s",
    "simulator.fail_share": "ratio",
    "road.build.calls": "count",
    "road.build.us_p50": "us",
    "road.validate.calls": "count",
    "road.validate.us_p50": "us",
    "road.validate.self_s": "s",
    "road.self_s": "s",
    "road.invalid_share": "ratio",
    "geometry.frechet.calls": "count",
    "geometry.frechet.cells": "count",
    "geometry.frechet.ms_p50": "ms",
    "geometry.frechet.self_s": "s",
    "search.self_s": "s",
    "search.novelty.calls": "count",
    "search.novelty.ms_p50": "ms",
    "search.novelty.accept_share": "ratio",
    "search.novelty.frechet_per_call": "count",
    "search.archive.self_s": "s",
    "search.archive.frechet_calls": "count",
    "search.overhead_share": "ratio",
    "protocol.calls": "count",
    "protocol.ms_p50": "ms",
    "protocol.ms_tail": "ms",
    "protocol.spawns": "count",
    **{f"protocol.errors.{tag}": "count" for tag in ERROR_TAGS},
    "protocol.overhead_ms_p50": "ms",
    "protocol.self_s": "s",
    "report.write.self_s": "s",
    "report.self_s": "s",
    "report.resim.calls": "count",
    "report.svg.calls": "count",
    "report.bytes": "B",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
}

# span name -> layer whose self time it counts toward
LAYER_OF = {
    "cli.main": "cli",
    "search.run_search": "search",
    "search.eval": "search",
    "search.novelty": "search",
    "search.archive": "search",
    "road.build": "road",
    "road.validate": "road",
    "simulator.run_test": "simulator",
    "report.resim": "simulator",
    "geometry.frechet": "geometry",
    "protocol.external": "protocol",
    "protocol.spawn": "protocol",
    "report.write": "report",
    "report.svg": "report",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Search:
    """One ``roadsearch run`` invocation and its check against the reference."""

    seed: int
    wall: float
    evals: int
    eval_times: list[float]
    driven: list[bool]
    failed: int
    problems: list[str]
    bytes: int


@dataclass
class Pass:
    """Traced searches over the trace seeds, with what the spans saw."""

    spans: list[Span] = field(default_factory=list)
    external: list = field(default_factory=list)  # road of each external_evaluate that returned
    searches: list[Search] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)  # wrap targets this tree lacks


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(a, b) -> float:
    return a / b if b else 0.0


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    fits = [p for p in TAIL_PERCENTILES if len(values) * (1 - p / 100.0) >= 10]
    return percentile(values, fits[-1] if fits else 50)


def repeat(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while the longest call so far
    would still end within ``seconds`` of the start."""
    begin, longest = perf_counter(), 0.0
    while True:
        start = perf_counter()
        step()
        longest = max(longest, perf_counter() - start)
        if perf_counter() - begin + longest > seconds:
            return


def check(archive: dict | None, ref: dict, evals: int) -> tuple[int, list[str]]:
    """Failed evaluations of one archived run against its reference.

    The reference may be longer than the run (a smaller budget gives a
    prefix of the same search); the Frechet aggregates are compared only
    at the reference's own budget.
    """
    if archive is None:
        return evals, ["no archive written"]
    records = archive["records"]
    failed, problems = 0, []
    for i, rec in enumerate(records):
        if rec.get("error") in ERROR_TAGS:
            failed += 1
            problems.append(f"test {i}: {rec['error']}")
        elif (i >= len(ref["verdicts"]) or VERDICT_CODE.get(rec["verdict"]) != ref["verdicts"][i]
              or abs(rec["fitness"] - ref["max_oob"][i]) > OOB_TOL):
            failed += 1
            problems.append(f"test {i}: {rec['verdict']} {rec['fitness']!r} differs from reference")
    if len(records) != evals:
        failed += abs(evals - len(records))
        problems.append(f"{len(records)} records, expected {evals}")
    agg, expect = archive["aggregates"], ref["aggregates"]
    counts = {k: ref["verdicts"][:evals].count(k[0]) for k in ("PASS", "INVALID", "FAIL")}
    want = {"T": evals, "P": counts["PASS"], "I": counts["INVALID"], "F": counts["FAIL"]}
    if evals == len(ref["verdicts"]):
        for key in ("avg_frechet_failures", "max_frechet_failures"):
            a, b = agg.get(key), expect[key]
            if (a is None) != (b is None) or (a is not None and abs(a - b) > OOB_TOL):
                problems.append(f"aggregate {key} {a!r} != reference {b!r}")
    for key, value in want.items():
        if agg.get(key) != value:
            problems.append(f"aggregate {key} {agg.get(key)!r} != reference {value!r}")
    return failed, problems


class Bench:
    """Runs searches of one workload through ``roadsearch.cli.main``."""

    def __init__(self, workload: Workload, references: dict, evals: int | None,
                 sut: str | None):
        from roadsearch import cli

        self.cli = cli
        self.workload = workload
        self.references = references
        self.evals = evals or workload.evals
        self.sut = (sut or sut_command()) if workload.external else None
        self.dir = WORK / workload.name
        self.config = write_config(workload, self.dir / "config.json")
        self.tracer: Tracer | None = None
        self.eval_times: list[float] = []
        self._time_evaluations()

    def _time_evaluations(self):
        original = self.cli.run_search

        def run_search(config, evaluator, **kwargs):
            tracer = self.tracer

            def timed(ind):
                span = None
                if tracer is not None:
                    tracer.test = len(self.eval_times)
                    span = tracer.open("search.eval")
                start = perf_counter()
                try:
                    return evaluator(ind)
                finally:
                    self.eval_times.append(perf_counter() - start)
                    if span is not None:
                        tracer.close(span)

            if tracer is None:
                return original(config, timed, **kwargs)
            span = tracer.open("search.run_search")
            try:
                return original(config, timed, **kwargs)
            finally:
                tracer.close(span)
                tracer.test = None

        self.cli.run_search = run_search

    def argv(self, seed: int, out: Path) -> list[str]:
        return cli_argv(self.workload, seed, self.config, out, self.evals, self.sut)

    def search(self, seed: int) -> Search:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.eval_times = []
        argv = self.argv(seed, out)
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        wall = perf_counter() - start

        archive = None
        if code == 0 and (out / "run01.json").exists():
            with open(out / "run01.json", encoding="utf-8") as fh:
                archive = json.load(fh)
        ref = self.references["seeds"][seed][self.workload.name]
        failed, problems = check(archive, ref, self.evals)
        if code != 0:
            problems.append(f"roadsearch run exited {code}")
        size = sum(p.stat().st_size for p in out.iterdir()) if out.exists() else 0
        driven = [v == "1" for v in ref["valid"][:len(self.eval_times)]]
        return Search(seed, wall, len(self.eval_times), list(self.eval_times), driven,
                      failed, problems, size)

    def traced_pass(self, seeds: list[int]) -> Pass:
        import roadsearch.cli as cli
        import roadsearch.protocol as protocol
        import roadsearch.report as report
        import roadsearch.search as search

        result = Pass()
        tracer = self.tracer = Tracer()
        missing = instrument(tracer, cli, search, report, protocol, result.external)
        try:
            for seed in seeds:
                result.searches.append(self.search(seed))
        finally:
            tracer.restore()
            self.tracer = None
        result.spans = tracer.take()
        result.absent = missing
        return result


def instrument(tracer: Tracer, cli, search, report, protocol, external: list) -> list[str]:
    """Wrap each module's public functions as its callers import them.

    Returns the attributes that do not exist in this tree.
    """
    def sim_note(args, result):
        return result.verdict, len(result.trajectory) - 1

    def external_note(args, result):
        external.append(args[0])
        return result.error

    spawner = ModuleProxy(protocol.subprocess)
    targets = [
        (cli, "main", "cli.main", None),
        (search, "build_road", "road.build", None),
        (search, "validate", "road.validate", lambda a, r: r.valid),
        (search, "run_test", "simulator.run_test", sim_note),
        (search, "discrete_frechet", "geometry.frechet", lambda a, r: len(a[0]) * len(a[1])),
        (search, "novelty_accept", "search.novelty", lambda a, r: bool(r)),
        (search.FailureArchive, "pairwise", "search.archive", None),
        (search.FailureArchive, "avg_frechet", "search.archive", None),
        (search.FailureArchive, "max_frechet", "search.archive", None),
        (cli, "build_road", "road.build", None),
        (cli, "validate", "road.validate", lambda a, r: r.valid),
        (cli, "external_evaluate", "protocol.external", external_note),
        (cli, "write_report", "report.write", None),
        (report, "build_road", "road.build", None),
        (report, "run_test", "report.resim", sim_note),
        (report, "render_test_svg", "report.svg", None),
        (spawner, "run", "protocol.spawn", None),
    ]
    missing = []
    for owner, attr, name, note in targets:
        if hasattr(owner, attr):
            tracer.wrap(owner, attr, name, note)
        else:
            missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
    tracer.patch(protocol, "subprocess", spawner)
    return missing


def layer_metrics(passes: list[Pass], untraced: list[Search], redrive_ms: list[float]) -> dict:
    def named(spans, *names):
        return [s for s in spans if s.name in names]

    def pooled_ms(*names):
        return [s.duration * 1e3 for p in passes for s in named(p.spans, *names)]

    def self_s(select):
        """Summed self time of the selected spans, per pass (a mean, so that
        the layers add up to the traced wall time)."""
        return statistics.fmean(sum(t for s, t in zip(p.spans, self_times(p.spans)) if select(s))
                                for p in passes)

    def under(spans, name, parent):
        return [i for i, s in enumerate(spans)
                if s.name == name and parent in ancestors(spans, i)]

    spans = passes[0].spans
    sim = named(spans, "simulator.run_test")
    drives = named(spans, "simulator.run_test", "report.resim")
    steps = sum(s.note[1] for s in drives if s.note is not None)
    sim_self = self_s(lambda s: LAYER_OF[s.name] == "simulator")
    validations = named(spans, "road.validate")
    frechet = named(spans, "geometry.frechet")
    novelty = named(spans, "search.novelty")
    external = named(spans, "protocol.external")
    sim_ms, external_ms = pooled_ms("simulator.run_test"), pooled_ms("protocol.external")
    traced = [s for p in passes for s in p.searches]
    every = [s for p in passes for s in p.spans]
    eval_time = sum(s.duration for s in named(every, "search.eval"))
    search_wall = sum(s.duration for s in named(every, "search.run_search"))
    traced_rate = ratio(sum(s.evals for s in traced), sum(s.wall for s in traced))
    untraced_rate = ratio(sum(s.evals for s in untraced), sum(s.wall for s in untraced))

    return {
        "simulator.run_test.calls": len(sim),
        "simulator.run_test.ms_p50": median(sim_ms),
        "simulator.run_test.ms_tail": tail(sim_ms),
        "simulator.steps": steps,
        "simulator.us_per_step": ratio(sim_self * 1e6, steps),
        "simulator.self_s": sim_self,
        "simulator.fail_share": ratio(sum(1 for s in sim if s.note and s.note[0] == "FAIL"),
                                      len(sim)),
        "road.build.calls": len(named(spans, "road.build")),
        "road.build.us_p50": median(pooled_ms("road.build")) * 1e3,
        "road.validate.calls": len(validations),
        "road.validate.us_p50": median(pooled_ms("road.validate")) * 1e3,
        "road.validate.self_s": self_s(lambda s: s.name == "road.validate"),
        "road.self_s": self_s(lambda s: LAYER_OF[s.name] == "road"),
        "road.invalid_share": ratio(sum(1 for s in validations if s.note is False),
                                    len(validations)),
        "geometry.frechet.calls": len(frechet),
        "geometry.frechet.cells": sum(s.note for s in frechet if s.note is not None),
        "geometry.frechet.ms_p50": median(pooled_ms("geometry.frechet")),
        "geometry.frechet.self_s": self_s(lambda s: s.name == "geometry.frechet"),
        "search.self_s": self_s(lambda s: LAYER_OF[s.name] == "search"),
        "search.novelty.calls": len(novelty),
        "search.novelty.ms_p50": median(pooled_ms("search.novelty")),
        "search.novelty.accept_share": ratio(sum(1 for s in novelty if s.note), len(novelty)),
        "search.novelty.frechet_per_call": ratio(
            len(under(spans, "geometry.frechet", "search.novelty")), len(novelty)),
        "search.archive.self_s": self_s(lambda s: s.name == "search.archive"),
        "search.archive.frechet_calls": len(under(spans, "geometry.frechet", "search.archive")),
        "search.overhead_share": 1.0 - ratio(eval_time, search_wall) if search_wall else 0.0,
        "protocol.calls": len(external),
        "protocol.ms_p50": median(external_ms),
        "protocol.ms_tail": tail(external_ms),
        "protocol.spawns": sum(1 for s in named(spans, "protocol.spawn")
                               if s.raised in (None, "TimeoutExpired")),
        **{f"protocol.errors.{tag}": sum(1 for s in external if s.note == tag)
           for tag in ERROR_TAGS},
        "protocol.overhead_ms_p50": median(redrive_ms),
        "protocol.self_s": self_s(lambda s: LAYER_OF[s.name] == "protocol"),
        "report.write.self_s": self_s(lambda s: s.name == "report.write"),
        "report.self_s": self_s(lambda s: LAYER_OF[s.name] == "report"),
        "report.resim.calls": len(named(spans, "report.resim")),
        "report.svg.calls": len(named(spans, "report.svg")),
        "report.bytes": sum(s.bytes for s in passes[0].searches),
        "cli.self_s": self_s(lambda s: s.name == "cli.main"),
        "trace.wall_s": statistics.fmean(sum(s.duration for s in p.spans if s.parent is None)
                                         for p in passes),
        "trace.overhead_share": 1.0 - ratio(traced_rate, untraced_rate),
    }


def exact_counts(p: Pass) -> tuple:
    """Counts that must repeat exactly whenever the same searches are traced."""
    names = sorted({s.name for s in p.spans})
    return tuple((n, sum(1 for s in p.spans if s.name == n)) for n in names) + (
        sum(s.note[1] for s in p.spans
            if s.name in ("simulator.run_test", "report.resim") and s.note is not None),
        sum(s.note for s in p.spans if s.name == "geometry.frechet" and s.note is not None),
    )


def redrive(p: Pass) -> list[float]:
    """External time minus in-process ``run_test`` time for the same roads."""
    from roadsearch.simulator import VehicleParams, run_test

    vparams = VehicleParams(speed=SPEED)
    returned = [s for s in p.spans if s.name == "protocol.external" and s.raised is None]
    overhead = []
    for road, span in zip(p.external, returned, strict=True):
        if span.note is not None:
            continue  # error-tagged: the SUT never drove it
        start = perf_counter()
        run_test(road, vparams)
        overhead.append((span.duration - (perf_counter() - start)) * 1e3)
    return overhead


def measure_setup(bench: Bench, seed: int) -> float:
    """Median time from spawning a fresh interpreter to its first evaluation."""
    argv = bench.argv(seed, bench.dir / "probe")
    times = []
    for _ in range(SETUP_PROBES):
        start = monotonic()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *argv],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return median(times)


def end_to_end(searches: list[Search], workload: Workload, setup_s: float) -> tuple[dict, str]:
    """Each seed counts once, with its median wall time over the passes and,
    test by test, its median evaluator times."""
    by_seed: dict[int, list[Search]] = {}
    for s in searches:
        by_seed.setdefault(s.seed, []).append(s)
    walls = [median([r.wall for r in runs]) for runs in by_seed.values()]
    driven = [median(times) * 1e3 for runs in by_seed.values()
              for times, d in zip(zip(*(r.eval_times for r in runs)), runs[0].driven) if d]
    beyond = sum(1 for t in driven if t > percentile(driven, workload.tail_pct))
    metrics = {
        "evals_per_s": ratio(sum(runs[0].evals for runs in by_seed.values()), sum(walls)),
        "test_ms_p50": median(driven),
        "test_ms_tail": percentile(driven, workload.tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = f"p{workload.tail_pct} of n={len(driven)} driven tests, {beyond} beyond it"
    if beyond < 10:
        note += " (warning: fewer than 10 beyond it, the tail rests on too few tests)"
        print(f"warning: test_ms_tail is the {note}", file=sys.stderr)
    return metrics, note


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "numba" in sys.modules,  # roadsearch.geometry imports it when present
    }


def seed_window(references: dict, seed: int) -> list[int]:
    """``SEEDS`` consecutive reference seeds, starting at ``seed`` when the
    pool holds it and at pool position ``seed mod size`` otherwise, wrapping
    around."""
    pool = sorted(references["seeds"])
    start = pool.index(seed) if seed in pool else seed % len(pool)
    return [pool[(start + i) % len(pool)] for i in range(SEEDS)]


def run(args) -> tuple[dict, bool]:
    workload = WORKLOADS[args.workload]
    references = load_references(args.references)
    bench = Bench(workload, references, args.budget_evals, args.sut)
    ga_seeds = seed_window(references, args.seed)
    searches: list[Search] = []
    passes: list[Pass] = []
    lines = []

    if args.trace:
        trace_seeds = ga_seeds[:TRACE_SEEDS]

        def untraced_then_traced():
            searches.extend(bench.search(s) for s in trace_seeds)
            passes.append(bench.traced_pass(trace_seeds))

        repeat(args.seconds, untraced_then_traced)
        write_spans([p.spans for p in passes], bench.dir / "spans.jsonl")
        traced = [s for p in passes for s in p.searches]
        metrics = layer_metrics(passes, searches, redrive(passes[0]))
        if any(exact_counts(p) != exact_counts(passes[0]) for p in passes):
            traced[0].problems.append("traced passes over the same seeds gave different counts")
        if passes[0].absent:
            lines.append("# not traced, absent from this tree: " + ", ".join(passes[0].absent))
        units = PER_LAYER
        ga_seeds = trace_seeds
        n_passes = len(passes)
        all_searches = searches + traced
    else:
        setup_s = measure_setup(bench, min(references["seeds"]))
        repeat(args.seconds, lambda: searches.extend(bench.search(s) for s in ga_seeds))
        n_passes = len(searches) // len(ga_seeds)
        metrics, tail_note = end_to_end(searches, workload, setup_s)
        units = END_TO_END
        all_searches = searches
        lines.append(f"# test_ms_tail is the {tail_note}")

    attempted = sum(s.evals for s in all_searches)
    failed = sum(s.failed for s in all_searches)
    problems = [f"seed {s.seed}: {p}" for s in all_searches for p in s.problems]
    facts = {**machine_facts(), "workload": workload.name, "seed": args.seed,
             "ga_seeds": ga_seeds, "passes": n_passes, "references": references.get("source")}
    head = [f"# {workload.name}: {workload.why}",
            "# facts " + json.dumps(facts)]
    body = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    body.append(f"error_share {ratio(failed, attempted):.6g} ratio "
                f"({failed} of {attempted} evaluations failed)")
    for line in head + lines + body + [f"# problem: {p}" for p in problems[:50]]:
        print(line)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="reference file written by record.py")
    parser.add_argument("--budget-evals", type=int, metavar="N",
                        help="cut every search to N evaluations (smoke tests)")
    parser.add_argument("--sut", metavar="COMMAND",
                        help="external SUT command for search_external (self-checks)")
    args = parser.parse_args(argv)

    if not (SRC / "roadsearch" / "__init__.py").exists():
        print(f"error: no roadsearch source tree at {SRC}", file=sys.stderr)
        return 2
    if not args.references.exists():
        print(f"error: no reference file {args.references}", file=sys.stderr)
        return 2
    limit = WORKLOADS[args.workload].evals
    if args.budget_evals is not None and not 1 <= args.budget_evals <= limit:
        parser.error(f"--budget-evals must be in 1..{limit}")

    # the harness and every SUT child it starts import the tree under test
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    try:
        result, ok = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
