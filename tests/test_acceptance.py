"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them).

The desk-scale search runs (3 variants x 5 seeds, 300 evaluations each,
25 m/s) are shared by the trend criteria via a module-scoped fixture.
"""
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from roadsearch.geometry import ControlPointSet, frechet_pairs
from roadsearch.protocol import SutDescriptor, SutSession, external_evaluate
from roadsearch.report import load_archive, replay, summary_row, write_report
from roadsearch.road import build_road, validate
from roadsearch.search import (
    FAIL,
    RunReport,
    SearchConfig,
    builtin_driver,
    evaluate,
    random_individual,
    run_search,
)
from roadsearch.simulator import (
    DT,
    MAX_TIME,
    PASS,
    WHEELBASE,
    VehicleParams,
    VehicleState,
    run_test,
    step,
)

import sys

from geometry_oracles import bezier_point, frechet_bruteforce

SEEDS = (1, 2, 3, 4, 5)
VEHICLE_25 = VehicleParams(speed=25.0)


def report_line(num, text):
    print(f"\nACCEPTANCE {num} PASS - {text}")


@pytest.fixture(scope="module")
def desk_runs():
    drive = builtin_driver(VEHICLE_25)
    evaluator = lambda ind: evaluate(ind, drive)
    runs = {}
    t0 = time.perf_counter()
    for variant in "ABC":
        for seed in SEEDS:
            cfg = SearchConfig(variant=variant, max_evaluations=300, seed=seed)
            runs[variant, seed] = run_search(cfg, evaluator)
    return runs, time.perf_counter() - t0


def test_1_frechet_oracle_equivalence():
    rng = np.random.default_rng(2718)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p = rng.uniform(0, 10, size=(int(rng.integers(1, 6)), 2))
        q = rng.uniform(0, 10, size=(int(rng.integers(1, 6)), 2))
        worst = max(worst, abs(frechet_pairs(p, q)[0] - frechet_bruteforce(p, q)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    report_line(1, f"dp == brute force on 200 pairs "
                   f"(max delta {worst:.2e}, {elapsed:.2f}s)")


def test_2_geometry_property_suite():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(333)
    hull_violations = endpoint_violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        pts = rng.uniform(0, 200, (n, 2))
        c = ControlPointSet(pts)
        if np.linalg.norm(bezier_point(c, 0.0) - pts[0]) > 1e-9:
            endpoint_violations += 1
        if np.linalg.norm(bezier_point(c, 1.0) - pts[-1]) > 1e-9:
            endpoint_violations += 1
        if n >= 3:
            try:
                hull = scipy_spatial.ConvexHull(pts)
            except scipy_spatial.QhullError:
                continue
            ts = rng.uniform(0, 1, 100)
            curve = np.array([bezier_point(c, t) for t in ts])
            dist = curve @ hull.equations[:, :2].T + hull.equations[:, 2]
            if dist.max() > 1e-9:
                hull_violations += 1
    assert endpoint_violations == 0
    assert hull_violations == 0

    metric_violations = 0
    for _ in range(200):
        p = rng.uniform(0, 50, size=(int(rng.integers(1, 8)), 2))
        q = rng.uniform(0, 50, size=(int(rng.integers(1, 8)), 2))
        t = rng.uniform(-100, 100, size=2)
        if frechet_pairs(p, p)[0] != 0.0:
            metric_violations += 1
        if abs(frechet_pairs(p, q)[0] - frechet_pairs(q, p)[0]) > 1e-12:
            metric_violations += 1
        if abs(frechet_pairs(p + t, q + t)[0] - frechet_pairs(p, q)[0]) > 1e-9:
            metric_violations += 1
    assert metric_violations == 0
    report_line(2, "endpoint interpolation, convex hull (1000x100), "
                   "frechet metric properties: zero violations")


def test_3_simulator_sanity():
    # straight road drives clean
    pts = np.column_stack([np.linspace(0, 200, 7), np.full(7, 100.0)])
    road = build_road(ControlPointSet(pts))
    result = run_test(road)
    assert result.verdict == PASS and result.max_oob == 0.0
    assert result.trajectory[-1].time < MAX_TIME - DT  # reached the road's end

    # constant steer traces a circle of radius wheelbase/tan(delta)
    vp = VehicleParams(speed=12.0)
    delta = 0.3
    state = VehicleState(np.zeros(2), 0.0, steer=delta)
    trail = [state.position.copy()]
    for _ in range(2000):
        state = step(state, delta, vp)
        trail.append(state.position.copy())
    trail = np.array(trail)
    a = np.column_stack([2 * trail[:, 0], 2 * trail[:, 1], np.ones(len(trail))])
    b = (trail ** 2).sum(axis=1)
    (cx, cy, c), *_ = np.linalg.lstsq(a, b, rcond=None)
    radius = math.sqrt(c + cx * cx + cy * cy)
    expected = WHEELBASE / math.tan(delta)
    assert abs(radius - expected) / expected < 0.01

    # repeated runs are bit-identical
    wiggly = ControlPointSet(np.array(
        [[43.643, 197.805], [55.718, 22.685], [98.85, 144.87],
         [122.541, 123.161], [127.774, 126.756], [129.811, 178.505],
         [166.053, 14.54]]))
    tight = build_road(wiggly)
    r1 = run_test(tight, VEHICLE_25)
    r2 = run_test(tight, VEHICLE_25)
    assert r1.max_oob == r2.max_oob
    assert all(np.array_equal(s1.position, s2.position)
               for s1, s2 in zip(r1.trajectory, r2.trajectory))
    report_line(3, f"straight road clean, circle radius {radius:.3f} vs "
                   f"{expected:.3f} m, reruns bit-identical")


def test_4_every_variant_finds_failures(desk_runs):
    runs, elapsed = desk_runs
    found = {}
    for variant in "ABC":
        found[variant] = sum(
            1 for seed in SEEDS if runs[variant, seed].aggregates["F"] >= 1)
        assert found[variant] >= 4, f"variant {variant}: {found[variant]}/5"
    assert elapsed < 600.0
    # restart policy: B/C reseed right after every failure, A never does
    for (variant, seed), report in runs.items():
        kinds = [e["kind"] for e in report.events]
        if variant == "A":
            assert kinds.count("RESEED") == 0
        else:
            for i, kind in enumerate(kinds):
                if kind == "FAIL":
                    assert kinds[i + 1] == "RESEED"
    report_line(4, "runs with >=1 FAIL: " +
                ", ".join(f"{v}: {found[v]}/5" for v in "ABC") +
                f"; 15 runs took {elapsed:.0f}s")


def test_5_diversity_trend_b_over_a(desk_runs):
    runs, _ = desk_runs
    wins = 0
    details = []
    for seed in SEEDS:
        a = runs["A", seed].aggregates
        b = runs["B", seed].aggregates
        assert a["F"] >= 2, f"A seed {seed} has fewer than 2 failures"
        assert b["F"] >= 2, f"B seed {seed} has fewer than 2 failures"
        win = b["avg_frechet_failures"] > a["avg_frechet_failures"]
        wins += win
        details.append(f"seed{seed}: {a['avg_frechet_failures']:.0f} vs "
                       f"{b['avg_frechet_failures']:.0f}")
    assert wins >= 4
    report_line(5, f"avg frechet among failures, A vs B: "
                   f"{'; '.join(details)} -> B wins {wins}/5")


def test_6_validity_guidance_trend(desk_runs):
    runs, _ = desk_runs
    frac = {v: np.mean([runs[v, s].aggregates["I"] / runs[v, s].aggregates["T"]
                        for s in SEEDS]) for v in "BC"}
    assert frac["C"] < frac["B"]
    report_line(6, f"mean invalid fraction: B {frac['B']:.3f} vs "
                   f"C {frac['C']:.3f}")


def test_7_report_fidelity(desk_runs, tmp_path):
    runs, _ = desk_runs
    sut = SutDescriptor()

    # emitted summaries satisfy T = P + I + F
    for (variant, seed), report in runs.items():
        row = summary_row(report)
        assert row["T"] == row["P"] + row["I"] + row["F"]

    # a single-failure run prints n/a in both frechet columns
    one_fail = next((r for r in runs.values() if r.aggregates["F"] == 1), None)
    if one_fail is None:
        records = [rec for rec in runs["B", 1].records][:30]
        fails = [rec for rec in records if rec.verdict == FAIL][:1]
        passes = [rec for rec in records if rec.verdict != FAIL]
        kept = fails + passes
        one_fail = RunReport(
            config=runs["B", 1].config,
            records=kept,
            events=[],
            aggregates={"T": len(kept), "P": sum(r.verdict == "PASS" for r in kept),
                        "I": sum(r.verdict == "INVALID" for r in kept),
                        "F": 1, "avg_frechet_failures": None,
                        "max_frechet_failures": None})
    row = summary_row(one_fail)
    assert row["AvgFrechet"] == "n/a" and row["MaxFrechet"] == "n/a"

    # archives replay to identical verdicts; SVGs well-formed
    report = runs["A", 1]
    paths = write_report(report, tmp_path, vparams=VEHICLE_25, sut=sut)
    archive = load_archive(paths["archive"])
    ids = [r["id"] for r in archive["records"]]
    rng = np.random.default_rng(0)
    for test_id in rng.choice(ids, size=8, replace=False):
        replay(archive, int(test_id))  # raises ReplayDivergence on mismatch
    for svg in paths["svgs"][:3]:
        ET.parse(svg)
    report_line(7, "summaries consistent, n/a rendering exact, "
                   "8 archived tests replayed identically")


def test_8_protocol_differential():
    rng = np.random.default_rng(55)
    roads = []
    while len(roads) < 50:
        ind = random_individual(rng)
        road = build_road(ind.genotype)
        if validate(road).valid:
            roads.append(road)
    sut = SutDescriptor(
        command=f"{sys.executable} -m roadsearch.protocol --speed 25",
        timeout=120.0)
    worst = 0.0
    with SutSession(sut) as session:  # one child for all roads, as `roadsearch run` does
        for road in roads:
            ref = run_test(road, VEHICLE_25)
            ext = external_evaluate(road, sut, session)
            assert ext.verdict == ref.verdict
            worst = max(worst, abs(ext.max_oob - ref.max_oob))
    assert worst <= 1e-9
    report_line(8, f"50 roads, protocol vs in-process: verdicts identical, "
                   f"max |delta max_oob| = {worst:.2e}")
