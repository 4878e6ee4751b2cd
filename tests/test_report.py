import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from roadsearch.geometry import ControlPointSet, frechet_pairs
from roadsearch.config import ConfigError, serialize_config
from roadsearch.protocol import SutDescriptor
from roadsearch.report import (
    ReplayDivergence,
    archive_to_dict,
    load_archive,
    render_failures,
    replay,
    summary_row,
    write_report,
    write_summary_csv,
)
from roadsearch.road import build_road
from roadsearch.search import (
    FAIL,
    PASS,
    Individual,
    RunReport,
    SearchConfig,
    builtin_driver,
    evaluate,
    run_search,
)
from roadsearch.simulator import VehicleParams

VP = VehicleParams(speed=25.0)
BUILTIN = SutDescriptor()

# written by `roadsearch run --variant B --seed 5 --budget-evals 20` at
# 25 m/s while the GA's rates, the vehicle geometry, the road geometry, the
# map and the control-point count were config keys, so its config holds all
# seventeen at their values
RETIRED_KEYS_ARCHIVE = Path(__file__).parent / "data" / "archive_retired_keys.json"


def current_keys(config):
    """``config`` with only the keys a config file takes today."""
    fields = serialize_config(SearchConfig(), VehicleParams(), SutDescriptor())
    return {section: {key: value for key, value in config[section].items() if key in keys}
            for section, keys in fields.items()}


def straight_points(y=100.0):
    return np.column_stack([np.linspace(0, 200, 7), np.full(7, y)])


def stub_report(fail_centerline_xs, n_pass=2, config=None):
    """Synthetic RunReport with one failing record per given centerline x."""
    config = config or SearchConfig(variant="A", max_evaluations=50, seed=0)
    records = []
    failures = []
    for i, x in enumerate(fail_centerline_xs):
        geno = ControlPointSet(straight_points(y=100.0 + i))
        records.append(Individual(geno, 99.0, FAIL, eval_time=0.01))
        failures.append(np.array([[float(x), 0.0]]))
    for i in range(n_pass):
        geno = ControlPointSet(straight_points(y=50.0 + i))
        records.append(Individual(geno, 0.0, PASS, eval_time=0.01))
    n = len(failures)
    if n >= 2:
        dists = [frechet_pairs(failures[i], failures[j])[0]
                 for i in range(n) for j in range(i + 1, n)]
        avg, mx = float(np.mean(dists)), float(np.max(dists))
    else:
        avg = mx = None
    aggregates = {"T": len(records), "P": n_pass, "I": 0, "F": n,
                  "avg_frechet_failures": avg, "max_frechet_failures": mx}
    return RunReport(config=config, records=records, events=[
        {"kind": "SEED", "epoch": 0},
        {"kind": "BUDGET_EXHAUSTED", "evaluations": len(records),
         "partial_seed": False},
    ], aggregates=aggregates)


class TestSummary:
    def test_single_failure_renders_na(self, tmp_path):
        report = stub_report([0.0])
        row = summary_row(report, run_id=3)
        assert row["AvgFrechet"] == "n/a" and row["MaxFrechet"] == "n/a"
        assert row["Run"] == 3
        write_summary_csv([row], tmp_path / "summary.csv")
        text = (tmp_path / "summary.csv").read_text()
        assert "n/a,n/a" in text

    def test_max_column_is_maximum(self):
        # failures at pairwise distances {25, 84, 109}
        report = stub_report([0.0, 25.0, 109.0])
        row = summary_row(report)
        assert row["MaxFrechet"] == "109.000"

    def test_empty_run_all_zero(self):
        report = stub_report([], n_pass=0)
        row = summary_row(report)
        assert (row["T"], row["P"], row["I"], row["F"]) == (0, 0, 0, 0)

    def test_counts_add_up(self):
        report = stub_report([0.0, 10.0], n_pass=5)
        row = summary_row(report)
        assert row["T"] == row["P"] + row["I"] + row["F"]


class TestWriteReport:
    def test_emits_archive_and_svgs(self, tmp_path):
        report = stub_report([0.0, 10.0])
        paths = write_report(report, tmp_path, vparams=VP,
                             sut=BUILTIN, run_id=1)
        assert paths["archive"].exists()
        assert len(paths["svgs"]) == 2
        for svg in paths["svgs"]:
            ET.parse(svg)  # well-formed XML

    def test_archive_is_replayable_json(self, tmp_path):
        report = stub_report([0.0])
        paths = write_report(report, tmp_path, vparams=VP,
                             sut=BUILTIN)
        archive = load_archive(paths["archive"])
        assert archive["version"]
        assert archive["config"]["search"]["variant"] == "A"
        assert len(archive["records"]) == report.aggregates["T"]
        assert archive["aggregates"]["T"] == report.aggregates["T"]


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    cfg = SearchConfig(variant="A", max_evaluations=40, seed=6)
    drive = builtin_driver(VP)
    report = run_search(cfg, lambda ind: evaluate(ind, drive))
    out = tmp_path_factory.mktemp("run")
    paths = write_report(report, out, vparams=VP, sut=BUILTIN)
    return report, paths


class TestReplay:
    def test_replay_matches_stored_verdicts(self, real_run):
        report, paths = real_run
        archive = load_archive(paths["archive"])
        for rec in archive["records"][:10]:
            result = replay(archive, rec["id"])
            assert result.verdict == rec["verdict"]

    def test_aggregates_recomputable_from_archive(self, real_run):
        report, paths = real_run
        archive = load_archive(paths["archive"])
        fails = [r for r in archive["records"] if r["verdict"] == FAIL]
        agg = archive["aggregates"]
        assert agg["F"] == len(fails)
        if len(fails) >= 2:
            curves = [build_road(ControlPointSet(np.asarray(r["genotype"]))).centerline
                      for r in fails]
            dists = [frechet_pairs(curves[i], curves[j])[0]
                     for i in range(len(curves)) for j in range(i + 1, len(curves))]
            assert np.mean(dists) == pytest.approx(agg["avg_frechet_failures"], abs=1e-6)
            assert np.max(dists) == pytest.approx(agg["max_frechet_failures"], abs=1e-6)

    def test_archive_with_parallel_key_replays(self, real_run, tmp_path):
        # archives written before the always-false "parallel" key was
        # dropped still load and replay
        _, paths = real_run
        archive = load_archive(paths["archive"])
        assert "parallel" not in archive
        archive["parallel"] = False
        old = tmp_path / "old.json"
        old.write_text(json.dumps(archive))
        archive = load_archive(old)
        for rec in archive["records"][:3]:
            assert replay(archive, rec["id"]).verdict == rec["verdict"]

    def test_archive_with_timing_keys_replays_and_renders(self, real_run, tmp_path):
        # archives written while the step and time cap were options carry
        # them as top-level keys, always 0.05 and 120.0; no code reads them
        _, paths = real_run
        archive = load_archive(paths["archive"])
        assert "dt" not in archive and "max_time" not in archive
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**archive, "dt": 0.05, "max_time": 120.0}))
        old_archive = load_archive(old)
        for rec in old_archive["records"][:3]:
            assert replay(old_archive, rec["id"]).verdict == rec["verdict"]
        fails = [r for r in old_archive["records"] if r["verdict"] == FAIL]
        assert fails
        assert replay(old_archive, fails[0]["id"]).verdict == FAIL
        svgs = render_failures(old_archive, tmp_path / "old")
        fresh = render_failures(archive, tmp_path / "new")
        assert len(svgs) == len(fails)
        assert [p.read_bytes() for p in svgs] == [p.read_bytes() for p in fresh]

    @pytest.mark.parametrize("kind", ["builtin", "external"])
    def test_archive_with_a_sut_kind_is_refused(self, real_run, tmp_path, kind):
        # a SUT is external exactly when it has a command; an archive whose
        # sut still names its kind is refused, whatever its command
        _, paths = real_run
        archive = load_archive(paths["archive"])
        sut = {"kind": kind, "command": "false", "timeout": 30.0}
        old = {**archive, "config": {**archive["config"], "sut": sut}}
        for call in (lambda: replay(old, 0), lambda: replay(old, 0, sut_command="false"),
                     lambda: render_failures(old, tmp_path / "old")):
            with pytest.raises(ConfigError, match=r"^sut\.kind: unknown key$"):
                call()
        assert not (tmp_path / "old").exists()

    def test_tampered_record_diverges(self, tmp_path):
        # archive a straight road with a blatantly wrong stored fitness
        geno = ControlPointSet(straight_points())
        report = RunReport(
            config=SearchConfig(variant="A", max_evaluations=1, seed=0),
            records=[Individual(geno, 99.0, FAIL, eval_time=0.01)],
            events=[], aggregates={"T": 1, "P": 0, "I": 0, "F": 1,
                                   "avg_frechet_failures": None,
                                   "max_frechet_failures": None})
        archive = archive_to_dict(report, VP, BUILTIN)
        with pytest.raises(ReplayDivergence):
            replay(archive, 0)

    def test_unknown_test_id(self, real_run):
        _, paths = real_run
        with pytest.raises(ValueError, match="no test"):
            replay(load_archive(paths["archive"]), 99999)

    def test_external_archive_refuses_without_command(self, tmp_path):
        report = stub_report([0.0])
        ext = SutDescriptor(command="some-sut --flag",
                            timeout=5.0)
        archive = archive_to_dict(report, VP, ext)
        with pytest.raises(ValueError, match="external SUT"):
            replay(archive, 0)
        with pytest.raises(ValueError, match="mismatch"):
            replay(archive, 0, sut_command="a-different-sut")


class TestRetiredSettings:
    """Archives from before the GA's rates, the vehicle geometry, the road
    geometry, the map and the control-point count became module constants
    are refused, as a config file that sets one is."""

    def test_archive_with_retired_keys_is_refused(self, tmp_path):
        archive = load_archive(RETIRED_KEYS_ARCHIVE)
        assert archive["config"]["search"]["tournament_size"] == 2
        assert archive["config"]["search"]["num_control_points"] == 7
        assert archive["config"]["vehicle"]["lookahead"] == 8.0
        assert archive["config"]["road"] == {"lane_width": 4.0, "num_samples": 100,
                                             "min_radius": 7.0, "map_size": 200.0,
                                             "overlap_buffer": 8.0}
        with pytest.raises(ConfigError, match=r"^unknown section\(s\): road$"):
            replay(archive, 0)
        with pytest.raises(ConfigError, match=r"^unknown section\(s\): road$"):
            render_failures(archive, tmp_path)
        assert not list(tmp_path.iterdir())
        # the refusal is of the format: without those keys each record replays
        current = {**archive, "config": current_keys(archive["config"])}
        for rec in current["records"]:
            assert replay(current, rec["id"]).verdict == rec["verdict"]

    @pytest.mark.parametrize("section, key, value", [
        ("vehicle", "lookahead", 6.0),
        ("search", "tournament_size", 3),
        ("road", "lane_width", 3.5),
        ("search", "num_control_points", 5),
    ])
    def test_archive_run_at_another_value_is_refused(self, tmp_path, section, key, value):
        # a retired key is refused at any value, by the name a config file's is
        archive = load_archive(RETIRED_KEYS_ARCHIVE)
        archive["config"] = current_keys(archive["config"])
        archive["config"].setdefault(section, {})[key] = value
        message = (r"^unknown section\(s\): road$" if section == "road"
                   else rf"^{section}\.{key}: unknown key$")
        with pytest.raises(ConfigError, match=message):
            replay(archive, 0)
        with pytest.raises(ConfigError, match=message):
            render_failures(archive, tmp_path)
        assert not list(tmp_path.iterdir())
