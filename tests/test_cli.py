import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roadsearch
from roadsearch import cli
from roadsearch.cli import main
from roadsearch.geometry import ControlPointSet
from roadsearch.road import build_road, validate
from roadsearch.search import random_individual


def read_summary(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    return json.loads(Path(path).read_text())


# nested deeper than json's parser goes; it used to end in a RecursionError
DEEP = "[" * 100000 + "]" * 100000
RETIRED_ROAD = {"lane_width": 4.0, "num_samples": 100, "min_radius": 7.0,
                "map_size": 200.0, "overlap_buffer": 8.0}


def straight_archive(**record):
    """A built-in archive of one straight road's PASS, with ``record``'s
    fields in place of the stored ones."""
    genotype = [[10.0 + 30.0 * i, 100.0] for i in range(7)]
    return {"config": {}, "events": [], "aggregates": {}, "records": [
        {"id": 0, "genotype": genotype, "verdict": "PASS", "fitness": 0.0, **record}]}


class TestRun:
    def test_minimal_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--variant", "A", "--seed", "3",
                     "--budget-evals", "30", "--out", str(out)])
        assert code == 0
        assert (out / "run01.json").exists()
        assert (out / "summary.csv").exists()
        rows = read_summary(out / "summary.csv")
        assert len(rows) == 1
        assert int(rows[0]["T"]) == 30
        assert sum(int(rows[0][k]) for k in "PIF") == 30

    def test_multiple_runs_increment_seed(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--variant", "B", "--seed", "10",
                     "--budget-evals", "12", "--out", str(out), "--runs", "2"])
        assert code == 0
        rows = read_summary(out / "summary.csv")
        assert [r["Run"] for r in rows] == ["1", "2"]
        a = read_json(out / "run01.json")
        b = read_json(out / "run02.json")
        assert a["config"]["search"]["seed"] == 10
        assert b["config"]["search"]["seed"] == 11

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "search": {"variant": "A", "seed": 1, "max_evaluations": 500},
            "vehicle": {"speed": 25.0},
        }))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--variant", "C",
                     "--budget-evals", "16", "--out", str(out)])
        assert code == 0
        archive = read_json(out / "run01.json")
        assert archive["config"]["search"]["variant"] == "C"
        assert archive["config"]["search"]["population_size"] == 15
        assert archive["config"]["search"]["max_evaluations"] == 16
        assert archive["config"]["vehicle"]["speed"] == 25.0

        # a size the file sets survives --variant; only a missing one
        # takes the variant's default
        sized = tmp_path / "sized.json"
        sized.write_text(json.dumps({"search": {"population_size": 40}}))
        code = main(["run", "--config", str(sized), "--variant", "C",
                     "--budget-evals", "4", "--out", str(tmp_path / "sized")])
        assert code == 0
        archive = read_json(tmp_path / "sized" / "run01.json")
        assert archive["config"]["search"]["variant"] == "C"
        assert archive["config"]["search"]["population_size"] == 40

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"search": {"mutation_prob": 7}}))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "mutation_prob" in capsys.readouterr().err

    def test_budget_seconds_is_a_usage_error(self, tmp_path, capsys):
        # the budget is a count of evaluations; there is no time budget
        with pytest.raises(SystemExit) as exc:
            main(["run", "--budget-evals", "5", "--budget-seconds", "2",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--budget-seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_is_usage_error(self, tmp_path, runs, capsys):
        # --runs 0 used to run nothing and then fail to write summary.csv
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--budget-evals", "5", "--out", str(out), "--runs", runs])
        assert exc.value.code == 2
        assert "--runs" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_command_drives_the_external_sut(self, tmp_path):
        # a sut section with a command is an external SUT; the built-in
        # simulator used to drive such a run and archive its command
        stub = tmp_path / "stub.py"
        stub.write_text('import sys\n'
                        'sys.stdin.readline()\n'
                        'print(\'{"verdict": "FAIL", "max_oob": 99.0}\')\n')
        cfg = tmp_path / "cfg.json"
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))}"
        cfg.write_text(json.dumps({"sut": {"command": command}}))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--variant", "A", "--seed", "1",
                     "--budget-evals", "8", "--out", str(out)])
        assert code == 0
        archive = read_json(out / "run01.json")
        assert archive["config"]["sut"] == {"command": command, "timeout": 30.0}
        valid = [r for r in archive["records"]
                 if validate(build_road(ControlPointSet(r["genotype"]))).valid]
        assert valid
        assert all((r["verdict"], r["fitness"]) == ("FAIL", 99.0) for r in valid)

    @pytest.mark.parametrize("command", [" ", '"x'])
    def test_sut_naming_no_program_fails_before_searching(self, tmp_path, command,
                                                          capsys):
        # " " used to die inside subprocess with an IndexError traceback, an
        # unclosed quote only once the search had started
        out = tmp_path / "out"
        code = main(["run", "--budget-evals", "5", "--out", str(out), "--sut", command])
        assert code == 1
        assert "names no program" in capsys.readouterr().err
        assert not out.exists()

    def test_novelty_flag(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--variant", "A", "--seed", "2",
                     "--budget-evals", "10", "--out", str(out), "--novelty"])
        assert code == 0
        archive = read_json(out / "run01.json")
        assert archive["config"]["search"]["novelty_filter"] is True


class TestSutChild:
    """A run's external SUT child never outlives ``roadsearch run``."""

    @pytest.fixture
    def stub(self, tmp_path):
        # serves every road line, records its pid, and ignores EOF, so only
        # the harness's kill can end it
        pids = tmp_path / "pids"
        script = tmp_path / "stub.py"
        script.write_text('import os, sys, time\n'
                          f'open({str(pids)!r}, "a").write(f"{{os.getpid()}}\\n")\n'
                          'for line in sys.stdin:\n'
                          '    print(\'{"verdict": "FAIL", "max_oob": 99.0}\', flush=True)\n'
                          'time.sleep(60)\n')
        return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}", pids

    @staticmethod
    def assert_gone(pids):
        started = [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 1  # one child for the whole invocation
        with pytest.raises(ProcessLookupError):
            os.kill(started[0], 0)

    def test_child_ends_with_the_run(self, tmp_path, stub):
        command, pids = stub
        out = tmp_path / "out"
        code = main(["run", "--variant", "A", "--seed", "1", "--budget-evals", "8",
                     "--runs", "2", "--out", str(out), "--sut", command])
        assert code == 0
        records = [r for run in ("run01", "run02")
                   for r in json.loads((out / f"{run}.json").read_text())["records"]]
        assert sum(r["verdict"] == "FAIL" for r in records) >= 2
        self.assert_gone(pids)

    def test_child_ends_when_the_search_raises(self, tmp_path, stub, monkeypatch):
        command, pids = stub
        rng = np.random.default_rng(1)

        def drive_one_road_then_raise(config, evaluator, **kwargs):
            while not pids.exists():
                evaluator(random_individual(rng))
            raise RuntimeError("search failed")

        monkeypatch.setattr(cli, "run_search", drive_one_road_then_raise)
        with pytest.raises(RuntimeError, match="search failed"):
            main(["run", "--budget-evals", "8", "--out", str(tmp_path / "out"),
                  "--sut", command])
        self.assert_gone(pids)


class TestReplayCommand:
    def test_replay_first_record(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--variant", "A", "--seed", "3", "--budget-evals", "10",
              "--out", str(out)])
        code = main(["replay", "--archive", str(out / "run01.json"),
                     "--test", "0"])
        assert code == 0
        assert "matches archive" in capsys.readouterr().out

    def test_replay_missing_test(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--variant", "A", "--seed", "3", "--budget-evals", "5",
              "--out", str(out)])
        code = main(["replay", "--archive", str(out / "run01.json"),
                     "--test", "12345"])
        assert code == 1

    def test_replay_refuses_a_sut_the_archive_did_not_use(self, tmp_path, capsys):
        # --sut on a built-in archive used to be ignored: the built-in
        # simulator replayed it and said "matches archive"
        out = tmp_path / "out"
        main(["run", "--variant", "A", "--seed", "3", "--budget-evals", "5",
              "--out", str(out)])
        capsys.readouterr()
        code = main(["replay", "--archive", str(out / "run01.json"),
                     "--test", "0", "--sut", "some-sut"])
        assert code == 1
        captured = capsys.readouterr()
        assert "matches archive" not in captured.out
        assert "built-in SUT" in captured.err and "some-sut" in captured.err


    def test_replay_of_an_archive_without_a_sut_section(self, tmp_path, capsys):
        # a config without a section reads it as defaults, as a config file
        # does; replay used to die with a KeyError traceback
        out = tmp_path / "out"
        main(["run", "--variant", "A", "--seed", "3", "--budget-evals", "5",
              "--out", str(out)])
        archive = read_json(out / "run01.json")
        del archive["config"]["sut"]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(archive))
        capsys.readouterr()
        code = main(["replay", "--archive", str(edited), "--test", "0"])
        assert code == 0
        assert "matches archive" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["genotype", "verdict", "id"])
    def test_replay_of_a_record_missing_a_key(self, tmp_path, capsys, key):
        # replay used to die with a KeyError traceback
        out = tmp_path / "out"
        main(["run", "--variant", "A", "--seed", "3", "--budget-evals", "5",
              "--out", str(out)])
        archive = read_json(out / "run01.json")
        del archive["records"][0][key]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(archive))
        capsys.readouterr()
        code = main(["replay", "--archive", str(edited), "--test", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        (json.dumps(42), "expected an object"),
        (json.dumps(None), "expected an object"),
        (json.dumps("config records events aggregates"), "expected an object"),
        (json.dumps({"config": {}, "events": [], "aggregates": {}, "records": [
            {"id": 0, "genotype": [{"x": 1}], "verdict": "PASS", "fitness": 0.0}]}),
         "archive record 0: bad genotype"),
        # these used to load; a stored NaN then replayed as a match
        (json.dumps(straight_archive(fitness=math.nan)),
         "archive record 0: 'fitness' is not finite"),
        (json.dumps(straight_archive(fitness=math.inf)),
         "archive record 0: 'fitness' is not finite"),
        (json.dumps(straight_archive(fitness=10 ** 400)),
         "archive record 0: 'fitness' is not finite"),
        (json.dumps(straight_archive(fitness=False)),
         "archive record 0: 'fitness' has the wrong type"),
        (json.dumps(straight_archive(id=False)), "archive record 0: 'id' has the wrong type"),
        (DEEP, "archive: maximum recursion depth exceeded"),
        # written while these were settings; they used to replay
        (json.dumps({**straight_archive(), "config": {"road": RETIRED_ROAD}}),
         "unknown section(s): road"),
        (json.dumps({**straight_archive(), "config": {"vehicle": {"lookahead": 8.0}}}),
         "vehicle.lookahead: unknown key"),
        (json.dumps({**straight_archive(), "config": {"sut": {"kind": "builtin"}}}),
         "sut.kind: unknown key"),
        (json.dumps({**straight_archive(), "config": {"search": {"wall_time": None}}}),
         "search.wall_time: unknown key"),
    ], ids=["number", "null", "string", "genotype", "nan-fitness", "inf-fitness",
            "huge-fitness", "bool-fitness", "bool-id", "deep", "road-section",
            "lookahead", "sut-kind", "wall-time"])
    def test_replay_of_a_malformed_archive(self, tmp_path, capsys, text, message):
        # each of the first four used to end in a TypeError traceback
        path = tmp_path / "archive.json"
        path.write_text(text)
        code = main(["replay", "--archive", str(path), "--test", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestRenderCommand:
    def test_render_failures(self, tmp_path, capsys):
        out = tmp_path / "out"
        # speed 25 via config; seed 5 fails tests 7 and 9 at this budget
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vehicle": {"speed": 25.0}}))
        main(["run", "--config", str(cfg), "--variant", "B", "--seed", "5",
              "--budget-evals", "40", "--out", str(out)])
        svg_out = tmp_path / "svgs"
        capsys.readouterr()
        code = main(["render", "--archive", str(out / "run01.json"),
                     "--out", str(svg_out)])
        assert code == 0
        archive = read_json(out / "run01.json")
        fails = [r["id"] for r in archive["records"] if r["verdict"] == "FAIL"]
        assert fails
        assert f"rendered {len(fails)} failing test(s)" in capsys.readouterr().out
        # render redraws exactly the SVGs the run wrote, byte for byte
        names = sorted(p.name for p in svg_out.iterdir())
        assert names == [f"fail_{i:04d}.svg" for i in fails]
        for name in names:
            assert (svg_out / name).read_bytes() == \
                (out / f"run01_{name}").read_bytes()


    @pytest.mark.parametrize("edit, message", [
        # these two used to die with an AttributeError traceback
        (lambda config: "not a config", "expected an object"),
        (lambda config: {"vehicle": "fast"}, "expected an object"),
        # written while these were settings; they used to render
        (lambda config: {**config, "road": RETIRED_ROAD}, "unknown section(s): road"),
        (lambda config: {**config, "vehicle": {**config["vehicle"], "lookahead": 8.0}},
         "vehicle.lookahead: unknown key"),
        (lambda config: {**config, "sut": {**config["sut"], "kind": "builtin"}},
         "sut.kind: unknown key"),
        (lambda config: {**config, "search": {**config["search"], "wall_time": None}},
         "search.wall_time: unknown key"),
    ], ids=["config", "section", "road-section", "lookahead", "sut-kind", "wall-time"])
    def test_render_of_an_archive_with_a_malformed_config(self, tmp_path, capsys,
                                                          edit, message):
        out = tmp_path / "out"
        main(["run", "--variant", "A", "--seed", "3", "--budget-evals", "5",
              "--out", str(out)])
        archive = read_json(out / "run01.json")
        archive["config"] = edit(archive["config"])
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(archive))
        capsys.readouterr()
        code = main(["render", "--archive", str(edited), "--out", str(tmp_path / "svgs")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "svgs").exists()

    @pytest.mark.parametrize("records, message", [
        ([{"id": 0}], "missing 'genotype'"),
        ([{"id": 0, "genotype": [[0, 0], [1, 1]], "verdict": "FAIL"}], "missing 'fitness'"),
        ([{"id": 0, "genotype": [[0, 0], [1, 1]], "verdict": "FAIL", "fitness": None}],
         "'fitness' has the wrong type"),
        ([{"id": 0, "genotype": [[0, 0], [1, 1]], "verdict": "FAIL", "fitness": math.nan}],
         "'fitness' is not finite"),
        (["not a record"], "expected an object"),
        ({"id": 0}, "expected a list"),
    ], ids=["genotype", "fitness", "null-fitness", "nan-fitness", "record", "records"])
    def test_render_of_an_archive_with_malformed_records(self, tmp_path, capsys,
                                                         records, message):
        # render used to die with a KeyError traceback
        out = tmp_path / "out"
        main(["run", "--variant", "A", "--seed", "3", "--budget-evals", "5",
              "--out", str(out)])
        archive = read_json(out / "run01.json")
        archive["records"] = records
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(archive))
        capsys.readouterr()
        code = main(["render", "--archive", str(edited), "--out", str(tmp_path / "svgs")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "svgs").exists()


def run_cli_child(tmp_path, evals, log):
    """``roadsearch run`` of variant A, seed 1, in a child process.

    A bare environment checks that the entry point needs nothing from the
    caller's; PYTHONPATH points at the package this process imported, so
    the child runs the tree under test and not some installed copy.
    cwd=tmp_path keeps a stray roadsearch/ in the launch directory from
    shadowing it (python -m puts cwd first)."""
    src_root = Path(roadsearch.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "roadsearch.cli", "run", "--variant", "A",
         "--seed", "1", "--budget-evals", str(evals), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "ROADSEARCH_LOG": log, "PYTHONPATH": str(src_root)},
    )


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli_child(tmp_path, 8, "INFO")
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.csv").exists()
        rows = read_summary(out / "summary.csv")
        assert len(rows) == 1
        assert int(rows[0]["T"]) == 8
        assert "INFO roadsearch: run 1/1" in proc.stderr

    @pytest.mark.parametrize("log", ["basic_format", "nonsense"])
    def test_a_log_value_that_is_no_level_name_warns_only(self, tmp_path, log):
        # "basic_format" used to find logging.BASIC_FORMAT, a format string,
        # and every command died with a ValueError traceback; a subprocess,
        # because in-process pytest's root handlers make basicConfig return
        # before it checks the level
        proc = run_cli_child(tmp_path, 2, log)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "INFO" not in proc.stderr

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
