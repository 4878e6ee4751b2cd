import io
import json
import logging
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import roadsearch
from roadsearch import protocol
from roadsearch.geometry import ControlPointSet
from roadsearch.protocol import (
    ERR_PROTOCOL,
    ERR_SPAWN,
    ERR_TIMEOUT,
    SutDescriptor,
    SutSession,
    external_evaluate,
    main,
    parse_reply,
    serialize_road_line,
    serve_builtin,
)
from roadsearch.road import build_road, road_from_dict, road_to_dict, validate
from roadsearch.search import builtin_driver, random_individual
from roadsearch.simulator import INVALID, VehicleParams, invalid_result, run_test

PY = sys.executable
ALL_POINTS = ("centerline", "left_boundary", "right_boundary")
# nested deeper than json's parser goes
DEEP = "[" * 100000 + "]" * 100000


def valid_road(seed=3):
    rng = np.random.default_rng(seed)
    while True:
        ind = random_individual(rng)
        road = build_road(ind.genotype)
        if validate(road).valid:
            return road


class TestSutDescriptor:
    def test_builtin_default(self):
        # no command means the built-in simulator
        assert SutDescriptor().command is None

    @pytest.mark.parametrize("command", [" ", "", '"x', 5])
    def test_command_must_name_a_program(self, command):
        # " " used to die in subprocess with an IndexError and an unclosed
        # quote to fail only at the first driven road
        with pytest.raises(ValueError, match="names no program"):
            SutDescriptor(command=command)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, 0.0, -1.0, 1e10, 1e300])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        # NaN and inf used to pass here and abort the run at the first
        # driven road, inside subprocess.run; 1e300 did too, as an
        # OverflowError in select()
        with pytest.raises(ValueError, match="timeout"):
            SutDescriptor(command="cat", timeout=timeout)


class TestReplyParsing:
    def test_good_reply(self):
        r = parse_reply('{"verdict": "PASS", "max_oob": 1.25}')
        assert r.verdict == "PASS" and r.max_oob == 1.25 and r.error is None
        # an older SUT's "completed" is one more ignored key
        assert parse_reply('{"verdict": "PASS", "max_oob": 1.25, "completed": true}') == r

    def test_trajectory_key_ignored(self):
        r = parse_reply('{"verdict": "FAIL", "max_oob": 97.0, '
                        '"trajectory": [[0, 0], [1, 2]]}')
        assert r.verdict == "FAIL" and r.max_oob == 97.0 and r.trajectory == []

    @pytest.mark.parametrize("line", [
        '{"verdict": "MAYBE", "max_oob": 0}',
        '{"verdict": "PASS", "max_oob": 150}',
        '{"verdict": "PASS", "max_oob": "high"}',
        '{"verdict": "PASS"}',
        '{"verdict": "FAIL", "max_oob": true}',
        '[1, 2, 3]',
        'not json at all',
        pytest.param(DEEP, id="deep"),  # used to raise a RecursionError
    ])
    def test_malformed_rejected(self, line):
        with pytest.raises((ValueError, TypeError)):
            parse_reply(line)


class TestServeBuiltin:
    def test_round_trip_lines(self):
        road = valid_road()
        request = serialize_road_line(road)
        stdin = io.StringIO(request + "\n" + request + "\n")
        stdout = io.StringIO()
        serve_builtin(builtin_driver(VehicleParams(speed=25.0)), stdin, stdout)
        lines = [ln for ln in stdout.getvalue().splitlines() if ln]
        assert len(lines) == 2
        direct = run_test(road, VehicleParams(speed=25.0))
        for line in lines:
            reply = json.loads(line)
            assert reply["verdict"] == direct.verdict
            assert reply["max_oob"] == direct.max_oob

    @pytest.mark.parametrize("speed", ["nan", "inf", "0"])
    def test_bad_speed_exits_with_usage_error(self, speed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--speed", speed])
        assert exc.value.code == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_help_lists_only_speed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        flags = {word.strip("[],") for word in capsys.readouterr().out.split()
                 if word.strip("[").startswith("--")}
        assert flags == {"--help", "--speed"}

    def test_invalid_roads_answered_without_driving(self):
        # a finite but degenerate road line used to be driven and answered
        # FAIL with max_oob 100; the server now validates like every caller
        golden = {e["verdict"]: e for e in GOLDEN["entries"] if e["speed"] == 25.0}
        too_sharp = build_road(ControlPointSet(golden["INVALID"]["points"]))
        road = build_road(ControlPointSet(golden["FAIL"]["points"]))
        degenerate = json.loads(serialize_road_line(road))
        degenerate.update({key: [[0, 0], [0, 0]] for key in ALL_POINTS})
        assert not validate(road_from_dict(degenerate)).valid
        lines = [json.dumps(degenerate), serialize_road_line(too_sharp),
                 serialize_road_line(road)]
        driven = []
        drive = builtin_driver(VehicleParams(speed=25.0))
        stdout = io.StringIO()
        serve_builtin(lambda r: driven.append(r) or drive(r),
                      io.StringIO("".join(ln + "\n" for ln in lines)), stdout)
        replies = [json.loads(ln) for ln in stdout.getvalue().splitlines()]
        assert [r["verdict"] for r in replies] == [INVALID, INVALID, "FAIL"]
        assert replies[0]["max_oob"] == replies[1]["max_oob"] == 0.0
        assert len(driven) == 1
        direct = drive(road)
        assert (replies[2]["verdict"], replies[2]["max_oob"]) == \
               (direct.verdict, direct.max_oob)

    def test_garbage_line_answered_invalid(self):
        stdin = io.StringIO("this is not a road\n")
        stdout = io.StringIO()
        serve_builtin(builtin_driver(VehicleParams()), stdin, stdout)
        reply = json.loads(stdout.getvalue().splitlines()[0])
        assert reply["verdict"] == INVALID

    @pytest.mark.parametrize("keys,points", [
        (ALL_POINTS, "[]"), (ALL_POINTS, "[1, 2, 3]"), (ALL_POINTS, "5"),
        (ALL_POINTS, "[[0, 0]]"), (ALL_POINTS, "[[0, 0, 0], [1, 1, 1]]"),
        (ALL_POINTS, "[[0, 0], [NaN, 1]]"), (("left_boundary",), "[[0, 0], [1, 1]]"),
        (("centerline",), DEEP)],
        ids=["empty", "flat", "scalar", "one-point", "3d", "nan", "short-left", "deep"])
    def test_malformed_points_answered_and_serving_goes_on(self, keys, points):
        # empty, flat or scalar point arrays used to raise IndexError inside
        # the simulator and end the server without a reply, and deep nesting
        # a RecursionError in the JSON parser
        road = valid_road()
        bad = json.loads(serialize_road_line(road))
        bad.update({key: "<points>" for key in keys})
        line = json.dumps(bad).replace('"<points>"', points)  # DEEP is too deep to dump
        stdin = io.StringIO(line + "\n" + serialize_road_line(road) + "\n")
        stdout = io.StringIO()
        drive = builtin_driver(VehicleParams(speed=25.0))
        serve_builtin(drive, stdin, stdout)
        replies = [json.loads(ln) for ln in stdout.getvalue().splitlines()]
        assert len(replies) == 2
        assert replies[0]["verdict"] == INVALID
        direct = drive(road)
        assert (replies[1]["verdict"], replies[1]["max_oob"]) == \
               (direct.verdict, direct.max_oob)

    def test_road_serialization_round_trip(self):
        road = valid_road()
        line = serialize_road_line(road)
        again = road_from_dict(json.loads(line))
        for key in ALL_POINTS:
            assert np.array_equal(getattr(again, key), getattr(road, key))
        assert serialize_road_line(again) == line

    def test_other_road_params_answered_invalid(self, monkeypatch):
        # a road built under another geometry is not judged under this one:
        # it is refused as a protocol error, before validation and driving
        tags = []
        monkeypatch.setattr(protocol, "invalid_result",
                            lambda error=None: tags.append(error) or invalid_result(error))
        road = valid_road()
        custom = {"lane_width": 3.5, "num_samples": 60, "min_radius": 5.0,
                  "map_size": 250.0, "overlap_buffer": 6.0}
        lines = []
        for key, value in custom.items():
            data = road_to_dict(road)
            data["params"][key] = value
            lines.append(json.dumps(data))
        lines.append(json.dumps({**road_to_dict(road), "params": custom}))
        lines.append(serialize_road_line(road))
        driven = []
        drive = builtin_driver(VehicleParams(speed=25.0))
        stdout = io.StringIO()
        serve_builtin(lambda r: driven.append(r) or drive(r),
                      io.StringIO("".join(ln + "\n" for ln in lines)), stdout)
        replies = [json.loads(ln) for ln in stdout.getvalue().splitlines()]
        assert len(replies) == len(lines) and len(driven) == 1
        for reply in replies[:-1]:
            assert reply == {"verdict": INVALID, "max_oob": 0.0}
        assert tags == [ERR_PROTOCOL] * (len(lines) - 1)
        direct = drive(road)
        assert (replies[-1]["verdict"], replies[-1]["max_oob"]) == \
               (direct.verdict, direct.max_oob)


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_roads.json").read_text())


class TestServerChild:
    def test_one_child_answers_a_stream_of_roads(self, tmp_path):
        # one server process, every road on one stdin until EOF; PYTHONPATH
        # and cwd as in test_cli's entry-point test, so the child runs the
        # tree under test
        roads = [road for road in (build_road(ControlPointSet(e["points"]))
                                   for e in GOLDEN["entries"]) if validate(road).valid][:12]
        drive = builtin_driver(VehicleParams(speed=25.0))
        direct = [drive(road) for road in roads]
        assert {r.verdict for r in direct} == {"PASS", "FAIL"}
        src_root = Path(roadsearch.__file__).resolve().parents[1]
        proc = subprocess.run(
            [PY, "-m", "roadsearch.protocol", "--speed", "25"],
            input="".join(serialize_road_line(road) + "\n" for road in roads),
            capture_output=True, text=True, timeout=300, cwd=tmp_path,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root)})
        assert proc.returncode == 0, proc.stderr
        # the child runs protocol.py once, so no RuntimeWarning about a
        # module found in sys.modules before its execution
        assert proc.stderr == ""
        replies = [parse_reply(ln) for ln in proc.stdout.splitlines()]
        assert len(replies) == len(roads)
        for reply, ref in zip(replies, direct):
            assert reply.verdict == ref.verdict
            assert abs(reply.max_oob - ref.max_oob) <= 1e-9

    def test_non_utf8_line_answered_invalid_and_serving_goes_on(self, tmp_path):
        # under a strict UTF-8 stdin the server used to die in a
        # UnicodeDecodeError and never answer the valid road after the line
        road = valid_road()
        src_root = Path(roadsearch.__file__).resolve().parents[1]
        proc = subprocess.run(
            [PY, "-m", "roadsearch.protocol", "--speed", "25"],
            input=b"\xff\xfe\n" + serialize_road_line(road).encode() + b"\n",
            capture_output=True, timeout=300, cwd=tmp_path,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root),
                 "PYTHONIOENCODING": "utf-8:strict"})
        assert proc.returncode == 0, proc.stderr
        replies = [parse_reply(ln) for ln in proc.stdout.decode().splitlines()]
        direct = builtin_driver(VehicleParams(speed=25.0))(road)
        assert [r.verdict for r in replies] == [INVALID, direct.verdict]
        assert abs(replies[1].max_oob - direct.max_oob) <= 1e-9


class TestExternalEvaluate:
    def test_differential_against_in_process(self):
        road = valid_road()
        sut = SutDescriptor(command=f"{PY} -m roadsearch.protocol --speed 25",
                            timeout=120.0)
        ext = external_evaluate(road, sut)
        ref = run_test(road, VehicleParams(speed=25.0))
        assert ext.verdict == ref.verdict
        assert abs(ext.max_oob - ref.max_oob) <= 1e-9

    def test_garbage_reply_flagged(self):
        road = valid_road()
        sut = SutDescriptor(command=f"{PY} -c 'print(42)'",
                            timeout=60.0)
        r = external_evaluate(road, sut)
        assert r.verdict == INVALID and r.error == ERR_PROTOCOL

    def test_failing_child_logged_with_status_and_stderr(self, caplog):
        sut = SutDescriptor(
            command=f"{PY} -c 'import sys; sys.stderr.write(\"boom\\n\"); sys.exit(3)'",
            timeout=60.0)
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            r = external_evaluate(valid_road(), sut)
        assert r.verdict == INVALID and r.error == ERR_PROTOCOL
        warnings = [rec for rec in caplog.records
                    if rec.name == "roadsearch" and rec.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "status 3" in message and "boom" in message

    def test_nonzero_exit_keeps_a_wellformed_verdict(self, caplog, tmp_path):
        script = tmp_path / "sut.py"
        script.write_text('import sys\n'
                          'print(\'{"verdict": "PASS", "max_oob": 1.5}\')\n'
                          'sys.exit(2)\n')
        sut = SutDescriptor(command=f"{PY} {script}", timeout=60.0)
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            r = external_evaluate(valid_road(), sut)
        assert r.verdict == "PASS" and r.max_oob == 1.5 and r.error is None
        assert any("status 2" in rec.getMessage() for rec in caplog.records)

    def test_non_utf8_reply_is_protocol_error(self, caplog, tmp_path):
        # undecodable stdout used to raise UnicodeDecodeError out of the run
        script = tmp_path / "sut.py"
        script.write_text('import sys\n'
                          'sys.stdout.buffer.write(b"\\xff\\n")\n')
        sut = SutDescriptor(command=f"{PY} {script}", timeout=60.0)
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            r = external_evaluate(valid_road(), sut)
        assert r.verdict == INVALID and r.error == ERR_PROTOCOL
        assert any("malformed reply" in rec.getMessage() for rec in caplog.records)

    def test_non_utf8_stderr_keeps_a_wellformed_verdict(self, caplog, tmp_path):
        script = tmp_path / "sut.py"
        script.write_text('import sys\n'
                          'print(\'{"verdict": "FAIL", "max_oob": 42.0}\', flush=True)\n'
                          'sys.stderr.buffer.write(b"bad \\xff byte\\n")\n'
                          'sys.exit(2)\n')
        sut = SutDescriptor(command=f"{PY} {script}", timeout=60.0)
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            r = external_evaluate(valid_road(), sut)
        assert r.verdict == "FAIL" and r.max_oob == 42.0 and r.error is None
        message = next(rec.getMessage() for rec in caplog.records
                       if rec.name == "roadsearch" and rec.levelno == logging.WARNING)
        assert "status 2" in message and "bad \ufffd byte" in message

    def test_timeout_flagged(self):
        road = valid_road()
        sut = SutDescriptor(command=f"{PY} -c 'import time; time.sleep(60)'",
                            timeout=1.0)
        r = external_evaluate(road, sut)
        assert r.verdict == INVALID and r.error == ERR_TIMEOUT

    def test_spawn_failure_flagged(self):
        road = valid_road()
        sut = SutDescriptor(command="no-such-binary-zq9",
                            timeout=5.0)
        r = external_evaluate(road, sut)
        assert r.verdict == INVALID and r.error == ERR_SPAWN

    def test_builtin_descriptor_rejected(self):
        with pytest.raises(ValueError):
            external_evaluate(valid_road(), SutDescriptor())

    def test_unicode_line_separator_inside_a_reply(self, tmp_path):
        # JSON allows a raw U+2028 inside a string; the reply used to be cut
        # there by str.splitlines() and recorded as a protocol error
        script = tmp_path / "sut.py"
        script.write_text('import sys\n'
                          'sys.stdin.readline()\n'
                          'reply = \'{"verdict": "PASS", "max_oob": 1.0, "note": "a\\u2028b"}\'\n'
                          'sys.stdout.buffer.write(reply.encode() + b"\\n")\n')
        assert "\u2028".encode() in subprocess.run(
            [PY, str(script)], input=b"road\n", capture_output=True).stdout
        r = external_evaluate(valid_road(), SutDescriptor(command=f"{PY} {script}",
                                                          timeout=60.0))
        assert r.verdict == "PASS" and r.max_oob == 1.0 and r.error is None


# Session stubs: each child appends its pid to a file, and answers a road with
# PASS and a max_oob taken from the road itself, so that a reply given to
# the wrong road shows.
STUB_HEAD = """\
import json, os, sys, time
with open({pids!r}, "a") as fh:
    fh.write(f"{{os.getpid()}}\\n")

def reply(line):
    x = json.loads(line)["centerline"][0][0]
    return json.dumps({{"verdict": "PASS", "max_oob": abs(x) % 100}})
"""

STUBS = {
    "server": """
for line in sys.stdin:
    print(reply(line), flush=True)
""",
    "hang_after_one": """
print(reply(sys.stdin.readline()), flush=True)
time.sleep(60)
""",
    "crash_mid_reply": """
for n, line in enumerate(sys.stdin):
    if n == 1:
        sys.stdout.write('{"verdict": "PA')
        sys.stdout.flush()
        sys.exit(1)
    print(reply(line), flush=True)
""",
    "garbage_second": """
for n, line in enumerate(sys.stdin):
    print("garbage" if n == 1 else reply(line), flush=True)
""",
    "deep_second": """
for n, line in enumerate(sys.stdin):
    print("[" * 100000 + "]" * 100000 if n == 1 else reply(line), flush=True)
""",
    "exit_after_two": """
for n, line in enumerate(sys.stdin):
    print(reply(line), flush=True)
    if n == 1:
        break
""",
    "one_shot": """
print(reply(sys.stdin.readline()))
""",
    # still alive when the next road is written to it, then exits unread
    "one_shot_lingering": """
print(reply(sys.stdin.readline()), flush=True)
time.sleep(0.3)
""",
    "extra_line": """
for line in sys.stdin:
    sys.stdout.write(reply(line) + '\\n{"verdict": "FAIL", "max_oob": 99.0}\\n')
    sys.stdout.flush()
""",
    "read_to_eof": """
print(reply(sys.stdin.read().splitlines()[0]), flush=True)
""",
    # 100 KB of stderr per road; records its stderr file's size after each
    "chatty_stderr": """
for line in sys.stdin:
    sys.stderr.write("x" * 100_000 + "\\n")
    sys.stderr.flush()
    with open(os.path.join(os.path.dirname(__file__), "sizes"), "a") as fh:
        fh.write(f"{os.fstat(2).st_size}\\n")
    print(reply(line), flush=True)
""",
}


def expected_oob(road):
    return abs(float(road.centerline[0][0])) % 100


@pytest.fixture(scope="module")
def roads():
    rng = np.random.default_rng(8)
    found = []
    while len(found) < 5:
        road = build_road(random_individual(rng).genotype)
        if validate(road).valid:
            found.append(road)
    assert len({expected_oob(road) for road in found}) == 5
    return found


class TestSutSession:
    def stub(self, tmp_path, name, timeout=30.0):
        pids = tmp_path / "pids"
        script = tmp_path / f"{name}.py"
        script.write_text(STUB_HEAD.format(pids=str(pids)) + STUBS[name])
        return SutDescriptor(command=f"{PY} {script}", timeout=timeout), pids

    @staticmethod
    def children(pids):
        return pids.read_text().split() if pids.exists() else []

    @staticmethod
    def drive(sut, roads):
        with SutSession(sut) as session:
            return [external_evaluate(road, sut, session) for road in roads]

    @staticmethod
    def assert_answered(result, road):
        assert (result.verdict, result.max_oob, result.error) == \
               ("PASS", expected_oob(road), None)

    @staticmethod
    def warnings(caplog):
        return [rec.getMessage() for rec in caplog.records
                if rec.name == "roadsearch" and rec.levelno == logging.WARNING]

    def test_one_child_answers_every_road(self, tmp_path, roads, caplog):
        sut, pids = self.stub(tmp_path, "server")
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            results = self.drive(sut, roads)
        for result, road in zip(results, roads):
            self.assert_answered(result, road)
        assert len(self.children(pids)) == 1
        assert self.warnings(caplog) == []

    def test_no_road_starts_no_child(self, tmp_path):
        sut, pids = self.stub(tmp_path, "server")
        with SutSession(sut):
            pass
        assert self.children(pids) == []

    def test_hang_after_one_answer(self, tmp_path, roads):
        sut, pids = self.stub(tmp_path, "hang_after_one", timeout=2.0)
        with SutSession(sut) as session:
            self.assert_answered(external_evaluate(roads[0], sut, session), roads[0])
            start = time.monotonic()
            hung = external_evaluate(roads[1], sut, session)
            elapsed = time.monotonic() - start
            third = external_evaluate(roads[2], sut, session)
        assert hung.verdict == INVALID and hung.error == ERR_TIMEOUT
        assert 2.0 <= elapsed < 3.5
        self.assert_answered(third, roads[2])
        assert len(self.children(pids)) == 2

    def test_crash_mid_reply(self, tmp_path, roads, caplog):
        sut, pids = self.stub(tmp_path, "crash_mid_reply")
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            results = self.drive(sut, roads[:3])
        self.assert_answered(results[0], roads[0])
        assert results[1].verdict == INVALID and results[1].error == ERR_PROTOCOL
        self.assert_answered(results[2], roads[2])
        assert len(self.children(pids)) == 2
        [warning] = self.warnings(caplog)
        assert "status 1" in warning and "malformed reply" in warning

    def test_garbage_line_retires_the_child(self, tmp_path, roads, caplog):
        sut, pids = self.stub(tmp_path, "garbage_second")
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            results = self.drive(sut, roads[:3])
        self.assert_answered(results[0], roads[0])
        assert results[1].verdict == INVALID and results[1].error == ERR_PROTOCOL
        self.assert_answered(results[2], roads[2])
        assert len(self.children(pids)) == 2
        [warning] = self.warnings(caplog)
        assert "malformed reply" in warning

    def test_deeply_nested_line_retires_the_child(self, tmp_path, roads, caplog):
        # the JSON parser's RecursionError used to end the run
        sut, pids = self.stub(tmp_path, "deep_second")
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            results = self.drive(sut, roads[:3])
        self.assert_answered(results[0], roads[0])
        assert results[1].verdict == INVALID and results[1].error == ERR_PROTOCOL
        self.assert_answered(results[2], roads[2])
        assert len(self.children(pids)) == 2
        [warning] = self.warnings(caplog)
        assert "malformed reply: maximum recursion depth exceeded" in warning

    def test_exit_after_two_roads(self, tmp_path, roads, caplog):
        sut, pids = self.stub(tmp_path, "exit_after_two")
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            results = self.drive(sut, roads)
        for result, road in zip(results, roads):
            self.assert_answered(result, road)
        assert len(self.children(pids)) == 3
        assert self.warnings(caplog) == []

    @pytest.mark.parametrize("name", ["one_shot", "one_shot_lingering"])
    def test_one_shot_sut_gets_a_child_per_road(self, tmp_path, roads, caplog, name):
        sut, pids = self.stub(tmp_path, name)
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            results = self.drive(sut, roads[:3])
        for result, road in zip(results, roads):
            self.assert_answered(result, road)
        assert len(set(self.children(pids))) == 3
        assert self.warnings(caplog) == []

    def test_line_beyond_a_reply_is_never_the_next_reply(self, tmp_path, roads):
        sut, pids = self.stub(tmp_path, "extra_line")
        results = self.drive(sut, roads[:3])
        for result, road in zip(results, roads):
            self.assert_answered(result, road)
        assert len(self.children(pids)) == 3

    def test_reading_to_eof_is_a_timeout(self, tmp_path, roads, caplog):
        sut, pids = self.stub(tmp_path, "read_to_eof", timeout=1.0)
        start = time.monotonic()
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            result = self.drive(sut, roads[:1])[0]
        assert result.verdict == INVALID and result.error == ERR_TIMEOUT
        assert time.monotonic() - start < 2.5
        assert len(self.children(pids)) == 1
        # the kill is logged, so a SUT that waits for EOF shows at once
        [warning] = self.warnings(caplog)
        assert "status -9" in warning and "no reply within 1 s" in warning

    def test_stderr_file_holds_one_road(self, tmp_path, roads, caplog):
        # the stderr file used to grow for the child's whole life (2,000,020 B
        # after these 20 roads); a warning's tail then covered old roads
        sut, pids = self.stub(tmp_path, "chatty_stderr")
        with caplog.at_level(logging.WARNING, logger="roadsearch"):
            results = self.drive(sut, roads * 4)
        for result, road in zip(results, roads * 4):
            self.assert_answered(result, road)
        assert len(self.children(pids)) == 1
        assert self.warnings(caplog) == []
        sizes = (tmp_path / "sizes").read_text().split()
        assert sizes == ["100001"] * 20


class TestRunLevelEquivalence:
    def test_whole_run_identical_through_protocol(self):
        # a search driven through the wrapped built-in SUT must reproduce
        # the direct in-process run record for record
        from roadsearch.cli import _driver
        from roadsearch.search import SearchConfig, builtin_driver, evaluate, run_search

        vp = VehicleParams(speed=25.0)
        cfg = SearchConfig(variant="B", max_evaluations=12, seed=4)
        drive = builtin_driver(vp)
        direct = run_search(cfg, lambda ind: evaluate(ind, drive))

        # the external driver exactly as `roadsearch run --sut` builds it
        sut = SutDescriptor(
            command=f"{PY} -m roadsearch.protocol --speed 25",
            timeout=120.0)
        external = _driver(sut, vp)
        wrapped = run_search(cfg, lambda ind: evaluate(ind, external))

        assert [e["kind"] for e in direct.events] == \
               [e["kind"] for e in wrapped.events]
        assert [(r.verdict, r.fitness) for r in direct.records] == \
               [(r.verdict, r.fitness) for r in wrapped.records]
        assert direct.aggregates == wrapped.aggregates
