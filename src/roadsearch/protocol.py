"""External system-under-test protocol.

One request / one reply per test over the child process's standard
streams: the harness writes a single line of JSON holding the serialized
road, the SUT answers with a single JSON line::

    {"verdict": "PASS"|"FAIL"|"INVALID", "max_oob": <float>}

Any other key of the reply (a ``trajectory``, say) is ignored. The
road's ``params`` are this version's fixed geometry; a road line with
any others is answered INVALID by the reference server.

Spawn failures, timeouts and malformed replies each map to an INVALID
result with a distinguishing error tag, so a broken SUT never kills a
run. ``python -m roadsearch.protocol`` judges each road with the
built-in simulator behind this exact protocol (used for differential
testing and as a reference for writing real SUT adapters).
"""
from __future__ import annotations

import json
import logging
import math
import shlex
import subprocess
import sys
from dataclasses import dataclass

from .road import RoadSpec, road_from_dict, road_to_dict
from .search import builtin_driver, judge
from .simulator import FAIL, INVALID, PASS, TestResult, VehicleParams, invalid_result

__all__ = [
    "SutDescriptor",
    "external_evaluate",
    "serialize_road_line",
    "parse_reply",
    "ERR_SPAWN",
    "ERR_TIMEOUT",
    "ERR_PROTOCOL",
]

ERR_SPAWN = "spawn-error"
ERR_TIMEOUT = "timeout"
ERR_PROTOCOL = "protocol-error"

# stderr lines of a misbehaving SUT that go into the warning
STDERR_TAIL_LINES = 5

log = logging.getLogger("roadsearch")


@dataclass
class SutDescriptor:
    """The system under test: external exactly when ``command`` is set."""

    command: str | None = None
    timeout: float = 30.0

    def __post_init__(self):
        # a command that names no program would fail only at the first driven road
        if self.command is not None:
            try:
                words = shlex.split(self.command) if isinstance(self.command, str) else []
            except ValueError:  # an unclosed quote
                words = []
            if not words:
                raise ValueError(f"command {self.command!r} names no program")
        # a NaN or infinite timeout would abort the first driven road
        if isinstance(self.timeout, bool) or not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError("timeout must be positive and finite")


def serialize_road_line(road: RoadSpec) -> str:
    return json.dumps(road_to_dict(road))


def parse_reply(line: str) -> TestResult:
    """Decode one reply line; raises ValueError on anything malformed."""
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError("reply is not a JSON object")
    verdict = data.get("verdict")
    if verdict not in (PASS, FAIL, INVALID):
        raise ValueError(f"bad verdict {verdict!r}")
    max_oob = data.get("max_oob")
    if (isinstance(max_oob, bool) or not isinstance(max_oob, (int, float))
            or not 0.0 <= max_oob <= 100.0):
        raise ValueError(f"bad max_oob {max_oob!r}")
    return TestResult(verdict=verdict, max_oob=float(max_oob))


def external_evaluate(road: RoadSpec, sut: SutDescriptor) -> TestResult:
    """Hand one road to the external SUT and read its verdict.

    Any spawn/timeout/protocol problem returns an INVALID result carrying
    the error tag rather than raising, so the caller's run continues. A
    nonzero exit status or a malformed reply is logged as a warning with
    the status and the tail of the child's stderr; the verdict is still
    the reply's.
    """
    if sut.command is None:
        raise ValueError("external_evaluate needs a SUT command")
    request = serialize_road_line(road) + "\n"
    try:
        proc = subprocess.run(
            shlex.split(sut.command),
            input=request,
            capture_output=True,
            text=True,
            errors="replace",  # bytes that are not UTF-8 must not crash the run
            timeout=sut.timeout,
        )
    except OSError:
        return invalid_result(ERR_SPAWN)
    except subprocess.TimeoutExpired:
        return invalid_result(ERR_TIMEOUT)
    reply = next((ln for ln in proc.stdout.splitlines() if ln.strip()), "")
    problem = None
    try:
        result = parse_reply(reply)
    except (ValueError, TypeError) as exc:
        result, problem = invalid_result(ERR_PROTOCOL), f"malformed reply: {exc}"
    if problem or proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-STDERR_TAIL_LINES:]
        log.warning("SUT %r exited with status %d (%s); stderr tail: %s",
                    sut.command, proc.returncode, problem or "reply accepted",
                    " | ".join(tail) or "(empty)")
    return result


def result_to_reply(result: TestResult) -> str:
    return json.dumps({"verdict": result.verdict, "max_oob": result.max_oob})


def serve_builtin(drive, stdin=None, stdout=None):
    """Answer each road line with ``judge(road, drive)`` until EOF; a line
    that is not a road, or whose ``params`` are not this version's
    geometry, is answered INVALID with the protocol-error tag."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            result = judge(road_from_dict(json.loads(line)), drive)
        except (ValueError, KeyError, TypeError):
            result = invalid_result(ERR_PROTOCOL)
        stdout.write(result_to_reply(result) + "\n")
        stdout.flush()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m roadsearch.protocol",
        description="Serve the built-in simulator behind the line protocol.",
    )
    parser.add_argument("--speed", type=float, default=VehicleParams().speed)
    args = parser.parse_args(argv)
    try:
        vparams = VehicleParams(speed=args.speed)
    except ValueError as exc:
        parser.error(str(exc))
    serve_builtin(builtin_driver(vparams))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
