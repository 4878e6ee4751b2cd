"""External system-under-test protocol.

One request / one reply per test over the child process's standard
streams: the harness writes a single line of JSON holding the serialized
road, the SUT answers with a single JSON line::

    {"verdict": "PASS"|"FAIL"|"INVALID", "max_oob": <float>,
     "completed": <bool>?, "trajectory": [[x, y], ...]?}

Spawn failures, timeouts and malformed replies each map to an INVALID
result with a distinguishing error tag, so a broken SUT never kills a
run. ``python -m roadsearch.protocol`` serves the built-in simulator
behind this exact protocol (used for differential testing and as a
reference for writing real SUT adapters).
"""
from __future__ import annotations

import json
import logging
import shlex
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .road import RoadSpec, road_from_dict, road_to_dict
from .simulator import (
    DT,
    FAIL,
    INVALID,
    MAX_TIME,
    PASS,
    TestResult,
    VehicleParams,
    VehicleState,
    check_timing,
    invalid_result,
    run_test,
)

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

BUILTIN = "builtin"
EXTERNAL = "external"

# stderr lines of a misbehaving SUT that go into the warning
STDERR_TAIL_LINES = 5

log = logging.getLogger("roadsearch")


@dataclass
class SutDescriptor:
    kind: str = BUILTIN
    command: str | None = None
    timeout: float = 30.0

    def __post_init__(self):
        if self.kind not in (BUILTIN, EXTERNAL):
            raise ValueError(f"kind must be '{BUILTIN}' or '{EXTERNAL}'")
        if self.kind == EXTERNAL and not self.command:
            raise ValueError("external SUT requires a command")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


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
    trajectory = []
    if "trajectory" in data and data["trajectory"] is not None:
        for point in data["trajectory"]:
            x, y = point
            trajectory.append(VehicleState(np.array([float(x), float(y)]), 0.0))
    return TestResult(
        verdict=verdict,
        trajectory=trajectory,
        max_oob=float(max_oob),
        completed=bool(data.get("completed", False)),
    )


def external_evaluate(road: RoadSpec, sut: SutDescriptor) -> TestResult:
    """Hand one road to the external SUT and read its verdict.

    Any spawn/timeout/protocol problem returns an INVALID result carrying
    the error tag rather than raising, so the caller's run continues. A
    nonzero exit status or a malformed reply is logged as a warning with
    the status and the tail of the child's stderr; the verdict is still
    the reply's.
    """
    if sut.kind != EXTERNAL:
        raise ValueError("external_evaluate needs an external SutDescriptor")
    request = serialize_road_line(road) + "\n"
    try:
        proc = subprocess.run(
            shlex.split(sut.command),
            input=request,
            capture_output=True,
            text=True,
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


def result_to_reply(result: TestResult, with_trajectory: bool = False) -> str:
    payload = {
        "verdict": result.verdict,
        "max_oob": result.max_oob,
        "completed": result.completed,
    }
    if with_trajectory:
        payload["trajectory"] = [list(map(float, s.position)) for s in result.trajectory]
    return json.dumps(payload)


def serve_builtin(stdin=None, stdout=None, vparams: VehicleParams | None = None,
                  dt: float = DT, max_time: float = MAX_TIME,
                  with_trajectory: bool = False):
    """Serve the built-in simulator over the line protocol until EOF."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    vp = vparams or VehicleParams()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            road = road_from_dict(json.loads(line))
            result = run_test(road, vp, dt=dt, max_time=max_time)
        except (ValueError, KeyError, TypeError):
            result = invalid_result(ERR_PROTOCOL)
        stdout.write(result_to_reply(result, with_trajectory) + "\n")
        stdout.flush()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m roadsearch.protocol",
        description="Serve the built-in simulator behind the line protocol.",
    )
    defaults = VehicleParams()
    parser.add_argument("--speed", type=float, default=defaults.speed)
    parser.add_argument("--lookahead", type=float, default=defaults.lookahead)
    parser.add_argument("--max-steer", type=float, default=defaults.max_steer)
    parser.add_argument("--dt", type=float, default=DT)
    parser.add_argument("--max-time", type=float, default=MAX_TIME)
    parser.add_argument("--trajectory", action="store_true",
                        help="include the driven trajectory in replies")
    args = parser.parse_args(argv)
    try:
        check_timing(args.dt, args.max_time)
    except ValueError as exc:
        parser.error(str(exc))
    vp = VehicleParams(speed=args.speed, lookahead=args.lookahead,
                       max_steer=args.max_steer)
    serve_builtin(vparams=vp, dt=args.dt, max_time=args.max_time,
                  with_trajectory=args.trajectory)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
