"""External system-under-test protocol.

One request line, one reply line per test, over a child process's
standard streams: the harness writes a single line of JSON holding the
serialized road, the SUT answers with a single JSON line::

    {"verdict": "PASS"|"FAIL"|"INVALID", "max_oob": <float>}

Any other key of the reply (a ``trajectory``, say) is ignored. The
road's ``params`` are this version's fixed geometry; a road line with
any others is answered INVALID by the reference server.

A :class:`SutSession` keeps one child for a whole run: it is started at
the first road and sent one road line per test, and a fresh one replaces
it only when it has exited, timed out, replied malformed or printed
output no road asked for. A SUT must therefore answer each road line
without waiting for EOF; it may exit after any reply, and a SUT that
reads one line and exits gets a child per road. Frames are split at
``b"\n"`` only.

Spawn failures, timeouts and malformed replies each map to an INVALID
result with a distinguishing error tag, so a broken SUT never kills a
run. ``python -m roadsearch.protocol`` judges each road with the
built-in simulator behind this exact protocol (used for differential
testing and as a reference for writing real SUT adapters).
"""
from __future__ import annotations

import json
import logging
import os
import select
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from .road import RoadSpec, road_from_dict, road_to_dict, validate
from .search import builtin_driver, judge
from .simulator import FAIL, INVALID, PASS, TestResult, VehicleParams, invalid_result

__all__ = [
    "SutDescriptor",
    "SutSession",
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
# seconds a child has to exit once its stdin is closed, before it is killed
CLOSE_GRACE = 1.0

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
        # a NaN, infinite or huge timeout would abort the first driven road
        # (select() overflows time_t near 9.2e9 s; 1e9 s is about 31 years)
        if isinstance(self.timeout, bool) or not 0 < self.timeout <= 1e9:
            raise ValueError("timeout must be positive, finite and at most 1e9 s")


def serialize_road_line(road: RoadSpec) -> str:
    return json.dumps(road_to_dict(road))


def parse_reply(line: str) -> TestResult:
    """Decode one reply line; raises ValueError on anything malformed."""
    try:
        data = json.loads(line)
    except RecursionError as exc:  # nested deeper than the parser goes
        raise ValueError(str(exc)) from None
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


class SutSession:
    """At most one live child of an external SUT, sent one road line per test.

    The child starts at the first road and is kept while it answers. It
    is replaced when it has exited or has unread output (checked before
    each road), timed out (killed) or replied malformed. EOF without a
    byte of reply from a child that has answered before marks a one-shot
    SUT: the road goes once more, to a fresh child. Leaving the ``with``
    block, or ``close()``, ends the child.
    """

    def __init__(self, sut: SutDescriptor):
        self.sut = sut
        self._proc = None
        self._stderr = None  # a temporary file, so a chatty SUT never blocks
        self._buffer = b""  # stdout read beyond the last reply line
        self._answered = 0  # roads the current child has answered

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        if self._proc is not None:
            self._retire()

    def evaluate(self, road: RoadSpec) -> TestResult:
        if self.sut.command is None:
            raise ValueError("external_evaluate needs a SUT command")
        request = (serialize_road_line(road) + "\n").encode()
        if self._proc is not None and self._stale():
            self._retire()
        elif self._proc is not None:  # a warning's stderr tail is then this road's
            self._stderr.seek(0)
            self._stderr.truncate()
        while True:
            if self._proc is None:
                try:
                    self._spawn()
                except OSError:
                    return invalid_result(ERR_SPAWN)
            try:
                line = self._exchange(request)
            except TimeoutError:
                self._retire(kill=True, problem=f"no reply within {self.sut.timeout:g} s")
                return invalid_result(ERR_TIMEOUT)
            if line is not None or not self._answered:
                break
            self._retire()  # a one-shot child that has answered before
        try:
            result = parse_reply(line if line is not None else "")
        except (ValueError, TypeError) as exc:
            problem = "no reply" if line is None else f"malformed reply: {exc}"
            self._retire(problem=problem)
            return invalid_result(ERR_PROTOCOL)
        self._answered += 1
        return result

    def _spawn(self):
        stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(shlex.split(self.sut.command), bufsize=0,
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          stderr=stderr)
        except OSError:
            stderr.close()
            raise
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._stderr, self._buffer, self._answered = stderr, b"", 0

    def _exchange(self, request: bytes) -> str | None:
        """Write the road line and read the next non-blank line, None at EOF
        before any byte of it; TimeoutError once ``sut.timeout`` is spent."""
        deadline = time.monotonic() + self.sut.timeout
        fd, view = self._proc.stdin.fileno(), memoryview(request)
        try:
            while view:
                _wait(fd, deadline, write=True)
                view = view[os.write(fd, view):]
        except BrokenPipeError:
            pass  # the child stopped reading; what it printed is still read
        fd = self._proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                if line.strip():
                    return line.decode("utf-8", errors="replace")
            _wait(fd, deadline)
            chunk = os.read(fd, 65536)
            if not chunk:  # EOF: an unterminated last line is still a reply
                line, self._buffer = self._buffer, b""
                return line.decode("utf-8", errors="replace") if line.strip() else None
            self._buffer += chunk

    def _stale(self) -> bool:
        """Whether the child has exited or printed output no road asked for."""
        if self._proc.poll() is not None or self._buffer.strip():
            return True
        fd = self._proc.stdout.fileno()
        if not select.select([fd], [], [], 0)[0]:
            return False
        chunk = os.read(fd, 65536)
        self._buffer += chunk
        return not chunk or bool(self._buffer.strip())

    def _retire(self, kill: bool = False, problem: str | None = None):
        """End the child: close its stdin and give it ``CLOSE_GRACE`` to
        exit, or kill it at once. A child that exited nonzero by itself, or
        whose reply was refused or never came (``problem``), is logged as a
        warning with its stderr tail."""
        proc, self._proc = self._proc, None
        proc.stdin.close()
        if not kill:
            try:
                proc.wait(CLOSE_GRACE)
            except subprocess.TimeoutExpired:
                kill = True
        if kill:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        if problem or (proc.returncode != 0 and not kill):
            # the end of the file only: one road's stderr can be large
            self._stderr.seek(max(0, self._stderr.seek(0, os.SEEK_END) - 8192))
            text = self._stderr.read().decode("utf-8", errors="replace")
            tail = text.strip().splitlines()[-STDERR_TAIL_LINES:]
            log.warning("SUT %r exited with status %d (%s); stderr tail: %s",
                        self.sut.command, proc.returncode, problem or "reply accepted",
                        " | ".join(tail) or "(empty)")
        self._stderr.close()


def _wait(fd: int, deadline: float, write: bool = False):
    """Block until ``fd`` is readable (or writable); TimeoutError past ``deadline``."""
    remaining = deadline - time.monotonic()
    fds = ([], [fd]) if write else ([fd], [])
    if remaining <= 0 or not any(select.select(*fds, [], remaining)[:2]):
        raise TimeoutError


def external_evaluate(road: RoadSpec, sut: SutDescriptor,
                      session: SutSession | None = None) -> TestResult:
    """Hand one road to the external SUT and read its verdict.

    ``session`` is an open :class:`SutSession` of ``sut`` whose child
    drives the road; without one the road gets a session of its own. Any
    spawn/timeout/protocol problem returns an INVALID result carrying the
    error tag rather than raising, so the caller's run continues. A child
    that exits nonzero, replies malformed or times out is logged as a
    warning with the status and the tail of its stderr; a well-formed
    reply's verdict stands.
    """
    if session is not None:
        return session.evaluate(road)
    with SutSession(sut) as own:
        return own.evaluate(road)


def result_to_reply(result: TestResult) -> str:
    return json.dumps({"verdict": result.verdict, "max_oob": result.max_oob})


def serve_builtin(drive, stdin=None, stdout=None):
    """Answer each road line with ``judge(road, validate(road), drive)``
    until EOF; a line that is not a road, or whose ``params`` are not this
    version's geometry, is answered INVALID with the protocol-error tag."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            road = road_from_dict(json.loads(line))
            result = judge(road, validate(road), drive)
        except (ValueError, KeyError, TypeError, RecursionError):
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
    sys.stdin.reconfigure(encoding="utf-8", errors="replace")  # a non-UTF-8 line is answered INVALID
    serve_builtin(builtin_driver(vparams))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
