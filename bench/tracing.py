"""Spans around module attributes, kept in memory and written at exit.

A :class:`Tracer` replaces a module or class attribute with a wrapper
that opens a span on call and closes it on return. Spans record name,
start, end, the enclosing span and the id of the test being evaluated,
plus an optional ``note`` derived from the call (a verdict, a step or
cell count). The program runs single-threaded, so spans nest properly
and a span's self time is its duration minus its direct children's.
"""
from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    test: int | None = None
    note: object = None
    raised: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.test: int | None = None  # id of the evaluation in progress
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent, test=self.test))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def wrap(self, owner, attr: str, name: str, note=None):
        """Trace every call of ``owner.attr`` as span ``name``.

        ``note(args, result)`` is stored on the span when the call returns.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.close(index).raised = type(exc).__name__
                raise
            span = self.close(index)
            if note is not None:
                span.note = note(args, result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


class ModuleProxy:
    """Stands in for a module so that attributes traced on it stay local
    to the one importer whose reference it replaces."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent


def write_spans(passes: list[list[Span]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for index, span in enumerate(spans):
                row = {"pass": number, "id": index, **asdict(span)}
                if not isinstance(row["note"], (str, int, float, bool, type(None))):
                    row["note"] = repr(row["note"])
                fh.write(json.dumps(row) + "\n")
