"""In-memory span recording around calls into the xhealsim modules.

A :class:`Tracer` replaces module and class attributes with wrappers
that record one span per call: name, start, end, parent span and the
current request id.  Spans stay in memory until the run ends, and the
wrappers are removed again by :meth:`Tracer.uninstall`, so only the
benchmark process is ever instrumented and the library is not edited.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    request: tuple | None  # (trace seed, t)
    size: int | None = None  # per-call quantity, e.g. cloud members

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as *name*.

    *name* may be a callable of the call's positional arguments, and
    *size* a callable of (args, result) giving the span's size.
    """

    owner: Any
    attr: str
    name: str | Callable[[tuple], str]
    size: Callable[[tuple, Any], int] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: tuple | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self, targets: Sequence[Target]) -> None:
        for target in targets:
            raw = vars(target.owner)[target.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._saved.append((target.owner, target.attr, raw))
            setattr(target.owner, target.attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.name(args) if callable(target.name) else target.name
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if target.size is not None:
                span.size = target.size(args, result)
            return result

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, "size": s.size}) + "\n")


def covered_length(start: float, end: float,
                   intervals: Sequence[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_length(s.start, s.end, kids)
            for s, kids in zip(spans, children)]


def has_ancestor(spans: Sequence[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
