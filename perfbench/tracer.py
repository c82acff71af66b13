"""Span tracer that times calls into a package's functions from outside.

The tracer replaces a function with a timing wrapper at every place it is
bound: the attribute of its defining module or class, and every module of
the same package that imported it by name (``from .linalg import gevd``
binds a second reference that patching ``linalg.gevd`` alone would miss).
Each call records one span: name, parent span, thread, start, end, the
exception type if it raised, and optional counts computed from the
arguments and the result.  Spans stay in memory until the caller asks for
them; ``summarize`` turns them into per-name totals and self times.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    error: str | None = None
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to trace: ``qualname`` inside ``module`` becomes span ``name``.

    ``count(args, kwargs, result)`` returns a dict of counts for the span,
    evaluated after the end time is taken so its cost is not charged to
    the span itself.
    """

    module: str
    qualname: str
    name: str
    count: Callable | None = None


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    errors: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # itertools.count and list.append are single calls into C, so
        # worker threads can share them without a lock.
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            result = None
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = self.clock()
                stack.pop()
                counts = count(args, kwargs, result) if count and error is None else None
                self.spans.append(
                    Span(sid, parent, name, threading.get_ident(), start, end, error, counts)
                )

        return traced

    def install(self, targets: list[Target]) -> None:
        """Wrap every target at its definition and at every by-name import site."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner = module
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(target.name, original, target.count)
            sites = [(owner, attr)]
            if owner is module:
                package = target.module.split(".")[0] + "."
                for other in list(sys.modules.values()):
                    other_name = getattr(other, "__name__", "")
                    if other is module or not other_name.startswith(package):
                        continue
                    sites += [
                        (other, key)
                        for key, value in list(vars(other).items())
                        if value is original
                    ]
            for site, key in sites:
                setattr(site, key, wrapper)
                self._patched.append((site, key, original))

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patched:
            site, key, original = self._patched.pop()
            setattr(site, key, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per-name call counts, inclusive time, self time, errors and counts.

    Self time is a span's duration minus the durations of its direct
    children.  Children run on their parent's thread and inside its
    interval, one after another, so their durations never overlap.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    stats: dict[str, SpanStats] = {}
    for span in spans:
        entry = stats.setdefault(span.name, SpanStats())
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += span.duration - child_time.get(span.sid, 0.0)
        entry.max_s = max(entry.max_s, span.duration)
        if span.error is not None:
            entry.errors[span.error] = entry.errors.get(span.error, 0) + 1
        for key, value in (span.counts or {}).items():
            entry.counts[key] = entry.counts.get(key, 0) + value
    return stats


def child_totals(spans: list[Span], parent_name: str) -> dict[str, float]:
    """Inclusive time per span name over the direct children of ``parent_name`` spans."""
    parents = {span.sid for span in spans if span.name == parent_name}
    totals: dict[str, float] = {}
    for span in spans:
        if span.parent in parents:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals
