"""Spans recorded by the benchmark around calls into a program's functions.

A Tracer replaces module attributes with wrappers that time each call,
keeps the spans in memory, and restores the attributes afterwards.  Spans
opened in a thread with no open span of its own (worker threads of a
thread pool) take the benchmark's open top-level span as their parent.
Times are combined as unions of intervals, because spans of different
threads overlap.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    work: Any = None
    error: str | None = None


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_seconds(spans: list[Span], name: str) -> float:
    """Summed duration of the spans called ``name`` minus the part of each
    that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    total = 0.0
    for s in spans:
        if s.name == name:
            covered = union_length(
                (max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, [])
                if c.end > s.start and c.start < s.end
            )
            total += (s.end - s.start) - covered
    return total


def busy_seconds(spans: list[Span], name: str) -> float:
    """Wall time during which at least one span called ``name`` was open."""
    return union_length((s.start, s.end) for s in spans if s.name == name)


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._top: int | None = None

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else self._top
        s = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
        is_top = parent is None
        if is_top:
            self._top = s.id
        stack.append(s)
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if is_top:
                self._top = None
            self.spans.append(s)

    def wrap(self, fn: Callable, work: Callable | None = None) -> Callable:
        """``fn`` traced as ``<module>.<function>``; ``work(args, result)``
        is stored on the span after it closes."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if work is not None:
                s.work = work(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[tuple[Any, str, Callable | None]]):
        """Replace each (module, attribute, work) target by a traced wrapper.

        An attribute bound to the same function in several modules (by
        ``from ... import``) gets the same wrapper.  Every attribute is
        restored on exit.
        """
        saved = []
        wrappers: dict[int, Callable] = {}
        try:
            for module, attr, work in targets:
                fn = getattr(module, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn, work)
                saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
