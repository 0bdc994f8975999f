"""Wrappers around the program's public functions, installed from outside.

A :class:`Probes` object replaces a module or class attribute with a
wrapper that can record a span (name, start, end, parent) and call hooks
before and after the original.  Spans stay in memory until the job ends.
Nothing inside the program is changed; the wrappers sit at the call
boundaries between its modules.
"""

from __future__ import annotations

import functools
import time

ROOT = -1


class Probes:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (a plain call when not tracing)."""
        if not self.tracing:
            return fn(*args, **kwargs)
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a call inside span ``name``.

        ``before()`` runs ahead of the call and ``after(result)`` once it
        returns, both outside the span.  Untraced and without hooks, the
        attribute is left alone.
        """
        original = getattr(owner, attr)
        if not self.tracing and before is None and after is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            result = self.span(name, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus time in child spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent != ROOT:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals


def total_times(spans: list[list]) -> dict[str, float]:
    """Total inclusive time per span name."""
    totals: dict[str, float] = {}
    for name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals
