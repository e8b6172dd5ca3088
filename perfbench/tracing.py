"""Spans around calls into the program, recorded from outside it.

The traced run swaps a module or class attribute of the program for a
timing wrapper around the original function and puts the original
back afterwards; no tracing code lives inside ``src/``.  Each wrapped
call becomes one span (name, start, end, and the span that was open
on the same thread when it started); a layer's *self time* is its
duration minus the time its child spans cover.  Spans stay in memory
and are aggregated when a phase ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.intervals: dict[str, list[float]] = defaultdict(list)
        self._patches: list[tuple[object, str, object, bool]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- installing and removing wrappers ---------------------------------

    def wrap(self, owner, attr: str, name: str, *, label=None,
             before=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``label(args, kwargs)`` may return a suffix that makes the span
        name ``name:suffix`` (e.g. the route an executable serves).
        ``before(args, kwargs)`` runs first and may return replacement
        ``(args, kwargs)``; ``after(args, kwargs, result, start, end)``
        runs once the call returned.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_name = name
            if label is not None:
                span_name = f"{name}:{label(args, kwargs)}"
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, span_name, start, end, parent))
            if after is not None:
                after(args, kwargs, result, start, end)
            return result

        wrapper.__perfbench_original__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording and reading ----------------------------------------------

    def interval(self, name: str, seconds: float) -> None:
        """A measured interval that is not one call (e.g. queue wait)."""
        self.intervals[name].append(seconds)

    def clear(self) -> None:
        self.spans.clear()
        self.intervals.clear()

    def durations(self, prefix: str) -> list[float]:
        """Durations (s) of spans named ``prefix`` or ``prefix:*``."""
        return [end - start for _, name, start, end, _ in self.spans
                if name == prefix or name.startswith(prefix + ":")]

    def by_label(self, prefix: str) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end, _ in self.spans:
            if name.startswith(prefix + ":"):
                out[name[len(prefix) + 1:]].append(end - start)
        return dict(out)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its children."""
        child_total: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent:
                child_total[parent] += end - start
        return {span_id: (end - start) - child_total[span_id]
                for span_id, _, start, end, _ in self.spans}

    def nesting_violations(self, slack: float = 1e-6) -> list[str]:
        """Parents whose children's self times add up to more than the
        parent span itself (or any negative self time) — each is an
        attribution error."""
        selfs = self.self_times()
        names = {span_id: name for span_id, name, *_ in self.spans}
        durations = {span_id: end - start
                     for span_id, _, start, end, _ in self.spans}
        children: dict[int, float] = defaultdict(float)
        for span_id, _, _, _, parent in self.spans:
            if parent:
                children[parent] += selfs[span_id]
        bad = [f"{names[p]}: children {total:.6f}s > span "
               f"{durations[p]:.6f}s"
               for p, total in children.items()
               if p in durations and total > durations[p] + slack]
        bad += [f"{names[s]}: negative self time {value:.6f}s"
                for s, value in selfs.items() if value < -slack]
        return bad


def is_wrapped(owner, attr: str) -> bool:
    return hasattr(getattr(owner, attr, None), "__perfbench_original__")
