"""In-memory span tracer that instruments the package from outside.

Wrappers replace a module or class attribute where the caller looks the name
up (``variational.apply_K`` rather than ``elliptic.apply_K``, because
``variational`` imported the name) and are removed again by ``unpatch``, so
the package source is never edited.  Spans are kept in memory as
(run id, span id, parent id, name, start, end) and written out once at the
end of a benchmark run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    run_id: int
    span_id: int
    parent_id: int  # -1 for a root span
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans, per-run counters and per-run records of one benchmark process.

    ``run_id`` is set by the caller before each command; every span, count and
    record made while it is set belongs to that run.
    """

    def __init__(self):
        self.run_id = 0
        self.spans: list[Span] = []
        self.counts = defaultdict(lambda: defaultdict(float))  # run -> key -> sum
        self.records = defaultdict(list)                       # run -> [value]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children point at it
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(self.run_id, span_id, parent, name, start, end)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.run_id][key] += value

    def record(self, value) -> None:
        self.records[self.run_id].append(value)

    def _replace(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            # a later refactor may drop a name; the layer then reads as empty
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``;
        ``on_return(tracer, result)`` runs after each call."""
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(self, result)
                return result
            return wrapper
        self._replace(owner, attr, make)

    def patch_counter(self, owner, attr: str, name: str, size_arg: int) -> None:
        """Count calls of ``owner.attr`` as ``name.calls`` and the elements of
        positional argument ``size_arg`` (1 for a scalar) as ``name.cells``;
        no span, so the time stays with the caller."""
        def make(original):
            def wrapper(*args, **kwargs):
                self.count(name + ".calls")
                self.count(name + ".cells", getattr(args[size_arg], "size", 1))
                return original(*args, **kwargs)
            return wrapper
        self._replace(owner, attr, make)

    def patch_before(self, owner, attr: str, hook) -> None:
        """Call ``hook()`` before every call of ``owner.attr``; no span."""
        def make(original):
            def wrapper(*args, **kwargs):
                hook()
                return original(*args, **kwargs)
            return wrapper
        self._replace(owner, attr, make)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover.

        Children of one parent run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent_id >= 0:
                covered[s.parent_id] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(Span._fields)
            writer.writerows(self.spans)
