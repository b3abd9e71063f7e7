"""Spans recorded from outside the program, around its layer entry points.

The traced run wraps the public entry points of each layer (scheduler
tick, power evaluation, plant step, ...) in this process and records one
span per call: name, start, end and the enclosing span.  Nothing inside
the package changes; the wrappers are removed when the traced part ends.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from time import perf_counter


class SpanRecorder:
    """In-memory span log plus the method wrappers that feed it."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent, units]`` list per span;
        #: ``parent`` indexes this list (-1 for a root span).
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[type, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, units: float) -> list:
        stack = self._stack()
        rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, units]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, units: float = 0.0):
        """Record a span around a block of benchmark code."""
        rec = self._open(name, units)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, owner: type, attr: str, name: str, units=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``units(args, kwargs)`` optionally counts the work of one call
        (for example the lanes one batched plant step advances).
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = recorder._open(name, units(args, kwargs) if units else 0.0)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(rec)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped method."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def wrapped(self, targets):
        """Install ``(owner, attr, name[, units])`` wrappers for a block."""
        try:
            for target in targets:
                self.wrap(*target)
            yield self
        finally:
            self.unwrap_all()

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with :attr:`spans`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - child[i]
            for i, (name, start, end, parent, _) in enumerate(self.spans)
        ]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``total_s``, ``self_s``, ``calls`` and ``units``."""
        out: dict[str, dict[str, float]] = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            name, start, end, _, units = rec
            agg = out.setdefault(
                name, {"total_s": 0.0, "self_s": 0.0, "calls": 0, "units": 0.0}
            )
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            agg["calls"] += 1
            agg["units"] += units
        return out
