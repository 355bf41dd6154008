"""In-memory spans around calls into the program's public functions.

A :class:`Tracer` wraps public functions and methods of ``gmbayes`` for the
duration of a ``with tracer.patched(layers):`` block. Each call records a
span (id, parent id, name, start, end, rows) in memory; spans are written
out only when the benchmark ends. The program's source is never touched:
module-level functions are replaced in every ``gmbayes`` module namespace
that holds them, and methods on their class, then restored.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    rows: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Layer:
    """A public callable to trace: ``module.attribute`` (``Class.method`` for methods).

    ``rows`` maps the call's arguments to the number of rows of work it was
    given; ``None`` counts nothing.
    """

    module: str
    attribute: str
    name: str
    rows: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rows: int = 0):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, rows))

    def wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = layer.rows(*args, **kwargs) if layer.rows is not None else 0
            with self.span(layer.name, rows):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, layers):
        """Trace every layer inside the block; restore the originals after it."""
        undo = []
        try:
            for layer in layers:
                owner_name, _, attr = layer.attribute.rpartition(".")
                owner = sys.modules[layer.module]
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = getattr(owner, attr)
                traced = self.wrap(layer, original)
                if owner_name:
                    targets = [owner]
                else:
                    targets = [
                        module
                        for name, module in list(sys.modules.items())
                        if name.split(".")[0] == "gmbayes" and getattr(module, attr, None) is original
                    ]
                for target in targets:
                    setattr(target, attr, traced)
                    undo.append((target, attr, original))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    # -- analysis -------------------------------------------------------------

    @staticmethod
    def _root_name(span: Span, by_id: dict[int, Span]) -> str:
        while span.parent in by_id:
            span = by_id[span.parent]
        return span.name

    def summary(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, rows.

        Self time is a span's duration minus the durations of its direct
        children. With ``root`` given, only spans whose outermost ancestor
        has that name are counted. Names never seen read as zero.
        """
        by_id = {s.id: s for s in self.spans}
        child_ns = defaultdict(int)
        for s in self.spans:
            child_ns[s.parent] += s.duration_ns
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0}
        )
        for s in self.spans:
            if root is not None and self._root_name(s, by_id) != root:
                continue
            entry = out[s.name]
            entry["calls"] += 1
            entry["total_s"] += s.duration_ns * 1e-9
            entry["self_s"] += (s.duration_ns - child_ns[s.id]) * 1e-9
            entry["rows"] += s.rows
        return out

    def write(self, path) -> None:
        records = [
            {"id": s.id, "parent": s.parent, "name": s.name,
             "start_ns": s.start_ns, "end_ns": s.end_ns, "rows": s.rows}
            for s in sorted(self.spans, key=lambda s: s.start_ns)
        ]
        with open(path, "w") as handle:
            json.dump(records, handle)
