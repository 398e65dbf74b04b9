"""Spans around calls into ftcs2d's layers, recorded from outside the package.

``Tracer.install`` replaces the public functions listed in ``WRAPPED`` by
wrappers that record one span each (name, start, end, parent);
``Tracer.uninstall`` puts the originals back.  Because the package looks
these names up at call time, calls the package makes to itself (``build`` to
``row_presentation``, ``capacity_estimate`` to ``count_by_profile``) are
recorded too.  Per-cell helpers (``candidates``, ``Block`` methods,
``QuadrupleTable.completions``) are left alone: a span per cell would cost
more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

from ftcs2d import analysis, blocks, fileformat, generation, presentation

# (owner, attribute, span name); one owner per place the package looks the name up
WRAPPED = (
    (fileformat, "parse_system", "fileformat.parse_system"),
    (fileformat, "embed_forbidden", "blocks.embed_forbidden"),
    (blocks, "embed_forbidden", "blocks.embed_forbidden"),
    (blocks.ConstraintSystem, "__init__", "blocks.constraint_system"),
    (blocks.ConstraintSystem, "first_forbidden_window", "blocks.first_forbidden_window"),
    (presentation, "row_presentation", "presentation.row_presentation"),
    (presentation, "column_presentation", "presentation.column_presentation"),
    (presentation, "combined", "presentation.combined"),
    (presentation, "build", "presentation.build"),
    (presentation, "quadruples", "presentation.quadruples"),
    (presentation.ClassView, "strips", "presentation.class_view_strips"),
    (generation, "generate_block", "generation.generate_block"),
    (generation, "fill_grid", "generation.fill_grid"),
    (generation.IdentifierGrid, "to_block", "generation.to_block"),
    (generation, "is_generated", "generation.is_generated"),
    (generation, "enumerate_blocks", "generation.enumerate_blocks"),
    (generation, "enumerate_row_strips", "generation.enumerate_row_strips"),
    (generation, "enumerate_col_strips", "generation.enumerate_col_strips"),
    (analysis, "capacity_estimate", "analysis.capacity_estimate"),
    (analysis, "count_by_profile", "analysis.count_by_profile"),
    (analysis, "count_periodic", "analysis.count_periodic"),
)


class Tracer:
    """Spans kept in memory as ``[id, parent, name, start, end]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = [sid, parent[0] if parent else None, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order (open: {popped[2]})")

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            # the span covers the whole iteration: opened at the first item, closed at exhaustion
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    yield from fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in WRAPPED:
            fn = owner.__dict__[attr]
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def summary(self, first: int = 0, stop: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name, over spans ``first`` to ``stop``: calls, total and self seconds.

        A span's self time is its duration minus the durations of its
        children; spans of one thread nest, so children never overlap.
        """
        spans = self.spans[first:stop]
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _name, t0, t1 in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _parent, name, t0, t1 in spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child_time[sid]
        return dict(out)


class _Span:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.begin(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False
