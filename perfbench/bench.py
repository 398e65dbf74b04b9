"""The measured loop: one workload's inputs, its rounds of operations, and their metrics."""

from __future__ import annotations

import gc
import random
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import nullcontext
from itertools import zip_longest

from ftcs2d import analysis, fileformat, generation, presentation

import reference as ref
from tracing import Tracer

UNITS = {
    "setup_s": "s",
    "capacity_s": "s",
    "count_s": "s",
    "generate_cells_per_s": "cells/s",
    "check_cells_per_s": "cells/s",
    "walk_check_cells_per_s": "cells/s",
    "enumerate_blocks_per_s": "blocks/s",
    "peak_rss_mb": "MB",
}

# per-layer time metrics: the self time of one span name, summed over a round
LAYER_TIMES = (
    "fileformat.parse_system",
    "blocks.embed_forbidden",
    "blocks.constraint_system",
    "presentation.row_presentation",
    "presentation.column_presentation",
    "presentation.quadruples",
    "analysis.count_by_profile",
    "analysis.count_periodic",
    "generation.fill_grid",
    "generation.to_block",
    "blocks.first_forbidden_window",
    "generation.is_generated",
    "generation.enumerate_blocks",
    "generation.enumerate_row_strips",
    "generation.enumerate_col_strips",
    "presentation.class_view_strips",
)
COUNTED_CALLS = ("analysis.count_by_profile", "analysis.count_periodic")  # per-layer call counts


class _Failed:
    def __repr__(self):
        return "FAILED"


FAILED = _Failed()  # the result of an operation that raised


def _untraced(name):
    return nullcontext()


def _listed(gen) -> list:
    return list(gen)  # consumes the generator inside the timed region


class Bench:
    """One workload's inputs, the program's outputs and the samples taken.

    A round is ``passes`` passes of the light operations (set-up, generate,
    check, enumerate), with the round's capacity calls and its count call
    placed after passes spread evenly over it, so that every metric's samples
    are spread over the whole round.
    """

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.unexpected: list[str] = []  # failures of operations that are not kept on purpose
        self.samples: dict[str, list[float]] = defaultdict(list)  # times: one per pass or per call
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])  # rates: work done, seconds busy
        self.outputs: dict[str, list] = defaultdict(list)  # capacity and count: every result
        self.first: dict[str, object] = {}  # other operations: the first pass's results
        self.changed: set[str] = set()  # operations whose results differed on a later pass
        self.setup_shapes: set[tuple[int, int, int, int]] = set()
        self.gen_counters: list[tuple[int, int, int]] = []  # per pass: steps, backtracks, grid cells delivered
        self.round_seconds: list[float] = []
        self.span = _untraced

        # set up once before the rounds; every operation runs on this graph
        self.cs = fileformat.parse_system(wl.text)
        self.g = presentation.build(self.cs)
        self.g.quadruple_table
        self.gc = presentation.column_presentation(self.cs)

        rng = random.Random(seed)
        self.gen_seeds = [rng.randrange(1 << 31) for _ in wl.gen_sizes]
        self.kept_seed = rng.randrange(1 << 31)
        forbidden = sorted(wl.forbidden)
        # members, each followed by a copy with one planted forbidden window; the
        # planted rows are spread evenly down the blocks, so that how far the scans
        # go before they stop does not depend on the seed
        self.check_blocks = []
        k = len(wl.check_sizes)
        for i, size in enumerate(wl.check_sizes):
            policy = generation.GenerationPolicy(seed=rng.randrange(1 << 31))
            member = generation.generate_block(self.g, size, size, policy)
            window = rng.choice(forbidden)
            top, left = (2 * i + 1) * (size - wl.h + 1) // (2 * k), rng.randrange(size - wl.w + 1)
            self.check_blocks += [member, type(member)(ref.plant(member.rows, window, top, left))]
        self.check_cells = sum(b.height * b.width for b in self.check_blocks)

    def _rate(self, metric: str, work: float, seconds: float) -> None:
        total = self.totals[metric]
        total[0] += work
        total[1] += seconds

    def _keep(self, name: str, results) -> None:
        """Keep one pass's results if they are the first; else note whether they differ."""
        if name not in self.first:
            self.first[name] = results
        elif results != self.first[name]:
            self.changed.add(name)

    def call(self, fn, *args, kept: bool = False):
        """One operation: every exception is counted as a failure and reported.

        Only ``kept`` operations, which fail today on purpose, may fail; the
        failure of any other one is a check failure of the run.
        """
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # noqa: BLE001 -- the loop must go on and count it
            self.failed += 1
            msg = f"{type(e).__name__}: {str(e)[:120]}"
            self.errors[msg] += 1
            if not kept:
                self.unexpected.append(f"{getattr(fn, '__name__', fn)}: {msg}")
            return FAILED

    def round(self, tracer: Tracer | None) -> None:
        self.span = tracer.span if tracer else _untraced
        wl = self.wl
        pairs = zip_longest([self._capacity] * wl.capacity_calls, [self._count] * wl.count_calls)
        heavy = [op for pair in pairs for op in pair if op]  # capacity, count, capacity, ...
        after = [i * wl.passes // len(heavy) for i in range(len(heavy))]
        for p in range(wl.passes):
            self._setup()
            self._generate()
            self._check()
            self._enumerate()
            for op, q in zip(heavy, after):
                if q == p:
                    op()

    def _setup(self) -> None:
        wl = self.wl

        def setup():
            cs = fileformat.parse_system(wl.text)
            g = presentation.build(cs)
            g.quadruple_table
            return cs, g

        gc.collect()
        t0 = time.perf_counter()
        for _ in range(wl.setup_reps):
            with self.span("op.setup"):
                got = self.call(setup)
        self.samples["setup_s"].append((time.perf_counter() - t0) / wl.setup_reps)
        if got is not FAILED:
            cs, g = got
            self.setup_shapes.add((cs.size, g.n_blue, g.n_red, len(g.quadruple_table)))

    def _capacity(self) -> None:
        wl = self.wl
        gc.collect()
        t0 = time.perf_counter()
        with self.span("op.capacity"):
            est = self.call(analysis.capacity_estimate, self.g, *wl.capacity)
        self.samples["capacity_s"].append(time.perf_counter() - t0)
        self.outputs["capacity"].append(est)
        if wl.kept_capacity:
            with self.span("op.capacity_kept"):
                est = self.call(analysis.capacity_estimate, self.g, *wl.kept_capacity, kept=True)
            self.outputs["capacity"].append(est)

    def _count(self) -> None:
        wl = self.wl
        budget = () if wl.count_budget is None else (wl.count_budget,)
        gc.collect()
        t0 = time.perf_counter()
        with self.span("op.count"):
            n = self.call(analysis.count_by_profile, self.g, *wl.count, *budget)
        self.samples["count_s"].append(time.perf_counter() - t0)
        self.outputs["count"].append(n)

    def _generate(self) -> None:
        wl, g = self.wl, self.g
        calls = [(size, size, seed, False) for size, seed in zip(wl.gen_sizes, self.gen_seeds)]
        if wl.kept_generate:
            calls.append((*wl.kept_generate, self.kept_seed, True))
        stats = generation.GenerationStats()
        delivered = []  # ((m, n) requested, block)
        gc.collect()
        t0 = time.perf_counter()
        for m, n, seed, kept in calls:
            policy = generation.GenerationPolicy(seed=seed)
            with self.span("op.generate"):
                b = self.call(generation.generate_block, g, m, n, policy, stats, kept=kept)
            if b is not FAILED:
                delivered.append(((m, n), b))
        dt = time.perf_counter() - t0  # failed calls count in the time
        self._rate("generate_cells_per_s", sum(b.height * b.width for _, b in delivered), dt)
        grid_cells = sum((b.height - wl.h + 1) * (b.width - wl.w + 1) for _, b in delivered)
        self.gen_counters.append((stats.steps, stats.backtracks, grid_cells))
        self._keep("generate", delivered)

    def _check(self) -> None:
        for metric, name, fn in (
            ("check_cells_per_s", "check", self.cs.first_forbidden_window),
            ("walk_check_cells_per_s", "walk_check", lambda b: generation.is_generated(self.g, b)),
        ):
            gc.collect()
            t0 = time.perf_counter()
            answers = []
            for b in self.check_blocks:
                with self.span(f"op.{name}"):
                    answers.append(self.call(fn, b))
            self._rate(metric, self.check_cells, time.perf_counter() - t0)
            self._keep(name, answers)

    def _enumerate(self) -> None:
        wl, g = self.wl, self.g
        gc.collect()
        t0 = time.perf_counter()
        with self.span("op.enumerate"):
            got = {
                "blocks": self.call(_listed, generation.enumerate_blocks(g, *wl.enum_blocks)),
                "row_strips": self.call(_listed, generation.enumerate_row_strips(g, wl.enum_row_strips)),
                "col_strips": self.call(_listed, generation.enumerate_col_strips(g, wl.enum_col_strips)),
                "class_strips": [],
            }
            for k in g.vertices:
                strips = self.call(_listed, presentation.class_view(self.gc, k).strips(wl.class_strips))
                got["class_strips"] += [] if strips is FAILED else strips
        dt = time.perf_counter() - t0
        self._rate("enumerate_blocks_per_s", sum(len(v) for v in got.values() if v is not FAILED), dt)
        self._keep("enumerate", got)


def run_rounds(bench: Bench, seconds: float, tracer: Tracer | None) -> list[int]:
    """Whole rounds, at least one, until the next would end after ``seconds``.

    With a tracer every round is traced.  Returns the index of each round's
    first span, and the index after the last span.
    """
    bounds = []
    start = time.perf_counter()
    while True:
        bounds.append(len(tracer.spans) if tracer else 0)
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            bench.round(tracer)
        finally:
            if tracer:
                tracer.uninstall()
        bench.round_seconds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(bench.round_seconds) > seconds:
            return bounds + [len(tracer.spans) if tracer else 0]


def end_to_end(bench: Bench, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """``setup_s`` is the median of its samples, the other times the mean time of
    a call, and rates all work over all time busy.

    The machine's speed changes in stretches of seconds, so a run's calls fall
    into a fast and a slow group.  A median of such calls jumps from one group
    to the other as the share of slow stretches in a run passes one half; a
    mean moves with that share, so it repeats better between runs.
    """
    out = {}
    for name, unit in UNITS.items():
        if name == "peak_rss_mb":
            out[name] = (peak_rss_mb, unit)
        elif name in bench.totals:
            work, seconds = bench.totals[name]
            out[name] = (work / seconds, unit)
        elif name == "setup_s":
            out[name] = (statistics.median(bench.samples[name]), unit)
        else:
            out[name] = (statistics.fmean(bench.samples[name]), unit)
    return out


def _peak_mb(fn, *args) -> float:
    """Peak of memory allocated during one plain call, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def per_layer(bench: Bench, tracer: Tracer, bounds: list[int]) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics, as medians over the traced rounds, and the trace itself."""
    wl = bench.wl
    rounds = range(len(bounds) - 1)
    per_round = [tracer.summary(bounds[i], bounds[i + 1]) for i in rounds]
    med = statistics.median
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (med(s.get(name, {}).get("self_s", 0.0) for s in per_round), "s")
    for name in COUNTED_CALLS:
        metrics[f"{name}_calls"] = (med(s.get(name, {}).get("calls", 0) for s in per_round), "count")

    # generation counters, summed over the passes of a traced round
    sums = [[sum(c) for c in zip(*bench.gen_counters[i * wl.passes : (i + 1) * wl.passes])] for i in rounds]
    steps, backtracks, grid_cells = (med(s[k] for s in sums) for k in range(3))
    metrics["generation.steps"] = (steps, "count")
    metrics["generation.backtracks"] = (backtracks, "count")
    metrics["generation.placements_per_cell"] = (steps / grid_cells, "ratio")

    metrics["presentation.quadruples_peak_mb"] = (_peak_mb(presentation.quadruples, bench.g), "MB")
    cap_m, cap_n = wl.capacity
    peaks = [_peak_mb(analysis.count_periodic, bench.g, m, cap_n) for m in range(wl.h, cap_m + 1)]
    metrics["analysis.count_periodic_peak_mb"] = (max(peaks), "MB")

    # overhead against an untraced round: the spans of a round times the cost of one span
    spans = [sum(v["calls"] for v in s.values()) for s in per_round]
    cost = span_cost()
    overhead = [n * cost / (t - n * cost) for n, t in zip(spans, bench.round_seconds)]
    metrics["trace.spans"] = (med(spans), "count")
    metrics["trace.overhead_pct"] = (100 * med(overhead), "%")
    detail = {
        "rounds": [{"seconds": t} for t in bench.round_seconds],
        "span_cost_s": cost,
        "per_round": per_round,
        "last_round_spans": tracer.spans[bounds[-2] :],
    }
    return metrics, detail


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare no-op."""
    calls = 20_000

    def noop():
        pass

    wrapped = Tracer()._wrap(noop, "noop")
    times = []
    for fn in (noop, wrapped) * 3:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return (min(times[1::2]) - min(times[0::2])) / calls
