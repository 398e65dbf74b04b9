"""Checks of every result a run collected, against ``reference.py`` and the literature.

``verify`` returns one line per problem; an empty list means every result the
program gave was right.  Operations that raised are counted as failed by the
run and have no result to check; only the operations a workload keeps on
purpose may raise, and any other failure is a problem.
"""

from __future__ import annotations

from ftcs2d import analysis, fileformat, presentation

import reference as ref
from bench import FAILED


def verify(bench) -> list[str]:
    wl, g, cs = bench.wl, bench.g, bench.cs
    problems: list[str] = [f"unexpected failure of {e}" for e in bench.unexpected]
    transfers: dict[int, ref.Transfer] = {}

    def count(m: int, n: int) -> int:
        if n not in transfers:
            transfers[n] = ref.Transfer(wl.forbidden, wl.q, wl.h, wl.w, n)
        return transfers[n].count(m)

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    # set-up: the forbidden windows, and graph sizes as member counts
    expect("forbidden windows", {f.rows for f in cs.forbidden} == wl.forbidden, True)
    h, w = wl.h, wl.w
    shape = (count(h, w), count(h + 1, w), count(h, w + 1), count(h + 1, w + 1))
    for got in bench.setup_shapes:
        expect("vertices, blue edges, red edges, quadruples", got, shape)

    # capacity: only properties the method must have
    for est in bench.outputs["capacity"]:
        if est is FAILED:
            continue
        if not est.lower <= est.point <= est.upper:
            problems.append(f"capacity {est.max_m}x{est.max_n}: not lower <= point <= upper: {est}")
        if wl.known_capacity is not None and not est.lower <= wl.known_capacity <= est.upper:
            problems.append(f"capacity {est.max_m}x{est.max_n}: known {wl.known_capacity} outside [{est.lower}, {est.upper}]")
    cap_m, cap_n = wl.capacity
    wrapped = {k: ref.Transfer(wl.forbidden, wl.q, h, w, k).wrapped(cap_m) for k in range(w, cap_n + 1)}
    for m in range(h, cap_m + 1):
        expect(f"count_periodic({m}, {cap_n})", analysis.count_periodic(g, m, cap_n), [wrapped[k][m] for k in range(w, cap_n + 1)])

    # exact counts
    cm, cn = wl.count
    want = count(cm, cn)
    if cm == cn and cn in wl.literature:
        expect(f"reference N({cn},{cn}) against the literature", want, wl.literature[cn])
    for got in bench.outputs["count"]:
        if got is not FAILED:
            expect(f"count_by_profile({cm}, {cn})", got, want)
    if wl.twin_text:
        problems += _twin_counts(bench)

    for name in sorted(bench.changed):
        problems.append(f"{name}: a later pass gave other results for the same inputs")

    # generation: members of the requested size
    for (m, n), b in bench.first.get("generate", ()):
        if (b.height, b.width) != (m, n):
            problems.append(f"generate_block asked for {m}x{n} returned a {b.height}x{b.width} block")
        pos = ref.first_forbidden(b.rows, wl.forbidden, h, w)
        if pos is not None:
            problems.append(f"generate_block returned a {b.height}x{b.width} nonmember (window at {pos})")

    # membership, by window scan and by graph walk
    first = [ref.first_forbidden(b.rows, wl.forbidden, h, w) for b in bench.check_blocks]
    expect("members in the check mix", sum(p is None for p in first), len(first) // 2)
    for b, got, want in zip(bench.check_blocks, bench.first.get("check", ()), first):
        if got is not FAILED and got != want:
            problems.append(f"first_forbidden_window on a {b.height}x{b.width} block: {got}, expected {want}")
    for b, got, want in zip(bench.check_blocks, bench.first.get("walk_check", ()), first):
        if got is not FAILED and got != (want is None):
            problems.append(f"is_generated on a {b.height}x{b.width} block: {got}, expected {want is None}")

    # enumeration: the right number of distinct members
    em, en = wl.enum_blocks
    sizes = {
        "blocks": count(em, en),
        "row_strips": count(wl.enum_row_strips, w),
        "col_strips": count(h, wl.enum_col_strips),
        "class_strips": count(h, wl.class_strips),
    }
    listed = bench.first.get("enumerate", {})
    for kind, want in sizes.items():
        got = listed.get(kind, FAILED)
        if got is FAILED:
            continue
        expect(f"{kind} enumerated", len(got), want)
        expect(f"{kind} distinct", len(set(got)), len(got))
        bad = sum(ref.first_forbidden(b.rows, wl.forbidden, h, w) is not None for b in got)
        expect(f"{kind} that are nonmembers", bad, 0)
    return problems


def _twin_counts(bench) -> list[str]:
    """N(n, n) of the same constraint with a smaller window: program, reference and literature agree."""
    wl, g = bench.wl, bench.g
    th, tw = wl.twin_window
    twin = presentation.build(fileformat.parse_system(wl.twin_text))
    problems = []
    cm, cn = wl.count
    for n, want in sorted(wl.literature.items()):
        if n < max(th, tw):
            continue
        got = {
            "reference": ref.Transfer(wl.twin_forbidden, wl.q, th, tw, n).count(n),
            "count_by_profile, small window": analysis.count_by_profile(twin, n, n, 1 << 40),
        }
        if n >= max(wl.h, wl.w):
            if (n, n) == (cm, cn) and bench.outputs["count"][0] is not FAILED:
                got["count_by_profile"] = bench.outputs["count"][0]
            else:
                got["count_by_profile"] = analysis.count_by_profile(g, n, n, 1 << 40)
        for what, value in got.items():
            if value != want:
                problems.append(f"N({n},{n}) by {what}: {value}, literature {want}")
    return problems
