"""Command-line driver.

Exit codes: 0 success / member, 1 nonmember, 2 parse error, unreadable file
or invalid request (such as a size below the window), 3 unrealizable,
4 computation refused for exceeding its budget, 5 any other error (an
internal fault or running out of memory, for instance).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import analysis, dotexport, generation, oracle, presentation
from .fileformat import format_block, parse_block, parse_system


def _load_system(path: str):
    return parse_system(Path(path).read_text())


def cmd_build(args) -> int:
    cs = _load_system(args.file)
    g = presentation.build(cs)
    quads = g.quadruple_table
    print(f"|A_F|={cs.size} blue={g.n_blue} red={g.n_red} quads={len(quads)}")
    return 0


def cmd_check(args) -> int:
    cs = _load_system(args.file)
    b = parse_block(Path(args.block).read_text(), cs.alphabet)
    window = cs.first_forbidden_window(b)
    if window is None:
        print("member")
        return 0
    print(f"nonmember ({window[0]},{window[1]})")
    return 1


def cmd_generate(args) -> int:
    cs = _load_system(args.file)
    g = presentation.build(cs)
    policy = generation.GenerationPolicy(
        schedule=args.schedule, seed=args.seed, backtracking=not args.no_backtrack
    )
    try:
        b = generation.generate_block(g, args.rows, args.cols, policy)
    except (generation.NotRealizable, generation.DeadEnd):
        print("UNREALIZABLE")
        return 3
    sys.stdout.write(format_block(b, cs.alphabet))
    return 0


def cmd_count(args) -> int:
    cs = _load_system(args.file)
    if args.oracle:
        count = oracle.count_members(cs, args.rows, args.cols)
        try:
            profile = analysis.count_by_profile(presentation.build(cs), args.rows, args.cols)
        except oracle.BudgetExceeded:
            profile = None
        if profile is not None and profile != count:
            print(f"MISMATCH oracle={count} profile={profile}", file=sys.stderr)
            return 5
    else:
        count = analysis.count_by_profile(presentation.build(cs), args.rows, args.cols)
    print(count)
    return 0


def cmd_capacity(args) -> int:
    cs = _load_system(args.file)
    g = presentation.build(cs)
    est = analysis.capacity_estimate(g, args.max_rows, args.max_cols)
    if est.empty:
        print("empty system")
        return 0
    print(f"lower={est.lower:.6f} point={est.point:.6f} upper={est.upper:.6f}")
    return 0


def cmd_export_dot(args) -> int:
    cs = _load_system(args.file)
    gr = presentation.row_presentation(cs)
    gc = presentation.column_presentation(cs)
    if args.graph == "row":
        text = dotexport.to_dot(gr, "G_row")
    elif args.graph == "col":
        text = dotexport.to_dot(gc, "G_col")
    elif args.graph == "combined":
        text = dotexport.to_dot(presentation.combined(gr, gc), "G")
    else:
        text = dotexport.classes_to_dot(presentation.combined(gr, gc))
    Path(args.output).write_text(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftcs2d",
        description="2D finite-type constrained systems: graph presentations, "
        "membership, generation, counting, capacity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the graphs and print their sizes")
    p.add_argument("file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="test a block file for membership")
    p.add_argument("file")
    p.add_argument("block")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="generate one member block")
    p.add_argument("file")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedule", choices=generation.SCHEDULES, default=generation.ROW_MAJOR)
    p.add_argument("--no-backtrack", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("count", help="count member blocks of one size")
    p.add_argument("file")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="brute force, cross-checked")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("capacity", help="estimate capacity from strip counts")
    p.add_argument("file")
    p.add_argument("--max-rows", type=int, required=True)
    p.add_argument("--max-cols", type=int, required=True)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("export-dot", help="write a DOT rendering of a graph")
    p.add_argument("file")
    p.add_argument("--graph", choices=["row", "col", "combined", "classes"], required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:  # ParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except oracle.BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # noqa: BLE001 -- a crash must not exit 1, the nonmember code
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
