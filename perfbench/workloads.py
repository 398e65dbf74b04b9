"""The benchmark's workloads: one constrained system each, with its sizes.

Every system is defined twice, on purpose: once as the text the program
parses, and once as the benchmark's own set of forbidden windows, from which
the reference checks are computed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent

# OEIS A006506: n x n binary matrices with no two adjacent 1s
HARD_SQUARE_NN = {
    1: 2, 2: 7, 3: 63, 4: 1234, 5: 55447, 6: 5598861, 7: 1280128950,
    8: 660647962955, 9: 770548397261707, 10: 2030049051145980050,
}
# proper 3-colourings of the n x n grid graph
COLOURINGS_NN = {2: 18, 3: 246, 4: 7812, 5: 580986, 6: 101596896}

HARD_SQUARE_CAPACITY = 0.5878911617753406  # Baxter, J. Phys. A 32 (1999)
COLOURINGS_CAPACITY = 1.5 * math.log2(4 / 3)  # Lieb, Phys. Rev. 162 (1967)


def system_text(symbols: str, h: int, w: int, forbid=(), patterns=()) -> str:
    """A system file with one stanza per forbidden window and per pattern."""
    out = [f"alphabet {symbols}", f"size {h} {w}"]
    for kind, blocks in (("forbid", forbid), ("pattern", patterns)):
        for b in blocks:
            out += ["", kind] + ["".join(symbols[c] for c in row) for row in b]
    return "\n".join(out) + "\n"


def seeded_three_symbol_windows(seed: int = 2024, n_forbidden: int = 20) -> list[ref.Rows]:
    """The random 3-symbol 2x2 system of the package's test suite."""
    return random.Random(seed).sample(list(ref.all_windows(3, 2, 2)), n_forbidden)


COLOURING_PATTERNS = [((s, s),) for s in range(3)] + [((s,), (s,)) for s in range(3)]


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    h: int
    w: int
    forbidden: frozenset  # the benchmark's own definition of the system
    text: str  # what the program parses
    setup_reps: int  # set-ups timed together in one sample, one sample per pass
    capacity: tuple[int, int]
    known_capacity: float | None
    count: tuple[int, int]
    count_budget: int | None  # None: the program's default
    literature: dict[int, int]  # N(n, n) from the literature
    gen_sizes: tuple[int, ...]  # square sizes of the generate calls of one pass
    check_sizes: tuple[int, ...]  # square sizes of the members in the check mix
    enum_blocks: tuple[int, int]
    enum_row_strips: int  # strip height
    enum_col_strips: int  # strip width
    class_strips: int  # strip width, from every head
    passes: int  # passes of set-up and the light operations (generate, check, enumerate) per round
    capacity_calls: int = 1  # per round; a run of hs-bracket is one round, and one call is one sample
    count_calls: int = 1  # per round
    kept_generate: tuple[int, int] | None = None  # generate call kept although it fails
    kept_capacity: tuple[int, int] | None = None  # capacity call kept although it fails
    twin_text: str | None = None  # the same constraint with a smaller window
    twin_forbidden: frozenset | None = None
    twin_window: tuple[int, int] | None = None


def hard_square() -> Workload:
    return Workload(
        name="hs-bracket",
        q=2, h=2, w=2,
        forbidden=ref.windows_where(2, 2, 2, lambda win: ref.adjacent_equal(win, 1)),
        text=(ROOT / "data" / "hard_square.txt").read_text(),
        setup_reps=100,
        capacity=(8, 8), known_capacity=HARD_SQUARE_CAPACITY,
        count=(10, 10), count_budget=1 << 40,
        literature=HARD_SQUARE_NN,
        gen_sizes=(16, 24, 32) * 6,
        check_sizes=(16, 24, 32) * 4,
        enum_blocks=(4, 4), enum_row_strips=7, enum_col_strips=7, class_strips=7,
        passes=12,
        capacity_calls=2,
        count_calls=2,
        kept_capacity=(10, 10),
    )


def tri_sample() -> Workload:
    forbid = seeded_three_symbol_windows()
    return Workload(
        name="tri-sample",
        q=3, h=2, w=2,
        forbidden=frozenset(forbid),
        text=system_text("abc", 2, 2, forbid=forbid),
        setup_reps=20,
        capacity=(3, 4), known_capacity=None,
        count=(8, 4), count_budget=None,
        literature={},
        gen_sizes=tuple(range(8, 33, 2)) * 4,
        check_sizes=(16, 20, 24, 28, 32) * 4,
        enum_blocks=(3, 3), enum_row_strips=5, enum_col_strips=5, class_strips=5,
        passes=1,
        kept_generate=(200, 200),
    )


def colourings() -> Workload:
    return Workload(
        name="color3-3x3",
        q=3, h=3, w=3,
        forbidden=ref.windows_where(3, 3, 3, ref.adjacent_equal),
        text=system_text("abc", 3, 3, patterns=COLOURING_PATTERNS),
        setup_reps=1,
        capacity=(3, 4), known_capacity=COLOURINGS_CAPACITY,
        count=(6, 6), count_budget=1 << 40,
        literature=COLOURINGS_NN,
        gen_sizes=(16, 24, 32) * 8,
        check_sizes=(16, 24, 32) * 8,
        enum_blocks=(4, 4), enum_row_strips=5, enum_col_strips=6, class_strips=6,
        passes=1,
        twin_text=system_text("abc", 2, 2, patterns=COLOURING_PATTERNS),
        twin_forbidden=ref.windows_where(3, 2, 2, ref.adjacent_equal),
        twin_window=(2, 2),
    )


WORKLOADS = {"hs-bracket": hard_square, "tri-sample": tri_sample, "color3-3x3": colourings}
