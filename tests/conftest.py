import random

import pytest

from ftcs2d import Alphabet, Block, ConstraintSystem, all_blocks, build, embed_forbidden

HARD_SQUARE_PATTERNS = [Block(((1, 1),)), Block(((1,), (1,)))]


def hard_square_system() -> ConstraintSystem:
    alph = Alphabet("01")
    return ConstraintSystem(alph, 2, 2, embed_forbidden(alph, 2, 2, HARD_SQUARE_PATTERNS))


@pytest.fixture(scope="session")
def hard_square():
    return hard_square_system()


@pytest.fixture(scope="session")
def hs_graph(hard_square):
    return build(hard_square)


@pytest.fixture(scope="session")
def free_system():
    """No constraint at all: every 2x2 binary block allowed."""
    return ConstraintSystem(Alphabet("01"), 2, 2, ())


@pytest.fixture(scope="session")
def free_graph(free_system):
    return build(free_system)


def brute_periodic(cs: ConstraintSystem, m: int, n: int) -> int:
    """Vertically wrapped m x n strips, by direct check of every block extended
    by its first h - 1 rows."""
    total = 0
    for b in all_blocks(cs.alphabet.size, m, n):
        ext = b.concat_row(b.subblock(1, 1, cs.h - 1, n)) if cs.h > 1 else b
        if cs.is_member(ext):
            total += 1
    return total


def random_three_symbol_system(seed=2024, n_forbidden=20) -> ConstraintSystem:
    rng = random.Random(seed)
    alph = Alphabet("abc")
    pool = list(all_blocks(3, 2, 2))
    return ConstraintSystem(alph, 2, 2, rng.sample(pool, n_forbidden))


@pytest.fixture(scope="session")
def three_symbol():
    return random_three_symbol_system()


@pytest.fixture(scope="session")
def three_symbol_graph(three_symbol):
    return build(three_symbol)
