"""Text formats for constraint systems and blocks.

System file::

    alphabet 01
    size 2 2

    # a forbidden window, exactly h lines of w symbols
    forbid
    11
    10

    # a pattern of size up to h x w: every window containing it is forbidden
    pattern
    11

Blank lines and lines starting with ``#`` are ignored.  Block files are just
m lines of n symbol characters.
"""

from __future__ import annotations

from .blocks import Alphabet, Block, ConstraintSystem, decode_windows
from .blocks import embed_forbidden  # noqa: F401  kept: perfbench/tracing.py looks the name up here


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _significant_lines(text: str) -> list[tuple[int, str]]:
    stripped = ((lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1))
    return [(lineno, line) for lineno, line in stripped if line and not line.startswith("#")]


def parse_system(text: str) -> ConstraintSystem:
    lines = _significant_lines(text)
    if not lines:
        raise ParseError(0, "empty file")
    lineno, line = lines[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "alphabet":
        raise ParseError(lineno, f"expected 'alphabet <tokens>', got {line!r}")
    try:
        alphabet = Alphabet(parts[1])
    except ValueError as e:
        raise ParseError(lineno, str(e)) from e

    if len(lines) < 2:
        raise ParseError(lineno, "unexpected end of file")
    lineno, line = lines[1]
    parts = line.split()
    if len(parts) != 3 or parts[0] != "size":
        raise ParseError(lineno, f"expected 'size <h> <w>', got {line!r}")
    try:
        h, w = int(parts[1]), int(parts[2])
    except ValueError as e:
        raise ParseError(lineno, f"bad size numbers in {line!r}") from e
    if h < 1 or w < 1:
        raise ParseError(lineno, f"size must be positive, got {h} {w}")

    stanzas: list[tuple[int, str, list[tuple[int, str]]]] = []  # keyword line, keyword, block lines
    for lineno, line in lines[2:]:
        if line in ("forbid", "pattern"):
            stanzas.append((lineno, line, []))
        elif not stanzas:
            raise ParseError(lineno, f"expected 'forbid' or 'pattern', got {line!r}")
        else:
            stanzas[-1][2].append((lineno, line))
    forbidden = []
    for lineno, kind, rows in stanzas:
        if not rows:
            raise ParseError(lineno, "stanza has no block lines")
        b = _block(rows, alphabet)
        if kind == "forbid" and (b.height, b.width) != (h, w):
            raise ParseError(lineno, f"forbid stanza is {b.height}x{b.width}, expected {h}x{w}")
        if b.height > h or b.width > w:
            raise ParseError(lineno, f"pattern {b.height}x{b.width} exceeds window {h}x{w}")
        forbidden.append(b)
    return ConstraintSystem(alphabet, h, w, forbidden)


def format_system(cs: ConstraintSystem) -> str:
    """Canonical writer: every forbidden window as a 'forbid' stanza, in code
    order, which is canonical order."""
    out = [f"alphabet {cs.alphabet.symbols}", f"size {cs.h} {cs.w}"]
    for f in decode_windows(sorted(cs.forbidden_codes), cs.alphabet.size, cs.h, cs.w):
        out += ["", "forbid", *cs.alphabet.format_block(f)]
    return "\n".join(out) + "\n"


def _block(lines: list[tuple[int, str]], alphabet: Alphabet) -> Block:
    """The block whose rows are the given numbered lines; ParseError on the
    line of the first bad symbol or of the first row of another width."""
    rows = []
    for lineno, line in lines:
        try:
            rows.append(tuple(map(alphabet.index, line)))
        except ValueError as e:
            raise ParseError(lineno, str(e)) from e
        if len(line) != len(lines[0][1]):
            raise ParseError(lineno, f"row of width {len(line)} in a block of width {len(lines[0][1])}")
    return Block(tuple(rows))


def parse_block(text: str, alphabet: Alphabet) -> Block:
    return _block(_significant_lines(text), alphabet)


def format_block(b: Block, alphabet: Alphabet) -> str:
    return "\n".join(alphabet.format_block(b)) + "\n"
