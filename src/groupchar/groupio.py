"""Group files: a dense Cayley format and a permutation-generator format.

Cayley format (written by save_group, read back verbatim):

    cayley <n>
    <n rows of n space-separated ids>     # row g lists g*h for h = 0..n-1

Permutation format (read-only; the group is the closure of the listed
generators, refused with BoundExceeded past `groups.SUBGROUP_BOUND`
elements, the largest order any command accepts, before its table is built):

    perm <degree>
    (1 2 3)(4 5)        # one generator per line, 1-based disjoint cycles
    (2 4)

Blank lines and lines starting with '#' are ignored in both formats.
Loaded permutation groups get deterministic ids: the identity is 0 and the
remaining elements are sorted lexicographically as images tuples, so the
same file always yields the same Cayley table.
"""

from __future__ import annotations

import re

import numpy as np

from .constructors import _perm_group
from .errors import BoundExceeded, ParseError
from .groups import SUBGROUP_BOUND, Group

__all__ = ["save_group", "load_group"]

_CYCLE = re.compile(r"\(([^()]*)\)")
# ASCII digits, signs and the ASCII characters str.isspace() counts as space.
_INT_TEXT = b"0123456789+- \t\n\r\v\f\x1c\x1d\x1e\x1f"


def save_group(group: Group, path) -> None:
    """Write the dense Cayley table (always the cayley format)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"cayley {group.order}\n")
        for row in group.mul:
            fh.write(" ".join(map(str, row.tolist())) + "\n")


def _content_lines(path):
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def load_group(path, *, label: str | None = None) -> Group:
    """Read a group file in either format; see the module docstring."""
    lines = list(_content_lines(path))
    if not lines:
        raise ParseError("empty group file", 0)
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"malformed header {header!r}", lineno)
    kind, arg = parts
    try:
        size = int(arg)
    except ValueError:
        raise ParseError(f"header size {arg!r} is not an integer", lineno)
    if size < 1:
        raise ParseError("header size must be positive", lineno)
    name = label if label is not None else _default_label(path)
    if kind == "cayley":
        return _load_cayley(lines[1:], size, name, lineno)
    if kind == "perm":
        return _load_perm(lines[1:], size, name)
    raise ParseError(f"unknown format {kind!r}", lineno)


def _default_label(path) -> str:
    stem = str(path).rsplit("/", 1)[-1]
    return stem.rsplit(".", 1)[0] if "." in stem else stem


def _load_cayley(lines, size, name, header_line) -> Group:
    if len(lines) != size:
        raise ParseError(
            f"expected {size} table rows, found {len(lines)}", header_line
        )
    # One input language: np.loadtxt reads only bodies of ASCII digits, signs
    # and whitespace, where it splits as str.split does and takes a cell
    # exactly when int() does, with the same value. Any other body (1.0, 1e0,
    # 1_0), or one it refuses or with an id out of range, is read by int().
    rows = [line for _, line in lines]
    mul = None
    if not " ".join(rows).encode("ascii").translate(None, _INT_TEXT):
        try:
            mul = np.loadtxt(rows, dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            pass
    if mul is None or mul.shape != (size, size) or mul.min() < 0 or mul.max() >= size:
        mul = _parse_rows(lines, size)
    try:
        return Group(mul, label=name)
    except ValueError as exc:
        raise ParseError(f"not a group table: {exc}", header_line)


def _parse_rows(lines, size) -> np.ndarray:
    """The table one cell at a time; a ParseError names the first bad cell."""
    mul = np.empty((size, size), dtype=np.int64)
    for r, (lineno, line) in enumerate(lines):
        cells = line.split()
        if len(cells) != size:
            raise ParseError(f"row has {len(cells)} entries, expected {size}",
                             lineno)
        for c, cell in enumerate(cells):
            try:
                v = int(cell)
            except ValueError:
                raise ParseError(f"non-integer entry {cell!r}", lineno) from None
            if not 0 <= v < size:
                raise ParseError(f"entry {v} out of range 0..{size - 1}", lineno)
            mul[r, c] = v
    return mul


def _parse_cycles(line: str, degree: int, lineno: int) -> list[list[int]]:
    """The cycles of one generator line, as lists of 0-based points."""
    stripped = _CYCLE.sub("", line).strip()
    if stripped:
        raise ParseError(f"unexpected text {stripped!r} outside cycles", lineno)
    cycles = []
    seen: set[int] = set()
    for body in _CYCLE.findall(line):
        entries = body.replace(",", " ").split()
        if not entries:
            continue
        pts = []
        for tok in entries:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"non-integer point {tok!r}", lineno)
            if not 1 <= v <= degree:
                raise ParseError(f"point {v} out of range 1..{degree}", lineno)
            if v - 1 in seen:
                raise ParseError(f"point {v} appears twice", lineno)
            seen.add(v - 1)
            pts.append(v - 1)
        cycles.append(pts)
    return cycles


def _images(cycles: list[list[int]], rank: dict[int, int]) -> tuple[int, ...]:
    perm = list(range(len(rank)))
    for pts in cycles:
        for i, pt in enumerate(pts):
            perm[rank[pt]] = rank[pts[(i + 1) % len(pts)]]
    return tuple(perm)


def _load_perm(lines, degree, name) -> Group:
    parsed = [_parse_cycles(line, degree, lineno) for lineno, line in lines]
    # Only the points that some cycle names can move.  Renumbering them in
    # increasing order keeps the lexicographic order of the image tuples,
    # so the ids are those over all `degree` points, and a large header
    # degree costs no memory.
    named = sorted({pt for cycles in parsed for pts in cycles for pt in pts}) or [0]
    rank = {pt: i for i, pt in enumerate(named)}
    width = len(named)
    gens = [_images(cycles, rank) for cycles in parsed]
    identity = tuple(range(width))
    closure = {identity, *gens}
    frontier = sorted(closure)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = tuple(a[g[x]] for x in range(width))
                if c not in closure:
                    if len(closure) >= SUBGROUP_BOUND:
                        raise BoundExceeded("permutation closure",
                                            len(closure) + 1, SUBGROUP_BOUND)
                    closure.add(c)
                    fresh.append(c)
        frontier = fresh
    ordered = [identity] + sorted(closure - {identity})
    return _perm_group(ordered, name)
