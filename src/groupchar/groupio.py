"""Input files: two group formats, a dense Cayley format and a
permutation-generator format, and the generator matrices of `groupchar
orbits`.

Cayley format (written by save_group, read back verbatim; an order past
`groups.SUBGROUP_BOUND` is refused with BoundExceeded before any row is read):

    cayley <n>
    <n rows of n space-separated ids>     # row g lists g*h for h = 0..n-1

Permutation format (read-only; the group is the closure of the listed
generators, refused with BoundExceeded past `groups.SUBGROUP_BOUND`
elements, the largest order any command accepts, before its table is built;
a cycle or a generator orbit longer than that is refused before any
closure, as the group's order is a multiple of either):

    perm <degree>
    (1 2 3)(4 5)        # one generator per line, 1-based disjoint cycles
    (2 4)

Generator-matrix format (`_read_matrices`, for a given dimension n; the
entries of one n×n matrix per line, row-major, any integers):

    0 1 1 1             # n = 2: the matrix [[0, 1], [1, 1]]

All three formats are read line by line by `_content_lines`, which skips
blank lines and lines starting with '#', so they share one comment rule
and one line numbering for `ParseError`.

Loaded permutation groups get deterministic ids: the identity is 0 and the
remaining elements are sorted lexicographically as images tuples, so the
same file always yields the same Cayley table.  The closure is the one
`LinearAction` runs, `constructors._dimino_closure` with every named point
as the base, and its table is built by `constructors._perm_group`'s walk.
"""

from __future__ import annotations

import contextlib
import re

import numpy as np

from .constructors import _dimino_closure, _orbit_labels, _perm_group
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


def _read_matrices(path, n: int) -> list[list[list[int]]]:
    """The n×n matrices of a generator file, one per line, row-major."""
    mats = []
    for lineno, line in _content_lines(path):
        try:
            entries = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError(f"non-integer matrix entry in {line!r}", lineno) from None
        if len(entries) != n * n:
            raise ParseError(f"expected {n * n} entries for a {n}x{n} matrix, "
                             f"got {len(entries)}", lineno)
        mats.append([entries[i * n:(i + 1) * n] for i in range(n)])
    return mats


def load_group(path) -> Group:
    """Read a group file in either format, labelled by the file's name up to
    its last dot; see the module docstring."""
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    with contextlib.closing(_content_lines(path)) as lines:
        lineno, header = next(lines, (0, None))
        if header is None:
            raise ParseError("empty group file", 0)
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
        if kind == "cayley":
            if size > SUBGROUP_BOUND:
                raise BoundExceeded("cayley order", size, SUBGROUP_BOUND)
            return _load_cayley(list(lines), size, name, lineno)
        if kind == "perm":
            return _load_perm(list(lines), size, name)
        raise ParseError(f"unknown format {kind!r}", lineno)


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
        # An element's order is a multiple of each of its cycle lengths.
        if len(entries) > SUBGROUP_BOUND:
            raise BoundExceeded("permutation cycle", len(entries), SUBGROUP_BOUND)
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
    listed = len({tuple(range(width)), *gens})
    if listed > SUBGROUP_BOUND:
        raise BoundExceeded("permutation closure", listed, SUBGROUP_BOUND)
    perms = [np.array(g) for g in gens]
    # An orbit's size divides the group's order.
    orbit = int(np.bincount(_orbit_labels(perms, width)).max())
    if orbit > SUBGROUP_BOUND:
        raise BoundExceeded("permutation orbit", orbit, SUBGROUP_BOUND)
    # The coset x·H is the gather x[rows], as (x∘h)[i] = x[h[i]].  The
    # identity is the least row, so sorting keeps it at id 0.
    rows = _dimino_closure(perms, np.arange(width), width,
                           SUBGROUP_BOUND, "permutation closure",
                           lambda x, rows: x[rows])
    return _perm_group(rows[np.lexsort(rows.T[::-1])], name)
