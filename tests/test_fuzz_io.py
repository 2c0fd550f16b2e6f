"""Hypothesis fuzzing of the input paths.

Valid ``cayley``, ``perm`` and ``.gens`` files are mutated (lines truncated
or duplicated, tokens replaced by junk, out-of-range values or non-ASCII
characters, headers corrupted, parentheses unbalanced).  Loading must either
succeed or raise a library error or ``UnicodeDecodeError``; through
``cli.main`` every case must exit 0 or 1 and never raise.

The only points a mutation can write are 1..5 and one 20-digit number, so
a loaded permutation group moves at most six points and has at most 720
elements.  A huge ``perm`` degree is safe because the loader keeps only the
named points; a huge ``cayley`` size fails the row count first.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from groupchar import GroupCharError, cyclic, generalized_quaternion, load_group, sym
from groupchar.cli import main
from groupchar.groupio import _read_matrices

_CAYLEY = [
    "cayley 1\n0\n",
    "cayley 3\n" + "".join(" ".join(map(str, r)) + "\n" for r in cyclic(3).mul.tolist()),
    "cayley 6\n" + "".join(" ".join(map(str, r)) + "\n" for r in sym(3).mul.tolist()),
    "# Q8\ncayley 8\n" + "".join(
        " ".join(map(str, r)) + "\n" for r in generalized_quaternion(8).mul.tolist()),
]
_PERM = [
    "perm 3\n(1 2)\n(1, 2, 3)\n",
    "perm 4\n# D8\n(1 2 3 4)\n(1 3)\n",
    "perm 5\n(1 2)(3 4 5)\n\n(1 2 3 4 5)\n",
]
# (prime, dim, file): two generators over GF(3), an irreducible matrix over
# GF(3), and two transvections over GF(2)
_GENS = [
    (3, 2, "1 1 0 1\n2 0 0 1\n"),
    (3, 2, "# irreducible\n0 1 1 1\n"),
    (2, 3, "1 1 0 0 1 0 0 0 1\n1 0 0 0 1 1 0 0 1\n"),
]

_JUNK = ["x", "1.5", "-1", "0", "99999999999999999999",
         "-99999999999999999999", "+1", "1_0", "(", ")", "()", ",", "#",
         "é", "١", " ", "1e3", "0x1"]
_HEADERS = ["cayley", "perm", "cayley x", "perm 1.5", "cayley 0", "perm -3",
            "cayley 64", "perm 64", "cayley 99999999999999999999",
            "perm 99999999999999999999", "cayley 2 2", "sudoku 3", "perm ٣", "#"]
_POINTS = [str(v) for v in range(1, 6)]


@st.composite
def _mutation(draw):
    kind = draw(st.sampled_from(["truncate", "duplicate", "token", "header", "paren"]))
    line = draw(st.integers(0, 1000))
    token = draw(st.integers(0, 1000))
    value = draw(st.sampled_from(_JUNK + _POINTS))
    header = draw(st.sampled_from(_HEADERS))
    paren = draw(st.sampled_from(["(", ")"]))
    delete = draw(st.booleans())
    return kind, line, token, value, header, paren, delete


def _mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, line, token, value, header, paren, delete in mutations:
        if not lines:
            break
        k = line % len(lines)
        if kind == "truncate":
            lines = lines[:k] if delete else lines[:k] + lines[k + 1:]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "token":
            words = lines[k].split()
            if words:
                words[token % len(words)] = value
                lines[k] = " ".join(words)
        elif kind == "header":
            lines[0] = header
        else:
            at = lines[k].find(paren)
            if delete and at >= 0:
                lines[k] = lines[k][:at] + lines[k][at + 1:]
            else:
                pos = token % (len(lines[k]) + 1)
                lines[k] = lines[k][:pos] + paren + lines[k][pos:]
    return "".join(line + "\n" for line in lines)


def _run_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _check_group_file(text: str) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.grp"
        path.write_bytes(text.encode("utf-8"))
        try:
            load_group(path)
        except (GroupCharError, UnicodeDecodeError):
            pass
        assert _run_main(["info", str(path)]) in (0, 1)


_MUTATIONS = st.lists(_mutation(), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CAYLEY), _MUTATIONS)
def test_mutated_cayley_files(base, mutations):
    _check_group_file(_mutate(base, mutations))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PERM), _MUTATIONS)
def test_mutated_perm_files(base, mutations):
    _check_group_file(_mutate(base, mutations))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_GENS), _MUTATIONS)
def test_mutated_gens_files(base, mutations):
    p, n, text = base
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.gens"
        path.write_bytes(_mutate(text, mutations).encode("utf-8"))
        try:
            _read_matrices(str(path), n)
        except (GroupCharError, UnicodeDecodeError):
            pass
        assert _run_main(["orbits", "--prime", str(p), "--dim", str(n),
                          "--gens", str(path)]) in (0, 1)
