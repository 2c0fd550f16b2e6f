"""Group file I/O: Cayley round trips, permutation closure, error paths."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupchar import (
    BoundExceeded,
    ParseError,
    alt,
    cyclic,
    generalized_quaternion,
    load_group,
    save_group,
    sym,
)
from groupchar import cli
from groupchar.groups import SUBGROUP_BOUND

import oracles


@pytest.mark.parametrize(
    "build", [lambda: cyclic(7), lambda: sym(4), lambda: generalized_quaternion(16)]
)
def test_cayley_round_trip(build, tmp_path):
    g = build()
    path = tmp_path / "g.grp"
    save_group(g, path)
    back = load_group(path)
    assert np.array_equal(back.mul, g.mul)
    assert back.label == "g"


def test_cayley_format_shape(tmp_path):
    path = tmp_path / "c3.grp"
    save_group(cyclic(3), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cayley 3"
    assert lines[1].split() == ["0", "1", "2"]
    assert len(lines) == 4


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c2.grp"
    path.write_text("# a comment\n\ncayley 2\n0 1\n\n1 0\n# trailing\n")
    assert load_group(path).order == 2


def test_perm_single_cycle(tmp_path):
    path = tmp_path / "c3.perm"
    path.write_text("perm 3\n(1 2 3)\n")
    g = load_group(path)
    assert g.order == 3 and g.is_cyclic


def test_perm_s3_and_commas(tmp_path):
    path = tmp_path / "s3.perm"
    path.write_text("perm 3\n(1 2)\n(1, 2, 3)\n")
    g = load_group(path)
    assert g.order == 6 and not g.is_abelian


def test_perm_s5_closure_and_determinism(tmp_path):
    path = tmp_path / "s5.perm"
    path.write_text("perm 5\n(1 2)\n(1 2 3 4 5)\n")
    g1 = load_group(path)
    g2 = load_group(path)
    assert g1.order == 120
    assert np.array_equal(g1.mul, g2.mul)


def test_perm_disjoint_cycles(tmp_path):
    path = tmp_path / "v4.perm"
    path.write_text("perm 4\n(1 2)(3 4)\n(1 3)(2 4)\n")
    g = load_group(path)
    assert g.order == 4 and g.exponent == 2


def test_perm_closure_bound(tmp_path):
    """S7 closes past SUBGROUP_BOUND, the largest order any command accepts,
    so it is refused before its table is built."""
    path = tmp_path / "s7.perm"
    path.write_text("perm 7\n(1 2)\n(1 2 3 4 5 6 7)\n")
    with pytest.raises(BoundExceeded) as exc:
        load_group(path)
    assert exc.value.size == SUBGROUP_BOUND + 1
    assert cli.main(["info", str(path)]) == 1


def test_perm_ids_do_not_depend_on_unnamed_points(tmp_path):
    """Points no cycle names are fixed, so neither they nor the header degree
    change the table, however large the degree."""
    tables = []
    for text in ("perm 4\n(2 4)\n(1 3)\n",
                 "perm 1000000\n(7 1000000)\n(3 500)\n",
                 "perm 99999999999999999999\n(8, 99999999999999999999)\n(5 9)\n"):
        path = tmp_path / "v4.perm"
        path.write_text(text)
        tables.append(load_group(path).mul)
    assert all(np.array_equal(t, tables[0]) for t in tables)
    assert load_group(path).order == 4


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("sudoku 3\n", "unknown format"),
        ("cayley 2\n0 1\n", "rows"),
        ("cayley 2\n0 1\n1 0\n0 1\n", "rows"),
        ("cayley 2\n0 1 0\n1 0\n", "entries"),
        ("cayley 2\n0 7\n1 0\n", "range"),
        ("cayley 2\n0 x\n1 0\n", "integer"),
        ("cayley 2\n1 0\n0 1\n", "identity"),
        ("perm 3\n(1 2 banana)\n", "integer"),
        ("perm 3\n(0 1)\n", "range"),
        ("perm 3\n(1 4)\n", "range"),
        ("perm 3\n(1 2 1)\n", "twice"),
        ("perm 3\n(1 2) junk\n", "text"),
        ("", "empty"),
    ],
)
def test_parse_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_group(path)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("# comment\ncayley 2\n0 1\n2 0\n")
    with pytest.raises(ParseError) as err:
        load_group(path)
    assert err.value.line == 4


def test_explicit_label_override(tmp_path):
    path = tmp_path / "whatever.grp"
    save_group(cyclic(5), path)
    assert load_group(path, label="C5").label == "C5"


@pytest.mark.parametrize("text,message,line", [
    # the first bad cell of a row decides, whichever check it fails
    ("cayley 3\n0 1 2\n1 5 x\n2 0 1\n", "entry 5 out of range 0..2", 3),
    ("cayley 3\n0 1 2\n1 x 5\n2 0 1\n", "non-integer entry 'x'", 3),
    # the first bad row decides
    ("cayley 3\n0 1 2\n1 2 9\n2 y 1\n", "entry 9 out of range 0..2", 3),
    ("cayley 3\n0 1 2\n1 2 0\n2 y 1\n", "non-integer entry 'y'", 4),
    # beyond int64: still the range error, not an overflow
    ("cayley 3\n0 1 2\n1 2 99999999999999999999\n2 0 1\n",
     "entry 99999999999999999999 out of range 0..2", 3),
    ("cayley 3\n0 1 2\n-99999999999999999999 2 0\n2 0 1\n",
     "entry -99999999999999999999 out of range 0..2", 3),
])
def test_cayley_first_error_is_exact(tmp_path, text, message, line):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_group(path)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_cayley_cells_are_read_by_int(tmp_path):
    path = tmp_path / "c3.grp"
    path.write_text("cayley 3\n+0 01 2\n1 +2 0\n2 0 0_1\n")
    assert np.array_equal(load_group(path).mul, cyclic(3).mul)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.permutations(list(range(5))), min_size=1, max_size=2
    )
)
def test_perm_loader_matches_brute_closure(perms):
    """Write random degree-5 generators in cycle notation, reload, and
    compare the whole table against the cell-by-cell composition over the
    sorted closure."""
    import tempfile
    from pathlib import Path

    def cycles(perm):
        seen, out = set(), []
        for start in range(5):
            if start in seen or perm[start] == start:
                seen.add(start)
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x + 1)
                x = perm[x]
            out.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(out) or "(1)"

    def compose(a, b):
        return tuple(a[b[i]] for i in range(5))

    ident = tuple(range(5))
    gens = [tuple(p) for p in perms]
    closure = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = compose(x, gen)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    elements = [ident] + sorted(closure - {ident})  # the loader's ids

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.perm"
        path.write_text("perm 5\n" + "\n".join(cycles(p) for p in gens) + "\n")
        g = load_group(path)
    assert g.order == len(elements)
    assert g.mul.tolist() == oracles.perm_cayley(elements)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sym_and_alt_match_cell_by_cell_composition(n):
    perms = list(itertools.permutations(range(n)))
    even = [p for p in perms
            if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0]
    assert sym(n).mul.tolist() == oracles.perm_cayley(perms)
    assert alt(n).mul.tolist() == oracles.perm_cayley(even)
