"""Group file I/O: Cayley round trips, permutation closure, error paths."""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

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
import groupchar
from groupchar import actions, cli, groupio
from groupchar._modlinalg import vector_perms
from groupchar.actions import gl_elements
from groupchar.constructors import CLOSURE_CELL_BOUND, _perm_group
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
    path.write_text("perm 3\n(1 2)\n(1, 2, 3)()\n")  # () is empty: no cycle
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


def test_cayley_order_bound_is_read_off_the_header(tmp_path):
    """A Cayley header past SUBGROUP_BOUND is refused before any row is
    read, so the junk row after it is never parsed."""
    path = tmp_path / "big.grp"
    path.write_text(f"cayley {SUBGROUP_BOUND + 1}\nnot a row\n")
    with pytest.raises(BoundExceeded) as exc:
        load_group(path)
    assert str(exc.value) == (f"cayley order: size {SUBGROUP_BOUND + 1} "
                              f"exceeds bound {SUBGROUP_BOUND}")
    assert cli.main(["info", str(path)]) == 1


_MILLION_POINT_FILES = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import sys
from groupchar import BoundExceeded, load_group
one_cycle = "(" + " ".join(map(str, range(1, 1000001))) + ")"
threes = "".join(f"({x} {x + 1} {x + 2})" for x in range(1, 300001, 3))
sevens = "".join("(" + " ".join(map(str, range(x, x + 7))) + ")"
                 for x in range(300001, 1000001, 7))
for name, lines in (("c.perm", [one_cycle]), ("c21.perm", [threes, sevens])):
    path = sys.argv[1] + "/" + name
    with open(path, "w") as fh:
        fh.write("perm 1000000\\n" + "\\n".join(lines) + "\\n")
    try:
        load_group(path)
    except BoundExceeded as exc:
        print(exc)
"""


def test_perm_closure_memory_is_bounded_by_its_cells(tmp_path):
    """Two files on 10^6 points, refused well inside a 1 GB address space
    that the subprocess sets for itself, so a regression fails here and does
    not exhaust the machine.  One cycle on every point (6.9 MB) is refused
    while it is parsed, as the cycle is longer than any admitted group.
    C3 × C7, as 3-cycles and 7-cycles on disjoint points, has short orbits,
    and its closure stops at the cell cap: 21 rows of 10^6 ids."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(groupchar.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _MILLION_POINT_FILES, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (f"permutation cycle: size 1000000 exceeds bound {SUBGROUP_BOUND}\n"
                          f"closure cells: size 21000000 exceeds bound {CLOSURE_CELL_BOUND}\n")


def test_perm_cycle_or_orbit_past_the_bound_is_refused_before_any_closure(
        tmp_path, monkeypatch):
    """An element's order is a multiple of each of its cycle lengths, and an
    orbit's size divides the group's order: either past SUBGROUP_BOUND
    refuses the file before the closure runs.  The orbit case is D6000 on a
    path of 3000 points, generated by two involutions."""
    def closure(*args):
        raise AssertionError("the closure ran")
    monkeypatch.setattr(groupio, "_dimino_closure", closure)
    long_cycle = "(" + " ".join(map(str, range(1, SUBGROUP_BOUND + 2))) + ")"
    odd = "".join(f"({x} {x + 1})" for x in range(1, 3000, 2))
    even = "".join(f"({x} {x + 1})" for x in range(2, 3000, 2))
    for lines, message in (
            ([long_cycle], f"permutation cycle: size {SUBGROUP_BOUND + 1}"),
            ([odd, even], "permutation orbit: size 3000")):
        path = tmp_path / "big.perm"
        path.write_text("perm 3000\n" + "\n".join(lines) + "\n")
        with pytest.raises(BoundExceeded, match=f"{message} exceeds bound {SUBGROUP_BOUND}"):
            load_group(path)
        assert cli.main(["info", str(path)]) == 1


_MANY_IDENTITIES_ON_A_MILLION_VECTORS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
import sys
from groupchar.cli import main
identity = " ".join("1" if i % 21 == 0 else "0" for i in range(400))
with open(sys.argv[1], "w") as fh:
    fh.write((identity + "\\n") * 300)
sys.exit(main(["orbits", "--prime", "2", "--dim", "20", "--gens", sys.argv[1]]))
"""


def test_generator_cells_are_refused_before_any_permutation(tmp_path, monkeypatch):
    """300 identity matrices on GF(2)^20 would be 300 permutations of 2^20
    ids, 2.5 GB.  `LinearAction` refuses generators × p^n past the cell cap
    before it makes one, here from 20 generators on, and `groupchar orbits`
    does so inside a 1.5 GB address space that the subprocess sets for
    itself: exit 1 with one error line and no traceback."""
    def perms(*args):
        raise AssertionError("a permutation was made")
    monkeypatch.setattr(actions, "vector_perms", perms)
    with pytest.raises(BoundExceeded, match=f"generator cells: size {20 * 2 ** 20} "
                                            f"exceeds bound {CLOSURE_CELL_BOUND}"):
        actions.LinearAction(2, 20, [np.eye(20, dtype=np.int64)] * 20)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(groupchar.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _MANY_IDENTITIES_ON_A_MILLION_VECTORS,
                          str(tmp_path / "ids.gens")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 1, out.stderr
    assert out.stderr == (f"error: generator cells: size {300 * 2 ** 20} exceeds bound "
                          f"{CLOSURE_CELL_BOUND}\n")


def test_cell_cap_admits_every_matrix_group_order_bound_admits():
    """An action on at most 2^20 vectors has dimension at most 20."""
    dims = actions.SPACE_BOUND.bit_length() - 1
    assert actions.ORDER_BOUND * dims <= CLOSURE_CELL_BOUND


def _cycle_notation(perm) -> str:
    """A 0-based image list as 1-based disjoint cycles, "(1)" for the identity."""
    seen, out = set(), []
    for start in range(len(perm)):
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


def test_perm_closure_bound_counts_the_listed_generators(tmp_path):
    """A file that lists every element of A7 (order 2520) as a generator is
    already closed, so the closure finds no new element; the listed set
    alone is past SUBGROUP_BOUND and is refused."""
    lines = [_cycle_notation(p) for p in itertools.permutations(range(7))
             if sum(p[i] > p[j] for i in range(7) for j in range(i + 1, 7)) % 2 == 0]
    path = tmp_path / "a7.perm"
    path.write_text("perm 7\n" + "\n".join(lines) + "\n")
    with pytest.raises(BoundExceeded) as exc:
        load_group(path)
    assert exc.value.size == 2520 > SUBGROUP_BOUND


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
        ("cayley 0\n", "header size must be positive"),
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
    # float spellings, even those that truncate to C3's table
    *((f"cayley 3\n0 1 2\n{cell} 2 0\n2 0 1\n", f"non-integer entry {cell!r}", 3)
      for cell in ("1.0", "1.", "1e0", "1.5")),
])
# numpy may read an integer cell as a float with only a DeprecationWarning
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_cayley_first_error_is_exact(tmp_path, text, message, line):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_group(path)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_cayley_cells_split_on_any_whitespace(tmp_path):
    path = tmp_path / "c3.grp"
    path.write_text("cayley 3\n0\t1\x0b2\n1\x0c2 \x1c0\n  2  -0 +1\n")
    assert np.array_equal(load_group(path).mul, cyclic(3).mul)
    # every ASCII whitespace character that does not end a line
    for space in (chr(c) for c in range(128) if chr(c).isspace()):
        if space not in "\n\r":
            path.write_text(f"cayley 2\n0{space}1\n1{space * 2}0\n")
            assert np.array_equal(load_group(path).mul, cyclic(2).mul)


def test_cayley_cells_are_read_by_int(tmp_path):
    path = tmp_path / "c3.grp"
    path.write_text("cayley 3\n+0 01 2\n1 +2 0\n2 0 0_1\n")
    assert np.array_equal(load_group(path).mul, cyclic(3).mul)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_cayley_sign_and_digit_cells_load_exactly_when_int_reads_them(
        tmp_path):
    path = tmp_path / "c2.grp"
    for n in range(1, 4):
        for cell in map("".join, itertools.product("01+-", repeat=n)):
            path.write_text(f"cayley 2\n0 1\n1 {cell}\n")
            try:
                value = int(cell)
            except ValueError:
                value = None
            if value == 0:
                assert np.array_equal(load_group(path).mul, cyclic(2).mul)
            else:
                with pytest.raises(ParseError):
                    load_group(path)


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
        path.write_text("perm 5\n" + "\n".join(map(_cycle_notation, gens)) + "\n")
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


def _cycle_generators(path, degree: int) -> list[list[int]]:
    """The generator lines of a perm file as 0-based image lists."""
    gens = []
    for line in path.read_text().splitlines()[1:]:
        perm = list(range(degree))
        for body in re.findall(r"\(([^()]*)\)", line):
            pts = [int(tok) - 1 for tok in body.split()]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                perm[a] = b
        gens.append(perm)
    return gens


def _composition_check(perms, mul) -> bool:
    """Whether ``mul`` is the Cayley table of the list ``perms`` under
    (s∘t)[x] = s[t[x]], in one comparison: P[mul[i, j]] == P[i][P[j]]."""
    p = np.asarray(perms, dtype=np.int16)
    return mul.shape == (len(p), len(p)) and bool((p[mul] == p[:, p]).all())


def test_every_request_perm_file_loads_the_composition_of_its_closure(
        request_inputs, tmp_path):
    """Each ``requests`` perm file (orders 60 to 506, 2 to 8 generators)
    loads to the table of its sorted closure over all header points,
    closed here by the definition."""
    inputs = request_inputs
    inputs.write_inputs(tmp_path, 0)
    for name, (_, _, degree, _, _) in inputs.GROUPS.items():
        path = tmp_path / f"{name}.perm.grp"
        gens = _cycle_generators(path, degree)
        closure = {tuple(range(degree))}
        frontier = list(closure)
        while frontier:
            fresh = {tuple(a[x] for x in g) for a in frontier for g in gens} - closure
            closure |= fresh
            frontier = list(fresh)
        g = load_group(path)
        assert _composition_check(sorted(closure), g.mul), name


def test_perm_group_keeps_list_order_ids_on_gl23():
    """``odd_order_subgroup_actions`` builds GL(2, 3) on its list of vector
    permutations in ``gl_elements`` order with the identity swapped to id 0,
    which is not sorted: element i must stay perms[i]."""
    elements = gl_elements(3, 2)
    i = next(i for i, m in enumerate(elements) if (m == np.eye(2)).all())
    elements[0], elements[i] = elements[i], elements[0]
    perms = [tuple(v.tolist()) for v in vector_perms(3, 2, elements)]
    assert perms != sorted(perms)
    g = _perm_group(perms, "GL(2,3)")
    assert g.order == 48 and _composition_check(perms, g.mul)
