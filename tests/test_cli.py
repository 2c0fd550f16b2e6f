"""End-to-end checks of the command-line surface.

All invocations go through ``main(argv)`` in-process so exit codes and
stdout/stderr can be asserted exactly: 0 for a clean report, 1 for usage or
input problems, 2 for a violated assertion.
"""

import pytest

import groupchar.chartable as chartable
import groupchar.cli as cli
from groupchar import (
    SplitFailure,
    TheoremViolation,
    c7_c3,
    compute_table,
    cyclic,
    dihedral,
    generalized_quaternion,
    load_group,
    save_group,
    sym,
)
from groupchar.cli import main
from groupchar.cyclotomic import Cyclotomic


# --------------------------------------------------------------------------
# fixtures: group files on disk


@pytest.fixture
def s4_file(tmp_path):
    path = tmp_path / "s4.grp"
    save_group(sym(4), path)
    return str(path)


@pytest.fixture
def q8_file(tmp_path):
    path = tmp_path / "q8.grp"
    save_group(generalized_quaternion(8), path)
    return str(path)


@pytest.fixture
def d8_file(tmp_path):
    path = tmp_path / "d8.grp"
    save_group(dihedral(8), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# happy paths


def test_info_s4(capsys, s4_file):
    code, out, err = run(capsys, ["info", s4_file])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "report-version = 1"
    assert "order = 24" in lines
    assert "exponent = 12" in lines
    assert "classes = 5" in lines
    assert "class-sizes = [1, 3, 6, 6, 8]" in lines
    assert "abelian = false" in lines
    assert "solvable = true" in lines
    assert "supersolvable = false" in lines
    assert "center-order = 1" in lines
    assert "minimal-normal-orders = [4]" in lines


def test_info_walks_the_chief_series_once(capsys, monkeypatch, s4_file):
    from groupchar.groups import Group

    walks = []
    steps = Group._chief_steps

    def counted(self, below):
        walks.append(below.tolist())
        return steps(self, below)

    monkeypatch.setattr(Group, "_chief_steps", counted)
    code, _, _ = run(capsys, ["info", s4_file])
    assert code == 0 and walks == [[True, False, False, False, False]]  # the trivial class mask


def test_table_q8(capsys, q8_file):
    code, out, err = run(capsys, ["table", q8_file])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "report-version = 1"
    assert lines[1].startswith("classes: ") and " sizes: " in lines[1]
    rows = [l for l in lines if l.startswith("deg=")]
    assert len(rows) == 5
    assert rows[0].startswith("deg=1 values=1, 1, 1, 1, 1")
    assert sorted(int(r.split()[0][4:]) for r in rows) == [1, 1, 1, 1, 2]
    # the degree-2 row carries the exact value -2 on the central involution
    deg2 = next(r for r in rows if r.startswith("deg=2"))
    assert "-2" in deg2


def test_table_prints_the_values_as_cyclotomic_does_without_making_one(
        capsys, tmp_path, monkeypatch):
    """``table`` formats the coefficient lists by the formatter that
    ``Cyclotomic.__str__`` calls, so the text is the same and no value
    object is made."""
    path = tmp_path / "c7c3.grp"
    save_group(c7_c3(), path)
    made = []
    init = Cyclotomic.__init__

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(Cyclotomic, "__init__", counted)
    code, out, _ = run(capsys, ["table", str(path)])
    assert code == 0 and made == []
    rows = [line for line in out.splitlines() if line.startswith("deg=")]
    table = compute_table(load_group(path))
    want = [f"deg={chi.degree} values=" + ", ".join(str(v) for v in chi.values)
            for chi in table]
    assert rows == want
    assert any("*z" in row for row in rows)
    assert len(made) == len(table) ** 2


def test_table_is_deterministic(capsys, s4_file):
    _, first, _ = run(capsys, ["table", s4_file])
    _, second, _ = run(capsys, ["table", s4_file])
    assert first == second


def test_table_past_the_cell_cap_exits_1_before_the_split(capsys, tmp_path, monkeypatch):
    """C509 passes the order bound, but its coefficient array would hold
    509²·508 int64 cells (1.05 GB): the build refuses it before the split
    or any array, with exit 1, not a MemoryError."""
    path = tmp_path / "c509.grp"
    save_group(cyclic(509), path)

    def split(*args):
        raise AssertionError("the build reached the split")

    monkeypatch.setattr(chartable, "_split_central_characters", split)
    code, out, err = run(capsys, ["table", str(path)])
    assert code == 1 and out == ""
    assert "character table cells: size 131613148 exceeds bound 2097152" in err


def test_classify_auto_minimal_s4(capsys, s4_file):
    code, out, err = run(capsys, ["classify", s4_file])
    assert code == 0 and err == ""
    assert "normal-order = 4" in out
    assert "property-D = false" in out
    assert "type = NotD" in out
    assert "degrees_over: [3, 3]" in out


def test_classify_explicit_normal_q8(capsys, q8_file):
    # the center of Q8 under the shipped numbering
    from groupchar import load_group

    group = load_group(q8_file)
    center = group.center()
    ids = ",".join(str(g) for g in center.elements)
    code, out, err = run(capsys, ["classify", q8_file, "--normal", ids])
    assert code == 0 and err == ""
    assert "normal-order = 2" in out
    assert "property-D = true" in out
    assert "type = Type1" in out
    assert "case = i" in out


def test_classify_normal_auto_minimal_is_the_default(capsys, s4_file):
    code, default, err = run(capsys, ["classify", s4_file])
    assert code == 0 and err == ""
    code, explicit, err = run(capsys, ["classify", s4_file, "--normal", "auto-minimal"])
    assert code == 0 and err == ""
    assert explicit.encode() == default.encode()


def test_classify_auto_minimal_flag_is_a_usage_error(capsys, s4_file):
    with pytest.raises(SystemExit) as exc:
        main(["classify", s4_file, "--auto-minimal", "--normal", "0"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--auto-minimal" in captured.err


def test_analyze_q8_center(capsys, q8_file):
    from groupchar import load_group

    group = load_group(q8_file)
    ids = ",".join(str(g) for g in group.center().elements)
    code, out, err = run(capsys, ["analyze", "--pair", q8_file,
                                  "--normal", ids])
    assert code == 0 and err == ""
    assert "theta = 0" in out
    assert "theta = 1" in out
    assert "fully-ramified = true" in out
    assert "e = 2" in out
    assert "count-above = 4" in out


def test_analyze_auto_minimal(capsys, d8_file):
    code, out, err = run(capsys, ["analyze", "--pair", d8_file,
                                  "--normal", "auto-minimal"])
    assert code == 0 and err == ""
    assert out.count("normal-order = 2") >= 1
    assert "theta-degree = 1" in out


def _analyze_blocks(out):
    """The per-theta blocks of an analyze report, as key -> value dicts."""
    blocks = [dict(line.split(" = ", 1) for line in block.splitlines())
              for block in out.split("\n\n")]
    return [b for b in blocks if "theta" in b]


def test_analyze_trivial_normal(capsys, s4_file):
    code, out, err = run(capsys, ["analyze", "--pair", s4_file, "--normal", "0"])
    assert code == 0 and err == ""
    assert "normal-order = 1" in out
    (block,) = _analyze_blocks(out)
    # every character of S4 lies above the trivial character of N = 1
    assert block == {
        "theta": "0", "theta-degree": "1", "invariant": "true",
        "distinct-degrees": "false", "count-above": "5",
        "degrees-above": "[1, 1, 2, 3, 3]", "fully-ramified": "false",
        "e": "none", "quotient-class": "other",
    }


def test_analyze_whole_group(capsys, q8_file):
    ids = ",".join(str(g) for g in range(8))
    code, out, err = run(capsys, ["analyze", "--pair", q8_file, "--normal", ids])
    assert code == 0 and err == ""
    assert "normal-order = 8" in out
    blocks = _analyze_blocks(out)
    assert [b["theta"] for b in blocks] == ["0", "1", "2", "3", "4"]
    for b in blocks:
        # N = G: each theta is invariant and is the one character above itself
        assert b["invariant"] == "true" and b["count-above"] == "1"
        assert b["fully-ramified"] == "true" and b["e"] == "1"
        assert b["degrees-above"] == f"[{b['theta-degree']}]"
        assert b["quotient-class"] == "supersolvable"


def test_corpus_filter(capsys):
    code, out, err = run(capsys, ["corpus", "--filter", "Q8"])
    assert code == 0 and err == ""
    assert "group = Q8" in out
    assert "expected-ok = true" in out
    assert "groups-checked = " in out


def test_orbits_report(capsys, tmp_path):
    gens = tmp_path / "neg.gens"
    gens.write_text("4 0 0 4\n")
    code, out, err = run(capsys, ["orbits", "--prime", "5", "--dim", "2",
                                  "--gens", str(gens)])
    assert code == 0 and err == ""
    assert "group-order = 2" in out
    assert "orbit-sizes = [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]" in out
    assert "negation-pairing = true" in out
    assert "regular-orbits = 12" in out
    assert "dade-duplicate = none" in out  # even group order: not applicable


def test_orbits_odd_odd_runs_duplicate_check(capsys, tmp_path):
    gens = tmp_path / "c3.gens"
    gens.write_text("2\n")  # <2> in GF(7)*, order 3
    code, out, err = run(capsys, ["orbits", "--prime", "7", "--dim", "1",
                                  "--gens", str(gens)])
    assert code == 0 and err == ""
    assert "orbit-sizes = [3, 3]" in out
    assert "dade-duplicate = true" in out
    assert "scan-distinct = false" in out


# --------------------------------------------------------------------------
# error paths: exit code 1


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, ["info", str(tmp_path / "nope.grp")])
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("cayley 2\n0 1\n")
    code, out, err = run(capsys, ["table", str(path)])
    assert code == 1
    assert "error:" in err


def test_non_normal_ids(capsys, s4_file):
    # every order-2 subgroup of S4 is non-normal (only 1, V4, A4, S4 are)
    from groupchar import load_group

    group = load_group(s4_file)
    t = next(g for g in range(1, group.order) if group.elt_order[g] == 2)
    code, out, err = run(capsys, ["classify", s4_file,
                                  "--normal", f"0,{t}"])
    assert code == 1
    assert "non-normal" in err


def test_corpus_unknown_filter(capsys):
    code, out, err = run(capsys, ["corpus", "--filter", "NoSuchGroup"])
    assert code == 1
    assert "error:" in err


def test_orbits_nonprime_modulus(capsys, tmp_path):
    gens = tmp_path / "g.gens"
    gens.write_text("1 0 0 1\n")
    code, out, err = run(capsys, ["orbits", "--prime", "6", "--dim", "2",
                                  "--gens", str(gens)])
    assert code == 1
    assert "error:" in err


def test_orbits_huge_dimension_is_an_input_error(capsys, tmp_path):
    gens = tmp_path / "empty.gens"
    gens.write_text("")
    code, out, err = run(capsys, ["orbits", "--prime", "3", "--dim", "100000",
                                  "--gens", str(gens)])
    assert code == 1 and out == ""
    assert "error: vector space dimension" in err


def test_orbits_wrong_entry_count(capsys, tmp_path):
    gens = tmp_path / "g.gens"
    gens.write_text("1 0 0\n")
    code, out, err = run(capsys, ["orbits", "--prime", "3", "--dim", "2",
                                  "--gens", str(gens)])
    assert code == 1
    assert "expected 4 entries" in err


def test_orbits_gens_lines_end_as_group_file_lines_end(capsys, tmp_path):
    # A form feed does not end a line, in a group file or a .gens file, and
    # a ParseError counts lines the same way in both.
    gens = tmp_path / "g.gens"
    gens.write_text("# the identity\n1 0\f0 1\n\n1 0 0\n")
    argv = ["orbits", "--prime", "3", "--dim", "2", "--gens", str(gens)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: line 4: expected 4 entries for a 2x2 matrix, got 3\n"
    gens.write_text("# the identity\n1 0\f0 1\n")
    code, out, err = run(capsys, argv)
    assert code == 0 and "generators = 1\n" in out


@pytest.mark.parametrize("spec,message", [
    ("0,100", "--normal '0,100' is not a list of element ids 0..23"),
    ("0,-1", "--normal '0,-1' is not a list of element ids 0..23"),
    ("0,x", "--normal '0,x' is not a list of element ids 0..23"),
    ("order-3", "not multiplicatively closed"),
])
def test_bad_normal_ids(capsys, s4_file, spec, message):
    if spec == "order-3":
        s4 = sym(4)
        spec = "0," + str(next(g for g in range(24) if s4.elt_order[g] == 3))
    code, out, err = run(capsys, ["classify", s4_file, "--normal", spec])
    assert code == 1 and out == ""
    assert "error: " in err and message in err


def test_non_ascii_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "g.grp"
    path.write_bytes("cayley 1\n0 # é\n".encode("utf-8"))
    code, out, err = run(capsys, ["info", str(path)])
    assert code == 1 and out == ""
    assert "error:" in err


def test_orbits_non_ascii_digit_is_an_input_error(capsys, tmp_path):
    gens = tmp_path / "g.gens"
    gens.write_bytes("\u0661 0 0 1\n".encode("utf-8"))  # an Arabic-Indic one
    code, out, err = run(capsys, ["orbits", "--prime", "3", "--dim", "2",
                                  "--gens", str(gens)])
    assert code == 1 and out == ""
    assert "error:" in err


def test_orbits_entries_reduce_mod_p_at_any_size(capsys, tmp_path):
    """Entries are integers mod p of any size: 10^20 + 2 is 0 mod 3 and
    -(10^20) is 2 mod 3."""
    outs = []
    for text in ("0 1 1 1\n0 2 1 0\n",
                 "100000000000000000002 1 1 1\n0 -100000000000000000000 1 0\n"):
        gens = tmp_path / "g.gens"
        gens.write_text(text)
        code, out, err = run(capsys, ["orbits", "--prime", "3", "--dim", "2",
                                      "--gens", str(gens)])
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_orbits_non_integer_entry(capsys, tmp_path):
    gens = tmp_path / "g.gens"
    gens.write_text("# generators\n1 0 0 1\n1 x 0 1\n")
    code, out, err = run(capsys, ["orbits", "--prime", "3", "--dim", "2",
                                  "--gens", str(gens)])
    assert code == 1 and out == ""
    assert "error: line 3: non-integer matrix entry" in err


# --------------------------------------------------------------------------
# usage errors: argparse exits with 1 (overridden from its default 2)


@pytest.mark.parametrize("argv", [
    [],
    ["info"],
    ["no-such-command"],
    ["analyze", "--pair", "x.grp"],
    ["orbits", "--prime", "3", "--dim", "2"],
    ["orbits", "--prime", "three", "--dim", "2", "--gens", "x"],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# violations: exit code 2


def test_violation_exits_2(capsys, monkeypatch):
    def boom(_filter=None):
        raise TheoremViolation("forced failure for the exit-code contract",
                               {"group": "test"})

    monkeypatch.setattr(cli, "run_corpus", boom)
    code, out, err = run(capsys, ["corpus"])
    assert code == 2
    assert out == ""
    assert "violation:" in err


def test_split_failure_exits_2(capsys, monkeypatch, empty_table_pool, q8_file):
    import groupchar.chartable as chartable

    def broken_split(group, cc, q, start):
        raise SplitFailure("forced failure of the eigenspace split")

    # The pool is empty: no live Q8 can hand over its table, so the split runs.
    monkeypatch.setattr(chartable, "_split_central_characters", broken_split)
    code, out, err = run(capsys, ["table", q8_file])
    assert code == 2
    assert out == ""
    assert "violation:" in err and "eigenspace split" in err


def test_internal_value_error_exits_2(capsys, monkeypatch, s4_file):
    def broken(group, sub):
        raise ValueError("forced ValueError from inside the library")

    monkeypatch.setattr(cli, "classify_pair", broken)
    code, out, err = run(capsys, ["classify", s4_file])
    assert code == 2 and out == ""
    assert "internal error: forced ValueError" in err
