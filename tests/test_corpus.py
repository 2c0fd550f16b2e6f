"""The shipped corpus: entry list shape, builders, and the batch runner."""

from functools import partial
from math import prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

import groupchar.corpus as corpus_mod
from groupchar import ContractViolation, Subgroup, abelian, cyclic, semidirect_product, sym
from groupchar.corpus import (
    CorpusEntry,
    build_corpus,
    c5_c4,
    dicyclic12,
    heisenberg3,
    run_corpus,
)
from groupchar.corpus import _abelian_variants

import oracles
from oracles import is_frobenius_kernel


# --------------------------------------------------------------------------
# abelian invariant factors


def test_abelian_variants_small():
    assert _abelian_variants(1) == [()]
    assert _abelian_variants(7) == [(7,)]
    assert _abelian_variants(4) == [(2, 2), (4,)]
    assert _abelian_variants(12) == [(2, 6), (12,)]
    assert len(_abelian_variants(32)) == 7
    assert len(_abelian_variants(16)) == 5


@given(st.integers(min_value=1, max_value=32))
def test_abelian_variants_are_divisor_chains(n):
    for invs in _abelian_variants(n):
        assert prod(invs) == n
        assert all(d > 1 for d in invs)
        assert all(b % a == 0 for a, b in zip(invs, invs[1:]))


def test_abelian_variants_count_every_abelian_group():
    """One invariant-factor list per abelian group of order n: as many as
    the product of p(e) over the prime powers p^e exactly dividing n."""
    assert [oracles.partition_count(k) for k in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]
    for n in range(1, 65):
        variants = _abelian_variants(n)
        assert len(set(variants)) == len(variants) == oracles.abelian_group_count(n), n


# --------------------------------------------------------------------------
# the fixed entry list


def test_corpus_shape():
    entries = build_corpus()
    assert len(entries) == 116
    names = [e.name for e in entries]
    assert len(set(names)) == 116
    allowed = {"types", "bucket", "distinct"}
    for e in entries:
        assert set(e.expected) <= allowed
    pinned = [e for e in entries if e.expected]
    assert len(pinned) == 61
    distinct_true = sorted(
        e.name for e in entries if e.expected.get("distinct") is True
    )
    assert len(distinct_true) == 22


def test_corpus_orders_match_names():
    by_name = {e.name: e for e in build_corpus()}
    for name, order in [
        ("C1", 1), ("C32", 32), ("C2xC2xC2xC2xC2", 32), ("D64", 64),
        ("Q64", 64), ("ES128+", 128), ("ES128-", 128), ("AGL1(16)", 240),
        ("F72:Q8", 72), ("S4", 24), ("(C5xC5):C3", 75), ("He3", 27),
    ]:
        assert by_name[name].build().order == order


def test_dicyclic12_structure():
    g = dicyclic12()
    assert g.order == 12 and not g.is_abelian
    involutions = [x for x in range(g.order) if g.elt_order[x] == 2]
    assert len(involutions) == 1  # dicyclic, not dihedral


def test_c5_c4_is_frobenius_of_order_20():
    g = c5_c4()
    assert g.order == 20
    kernel = g.subgroup([x for x in range(20) if g.elt_order[x] in (1, 5)])
    assert kernel.order == 5 and kernel.is_normal
    assert is_frobenius_kernel(g, kernel)


def test_heisenberg3_is_extraspecial_exponent_3():
    g = heisenberg3()
    assert g.order == 27 and g.exponent == 3 and not g.is_abelian
    z = g.center()
    assert z.order == 3
    assert np.array_equal(z.elements, g.derived_subgroup().elements)


@pytest.mark.parametrize("build, base, m, power", [
    (dicyclic12, lambda: cyclic(3), 4, lambda k: [(-1) ** k * x % 3 for x in range(3)]),
    (c5_c4, lambda: cyclic(5), 4, lambda k: [2 ** k * x % 5 for x in range(5)]),
    (heisenberg3, lambda: abelian([3, 3]), 3,  # ids 3i + j, (i, j) -> (i, j + ki)
     lambda k: [3 * i + (j + k * i) % 3 for i in range(3) for j in range(3)]),
])
def test_cyclic_extensions_match_explicit_power_tables(build, base, m, power):
    """Each corpus A : C_m is the semidirect product with the k-th power of
    the automorphism written out for every k, label and table alike."""
    a = base()
    want = semidirect_product(a, cyclic(m), [power(k) for k in range(m)])
    got = build()
    assert got.label == want.label
    assert np.array_equal(got.mul, want.mul)


# --------------------------------------------------------------------------
# the batch runner


def test_run_corpus_filter_report():
    out = run_corpus("S4")
    lines = out.splitlines()
    assert lines[0] == "report-version = 1"
    assert "corpus-entries = 1" in lines
    assert "group = S4" in lines
    assert "degrees = {1: 2, 2: 1, 3: 2}" in lines
    assert "table-ok = true" in lines
    assert "proper-normals = 2" in lines
    assert "pair = n-order 4 property-D false type NotD case -" in lines
    assert "scan-distinct = false" in lines
    assert "expected-ok = true" in lines
    assert "pairs-classified = 1" in lines
    assert "type3-witnesses = 0" in lines


def test_run_corpus_filter_is_substring_match():
    out = run_corpus("ES32")
    assert "group = ES32+" in out
    assert "group = ES32-" in out
    assert "groups-checked = 2" in out


def test_run_corpus_filtered_runs_are_identical():
    assert run_corpus("AGL1") == run_corpus("AGL1")


def test_run_corpus_unknown_filter():
    with pytest.raises(ValueError, match="no corpus entry"):
        run_corpus("NoSuchGroup")


def test_tampered_expected_verdict_raises(monkeypatch):
    bad = [CorpusEntry("S4", partial(sym, 4), {"types": ["Type1"]})]
    monkeypatch.setattr(corpus_mod, "build_corpus", lambda: bad)
    with pytest.raises(ContractViolation, match="expected types"):
        run_corpus()


def test_tampered_scan_verdict_raises(monkeypatch):
    bad = [CorpusEntry("S4", partial(sym, 4), {"distinct": True})]
    monkeypatch.setattr(corpus_mod, "build_corpus", lambda: bad)
    with pytest.raises(ContractViolation, match="expected distinct"):
        run_corpus()


def test_run_corpus_builds_no_subgroup_per_normal_subgroup(monkeypatch):
    """ES128+ and ES128- have 2826 normal subgroups each.  The corpus reads
    their Camina verdicts and orders off the lattice matrix, so one pass
    over both builds fewer subgroups than either lattice has rows."""
    built = 0
    init = Subgroup.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subgroup, "__init__", counting)
    report = run_corpus("ES128")
    assert "normal-pairs = 5648" in report
    assert 0 < built < 2826
