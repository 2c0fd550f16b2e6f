"""The shipped corpus: entry list shape, builders, and the batch runner."""

from functools import partial
from math import prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

import groupchar.corpus as corpus_mod
from groupchar import ContractViolation, sym
from groupchar.corpus import (
    CorpusEntry,
    build_corpus,
    c5_c4,
    dicyclic12,
    heisenberg3,
    run_corpus,
)
from groupchar.corpus import _abelian_variants, _partitions

from oracles import is_frobenius_kernel


# --------------------------------------------------------------------------
# partitions and abelian invariant factors


# p(1)..p(7) from the recurrence, cross-checked by brute force below
PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}


@pytest.mark.parametrize("k,count", sorted(PARTITION_COUNTS.items()))
def test_partition_counts(k, count):
    parts = list(_partitions(k))
    assert len(parts) == count
    assert len(set(parts)) == count


@given(st.integers(min_value=1, max_value=9))
def test_partitions_sum_and_order(k):
    for part in _partitions(k):
        assert sum(part) == k
        assert all(a >= b for a, b in zip(part, part[1:]))


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
