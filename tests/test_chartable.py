"""Character tables: frozen degree data, dual-group oracle, orthogonality,
Galois stability, and the two restriction paths against exact sums."""

from __future__ import annotations

from math import gcd

import numpy as np
import pytest

from groupchar import (
    BoundExceeded,
    abelian,
    agl1,
    alt,
    c7_c3,
    compute_table,
    cyclic,
    dihedral,
    extraspecial_2,
    frobenius72_quaternion,
    generalized_quaternion,
    restriction_multiplicities,
    sl23,
    sym,
    verify_table,
)
import groupchar.chartable as chartable
from groupchar.chartable import dixon_prime

import oracles

FROZEN_DEGREES = {
    "S3": [1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
    "A4": [1, 1, 1, 3],
    "S4": [1, 1, 2, 3, 3],
    "D10": [1, 1, 2, 2],
    "AGL1(5)": [1, 1, 1, 1, 4],
    "SL23": [1, 1, 1, 2, 2, 2, 3],
    "C7:C3": [1, 1, 1, 3, 3],
    "F72": [1, 1, 1, 1, 2, 8],
    "ES32+": [1] * 16 + [4],
    "ES32-": [1] * 16 + [4],
}

BUILDERS = {
    "S3": lambda: sym(3),
    "Q8": lambda: generalized_quaternion(8),
    "A4": lambda: alt(4),
    "S4": lambda: sym(4),
    "D10": lambda: dihedral(5),
    "AGL1(5)": lambda: agl1(5),
    "SL23": sl23,
    "C7:C3": c7_c3,
    "F72": frobenius72_quaternion,
    "ES32+": lambda: extraspecial_2(2, "+"),
    "ES32-": lambda: extraspecial_2(2, "-"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DEGREES))
def test_frozen_degree_multisets(name):
    table = compute_table(BUILDERS[name]())
    assert sorted(int(d) for d in table.degrees) == FROZEN_DEGREES[name]
    stats = verify_table(table)
    assert isinstance(stats, dict)


def test_table_shape_invariants():
    for name in ("S4", "Q8", "C7:C3"):
        g = BUILDERS[name]()
        table = compute_table(g)
        assert len(table) == len(table.classes.reps)
        assert table.conductor == g.exponent
        assert table.rows[0].degree == 1
        assert all(v == oracles.Cyclotomic.one(table.conductor)
                   for v in table.rows[0].values)
        assert sum(int(d) ** 2 for d in table.degrees) == g.order
        q = table.prime
        assert q > 2 * g.order and q % table.conductor == 1


def test_dixon_prime_choice():
    assert dixon_prime(6, 6) % 6 == 1 and dixon_prime(6, 6) > 12
    q = dixon_prime(12, 128)
    assert q % 12 == 1 and q > 256


@pytest.mark.parametrize(
    "invariants",
    [[2], [3], [4], [2, 2], [2, 4], [3, 3], [6], [8], [2, 2, 3], [2, 12]],
)
def test_abelian_tables_match_dual_group_oracle(invariants):
    g = abelian(invariants)
    table = compute_table(g)
    # abelian: classes are singletons in element order, so rows are directly
    # comparable to the dual-group construction
    assert list(table.classes.reps) == list(range(g.order))
    ours = sorted(tuple(v.coeffs for v in chi.values) for chi in table)
    theirs = sorted(oracles.abelian_dual_rows(invariants))
    assert ours == theirs


@pytest.mark.parametrize("name", ["S4", "Q8", "C12", "C7:C3"])
def test_kernel_matches_definitional_kernel(name):
    g = cyclic(12) if name == "C12" else BUILDERS[name]()
    table = compute_table(g)
    for chi in table:
        by_values = oracles.kernel_by_values(chi)
        kernel = chi.kernel()
        assert set(int(x) for x in kernel.elements) == by_values


def test_inner_product_orthonormality():
    table = compute_table(sym(4))
    for a in table:
        for b in table:
            assert oracles.inner_product(a, b) == (1 if a.index == b.index else 0)


@pytest.mark.parametrize("name", ["S3", "D10"])
def test_column_identity_via_exact_sums(name):
    g = BUILDERS[name]()
    table = compute_table(g)
    cc = table.classes
    for c, rep in enumerate(cc.reps):
        acc = oracles.Cyclotomic.zero(table.conductor)
        for chi in table:
            v = oracles.ring(chi.values[c])
            acc = acc + v * v.conjugate()
        assert acc.is_integer()
        assert acc.as_int() == oracles.centralizer_order(g.mul, rep)


def test_second_orthogonality_off_diagonal():
    table = compute_table(sym(3))
    # identity column against transposition column
    acc = oracles.Cyclotomic.zero(table.conductor)
    for chi in table:
        acc = acc + oracles.ring(chi.values[0]) * oracles.ring(chi.values[1]).conjugate()
    assert acc.is_zero()


@pytest.mark.parametrize("name", ["S4", "Q8", "C7:C3", "F72"])
def test_galois_stability_of_rows(name):
    table = compute_table(BUILDERS[name]())
    e = table.conductor
    signatures = {tuple(v.coeffs for v in chi.values): chi.index for chi in table}
    for k in range(1, e):
        if gcd(k, e) != 1:
            continue
        for chi in table:
            image = tuple(oracles.ring(v).galois(k).coeffs for v in chi.values)
            assert image in signatures


@pytest.mark.parametrize("name", ["S4", "Q8", "A4", "C7:C3"])
def test_values_at_inverse_classes_conjugate(name):
    g = BUILDERS[name]()
    table = compute_table(g)
    cc = table.classes
    for chi in table:
        for c, rep in enumerate(cc.reps):
            assert chi(int(g.inv[rep])) == oracles.ring(chi(rep)).conjugate()


def _subgroup_table(g, elems):
    sub = g.subgroup(elems)
    return sub, compute_table(sub.as_group())


@pytest.mark.parametrize(
    "name,elems",
    [
        ("S4", [0, 7, 16, 23]),
        ("Q8", [0, 2]),
        ("A4", None),  # V4 inside A4
        ("C7:C3", None),  # C7 inside the order-21 group
    ],
)
def test_restriction_multiplicities_match_exact_inner_products(name, elems):
    g = BUILDERS[name]()
    if elems is None:
        sub = g.minimal_normal_subgroups()[0]
    else:
        sub = g.subgroup(elems)
    table_g = compute_table(g)
    table_n = compute_table(sub.as_group())
    mults = restriction_multiplicities(table_g, sub, table_n)
    for chi in table_g:
        for theta in table_n:
            assert mults[chi.index, theta.index] == oracles.restriction_inner(
                chi, theta, sub
            )


def test_restrict_agrees_with_bulk_path():
    g = sym(4)
    sub = g.subgroup([0, 7, 16, 23])
    table_g = compute_table(g)
    table_n = compute_table(sub.as_group())
    mults = restriction_multiplicities(table_g, sub, table_n)
    for chi in table_g:
        assert oracles.restrict(chi, sub, table_n) == list(mults[chi.index])


def test_restriction_degree_bookkeeping():
    g = frobenius72_quaternion()
    sub = g.minimal_normal_subgroups()[0]
    table_g = compute_table(g)
    table_n = compute_table(sub.as_group())
    mults = restriction_multiplicities(table_g, sub, table_n)
    assert list(mults @ table_n.degrees) == [int(d) for d in table_g.degrees]


SPLIT_CASES = {
    "C2^5": lambda: abelian([2] * 5),
    **{name: BUILDERS[name] for name in ("ES32+", "ES32-", "SL23", "F72", "C7:C3")},
}


def _split_calls(monkeypatch):
    """Record the matrix size of every charpoly and nullspace the split takes."""
    sizes = {"charpoly": [], "nullspace": []}
    for key, name in (("charpoly", "charpoly_mod"), ("nullspace", "nullspace_mod")):
        def counted(a, q, _fn=getattr(chartable, name), _key=key):
            sizes[_key].append(a.shape[0])
            return _fn(a, q)
        monkeypatch.setattr(chartable, name, counted)
    return sizes


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_split_does_not_depend_on_the_combination(name, monkeypatch):
    build = SPLIT_CASES[name]

    def table_bytes():
        # _build_table, not compute_table: a live isomorphic group would
        # hand over its table and the patched split would never run.
        table = chartable._build_table(build())
        return table._coeffs.tobytes(), table._kernel_mask.tobytes(), len(table)

    seeded = table_bytes()
    k = seeded[2]
    with monkeypatch.context() as m:
        # all-zero weights: the combined matrix splits nothing, so the
        # per-class loop starts from the whole space
        m.setattr(chartable, "_combination_weights",
                  lambda rng, count, q: np.zeros(count, dtype=np.int64))
        calls = _split_calls(m)
        assert table_bytes() == seeded
        assert calls["charpoly"][0] == k
    with monkeypatch.context() as m:
        # an all-zero probe projects to zero: every eigenvector comes from
        # a nullspace
        m.setattr(chartable, "_probe_vector",
                  lambda rng, d, q: np.zeros(d, dtype=np.int64))
        calls = _split_calls(m)
        assert table_bytes() == seeded
        assert calls["nullspace"][:1] == [k]


def test_table_order_bound(monkeypatch):
    monkeypatch.setattr(chartable, "TABLE_ORDER_BOUND", 10)
    with pytest.raises(BoundExceeded):
        compute_table(sym(4))


def test_trivial_group_table():
    table = compute_table(cyclic(1))
    assert len(table) == 1 and table.rows[0].degree == 1
    verify_table(table)
