"""Modular linear algebra over small prime fields against plain-Python
definitions: RREF and rank, nullspaces, characteristic polynomials,
polynomial roots and root multiplicities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from groupchar._modlinalg import (
    charpoly_mod,
    element_of_order,
    nullspace_mod,
    poly_roots_mod,
    root_multiplicities,
    rref_mod,
)
from groupchar.errors import ContractViolation

import oracles

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])


@st.composite
def matrices(draw, max_rows=5, max_cols=5, square=False):
    p = draw(PRIMES)
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                            max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols), p


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_is_reduced_with_the_same_row_space(case):
    a, p = case
    r, pivots = rref_mod(a, p)
    rank = oracles.rank_mod(a.tolist(), p)
    assert len(pivots) == r.shape[0] == rank
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert not r[i, :c].any() and r[i, c] == 1
        assert [int(x) for x in r[:, c]] == [int(j == i) for j in range(len(pivots))]
    assert np.all((0 <= r) & (r < p))
    # same row space: neither side adds rank to the other
    assert oracles.rank_mod(a.tolist() + r.tolist(), p) == rank


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_rows_are_independent_solutions(case):
    a, p = case
    null = nullspace_mod(a, p)
    rank = oracles.rank_mod(a.tolist(), p)
    assert null.shape == (a.shape[1] - rank, a.shape[1])
    assert not (a @ null.T % p).any()
    assert oracles.rank_mod(null.tolist(), p) == null.shape[0]


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=4, square=True))
@example((np.zeros((0, 0), dtype=np.int64), 5))  # det of the empty matrix: 1
def test_charpoly_matches_laplace_determinant(case):
    a, p = case
    poly = charpoly_mod(a, p)
    assert [int(c) for c in poly] == oracles.charpoly_laplace(a.tolist(), p)
    # Cayley-Hamilton: p(A) = 0
    n = a.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    for c in poly[::-1]:
        acc = (acc @ a + int(c) * np.eye(n, dtype=np.int64)) % p
    assert not acc.any()


@settings(max_examples=150, deadline=None)
@given(PRIMES.flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=6))))
def test_poly_roots_are_exactly_the_roots(case):
    p, coeffs = case
    roots = poly_roots_mod(np.array(coeffs, dtype=np.int64), p)
    expected = [x for x in range(p)
                if sum(c * x ** i for i, c in enumerate(coeffs)) % p == 0]
    assert [int(x) for x in roots] == expected


@st.composite
def factored_polys(draw):
    """(p, monic polynomial, {root: chosen multiplicity}): a product of
    (x - λ)^μ over chosen roots and multiplicities and a monic cofactor,
    of degree below p so that every multiplicity is below p."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    chosen = draw(st.dictionaries(st.integers(0, p - 1), st.integers(1, 4), max_size=4))
    cofactor = draw(st.lists(st.integers(0, p - 1), max_size=3)) + [1]
    poly = np.array(cofactor, dtype=np.int64)
    for lam, mu in chosen.items():
        for _ in range(mu):
            poly = (np.concatenate(([0], poly)) - lam * np.concatenate((poly, [0]))) % p
    assume(poly.size <= p)
    return p, poly, chosen


@settings(max_examples=150, deadline=None)
@given(factored_polys())
def test_root_multiplicities_match_repeated_division(case):
    p, poly, chosen = case
    points = np.arange(p, dtype=np.int64)
    mults = root_multiplicities(poly, points, p)
    assert [int(m) for m in mults] == [oracles.root_multiplicity(poly.tolist(), x, p)
                                       for x in range(p)]
    for lam, mu in chosen.items():
        assert mults[lam] >= mu
    roots = poly_roots_mod(poly, p)
    assert [int(x) for x in roots] == [x for x in range(p) if mults[x]]
    assert mults.sum() <= poly.size - 1


def test_root_multiplicities_refuse_a_multiplicity_of_p():
    # x^5 over F_5: every derivative vanishes at 0
    with pytest.raises(ContractViolation):
        root_multiplicities(np.array([0] * 5 + [1]), np.array([0]), 5)


def test_element_of_order_needs_a_divisor_of_q_minus_1():
    # 3 generates F_7^*, so the element of order 3 is 3^2 = 2
    assert element_of_order(3, 7) == 2 and pow(2, 3, 7) == 1
    with pytest.raises(ContractViolation, match="order 4 does not divide 7 - 1"):
        element_of_order(4, 7)
