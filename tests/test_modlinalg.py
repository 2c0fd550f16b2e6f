"""Modular linear algebra over small prime fields against plain-Python
definitions: RREF and rank, nullspaces, characteristic polynomials and
polynomial roots."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from groupchar._modlinalg import charpoly_mod, nullspace_mod, poly_roots_mod, rref_mod

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
