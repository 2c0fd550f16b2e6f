"""GF(q) tables and the vector numbering against the list-polynomial and
digit-by-digit references in `oracles`."""

from __future__ import annotations

import numpy as np
import pytest

from groupchar._arith import prime_power
from groupchar._modlinalg import powers_mod, vector_perms, vectors
from groupchar.constructors import _matrix_perm
from groupchar.errors import NotPrimePower
from groupchar.gf import gf_field

import oracles

PRIME_POWERS = [q for q in range(2, 244) if prime_power(q) is not None]


def test_gf_tables_match_the_polynomial_reference():
    for q in PRIME_POWERS:
        field = gf_field(q)
        modulus, add, mul = oracles.gf_by_polynomials(field.p, field.n)
        assert (field.p ** field.n, field.modulus) == (q, modulus), q
        assert np.array_equal(field.add, add), q
        assert np.array_equal(field.mul, mul), q
        assert field.add.dtype == field.mul.dtype == np.int64
        assert not field.add.flags.writeable and not field.mul.flags.writeable


def test_gf_moduli_are_the_least_irreducible_ones():
    # Candidates run 1 + c_1 x + ... in lexicographic order of (c_0, c_1, ...):
    # x^2 + 1 is irreducible mod 3 but not mod 5 (-1 = 2^2), x^2 + x + 1
    # has the non-square discriminant -3 mod 5, and x^3 + 1 = (x + 1)(x^2 +
    # x + 1) mod 2 while x^3 + x^2 + 1 has no root mod 2.
    assert gf_field(4).modulus == (1, 1, 1)
    assert gf_field(9).modulus == (1, 0, 1)
    assert gf_field(25).modulus == (1, 1, 1)
    assert gf_field(8).modulus == (1, 0, 1, 1)
    assert gf_field(7).modulus == (0, 1)


def test_gf_refuses_a_non_prime_power():
    for q in (1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            gf_field(q)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_matrix_perm_matches_the_big_endian_loop(p, k):
    rng = np.random.default_rng(1000 * p + k)
    for _ in range(6):
        mat = rng.integers(-p, 2 * p, size=(k, k))
        assert tuple(_matrix_perm(p, mat).tolist()) == oracles.matrix_perm_big_endian(p, mat)


def test_vector_numbering_and_perms():
    vecs = vectors(3, 2)
    assert vecs.tolist() == [[a, b] for b in range(3) for a in range(3)]
    swap = np.array([[0, 1], [1, 0]])
    (perm,) = vector_perms(3, 2, [swap])
    assert [perm[a + 3 * b] for a in range(3) for b in range(3)] == [
        b + 3 * a for a in range(3) for b in range(3)]


def test_powers_mod():
    assert powers_mod(3, 0, 7).tolist() == []
    for z, count, q in ((3, 6, 7), (5, 40, 1009), (2, 21, 1 << 20)):
        assert powers_mod(z, count, q).tolist() == [pow(z, i, q) for i in range(count)]
