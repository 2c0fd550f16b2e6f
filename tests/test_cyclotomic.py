"""Exact cyclotomic arithmetic: ring axioms, Galois action, reduction.

The ring operations are the oracles' (``oracles.Cyclotomic``); equality,
``is_integer`` and display are the library's, and the library class is
checked on its own instances too."""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, strategies as st

from groupchar import cyclotomic
from groupchar._arith import euler_phi
from groupchar.cyclotomic import cyclotomic_polynomial
from oracles import Cyclotomic

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12]


@st.composite
def cyclo(draw, conductor=None):
    e = conductor if conductor is not None else draw(st.sampled_from(CONDUCTORS))
    phi = euler_phi(e)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    return Cyclotomic(e, coeffs)


@st.composite
def cyclo_triple(draw):
    e = draw(st.sampled_from(CONDUCTORS))
    return (
        draw(cyclo(conductor=e)),
        draw(cyclo(conductor=e)),
        draw(cyclo(conductor=e)),
    )


@given(cyclo_triple())
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(cyclo())
def test_identities(a):
    e = a.conductor
    assert a + Cyclotomic.zero(e) == a
    assert a * Cyclotomic.one(e) == a
    assert a - a == Cyclotomic.zero(e)
    assert -(-a) == a


@given(cyclo(), st.sampled_from([2, 3, 4]))
def test_promotion_preserves_value(a, k):
    promoted = a.promote(a.conductor * k)
    assert promoted == a
    assert promoted.conductor == a.conductor * k


@given(cyclo(), st.sampled_from([2, 3, 4]))
def test_library_equality_across_conductors(a, k):
    """``cyclotomic.Cyclotomic.__eq__`` on library instances: a value and
    its promoted copy compare equal both ways, a different value does not,
    and an int compares as a rational value."""
    lib = cyclotomic.Cyclotomic
    x = lib(a.conductor, a.coeffs)
    up, other = a.promote(a.conductor * k), (a + 1).promote(a.conductor * k)
    y = lib(up.conductor, up.coeffs)
    assert x == y and y == x
    assert x != lib(other.conductor, other.coeffs)
    assert (x == a.coeffs[0]) == (a.coeffs[0] == y) == a.is_integer()
    assert x != a.coeffs[0] + 1
    assert x != str(x)


def test_library_equality_with_ints():
    lib = cyclotomic.Cyclotomic
    assert lib(4, (3, 0)) == 3 and 3 == lib(4, (3, 0)) and lib(1, (3,)) == 3
    assert lib(4, (3, 1)) != 3 and lib(4, (3, 0)) != 4
    assert lib(6, (-1, 1)) == lib(3, (0, 1))  # zeta_6 - 1 = zeta_3
    assert lib(12, (1, 0, 0, 0)) == lib(1, (1,))


@given(st.sampled_from(CONDUCTORS), st.integers(0, 40), st.integers(0, 40))
def test_root_of_unity_exponents(e, i, j):
    zi = Cyclotomic.zeta(e, i)
    zj = Cyclotomic.zeta(e, j)
    assert zi * zj == Cyclotomic.zeta(e, i + j)
    assert zi * zi.conjugate() == Cyclotomic.one(e)


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 8, 9, 12, 15])
def test_all_roots_sum_to_zero(e):
    acc = Cyclotomic.zero(e)
    for j in range(e):
        acc = acc + Cyclotomic.zeta(e, j)
    assert acc.is_zero()


@given(cyclo(), cyclo())
def test_galois_is_a_ring_map(a, b):
    e = (a + b).conductor
    for k in range(1, e + 1):
        if gcd(k, e) != 1:
            continue
        assert (a + b).galois(k) == a.promote(e).galois(k) + b.promote(e).galois(k)
        assert (a * b).galois(k) == a.promote(e).galois(k) * b.promote(e).galois(k)


@given(cyclo())
def test_conjugate_is_galois_minus_one(a):
    assert a.conjugate() == a.galois(-1)
    assert a.conjugate().conjugate() == a
    assert a.galois(1) == a


@given(st.integers(-50, 50), st.sampled_from(CONDUCTORS))
def test_integer_round_trip(c, e):
    v = Cyclotomic.integer(c, e)
    assert v.is_integer()
    assert v.as_int() == c
    assert str(v) == str(c)


def test_str_grammar():
    z = Cyclotomic.zeta(8)
    assert "z8" in str(z)
    combo = Cyclotomic.integer(2, 8) + z * 3
    assert str(combo) == "2 + 3*z8^1"


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("e", range(1, 16))
def test_cyclotomic_polynomials_multiply_to_x_e_minus_1(e):
    prod = [1]
    for d in range(1, e + 1):
        if e % d == 0:
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (e - 1) + [1]
    assert prod == expected
    assert len(cyclotomic_polynomial(e)) == euler_phi(e) + 1


@given(cyclo(conductor=12), cyclo(conductor=12))
def test_evaluate_mod_is_a_homomorphism(a, b):
    q, z = 13, 2  # 2 has multiplicative order 12 mod 13
    assert pow(z, 12, q) == 1 and all(pow(z, k, q) != 1 for k in range(1, 12))
    assert (a * b).evaluate_mod(z, q) == a.evaluate_mod(z, q) * b.evaluate_mod(z, q) % q
    assert (a + b).evaluate_mod(z, q) == (a.evaluate_mod(z, q) + b.evaluate_mod(z, q)) % q


def test_immutability_and_validation():
    v = Cyclotomic.one(4)
    with pytest.raises(AttributeError):
        v.coeffs = (2, 0)
    with pytest.raises(ValueError):
        Cyclotomic(4, (1, 2, 3))
    with pytest.raises(ValueError):
        v.promote(6)  # 6 is not a multiple of 4
