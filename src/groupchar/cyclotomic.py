"""Cyclotomic integers Z[zeta_e]: the exact value of a character on a class.

Elements are stored in the power basis 1, zeta, ..., zeta^{phi(e)-1} of
Z[x]/Phi_e(x) with integer coefficients, so equality is an exact
coefficient comparison; all Python ints, no floating point.  The pipeline
works on a table's coefficient array and needs only display and
comparison here; the ring operations are the test oracles'.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from ._arith import euler_phi, divisors


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, ascending degree, leading coefficient 1."""
    if e < 1:
        raise ValueError("conductor must be positive")
    if e == 1:
        return (-1, 1)
    # x^e - 1 divided by Phi_d for every proper divisor d of e.
    num = [-1] + [0] * (e - 1) + [1]
    for d in divisors(e)[:-1]:
        den = cyclotomic_polynomial(d)
        num = _poly_div_exact(num, den)
    return tuple(num)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (den monic, remainder zero)."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    if any(num[:dd]):
        raise ArithmeticError("non-exact cyclotomic division")
    return out


@lru_cache(maxsize=None)
def _reduction_table(e: int) -> tuple[tuple[int, ...], ...]:
    """Row j is the canonical form of x^j modulo Phi_e, for 0 <= j < e."""
    phi = euler_phi(e)
    head = cyclotomic_polynomial(e)[:phi]
    tail = tuple(-c for c in head)  # x^phi mod Phi_e
    rows = [tuple(1 if i == j else 0 for i in range(phi)) for j in range(phi)]
    for j in range(phi, e):
        prev = rows[j - 1]
        carry = prev[phi - 1]
        shifted = (0,) + prev[: phi - 1]
        rows.append(tuple(shifted[i] + carry * tail[i] for i in range(phi)))
    return tuple(rows)


class Cyclotomic:
    """An element of Z[zeta_e] in reduced power-basis form.

    Instances are immutable.  Equality lifts both sides into the lcm
    conductor, so one value written over two conductors compares equal, and
    an int compares as a rational value; instances are deliberately unhashable
    (use ``.coeffs`` as a dict key inside a table, where the conductor is
    shared).
    """

    __slots__ = ("conductor", "coeffs")
    __hash__ = None

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {conductor}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Cyclotomic is immutable")

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        e = lcm(self.conductor, other.conductor)
        return _lift(self, e) == _lift(other, e)

    def __str__(self):
        if self.is_integer():
            return str(self.coeffs[0])
        e = self.conductor
        terms = [str(self.coeffs[0])]
        terms += [f"{c}*z{e}^{j}" for j, c in enumerate(self.coeffs) if j and c]
        return " + ".join(terms)

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self.coeffs})"


def _lift(value: Cyclotomic, conductor: int) -> tuple[int, ...]:
    """``value`` in Z[zeta_E], E = ``conductor``: zeta_e^j is zeta_E^(j·E/e)."""
    step = conductor // value.conductor
    if step == 1:
        return value.coeffs
    red = _reduction_table(conductor)
    acc = [0] * euler_phi(conductor)
    for j, c in enumerate(value.coeffs):
        if c:
            for i, r in enumerate(red[j * step]):
                acc[i] += c * r
    return tuple(acc)
