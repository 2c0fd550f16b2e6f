"""Exact arithmetic in rings of cyclotomic integers Z[zeta_e].

Elements are stored in the power basis 1, zeta, ..., zeta^{phi(e)-1} of
Z[x]/Phi_e(x) with integer coefficients, so equality, conjugation and the
Galois action are exact coefficient computations.  All Python ints, no
floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache

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

    Instances are immutable.  Equality coerces both sides into the lcm
    conductor, so promoted copies of the same value compare equal; instances
    are deliberately unhashable (use ``.coeffs`` as a dict key inside a table,
    where the conductor is shared).
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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def integer(c: int, conductor: int = 1) -> "Cyclotomic":
        phi = euler_phi(conductor)
        return Cyclotomic(conductor, (int(c),) + (0,) * (phi - 1))

    @staticmethod
    def zero(conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic.integer(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic.integer(1, conductor)

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "Cyclotomic":
        return Cyclotomic(conductor, _reduction_table(conductor)[power % conductor])

    @staticmethod
    def from_exponents(conductor: int, mult: dict[int, int]) -> "Cyclotomic":
        """Sum of mult[j] * zeta^j over the given exponents."""
        red = _reduction_table(conductor)
        phi = euler_phi(conductor)
        acc = [0] * phi
        for j, m in mult.items():
            if m:
                row = red[j % conductor]
                for i in range(phi):
                    acc[i] += m * row[i]
        return Cyclotomic(conductor, acc)

    # -- coercion ----------------------------------------------------------

    def promote(self, conductor: int) -> "Cyclotomic":
        """Rewrite in Z[zeta_E] for a multiple E of the current conductor."""
        e = self.conductor
        if conductor == e:
            return self
        if conductor % e:
            raise ValueError(f"{conductor} is not a multiple of conductor {e}")
        step = conductor // e
        return Cyclotomic.from_exponents(
            conductor, {j * step: c for j, c in enumerate(self.coeffs) if c}
        )

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, int):
            other = Cyclotomic.integer(other, self.conductor)
        if not isinstance(other, Cyclotomic):
            return NotImplemented, NotImplemented
        if self.conductor == other.conductor:
            return self, other
        import math

        e = math.lcm(self.conductor, other.conductor)
        return self.promote(e), other.promote(e)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        e = a.conductor
        red = _reduction_table(e)
        phi = len(a.coeffs)
        acc = [0] * phi
        for i, ci in enumerate(a.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(b.coeffs):
                if not cj:
                    continue
                k = i + j
                c = ci * cj
                if k < phi:
                    acc[k] += c
                else:
                    row = red[k % e]
                    for t in range(phi):
                        acc[t] += c * row[t]
        return Cyclotomic(e, acc)

    __rmul__ = __mul__

    # -- structure maps ------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta -> zeta^k; k must be coprime to the conductor."""
        import math

        e = self.conductor
        if math.gcd(k, e) != 1:
            raise ValueError(f"{k} is not coprime to conductor {e}")
        return Cyclotomic.from_exponents(
            e, {j * k % e: c for j, c in enumerate(self.coeffs) if c}
        )

    def conjugate(self) -> "Cyclotomic":
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def evaluate_mod(self, z: int, q: int) -> int:
        """Image in F_q under zeta_e -> z (z a primitive e-th root mod q)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * z + c) % q
        return acc

    # -- comparisons / display -------------------------------------------------

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a.coeffs == b.coeffs

    def __str__(self):
        if self.is_integer():
            return str(self.coeffs[0])
        e = self.conductor
        terms = [str(self.coeffs[0])]
        terms += [f"{c}*z{e}^{j}" for j, c in enumerate(self.coeffs) if j and c]
        return " + ".join(terms)

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self.coeffs})"
