"""Dense GF(q) arithmetic tables for small prime powers, q = p^n.

Field elements are the vectors of GF(p)^n numbered as in
`_modlinalg.digits`: c_0 + c_1 x + ... + c_{n-1} x^{n-1} has id
Σ c_i p^i.  Multiplication by x is the companion matrix C of the modulus,
so a·b = Σ_i b_i C^i a.  The modulus is the least monic polynomial of
degree n, ordered by its coefficient vector (c_0, ..., c_{n-1}), whose
quotient ring has no zero divisors, that is the least irreducible one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._arith import prime_power
from ._modlinalg import digits
from .errors import NotPrimePower


@dataclass(frozen=True)
class GF:
    p: int
    n: int
    q: int
    modulus: tuple[int, ...]
    add: np.ndarray  # q x q
    mul: np.ndarray  # q x q


def _mul_table(p: int, modulus: tuple[int, ...], vecs: np.ndarray) -> np.ndarray:
    """mul[a, b] = Σ_i b_i C^i a over GF(p)[x]/(modulus), C its companion."""
    n = vecs.shape[1]
    companion = np.eye(n, k=-1, dtype=np.int64)
    companion[:, -1] = -np.array(modulus[:-1]) % p
    shifts = [vecs]  # shifts[i][a] = x^i·a
    for _ in range(n - 1):
        shifts.append(shifts[-1] @ companion.T % p)
    prod = np.einsum("bi,ian->abn", vecs, np.array(shifts)) % p
    return prod @ p ** np.arange(n)


@lru_cache(maxsize=None)
def gf_field(q: int) -> GF:
    pp = prime_power(q)
    if pp is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, n = pp
    vecs = digits(np.arange(p ** n), p, n)
    add = (vecs[:, None] + vecs[None, :]) % p @ p ** np.arange(n)
    # A tail with c_0 = 0 makes x a zero divisor, unless the modulus is x.
    for tail in itertools.product(range(p), repeat=n):
        if n == 1 or tail[0]:
            modulus = (*tail, 1)
            mul = _mul_table(p, modulus, vecs)
            if mul[1:, 1:].all():
                break
    add.setflags(write=False)
    mul.setflags(write=False)
    return GF(p=p, n=n, q=q, modulus=modulus, add=add, mul=mul)
