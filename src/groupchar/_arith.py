"""Small exact number-theory helpers (primality, factorization, phi)."""

from __future__ import annotations

import math
from functools import lru_cache

# Deterministic Miller-Rabin witnesses for n < 3.3e24; far beyond any modulus
# used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; inputs here stay small."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> list[int]:
    return sorted(factorize(n))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None if n is not a prime power."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f) != 1:
        return None
    [(p, k)] = f.items()
    return p, k


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n; n >= 1 and p >= 2, or ValueError (the
    loop below would never end)."""
    if n < 1 or p < 2:
        raise ValueError(f"p_part needs n >= 1 and p >= 2, not n={n}, p={p}")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def isqrt_exact(n: int) -> int | None:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
