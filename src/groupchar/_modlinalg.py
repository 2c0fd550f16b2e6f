"""Exact linear algebra over a prime field F_q, vectorized with numpy.

All routines take and return ``int64`` arrays with entries already reduced
into ``[0, q)``.  The moduli used by the character pipeline are small
(a few thousand at most), so products and row sums stay far inside the
``int64`` range.
"""

from __future__ import annotations

import numpy as np

from ._arith import prime_factors
from .errors import ContractViolation


_PERM_BLOCK = 1 << 16  # vector ids per block of vector_perms


def digits(ids, p: int, n: int) -> np.ndarray:
    """The vectors of F_p^n with the given ids, one more trailing axis of
    length n; id = Σ v_j p^j (little-endian)."""
    return np.asarray(ids, dtype=np.int64)[..., None] // p ** np.arange(n) % p


def vector_perms(p: int, n: int, matrices) -> list[np.ndarray]:
    """The map v -> m·v on the vector ids, for each matrix m, by blocks of ids."""
    size, place = p ** n, p ** np.arange(n, dtype=np.int64)
    perms = [np.empty(size, dtype=np.int64) for _ in matrices]
    for lo in range(0, size, _PERM_BLOCK):
        vecs = digits(np.arange(lo, min(size, lo + _PERM_BLOCK)), p, n)
        for perm, m in zip(perms, matrices):
            perm[lo:lo + len(vecs)] = vecs @ m.T % p @ place
    return perms


def powers_mod(z: int, count: int, q: int) -> np.ndarray:
    """The powers z^0, z^1, ..., z^(count-1) mod q."""
    out, acc, z = [], 1, int(z)
    for _ in range(count):
        out.append(acc)
        acc = acc * z % q
    return np.array(out, dtype=np.int64)


def inv_mod(a: int, q: int) -> int:
    """Inverse of ``a`` modulo the prime ``q``."""
    return pow(int(a) % q, -1, q)


def rref_mod(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q; returns (rref, pivot columns).

    Zero rows are dropped, so the result has full row rank and unit
    leading entries with cleared pivot columns.
    """
    m = a.copy() % q
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = (m[r] * inv_mod(int(m[r, c]), q)) % q
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % q
        pivots.append(c)
        r += 1
    return m[:r], pivots


def nullspace_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Canonical basis (as rows, in RREF) of {x : a @ x = 0} over F_q."""
    r, pivots = rref_mod(a, q)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for row_idx, p in enumerate(pivots):
            basis[i, p] = (-int(r[row_idx, c])) % q
    # Rows are already in RREF form up to ordering by free column.
    return basis


def hessenberg_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Upper Hessenberg form of ``a`` via similarity transforms over F_q."""
    h = a.copy() % q
    n = h.shape[0]
    for j in range(n - 2):
        col = h[j + 1:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        p = j + 1 + int(nz[0])
        if p != j + 1:
            h[[j + 1, p]] = h[[p, j + 1]]
            h[:, [j + 1, p]] = h[:, [p, j + 1]]
        piv_inv = inv_mod(int(h[j + 1, j]), q)
        f = (h[j + 2:, j] * piv_inv) % q
        if np.any(f):
            h[j + 2:, :] = (h[j + 2:, :] - f[:, None] * h[j + 1, :]) % q
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2:] @ f) % q
    return h


def charpoly_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Characteristic polynomial det(xI - a) over F_q.

    Returns coefficients in ascending power order, length n + 1, monic.
    Uses the Hessenberg reduction followed by the principal-minor
    recurrence (cofactor expansion along the last column).
    """
    n = a.shape[0]
    h = hessenberg_mod(a, q)
    # poly[m, :m+1] holds p_m, the charpoly of the leading m x m block.
    poly = np.zeros((n + 1, n + 1), dtype=np.int64)
    poly[0, 0] = 1
    sub = np.zeros(n, dtype=np.int64)  # sub[t] = h[t, t-1]
    if n > 1:
        sub[1:] = h[np.arange(1, n), np.arange(0, n - 1)]
    suffix = np.empty(n, dtype=np.int64)  # at step k, suffix[m] = prod(sub[m+1 .. k-1])
    for k in range(1, n + 1):
        prev = poly[k - 1, :k]
        shifted = np.zeros(k + 1, dtype=np.int64)
        shifted[1:] = prev  # x * p_{k-1}
        shifted[:k] = (shifted[:k] - int(h[k - 1, k - 1]) * prev) % q
        if k >= 2:
            suffix[:k - 2] = suffix[:k - 2] * sub[k - 1] % q
            suffix[k - 2] = sub[k - 1]
            # weights w[m] = h[m, k-1] * suffix[m], m = 0..k-2
            w = (h[: k - 1, k - 1] * suffix[: k - 1]) % q
            shifted[:k] = (shifted[:k] - w @ poly[: k - 1, :k]) % q
        poly[k, : k + 1] = shifted % q
    return poly[n]


def poly_eval_mod(coeffs_ascending: np.ndarray, xs: np.ndarray, q: int) -> np.ndarray:
    """Values of the given polynomial at every point of ``xs`` (Horner)."""
    acc = np.zeros(len(xs), dtype=np.int64)
    for c in coeffs_ascending[::-1]:
        acc = (acc * xs + int(c)) % q
    return acc


def poly_roots_mod(coeffs_ascending: np.ndarray, q: int) -> np.ndarray:
    """All roots in F_q of the given polynomial, ascending (scan + Horner)."""
    xs = np.arange(q, dtype=np.int64)
    return xs[poly_eval_mod(coeffs_ascending, xs, q) == 0]


def root_multiplicities(coeffs_ascending: np.ndarray, roots: np.ndarray, q: int) -> np.ndarray:
    """Multiplicity of each point of ``roots`` as a root of the polynomial
    (0 where it is none): the order of the first derivative that is nonzero
    there.  Valid while every multiplicity is below q, so that the factor
    μ! of the μ-th derivative is a unit."""
    deriv = np.asarray(coeffs_ascending, dtype=np.int64) % q
    mults = np.zeros(len(roots), dtype=np.int64)
    zero = poly_eval_mod(deriv, roots, q) == 0
    while zero.any():
        if deriv.size <= 1:
            raise ContractViolation(f"zero polynomial, or a multiplicity not below {q}")
        mults += zero
        deriv = deriv[1:] * np.arange(1, deriv.size, dtype=np.int64) % q
        zero &= poly_eval_mod(deriv, roots, q) == 0
    return mults


def element_of_order(e: int, q: int) -> int:
    """A fixed element of multiplicative order ``e`` in F_q (requires e | q-1).

    Deterministic: take the smallest primitive root g, return g^((q-1)/e).
    """
    if (q - 1) % e != 0:
        raise ContractViolation(f"order {e} does not divide {q} - 1")
    ps = prime_factors(q - 1)
    # Ends below q: at a primitive root if q is prime, else at q's least
    # prime factor at the latest, since no power of it is 1 mod q.
    g = 2
    while any(pow(g, (q - 1) // p, q) == 1 for p in ps):
        g += 1
    return pow(g, (q - 1) // e, q)
