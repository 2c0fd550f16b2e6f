"""Seeded input files for the ``requests`` workload.

The program under test sees only the files written here.  Group inputs are
``constructors`` products outside the shipped corpus, of order 60 to 506,
so both sides of the 256-element exhaustive-associativity threshold are
covered.  Each group is written twice:

* ``<name>.cayley.grp``: the constructor's Cayley table relabelled by a
  seeded permutation of the element ids that fixes the identity 0;
* ``<name>.perm.grp``: permutation generators of an isomorphic group on a
  few points, with the points relabelled by a seeded permutation (the
  loader numbers elements by sorted image tuples, so this relabels the
  loaded table too).

Orbit inputs are generator matrices over odd prime fields, conjugated by a
seeded invertible change of basis: Singer cycles and their odd-order
powers, the semilinear group of GF(3^8) (order 52480 on 6561 vectors), a
signed permutation group and a unitriangular group.

Relabellings use ``seed % VARIANTS``, so every seed maps to one of
``VARIANTS`` input sets whose expected report digests are recorded; the
request order uses the full seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import groupchar as gc

VARIANTS = 16


def _affine_gens(q: int, root: int) -> list[list[tuple[int, ...]]]:
    """x -> x + 1 and x -> root * x on the points 1..q of GF(q), q prime."""
    shift = [tuple(range(1, q + 1))]
    scale, seen = [], {0}
    for start in range(1, q):
        if start in seen:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = x * root % q
        scale.append(tuple(cyc))
    return [shift, scale]


# name -> (Cayley table factory, permutation generators on points 1..degree as
# lists of cycles, degree, subcommands run on the cayley file, subcommands
# run on the perm file).  Costs per request run from a few ms to about
# 1.3 s (A5xC7, AGL1(23)); the split between the two files keeps one pass
# of every request near 10 s on one core.
GROUPS = {
    "A5": (lambda: gc.alt(5),
           [[(1, 2, 3)], [(1, 2, 3, 4, 5)]], 5,
           ("info", "table", "classify", "analyze"), ("info", "analyze")),
    "S5": (lambda: gc.sym(5),
           [[(1, 2)], [(1, 2, 3, 4, 5)]], 5,
           ("info", "table", "classify", "analyze"), ("table", "classify")),
    "S4xS3": (lambda: gc.direct_product(gc.sym(4), gc.sym(3)),
              [[(1, 2)], [(1, 2, 3, 4)], [(5, 6)], [(5, 6, 7)]], 7,
              ("info", "table", "analyze"), ("classify", "analyze")),
    "A5xC3": (lambda: gc.direct_product(gc.alt(5), gc.cyclic(3)),
              [[(1, 2, 3)], [(1, 2, 3, 4, 5)], [(6, 7, 8)]], 8,
              ("info", "classify", "analyze"), ("table", "info")),
    "S3xS3xS3": (lambda: gc.direct_product(
                     gc.direct_product(gc.sym(3), gc.sym(3)), gc.sym(3)),
                 [[(1, 2)], [(1, 2, 3)], [(4, 5)], [(4, 5, 6)],
                  [(7, 8)], [(7, 8, 9)]], 9,
                 ("table", "classify", "analyze"), ("info",)),
    "S4xD10": (lambda: gc.direct_product(gc.sym(4), gc.dihedral(5)),
               [[(1, 2)], [(1, 2, 3, 4)], [(5, 6, 7, 8, 9)], [(6, 9), (7, 8)]], 9,
               ("info", "table", "analyze"), ("classify",)),
    "C2^8": (lambda: gc.abelian([2] * 8),
             [[(2 * i + 1, 2 * i + 2)] for i in range(8)], 16,
             ("info",), ("info",)),
    "AGL1(17)": (lambda: gc.agl1(17), _affine_gens(17, 3), 17,
                 ("info", "table", "analyze"), ("classify",)),
    "S4xC12": (lambda: gc.direct_product(gc.sym(4), gc.cyclic(12)),
               [[(1, 2)], [(1, 2, 3, 4)], [(5, 6, 7, 8), (9, 10, 11)]], 11,
               ("info", "table"), ("classify",)),
    "A5xS3": (lambda: gc.direct_product(gc.alt(5), gc.sym(3)),
              [[(1, 2, 3)], [(1, 2, 3, 4, 5)], [(6, 7)], [(6, 7, 8)]], 8,
              ("table", "classify", "analyze"), ("info",)),
    "A5xC7": (lambda: gc.direct_product(gc.alt(5), gc.cyclic(7)),
              [[(1, 2, 3)], [(1, 2, 3, 4, 5)], [(6, 7, 8, 9, 10, 11, 12)]], 12,
              ("classify",), ()),
    "AGL1(23)": (lambda: gc.agl1(23), _affine_gens(23, 5), 23,
                 ("info",), ()),
}


def _companion(coeffs: tuple[int, ...], p: int) -> np.ndarray:
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0 over GF(p)."""
    n = len(coeffs)
    m = np.zeros((n, n), dtype=np.int64)
    m[np.arange(1, n), np.arange(n - 1)] = 1
    m[:, n - 1] = [(-c) % p for c in coeffs]
    return m


def _matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(a.shape[0], dtype=np.int64)
    while e:
        if e & 1:
            out = out @ a % p
        a = a @ a % p
        e >>= 1
    return out


def _frobenius(c: np.ndarray, p: int) -> np.ndarray:
    """x -> x^p on GF(p^n) in the power basis of the companion's root."""
    n = c.shape[0]
    e0 = np.zeros(n, dtype=np.int64)
    e0[0] = 1
    return np.stack([_matpow(c, p * i, p) @ e0 % p for i in range(n)], axis=1)


def _elementary(n: int, i: int, j: int) -> np.ndarray:
    m = np.eye(n, dtype=np.int64)
    m[i, j] = 1
    return m


def _signed_permutations(p: int, n: int) -> list[np.ndarray]:
    neg = np.eye(n, dtype=np.int64)
    neg[0, 0] = p - 1
    swap = np.eye(n, dtype=np.int64)[[1, 0] + list(range(2, n))]
    cycle = np.eye(n, dtype=np.int64)[list(range(1, n)) + [0]]
    return [neg, swap, cycle]


# The polynomials are primitive (their companion matrices have order
# p^n - 1); the reports assert the resulting orbit structure.
_SINGER = {
    (3, 4): (2, 0, 0, 1),
    (3, 5): (1, 0, 0, 0, 2),
    (3, 6): (2, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 0, 0, 0, 1, 0, 0),
    (5, 3): (2, 0, 1),
    (7, 3): (2, 1, 1),
}


def _singer(p: int, n: int) -> np.ndarray:
    return _companion(_SINGER[(p, n)], p)


# name -> (prime, dimension, generator factory)
ORBITS = {
    "singer-3^4": (3, 4, lambda: [_singer(3, 4)]),
    "semilinear-3^8": (3, 8, lambda: [_singer(3, 8),
                                      _frobenius(_singer(3, 8), 3)]),
    "singer-3^5-sq": (3, 5, lambda: [_matpow(_singer(3, 5), 2, 3)]),
    "singer-3^6-8th": (3, 6, lambda: [_matpow(_singer(3, 6), 8, 3)]),
    "singer-5^3-4th": (5, 3, lambda: [_matpow(_singer(5, 3), 4, 5)]),
    "singer-7^3-sq": (7, 3, lambda: [_matpow(_singer(7, 3), 2, 7)]),
    "signed-perm-5^4": (5, 4, lambda: _signed_permutations(5, 4)),
    "unitriangular-3^4": (3, 4, lambda: [_elementary(4, i, i + 1)
                                         for i in range(3)]),
}


def _relabelled_table(group: gc.Group, rng: np.random.Generator) -> np.ndarray:
    sigma = np.concatenate([[0], 1 + rng.permutation(group.order - 1)])
    out = np.empty_like(group.mul)
    out[sigma[:, None], sigma[None, :]] = sigma[group.mul]
    return out


def _perm_lines(gens, degree: int, rng: np.random.Generator) -> list[str]:
    pi = 1 + rng.permutation(degree)  # point x -> pi[x - 1]
    lines = []
    for cycles in gens:
        lines.append("".join(
            "(" + " ".join(str(int(pi[x - 1])) for x in cyc) + ")"
            for cyc in cycles))
    return lines


def _change_of_basis(p: int, n: int, rng: np.random.Generator):
    """A seeded invertible matrix and its inverse over GF(p)."""
    while True:
        b = rng.integers(0, p, (n, n))
        aug = np.concatenate([b, np.eye(n, dtype=np.int64)], axis=1) % p
        ok = True
        for c in range(n):
            piv = next((r for r in range(c, n) if aug[r, c]), None)
            if piv is None:
                ok = False
                break
            aug[[c, piv]] = aug[[piv, c]]
            aug[c] = aug[c] * pow(int(aug[c, c]), -1, p) % p
            for r in range(n):
                if r != c:
                    aug[r] = (aug[r] - aug[r, c] * aug[c]) % p
        if ok:
            return b % p, aug[:, n:]


def write_inputs(directory: Path, seed: int) -> list[tuple[str, list[str]]]:
    """Write every input file into ``directory`` and return the request
    list as (request id, groupchar argv) pairs in a fixed order."""
    variant = seed % VARIANTS
    requests: list[tuple[str, list[str]]] = []
    for k, (name, (build, gens, degree, on_cayley, on_perm)) in enumerate(GROUPS.items()):
        rng = np.random.default_rng([variant, k])
        group = build()
        cayley = directory / f"{name}.cayley.grp"
        gc.save_group(gc.Group(_relabelled_table(group, rng), validate=False), cayley)
        perm = directory / f"{name}.perm.grp"
        perm.write_text("\n".join([f"perm {degree}", *_perm_lines(gens, degree, rng)]) + "\n")
        for fmt, path, commands in (("cayley", cayley, on_cayley), ("perm", perm, on_perm)):
            for cmd in commands:
                argv = ([cmd, "--pair", str(path), "--normal", "auto-minimal"]
                        if cmd == "analyze" else [cmd, str(path)])
                requests.append((f"{cmd}:{name}.{fmt}", argv))
    for k, (name, (p, n, build)) in enumerate(ORBITS.items()):
        b, b_inv = _change_of_basis(p, n, np.random.default_rng([variant, 100 + k]))
        path = directory / f"{name}.gens"
        path.write_text("".join(
            " ".join(str(int(x)) for x in (b @ g % p @ b_inv % p).ravel()) + "\n"
            for g in build()))
        requests.append((f"orbits:{name}", ["orbits", "--prime", str(p),
                                            "--dim", str(n), "--gens", str(path)]))
    return requests
