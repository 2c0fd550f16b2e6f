"""Constructors for the standard small groups used throughout the library.

A copy that only relabels a table an inner `Group` validated, and a direct
product of two groups, skip the associativity test (``validate=False``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BoundExceeded, InvalidAction
from .gf import gf_field
from .groups import Group, Subgroup


def cyclic(n: int) -> Group:
    if n < 1:
        raise ValueError("order must be positive")
    ids = np.arange(n)
    return Group((ids[:, None] + ids[None, :]) % n, label=f"C{n}")


def direct_product(a: Group, b: Group) -> Group:
    na, nb = a.order, b.order
    i = np.arange(na * nb)
    ai, bi = i // nb, i % nb
    mul = a.mul[ai[:, None], ai[None, :]] * nb + b.mul[bi[:, None], bi[None, :]]
    # A product of associative tables is associative.
    return Group(mul, label=f"{a.label}x{b.label}", validate=False)


def abelian(invariants) -> Group:
    """Direct product of cyclic groups, e.g. abelian([4, 2]) for C4 x C2."""
    invs = [int(d) for d in invariants]
    if not invs or any(d < 1 for d in invs):
        raise ValueError("invariants must be positive integers")
    g = cyclic(invs[0])
    for d in invs[1:]:
        g = direct_product(g, cyclic(d))
    label = "x".join(f"C{d}" for d in invs)
    return Group(g.mul, label=label, validate=False)


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n; ids encode r^i s^j as i + n*j."""
    if n < 1:
        raise ValueError("need n >= 1")
    i = np.arange(2 * n)
    rot, flip = i % n, i // n
    sign = np.where(flip == 1, -1, 1)
    r = (rot[:, None] + sign[:, None] * rot[None, :]) % n
    f = (flip[:, None] + flip[None, :]) % 2
    return Group(r + n * f, label=f"D{2 * n}")


def generalized_quaternion(order: int) -> Group:
    """Generalized quaternion group of 2-power order >= 8."""
    m = order
    if m < 8 or m & (m - 1):
        raise ValueError("order must be a power of 2, at least 8")
    half = m // 2
    quarter = m // 4
    i = np.arange(m)
    rot, flip = i % half, i // half
    r = np.where(
        flip[:, None] == 0,
        (rot[:, None] + rot[None, :]) % half,
        (rot[:, None] - rot[None, :] + quarter * flip[None, :]) % half,
    )
    f = (flip[:, None] + flip[None, :]) % 2
    return Group(r + half * f, label=f"Q{m}")


def _perm_group(perms: list[tuple[int, ...]], label: str) -> Group:
    """The Cayley table of a list of permutations closed under composition.

    Element i is perms[i], and i*j is s∘t with (s∘t)[x] = s[t[x]] for
    s = perms[i], t = perms[j].  Row i is the gather p[i][p]; each product
    gets its id by a binary search over the byte keys of p, sorted once.
    """
    p = np.asarray(perms, dtype=np.int64)
    n = len(p)
    key = np.dtype((np.void, p.itemsize * p.shape[1]))
    keys = p.view(key).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    mul = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        products = p[i][p]
        pos = np.searchsorted(sorted_keys, products.view(key).ravel())
        ids = order[np.minimum(pos, n - 1)]
        if not (p[ids] == products).all():
            raise ValueError("permutations are not closed under composition")
        mul[i] = ids
    return Group(mul, label=label)


def sym(n: int) -> Group:
    """Symmetric group on n points (n <= 5); lexicographic element order."""
    if not 1 <= n <= 5:
        raise ValueError("supported for 1 <= n <= 5")
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    return _perm_group(perms, f"S{n}")


def _parity(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    par = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        par ^= (length - 1) & 1
    return par


def alt(n: int) -> Group:
    """Alternating group on n points (n <= 5)."""
    if not 1 <= n <= 5:
        raise ValueError("supported for 1 <= n <= 5")
    perms = [tuple(p) for p in itertools.permutations(range(n)) if _parity(tuple(p)) == 0]
    return _perm_group(perms, f"A{n}")


# -- semidirect products ----------------------------------------------------------


def _check_automorphism(a: Group, perm: np.ndarray) -> bool:
    if sorted(perm.tolist()) != list(range(a.order)):
        return False
    if perm[0] != 0:
        return False
    return bool(np.array_equal(perm[a.mul], a.mul[perm[:, None], perm[None, :]]))


def semidirect_product(a: Group, b: Group, action) -> Group:
    """Split extension A : B.

    ``action`` maps each element of B to an automorphism of A given as a
    permutation table on A's ids; it must be a homomorphism B -> Aut(A)
    (so action[b1 * b2] = action[b1] o action[b2]).  Multiplication is
    (a1, b1)(a2, b2) = (a1 * action[b1](a2), b1 * b2), ids a * |B| + b.
    """
    act = np.asarray([list(row) for row in action], dtype=np.int64)
    if act.shape != (b.order, a.order):
        raise InvalidAction("need one automorphism table per element of B")
    for t in range(b.order):
        if not _check_automorphism(a, act[t]):
            raise InvalidAction(f"image of element {t} is not an automorphism")
    if not np.array_equal(act[0], np.arange(a.order)):
        raise InvalidAction("identity of B must act trivially")
    for t1 in range(b.order):
        for t2 in range(b.order):
            if not np.array_equal(act[b.mul[t1, t2]], act[t1][act[t2]]):
                raise InvalidAction("action is not a homomorphism into Aut(A)")
    na, nb = a.order, b.order
    i = np.arange(na * nb)
    ai, bi = i // nb, i % nb
    twisted = act[bi[:, None], ai[None, :]]  # action[b1](a2)
    mul = a.mul[ai[:, None], twisted] * nb + b.mul[bi[:, None], bi[None, :]]
    return Group(mul, label=f"{a.label}:{b.label}")


def automorphism_from_images(g: Group, gens, images) -> tuple[int, ...]:
    """The automorphism of g sending each generator to its image.

    Extends multiplicatively along a breadth-first traversal and then checks
    the result really is an automorphism.
    """
    gens = [int(x) for x in gens]
    images = [int(x) for x in images]
    if len(gens) != len(images):
        raise ValueError("need one image per generator")
    perm = np.full(g.order, -1, dtype=np.int64)
    perm[0] = 0
    queue = [0]
    while queue:
        x = queue.pop()
        for gen, img in zip(gens, images):
            y = int(g.mul[x, gen])
            if perm[y] < 0:
                perm[y] = int(g.mul[perm[x], img])
                queue.append(y)
    if (perm < 0).any():
        raise InvalidAction("generators do not generate the group")
    if not _check_automorphism(g, perm):
        raise InvalidAction("images do not extend to an automorphism")
    return tuple(int(x) for x in perm)


# -- extraspecial 2-groups ----------------------------------------------------------


def _central_involution(g: Group) -> int:
    z = g.center()
    if z.order != 2:
        raise ValueError("factor must have center of order 2")
    return int(z.elements[1])


def central_product(x: Group, y: Group) -> Group:
    """Central product amalgamating the (order-2) centers of both factors."""
    zx, zy = _central_involution(x), _central_involution(y)
    d = direct_product(x, y)
    k = Subgroup(d, [0, zx * y.order + zy], normal=True)
    q = d.quotient(k)
    return Group(q.image.mul, label=f"{x.label}o{y.label}", validate=False)


def extraspecial_2(m: int, sign: str) -> Group:
    """Extraspecial 2-group of order 2^(2m+1).

    '+' is the central product of m dihedral factors of order 8; '-' replaces
    one factor by the quaternion group of order 8.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    acc = generalized_quaternion(8) if sign == "-" else dihedral(4)
    for _ in range(m - 1):
        acc = central_product(acc, dihedral(4))
    order = 2 ** (2 * m + 1)
    if acc.order != order or acc.center().order != 2:
        raise AssertionError("central product construction went wrong")
    return Group(acc.mul, label=f"ES{order}{sign}", validate=False)


# -- affine groups and the order-72 Frobenius group -----------------------------------


def agl1(q: int) -> Group:
    """The affine group x -> a*x + b over GF(q), order q(q-1).

    q must be a prime power at most 512 (the GF table ceiling).  Note the
    group order grows like q^2, so Cayley-table memory is the practical
    limit well before the cap.
    """
    if q > 512:
        raise BoundExceeded("agl1", q, 512)
    field = gf_field(q)
    if q == 2:
        return Group(cyclic(2).mul, label="AGL1(2)", validate=False)
    n = q * (q - 1)
    i = np.arange(n)
    a, bv = i // q + 1, i % q  # unit value a, translation b
    prod_a = field.mul[a[:, None], a[None, :]]
    prod_b = field.add[field.mul[a[:, None], bv[None, :]], bv[:, None]]
    mul = (prod_a - 1) * q + prod_b
    return Group(mul, label=f"AGL1({q})")


def _matrix_perm(p: int, mat) -> tuple[int, ...]:
    """Permutation of GF(p)^k vector ids (big-endian digits) under a matrix."""
    mat = [[int(c) % p for c in row] for row in mat]
    k = len(mat)
    out = []
    for vid in range(p**k):
        digits = []
        rest = vid
        for _ in range(k):
            digits.append(rest % p)
            rest //= p
        digits.reverse()  # digits[0] is the high (first) coordinate
        image = [sum(mat[r][c] * digits[c] for c in range(k)) % p for r in range(k)]
        iid = 0
        for d in image:
            iid = iid * p + d
        out.append(iid)
    return tuple(out)


def _matrix_mul(a, b, p):
    k = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(k))
        for i in range(k)
    )


def frobenius72_quaternion() -> Group:
    """The Frobenius group (C3 x C3) : Q8, order 72.

    Q8 sits inside GL(2,3) acting without nonzero fixed vectors, generated by
    [[0,-1],[1,0]] and [[1,1],[1,-1]].
    """
    v = abelian([3, 3])
    q8 = generalized_quaternion(8)
    mat_a = ((0, 2), (1, 0))
    mat_b = ((1, 1), (1, 2))
    ident = ((1, 0), (0, 1))
    rep: dict[int, tuple] = {0: ident}
    queue = [0]
    while queue:
        x = queue.pop()
        for gen, mat in ((1, mat_a), (4, mat_b)):
            y = int(q8.mul[x, gen])
            if y not in rep:
                rep[y] = _matrix_mul(rep[x], mat, 3)
                queue.append(y)
    action = [_matrix_perm(3, rep[t]) for t in range(8)]
    g = semidirect_product(v, q8, action)
    return Group(g.mul, label="F72:Q8", validate=False)


# -- assorted semidirect profiles -------------------------------------------------


def sl23() -> Group:
    """A group with the SL(2,3) profile: Q8 : C3 cycling i -> j -> k."""
    q8 = generalized_quaternion(8)
    sigma = automorphism_from_images(q8, [1, 4], [4, 5])  # a -> b, b -> ab
    identity = tuple(range(8))
    sigma2 = tuple(sigma[sigma[x]] for x in range(8))
    g = semidirect_product(q8, cyclic(3), [identity, sigma, sigma2])
    return Group(g.mul, label="SL23", validate=False)


def c7_c3() -> Group:
    """The nonabelian group of order 21, C7 : C3 via x -> 2x."""
    phi = tuple(2 * x % 7 for x in range(7))
    phi2 = tuple(phi[phi[x]] for x in range(7))
    g = semidirect_product(cyclic(7), cyclic(3), [tuple(range(7)), phi, phi2])
    return Group(g.mul, label="C7:C3", validate=False)


def c5c5_c3() -> Group:
    """(C5 x C5) : C3 with C3 acting irreducibly (companion of x^2+x+1)."""
    v = abelian([5, 5])
    m = ((0, 4), (1, 4))
    p1 = _matrix_perm(5, m)
    m2 = _matrix_mul(m, m, 5)
    p2 = _matrix_perm(5, m2)
    g = semidirect_product(v, cyclic(3), [tuple(range(25)), p1, p2])
    return Group(g.mul, label="C5^2:C3", validate=False)
