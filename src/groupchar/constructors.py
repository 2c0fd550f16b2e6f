"""Constructors for the standard small groups used throughout the library.

Each constructor makes its group's table once and one `Group` of it, under
the group's own label: a finished group is never copied only to rename it.
Every table here is a group by construction, so none runs Light's
associativity test (``validate=False``): a group law (`abelian`, `dihedral`,
`generalized_quaternion`, `agl1`), composition of permutations whose
closure `_perm_group`'s generator walk checks, an action `_semidirect`
checks is a homomorphism into Aut(A), a direct product, or the renamed
image of `Group.quotient`.  Every product table comes from `_product_table`.
Maps given on generators are extended along `groups._generator_chain`, the
walk `Group._closure` and `Group.generators` take too.
`_dimino_closure` closes permutation generators (`perm` files, matrix actions),
and `_orbit_labels` labels their orbits (matrix actions, G on Irr(N)).
"""

from __future__ import annotations

import itertools

import numpy as np

from ._modlinalg import vector_perms
from .errors import BoundExceeded, InvalidAction
from .gf import gf_field
from .groups import SUBGROUP_BOUND, Group, Subgroup, _generator_chain, _ids

CLOSURE_CELL_BOUND = 2 * 10 ** 7  # rows × base points a closure stores


def cyclic(n: int) -> Group:
    return abelian([n])


def _product_table(amul: np.ndarray, bmul: np.ndarray, act=None) -> np.ndarray:
    """The table of the pairs (a, b), id a·|B| + b, of the groups with tables
    ``amul`` and ``bmul``: (a1, b1)(a2, b2) = (a1·act[b1](a2), b1·b2), with
    ``act[b]`` a permutation of A's ids, or the identity when ``act`` is None
    (the direct product)."""
    nb = len(bmul)
    i = np.arange(len(amul) * nb)
    ai, bi = i // nb, i % nb
    right = ai[None, :] if act is None else act[bi[:, None], ai[None, :]]
    return amul[ai[:, None], right] * nb + bmul[bi[:, None], bi[None, :]]


def direct_product(a: Group, b: Group) -> Group:
    return Group(_product_table(a.mul, b.mul), label=f"{a.label}x{b.label}",
                 validate=False)


def abelian(invariants) -> Group:
    """Direct product of cyclic groups, e.g. abelian([4, 2]) for C4 x C2.

    Ids are mixed-radix digits, the first factor most significant, as
    `direct_product` numbers them.  The table takes one factor at a time,
    so no array is larger than the final n x n.
    """
    invs = np.asarray(invariants)  # floats are not truncated, strings not parsed
    if invs.ndim != 1 or not invs.size or invs.dtype.kind not in "iu" or invs.min() < 1:
        raise ValueError("invariants must be positive integers")
    invs = invs.tolist()
    mul = np.zeros((1, 1), dtype=np.int64)
    for d in invs:
        c = np.arange(d)
        mul = _product_table(mul, (c[:, None] + c) % d)
    return Group(mul, label="x".join(f"C{d}" for d in invs), validate=False)


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n; ids encode r^i s^j as i + n*j."""
    if n < 1:
        raise ValueError("need n >= 1")
    i = np.arange(2 * n)
    rot, flip = i % n, i // n
    sign = np.where(flip == 1, -1, 1)
    r = (rot[:, None] + sign[:, None] * rot[None, :]) % n
    f = (flip[:, None] + flip[None, :]) % 2
    return Group(r + n * f, label=f"D{2 * n}", validate=False)


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
    return Group(r + half * f, label=f"Q{m}", validate=False)


def _row_keys(ids: int, width: int):
    """A function from an (m, width) array of ids below ``ids`` to m keys.

    Each id has b bits, b the bit length of ids − 1 but at least 1; the ids
    are packed ⌊64/b⌋ to a uint64 word, ⌈width/⌊64/b⌋⌉ words per row, read as
    one bytes object per row through a void view."""
    bits = max((ids - 1).bit_length(), 1)
    per_word = 64 // bits
    words = -(-width // per_word)
    shifts = np.uint64(bits) * np.arange(per_word, dtype=np.uint64)
    key = np.dtype((np.void, 8 * words))

    def keys(rows: np.ndarray) -> list[bytes]:
        padded = np.zeros((len(rows), words * per_word), dtype=np.uint64)
        padded[:, :width] = rows
        packed = (padded.reshape(len(rows), words, per_word) << shifts).sum(
            axis=2, dtype=np.uint64)
        return packed.view(key).ravel().tolist()

    return keys


def _dimino_closure(perms, base, ids: int, bound: int, what: str, coset) -> np.ndarray:
    """The rows x[base] of the group generated by ``perms``, permutations of
    range(ids), by Dimino's coset closure.

    s·x for a generator s is the gather ``s[row]``, and ``coset(x, rows)``
    gives the rows of the left coset x·H from x's row and H's rows.  The
    first generator not in the group so far is closed by doubling,
    E ∪ g^k·E cut at the identity ``base``; each further one adds left
    cosets x·H of the previous subgroup H, one block each, until s·r lies in
    the union for every generator s and coset representative r.  Membership
    is one set of `_row_keys`.  Before a block is stored, more than ``bound``
    rows raise ``BoundExceeded`` named ``what``, and more than
    ``CLOSURE_CELL_BOUND`` ids one named "closure cells": memory grows with
    the base too."""
    keys = _row_keys(ids, len(base))
    rows = base[None, :]
    seen = set(keys(rows))
    taken: list[np.ndarray] = []

    def store(total: int, block: np.ndarray) -> None:
        size = total + len(block)
        if size > bound:
            raise BoundExceeded(what, bound + 1, bound)
        if size * len(base) > CLOSURE_CELL_BOUND:
            raise BoundExceeded("closure cells", size * len(base), CLOSURE_CELL_BOUND)
        seen.update(keys(block))

    for perm in perms:
        if keys(perm[base][None, :])[0] in seen:
            continue
        taken.append(perm)
        if len(taken) == 1:
            power = perm  # the permutation of g^k, k = len(rows)
            while True:
                block = power[rows]
                stop = np.flatnonzero((block == base).all(axis=1))
                if stop.size:
                    block = block[:stop[0]]
                store(len(rows), block)
                rows = np.concatenate([rows, block])
                if stop.size:
                    break
                power = power[power]
            continue
        blocks = [rows]
        total = len(rows)
        reps = [base]
        for r in reps:  # reps grows while it is read
            for s in taken:
                x = s[r]
                if keys(x[None, :])[0] in seen:
                    continue
                block = coset(x, rows)
                store(total, block)
                blocks.append(block)
                total += len(block)
                reps.append(x)
        rows = np.concatenate(blocks)
    return rows


def _orbit_labels(perms, size: int) -> np.ndarray:
    """Each point's least orbit-mate under the group that ``perms``,
    permutations of range(size), generate.

    A pass gives every point the least label on its cycle under each
    permutation in turn: with ``step`` that permutation's 2^k-th power, a
    label takes the least of itself and its image's label and ``step``
    squares, until no label moves; then every point takes the label of its
    label.  A label is always a point of the same orbit and never larger, so
    when a pass changes nothing the labels are constant on orbits and each
    is its orbit's least point."""
    label = np.arange(size)
    while True:
        start = label
        for perm in perms:
            step = perm
            while not np.array_equal(low := np.minimum(label, label[step]), label):
                label, step = low, step[step]
            label = label[label]
        if np.array_equal(label, start):
            return label


def _perm_group(perms, label: str) -> Group:
    """The Cayley table of a list of permutations closed under composition.

    Element i is perms[i], and i*j is s∘t with (s∘t)[x] = s[t[x]] for
    s = perms[i], t = perms[j]; perms[0] must be the identity and no
    permutation may repeat (``ValueError`` otherwise).  The table is built
    by a breadth-first walk of the Cayley graph from the identity on
    generators taken as needed, each the least id not yet reached.  A
    generator g's left-multiplication map L_g[x] = id(g∘x) is one gather
    and one exact lookup of a `_row_keys` key per element (a miss raises
    ``ValueError``), and each new element c = g∘a gets its row as
    mul[c] = L_g[mul[a]], since (g∘a)∘x = g∘(a∘x).  The walk reaches every
    element, so the list is closed exactly when every L_g is defined.
    """
    p = np.asarray(perms, dtype=np.int64)
    n = len(p)
    # Both checks also end the walk: each new generator g is reached at
    # once, as L_g[0] = g.
    if n == 0 or not np.array_equal(p[0], np.arange(p.shape[1])):
        raise ValueError("the first permutation must be the identity")
    keys = _row_keys(p.shape[1], p.shape[1])
    index = {key: i for i, key in enumerate(keys(p))}
    if len(index) != n:
        raise ValueError("a permutation is repeated")

    def left_map(g: int) -> np.ndarray:
        try:
            return np.array([index[key] for key in keys(p[g][p])], dtype=np.int64)
        except KeyError:
            raise ValueError("permutations are not closed under composition") from None

    mul = np.empty((n, n), dtype=np.int64)
    mul[0] = np.arange(n)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    maps = np.empty((0, n), dtype=np.int64)
    frontier = np.zeros(0, dtype=np.int64)
    while not reached.all():
        if not frontier.size:  # closed under the generators so far
            maps = np.vstack([maps, left_map(int(np.argmin(reached)))])
            frontier = np.flatnonzero(reached)
        products = maps[:, frontier].ravel()  # generator-major, one per (g, a)
        fresh, first = np.unique(products, return_index=True)
        keep = ~reached[fresh]
        fresh, first = fresh[keep], first[keep]
        gen, parent = np.divmod(first, len(frontier))
        mul[fresh] = maps[gen[:, None], mul[frontier[parent]]]
        reached[fresh] = True
        frontier = fresh
    return Group(mul, label=label, validate=False)


def sym(n: int) -> Group:
    """Symmetric group on n points (n <= 5); lexicographic element order."""
    if not 1 <= n <= 5:
        raise ValueError("supported for 1 <= n <= 5")
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    return _perm_group(perms, f"S{n}")


def alt(n: int) -> Group:
    """Alternating group on n points (n <= 5)."""
    if not 1 <= n <= 5:
        raise ValueError("supported for 1 <= n <= 5")
    perms = [p for p in itertools.permutations(range(n))  # even: an even inversion count
             if sum(x > y for x, y in itertools.combinations(p, 2)) % 2 == 0]
    return _perm_group(perms, f"A{n}")


# -- semidirect products ----------------------------------------------------------


def _check_automorphism(a: Group, perm: np.ndarray) -> bool:
    if sorted(perm.tolist()) != list(range(a.order)):
        return False
    if perm[0] != 0:
        return False
    return bool(np.array_equal(perm[a.mul], a.mul[perm[:, None], perm[None, :]]))


def semidirect_product(a: Group, b: Group, action) -> Group:
    """Split extension A : B, labelled "A:B"; see `_semidirect`."""
    return _semidirect(a, b, action, f"{a.label}:{b.label}")


def _semidirect(a: Group, b: Group, action, label: str) -> Group:
    """Split extension A : B under ``label``.

    ``action`` maps each element of B to an automorphism of A given as a
    permutation table on A's ids; it must be a homomorphism B -> Aut(A)
    (so action[b1 * b2] = action[b1] o action[b2]).  Multiplication is
    (a1, b1)(a2, b2) = (a1 * action[b1](a2), b1 * b2), ids a * |B| + b.
    """
    act = _ids([list(row) for row in action], a.order, "action entries")
    if act.shape != (b.order, a.order):
        raise InvalidAction("need one automorphism table per element of B")
    for t in range(b.order):
        if not _check_automorphism(a, act[t]):
            raise InvalidAction(f"image of element {t} is not an automorphism")
    if not np.array_equal(act[0], np.arange(a.order)):
        raise InvalidAction("identity of B must act trivially")
    if not np.array_equal(act[b.mul], act[np.arange(b.order)[:, None, None], act]):
        raise InvalidAction("action is not a homomorphism into Aut(A)")
    return Group(_product_table(a.mul, b.mul, act), label=label, validate=False)


def _cyclic_extension(a: Group, m: int, auto, label: str) -> Group:
    """A : C_m under ``label``, element k of C_m acting as the k-th power of
    ``auto``, an automorphism of A (a permutation of its ids) whose order
    divides m."""
    auto = np.asarray(auto, dtype=np.int64)
    action = [np.arange(a.order)]
    for _ in range(m - 1):
        action.append(auto[action[-1]])
    return _semidirect(a, cyclic(m), action, label)


def automorphism_from_images(g: Group, gens, images) -> tuple[int, ...]:
    """The automorphism of g sending each generator to its image.

    Extends multiplicatively along g's generator chain over ``gens``, then
    checks that every element is reached, that every listed generator (a
    repeated one or the identity too) goes to its image, and that the
    result is an automorphism; `InvalidAction` otherwise.
    """
    gens = _ids(gens, g.order, "generators").tolist()
    images = _ids(images, g.order, "images").tolist()
    if len(gens) != len(images):
        raise ValueError("need one image per generator")
    levels = _generator_chain(g, gens)
    kept = [images[gens.index(level[0])] for level in levels]
    perm = np.full(g.order, -1, dtype=np.int64)
    perm[0] = 0
    for _, fresh, parents, gen_pos in levels:
        for e, p, k in zip(fresh, parents, gen_pos):
            perm[e] = g.mul[perm[p], kept[k]]
    if (perm < 0).any():
        raise InvalidAction("generators do not generate the group")
    if perm[gens].tolist() != images or not _check_automorphism(g, perm):
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
    k = Subgroup(d, [0, zx * y.order + zy])  # central, so normal
    return Group(d.quotient(k).mul, label=f"{x.label}o{y.label}", validate=False)


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

    q must be a prime power.  The Cayley table has (q(q-1))^2 entries, so an
    order past ``SUBGROUP_BOUND``, the largest any command accepts, raises
    `BoundExceeded` before the field or any array is made: q = 43 is the
    largest prime power that passes.
    """
    n = q * (q - 1)
    if n > SUBGROUP_BOUND:
        raise BoundExceeded("agl1 order", n, SUBGROUP_BOUND)
    field = gf_field(q)
    i = np.arange(n)
    a, bv = i // q + 1, i % q  # unit value a, translation b
    prod_a = field.mul[a[:, None], a[None, :]]
    prod_b = field.add[field.mul[a[:, None], bv[None, :]], bv[:, None]]
    mul = (prod_a - 1) * q + prod_b
    return Group(mul, label=f"AGL1({q})", validate=False)


def _matrix_perm(p: int, mat) -> np.ndarray:
    """Permutation of GF(p)^k vector ids under a matrix, with big-endian ids
    (the first coordinate is the high digit).  Those are the little-endian
    ids of the reversed vectors, on which the matrix acts as mat[::-1, ::-1]."""
    mat = np.asarray(mat, dtype=np.int64)
    return vector_perms(p, len(mat), [mat[::-1, ::-1]])[0]


def frobenius72_quaternion() -> Group:
    """The Frobenius group (C3 x C3) : Q8, order 72.

    Q8 sits inside GL(2,3) acting without nonzero fixed vectors, generated by
    [[0,-1],[1,0]] and [[1,1],[1,-1]], the images of Q8's ids 1 and 4,
    extended along its generator chain.
    """
    v = abelian([3, 3])
    q8 = generalized_quaternion(8)
    mats = {1: np.array([[0, 2], [1, 0]]), 4: np.array([[1, 1], [1, 2]])}
    levels = _generator_chain(q8, list(mats))
    kept = [mats[level[0]] for level in levels]
    rep = {0: np.eye(2, dtype=np.int64)}
    for _, fresh, parents, gen_pos in levels:
        for e, p, k in zip(fresh, parents, gen_pos):
            rep[e] = rep[p] @ kept[k] % 3
    action = [_matrix_perm(3, rep[t]) for t in range(8)]
    return _semidirect(v, q8, action, "F72:Q8")


# -- assorted semidirect profiles -------------------------------------------------


def sl23() -> Group:
    """A group with the SL(2,3) profile: Q8 : C3 cycling i -> j -> k."""
    q8 = generalized_quaternion(8)
    sigma = automorphism_from_images(q8, [1, 4], [4, 5])  # a -> b, b -> ab
    return _cyclic_extension(q8, 3, sigma, "SL23")


def c7_c3() -> Group:
    """The nonabelian group of order 21, C7 : C3 via x -> 2x."""
    return _cyclic_extension(cyclic(7), 3, [2 * x % 7 for x in range(7)], "C7:C3")


def c5c5_c3() -> Group:
    """(C5 x C5) : C3 with C3 acting irreducibly (companion of x^2+x+1)."""
    companion = _matrix_perm(5, [[0, 4], [1, 4]])
    return _cyclic_extension(abelian([5, 5]), 3, companion, "C5^2:C3")
