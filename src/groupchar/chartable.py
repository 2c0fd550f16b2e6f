"""Exact irreducible character tables of small finite groups.

The pipeline is the classical class-algebra method: the class-multiplication
matrices commute and have a common eigenbasis over a prime field F_q chosen
with q ≡ 1 (mod e) and q > 2|G| (e the group exponent), whose vectors are
the central characters mod q.  They are found by splitting (Schneider,
"Dixon's character table algorithm revisited", 1990):

* the whole space is split first by one combination sum c_i * C_i of the
  non-identity class matrices, with weights from a fixed-seed generator,
  which usually separates every character at once;
* in each split, the eigenvector of every simple root of the block's
  charpoly is the projection of one seeded probe vector through its
  Krylov rows, checked exactly; repeated roots, and projections that
  vanish, take a nullspace instead;
* blocks left by repeated eigenvalues are split by the single class
  matrices in a fixed order (increasing class size, ties by
  representative id) until every block is one-dimensional.

Degrees follow from the orthogonality relation, and each value is lifted to
an exact cyclotomic integer by extracting root-of-unity multiplicities,
which are genuine nonnegative integers below q and therefore unambiguous
residues.  A table stores the lifted values as one coefficient array, and
derives its values mod q and its kernel and zero masks from it;
``Character.values`` turns a row into ``Cyclotomic`` objects on demand.

The output does not depend on the weights or the probes: the eigenvectors
are unique up to scale and normalized, the prime choice is fixed, and rows
are put in canonical order (trivial character first, then by degree and
lexicographic coefficients).

Most groups a scan meets are isomorphic to one that already holds a table,
so ``compute_table`` first looks in a pool of weak references to the live
groups that hold one, keyed on the order and the multiset of (element
order, class size).  An isomorphism to a pooled group is searched for by
mapping generators to candidate images (Miller's generator-image
technique, under a node budget) and checked exactly in full; the table is
then read off through it as a column gather and put in canonical order.
The rows, the prime (fixed by exponent and order) and the root are the
ones the build would give, so both routes give the same bytes.  The pool
holds no table that a live group does not hold, so it needs no bound, and
nothing carries over once the groups are gone.  Like the group caches it
is filled without a lock: concurrent first calls may build or pool the
same type twice, which changes no result.  Only ``table_counts``, the
number of tables built and transported, is updated under a lock.
"""

from __future__ import annotations

import threading
import weakref
from functools import lru_cache
from math import gcd, isqrt, prod

import numpy as np

from ._arith import euler_phi, is_prime, isqrt_exact
from ._modlinalg import (
    charpoly_mod,
    inv_mod,
    nullspace_mod,
    poly_eval_mod,
    poly_roots_mod,
    rref_mod,
    element_of_order,
)
from .cyclotomic import Cyclotomic, _reduction_table
from .errors import (
    BoundExceeded,
    ContractViolation,
    NoSuitablePrime,
    SplitFailure,
)
from .groups import Group, Subgroup

TABLE_ORDER_BOUND = 512

_PRIME_SEARCH_CAP = 2_000_000
_CHECK_PRIME_CEILING = 1 << 20  # largest modulus verify_table evaluates at
_FLOAT_EXACT = 1 << 53          # float64 sums of integers below this are exact


def dixon_prime(exponent: int, order: int) -> int:
    """Smallest prime q ≡ 1 (mod exponent) with q > 2 * order."""
    e = exponent
    t = (2 * order) // e + 1
    while e * t + 1 <= _PRIME_SEARCH_CAP:
        q = e * t + 1
        if q > 2 * order and is_prime(q):
            return q
        t += 1
    raise NoSuitablePrime(f"no prime q = 1 mod {e} with q > {2 * order} below cap")


class Character:
    """One row of a character table.

    ``values`` holds the exact value on each conjugacy class as a
    ``Cyclotomic``.  It is built from the table's coefficient array on first
    access and cached; the library's own checks read the arrays only.
    """

    __slots__ = ("table", "index", "degree", "_values")

    def __init__(self, table: "CharacterTable", index: int, degree: int):
        self.table = table
        self.index = index
        self.degree = degree
        self._values: tuple[Cyclotomic, ...] | None = None

    @property
    def values(self) -> tuple[Cyclotomic, ...]:
        if self._values is None:
            e = self.table.conductor
            self._values = tuple(Cyclotomic(e, c) for c in self.table._coeffs[self.index])
        return self._values

    def kernel(self) -> Subgroup:
        """{g : χ(g) = χ(1)}, decided via the trivial-root multiplicities."""
        return self.table._kernel_subgroup(self.index)

    def __call__(self, g: int) -> Cyclotomic:
        return self.values[self.table.classes.class_of[g]]

    def __repr__(self):
        return f"<Character deg={self.degree} of {self.table.group.label}>"


class CharacterTable:
    """All irreducible characters of a group, exactly.

    Public fields: ``group``, ``classes``, ``rows`` (trivial character
    first, then sorted by degree and lexicographic coefficient vectors),
    ``degrees`` (an int64 array in row order), ``conductor`` (= group
    exponent), ``prime`` (the working modulus).
    """

    def __init__(self, group, classes, degrees, conductor, prime, root, coeffs):
        self.group = group
        self.classes = classes
        self.conductor = conductor
        self.prime = prime
        self.root = root
        self._coeffs = coeffs  # (rows, classes, phi(e)) exact ints
        # Derived from the coefficients: the values mod prime (root as the
        # primitive e-th root of unity), the classes in each kernel
        # (χ(g) = χ(1) exactly), and the classes where each row vanishes.
        powers = np.array([pow(int(root), i, prime) for i in range(coeffs.shape[2])],
                          dtype=np.int64)
        self._modq = coeffs @ powers % prime
        self._kernel_mask = ((coeffs[:, :, 0] == degrees[:, None])
                             & ~coeffs[:, :, 1:].any(axis=2))
        self._zero_mask = ~coeffs.any(axis=2)
        self.degrees = degrees
        self.rows = tuple(Character(self, i, int(d)) for i, d in enumerate(degrees))
        self._kernels: dict[int, Subgroup] = {}

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def _kernel_subgroup(self, index: int) -> Subgroup:
        if index not in self._kernels:
            g = self.group
            elems = np.flatnonzero(self._kernel_mask[index][self.classes.class_of])
            sub = Subgroup(g, elems)
            prod = g.mul[np.ix_(elems, elems)]
            if not np.all(sub.member_mask()[prod]):
                raise ContractViolation("character kernel is not closed")
            if not sub.is_normal:
                raise ContractViolation("character kernel is not normal")
            self._kernels[index] = sub
        return self._kernels[index]

    def __repr__(self):
        return (f"<CharacterTable {self.group.label}: {len(self.rows)} rows, "
                f"conductor {self.conductor}, prime {self.prime}>")


def compute_table(group: Group) -> CharacterTable:
    """Exact character table of ``group`` (cached on the group).

    The table is transported from a live isomorphic group that already
    holds one when the pool has such a group and the isomorphism search
    finds a map within ``ISOMORPHISM_NODE_BUDGET``; otherwise it is built.
    Both routes give the same bytes.
    """
    cached = group._cache.get("table")
    if cached is not None:
        return cached
    n = group.order
    if n > TABLE_ORDER_BOUND:
        raise BoundExceeded("character table order", n, TABLE_ORDER_BOUND)
    found = _transport_from_pool(group)
    if found is None:
        table, kin = _build_table(group), None
    else:
        table, kin = found
    with _COUNT_LOCK:
        table_counts["built" if kin is None else "transported"] += 1
    group._cache["table"] = table
    _pool_add(group, kin)
    return table


def _build_table(group: Group) -> CharacterTable:
    """The table by the class-algebra split; neither cached nor pooled."""
    n = group.order
    cc = group.conjugacy_classes()
    k = len(cc.reps)
    e = group.exponent
    q = dixon_prime(e, n)
    z = element_of_order(e, q)
    zpow = np.ones(e, dtype=np.int64)
    for i in range(1, e):
        zpow[i] = zpow[i - 1] * z % q

    inv_sizes = np.array([inv_mod(s, q) for s in cc.sizes.tolist()], dtype=np.int64)
    omegas = _split_central_characters(group, cc, q)

    # Degrees from first orthogonality: d^2 = |G| / sum_k w_k w_{k*} / |C_k|.
    # Since q > 2|G| >= 2d^2, the residue of d^2 mod q is d^2 itself.
    invcls = cc.inverse_class
    t_sums = (omegas * omegas[:, invcls] % q * inv_sizes[None, :] % q).sum(axis=1) % q
    degrees = np.empty(k, dtype=np.int64)
    for r in range(k):
        ts = int(t_sums[r])
        if ts == 0:
            raise ContractViolation("degenerate degree sum in table recovery")
        dsq = n * inv_mod(ts, q) % q
        d = isqrt_exact(dsq)
        if d is None or not 1 <= dsq <= n:
            raise ContractViolation("degree square is not a square in [1, |G|]")
        degrees[r] = d
    if int((degrees * degrees).sum()) != n:
        raise ContractViolation("degree squares do not sum to group order")
    for d in degrees:
        if n % int(d):
            raise ContractViolation("character degree does not divide group order")

    # Character values mod q: X[r, k] = d_r * omega_{r,k} / |C_k|.
    modq = degrees[:, None] * omegas % q * inv_sizes[None, :] % q

    # Lift every value to an exact cyclotomic integer.
    phi = euler_phi(e)
    red = np.array(_reduction_table(e), dtype=np.int64)
    coeffs = np.zeros((k, k, phi), dtype=np.int64)
    mul = group.mul
    for c in range(k):
        rep = int(cc.reps[c])
        o = int(group.elt_order[rep])
        step = e // o
        powers = np.empty(o, dtype=np.int64)
        powers[0] = 0
        for t in range(1, o):
            powers[t] = mul[powers[t - 1], rep]
        pow_classes = cc.class_of[powers]
        jt = np.outer(np.arange(o), np.arange(o))
        w = zpow[(-jt % o) * step]                    # w[j, t] = z_o^{-jt}
        inv_o = inv_mod(o, q)
        mults = modq[:, pow_classes] @ w.T % q * inv_o % q
        if not np.array_equal(mults.sum(axis=1), degrees):
            raise ContractViolation("root multiplicities do not sum to degree")
        exps = np.arange(o, dtype=np.int64) * step % e
        coeffs[:, c, :] = mults @ red[exps]

    order = _canonical_order(degrees, coeffs)
    table = CharacterTable(group, cc, degrees[order], e, q, z, coeffs[order])
    # Cross-check the lift against the modular table.
    if not np.array_equal(table._modq, modq[order]):
        raise ContractViolation("lifted values disagree with modular table")
    return table


def _canonical_order(degrees: np.ndarray, coeffs: np.ndarray) -> list[int]:
    """Row order: the trivial character first, then (degree, lex coefficients)
    in the group's own class order."""
    one = np.zeros(coeffs.shape[2], dtype=np.int64)
    one[0] = 1
    trivial_rows = np.nonzero(
        (degrees == 1) & np.all(coeffs == one[None, None, :], axis=(1, 2))
    )[0]
    if trivial_rows.size != 1:
        raise ContractViolation("trivial character not uniquely identified")
    triv = int(trivial_rows[0])
    # np.lexsort takes its last key first: degree, then coefficient 0, 1, ...
    flat = coeffs.reshape(len(degrees), -1)
    order = np.lexsort(np.vstack([flat.T[::-1], degrees[None, :]]))
    return [triv] + [int(r) for r in order if r != triv]


# -- transport along an isomorphism ------------------------------------------

# Candidate images the isomorphism search may try before it gives up and
# the table is built instead.
ISOMORPHISM_NODE_BUDGET = 2000

# Tables built by the class-algebra split and tables transported from an
# isomorphic group, since import.
table_counts = {"built": 0, "transported": 0}
_COUNT_LOCK = threading.Lock()

# _isomorphism_key() -> one list per isomorphism type met, of weak
# references to the live groups of that type that hold a table.  A
# reference drops out when its group dies, so the pool holds no table that
# a live group does not hold itself.
_TABLE_POOL: dict[tuple, list[list["_Member"]]] = {}


class _Member(weakref.ref):
    """A weak reference to a pooled group, with the lists that hold it:
    its isomorphic kin and the types under its key."""

    __slots__ = ("kin", "types")


def _element_key(group: Group) -> np.ndarray:
    """(element order, class size, number of square roots) of every
    element, coded as one int64: an isomorphism maps each element to one
    with the same key.  The pool key keeps the first two; the root count
    prunes the search where many elements share an order and a class size."""
    if "element_key" not in group._cache:
        n = group.order
        cc = group.conjugacy_classes()
        sizes = cc.sizes[cc.class_of]
        ids = np.arange(n)
        roots = np.bincount(group.mul[ids, ids], minlength=n)
        code = group.elt_order * (n + 1) + sizes
        group._cache["element_key"] = code * (n + 1) + roots
    return group._cache["element_key"]


def _isomorphism_key(group: Group) -> tuple[int, bytes]:
    """The order and the multiset of (element order, class size): equal for
    isomorphic groups, though equal keys do not prove an isomorphism."""
    return group.order, np.sort(_element_key(group) // (group.order + 1)).tobytes()


def _pool_add(group: Group, kin: list[_Member] | None) -> None:
    """Pool ``group`` with its isomorphic ``kin``, or as a new type when
    ``kin`` is None or has left the pool since (its groups died)."""
    types = _TABLE_POOL.setdefault(_isomorphism_key(group), [])
    if not any(k is kin for k in types):
        kin = []
        types.append(kin)
    member = _Member(group, _forget)
    member.kin, member.types = kin, types
    kin.append(member)


def _forget(member: _Member) -> None:
    """Drop a pooled group that died, then its type once no kin is left,
    then the key once it has no type."""
    kin, types = member.kin, member.types
    if member in kin:
        kin.remove(member)
    if not kin:
        types[:] = [k for k in types if k is not kin]
    if not types:
        for key, value in list(_TABLE_POOL.items()):
            if value is types:
                del _TABLE_POOL[key]


def _transport_from_pool(group: Group) -> tuple[CharacterTable, list] | None:
    """The table of ``group`` carried over from a pooled isomorphic group,
    with that group's kin, or None when no pooled type is found isomorphic
    within the budget."""
    for kin in list(_TABLE_POOL.get(_isomorphism_key(group), ())):
        source = kin[0]() if kin else None
        if source is None:
            continue
        phi = _find_isomorphism(group, source)
        if phi is not None:
            return _transport(group, source, phi), kin
    return None


def _find_isomorphism(h: Group, s: Group) -> np.ndarray | None:
    """An isomorphism h -> s as an id array, or None when none is found
    within ``ISOMORPHISM_NODE_BUDGET`` candidate images.

    The generators of h are mapped one at a time, the rarest element key
    first, to elements of s with the same key that lie outside the image of
    the earlier ones (Miller's generator-image technique).  Each choice
    fixes the map on the elements the new generator adds to the span, along
    the Cayley graph, and is kept only if it is injective, keeps every
    element key and respects every new product by a generator.
    """
    n = h.order
    if np.array_equal(h.mul, s.mul):
        return np.arange(n)
    key_h, key_s = _element_key(h), _element_key(s)
    gens = sorted(h.generators(), key=lambda g: (np.count_nonzero(key_h == key_h[g]), g))
    levels = _generator_chain(h, gens)
    phi = np.zeros(n, dtype=np.int64)
    phi_list = [0] * n
    images = np.zeros(len(levels), dtype=np.int64)  # image of each generator
    columns: list[list[int]] = [[]] * len(levels)   # x -> x * image, in s
    budget = ISOMORPHISM_NODE_BUDGET
    # Composed with conjugation in s an isomorphism stays one, so the
    # first generator need only go to class representatives.
    class_reps = np.zeros(n, dtype=bool)
    class_reps[s.conjugacy_classes().reps] = True

    def search(depth: int, used: np.ndarray) -> bool | None:
        """True when the map is complete, False when no choice fits, None
        when the budget ran out."""
        nonlocal budget
        if depth == len(levels):
            return True
        g, fresh, parents, gen_pos, f, x, j, y = levels[depth]
        choices = (key_s == key_h[g]) & ~used
        if depth == 0:
            choices &= class_reps
        for t in np.flatnonzero(choices).tolist():
            if budget == 0:
                return None
            budget -= 1
            images[depth] = t
            columns[depth] = s.mul[:, t].tolist()
            for e, p, k in zip(fresh, parents, gen_pos):
                phi_list[e] = columns[k][phi_list[p]]
            img = np.array([phi_list[e] for e in fresh], dtype=np.int64)
            phi[f] = img
            now = used.copy()
            now[img] = True
            if (np.count_nonzero(now) == np.count_nonzero(used) + img.size
                    and np.array_equal(key_s[img], key_h[f])
                    and np.array_equal(s.mul[phi[x], images[j]], phi[y])):
                found = search(depth + 1, now)
                if found is not False:
                    return found
        return False

    used = np.zeros(n, dtype=bool)
    used[0] = True
    return phi if search(0, used) else None


def _generator_chain(h: Group, gens) -> list[tuple]:
    """One level per generator outside the span of those before it:
    (generator, fresh, parents, gen_pos, fresh as an array, x, j, y).

    ``fresh`` lists the elements the generator adds to the span, in
    breadth-first order along the Cayley graph: fresh[i] = parents[i] *
    (the gen_pos[i]-th kept generator), each parent older or earlier in
    the list.  (x, j, y) are the products y = x * (j-th kept generator)
    that first lie inside this level's span: fresh elements by every kept
    generator, older elements by the new one.
    """
    inside = bytearray(h.order)
    inside[0] = 1
    span = [0]
    kept: list[int] = []
    columns: list[list[int]] = []   # x -> x * generator, in h
    levels = []
    for g in gens:
        if inside[g]:
            continue
        kept.append(g)
        columns.append(h.mul[:, g].tolist())
        new = len(kept) - 1
        fresh, parents, gen_pos = [], [], []
        # Older elements by the new generator, then fresh ones, as they are
        # reached, by every kept generator.
        work = [(a, new) for a in span]
        for a, k in work:  # grows as it goes
            b = columns[k][a]
            if not inside[b]:
                inside[b] = 1
                fresh.append(b)
                parents.append(a)
                gen_pos.append(k)
                work.extend((b, i) for i in range(len(kept)))
        f, old = np.array(fresh, dtype=np.int64), np.array(span, dtype=np.int64)
        m = len(kept)
        x = np.concatenate([np.repeat(f, m), old])
        j = np.concatenate([np.arange(f.size * m) % m, np.full(old.size, new)])
        levels.append((g, fresh, parents, gen_pos, f, x, j, h.mul[x, np.array(kept)[j]]))
        span += fresh
    return levels


def _transport(h: Group, s: Group, phi: np.ndarray) -> CharacterTable:
    """The table of h read off the table of s through the isomorphism phi:
    each class of h takes the column of the class of phi(rep), and the rows
    are put in canonical order."""
    n = h.order
    if not np.array_equal(np.sort(phi), np.arange(n)):
        raise ContractViolation("isomorphism search returned a non-bijection")
    if not np.array_equal(phi[h.mul], s.mul[phi[:, None], phi[None, :]]):
        raise ContractViolation("isomorphism search returned a non-homomorphism")
    src = s._cache["table"]
    cc = h.conjugacy_classes()
    cols = _image_classes(h, s, phi)
    coeffs = src._coeffs[:, cols]
    order = _canonical_order(src.degrees, coeffs)
    return CharacterTable(h, cc, src.degrees[order], src.conductor, src.prime,
                          src.root, coeffs[order])


def _image_classes(h: Group, s: Group, phi: np.ndarray) -> np.ndarray:
    """The class of s that holds phi(rep), for each class of h."""
    return s.conjugacy_classes().class_of[phi[h.conjugacy_classes().reps]]


# Seed of the generator behind the combination weights and the probe
# vectors.  Every seed yields the same table; a fixed one keeps the work
# done, and so the timings, repeatable.
_SPLIT_SEED = 0x5C4E1D


def _combination_weights(rng: np.random.Generator, count: int, q: int) -> np.ndarray:
    """Weights c_i of the combined class matrix sum c_i * C_i (nonzero mod q)."""
    return rng.integers(1, q, size=count)


def _probe_vector(rng: np.random.Generator, d: int, q: int) -> np.ndarray:
    """Vector projected onto the simple eigenspaces of a d-dimensional block."""
    return rng.integers(0, q, size=d)


def _class_matrix_sum(group: Group, cc, elems: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """M[j, c] = sum of weights[x] over x in elems with x^-1 * rep_c in class j.

    With the members of class i and unit weights this is the class matrix
    C_i; with every non-identity element weighted by its class's c_i it is
    sum c_i * C_i.
    """
    k = len(cc.reps)
    prod_classes = cc.class_of[group.mul[np.ix_(group.inv[elems], cc.reps)]]
    m = np.zeros((k, k), dtype=np.int64)
    np.add.at(
        m,
        (prod_classes.ravel(), np.tile(np.arange(k), elems.size)),
        np.repeat(weights, k),
    )
    return m


def _split_central_characters(group: Group, cc, q: int) -> np.ndarray:
    """Common eigenbasis of the class matrices over F_q, one row per character,
    normalized so the identity-class coordinate is 1.

    The whole space is split first by one seeded combination sum c_i * C_i
    of the non-identity class matrices; blocks left by repeated eigenvalues
    are split by the class matrices one at a time (increasing class size,
    ties by representative id) until every block is one-dimensional.
    """
    k = len(cc.reps)
    rng = np.random.default_rng(_SPLIT_SEED)
    blocks: list[tuple[np.ndarray, list[int]]] = [
        (np.eye(k, dtype=np.int64), list(range(k)))
    ]
    others = np.arange(1, group.order)
    weights = np.zeros(k, dtype=np.int64)
    weights[1:] = _combination_weights(rng, k - 1, q)
    combined = _class_matrix_sum(group, cc, others, weights[cc.class_of[others]])
    blocks = _split_blocks(blocks, combined.T % q, q, rng)

    class_order = np.lexsort((cc.reps, cc.sizes))[1:]  # class 0 sorts first
    for i in class_order:
        if all(b.shape[0] == 1 for b, _ in blocks):
            break
        members = cc.members[i]
        mat = _class_matrix_sum(group, cc, members, np.ones(members.size, dtype=np.int64))
        blocks = _split_blocks(blocks, mat.T, q, rng)

    if any(b.shape[0] != 1 for b, _ in blocks):
        raise SplitFailure("classes exhausted before one-dimensional split")
    omegas = np.zeros((k, k), dtype=np.int64)
    for r, (basis, _) in enumerate(blocks):
        v = basis[0]
        if int(v[0]) == 0:
            raise SplitFailure("eigenvector vanishes on the identity class")
        omegas[r] = v * inv_mod(int(v[0]), q) % q
    return omegas


def _split_blocks(blocks, mat_t: np.ndarray, q: int, rng: np.random.Generator):
    """Split every block of dimension above one into eigenspaces of mat_t."""
    out: list[tuple[np.ndarray, list[int]]] = []
    for basis, pivots in blocks:
        if basis.shape[0] == 1:
            out.append((basis, pivots))
        else:
            out.extend(_split_block(basis, pivots, mat_t, q, rng))
    return out


def _line(vec: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A one-dimensional block: the vector and its first nonzero column."""
    return vec[None, :], [int(np.flatnonzero(vec)[0])]


def _split_block(basis: np.ndarray, pivots: list[int], mat_t: np.ndarray, q: int,
                 rng: np.random.Generator) -> list[tuple[np.ndarray, list[int]]]:
    """Eigenspaces of x -> x @ mat_t on the row space of ``basis`` (RREF with
    the given pivot columns), each as (basis, pivots).

    The eigenvector of each simple root λ_j of the block's charpoly p is the
    projection u * m_j(A) of one probe vector u, where m(x) is the product
    of (x - λ) over the distinct roots and m_j(x) = m(x) / (x - λ_j).  It is
    checked exactly.  Repeated roots, and simple roots whose projection is
    zero, take a nullspace instead.
    """
    d = basis.shape[0]
    mapped = basis @ mat_t % q
    a = mapped[:, pivots]                       # action matrix (row form)
    if not np.array_equal(a @ basis % q, mapped):
        raise SplitFailure("class matrix does not preserve the block")
    if np.array_equal(a, int(a[0, 0]) * np.eye(d, dtype=np.int64)):
        return [(basis, pivots)]                # a scalar: nothing to split
    poly = charpoly_mod(a.T, q)
    roots = poly_roots_mod(poly, q)
    deriv = poly[1:] * np.arange(1, poly.size, dtype=np.int64) % q
    is_simple = poly_eval_mod(deriv, roots, q) != 0
    simple = roots[is_simple]
    rest = roots[~is_simple]                    # roots that take a nullspace

    out: list[tuple[np.ndarray, list[int]]] = []
    if simple.size:
        s = roots.size
        m = np.ones(1, dtype=np.int64)
        for lam in roots:
            m = (np.concatenate(([0], m)) - int(lam) * np.concatenate((m, [0]))) % q
        # Quotients m(x) / (x - λ_j) by synthetic division, one row per λ_j.
        quot = np.zeros((simple.size, s), dtype=np.int64)
        quot[:, s - 1] = 1
        for t in range(s - 1, 0, -1):
            quot[:, t - 1] = (m[t] + simple * quot[:, t]) % q
        krylov = np.empty((s, d), dtype=np.int64)
        krylov[0] = _probe_vector(rng, d, q)
        for t in range(1, s):
            krylov[t] = krylov[t - 1] @ a % q
        proj = quot @ krylov % q
        hit = proj.any(axis=1)
        proj = proj[hit]
        rest = np.concatenate((rest, simple[~hit]))
        if not np.array_equal(proj @ a % q, simple[hit, None] * proj % q):
            raise SplitFailure("projected vector is not an eigenvector")
        out.extend(_line(v) for v in proj @ basis % q)

    found = len(out)
    for lam in rest:
        shifted = (a.T - int(lam) * np.eye(d, dtype=np.int64)) % q
        null = nullspace_mod(shifted, q)
        if null.shape[0] == 0:
            continue
        found += null.shape[0]
        span = null @ basis % q
        out.append(_line(span[0]) if null.shape[0] == 1 else rref_mod(span, q))
    if found != d:
        raise SplitFailure("eigenspaces do not fill the block")
    return out


def verify_table(table: CharacterTable) -> dict:
    """Exact check of the degrees and both orthogonality relations.

    The row relation X·W·(XP)ᵀ = |G|·I (W the class sizes, P the
    inverse-class permutation) is an identity in Z[ζ_e], checked mod primes
    r ≡ 1 (mod e), where Z[ζ_e]/r ≅ F_r^φ(e) through the primitive e-th
    roots of F_r: one batch of k×k products mod r per root.  The primes
    multiply past 2B, B a bound on every Gram coefficient minus its expected
    value, so agreement mod each is equality (CRT).  The products run in
    float64 once every partial sum is known to stay below 2^53.  A
    ContractViolation names r, the root and the first failing pair.  The
    column relation Xᵀ·XP = |G|·W⁻¹ then follows, X being square, once P is
    checked to be an involution that keeps class sizes.
    """
    n = table.group.order
    classes = table.classes
    k = len(classes.reps)
    if len(table.rows) != k:
        raise ContractViolation("row count differs from class count")
    degrees = table.degrees
    if int((degrees * degrees).sum()) != n:
        raise ContractViolation("sum of degree squares is not the group order")
    for d in degrees:
        if n % int(d):
            raise ContractViolation("degree does not divide group order")
    if classes.class_of[0] != 0:
        raise ContractViolation("class 0 is not the class of the identity")
    coeffs = table._coeffs
    if not (np.array_equal(coeffs[:, 0, 0], degrees) and not coeffs[:, 0, 1:].any()):
        raise ContractViolation("values at the identity are not the degrees")
    if not (np.all(coeffs[0, :, 0] == 1) and not coeffs[0, :, 1:].any()):
        raise ContractViolation("first row is not the trivial character")

    # A value of a degree-d character is a sum of d roots of unity, so its
    # coefficient norm is at most d times the largest norm of a root.  The
    # float64 sums cannot overflow, and those that pass are exact.
    e = table.conductor
    red = np.abs(np.array(_reduction_table(e), dtype=np.int64))
    norms = np.abs(coeffs.astype(np.float64)).sum(axis=2)
    over = norms > degrees[:, None] * int(red.sum(axis=1).max())
    if over.any():
        row, col = np.argwhere(over)[0]
        raise ContractViolation(
            f"value of row {row} at class {col} is not a sum of {degrees[row]} roots of unity")
    norms = norms.astype(np.int64)
    sizes, inv = classes.sizes, classes.inverse_class
    if not (np.array_equal(inv[inv], np.arange(k)) and np.array_equal(sizes[inv], sizes)):
        raise ContractViolation("inverse classes are not an involution that keeps class sizes")
    # |Gram coefficient| <= sum_k w_k ||a_k|| ||b_k|| max|red|; |expected| <= |G|.
    bound = n + int(red.max()) * int(((norms * sizes) @ norms[:, inv].T).max())
    max_norm = int(norms.max())
    primes = _check_primes(e, table.prime, bound, min(
        _CHECK_PRIME_CEILING, (_FLOAT_EXACT - 1) // max_norm + 1,
        isqrt((_FLOAT_EXACT - 1) // k) + 1))
    # An evaluation sum is at most max_norm * (r - 1), a Gram sum k * (r - 1)^2.
    if max(max_norm * (primes[0] - 1), k * (primes[0] - 1) ** 2) >= _FLOAT_EXACT:
        raise ContractViolation("partial sums may reach 2^53; not exact in float64")

    for r in primes:
        roots, vand = _embedding(e, r)
        vals = (coeffs.reshape(k * k, -1).astype(np.float64) @ vand).astype(np.int64) % r
        x = vals.reshape(k, k, -1).transpose(2, 0, 1)  # (root, row, class)
        # sum_k |C_k| chi_r(g_k) conj(chi_s(g_k)) = |G| delta_rs
        a = (x * sizes % r).astype(np.float64)
        b = x[:, :, inv].transpose(0, 2, 1).astype(np.float64)
        gram = (a @ b).astype(np.int64) % r
        expected = np.diag(np.full(k, n % r))
        bad = gram != expected
        if bad.any():
            i, j, root = np.argwhere(bad.transpose(1, 2, 0))[0]
            raise ContractViolation(
                f"row orthogonality fails exactly mod r = {r} at zeta -> "
                f"{roots[root]}: rows ({i}, {j}) give {gram[root, i, j]}, "
                f"expected {expected[i, j]}")

    return {"order": n, "classes": k, "conductor": e, "prime": table.prime,
            "degrees": [int(d) for d in degrees], "check_primes": primes}


def _check_primes(e: int, avoid: int, bound: int, cap: int) -> list[int]:
    """Primes r ≡ 1 (mod e), r ≠ avoid, r <= cap, largest first, until their
    product exceeds 2 * bound."""
    primes = []
    for r in range(cap - (cap - 1) % e, 1, -e):
        if r != avoid and is_prime(r):
            primes.append(r)
            if prod(primes) > 2 * bound:
                return primes
    raise ContractViolation(
        f"primes = 1 mod {e} up to {cap} do not exceed twice the Gram bound {bound}")


@lru_cache(maxsize=None)
def _embedding(e: int, r: int) -> tuple[list[int], np.ndarray]:
    """The primitive e-th roots z^u of F_r (u a unit mod e, z = element_of_order)
    and, in float64, V[i, j] = roots[j]^i: coefficient rows @ V are values."""
    z = element_of_order(e, r)
    zpow = [pow(z, i, r) for i in range(e)]
    units = [u for u in range(e) if gcd(u, e) == 1]
    vand = np.array(zpow, dtype=np.float64)[np.outer(np.arange(len(units)), units) % e]
    vand.flags.writeable = False
    return [zpow[u] for u in units], vand


def restriction_multiplicities(
    table_g: CharacterTable, sub: Subgroup, table_n: CharacterTable
) -> np.ndarray:
    """Multiplicities ⟨χ_r|_N, θ_t⟩ for all rows at once (exact integers).

    Works in F_q of the parent table: multiplicities are nonnegative integers
    bounded by the largest degree (< q), so the residues determine them.
    """
    g = table_g.group
    q = table_g.prime
    e_g = table_g.conductor
    e_n = table_n.conductor
    if e_g % e_n:
        raise ContractViolation("subgroup exponent does not divide group exponent")
    step = e_g // e_n
    phi_n = euler_phi(e_n)
    # zeta_{e_n} -> root^step in F_q.
    base = pow(int(table_g.root), step, q)
    powvec = np.empty(phi_n, dtype=np.int64)
    acc = 1
    for i in range(phi_n):
        powvec[i] = acc
        acc = acc * base % q
    theta_q = table_n._coeffs @ powvec % q                       # (T, Kn)
    theta_conj = theta_q[:, table_n.classes.inverse_class]

    parent_class = g.conjugacy_classes().class_of[sub.to_parent(table_n.classes.reps)]
    weighted = table_g._modq[:, parent_class] * table_n.classes.sizes[None, :] % q
    inv_n = inv_mod(sub.order, q)
    mults = weighted @ theta_conj.T % q * inv_n % q              # (R, T)
    max_deg = int(table_g.degrees.max())
    if int(mults.max(initial=0)) > max_deg:
        raise ContractViolation("restriction multiplicity exceeds degree bound")
    if not np.array_equal(mults @ table_n.degrees, table_g.degrees):
        raise ContractViolation("bulk restriction degrees do not add up")
    return mults
