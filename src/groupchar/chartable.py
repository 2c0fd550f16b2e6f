"""Exact irreducible character tables of small finite groups.

The pipeline is the classical class-algebra method: the class-multiplication
matrices commute and have a common eigenbasis over a prime field F_q chosen
with q ≡ 1 (mod e) and q > 2|G| (e the group exponent), whose vectors are
the central characters mod q.  They are found by splitting (Schneider,
"Dixon's character table algorithm revisited", 1990):

* each pass splits every block above dimension one by a combination
  sum c_i * C_i of the non-identity class matrices, with fresh weights
  from a fixed-seed generator; the first pass usually separates every
  character at once;
* in each split, the eigenspace of every root of the block's charpoly,
  simple or repeated, is spanned by projections of a few seeded probe
  vectors through their Krylov rows, checked exactly; only a root whose
  projections fall short of its multiplicity takes a nullspace instead;
* passes go on until every block is one-dimensional, at most one per
  class.

Degrees follow from the orthogonality relation, and each value is lifted to
an exact cyclotomic integer by extracting root-of-unity multiplicities,
which are genuine nonnegative integers below q and therefore unambiguous
residues.  The lift reads the group's class power map: the multiplicities
come from one (o × o) product per rational class, at its least class x,
and x's other classes xᵘ take them permuted (m_j moves to j·u mod o); each
coefficient row is a sum of reduction-table rows, one per nonzero
multiplicity.  The multiplicities must sum to the degree and the lifted
values must agree with the values mod q, both checked exactly.  A table
stores the lifted values as one coefficient array, and
derives its values mod q and its kernel and zero masks from it; its
``rows`` are built on first read, ``Character.values`` turns a row into
``Cyclotomic`` objects on demand, and ``Group._normal`` makes a
character's kernel from its kernel-mask row.

The output does not depend on the weights or the probes: the eigenvectors
are unique up to scale and normalized, the prime choice is fixed, and rows
are put in canonical order (trivial character first, then by degree and
lexicographic coefficients).

Most groups a scan meets are isomorphic to one that already holds a table,
and many arrive with the very same Cayley table, so ``compute_table``, a
memo on the group like its other facts, first looks up a digest of the
Cayley table among live tables.  A live table whose group has the same
Cayley table, byte for byte, is served as it stands: the class order is a
function of the table, so its rows and classes are the caller's too.  The
caller's group shares the source group's classes object
(``Group._adopt_classes``), and its table the source's coefficients and
derived arrays, so nothing is recomputed.
Otherwise the group's isomorphism key (the order and the multiset of
(element order, class size)) names the live table first built for it, and
an isomorphism is searched for from that table's group s to the new group
h: the generators of s's chain are mapped to candidate images in h
(Miller's generator-image technique, under a node budget).  The chain,
`groups._generator_chain` along s's elements, the largest element order
first, then the rarest element key, with the products each level checks
added by `_source_chain`, is a memo fact of s, built on its first search,
so one source serves many searches and h never walks its own Cayley
graph.  The map found is inverted to h -> s and checked exactly in full;
the table is then read off through it as a column gather and put in
canonical order.  The rows are the ones the build would
give, and a table reads its conductor, prime and root off its own group
(`_field`), so every route gives the same bytes by construction, and
tables share their read-only arrays.
Both lookups are weak maps: a table is pooled while its group lives, so the
pool needs no bound, and nothing carries over once the groups are gone.
Like the group caches the maps are filled without a lock: concurrent first
calls may build the same type twice, which changes no result.  Only
``table_counts``, the number of tables built and transported (a byte-equal
table served counts as transported), is updated under a lock.
"""

from __future__ import annotations

import hashlib
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
    poly_roots_mod,
    powers_mod,
    root_multiplicities,
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
from .groups import Group, Subgroup, _generator_chain, _memo, _readonly, require_normal

TABLE_ORDER_BOUND = 512
TABLE_CELL_BOUND = 1 << 21  # cells k²·φ(e) of the coefficient array; C127 fits

_PRIME_SEARCH_CAP = 2_000_000
_CHECK_PRIME_CEILING = 1 << 20  # largest modulus verify_table evaluates at
_FLOAT_EXACT = 1 << 53          # float64 sums of integers below this are exact
_LIFT_CHUNK_CELLS = 1 << 18     # temporary cells per chunk of classes in the lift


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


@lru_cache(maxsize=None)
def _field(exponent: int, order: int) -> tuple[int, int]:
    """The working modulus q = ``dixon_prime(exponent, order)`` and the
    primitive e-th root of unity mod q that a table of such a group uses."""
    q = dixon_prime(exponent, order)
    return q, element_of_order(exponent, q)


class Character:
    """One row of a character table.

    ``values`` holds the exact value on each conjugacy class as a
    ``Cyclotomic``.  It is built from the table's coefficient array on first
    access and cached; the library's own checks read the arrays only.
    """

    __slots__ = ("table", "index", "degree", "_cache")

    def __init__(self, table: "CharacterTable", index: int, degree: int):
        self.table = table
        self.index = index
        self.degree = degree
        self._cache = {}

    @property
    @_memo
    def values(self) -> tuple[Cyclotomic, ...]:
        return tuple(Cyclotomic(self.table.conductor, c) for c in self.table._coeffs[self.index])

    def kernel(self) -> Subgroup:
        """{g : χ(g) = χ(1)}, decided via the trivial-root multiplicities."""
        group = self.table.group
        sub = group._normal(self.table._kernel_mask[self.index])
        if not np.all(sub.member_mask()[group.mul[np.ix_(sub.elements, sub.elements)]]):
            raise ContractViolation("character kernel is not closed")
        return sub

    def __call__(self, g: int) -> Cyclotomic:
        return self.values[self.table.classes.class_of[g]]

    def __repr__(self):
        return f"<Character deg={self.degree} of {self.table.group.label}>"


class CharacterTable:
    """All irreducible characters of a group, exactly.

    Public fields: ``group``, ``classes``, ``rows`` (trivial character
    first, then sorted by degree and lexicographic coefficient vectors),
    ``degrees`` (an int64 array in row order), ``conductor`` (= group
    exponent), ``prime`` (the working modulus).  Those two and ``root`` are
    read off the group's exponent and order (`_field`); no caller passes them.
    """

    def __init__(self, group, classes, degrees, coeffs, derived=None):
        self.group = group
        self.classes = classes
        self.conductor = group.exponent
        self.prime, self.root = _field(self.conductor, group.order)
        # Read-only, as class data is: tables of byte-equal groups share them.
        self._coeffs = _readonly(coeffs)  # (rows, classes, phi(e)) exact ints
        # Derived from the coefficients: the values mod prime (root as the
        # primitive e-th root of unity), the classes in each kernel
        # (χ(g) = χ(1) exactly), and the classes where each row vanishes.
        # A table served to a byte-equal group takes its source's as ``derived``.
        if derived is None:
            q = self.prime
            derived = (coeffs @ powers_mod(self.root, coeffs.shape[2], q) % q,
                       (coeffs[:, :, 0] == degrees[:, None]) & ~coeffs[:, :, 1:].any(axis=2),
                       ~coeffs.any(axis=2))
        self._modq, self._kernel_mask, self._zero_mask = map(_readonly, derived)
        self.degrees = _readonly(degrees)
        self._cache = {}

    @property
    @_memo
    def rows(self) -> tuple[Character, ...]:
        """One `Character` per row, built on first read."""
        return tuple(Character(self, i, int(d)) for i, d in enumerate(self.degrees))

    def __len__(self):
        return len(self.degrees)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self):
        return (f"<CharacterTable {self.group.label}: {len(self)} rows, "
                f"conductor {self.conductor}, prime {self.prime}>")


@_memo
def compute_table(group: Group) -> CharacterTable:
    """Exact character table of ``group``, cached on the group.

    A live table whose group has this Cayley table byte for byte is served
    as it stands.  Otherwise the table is transported from the live table
    built for this isomorphism key when the search finds a map within
    ``ISOMORPHISM_NODE_BUDGET``; otherwise it is built.  Every route gives
    the same bytes.
    """
    n = group.order
    if n > TABLE_ORDER_BOUND:
        raise BoundExceeded("character table order", n, TABLE_ORDER_BOUND)
    digest = hashlib.blake2b(group.mul, digest_size=16).digest()
    source = _SAME_TABLE.get(digest)
    route = "transported"
    if source is not None and np.array_equal(source.group.mul, group.mul):
        group._adopt_classes(source.group)
        table = CharacterTable(group, group.conjugacy_classes(), source.degrees,
                               source._coeffs,
                               derived=(source._modq, source._kernel_mask, source._zero_mask))
    else:
        key = _isomorphism_key(group)
        source = _BUILT_TABLE.get(key)
        phi = None if source is None else _find_isomorphism(group, source.group)
        if phi is not None:
            table = _transport(group, source, phi)
        else:
            table, route = _build_table(group), "built"
            _BUILT_TABLE.setdefault(key, table)
    _SAME_TABLE[digest] = table
    with _COUNT_LOCK:
        table_counts[route] += 1
    return table


def _build_table(group: Group) -> CharacterTable:
    """The table by the class-algebra split; neither cached nor pooled."""
    n = group.order
    cc = group.conjugacy_classes()
    k = len(cc.reps)
    e = group.exponent
    phi = euler_phi(e)
    if k * k * phi > TABLE_CELL_BOUND:  # refused before any array is made
        raise BoundExceeded("character table cells", k * k * phi, TABLE_CELL_BOUND)
    q, z = _field(e, n)
    zpow = powers_mod(z, e, q)

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

    coeffs = _lift(group, modq, degrees, zpow, q)
    order = _canonical_order(degrees, coeffs)
    table = CharacterTable(group, cc, degrees[order], coeffs[order])
    # Cross-check the lift against the modular table.
    if not np.array_equal(table._modq, modq[order]):
        raise ContractViolation("lifted values disagree with modular table")
    return table


def _lift(group: Group, modq: np.ndarray, degrees: np.ndarray, zpow: np.ndarray,
          q: int) -> np.ndarray:
    """The exact coefficient array of the table whose values mod q are
    ``modq``, zpow the powers of the primitive e-th root mod q.

    A value at x of order o is χ(x) = Σ_j m_j ζ_o^j, with root
    multiplicities m_j = (1/o) Σ_t χ(xᵗ) ζ_o^{-jt}: nonnegative integers
    below q, so their residues are the integers.  They are found by one
    (o × o) product for the head x of each rational class, the heads of
    one order at a time; a class xᵘ (u prime to o) has m_j at j·u mod o.
    Each coefficient row is then a sum of ``_reduction_table`` rows, one
    per nonzero multiplicity, over classes in chunks of about
    ``_LIFT_CHUNK_CELLS`` temporary cells.
    """
    cc = group.conjugacy_classes()
    k, e = len(cc), group.exponent
    powers, heads = group._power_classes()
    red = np.array(_reduction_table(e), dtype=np.int64)
    coeffs = np.empty((k, k, red.shape[1]), dtype=np.int64)
    class_orders = group.elt_order[cc.reps]
    for o in np.unique(class_orders).tolist():
        step = e // o
        jt = np.outer(np.arange(o), np.arange(o))
        w = zpow[(-jt % o) * step]                    # w[j, t] = z_o^{-jt}
        head_ids = np.flatnonzero((class_orders == o) & (heads == np.arange(k)))
        mults = modq[:, powers[head_ids, :o]] @ w.T % q * inv_mod(o, q) % q
        if not (mults.sum(axis=2) == degrees[:, None]).all():
            raise ContractViolation("root multiplicities do not sum to degree")
        # Each class of order o as head_ids[h]ᵘ, u the least unit that works.
        cls = np.flatnonzero(class_orders == o)
        h = np.searchsorted(head_ids, heads[cls])
        units = np.gcd(np.arange(o), o) == 1
        u = ((powers[head_ids[h], :o] == cls[:, None]) & units).argmax(axis=1)
        # Every (row, class) has a nonzero multiplicity, as they sum to the degree.
        per_class = max(k * o, int(np.minimum(degrees, o).sum()) * red.shape[1])
        size = max(1, _LIFT_CHUNK_CELLS // per_class)
        for lo in range(0, len(cls), size):
            m = mults[:, h[lo:lo + size]]             # (k, chunk, o), head order
            r, c, j = np.nonzero(m)
            terms = m[r, c, j][:, None] * red[j * u[lo + c] % o * step]
            counts = np.count_nonzero(m, axis=2).ravel()
            sums = np.add.reduceat(terms, np.cumsum(counts) - counts, axis=0)
            coeffs[:, cls[lo:lo + size]] = sums.reshape(k, -1, red.shape[1])
    return coeffs


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
    # The rows are distinct characters, so no two keys tie.
    return [triv] + sorted((r for r in range(len(degrees)) if r != triv),
                           key=lambda r: (int(degrees[r]), coeffs[r].ravel().tolist()))


# -- transport along an isomorphism ------------------------------------------

# Candidate images the isomorphism search may try before it gives up and
# the table is built instead.
ISOMORPHISM_NODE_BUDGET = 2000

# Tables built by the class-algebra split and tables transported from an
# isomorphic group, since import.
table_counts = {"built": 0, "transported": 0}
_COUNT_LOCK = threading.Lock()

# Weak maps to live tables, so a table is pooled while its group lives:
# the blake2b digest of a Cayley table -> the newest table whose group has
# it, and _isomorphism_key() -> the first table built for that key.
_SAME_TABLE = weakref.WeakValueDictionary()
_BUILT_TABLE = weakref.WeakValueDictionary()


@_memo
def _element_key(group: Group) -> np.ndarray:
    """(element order, class size, number of square roots) of every
    element, coded as one int64: an isomorphism maps each element to one
    with the same key.  The pool key keeps the first two; the root count
    prunes the search where many elements share an order and a class size."""
    n = group.order
    cc = group.conjugacy_classes()
    ids = np.arange(n)
    roots = np.bincount(group.mul[ids, ids], minlength=n)
    code = group.elt_order * (n + 1) + cc.sizes[cc.class_of]
    return code * (n + 1) + roots


def _isomorphism_key(group: Group) -> tuple[int, bytes]:
    """The order and the multiset of (element order, class size): equal for
    isomorphic groups, though equal keys do not prove an isomorphism."""
    return group.order, np.sort(_element_key(group) // (group.order + 1)).tobytes()


def _find_isomorphism(h: Group, s: Group) -> np.ndarray | None:
    """An isomorphism h -> s as an id array, or None when none is found
    within ``ISOMORPHISM_NODE_BUDGET`` candidate images.

    The search runs from the pooled source s to h: the generators of s's
    chain (`_source_chain`, built once per source) are mapped one at a time
    to elements of h with the same element key that lie outside the image
    of the earlier ones (Miller's generator-image technique).  Each choice
    fixes the map on the elements the new generator adds to the span, along
    s's Cayley graph, and is kept only if it is injective, keeps every
    element key and respects every new product by a generator.  The map
    found, s -> h, is returned inverted (`_inverse_map`).
    """
    n = h.order
    key_h, key_s = _element_key(h), _element_key(s)
    levels = _source_chain(s)
    psi = np.zeros(n, dtype=np.int64)
    psi_list = [0] * n
    images = np.zeros(len(levels), dtype=np.int64)  # image of each generator
    columns: list[list[int]] = [[]] * len(levels)   # x -> x * image, in h
    budget = ISOMORPHISM_NODE_BUDGET
    # Composed with conjugation in h an isomorphism stays one, so the
    # first generator need only go to class representatives.
    class_reps = np.zeros(n, dtype=bool)
    class_reps[h.conjugacy_classes().reps] = True

    def search(depth: int, used: np.ndarray) -> bool | None:
        """True when the map is complete, False when no choice fits, None
        when the budget ran out."""
        nonlocal budget
        if depth == len(levels):
            return True
        g, fresh, parents, gen_pos, f, x, j, y = levels[depth]
        choices = (key_h == key_s[g]) & ~used
        if depth == 0:
            choices &= class_reps
        for t in np.flatnonzero(choices).tolist():
            if budget == 0:
                return None
            budget -= 1
            images[depth] = t
            columns[depth] = h.mul[:, t].tolist()
            for e, p, k in zip(fresh, parents, gen_pos):
                psi_list[e] = columns[k][psi_list[p]]
            img = np.array([psi_list[e] for e in fresh], dtype=np.int64)
            psi[f] = img
            now = used.copy()
            now[img] = True
            if (np.count_nonzero(now) == np.count_nonzero(used) + img.size
                    and np.array_equal(key_h[img], key_s[f])
                    and np.array_equal(h.mul[psi[x], images[j]], psi[y])):
                found = search(depth + 1, now)
                if found is not False:
                    return found
        return False

    used = np.zeros(n, dtype=bool)
    used[0] = True
    return _inverse_map(psi) if search(0, used) else None


def _inverse_map(psi: np.ndarray) -> np.ndarray:
    """The inverse of the id map ``psi``.  An id that psi misses maps to
    -1, so a psi that is not a bijection has no bijection as its inverse."""
    phi = np.full(psi.size, -1, dtype=np.int64)
    phi[psi] = np.arange(psi.size)
    return phi


@_memo
def _source_chain(s: Group) -> list[tuple]:
    """The generator chain that searches from the pooled source s follow, a
    fact of s built on its first search: each `groups._generator_chain` level
    with (fresh as an array, x, j, y) appended, the products y = x * (j-th
    kept generator) that first lie inside the level's span: fresh elements
    by every kept generator, older elements by the new one.

    Its generators are taken greedily, the largest element order first,
    then the rarest element key, then the least id: few generators with
    few candidate images each.  (``s.generators()`` would not do: for the
    constructed AGL(1, 16) it holds the translations 1, 2, 4 and 8, too
    many candidate images for the node budget.)
    """
    _, kind, counts = np.unique(_element_key(s), return_inverse=True, return_counts=True)
    levels = _generator_chain(s, np.lexsort((counts[kind], -s.elt_order)).tolist())
    kept, span = np.array([level[0] for level in levels]), [0]
    for new, level in enumerate(levels):
        f = np.array(level[1], dtype=np.int64)
        x = np.concatenate([np.repeat(f, new + 1), span])
        j = np.concatenate([np.tile(np.arange(new + 1), f.size), np.full(len(span), new)])
        levels[new] = (*level, f, x, j, s.mul[x, kept[j]])
        span += level[1]
    return levels


def _transport(h: Group, src: CharacterTable, phi: np.ndarray) -> CharacterTable:
    """The table of h read off the table ``src`` of s = src.group through
    the isomorphism phi: h -> s: each class of h takes the column of the
    class of phi(rep), and the rows are put in canonical order."""
    n, s = h.order, src.group
    if not np.array_equal(np.sort(phi), np.arange(n)):
        raise ContractViolation("isomorphism search returned a non-bijection")
    if not np.array_equal(phi[h.mul], s.mul[phi[:, None], phi[None, :]]):
        raise ContractViolation("isomorphism search returned a non-homomorphism")
    cc = h.conjugacy_classes()
    cols = _image_classes(h, s, phi)
    coeffs = src._coeffs[:, cols]
    order = _canonical_order(src.degrees, coeffs)
    return CharacterTable(h, cc, src.degrees[order], coeffs[order])


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


def _probe_vector(rng: np.random.Generator, count: int, d: int, q: int) -> np.ndarray:
    """``count`` probe rows, projected onto the eigenspaces of a d-dimensional
    block."""
    return rng.integers(0, q, size=(count, d))


def _split_central_characters(group: Group, cc, q: int) -> np.ndarray:
    """Common eigenbasis of the class matrices over F_q, one row per character,
    normalized so the identity-class coordinate is 1.

    Each pass draws fresh seeded weights c_i and splits every block above
    dimension one into eigenspaces of sum c_i * C_i over the non-identity
    classes, until every block is one-dimensional; after k passes (k the
    number of classes) it gives up.
    """
    k = len(cc.reps)
    rng = np.random.default_rng(_SPLIT_SEED)
    # (C_i)[j, c] counts the x in class i with x^-1 * rep_c in class j, so
    # sum c_i * C_i adds c_(class of x) at cell (class of x^-1 * rep_c, c)
    # for every non-identity x and every class c.
    others = np.arange(1, group.order)
    cells = (cc.class_of[group.mul[np.ix_(group.inv[others], cc.reps)]].ravel(),
             np.tile(np.arange(k), others.size))
    owners = np.repeat(cc.class_of[others], k)
    blocks: list[tuple[np.ndarray, list[int]]] = [
        (np.eye(k, dtype=np.int64), list(range(k)))
    ]
    for _ in range(k):
        if all(b.shape[0] == 1 for b, _ in blocks):
            break
        weights = np.zeros(k, dtype=np.int64)
        weights[1:] = _combination_weights(rng, k - 1, q)
        combined = np.zeros((k, k), dtype=np.int64)
        np.add.at(combined, cells, weights[owners])
        mat_t = combined.T % q
        split: list[tuple[np.ndarray, list[int]]] = []
        for basis, pivots in blocks:
            if basis.shape[0] == 1:
                split.append((basis, pivots))
            else:
                split.extend(_split_block(basis, pivots, mat_t, q, rng))
        blocks = split

    if any(b.shape[0] != 1 for b, _ in blocks):
        raise SplitFailure(f"no one-dimensional split after {k} seeded combinations")
    omegas = np.zeros((k, k), dtype=np.int64)
    for r, (basis, _) in enumerate(blocks):
        v = basis[0]
        if int(v[0]) == 0:
            raise SplitFailure("eigenvector vanishes on the identity class")
        omegas[r] = v * inv_mod(int(v[0]), q) % q
    return omegas


def _line(vec: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A one-dimensional block: the vector and its first nonzero column."""
    return vec[None, :], [int(np.flatnonzero(vec)[0])]


def _split_block(basis: np.ndarray, pivots: list[int], mat_t: np.ndarray, q: int,
                 rng: np.random.Generator) -> list[tuple[np.ndarray, list[int]]]:
    """Eigenspaces of x -> x @ mat_t on the row space of ``basis`` (RREF with
    the given pivot columns), each as (basis, pivots).

    Every root λ_j of the block's charpoly p, of multiplicity μ_j, gets its
    eigenspace by projection: m(x) is the product of (x - λ) over the
    distinct roots, m_j(x) = m(x) / (x - λ_j), and the rows u * m_j(A) of a
    block u of (max μ + 1) seeded probes lie in λ_j's eigenspace, checked
    exactly.  A simple root takes the first nonzero row; a repeated root
    the span of its first μ_j + 1 rows, once that span has dimension μ_j.
    A root whose projections fall short takes a nullspace instead.
    """
    d = basis.shape[0]
    mapped = basis @ mat_t % q
    a = mapped[:, pivots]                       # action matrix (row form)
    if not np.array_equal(a @ basis % q, mapped):
        raise SplitFailure("combined class matrix does not preserve the block")
    poly = charpoly_mod(a.T, q)
    roots = poly_roots_mod(poly, q)
    if not roots.size:
        raise SplitFailure("the block's charpoly has no root in F_q")
    mults = root_multiplicities(poly, roots, q)
    s = roots.size
    count = int(mults.max()) + 1
    m = np.ones(1, dtype=np.int64)
    for lam in roots:
        m = (np.concatenate(([0], m)) - int(lam) * np.concatenate((m, [0]))) % q
    # Quotients m(x) / (x - λ_j) by synthetic division, one row per λ_j.
    quot = np.zeros((s, s), dtype=np.int64)
    quot[:, s - 1] = 1
    for t in range(s - 1, 0, -1):
        quot[:, t - 1] = (m[t] + roots * quot[:, t]) % q
    krylov = np.empty((s, count, d), dtype=np.int64)
    krylov[0] = _probe_vector(rng, count, d, q)
    for t in range(1, s):
        krylov[t] = krylov[t - 1] @ a % q
    proj = (quot @ krylov.reshape(s, -1) % q).reshape(s, count, d)
    if not np.array_equal(proj @ a % q, roots[:, None, None] * proj % q):
        raise SplitFailure("projected vector is not an eigenvector")

    hit = proj.any(axis=2)
    simple = (mults == 1) & hit.any(axis=1)
    out = [_line(v) for v in proj[simple, hit[simple].argmax(axis=1)] @ basis % q]
    found = len(out)
    short = list(roots[(mults == 1) & ~simple])
    for j in np.flatnonzero(mults > 1):
        span, span_pivots = rref_mod(proj[j, :mults[j] + 1] @ basis % q, q)
        if len(span_pivots) == mults[j]:
            out.append((span, span_pivots))
            found += len(span_pivots)
        else:
            short.append(roots[j])
    for lam in short:
        shifted = (a.T - int(lam) * np.eye(d, dtype=np.int64)) % q
        null = nullspace_mod(shifted, q)  # λ is a root: never empty
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
    degrees = table.degrees
    if table._coeffs.shape[:2] != (k, k) or len(degrees) != k:
        raise ContractViolation("row or column count differs from class count")
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
    zpow = powers_mod(element_of_order(e, r), e, r)
    units = [u for u in range(e) if gcd(u, e) == 1]
    vand = zpow.astype(np.float64)[np.outer(np.arange(len(units)), units) % e]
    vand.flags.writeable = False
    return zpow[units].tolist(), vand


def restriction_multiplicities(group: Group, sub: Subgroup) -> np.ndarray:
    """Multiplicities ⟨χ_r|_N, θ_t⟩ for all rows at once (exact integers),
    N a normal subgroup of ``group``, χ over G's table and θ over N's, both
    looked up by `compute_table`.

    Works in F_q of the parent table: multiplicities are nonnegative integers
    bounded by the largest degree (< q), so the residues determine them.
    """
    require_normal(group, sub)
    table_g, table_n = compute_table(group), compute_table(sub.as_group())
    q, coeffs_n, classes_n = table_g.prime, table_n._coeffs, table_n.classes
    # zeta_{e_n} -> root^(e_g / e_n) in F_q; e_n divides e_g, as N's
    # elements keep their orders in G.
    base = pow(int(table_g.root), table_g.conductor // table_n.conductor, q)
    theta_q = coeffs_n @ powers_mod(base, coeffs_n.shape[2], q) % q   # (T, Kn)
    theta_conj = theta_q[:, classes_n.inverse_class]
    weighted = table_g._modq[:, sub._parent_classes()] * classes_n.sizes[None, :] % q
    mults = weighted @ theta_conj.T % q * inv_mod(sub.order, q) % q     # (R, T)
    if int(mults.max(initial=0)) > int(table_g.degrees.max()):
        raise ContractViolation("restriction multiplicity exceeds degree bound")
    if not np.array_equal(mults @ table_n.degrees, table_g.degrees):
        raise ContractViolation("bulk restriction degrees do not add up")
    return mults
