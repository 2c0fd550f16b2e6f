"""Linear actions of matrix groups on finite vector spaces: orbit facts.

A LinearAction is a list of invertible n×n generator matrices over GF(p).
The action on the p^n vectors is stored as one permutation per generator
(`_modlinalg.vector_perms`, on the little-endian vector ids that
`_modlinalg.digits` reads: id = Σ v_j p^j; no array of all p^n vectors is
held), and more than `constructors.CLOSURE_CELL_BOUND` such ids in all
(generators × p^n) are refused before any is made.  The generated matrix
group is closed from those permutations by `constructors._dimino_closure`,
which also closes `perm` group files, an element being the row of the n
vector ids of its columns; only the order is kept, bounded by ``ORDER_BOUND``.
The orbits are labelled by `constructors._orbit_labels` over the same
permutations, the labelling `clifford` runs on Irr(N).
`odd_order_subgroup_actions` builds GL(n, p), its matrices read off the
base-p digits of their codes by `_modlinalg.digits`, as a `Group` on the
same permutations and closes its odd-order subgroups with the group's
closure.  `LinearAction` and `gl_elements` check (p, n) by one guard,
`_field_and_dimension`: types, then the bounds on the dimension, on p's
bit length and on the space size, and p's primality last.

The checks mirror three orbit facts: orbit sizes divide the group order
and sum to p^n − 1 on the nonzero vectors; for odd p the orbit of −v has
the size of the orbit of v; for a group of odd order in odd characteristic
two orbits on the nonzero vectors always share a length, which forces the
distinct-size hypothesis of the transitivity lemma into its transitive
case.  Each is asserted where the statement is unconditional.
"""

from __future__ import annotations

import numpy as np

from ._arith import is_prime, p_part
from ._modlinalg import digits, rref_mod, vector_perms
from .constructors import CLOSURE_CELL_BOUND, _dimino_closure, _orbit_labels, _perm_group
from .errors import (
    BoundExceeded,
    EvenCharacteristic,
    EvenOrder,
    InvalidAction,
    TheoremViolation,
)
from .groups import _memo

__all__ = [
    "LinearAction",
    "orbit_sizes",
    "is_transitive_nonzero",
    "regular_orbit_count",
    "negation_pairing",
    "dade_duplicate_check",
    "distinct_sizes_scan",
    "gl_elements",
    "odd_order_subgroup_actions",
]

ORDER_BOUND = 10 ** 6
SPACE_BOUND = 2 ** 20
MATRIX_SPACE_BOUND = 10 ** 7  # cap on p^(n²), the matrices gl_elements scans
GL_BOUND = 5000  # cap on |GL(n, p)| for the exhaustive subgroup scan


def _is_int(value) -> bool:
    """Not a bool, float or string: none is truncated or parsed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _field_and_dimension(p, n, power: int, bound: int, space: str) -> tuple[int, int]:
    """(p, n) as ints, for a scan of GF(p)^dim with dim = n^power, checked
    in one order: integer types and n >= 1 (InvalidAction); then dim, p's
    bit length and p^dim against `bound` (BoundExceeded), where p^dim >= 2^dim
    and p^dim >= p, so no huge power is built; and p's primality last
    (InvalidAction), so no p that a bound refuses is tested."""
    if not (_is_int(p) and _is_int(n)):
        raise InvalidAction(f"p and n must be integers, not {p!r} and {n!r}")
    p, n = int(p), int(n)
    if n < 1:
        raise InvalidAction("dimension must be at least 1")
    dim, bits = n ** power, bound.bit_length()
    if dim >= bits:
        raise BoundExceeded(f"{space} dimension", dim, bits - 1)
    if p.bit_length() > bits:
        raise BoundExceeded("field size in bits", p.bit_length(), bits)
    if p ** dim > bound:
        raise BoundExceeded(space, p ** dim, bound)
    if not is_prime(p):
        raise InvalidAction(f"{p} is not prime")
    return p, n


class LinearAction:
    """A finite matrix group acting on GF(p)^n, with per-generator vector
    permutations and the orbit partition computed lazily."""

    def __init__(self, p: int, n: int, generators):
        p, n = _field_and_dimension(p, n, 1, SPACE_BOUND, "vector space")
        self.p = p
        self.n = n
        # One p^n-id permutation per listed generator, redundant ones too.
        generators = list(generators)
        if len(generators) * p ** n > CLOSURE_CELL_BOUND:
            raise BoundExceeded("generator cells", len(generators) * p ** n, CLOSURE_CELL_BOUND)
        gens = []
        for g in generators:
            m = np.asarray(g, dtype=object)  # exact for entries of any size
            if m.shape != (n, n):
                raise InvalidAction(f"generator shape {m.shape} is not ({n}, {n})")
            if not all(map(_is_int, m.flat)):
                raise InvalidAction("matrix entries must be integers")
            m = (m % p).astype(np.int64)
            if len(rref_mod(m, p)[1]) != n:
                raise InvalidAction("generator matrix is singular")
            gens.append(m)
        self.generators = gens
        self._cache = {}
        self._vector_perms = vector_perms(p, n, gens)
        self.group_order = self._close_group()

    def _close_group(self) -> int:
        """Order of the generated group: `constructors._dimino_closure` over
        the rows of the basis vectors' images (ids ``p**arange(n)``)."""
        p, n = self.p, self.n
        powers = p ** np.arange(n, dtype=np.int64)

        def coset(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
            # A gather needs x's permutation of all p^n vectors; a matmul
            # transforms only H's |H|·n column vectors.
            images = digits(x, p, n)
            if len(rows) * n >= p ** n:
                return vector_perms(p, n, [images.T])[0][rows]
            return digits(rows, p, n) @ images % p @ powers

        return len(_dimino_closure(self._vector_perms, powers, p ** n, ORDER_BOUND,
                                   "matrix group order", coset))

    @_memo
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """(orbit_label per vector id, orbit sizes indexed by label).

        Labels are dense, assigned in increasing order of the orbit's
        minimal vector id; {0} is always orbit 0.  The minimal ids are
        `constructors._orbit_labels` over the generator permutations: in a
        finite group every inverse is a positive power, so the generators'
        cycles join exactly the orbits.
        """
        least = _orbit_labels(self._vector_perms, self.p ** self.n)
        _, labels, sizes = np.unique(least, return_inverse=True, return_counts=True)
        return labels, sizes

    def __repr__(self):
        return (f"LinearAction(p={self.p}, n={self.n}, "
                f"generators={len(self.generators)}, order={self.group_order})")


def orbit_sizes(action: LinearAction) -> list[int]:
    """Sorted orbit sizes on the nonzero vectors; sum and divisibility are
    asserted against p^n − 1 and the group order."""
    labels, sizes = action.orbits()
    zero_label = int(labels[0])
    if int(sizes[zero_label]) != 1:
        raise TheoremViolation(
            "the zero vector must be a fixed point",
            {"p": action.p, "n": action.n},
        )
    out = sorted(int(s) for i, s in enumerate(sizes) if i != zero_label)
    if sum(out) != action.p ** action.n - 1:
        raise TheoremViolation(
            "orbit sizes do not sum to the number of nonzero vectors",
            {"sizes": out, "p": action.p, "n": action.n},
        )
    for s in out:
        if action.group_order % s:
            raise TheoremViolation(
                "an orbit size does not divide the group order",
                {"size": s, "group_order": action.group_order},
            )
    return out


def is_transitive_nonzero(action: LinearAction) -> bool:
    return len(orbit_sizes(action)) == 1


def regular_orbit_count(action: LinearAction) -> int:
    return sum(1 for s in orbit_sizes(action) if s == action.group_order)


def negation_pairing(action: LinearAction) -> bool:
    """For odd p: −O is an orbit of the same size as O, for every orbit O.

    Always expected true (−I commutes with every linear map); false would
    expose an orbit-computation bug.
    """
    if action.p == 2:
        raise EvenCharacteristic("negation is trivial in characteristic 2")
    neg_ids = vector_perms(action.p, action.n,
                           [(action.p - 1) * np.eye(action.n, dtype=np.int64)])[0]
    labels, sizes = action.orbits()
    # -O must be a single orbit of the same size: the (label, label of -v)
    # pairs collapse to one image label per source label.
    pairs = np.unique(np.stack([labels, labels[neg_ids]], axis=1), axis=0)
    if len(np.unique(pairs[:, 0])) != len(pairs):
        return False
    return bool(np.all(sizes[pairs[:, 0]] == sizes[pairs[:, 1]]))


def dade_duplicate_check(action: LinearAction) -> bool:
    """Odd-order groups in odd characteristic always have two orbits of
    equal length on the nonzero vectors; asserted, with witnesses."""
    if action.p == 2:
        raise EvenCharacteristic("the duplicate-length fact needs odd p")
    if action.group_order % 2 == 0:
        raise EvenOrder("the duplicate-length fact needs an odd-order group")
    sizes = orbit_sizes(action)
    if len(sizes) == len(set(sizes)):
        raise TheoremViolation(
            "odd-order action with pairwise distinct orbit sizes",
            {"p": action.p, "n": action.n, "group_order": action.group_order,
             "sizes": sizes},
        )
    return True


def _is_irreducible(action: LinearAction) -> bool:
    """No proper nonzero invariant subspace: the orbit of every nonzero
    vector (one representative per orbit suffices) spans the whole space.
    The orbits' members come from one stable sort of the labels."""
    labels, sizes = action.orbits()
    by_label = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    for start, end in zip((ends - sizes).tolist(), ends.tolist()):
        members = by_label[start:end]
        if len(members) == 1 and members[0] == 0:
            continue
        rank = len(rref_mod(digits(members, action.p, action.n), action.p)[1])
        if rank != action.n:
            return False
    return True


def distinct_sizes_scan(action: LinearAction) -> dict:
    """Record the transitivity lemma's hypotheses and, when they all hold
    with pairwise distinct orbit sizes, assert the transitive conclusion.

    The duplicate-length fact makes the distinct-size hypothesis reachable
    only in the transitive case for odd/odd actions; the scan records the
    hypothesis flags rather than extrapolating beyond them.
    """
    sizes = orbit_sizes(action)
    distinct = len(sizes) == len(set(sizes))
    flags = {
        "char_odd": action.p != 2,
        "order_odd": action.group_order % 2 == 1,
        "irreducible": _is_irreducible(action),
        "distinct": distinct,
    }
    transitive = len(sizes) == 1
    asserted = all(flags.values())
    if asserted and not transitive:
        raise TheoremViolation(
            "odd-order irreducible action with distinct orbit sizes must "
            "be transitive on nonzero vectors",
            {"p": action.p, "n": action.n, "group_order": action.group_order,
             "sizes": sizes},
        )
    if transitive and action.group_order % (action.p ** action.n - 1):
        raise TheoremViolation(
            "transitive action order not divisible by the orbit length",
            {"group_order": action.group_order,
             "orbit": action.p ** action.n - 1},
        )
    return {**flags, "transitive": transitive, "asserted": asserted,
            "sizes": sizes}


# -- exhaustive desk-scale enumerations ------------------------------------------


def gl_elements(p: int, n: int) -> list[np.ndarray]:
    """Every invertible n×n matrix over GF(p), in the order of its code,
    the id of its n² entries (row-major) as `_modlinalg.digits` reads it;
    (p, n) is checked as in `LinearAction`, by `_field_and_dimension`."""
    p, n = _field_and_dimension(p, n, 2, MATRIX_SPACE_BOUND, "matrix space")
    out = []
    for code in range(p ** (n * n)):
        m = digits(code, p, n * n).reshape(n, n)
        if len(rref_mod(m, p)[1]) == n:
            out.append(m)
            if len(out) > GL_BOUND:
                raise BoundExceeded("general linear group", len(out), GL_BOUND)
    return out


def odd_order_subgroup_actions(p: int, n: int) -> list[LinearAction]:
    """All odd-order subgroups of GL(n, p) as actions, found by closing
    the odd cyclic subgroups and the pairs of them (complete when every odd
    subgroup is 2-generated, which covers the desk-scale cases: GL(1, p) is
    cyclic and the odd subgroups of GL(2, 3) have order 1 or 3).

    GL(n, p) is built once as a ``Group`` on its permutations of the vector
    ids; its ids are the positions in ``gl_elements``, with the identity
    swapped to id 0."""
    elements = gl_elements(p, n)
    id_pos = next(i for i, m in enumerate(elements) if (m == np.eye(n)).all())
    elements[0], elements[id_pos] = elements[id_pos], elements[0]
    gl = _perm_group(vector_perms(p, n, elements), f"GL({n},{p})")
    # <a, b> depends only on <a> and <b>: pairs are seeded from one
    # generator per odd cyclic subgroup, the elements of <a> with a's
    # order being exactly its generators.
    found = {}
    gens = []
    covered = np.zeros(gl.order, dtype=bool)
    for a in np.flatnonzero(gl.elt_order % 2 == 1):
        if covered[a]:
            continue
        cyclic = gl._closure([a])
        covered[cyclic[gl.elt_order[cyclic] == gl.elt_order[a]]] = True
        found[cyclic.tobytes()] = cyclic
        gens.append(a)
    # An odd-order subgroup's order divides the odd part of |GL(n, p)|, so
    # a closure that outgrows it is dropped as soon as it does.
    odd_part = gl.order // p_part(gl.order, 2)
    for k, a in enumerate(gens):
        for b in gens[k + 1:]:
            closed = gl._closure([a, b], cap=odd_part)
            if closed is not None and len(closed) % 2 == 1:
                found.setdefault(closed.tobytes(), closed)
    out = []
    for subset in sorted(found.values(), key=lambda s: (len(s), s.tolist())):
        action = LinearAction(p, n, [elements[i] for i in subset[1:]])
        if action.group_order != len(subset):
            raise TheoremViolation(
                "subgroup closure and action closure disagree",
                {"expected": len(subset), "got": action.group_order},
            )
        out.append(action)
    return out
