"""Finite groups as explicit multiplication tables on dense element ids.

A group of order n lives on ids 0..n-1 with 0 the identity.  `Group.__init__`
checks the identity and inverses and, with ``validate`` (the default), runs
Light's associativity test: kept for tables the library did not make (a
Cayley file, a caller's own table), since its constructors, subgroups and
quotients are groups by construction.  Everything
downstream (conjugacy classes, subgroup lattices, series, character
tables) is exact integer table arithmetic, mostly vectorized with numpy.
Facts about a quotient G/N, such as its chief factors or element orders,
are read inside G.  `Group.quotient` builds the image group; its one
caller in the library is `constructors.central_product`, and the method
also stays because the benchmark tracer times it.  Subgroups are closed
by `Group._closure`, the span of `_generator_chain` along the seed, and
`Group.subgroup` checks a given set by `Subgroup.as_group`'s closedness
test alone; a `Subgroup` carries the one parent-to-local id map
(`local_ids`), its one class-space form (`class_mask`) and the map of the
classes of `as_group()` into the parent's (`_parent_classes`).  A group made
from a known one inherits its facts instead of recomputing them:
`Subgroup.as_group` takes the parent's inverses and element orders through
`local_ids`, and a group with a byte-equal Cayley table takes its twin's
classes (`Group._adopt_classes`).  `as_group` and `Group.__init__`, after
its checks, both end in one private constructor, `Group._fill`.
Class data and subgroup elements are read-only int64 arrays, one per
field, and sorted.  `Group._normal` makes every normal subgroup the library
returns from a class mask, as ``np.flatnonzero(mask[class_of])`` with that
mask seeded and ``is_normal`` true.  Element-born ones (normal closures,
class atoms, the p-residual, and the joins of the Fitting subgroup and of
each chief step) take their mask from `Group._normal_closure`, which closes
the members of the classes a mask marks and refuses a result that is not a
union of classes.  Those ids skip `Subgroup`'s checks, which they pass by
construction; `Subgroup.is_normal` asks whether a subgroup is the union of
the classes it meets.  The class power map (`Group._power_classes`: the
class of repᵗ for every class and exponent, and the rational classes read
off it) is one memo fact, read by the class atoms and the character-table lift.
The class atoms are kept only as a mask matrix and orders, and are closed
once per rational class, since atom(xᵘ) = atom(x) for u prime to o(x).
Reports take ints by ``.tolist()``.
`_generator_chain` is the one walk of a group along a list of generators,
the orbit of 1 under right multiplication by them: `Group.generators()`,
`Group._closure`, `chartable`'s isomorphism search (which adds the
products it checks) and the maps `constructors` extends from generator
images all follow it.
Groups are immutable once built; derived data (classes, the normal lattice,
the character table) is filled on first use by one route, `_memo`, into the
instance's ``_cache`` under the method name plus positional arguments; a
character's values and a linear action's orbits take the same route.
Filling is idempotent but unlocked, so concurrent first calls on a shared
instance may compute the same value twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from math import lcm

import numpy as np

from ._arith import factorize, is_prime, p_part, prime_power
from .errors import BoundExceeded, ContractViolation, NotNormal

SUBGROUP_BOUND = 2000  # group-order cap on the class atoms, which every series uses
NORMAL_LATTICE_BOUND = 10_000  # ceiling on the number of normal subgroups


def _ids(values, n: int, what: str) -> np.ndarray:
    """``values`` as an int64 array of ids 0..n-1, else ValueError: a
    non-integer dtype is refused, so floats are not truncated and strings not
    parsed, and so is an id out of range (an empty list passes)."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, not {a.dtype}")
    a = a.astype(np.int64, copy=False)
    if a.size and (int(a.min()) < 0 or int(a.max()) >= n):
        raise ValueError(f"{what} must be 0..{n - 1}")
    return a


def _orders_modulo(mul: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """The least t >= 1 with g^t in N, for every g of the table ``mul``, by
    power chains; N is given by its member mask ``inside``."""
    n = len(mul)
    ids = np.arange(n)
    orders = np.zeros(n, dtype=np.int64)
    cur = ids.copy()  # g^1
    k = 1
    while (orders == 0).any():
        if k > n:
            raise ValueError("power chains do not return to the identity")
        orders[(orders == 0) & inside[cur]] = k
        cur = mul[cur, ids]
        k += 1
    return orders


def _generator_chain(s: Group, gens, cap: int | None = None) -> list[tuple] | None:
    """The chain of s along ``gens``, taken in order until they span s: one
    level per generator outside the span of those before it,
    (generator, fresh, parents, gen_pos); None once the span passes ``cap``.

    ``fresh`` lists the elements the generator adds to the span, in
    breadth-first order along the Cayley graph: fresh[i] = parents[i] *
    (the gen_pos[i]-th kept generator), each parent older or earlier in
    the list.
    """
    inside = bytearray(s.order)
    inside[0] = 1
    span = [0]
    columns = []  # x -> x * generator, a view of its column: no n-long list
    levels = []
    for g in gens:
        if inside[g]:
            continue
        columns.append(memoryview(s.mul[:, g]))
        room = (s.order if cap is None else cap) - len(span)
        fresh, parents, gen_pos = [], [], []
        # Older elements by the new generator, then fresh ones, as they are
        # reached, by every kept generator.  The products (a, k) still to take
        # are two int lists: a tuple per step would make the cyclic collector
        # run more often, and so change which tables stay pooled.
        work_a, work_k = list(span), [len(columns) - 1] * len(span)
        for a, k in zip(work_a, work_k):  # both grow as they go
            b = columns[k][a]
            if not inside[b]:
                if len(fresh) == room:
                    return None
                inside[b] = 1
                fresh.append(b)
                parents.append(a)
                gen_pos.append(k)
                work_a += [b] * len(columns)
                work_k += range(len(columns))
        levels.append((g, fresh, parents, gen_pos))
        span += fresh
    return levels


def require_normal(group: "Group", sub: "Subgroup") -> None:
    """Refuse a pair (G, N) unless N is a normal subgroup of G: a subgroup of
    another group raises ValueError, a non-normal one NotNormal."""
    if sub.parent is not group:
        raise ValueError("subgroup belongs to a different group")
    if not sub.is_normal:
        raise NotNormal(f"{sub} is not normal in {group.label}")


def _pair_witness(group: "Group", sub: "Subgroup") -> dict:
    """The fields by which a TheoremViolation witness names the pair (G, N):
    G's label, |N| and N's ids, so ``Subgroup(G, witness["n_elements"])``
    rebuilds N."""
    return {"group": group.label, "n_order": sub.order,
            "n_elements": tuple(sub.elements.tolist())}


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: cached arrays are shared by every caller."""
    a.flags.writeable = False
    return a


def _memo(method):
    """Keep ``method``'s result in the instance's ``_cache``, keyed by the
    method's name, or by (name, *args) when it takes positional arguments.
    Check and normalize arguments before the call: the key is the arguments
    as given, so 3.0 would find the entry for 3."""
    name = method.__name__

    @wraps(method)
    def memoized(self, *args):
        key = (name, *args) if args else name
        if key not in self._cache:
            self._cache[key] = method(self, *args)
        return self._cache[key]

    return memoized


class Group:
    """A finite group given by its full n x n multiplication table."""

    __slots__ = ("order", "mul", "inv", "elt_order", "label", "_cache")

    def __init__(self, mul, label: str = "G", *, validate: bool = True):
        mul = np.asarray(mul)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] == 0:
            raise ValueError("multiplication table must be a nonempty square")
        n = int(mul.shape[0])
        mul = np.ascontiguousarray(_ids(mul, n, "table entries"))
        ids = np.arange(n)
        if not (np.array_equal(mul[0], ids) and np.array_equal(mul[:, 0], ids)):
            raise ValueError("element 0 must be a two-sided identity")
        # Inverses: the identity must appear exactly once per row, and the
        # row inverse must also be the column inverse.
        zero_counts = np.count_nonzero(mul == 0, axis=1)
        if not np.array_equal(zero_counts, np.ones(n, dtype=zero_counts.dtype)):
            raise ValueError("some element has no unique right inverse")
        inv = np.argmax(mul == 0, axis=1)
        if not np.array_equal(mul[inv, ids], np.zeros(n, dtype=np.int64)):
            raise ValueError("right inverses are not left inverses")
        self._fill(mul, inv, _orders_modulo(mul, ids == 0), label)
        if validate:
            self._check_associativity()

    def _fill(self, mul: np.ndarray, inv: np.ndarray, elt_order: np.ndarray,
              label: str) -> "Group":
        """Set the slots from facts known to hold, and return the group: the
        end of ``__init__`` after its checks, and the whole construction of a
        group that inherits its facts from a known one (`Subgroup.as_group`)."""
        object.__setattr__(self, "order", len(mul))
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "elt_order", elt_order)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_cache", {})
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Group is immutable")

    def __repr__(self):
        return f"Group({self.label}, order={self.order})"

    # -- construction-time checks -------------------------------------------

    def _check_associativity(self) -> None:
        """Light's test over the greedy generating set.

        The elements s with (x·s)·y = x·(s·y) for all x, y are closed under
        the product, so checking every s in a set that generates the table
        proves it associative, at |S|·n² cost instead of n³.
        """
        mul = self.mul
        for s in self.generators():
            if not np.array_equal(mul[mul[:, s]], mul[:, mul[s]]):
                raise ValueError(f"associativity fails at element {s}")

    @_memo
    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily: each next generator is the
        least id outside the span of those before it (the chain along all ids)."""
        return tuple(level[0] for level in _generator_chain(self, range(self.order)))

    # -- elementary queries ---------------------------------------------------

    @property
    @_memo
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @property
    @_memo
    def exponent(self) -> int:
        return lcm(*self.elt_order.tolist())

    @property
    def is_cyclic(self) -> bool:
        return int(self.elt_order.max()) == self.order

    # -- conjugacy classes ------------------------------------------------------

    @_memo
    def conjugacy_classes(self) -> "ConjugacyClasses":
        mul, inv = self.mul, self.inv
        least = mul[mul, inv[:, None]].min(axis=0)  # least h·g·h⁻¹ over h, per g
        reps, class_of, sizes = np.unique(least, return_inverse=True, return_counts=True)
        return ConjugacyClasses(
            reps=_readonly(reps),
            sizes=_readonly(sizes),
            by_class=_readonly(np.argsort(class_of, kind="stable")),
            class_of=_readonly(class_of),
            inverse_class=_readonly(class_of[inv[reps]]),
        )

    def _adopt_classes(self, twin: "Group") -> None:
        """Share the classes of ``twin``, a group with this very Cayley
        table, unless this group's classes are already computed: they are a
        function of the table, so both groups hold one object.
        ContractViolation if the tables differ."""
        if not np.array_equal(self.mul, twin.mul):
            raise ContractViolation("a group adopts classes only from a byte-equal table")
        if "conjugacy_classes" not in self._cache:
            self._cache["conjugacy_classes"] = twin.conjugacy_classes()

    def center(self) -> "Subgroup":
        return self._normal(self.conjugacy_classes().sizes == 1)

    @_memo
    def derived_subgroup(self) -> "Subgroup":
        mul, inv = self.mul, self.inv
        s = np.array(self.generators(), dtype=np.int64)
        comm = mul[mul[mul[s[:, None], s], inv[s][:, None]], inv[s]]
        # G′ is the normal closure of the commutators of a generating set:
        # modulo that normal subgroup the generators, hence all of G, commute.
        return self.normal_closure(comm.ravel())

    # -- subgroup plumbing ---------------------------------------------------------

    def _closure(self, seed, cap: int | None = None) -> np.ndarray | None:
        """The sorted ids of the subgroup the seed ids generate, the span of
        `_generator_chain` along them; None once it passes ``cap`` elements."""
        levels = _generator_chain(self, np.asarray(seed, dtype=np.int64).tolist(), cap)
        if levels is None:
            return None
        return np.sort(np.array(sum((level[1] for level in levels), [0])))

    def subgroup(self, elements) -> "Subgroup":
        """Wrap an element set after verifying it is a subgroup (closed, by `as_group`)."""
        sub = Subgroup(self, list(elements))
        sub.as_group()
        return sub

    def trivial_subgroup(self) -> "Subgroup":
        return self._normal(np.arange(len(self.conjugacy_classes())) == 0)

    def normal_closure(self, seed) -> "Subgroup":
        """Smallest normal subgroup containing the seed elements."""
        cc = self.conjugacy_classes()
        seed = cc.class_of[_ids(list(seed), self.order, "seed ids")]
        return self._normal(self._normal_closure(np.isin(np.arange(len(cc)), seed)))

    def _normal(self, mask: np.ndarray) -> "Subgroup":
        """The normal subgroup that is the union of the classes the bool
        mask ``mask`` marks, with ``mask`` as its class mask, its member
        mask read off it and ``is_normal`` true by construction.  The library
        makes every normal subgroup here, from a class-space fact (a kernel,
        a lattice row, a class radical) or from `_normal_closure`; the caller
        vouches that the union is closed.  The ids skip `Subgroup`'s checks: a
        member mask's nonzero positions are sorted, distinct and in range, and
        hold 0 once the mask holds the identity's class, which is checked."""
        if not mask[0]:
            raise ContractViolation("a normal subgroup's class mask lacks the identity class")
        inside = mask[self.conjugacy_classes().class_of]
        sub = Subgroup.__new__(Subgroup)._fill(self, np.flatnonzero(inside))
        sub._cache["member_mask"] = _readonly(inside)
        sub._cache["class_mask"] = _readonly(mask)
        sub._cache["is_normal"] = True
        return sub

    def _normal_closure(self, classes: np.ndarray) -> np.ndarray:
        """The class mask of the subgroup generated by the members of the
        classes the bool mask ``classes`` marks, which is normal as they are;
        ContractViolation unless that closure is a union of classes."""
        cc = self.conjugacy_classes()
        elements = self._closure(np.flatnonzero(classes[cc.class_of]))
        mask = np.zeros(len(cc), dtype=bool)
        mask[cc.class_of[elements]] = True
        if cc.sizes[mask].sum() != len(elements):
            raise ContractViolation("element set is not a union of conjugacy classes")
        return mask

    @_memo
    def _power_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The class power map and the rational classes, both read-only.

        ``powers[c, t]`` is the class of repᵗ, rep the representative of
        class c, for 0 <= t < m, m the largest element order: one power
        chain over all representatives at once, a gather per step.
        ``heads[c]`` is the least class among ``powers[c, u]`` with u prime
        to o(rep): classes c and d are rationally conjugate (their elements
        generate conjugate cyclic subgroups) exactly when their heads agree,
        and a head is the least class of its rational class.
        """
        cc = self.conjugacy_classes()
        m = int(self.elt_order.max())
        powers = np.empty((len(cc), m), dtype=np.int64)
        cur = np.zeros(len(cc), dtype=np.int64)  # repᵗ for every class
        for t in range(m):
            powers[:, t] = cc.class_of[cur]
            cur = self.mul[cur, cc.reps]
        orders = self.elt_order[cc.reps][:, None]
        t = np.arange(m)
        units = (t < orders) & (np.gcd(t, orders) == 1)
        heads = np.where(units, powers, len(cc)).min(axis=1)
        return _readonly(powers), _readonly(heads)

    @_memo
    def _class_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The class masks of the normal closures atom(c) of the nontrivial
        classes c, as one read-only (k−1)×k bool matrix, row c−1 for
        atom(c), and the read-only vector of their orders.

        atom(xᵘ) = atom(x) for u prime to o(x), so one class per rational
        class is closed, its head, and the others take its row.
        Minimal normal subgroups, radicals and every series go through
        here, so this is where ``SUBGROUP_BOUND`` caps the group order.
        """
        if self.order > SUBGROUP_BOUND:
            raise BoundExceeded("class atoms", self.order, SUBGROUP_BOUND)
        cc = self.conjugacy_classes()
        heads = self._power_classes()[1][1:]
        closed = np.unique(heads)
        masks = np.array([self._normal_closure(np.arange(len(cc)) == c) for c in closed],
                         dtype=bool).reshape(-1, len(cc))
        row = np.searchsorted(closed, heads)
        return _readonly(masks[row]), _readonly((masks @ cc.sizes)[row])

    def _join_orders(self, base: np.ndarray) -> np.ndarray:
        """|B·atom(c)| / |B| for each nontrivial class c, B the normal subgroup
        with class mask ``base``: it is |atom(c)| / |B ∩ atom(c)|, and
        B ∩ atom(c) is the classes the two share, so no join is built."""
        masks, orders = self._class_atoms()
        sizes = self.conjugacy_classes().sizes
        return orders // (masks[:, base] @ sizes[base])

    @_memo
    def minimal_normal_subgroups(self) -> list["Subgroup"]:
        """Inclusion-minimal nontrivial normal subgroups.

        Every minimal normal subgroup is the normal closure of any of its
        nontrivial classes, so the inclusion-minimal class closures are
        exactly the minimal normal subgroups.
        """
        masks, _ = self._class_atoms()
        # A normal subgroup contains atom(d) exactly when it contains class d,
        # so inside[c, d] says atom(d + 1) ≤ atom(c + 1).  An atom is kept when
        # every atom below it is itself, at its least class.
        inside = masks[:, 1:]
        smaller = inside & ~inside.T | np.tril(inside, -1)
        return sorted((self._normal(masks[c]) for c in np.flatnonzero(~smaller.any(axis=1))),
                      key=lambda s: (s.order, s.elements.tolist()))

    @_memo
    def normal_subgroups(self) -> list["Subgroup"]:
        """All normal subgroups, sorted by (order, elements): one `Subgroup`
        per row of `_normal_lattice`, holding that row as its class mask."""
        return [self._normal(row) for row in self._normal_lattice()[0]]

    @_memo
    def _normal_lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """The normal lattice as one read-only (L × k) bool matrix of class
        masks, a row per normal subgroup sorted by (order, elements), and
        the read-only int64 vector of their orders.

        Every normal subgroup is an intersection of kernels of irreducible
        characters (Isaacs, *Character Theory of Finite Groups*, ch. 2), so
        the lattice is the closure under intersection of the kernels in the
        character table, taken as class bitmasks, built by one sweep over
        the distinct kernels: after kernel K the set holds every meet of K
        with the kernels before it.  Building the table caps the group
        order at ``chartable.TABLE_ORDER_BOUND``; ``NORMAL_LATTICE_BOUND``
        caps the number of normal subgroups, checked after each kernel,
        which at most doubles the set: it never exceeds 2·bound + 1 masks.
        """
        from .chartable import compute_table  # chartable imports this module

        cc = self.conjugacy_classes()
        # Python ints, not int64: a group may have more than 63 classes.
        packed = np.packbits(compute_table(self)._kernel_mask, axis=1, bitorder="little")
        kernels = {int.from_bytes(row.tobytes(), "little") for row in packed}
        found: set[int] = set()  # every meet of the kernels swept so far
        for ker in kernels:
            found |= {m & ker for m in found}
            found.add(ker)
            if len(found) > NORMAL_LATTICE_BOUND:
                raise BoundExceeded("normal_subgroups", len(found), NORMAL_LATTICE_BOUND)
        width = packed.shape[1]
        rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in found), dtype=np.uint8)
        masks = np.unpackbits(rows.reshape(len(found), width), axis=1, count=len(cc),
                              bitorder="little").view(bool)
        orders = masks @ cc.sizes
        # Of two normal subgroups of one order, the one holding the least
        # element of their symmetric difference sorts first by elements.
        # That element is the least of the first class where their masks
        # differ (reps increase with the class), so rows sort by order, then
        # by mask, True before False.
        order = np.lexsort((*~masks.T[::-1], orders))
        masks, orders = masks[order], orders[order]
        if orders[0] != 1 or orders[-1] != self.order:
            raise ContractViolation("normal lattice lacks the trivial or whole group")
        if np.any(self.order % orders):
            raise ContractViolation("normal subgroup order does not divide |G|")
        return _readonly(masks), _readonly(orders)

    # -- quotients -------------------------------------------------------------

    def quotient(self, normal: "Subgroup") -> "Group":
        """G/N, its ids the cosets in the order of their least members, once
        the coset map is checked to be a homomorphism with fibers of size |N|."""
        require_normal(self, normal)
        n = self.order
        els = normal.elements
        coset_min = self.mul[:, els].min(axis=1)
        reps = np.unique(coset_min)  # sorted; coset of 0 has min 0
        rank = np.full(n, -1, dtype=np.int64)
        rank[reps] = np.arange(len(reps))
        projection = rank[coset_min]
        img_mul = projection[self.mul[np.ix_(reps, reps)]]
        # Full homomorphism check, plus fiber sizes.  The image of an
        # associative table under a homomorphism is associative.
        if not np.array_equal(
            projection[self.mul], img_mul[projection[:, None], projection[None, :]]
        ):
            raise ContractViolation("quotient projection is not a homomorphism")
        fibers = np.bincount(projection, minlength=len(reps))
        if not np.all(fibers == normal.order):
            raise ContractViolation("quotient fibers have unequal sizes")
        return Group(img_mul, label=f"{self.label}/{normal.short_label()}",
                     validate=False)

    # -- radicals and series ------------------------------------------------------

    def radicals(self, p: int) -> "PRadicals":
        """O_p, O_{p'}, the p-residual O^{p'}, and the Fitting subgroup;
        ValueError unless p is a prime."""
        if not (isinstance(p, (int, np.integer)) and is_prime(int(p))):
            raise ValueError(f"p must be a prime, not {p!r}")
        return self._radicals(int(p))

    @_memo
    def _radicals(self, p: int) -> "PRadicals":
        return PRadicals(p=p, o_p=self._class_radical(p, mode="p"),
                         o_p_prime=self._class_radical(p, mode="p'"),
                         p_residual=self._p_residual(p), fitting=self._fitting())

    def _class_radical(self, p: int, mode: str,
                       base: Subgroup | None = None) -> "Subgroup":
        """The preimage of O_p(G/B) (mode "p") or O_{p'}(G/B) (mode "p'").

        An element x lies in that preimage exactly when its normal closure
        modulo B, the join B·atom(x), has p-power (or p'-) index over B: one of
        the `_join_orders` that divides the p-part of |G| (or is prime to p).
        The union of those classes is the preimage itself, which we re-verify
        to be its own normal closure; B is trivial unless ``base`` is given.
        """
        k = len(self.conjugacy_classes())
        m = self._join_orders(np.arange(k) == 0 if base is None else base.class_mask())
        kept = np.append(True, p_part(self.order, p) % m == 0 if mode == "p" else m % p != 0)
        if not np.array_equal(self._normal_closure(kept), kept):
            raise ContractViolation("radical element set is not closed")
        return self._normal(kept)

    def _p_residual(self, p: int) -> "Subgroup":
        """O^{p'}(G): the subgroup generated by all p-elements.

        The set of p-elements is conjugation-closed, so the closure is the
        smallest normal subgroup with a p'-quotient.
        """
        p_power = p_part(self.order, p) % self.elt_order[self.conjugacy_classes().reps] == 0
        return self._normal(self._normal_closure(p_power))

    @_memo
    def _fitting(self) -> "Subgroup":
        """The join of the O_p(G) over the primes p dividing |G|."""
        joined = self.trivial_subgroup().class_mask()
        for p in factorize(self.order):
            joined = joined | self._class_radical(p, mode="p").class_mask()
        return self._normal(self._normal_closure(joined))

    def iterated_series(self, p: int) -> "IteratedSeries":
        """O_p(G) <= O_{p,p'}(G) <= O_{p,p',p}(G), each step a class radical
        over the one before, computed inside G."""
        o1 = self.radicals(p).o_p
        o2 = self._class_radical(p, mode="p'", base=o1)
        o3 = self._class_radical(p, mode="p", base=o2)
        return IteratedSeries(p=p, o_p=o1, o_p_pprime=o2, o_p_pprime_p=o3)

    def _chief_steps(self, below: np.ndarray):
        """(M, |M/B|) for each step B < M of a chief series of G from the
        normal subgroup with class mask ``below`` up to G, M a class mask.

        Each step from B forms one join, B·atom(c), c the least class among
        the least join orders above B.  It is minimal normal over B: any
        normal M > B contains a class c outside B, hence B·atom(c).  As class
        representatives are least elements ordered by class, it is also the
        least such join by (order, elements).
        """
        masks = self._class_atoms()[0]
        sizes = self.conjugacy_classes().sizes
        while not below.all():
            m = self._join_orders(below)
            c = int(np.argmax(m == m[m > 1].min()))
            above = self._normal_closure(below | masks[c])
            if sizes[above].sum() != sizes[below].sum() * m[c]:
                raise ContractViolation("chief step join differs from its class-space order")
            yield above, int(m[c])
            below = above

    @_memo
    def chief_series(self) -> list["ChiefFactor"]:
        """A chief series, built inside G from the class atoms; each factor's
        ``above`` is the next one's ``below``."""
        factors, below = [], self.trivial_subgroup()
        for mask, order in self._chief_steps(below.class_mask()):
            above = self._normal(mask)
            factors.append(ChiefFactor(below=below, above=above, order=order))
            below = above
        return factors

    def is_solvable(self) -> bool:
        """Every chief factor T^k (T simple) has prime-power order.

        A nonabelian simple T has at least three prime divisors (Burnside's
        p^a q^b theorem), so this holds exactly when every T is cyclic.
        """
        return all(prime_power(f.order) is not None for f in self.chief_series())

    def is_nilpotent(self) -> bool:
        return self._fitting().order == self.order

    def is_supersolvable(self, base: "Subgroup | None" = None) -> bool:
        """Is G/B supersolvable, B the trivial subgroup unless ``base`` says
        otherwise?  That is, has every chief factor of G above B prime
        order?  By Jordan–Hölder any chief series gives the same orders."""
        if base is not None:
            require_normal(self, base)
        index = self.order if base is None else self.order // base.order
        # p-groups: every chief factor is central of order p.
        if index == 1 or prime_power(index) is not None:
            return True
        factors = (
            (f.order for f in self.chief_series()) if base is None
            else (order for _, order in self._chief_steps(base.class_mask()))
        )
        return all(is_prime(k) for k in factors)


@dataclass(frozen=True, eq=False)
class ConjugacyClasses:
    """Conjugacy class data, one read-only int64 array per field.  An
    instance compares and hashes by identity.

    ``reps[c]`` is the least element of class c and increases with c, so
    class 0 is the identity's; ``by_class`` lists the elements class by
    class, each class in increasing order, and ``inverse_class[c]`` is the
    class of ``reps[c]``⁻¹.
    """

    reps: np.ndarray
    sizes: np.ndarray
    by_class: np.ndarray
    class_of: np.ndarray
    inverse_class: np.ndarray

    def __len__(self) -> int:
        return len(self.reps)

    @cached_property
    def members(self) -> tuple[np.ndarray, ...]:
        """``members[c]``: class c in increasing order, a read-only view of
        ``by_class``, split on first read."""
        return tuple(np.split(self.by_class, np.cumsum(self.sizes)[:-1]))


class Subgroup:
    """A subgroup of a parent group; ``elements`` holds its parent ids,
    sorted, as a read-only int64 array, and its cached masks and id map
    are read-only too."""

    __slots__ = ("parent", "elements", "_cache")

    def __init__(self, parent: Group, elements):
        els = np.unique(_ids(elements, parent.order, "subgroup ids"))
        if els.size == 0 or els[0] != 0:
            raise ValueError("subgroup ids must include the identity 0")
        self._fill(parent, els)

    def _fill(self, parent: Group, els: np.ndarray) -> "Subgroup":
        """Set the slots from sorted, distinct, in-range int64 ids that hold
        0, and return the subgroup: the end of ``__init__`` after its checks,
        and all of `Group._normal`, whose ids hold these by construction."""
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "elements", _readonly(els))
        object.__setattr__(self, "_cache", {})
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Subgroup is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    @_memo
    def member_mask(self) -> np.ndarray:
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[self.elements] = True
        return _readonly(mask)

    @_memo
    def class_mask(self) -> np.ndarray:
        """Boolean mask over the parent's conjugacy classes: the classes this
        subgroup meets.  A normal subgroup is the union of the classes it
        marks; a non-normal one need not contain a class it meets."""
        cc = self.parent.conjugacy_classes()
        mask = np.zeros(len(cc), dtype=bool)
        mask[cc.class_of[self.elements]] = True
        return _readonly(mask)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and np.array_equal(self.elements, other.elements)
        )

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label})"

    def short_label(self) -> str:
        return f"N{self.order}"

    @property
    @_memo
    def is_normal(self) -> bool:
        """Is this subgroup the union of the classes it meets?"""
        sizes = self.parent.conjugacy_classes().sizes
        return int(sizes[self.class_mask()].sum()) == self.order

    def is_subset_of(self, other: "Subgroup") -> bool:
        return bool(other.member_mask()[self.elements].all())

    @_memo
    def local_ids(self) -> np.ndarray:
        """Parent id -> local id of ``as_group()``; -1 outside the subgroup."""
        local = np.full(self.parent.order, -1, dtype=np.int64)
        local[self.elements] = np.arange(self.order)
        return _readonly(local)

    @_memo
    def as_group(self) -> Group:
        """Materialize with dense local ids (sorted by parent id).

        The group inherits its facts from the parent rather than
        recomputing them: a closed piece of an associative table is an
        associative table with identity 0, each element keeps its parent
        inverse (a closed subset of a finite group holds them) and its
        parent order, so inverses and orders are the parent's read through
        `local_ids`.  Only closure is checked."""
        parent, els, local_ids = self.parent, self.elements, self.local_ids()
        local = local_ids[parent.mul[np.ix_(els, els)]]
        if local.min() < 0:
            raise ValueError("element set is not multiplicatively closed")
        return Group.__new__(Group)._fill(local, local_ids[parent.inv[els]],
                                          parent.elt_order[els],
                                          f"{parent.label}.sub{self.order}")

    @_memo
    def _parent_classes(self) -> np.ndarray:
        """The parent class of each class of ``as_group()``, whose classes
        its character table holds."""
        reps = self.as_group().conjugacy_classes().reps
        return _readonly(self.parent.conjugacy_classes().class_of[self.elements[reps]])

    def to_parent(self, local_id):
        """Map local (materialized) ids to parent ids; scalar or array."""
        return self.elements[local_id]

    def within(self, outer: "Subgroup") -> "Subgroup":
        """This subgroup as a subgroup of ``outer.as_group()``.

        Local ids sort by parent id, so the result's local ids map back, in
        order, to this subgroup's parent ids: it materializes to the same
        table as ``self.as_group()``, and a character of this subgroup is
        used as it stands.
        """
        if outer.parent is not self.parent or not self.is_subset_of(outer):
            raise ValueError("subgroup is not contained in the outer one")
        inner = Subgroup(outer.as_group(), outer.local_ids()[self.elements])
        if not np.array_equal(outer.to_parent(inner.elements), self.elements):
            raise ContractViolation("local ids of the inner subgroup are out of order")
        return inner


@dataclass(frozen=True)
class PRadicals:
    p: int
    o_p: Subgroup
    o_p_prime: Subgroup
    p_residual: Subgroup  # O^{p'}(G)
    fitting: Subgroup


@dataclass(frozen=True)
class IteratedSeries:
    p: int
    o_p: Subgroup
    o_p_pprime: Subgroup
    o_p_pprime_p: Subgroup


@dataclass(frozen=True)
class ChiefFactor:
    below: Subgroup
    above: Subgroup
    order: int  # |above / below|


# -- Frobenius structure -------------------------------------------------------


def acts_fixed_point_freely(G: Group, acting: np.ndarray, N: Subgroup,
                            below: np.ndarray | None = None) -> bool:
    """True when no element of ``acting`` (a boolean mask over G, leaving
    out B) centralizes a nonidentity element of N/B, i.e. each acts on N/B
    by conjugation with no fixed point but B.  B is a normal subgroup inside
    N given by its member mask ``below``, the trivial subgroup by default."""
    if below is None:
        below = np.arange(G.order) == 0
    xs = N.elements[~below[N.elements]]
    gs = np.flatnonzero(acting)
    gx, xg = G.mul[np.ix_(gs, xs)], G.mul[np.ix_(xs, gs)].T
    return not np.any(below[G.mul[gx, G.inv[xg]]])  # [g, x] ∈ B


def is_frobenius_with_kernel(G: Group, N: Subgroup) -> bool:
    """True when G is a Frobenius group with kernel N.

    Criterion: N is a proper nontrivial normal subgroup and the centralizer
    of every nonidentity element of N stays inside N.  Read in the other
    direction this says exactly that no element outside N fixes a nonidentity
    element of N under conjugation.
    """
    if N.parent is not G:
        raise ValueError("subgroup belongs to a different group")
    if N.order in (1, G.order) or not N.is_normal:
        return False
    return acts_fixed_point_freely(G, ~N.member_mask(), N)


def frobenius_complement(G: Group, N: Subgroup) -> Subgroup | None:
    """A Frobenius complement to N, or None if G is not Frobenius over N.

    Built, not searched for.  Let x be the least id outside N; <x> meets N
    only in 1, as G is N together with the complements.  Starting from
    S = <x>, each y outside N, in id order, joins S when the closure of S
    and y meets N only in 1.  A subgroup K that contains x and meets N
    only in 1 lies in the one complement through x: by Schur–Zassenhaus
    inside NK it lies in some complement, and distinct complements meet
    trivially.  So S grows inside that complement and reaches all of it.
    """
    if not is_frobenius_with_kernel(G, N):
        return None
    m = G.order // N.order
    mask = N.member_mask()
    outside = np.flatnonzero(~mask)
    comp = G._closure(outside[:1])
    for y in outside:
        if len(comp) == m:
            break
        grown = G._closure(np.append(comp, y), cap=m)
        if grown is not None and np.count_nonzero(mask[grown]) == 1:
            comp = grown
    if len(comp) != m or np.count_nonzero(mask[comp]) != 1:
        raise ContractViolation("the grown subgroup is not a complement to N")
    return Subgroup(G, comp)


def pprime_elements_fpf(G: Group, N: Subgroup, p: int) -> bool:
    """Do all nontrivial p'-elements act fixed-point-freely on N?

    Element-wise criterion; equivalent to a p'-Hall subgroup acting as a
    Frobenius complement on N when one exists, since a Hall subgroup acts
    freely exactly when each of its nontrivial elements does.
    """
    if N.parent is not G:
        raise ValueError("subgroup belongs to a different group")
    pprime = np.gcd(G.elt_order, p) == 1
    pprime[0] = False
    return acts_fixed_point_freely(G, pprime, N)
