"""Finite groups as explicit multiplication tables on dense element ids.

A group of order n lives on ids 0..n-1 with 0 the identity.  Everything
downstream (conjugacy classes, subgroup lattices, series, character
tables) is exact integer table arithmetic, mostly vectorized with numpy.
Facts about a quotient G/N, such as its chief factors or element orders,
are read inside G.  `Group.quotient` builds the image group; its one
caller in the library is `constructors.central_product`, and the method
also stays because the benchmark tracer times it.  Subgroups are closed
by `Group._closure`; a `Subgroup` carries the one parent-to-local id map
(`local_ids`) and its one class-space form (`class_mask`).
Class data and subgroup elements are read-only int64 arrays, one per
field, and sorted; a normal subgroup is read off a class mask as
``np.flatnonzero(mask[class_of])``.  Reports take ints by ``.tolist()``.
Groups are immutable once built; derived data (classes, the normal lattice,
the character table) is filled into a per-instance cache on first use.
Filling is idempotent but unlocked, so concurrent first calls on a shared
instance may compute the same value twice.  A `Group` can be weakly
referenced (``__weakref__``): `chartable` pools weak references to the
groups that hold a table, to transport it to isomorphic groups, so a
pooled group lives no longer than its other references and the pool, like
the caches, is filled idempotently and without a lock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arith import factorize, is_prime, lcm, p_part, prime_power
from .errors import BoundExceeded, ContractViolation, NotNormal

SUBGROUP_BOUND = 2000  # group-order cap on the class atoms, which every series uses
NORMAL_LATTICE_BOUND = 10_000  # ceiling on the number of normal subgroups


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: cached arrays are shared by every caller."""
    a.flags.writeable = False
    return a


class Group:
    """A finite group given by its full n x n multiplication table."""

    __slots__ = ("order", "mul", "inv", "elt_order", "label", "_cache", "__weakref__")

    def __init__(self, mul, label: str = "G", *, validate: bool = True):
        mul = np.asarray(mul)
        if mul.dtype.kind not in "iu":  # no truncated floats, no strings
            raise ValueError(f"table entries must be integers, not {mul.dtype}")
        mul = np.ascontiguousarray(mul, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] == 0:
            raise ValueError("multiplication table must be a nonempty square")
        n = int(mul.shape[0])
        if int(mul.min()) < 0 or int(mul.max()) >= n:
            raise ValueError("table entries must be element ids 0..n-1")
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
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "elt_order", self._element_orders())
        if validate:
            self._check_associativity()

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Group is immutable")

    def __repr__(self):
        return f"Group({self.label}, order={self.order})"

    # -- construction-time checks -------------------------------------------

    def _element_orders(self, inside: np.ndarray | None = None) -> np.ndarray:
        """The least t >= 1 with g^t in N, for every g; N is given by its
        member mask ``inside`` and is the trivial subgroup by default."""
        n = self.order
        ids = np.arange(n)
        if inside is None:
            inside = ids == 0
        orders = np.zeros(n, dtype=np.int64)
        cur = ids.copy()  # g^1
        k = 1
        while (orders == 0).any():
            if k > n:
                raise ValueError("power chains do not return to the identity")
            orders[(orders == 0) & inside[cur]] = k
            cur = self.mul[cur, ids]
            k += 1
        return orders

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

    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily: each next generator is the
        least id outside the closure of those before it."""
        if "generators" not in self._cache:
            span = np.zeros(self.order, dtype=bool)  # closure of the chosen ids
            span[0] = True
            gens = []
            while not span.all():
                s = int(span.argmin())
                gens.append(s)
                span[self._closure(np.append(np.flatnonzero(span), s))] = True
            self._cache["generators"] = tuple(gens)
        return self._cache["generators"]

    # -- elementary queries ---------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        if "abelian" not in self._cache:
            self._cache["abelian"] = bool(np.array_equal(self.mul, self.mul.T))
        return self._cache["abelian"]

    @property
    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = lcm(int(o) for o in self.elt_order)
        return self._cache["exponent"]

    @property
    def is_cyclic(self) -> bool:
        return int(self.elt_order.max()) == self.order

    # -- conjugacy classes ------------------------------------------------------

    def conjugacy_classes(self) -> "ConjugacyClasses":
        if "classes" in self._cache:
            return self._cache["classes"]
        mul, inv = self.mul, self.inv
        least = mul[mul, inv[:, None]].min(axis=0)  # least h·g·h⁻¹ over h, per g
        reps, class_of, sizes = np.unique(least, return_inverse=True, return_counts=True)
        by_class = _readonly(np.argsort(class_of, kind="stable"))
        cc = ConjugacyClasses(
            group=self,
            reps=_readonly(reps),
            sizes=_readonly(sizes),
            members=tuple(np.split(by_class, np.cumsum(sizes)[:-1])),
            class_of=_readonly(class_of),
            inverse_class=_readonly(class_of[inv[reps]]),
        )
        self._cache["classes"] = cc
        return cc

    def centralizer(self, g: int) -> "Subgroup":
        mask = self.mul[:, g] == self.mul[g, :]
        return Subgroup(self, np.nonzero(mask)[0])

    def center(self) -> "Subgroup":
        cc = self.conjugacy_classes()
        return Subgroup(self, np.flatnonzero((cc.sizes == 1)[cc.class_of]), normal=True)

    def derived_subgroup(self) -> "Subgroup":
        if "derived" in self._cache:
            return self._cache["derived"]
        mul, inv = self.mul, self.inv
        s = np.array(self.generators(), dtype=np.int64)
        comm = mul[mul[mul[s[:, None], s], inv[s][:, None]], inv[s]]
        # G′ is the normal closure of the commutators of a generating set:
        # modulo that normal subgroup the generators, hence all of G, commute.
        sub = self.normal_closure(comm.ravel())
        self._cache["derived"] = sub
        return sub

    # -- subgroup plumbing ---------------------------------------------------------

    def _closure(self, seed, cap: int | None = None) -> np.ndarray | None:
        """Multiplicative closure of seed (plus identity); None if cap exceeded."""
        inside = np.zeros(self.order, dtype=bool)
        inside[0] = True
        inside[np.asarray(seed, dtype=np.int64)] = True
        cur = np.flatnonzero(inside)
        while True:
            inside[self.mul[cur[:, None], cur]] = True
            nxt = np.flatnonzero(inside)
            if cap is not None and len(nxt) > cap:
                return None
            if len(nxt) in (len(cur), self.order):
                return nxt
            cur = nxt

    def subgroup(self, elements) -> "Subgroup":
        """Wrap an element set after verifying it is a subgroup."""
        sub = Subgroup(self, list(elements))
        if len(self._closure(sub.elements)) != sub.order:
            raise ValueError("element set is not multiplicatively closed")
        return sub

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, np.array([0]), normal=True)

    def normal_closure(self, seed) -> "Subgroup":
        """Smallest normal subgroup containing the seed elements."""
        seed = np.unique(np.append(np.asarray(list(seed), dtype=np.int64), 0))
        conj = np.unique(self.mul[self.mul[:, seed], self.inv[:, None]])
        return Subgroup(self, self._closure(conj), normal=True)

    def _class_atoms(self) -> list["Subgroup"]:
        """The normal closure of each nontrivial conjugacy class.

        Minimal normal subgroups, radicals and every series go through
        here, so this is where ``SUBGROUP_BOUND`` caps the group order.
        """
        if "atoms" not in self._cache:
            if self.order > SUBGROUP_BOUND:
                raise BoundExceeded("class atoms", self.order, SUBGROUP_BOUND)
            self._cache["atoms"] = [
                self.normal_closure([rep]) for rep in self.conjugacy_classes().reps[1:]
            ]
        return self._cache["atoms"]

    def _joins(self, base: np.ndarray) -> list[np.ndarray]:
        """B·atom(c) for each nontrivial class c: the normal closure of c
        modulo the normal subgroup B, given as sorted ids ``base``."""
        inside = np.zeros(self.order, dtype=bool)
        inside[base] = True
        seen: dict[bytes, np.ndarray] = {}
        out = []
        for atom in (a.elements for a in self._class_atoms()):
            key = atom.tobytes()
            if key not in seen:
                seen[key] = (
                    base if inside[atom].all()
                    else np.unique(self.mul[np.ix_(base, atom)])
                )
            out.append(seen[key])
        return out

    def minimal_normal_subgroups(self) -> list["Subgroup"]:
        """Inclusion-minimal nontrivial normal subgroups.

        Every minimal normal subgroup is the normal closure of any of its
        nontrivial classes, so the inclusion-minimal class closures are
        exactly the minimal normal subgroups.
        """
        if "minimal_normals" in self._cache:
            return self._cache["minimal_normals"]
        seen: dict[bytes, tuple[int, Subgroup]] = {}
        for c, atom in enumerate(self._class_atoms(), start=1):
            seen.setdefault(atom.elements.tobytes(), (c, atom))
        gens = [c for c, _ in seen.values()]
        atoms = [atom for _, atom in seen.values()]
        # A normal subgroup contains atom(c) exactly when it meets class c,
        # so below[i, j] (atom j ≤ atom i) is atom i's class mask at j's class.
        below = np.array([a.class_mask()[gens] for a in atoms], dtype=bool)
        below = below.reshape(len(atoms), len(atoms))
        np.fill_diagonal(below, False)
        out = sorted((a for a, smaller in zip(atoms, below.any(axis=1)) if not smaller),
                     key=lambda s: (s.order, s.elements.tolist()))
        self._cache["minimal_normals"] = out
        return out

    def normal_subgroups(self) -> list["Subgroup"]:
        """All normal subgroups, sorted by (order, elements).

        Every normal subgroup is an intersection of kernels of irreducible
        characters (Isaacs, *Character Theory of Finite Groups*, ch. 2), so
        the lattice is the closure under intersection of the kernels in the
        character table, taken as class bitmasks.  Building the table caps
        the group order at ``chartable.TABLE_ORDER_BOUND``;
        ``NORMAL_LATTICE_BOUND`` caps the number of normal subgroups.
        """
        if "normal_subgroups" not in self._cache:
            self._cache["normal_subgroups"] = self._normal_lattice()
        return self._cache["normal_subgroups"]

    def _normal_lattice(self) -> list["Subgroup"]:
        from .chartable import compute_table  # chartable imports this module

        # Python ints, not int64: a group may have more than 63 classes.
        kernels = {
            sum(1 << c for c in np.flatnonzero(row).tolist())
            for row in compute_table(self)._kernel_mask
        }
        masks = set(kernels)
        frontier = list(kernels)
        while frontier:
            fresh = []
            for mask in frontier:
                for ker in kernels:
                    meet = mask & ker
                    if meet not in masks:
                        masks.add(meet)
                        fresh.append(meet)
                        if len(masks) > NORMAL_LATTICE_BOUND:
                            raise BoundExceeded("normal_subgroups", len(masks),
                                                NORMAL_LATTICE_BOUND)
            frontier = fresh
        cc = self.conjugacy_classes()
        bits = np.array([[m >> c & 1 for c in range(len(cc))] for m in masks], dtype=bool)
        subs = [np.flatnonzero(row[cc.class_of]) for row in bits]
        subs.sort(key=lambda e: (len(e), tuple(e.tolist())))
        if len(subs[0]) != 1 or len(subs[-1]) != self.order:
            raise ContractViolation("normal lattice lacks the trivial or whole group")
        if any(self.order % len(e) for e in subs):
            raise ContractViolation("normal subgroup order does not divide |G|")
        return [Subgroup(self, e, normal=True) for e in subs]

    # -- quotients -------------------------------------------------------------

    def quotient(self, normal: "Subgroup") -> "QuotientMap":
        if normal.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        if not normal.is_normal:
            raise NotNormal(f"{normal} is not normal in {self.label}")
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
        image = Group(img_mul, label=f"{self.label}/{normal.short_label()}",
                      validate=False)
        return QuotientMap(self, normal, image, projection)

    # -- radicals and series ------------------------------------------------------

    def radicals(self, p: int) -> "PRadicals":
        """O_p, O_{p'}, the p-residual O^{p'}, and the Fitting subgroup."""
        key = ("radicals", p)
        if key in self._cache:
            return self._cache[key]
        o_p = self._class_radical(p, mode="p")
        o_pp = self._class_radical(p, mode="p'")
        residual = self._p_residual(p)
        fit = self._fitting()
        out = PRadicals(p=p, o_p=o_p, o_p_prime=o_pp, p_residual=residual, fitting=fit)
        self._cache[key] = out
        return out

    def _class_radical(self, p: int, mode: str,
                       base: Subgroup | None = None) -> "Subgroup":
        """The preimage of O_p(G/B) (mode "p") or O_{p'}(G/B) (mode "p'").

        An element x lies in that preimage exactly when its normal closure
        modulo B, the join B·atom(x), has p-power (or p'-) index over B.  The
        union of those classes is the preimage itself, which we re-verify to
        be closed.  B is the trivial subgroup unless ``base`` says otherwise.
        """
        below = np.array([0], dtype=np.int64) if base is None else base.elements
        cc = self.conjugacy_classes()
        kept = np.ones(len(cc), dtype=bool)  # class 0 is the identity's
        for c, join in enumerate(self._joins(below), start=1):
            m = len(join) // len(below)
            kept[c] = p_part(m, p) == m if mode == "p" else m % p != 0
        union = np.flatnonzero(kept[cc.class_of])
        closed = self._closure(union)
        if len(closed) != len(union):
            raise ContractViolation("radical element set is not closed")
        return Subgroup(self, union, normal=True)

    def _p_residual(self, p: int) -> "Subgroup":
        """O^{p'}(G): the subgroup generated by all p-elements.

        The set of p-elements is conjugation-closed, so the closure is the
        smallest normal subgroup with a p'-quotient.
        """
        seed = np.nonzero(
            np.array([p_part(int(o), p) == int(o) for o in self.elt_order])
        )[0]
        return Subgroup(self, self._closure(seed), normal=True)

    def _fitting(self) -> "Subgroup":
        if "fitting" in self._cache:
            return self._cache["fitting"]
        cur = np.array([0], dtype=np.int64)
        for p in sorted(factorize(self.order)):
            op = self._class_radical(p, mode="p").elements
            cur = np.unique(self.mul[np.ix_(cur, op)])  # join of normals
        sub = Subgroup(self, cur, normal=True)
        self._cache["fitting"] = sub
        return sub

    def iterated_series(self, p: int) -> "IteratedSeries":
        """O_p(G) <= O_{p,p'}(G) <= O_{p,p',p}(G), each step a class radical
        over the one before, computed inside G."""
        o1 = self.radicals(p).o_p
        o2 = self._class_radical(p, mode="p'", base=o1)
        o3 = self._class_radical(p, mode="p", base=o2)
        return IteratedSeries(p=p, o_p=o1, o_p_pprime=o2, o_p_pprime_p=o3)

    def _chief_steps(self, below: np.ndarray):
        """(B, M) for each step of a chief series of G from the normal
        subgroup B = ``below`` (sorted ids) up to G.

        Each step from B takes the smallest join B·atom(c) larger than B,
        ordered by (order, elements).  It is minimal normal over B: any
        normal M > B contains a class c outside B, hence B·atom(c).
        """
        while len(below) < self.order:
            above = min(
                (j for j in self._joins(below) if len(j) > len(below)),
                key=lambda e: (len(e), e.tolist()),
            )
            yield below, above
            below = above

    def chief_series(self) -> list["ChiefFactor"]:
        """A chief series, built inside G from the class atoms."""
        if "chief_series" not in self._cache:
            self._cache["chief_series"] = [
                ChiefFactor(
                    below=Subgroup(self, below, normal=True),
                    above=Subgroup(self, above, normal=True),
                    order=len(above) // len(below),
                )
                for below, above in self._chief_steps(np.array([0], dtype=np.int64))
            ]
        return self._cache["chief_series"]

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
        below = np.array([0], dtype=np.int64) if base is None else base.elements
        index = self.order // len(below)
        # p-groups: every chief factor is central of order p.
        if index == 1 or prime_power(index) is not None:
            return True
        factors = (
            (f.order for f in self.chief_series()) if base is None
            else (len(above) // len(b) for b, above in self._chief_steps(below))
        )
        return all(is_prime(k) for k in factors)


@dataclass(frozen=True)
class ConjugacyClasses:
    """Conjugacy class data, one read-only int64 array per field.

    ``reps[c]`` is the least element of class c and increases with c, so
    class 0 is the identity's; ``members[c]`` lists the class in increasing
    order, and ``inverse_class[c]`` is the class of ``reps[c]``⁻¹.
    """

    group: Group
    reps: np.ndarray
    sizes: np.ndarray
    members: tuple[np.ndarray, ...]
    class_of: np.ndarray
    inverse_class: np.ndarray

    def __len__(self) -> int:
        return len(self.reps)


class Subgroup:
    """A subgroup of a parent group; ``elements`` holds its parent ids,
    sorted, as a read-only int64 array, and its cached masks and id map
    are read-only too."""

    __slots__ = ("parent", "elements", "_cache")

    def __init__(self, parent: Group, elements, *, normal: bool | None = None):
        els = np.unique(np.asarray(elements, dtype=np.int64))
        if els.size == 0 or els[0] != 0 or els[-1] >= parent.order:
            raise ValueError(f"subgroup ids must be 0..{parent.order - 1}, with the identity 0")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "elements", _readonly(els))
        object.__setattr__(self, "_cache", {})
        if normal is not None:
            self._cache["normal"] = normal

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Subgroup is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    def member_mask(self) -> np.ndarray:
        if "mask" not in self._cache:
            mask = np.zeros(self.parent.order, dtype=bool)
            mask[self.elements] = True
            self._cache["mask"] = _readonly(mask)
        return self._cache["mask"]

    def class_mask(self) -> np.ndarray:
        """Boolean mask over the parent's conjugacy classes: the classes this
        subgroup meets.  A normal subgroup is the union of the classes it
        marks; a non-normal one need not contain a class it meets."""
        if "class_mask" not in self._cache:
            cc = self.parent.conjugacy_classes()
            mask = np.zeros(len(cc), dtype=bool)
            mask[cc.class_of[self.elements]] = True
            self._cache["class_mask"] = _readonly(mask)
        return self._cache["class_mask"]

    def __contains__(self, g: int) -> bool:
        return bool(self.member_mask()[g])

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and np.array_equal(self.elements, other.elements)
        )

    def __hash__(self):
        return hash((id(self.parent), self.elements.tobytes()))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label})"

    def short_label(self) -> str:
        return f"N{self.order}"

    @property
    def is_normal(self) -> bool:
        if "normal" not in self._cache:
            G = self.parent
            els = self.elements
            conj = G.mul[G.mul[:, els], G.inv[:, None]]
            self._cache["normal"] = bool(self.member_mask()[conj].all())
        return self._cache["normal"]

    def is_subset_of(self, other: "Subgroup") -> bool:
        return bool(other.member_mask()[self.elements].all())

    def local_ids(self) -> np.ndarray:
        """Parent id -> local id of ``as_group()``; -1 outside the subgroup."""
        if "local" not in self._cache:
            local = np.full(self.parent.order, -1, dtype=np.int64)
            local[self.elements] = np.arange(self.order)
            self._cache["local"] = _readonly(local)
        return self._cache["local"]

    def as_group(self) -> Group:
        """Materialize with dense local ids (sorted by parent id)."""
        if "group" not in self._cache:
            els = self.elements
            local = self.local_ids()[self.parent.mul[np.ix_(els, els)]]
            if local.min() < 0:
                raise ValueError("element set is not multiplicatively closed")
            # A closed piece of an associative table is associative.
            self._cache["group"] = Group(
                local, label=f"{self.parent.label}.sub{self.order}", validate=False
            )
        return self._cache["group"]

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
class QuotientMap:
    """A surjection G -> G/N with kernel N; cosets labelled by minimal id."""

    source: Group
    kernel: Subgroup
    image: Group
    projection: np.ndarray  # length |G|, values are image ids

    def __call__(self, g: int) -> int:
        return int(self.projection[g])


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
