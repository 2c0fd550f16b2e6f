"""Brute-force reference implementations used only by the tests.

Everything here recomputes library answers straight from definitions with
plain Python loops (no numpy vectorization, no shared helpers), so
agreement with the library is a meaningful cross-check rather than the
same code run twice.  `residual_shape_by_quotient` is the one oracle that
builds quotient groups: it reads the residual cases ii/iii of
`pairs.residual_case` from J/O_p(J) and its quotient by `Group.quotient`,
where the library reads them inside J; `coset_labels` maps J onto J/O_p(J)
by the quotient's own numbering.  `centralizer`, C_G(g) by one vectorized
comparison, serves the definitional cross-checks and no library code.
Three more oracles are vectorized.
`verify_table_by_coefficients` computes every Gram entry of both
orthogonality relations as a cyclotomic integer in the power basis, where
`chartable.verify_table` evaluates them mod split primes.
`gf_by_polynomials` builds GF(q) from polynomials, its modulus found by
trial division of list polynomials and every product by schoolbook
multiplication and long division over all pairs at once, where
`gf.gf_field` multiplies by powers of the companion matrix.
`chief_series_by_joins` builds the element set of every join B·atom(c) at
each chief step and takes the least by (order, elements), the rule that
`Group.chief_series` meets with one join per step.
`matrix_group_by_products` closes a matrix group one numpy product per
element, the reference for the batched coset closure of `LinearAction`.
`matrix_perm_big_endian` numbers vectors digit by digit, the reference for
`constructors._matrix_perm`.
`kernel_meet_closure` meets the character kernels round by round until
nothing new appears, where `Group._normal_lattice` sweeps them once.
`invariant_rows_by_fusion` compares rows over the blocks of
`class_fusion`, one G-class's members at a time, where
`clifford.invariant_rows` reads the blocks off N's class representatives
in one gather.
`greedy_generators` closes the span anew for each generator it picks,
where `Group.generators()` reads the picks off one generator chain.
`Cyclotomic` adds the ring operations to the library's value type, which
the pipeline never computes with; the exact sums here run on it.
"""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np

from groupchar import cyclotomic
from groupchar._arith import euler_phi
from groupchar.chartable import compute_table
from groupchar.cyclotomic import _reduction_table
from groupchar.errors import ContractViolation
from groupchar.groups import Subgroup, _ids, require_normal


class Cyclotomic(cyclotomic.Cyclotomic):
    """The library's cyclotomic integers with the ring operations, which no
    pipeline path uses: sums, products, promotion, the Galois action and
    evaluation mod q.  Equality and display are the library's own.  A
    library value such as ``chi(g)`` or ``chi.values[c]`` enters the ring by
    `ring`; mixing the two types in one operation is a TypeError."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def integer(c: int, conductor: int = 1) -> "Cyclotomic":
        phi = euler_phi(conductor)
        return Cyclotomic(conductor, (int(c),) + (0,) * (phi - 1))

    @staticmethod
    def zero(conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic.integer(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic.integer(1, conductor)

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "Cyclotomic":
        return Cyclotomic(conductor, _reduction_table(conductor)[power % conductor])

    @staticmethod
    def from_exponents(conductor: int, mult: dict[int, int]) -> "Cyclotomic":
        """Sum of mult[j] * zeta^j over the given exponents."""
        red = _reduction_table(conductor)
        phi = euler_phi(conductor)
        acc = [0] * phi
        for j, m in mult.items():
            if m:
                row = red[j % conductor]
                for i in range(phi):
                    acc[i] += m * row[i]
        return Cyclotomic(conductor, acc)

    # -- coercion ----------------------------------------------------------

    def promote(self, conductor: int) -> "Cyclotomic":
        """Rewrite in Z[zeta_E] for a multiple E of the current conductor."""
        e = self.conductor
        if conductor == e:
            return self
        if conductor % e:
            raise ValueError(f"{conductor} is not a multiple of conductor {e}")
        step = conductor // e
        return Cyclotomic.from_exponents(
            conductor, {j * step: c for j, c in enumerate(self.coeffs) if c}
        )

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, int):
            other = Cyclotomic.integer(other, self.conductor)
        if not isinstance(other, Cyclotomic):
            return NotImplemented, NotImplemented
        if self.conductor == other.conductor:
            return self, other
        import math

        e = math.lcm(self.conductor, other.conductor)
        return self.promote(e), other.promote(e)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        e = a.conductor
        red = _reduction_table(e)
        phi = len(a.coeffs)
        acc = [0] * phi
        for i, ci in enumerate(a.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(b.coeffs):
                if not cj:
                    continue
                k = i + j
                c = ci * cj
                if k < phi:
                    acc[k] += c
                else:
                    row = red[k % e]
                    for t in range(phi):
                        acc[t] += c * row[t]
        return Cyclotomic(e, acc)

    __rmul__ = __mul__

    # -- structure maps ------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta -> zeta^k; k must be coprime to the conductor."""
        import math

        e = self.conductor
        if math.gcd(k, e) != 1:
            raise ValueError(f"{k} is not coprime to conductor {e}")
        return Cyclotomic.from_exponents(
            e, {j * k % e: c for j, c in enumerate(self.coeffs) if c}
        )

    def conjugate(self) -> "Cyclotomic":
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def evaluate_mod(self, z: int, q: int) -> int:
        """Image in F_q under zeta_e -> z (z a primitive e-th root mod q)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * z + c) % q
        return acc


def ring(value) -> Cyclotomic:
    """A library value, ``chi(g)`` or ``chi.values[c]``, as a ring element."""
    return Cyclotomic(value.conductor, value.coeffs)


def centralizer(group, g: int) -> Subgroup:
    """C_G(g) as a subgroup: the x whose row and column at g agree.  Only
    definitional cross-checks need it; the library reads |C_G(g)| as |G|
    over the size of g's class."""
    g = int(_ids(g, group.order, "element id"))
    mask = group.mul[:, g] == group.mul[g, :]
    return Subgroup(group, np.nonzero(mask)[0])


def coset_labels(group, normal) -> list[int]:
    """The image of every g under G -> G/N, with the cosets numbered as
    `Group.quotient` numbers them: in the order of their least members."""
    mul, members = group.mul.tolist(), normal.elements.tolist()
    least = [min(mul[g][x] for x in members) for g in range(group.order)]
    rank = {m: i for i, m in enumerate(sorted(set(least)))}
    return [rank[m] for m in least]


def centralizer_order(mul, x: int) -> int:
    n = len(mul)
    return sum(1 for y in range(n) if mul[x][y] == mul[y][x])


def conjugacy_partition(mul) -> list[frozenset]:
    """Classes as frozensets, ordered by least member."""
    n = len(mul)
    inv = [0] * n
    for x in range(n):
        for y in range(n):
            if mul[x][y] == 0:
                inv[x] = y
    seen = set()
    classes = []
    for x in range(n):
        if x in seen:
            continue
        cls = {mul[mul[g][x]][inv[g]] for g in range(n)}
        seen |= cls
        classes.append(frozenset(cls))
    return classes


def is_subgroup(mul, elems) -> bool:
    s = set(elems)
    if 0 not in s:
        return False
    return all(mul[a][b] in s for a in s for b in s)


def is_normal(mul, elems) -> bool:
    if not is_subgroup(mul, elems):
        return False
    n = len(mul)
    inv = [next(y for y in range(n) if mul[x][y] == 0) for x in range(n)]
    s = set(elems)
    return all(mul[mul[g][x]][inv[g]] in s for g in range(n) for x in s)


def generated(mul, seed) -> frozenset:
    """The subgroup generated by the seed ids, closed one product at a time."""
    out = set(seed) | {0}
    frontier = list(out)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(out):
                for c in (mul[a][b], mul[b][a]):
                    if c not in out:
                        out.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(out)


def normal_lattice(mul) -> list[tuple[int, ...]]:
    """Every normal subgroup as a sorted element tuple, ordered by
    (order, elements): the normal closures of single classes (the atoms),
    joined one atom at a time until nothing new appears.  The join of two
    normal subgroups N and A is the product set N·A, a union of cosets xN."""

    def join(normal: frozenset, atom: frozenset) -> frozenset:
        out = set(normal)
        for x in atom:
            if x not in out:
                out.update(mul[x][y] for y in normal)
        return frozenset(out)

    # A class is closed under conjugation, so the subgroup it generates is
    # its normal closure.
    atoms = {generated(mul, cls) for cls in conjugacy_partition(mul)[1:]}
    found = {frozenset([0])} | atoms
    queue = list(found)
    while queue:
        cur = queue.pop()
        for atom in atoms:
            if atom <= cur:
                continue
            joined = join(cur, atom)
            if joined not in found:
                found.add(joined)
                queue.append(joined)
    return sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t))


def kernel_meet_closure(kernel_mask) -> set[frozenset]:
    """Every intersection of the kernels given as the rows of a class-mask
    matrix (kernel_mask[r, c]: class c lies in the kernel of row r), each a
    frozenset of class indices: each round meets every set found in the
    last round with every kernel, until a round finds nothing new."""
    kernels = {frozenset(c for c, inside in enumerate(row) if inside)
               for row in kernel_mask.tolist()}
    found = set(kernels)
    frontier = list(kernels)
    while frontier:
        fresh = []
        for mask in frontier:
            for ker in kernels:
                meet = mask & ker
                if meet not in found:
                    found.add(meet)
                    fresh.append(meet)
        frontier = fresh
    return found


def join_orders_by_products(G, B) -> list[int]:
    """|B·atom(c)| / |B| for each nontrivial class c, by least member, with
    atom(c) the subgroup the class generates and B·atom(c) built as the
    union of the cosets B·x over x in atom(c)."""
    mul = G.mul.tolist()
    base = set(B.elements.tolist())
    out = []
    for cls in conjugacy_partition(mul)[1:]:
        join = set(base)
        for x in generated(mul, cls):
            if x not in join:
                join.update(mul[b][x] for b in base)
        out.append(len(join) // len(base))
    return out


def chief_series_by_joins(G) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(below, above) element tuples of a chief series: from B = 1, each
    step builds B·atom(c) for every nontrivial class c, atom(c) its normal
    closure, and takes the least join above B by (order, elements)."""
    atoms = [G.normal_closure([rep]).elements for rep in G.conjugacy_classes().reps[1:]]
    below = np.array([0])
    steps = []
    while len(below) < G.order:
        joins = (np.unique(G.mul[np.ix_(below, atom)]) for atom in atoms)
        above = min((j for j in joins if len(j) > len(below)),
                    key=lambda e: (len(e), e.tolist()))
        steps.append((tuple(below.tolist()), tuple(above.tolist())))
        below = above
    return steps


def derived_subgroup(mul) -> tuple[int, ...]:
    """G′ as a sorted element tuple: every commutator x·y·x⁻¹·y⁻¹ over all
    pairs, closed under products."""
    n = len(mul)
    inv = [mul[x].index(0) for x in range(n)]
    span = {mul[mul[mul[x][y]][inv[x]]][inv[y]] for x in range(n) for y in range(n)}
    while True:
        grown = {mul[a][b] for a in span for b in span}
        if grown <= span:
            return tuple(sorted(span))
        span |= grown


def greedy_generators(group) -> tuple[int, ...]:
    """A generating set, chosen greedily: each next generator is the least
    id outside the closure (by the library's ``Group._closure``) of those
    before it."""
    span = np.zeros(group.order, dtype=bool)  # closure of the chosen ids
    span[0] = True
    gens = []
    while not span.all():
        s = int(span.argmin())
        gens.append(s)
        span[group._closure(np.append(np.flatnonzero(span), s))] = True
    return tuple(gens)


def all_subgroups(G):
    """Every subgroup, by closing known subgroups with one extra generator.

    Exponential in bad cases, so only for small groups.  It closes with the
    library's ``Group._closure``; the enumeration is what is independent.
    """
    found: dict[tuple, object] = {}
    queue = []
    for g in range(G.order):
        els = G._closure([g])
        key = tuple(els.tolist())
        if key not in found:
            found[key] = els
            queue.append(els)
    while queue:
        cur = queue.pop()
        cur_set = set(cur.tolist())
        for g in range(1, G.order):
            if g in cur_set:
                continue
            els = G._closure(list(cur_set) + [g])
            key = tuple(els.tolist())
            if key not in found:
                found[key] = els
                queue.append(els)
    subs = sorted(found.values(), key=lambda e: (len(e), tuple(e.tolist())))
    return [Subgroup(G, e) for e in subs]


def element_order(mul, x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = mul[y][x]
        k += 1
    return k


def power_classes_by_products(G) -> tuple[list[list[int]], list[int]]:
    """The class of repᵗ for every class representative and 0 <= t < m, m
    the largest element order, each power one product after the last; and
    for every class the least class of its rational class, by definition:
    classes c and d are one rational class when their elements generate
    conjugate cyclic subgroups.  The conjugates of ⟨x⟩ are the ⟨y⟩ for y
    in x's class, so a class is named by the least of its members' cyclic
    subgroups as sorted tuples.  The classes are the library's."""
    mul = G.mul.tolist()
    cc = G.conjugacy_classes()
    class_of = cc.class_of.tolist()
    m = max(element_order(mul, x) for x in range(len(mul)))
    powers = []
    for rep in cc.reps.tolist():
        row, y = [], 0
        for _ in range(m):
            row.append(class_of[y])
            y = mul[y][rep]
        powers.append(row)

    def cyclic(x):
        out, y = [0], x
        while y != 0:
            out.append(y)
            y = mul[y][x]
        return tuple(sorted(out))

    names = [min(cyclic(y) for y in members.tolist()) for members in cc.members]
    heads = [names.index(name) for name in names]
    return powers, heads


def perm_cayley(perms) -> list[list[int]]:
    """Cayley table of a composition-closed list of permutations, one cell
    at a time: entry [i][j] is the index of s∘t, where (s∘t)[x] = s[t[x]]
    for s = perms[i] and t = perms[j]."""
    index = {tuple(p): i for i, p in enumerate(perms)}
    return [[index[tuple(s[t[x]] for x in range(len(s)))] for t in perms]
            for s in perms]


def is_frobenius_kernel(group, sub) -> bool:
    """No commuting pair (x, y) with x outside N and y a nonidentity
    element of N — the definitional form of 'Frobenius with kernel N'."""
    if not sub.is_normal or sub.order in (1, group.order):
        return False
    mul = group.mul
    members = set(int(v) for v in sub.elements)
    for x in range(group.order):
        if x in members:
            continue
        for y in members:
            if y != 0 and mul[x][y] == mul[y][x]:
                return False
    return True


def camina_f2(group, sub) -> bool:
    """The conjugation form: x is conjugate to xy for every x outside N
    and every y in N."""
    mul = group.mul
    inv = group.inv
    members = set(int(v) for v in sub.elements)
    classes = {}
    for x in range(group.order):
        cls = frozenset(int(mul[mul[g, x], inv[g]]) for g in range(group.order))
        classes[x] = cls
    for x in range(group.order):
        if x in members:
            continue
        for y in members:
            if int(mul[x, y]) not in classes[x]:
                return False
    return True


def _quaternion8_times_odd_cyclic(mul) -> bool:
    """Is the group Q8 × C, C cyclic of odd order?  The elements of 2-power
    order form a subgroup of order 8 with one involution and two elements
    that do not commute; those of odd order form a subgroup with an
    element of order |G| / 8; and each of the first commutes with each of
    the second."""
    n = len(mul)
    if n % 8 or (n // 8) % 2 == 0:
        return False
    orders = [element_order(mul, x) for x in range(n)]
    two = [x for x in range(n) if orders[x] & (orders[x] - 1) == 0]
    odd = [x for x in range(n) if orders[x] % 2 == 1]
    return (
        len(two) == 8 and is_subgroup(mul, two) and is_subgroup(mul, odd)
        and orders.count(2) == 1
        and any(mul[a][b] != mul[b][a] for a in two for b in two)
        and max(orders[x] for x in odd) == n // 8
        and all(mul[a][b] == mul[b][a] for a in two for b in odd)
    )


def residual_shape_by_quotient(j_grp, p: int) -> tuple:
    """(case, |M:K|, |J:M|) for K = O_p(J) and M = O_{p,p'}(J), read from
    the quotient groups Q = J/K and Q/(M/K) that `Group.quotient` builds.
    Case "ii": M/K cyclic of odd order, J/M abelian, and no element of Q
    outside M/K commuting with a nonidentity element of M/K.  Case "iii":
    p = 3, M/K ≅ Q8 × odd cyclic, J/M abelian, and the commutators [x, y]
    (x ∈ Q, y ∈ M/K) generating M/K.  Otherwise None."""
    series = j_grp.iterated_series(p)
    q = j_grp.quotient(series.o_p)
    mul, inv = q.mul.tolist(), q.inv.tolist()
    label = coset_labels(j_grp, series.o_p)
    middle = sorted({label[x] for x in series.o_p_pprime.elements.tolist()})
    mid_grp = Subgroup(q, middle).as_group()
    top = q.quotient(Subgroup(q, middle))
    shape = (mid_grp.order, top.order)
    if not top.is_abelian:
        return (None, *shape)
    in_middle = set(middle)
    outside = [x for x in range(q.order) if x not in in_middle]
    fpf = all(mul[x][y] != mul[y][x] for x in outside for y in middle[1:])
    if mid_grp.is_cyclic and mid_grp.order % 2 == 1 and fpf:
        return ("ii", *shape)
    if p == 3 and _quaternion8_times_odd_cyclic(mid_grp.mul.tolist()):
        comms = {mul[mul[mul[x][y]][inv[x]]][inv[y]]
                 for x in range(q.order) for y in middle}
        if generated(mul, comms) == in_middle:
            return ("iii", *shape)
    return (None, *shape)


def verify_table_by_coefficients(table) -> dict:
    """Exact verification of both orthogonality relations and degree facts,
    with every Gram entry computed as a cyclotomic integer in the power
    basis.

    Raises ContractViolation on any failure; returns a small summary dict.
    """
    group = table.group
    n = group.order
    k = len(table.classes.reps)
    if len(table.rows) != k:
        raise ContractViolation("row count differs from class count")
    degrees = table.degrees
    if int((degrees * degrees).sum()) != n:
        raise ContractViolation("sum of degree squares is not the group order")
    for d in degrees:
        if n % int(d):
            raise ContractViolation("degree does not divide group order")
    coeffs = table._coeffs
    if not (np.all(coeffs[0, :, 0] == 1) and not coeffs[0, :, 1:].any()):
        raise ContractViolation("first row is not the trivial character")

    e = table.conductor
    phi = euler_phi(e)
    red = np.array(_reduction_table(e), dtype=np.int64)
    red2 = red[np.arange(2 * phi - 1) % e]
    conj = coeffs[:, table.classes.inverse_class, :]
    sizes = np.asarray(table.classes.sizes, dtype=np.int64)

    # Row orthogonality: sum_k |C_k| chi_r(g_k) conj(chi_s(g_k)) = |G| delta_rs.
    gram = _weighted_gram(coeffs, conj, sizes, red2, phi, sum_axis=1)
    _check_gram(gram, np.full(k, n, dtype=np.int64), "row orthogonality")

    # Column orthogonality: sum_r chi_r(g_k) conj(chi_r(g_l)) = |C(g_k)| delta_kl.
    gramc = _weighted_gram(
        coeffs.transpose(1, 0, 2),
        conj.transpose(1, 0, 2),
        np.ones(k, dtype=np.int64),
        red2,
        phi,
        sum_axis=1,
    )
    _check_gram(gramc, n // sizes, "column orthogonality")

    return {
        "order": n,
        "classes": k,
        "conductor": e,
        "prime": table.prime,
        "degrees": [int(d) for d in degrees],
    }


def _weighted_gram(a, b, weights, red2, phi, sum_axis):
    """Gram[r, s, :] = sum_k w_k * (a[r,k] ⊛ conj-side b[s,k]) in coeff space."""
    bw = b * weights[None, :, None]
    prod = np.tensordot(a, bw, axes=([sum_axis], [sum_axis]))  # (r, i, s, j)
    # conv[r, s, t] = sum over i + j = t of prod[r, i, s, j]
    conv = np.zeros((prod.shape[0], prod.shape[2], 2 * phi - 1), dtype=np.int64)
    for i in range(phi):
        conv[:, :, i:i + phi] += prod[:, i]
    return conv @ red2


def _check_gram(gram, diagonal, what: str):
    k = gram.shape[0]
    expected = np.zeros_like(gram)
    expected[np.arange(k), np.arange(k), 0] = diagonal
    if not np.array_equal(gram, expected):
        raise ContractViolation(f"{what} fails exactly")


def kernel_by_values(chi) -> set[int]:
    """Definitional character kernel: the g with chi(g) = chi(1)."""
    group = chi.table.group
    one = Cyclotomic.integer(chi.degree, chi.table.conductor)
    return {g for g in range(group.order) if chi(g) == one}


def irr_over_by_values(table, sub) -> list[int]:
    """Row indices whose definitional kernel does not contain N."""
    members = set(int(v) for v in sub.elements)
    out = []
    for chi in table:
        if not members <= kernel_by_values(chi):
            out.append(chi.index)
    return out


def restriction_inner(chi, theta, sub) -> int:
    """Exact [chi|_N, theta] via cyclotomic sums over the elements of N."""
    acc = Cyclotomic.zero(chi.table.conductor)
    for local in range(sub.order):
        parent = int(sub.to_parent(local))
        acc = acc + ring(chi(parent)) * ring(theta(local)).conjugate()
    if not acc.is_integer():
        raise AssertionError("inner product is not a rational integer")
    total = acc.as_int()
    if total % sub.order:
        raise AssertionError("inner product sum not divisible by |N|")
    return total // sub.order


def inner_product(chi, psi) -> int:
    """[chi, psi] = (1/|G|) sum over classes of |C| chi(g) conj(psi(g)),
    from the cyclotomic values of two rows of one table."""
    table = chi.table
    acc = Cyclotomic.zero(table.conductor)
    for c, size in enumerate(table.classes.sizes):
        acc = acc + int(size) * (ring(chi.values[c]) * ring(psi.values[c]).conjugate())
    if not acc.is_integer():
        raise AssertionError("inner product is not a rational integer")
    total = acc.as_int()
    if total % table.group.order:
        raise AssertionError("inner product sum not divisible by |G|")
    return total // table.group.order


def ramification_by_definition(group, sub) -> list[dict]:
    """For each θ ∈ Irr(N): its orbit, |G(θ)|, the number of χ ∈ Irr(G)
    above θ, and whether θ is fully ramified in G(θ) with which e.

    G(θ) is the set of g with θ(g x g⁻¹) = θ(x) on every x ∈ N, compared on
    values; the orbit is the set of rows θ^g.  Full ramification is read in
    the table of G(θ) itself: one ψ above θ, e = [ψ_N, θ], e² = |G(θ):N|
    and ψ(1) = e·θ(1)."""
    members = [int(x) for x in sub.elements]
    local = {x: i for i, x in enumerate(members)}
    mul, inv = group.mul, group.inv
    conj = [[local[int(mul[mul[g, x], inv[g]])] for x in members]
            for g in range(group.order)]
    table_n = compute_table(sub.as_group())
    values = [[theta(x) for x in range(sub.order)] for theta in table_n]
    table_g = compute_table(group)
    out = []
    for theta, row in zip(table_n, values):
        images = [[row[y] for y in c] for c in conj]
        stab = Subgroup(group, [g for g, image in enumerate(images) if image == row])
        orbit = tuple(t for t, other in enumerate(values) if other in images)
        if len(orbit) * stab.order != group.order:
            raise AssertionError("orbit size does not match stabilizer index")
        inner = sub.within(stab)
        above = [(psi, restriction_inner(psi, theta, inner))
                 for psi in compute_table(stab.as_group())]
        above = [(psi, e) for psi, e in above if e]
        psi, e = above[0] if len(above) == 1 else (None, None)
        fully = (e is not None and e * e == stab.order // sub.order
                 and psi.degree == e * theta.degree)
        out.append({
            "orbit": orbit, "stabilizer_order": stab.order,
            "count_above": sum(1 for chi in table_g
                               if restriction_inner(chi, theta, sub)),
            "fully_ramified": fully, "e": e if fully else None,
        })
    return out


def class_fusion(group, sub, table_n) -> list[np.ndarray]:
    """Partition of N's classes into G-conjugation blocks: for each G-class
    inside N, the N-classes of its members, as a sorted array."""
    require_normal(group, sub)
    members = group.conjugacy_classes().members
    rank = sub.local_ids()
    class_of_n = table_n.classes.class_of
    return [np.unique(class_of_n[rank[members[c]]])
            for c in np.flatnonzero(sub.class_mask())]


def invariant_rows_by_fusion(group, sub, table_n) -> np.ndarray:
    """Boolean mask over rows of N's table: is θ equal on every N-class of
    each block of ``class_fusion``, the N-classes that one G-class holds?"""
    coeffs = table_n._coeffs
    inv_mask = np.ones(len(table_n.rows), dtype=bool)
    for block in class_fusion(group, sub, table_n):
        if block.size < 2:
            continue
        ref = coeffs[:, block[0], :]
        inv_mask &= np.all(coeffs[:, block, :] == ref[:, None, :], axis=(1, 2))
    return inv_mask


def restrict(chi, sub, table_n) -> list[int]:
    """Multiplicity of each row of N's table in chi|_N, from class sums over
    N's classes with chi read at the parent class of each representative."""
    parent_class = chi.table.classes.class_of
    ccn = table_n.classes
    mults = []
    for theta in table_n:
        acc = Cyclotomic.zero(chi.table.conductor)
        for j, rep in enumerate(ccn.reps):
            value = ring(chi.values[parent_class[int(sub.to_parent(int(rep)))]])
            acc = acc + int(ccn.sizes[j]) * (value * ring(theta.values[j]).conjugate())
        if not acc.is_integer() or acc.as_int() % sub.order:
            raise AssertionError("restriction multiplicity is not an integer")
        mults.append(acc.as_int() // sub.order)
    if sum(m * theta.degree for m, theta in zip(mults, table_n)) != chi.degree:
        raise AssertionError("restriction degrees do not add up")
    return mults


def partition_count(k: int) -> int:
    """p(k), the number of partitions of k: ways[t] counts the partitions
    of t into the parts taken so far."""
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


def abelian_group_count(n: int) -> int:
    """The abelian groups of order n up to isomorphism: the product of p(e)
    over the prime powers p^e exactly dividing n."""
    count, p = 1, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        count *= partition_count(e)
        p += 1
    return count


def abelian_dual_rows(invariants: list[int]) -> list[tuple]:
    """The full character table of C_{d1} x ... x C_{dk} from the dual
    group, as coefficient signatures per element id (mixed radix, first
    factor most significant) — independent of the eigenvector pipeline."""
    exponent = 1
    for d in invariants:
        exponent = exponent * d // gcd(exponent, d)

    def digits(x: int) -> list[int]:
        out = []
        for d in reversed(invariants):
            out.append(x % d)
            x //= d
        return list(reversed(out))

    order = 1
    for d in invariants:
        order *= d
    rows = []
    for a in range(order):
        av = digits(a)
        row = []
        for x in range(order):
            xv = digits(x)
            s = sum(
                ai * xi * (exponent // d) for ai, xi, d in zip(av, xv, invariants)
            )
            row.append(Cyclotomic.zeta(exponent, s % exponent).coeffs)
        rows.append(tuple(row))
    return rows


def rank_mod(rows, p: int) -> int:
    """Rank over F_p of a list of integer rows, by Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def root_multiplicity(poly, root: int, p: int) -> int:
    """How many times (x - root) divides the polynomial over F_p (ascending
    coefficients, not all zero), by synthetic division until the remainder
    is nonzero."""
    coeffs = [c % p for c in poly]
    count = 0
    while True:
        quotient, acc = [], 0
        for c in reversed(coeffs):
            acc = (acc * root + c) % p
            quotient.append(acc)
        if quotient.pop():
            return count
        coeffs = quotient[::-1]
        count += 1


def charpoly_laplace(a, p: int) -> list[int]:
    """det(xI - a) over F_p by Laplace expansion along the first row, with
    polynomial entries as ascending coefficient lists."""

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def add(f, g, sign=1):
        n = max(len(f), len(g))
        f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
        return [(x + sign * y) % p for x, y in zip(f, g)]

    def det(m):
        if not m:
            return [1]  # the empty product
        if len(m) == 1:
            return m[0][0]
        total = [0]
        for j, entry in enumerate(m[0]):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total = add(total, mul(entry, det(minor)), -1 if j % 2 else 1)
        return total

    n = len(a)
    entries = [[[(-a[i][j]) % p, 1] if i == j else [(-a[i][j]) % p]
                for j in range(n)] for i in range(n)]
    poly = det(entries) + [0] * (n + 1)
    return poly[:n + 1]


def matrix_group_by_products(p: int, n: int, mats) -> list[np.ndarray]:
    """Every element of the matrix group generated by mats over GF(p):
    breadth-first right multiplication by the generators, one product
    and one ``tobytes`` key per element."""
    gens = [np.asarray(m, dtype=np.int64) % p for m in mats]
    ident = np.eye(n, dtype=np.int64)
    seen = {ident.tobytes()}
    group = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a @ g % p
                key = b.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(b)
        group.extend(nxt)
        frontier = nxt
    return group


def orbits_brute(p: int, n: int, mats) -> list[int]:
    """Orbit sizes on nonzero vectors under the group generated by mats:
    the orbit of v is {m·v} over every element m of the closed group."""
    group = [m.tolist() for m in matrix_group_by_products(p, n, mats)]

    def apply(mat, vec):
        return tuple(
            sum(mat[i][j] * vec[j] for j in range(n)) % p for i in range(n)
        )

    vectors = [()]
    for _ in range(n):
        vectors = [v + (c,) for v in vectors for c in range(p)]
    remaining = {v for v in vectors if any(v)}
    sizes = []
    while remaining:
        start = min(remaining)
        orbit = {apply(m, start) for m in group}
        sizes.append(len(orbit))
        remaining -= orbit
    return sorted(sizes)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of the list polynomial a by m over GF(p), ascending."""
    a = [c % p for c in a]
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        c = a[-1] * inv_lead % p
        for i, cm in enumerate(m):
            a[shift + i] = (a[shift + i] - c * cm) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


def least_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Least monic irreducible polynomial of degree n over GF(p), ascending,
    ordered by (c_0, ..., c_{n-1}): the first with no monic divisor of
    degree 1..n/2, found by trial division."""
    if n == 1:
        return (0, 1)  # x itself
    lower = [list(tail) + [1] for d in range(1, n // 2 + 1)
             for tail in itertools.product(range(p), repeat=d)]
    for tail in itertools.product(range(p), repeat=n):
        if tail[0] == 0:
            continue  # divisible by x
        f = list(tail) + [1]
        if not any(not any(_poly_mod(f, d, p)) for d in lower):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def gf_by_polynomials(p: int, n: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(modulus, add, mul) of GF(p^n): element id Σ c_i p^i is the polynomial
    c_0 + c_1 x + ... + c_{n-1} x^{n-1}; a product is the schoolbook product
    of two such polynomials, reduced by long division by the modulus of
    `least_irreducible`.  Vectorized over all pairs at once."""
    q = p ** n
    modulus = least_irreducible(p, n)
    coeffs = np.array([[e // p ** i % p for i in range(n)] for e in range(q)],
                      dtype=np.int64).reshape(q, n)
    prod = np.zeros((q, q, 2 * n - 1), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            prod[:, :, i + j] += coeffs[:, None, i] * coeffs[None, :, j]
    prod %= p
    for top in range(2 * n - 2, n - 1, -1):  # the modulus is monic
        lead = prod[:, :, top].copy()
        for i, c in enumerate(modulus):
            prod[:, :, top - n + i] = (prod[:, :, top - n + i] - lead * c) % p
    ids = p ** np.arange(n)
    add = (coeffs[:, None] + coeffs[None, :]) % p @ ids
    return modulus, add, prod[:, :, :n] @ ids


def matrix_perm_big_endian(p: int, mat) -> tuple[int, ...]:
    """Permutation of GF(p)^k vector ids under a matrix, ids big-endian
    (digit 0 is the first coordinate), one vector at a time."""
    mat = [[int(c) % p for c in row] for row in mat]
    k = len(mat)
    out = []
    for vid in range(p ** k):
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
