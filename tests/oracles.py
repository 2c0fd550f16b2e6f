"""Brute-force reference implementations used only by the tests.

Everything here recomputes library answers straight from definitions with
plain Python loops (no numpy vectorization, no shared helpers), so
agreement with the library is a meaningful cross-check rather than the
same code run twice.  `residual_shape_by_quotient` is the one oracle that
builds quotient groups: it reads the residual cases ii/iii of
`pairs.residual_case` from J/O_p(J) and its quotient by `Group.quotient`,
where the library reads them inside J.
"""

from __future__ import annotations

from math import gcd

from groupchar.chartable import compute_table
from groupchar.cyclotomic import Cyclotomic
from groupchar.groups import Subgroup


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
    qm = j_grp.quotient(series.o_p)
    q = qm.image
    mul, inv = q.mul.tolist(), q.inv.tolist()
    middle = sorted({qm(x) for x in series.o_p_pprime.elements})
    mid_grp = Subgroup(q, middle).as_group()
    top = q.quotient(Subgroup(q, middle)).image
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
        acc = acc + chi(parent) * theta(local).conjugate()
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
        acc = acc + int(size) * (chi.values[c] * psi.values[c].conjugate())
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


def restrict(chi, sub, table_n) -> list[int]:
    """Multiplicity of each row of N's table in chi|_N, from class sums over
    N's classes with chi read at the parent class of each representative."""
    parent_class = chi.table.classes.class_of
    ccn = table_n.classes
    mults = []
    for theta in table_n:
        acc = Cyclotomic.zero(chi.table.conductor)
        for j, rep in enumerate(ccn.reps):
            value = chi.values[parent_class[int(sub.to_parent(int(rep)))]]
            acc = acc + int(ccn.sizes[j]) * (value * theta.values[j].conjugate())
        if not acc.is_integer() or acc.as_int() % sub.order:
            raise AssertionError("restriction multiplicity is not an integer")
        mults.append(acc.as_int() // sub.order)
    if sum(m * theta.degree for m, theta in zip(mults, table_n)) != chi.degree:
        raise AssertionError("restriction degrees do not add up")
    return mults


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


def orbits_brute(p: int, n: int, mats) -> list[int]:
    """Orbit sizes on nonzero vectors under the group generated by mats
    (plain tuple BFS, including inverse closure via repeated powers)."""

    def apply(mat, vec):
        return tuple(
            sum(mat[i][j] * vec[j] for j in range(n)) % p for i in range(n)
        )

    def all_vectors():
        vecs = [()]
        for _ in range(n):
            vecs = [v + (c,) for v in vecs for c in range(p)]
        return vecs

    # close the generator set into the full matrix group
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def matmul(a, b):
        return tuple(
            tuple(
                sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)
            )
            for i in range(n)
        )

    group = {ident}
    frontier = [ident]
    gens = [tuple(tuple(int(c) % p for c in row) for row in m) for m in mats]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = matmul(m, g)
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
        frontier = nxt

    remaining = {v for v in all_vectors() if any(v)}
    sizes = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for m in group:
                    w = apply(m, v)
                    if w not in orbit:
                        orbit.add(w)
                        nxt.append(w)
            frontier = nxt
        sizes.append(len(orbit))
        remaining -= orbit
    return sorted(sizes)
