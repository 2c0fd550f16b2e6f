"""Character tables: frozen degree data, dual-group oracle, orthogonality,
Galois stability, and the two restriction paths against exact sums."""

from __future__ import annotations

from math import gcd

import numpy as np
import pytest

from groupchar import (
    BoundExceeded,
    NoSuitablePrime,
    SplitFailure,
    abelian,
    agl1,
    alt,
    c7_c3,
    compute_table,
    cyclic,
    dihedral,
    extraspecial_2,
    frobenius72_quaternion,
    generalized_quaternion,
    restriction_multiplicities,
    sl23,
    sym,
    verify_table,
)
import groupchar.chartable as chartable
from groupchar.corpus import build_corpus
from groupchar.errors import ContractViolation
from groupchar.groups import Group
from groupchar.chartable import dixon_prime

import oracles

FROZEN_DEGREES = {
    "S3": [1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
    "A4": [1, 1, 1, 3],
    "S4": [1, 1, 2, 3, 3],
    "D10": [1, 1, 2, 2],
    "AGL1(5)": [1, 1, 1, 1, 4],
    "SL23": [1, 1, 1, 2, 2, 2, 3],
    "C7:C3": [1, 1, 1, 3, 3],
    "F72": [1, 1, 1, 1, 2, 8],
    "ES32+": [1] * 16 + [4],
    "ES32-": [1] * 16 + [4],
}

BUILDERS = {
    "S3": lambda: sym(3),
    "Q8": lambda: generalized_quaternion(8),
    "A4": lambda: alt(4),
    "S4": lambda: sym(4),
    "D10": lambda: dihedral(5),
    "AGL1(5)": lambda: agl1(5),
    "SL23": sl23,
    "C7:C3": c7_c3,
    "F72": frobenius72_quaternion,
    "ES32+": lambda: extraspecial_2(2, "+"),
    "ES32-": lambda: extraspecial_2(2, "-"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DEGREES))
def test_frozen_degree_multisets(name):
    table = compute_table(BUILDERS[name]())
    assert sorted(int(d) for d in table.degrees) == FROZEN_DEGREES[name]
    stats = verify_table(table)
    assert isinstance(stats, dict)


def test_table_shape_invariants():
    for name in ("S4", "Q8", "C7:C3"):
        g = BUILDERS[name]()
        table = compute_table(g)
        assert len(table) == len(table.classes.reps)
        assert table.conductor == g.exponent
        assert table.rows[0].degree == 1
        assert all(v == oracles.Cyclotomic.one(table.conductor)
                   for v in table.rows[0].values)
        assert sum(int(d) ** 2 for d in table.degrees) == g.order
        q = table.prime
        assert q > 2 * g.order and q % table.conductor == 1


def test_table_arrays_are_read_only():
    """Tables of byte-equal groups share their arrays, so none is writable,
    on either route."""
    g = sym(4)
    for table in (compute_table(g), chartable._build_table(g)):
        for field in ("_coeffs", "_modq", "_kernel_mask", "_zero_mask", "degrees"):
            array = getattr(table, field)
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0


def test_dixon_prime_choice():
    assert dixon_prime(6, 6) % 6 == 1 and dixon_prime(6, 6) > 12
    q = dixon_prime(12, 128)
    assert q % 12 == 1 and q > 256


def test_dixon_prime_has_headroom_below_its_search_cap():
    """Every exponent e dividing an order n within ``TABLE_ORDER_BOUND``
    finds its prime far below the cap; past the cap the search refuses."""
    primes = [dixon_prime(e, n) for n in range(1, chartable.TABLE_ORDER_BOUND + 1)
              for e in range(1, n + 1) if n % e == 0]
    assert (len(primes), max(primes)) == (3280, 13711)
    assert max(primes) < chartable._PRIME_SEARCH_CAP // 100
    with pytest.raises(NoSuitablePrime,
                       match="no prime q = 1 mod 2 with q > 2000000 below cap"):
        dixon_prime(2, 10 ** 6)


@pytest.mark.parametrize(
    "invariants",
    [[2], [3], [4], [2, 2], [2, 4], [3, 3], [6], [8], [2, 2, 3], [2, 12]],
)
def test_abelian_tables_match_dual_group_oracle(invariants):
    g = abelian(invariants)
    table = compute_table(g)
    # abelian: classes are singletons in element order, so rows are directly
    # comparable to the dual-group construction
    assert list(table.classes.reps) == list(range(g.order))
    ours = sorted(tuple(v.coeffs for v in chi.values) for chi in table)
    theirs = sorted(oracles.abelian_dual_rows(invariants))
    assert ours == theirs


@pytest.mark.parametrize("name", ["S4", "Q8", "C12", "C7:C3"])
def test_kernel_matches_definitional_kernel(name):
    g = cyclic(12) if name == "C12" else BUILDERS[name]()
    table = compute_table(g)
    for chi in table:
        by_values = oracles.kernel_by_values(chi)
        kernel = chi.kernel()
        assert set(int(x) for x in kernel.elements) == by_values


def test_inner_product_orthonormality():
    table = compute_table(sym(4))
    for a in table:
        for b in table:
            assert oracles.inner_product(a, b) == (1 if a.index == b.index else 0)


@pytest.mark.parametrize("name", ["S3", "D10"])
def test_column_identity_via_exact_sums(name):
    g = BUILDERS[name]()
    table = compute_table(g)
    cc = table.classes
    for c, rep in enumerate(cc.reps):
        acc = oracles.Cyclotomic.zero(table.conductor)
        for chi in table:
            v = oracles.ring(chi.values[c])
            acc = acc + v * v.conjugate()
        assert acc.is_integer()
        assert acc.as_int() == oracles.centralizer_order(g.mul, rep)


def test_second_orthogonality_off_diagonal():
    table = compute_table(sym(3))
    # identity column against transposition column
    acc = oracles.Cyclotomic.zero(table.conductor)
    for chi in table:
        acc = acc + oracles.ring(chi.values[0]) * oracles.ring(chi.values[1]).conjugate()
    assert acc.is_zero()


@pytest.mark.parametrize("name", ["S4", "Q8", "C7:C3", "F72"])
def test_galois_stability_of_rows(name):
    table = compute_table(BUILDERS[name]())
    e = table.conductor
    signatures = {tuple(v.coeffs for v in chi.values): chi.index for chi in table}
    for k in range(1, e):
        if gcd(k, e) != 1:
            continue
        for chi in table:
            image = tuple(oracles.ring(v).galois(k).coeffs for v in chi.values)
            assert image in signatures


@pytest.mark.parametrize("name", ["S4", "Q8", "A4", "C7:C3"])
def test_values_at_inverse_classes_conjugate(name):
    g = BUILDERS[name]()
    table = compute_table(g)
    cc = table.classes
    for chi in table:
        for c, rep in enumerate(cc.reps):
            assert chi(int(g.inv[rep])) == oracles.ring(chi(rep)).conjugate()


def _subgroup_table(g, elems):
    sub = g.subgroup(elems)
    return sub, compute_table(sub.as_group())


@pytest.mark.parametrize(
    "name,elems",
    [
        ("S4", [0, 7, 16, 23]),
        ("Q8", [0, 2]),
        ("A4", None),  # V4 inside A4
        ("C7:C3", None),  # C7 inside the order-21 group
    ],
)
def test_restriction_multiplicities_match_exact_inner_products(name, elems):
    g = BUILDERS[name]()
    if elems is None:
        sub = g.minimal_normal_subgroups()[0]
    else:
        sub = g.subgroup(elems)
    table_g = compute_table(g)
    table_n = compute_table(sub.as_group())
    mults = restriction_multiplicities(g, sub)
    for chi in table_g:
        for theta in table_n:
            assert mults[chi.index, theta.index] == oracles.restriction_inner(
                chi, theta, sub
            )


def test_restrict_agrees_with_bulk_path():
    g = sym(4)
    sub = g.subgroup([0, 7, 16, 23])
    table_g = compute_table(g)
    table_n = compute_table(sub.as_group())
    mults = restriction_multiplicities(g, sub)
    for chi in table_g:
        assert oracles.restrict(chi, sub, table_n) == list(mults[chi.index])


def test_restriction_degree_bookkeeping():
    g = frobenius72_quaternion()
    sub = g.minimal_normal_subgroups()[0]
    table_g = compute_table(g)
    table_n = compute_table(sub.as_group())
    mults = restriction_multiplicities(g, sub)
    assert list(mults @ table_n.degrees) == [int(d) for d in table_g.degrees]


@pytest.mark.parametrize("row,message", [
    (0, "restriction multiplicity exceeds degree bound"),
    (1, "bulk restriction degrees do not add up"),
])
def test_restriction_refuses_a_scaled_row_of_the_subgroup_table(monkeypatch, row, message):
    """Fault injection on S4 over V4: doubling N's trivial row makes the
    degree-2 character's multiplicity 4, above every degree of S4; doubling
    a nontrivial row keeps every multiplicity within 2, but the degree-3
    characters' restrictions no longer add up to 3."""
    g = sym(4)
    sub = g.subgroup([0, 7, 16, 23])
    n = sub.as_group()
    table_n = compute_table(n)
    coeffs = table_n._coeffs.copy()
    coeffs[row] *= 2
    scaled = chartable.CharacterTable(n, table_n.classes, table_n.degrees, coeffs)
    table = chartable.compute_table
    monkeypatch.setattr(chartable, "compute_table",
                        lambda group: scaled if group is n else table(group))
    with pytest.raises(chartable.ContractViolation, match=message):
        restriction_multiplicities(g, sub)


SPLIT_CASES = {
    "C2^5": lambda: abelian([2] * 5),
    **{name: BUILDERS[name] for name in ("ES32+", "ES32-", "SL23", "F72", "C7:C3")},
}


def _split_calls(monkeypatch):
    """Record the matrix size of every charpoly and nullspace the split
    takes, the dimension of every nullspace and the root multiplicities of
    every block's charpoly."""
    calls = {"charpoly": [], "nullspace": [], "nullity": [], "mults": []}
    charpoly, nullspace = chartable.charpoly_mod, chartable.nullspace_mod
    multiplicities = chartable.root_multiplicities

    def counted_charpoly(a, q):
        calls["charpoly"].append(a.shape[0])
        return charpoly(a, q)

    def counted_nullspace(a, q):
        null = nullspace(a, q)
        calls["nullspace"].append(a.shape[0])
        calls["nullity"].append(null.shape[0])
        return null

    def counted_multiplicities(poly, roots, q):
        mults = multiplicities(poly, roots, q)
        calls["mults"].append(mults)
        return mults

    monkeypatch.setattr(chartable, "charpoly_mod", counted_charpoly)
    monkeypatch.setattr(chartable, "nullspace_mod", counted_nullspace)
    monkeypatch.setattr(chartable, "root_multiplicities", counted_multiplicities)
    return calls


def _whole_space(group):
    """The block (basis, pivots) of the whole class space F_q^k."""
    k = len(group.conjugacy_classes())
    return np.eye(k, dtype=np.int64), list(range(k))


def _split_rows(group):
    """The rows of ``_split_central_characters`` on the whole space, sorted."""
    q = chartable._field(group.exponent, group.order)[0]
    omegas = chartable._split_central_characters(
        group, group.conjugacy_classes(), q, _whole_space(group))
    return sorted(map(tuple, omegas.tolist()))


def _central_characters(table):
    """ω_χ(K) = |K|·χ(g_K)/χ(1) mod q for every row of the table, sorted."""
    q = table.prime
    inv_degrees = np.array([pow(int(d), -1, q) for d in table.degrees], dtype=np.int64)
    omegas = table._modq * table.classes.sizes % q * inv_degrees[:, None] % q
    return sorted(map(tuple, omegas.tolist()))


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_split_does_not_depend_on_the_combination(name, monkeypatch):
    """The split on the whole space, which the build never starts from,
    gives the table's central characters whatever the weights and probes."""
    build = SPLIT_CASES[name]

    def split_rows():
        return _split_rows(build())

    def zero_weights(passes, zero_passes):
        """Weights that are zero on the first ``zero_passes`` passes and
        seeded after them; ``passes`` records every draw."""
        seeded = chartable._combination_weights

        def weights(rng, count, q):
            passes.append(count)
            if len(passes) <= zero_passes:
                return np.zeros(count, dtype=np.int64)
            return seeded(rng, count, q)
        return weights

    seeded = split_rows()
    assert seeded == _central_characters(chartable._build_table(build()))
    k = len(seeded)
    with monkeypatch.context() as m:
        # zero weights on the first pass: the combined matrix is scalar and
        # splits nothing, so the second pass starts from the whole space
        passes = []
        m.setattr(chartable, "_combination_weights", zero_weights(passes, 1))
        calls = _split_calls(m)
        assert split_rows() == seeded
        assert len(passes) >= 2
        assert calls["charpoly"][:2] == [k, k]
    with monkeypatch.context() as m:
        # all-zero probes project to zero: every eigenspace comes from a
        # nullspace
        m.setattr(chartable, "_probe_vector",
                  lambda rng, count, d, q: np.zeros((count, d), dtype=np.int64))
        calls = _split_calls(m)
        assert split_rows() == seeded
        assert calls["nullspace"][:1] == [k]
    with monkeypatch.context() as m:
        # probes that are all one row project to one line in each
        # eigenspace: every repeated root of the first pass falls short and
        # takes a nullspace of the whole space, of its multiplicity
        probe = chartable._probe_vector
        m.setattr(chartable, "_probe_vector",
                  lambda rng, count, d, q: np.repeat(probe(rng, 1, d, q), count, axis=0))
        calls = _split_calls(m)
        assert split_rows() == seeded
        first = calls["mults"][0]
        assert first.sum() == k
        whole = [dim for size, dim in zip(calls["nullspace"], calls["nullity"])
                 if size == k and dim > 1]
        assert sorted(whole) == sorted(first[first > 1].tolist())
    with monkeypatch.context() as m:
        # another seed draws other weights and probes: the same rows
        m.setattr(chartable, "_SPLIT_SEED", chartable._SPLIT_SEED + 1)
        assert split_rows() == seeded
    with monkeypatch.context() as m:
        # weights that are always zero split nothing: the split gives up
        # after k passes instead of looping
        passes = []
        m.setattr(chartable, "_combination_weights", zero_weights(passes, 2 * k))
        with pytest.raises(SplitFailure):
            split_rows()
        assert len(passes) == k


def test_repeated_roots_split_without_a_nullspace(monkeypatch):
    # 256 characters in F_521: every combination repeats eigenvalues, and
    # each repeated root is split by its projected probes alone.  The build
    # of an abelian group splits nothing, so the split runs on the whole space.
    g = abelian([2] * 8)
    calls = _split_calls(monkeypatch)
    rows = _split_rows(g)
    assert calls["nullspace"] == []
    assert max(int(mults.max()) for mults in calls["mults"]) > 1
    calls["mults"].clear()
    table = chartable._build_table(g)
    assert calls["mults"] == []
    assert (len(table), table.prime) == (256, 521)
    assert rows == _central_characters(table)
    verify_table(table)
    assert list(table.classes.reps) == list(range(g.order))
    ours = sorted(tuple(v.coeffs for v in chi.values) for chi in table)
    assert ours == sorted(oracles.abelian_dual_rows([2] * 8))


def _linear_rows_by_the_split(group):
    """The degree-1 rows of the whole-space split, lifted, as sorted bytes:
    the route the build took for every row before it read the linear ones
    off G/G′."""
    cc = group.conjugacy_classes()
    e, n = group.exponent, group.order
    q, z = chartable._field(e, n)
    omegas = np.array(_split_rows(group), dtype=np.int64)
    inv_sizes = np.array([pow(int(s), -1, q) for s in cc.sizes], dtype=np.int64)
    # A row is linear iff sum_K ω(K) ω(K*) / |K| = |G|, i.e. d^2 = 1.
    t_sums = (omegas * omegas[:, cc.inverse_class] % q * inv_sizes % q).sum(axis=1) % q
    linear = omegas[t_sums == n % q] * inv_sizes % q
    red = np.array(chartable._reduction_table(e), dtype=np.int64)
    coeffs = chartable._lift(group, linear, np.ones(len(linear), dtype=np.int64), red,
                             chartable.powers_mod(z, e, q), q)
    return sorted(row.tobytes() for row in coeffs)


def test_linear_rows_are_the_degree_one_rows_of_the_whole_space_split(corpus_groups):
    """Two routes to the linear rows, on every corpus group and each of its
    normal subgroups, one per Cayley table: read off G/G′ by the build, and
    split from the whole space and lifted.  Byte for byte."""
    seen = set()
    for group in corpus_groups.values():
        for sub in group.normal_subgroups():
            h = sub.as_group()
            if h.mul.tobytes() in seen:
                continue
            seen.add(h.mul.tobytes())
            table = compute_table(h)
            ours = sorted(row.tobytes() for row in table._coeffs[table.degrees == 1])
            assert ours == _linear_rows_by_the_split(h), h.label
    assert len(seen) == 1726


def test_abelian_corpus_tables_match_the_dual_group_oracle(corpus_groups):
    """Every abelian corpus group, built as ``abelian(invariants)``: the
    table the exponent maps give is the dual group's."""
    checked = 0
    for entry in build_corpus():
        group = corpus_groups[entry.name]
        if not group.is_abelian:
            continue
        table = compute_table(group)
        assert list(table.classes.reps) == list(range(group.order))
        ours = sorted(tuple(map(tuple, row.tolist())) for row in table._coeffs)
        assert ours == sorted(oracles.abelian_dual_rows(list(entry.build.args[0]))), entry.name
        checked += 1
    assert checked == sum(1 for g in corpus_groups.values() if g.is_abelian) > 0


def test_a_linear_exponent_that_j_does_not_divide_is_refused():
    """C4 relabelled so that its chain starts at the involution s²: the next
    generator s has j = 2.  With the exponent taken as 2 instead of 4, f(s²)
    = 1 on one map, which 2 does not divide."""
    perm = [0, 2, 1, 3]  # id -> residue mod 4
    mul = np.array([[perm.index((perm[a] + perm[b]) % 4) for b in range(4)]
                    for a in range(4)])
    g = Group(mul, label="C4'")
    assert g.exponent == 4 and g.elt_order[1] == 2
    g._cache["exponent"] = 2
    with pytest.raises(ContractViolation,
                       match=r"a linear exponent map's f\(s\^2\) is not divisible by 2"):
        chartable._linear_exponents(g)


def test_linear_exponent_maps_on_a_nonabelian_quotient_are_refused(monkeypatch):
    """With G′ taken as trivial, S3 is its own "abelian" quotient: the maps
    walked along its chain are no homomorphisms."""
    monkeypatch.setattr(Group, "derived_subgroup", lambda self: self.trivial_subgroup())
    with pytest.raises(ContractViolation, match="a linear exponent map is not a homomorphism"):
        chartable._build_table(sym(3))


def test_a_nonlinear_space_of_the_wrong_dimension_is_refused(monkeypatch):
    """S4 with its sign character's exponent map replaced by the trivial
    one: the projection through the rows keeps k - m + 2 dimensions."""
    linear = chartable._linear_exponents

    def doubled(group):
        expo = linear(group).copy()
        expo[expo.any(axis=1)] = 0
        return expo
    monkeypatch.setattr(chartable, "_linear_exponents", doubled)
    with pytest.raises(ContractViolation, match=r"nonlinear space has dimension 5, not k - m = 3"):
        chartable._build_table(sym(4))


def test_table_order_bound(monkeypatch):
    monkeypatch.setattr(chartable, "TABLE_ORDER_BOUND", 10)
    with pytest.raises(BoundExceeded):
        compute_table(sym(4))


def test_trivial_group_table():
    table = compute_table(cyclic(1))
    assert len(table) == 1 and table.rows[0].degree == 1
    verify_table(table)
