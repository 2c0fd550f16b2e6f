"""Group core: classes, subgroups, quotients, series, structural flags."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupchar import (
    BoundExceeded,
    Group,
    acts_fixed_point_freely,
    abelian,
    alt,
    cyclic,
    dihedral,
    direct_product,
    frobenius72_quaternion,
    frobenius_complement,
    generalized_quaternion,
    agl1,
    is_frobenius_with_kernel,
    load_group,
    pprime_elements_fpf,
    save_group,
    sl23,
    sym,
)
from groupchar._arith import prime_factors, prime_power
from groupchar import groups
from groupchar.groups import SUBGROUP_BOUND

import oracles
from helpers import full_subgroup, generated_subgroup

POOL = {
    "C12": cyclic(12),
    "C2xC4": abelian([2, 4]),
    "D12": dihedral(6),
    "Q16": generalized_quaternion(16),
    "S4": sym(4),
    "A4": alt(4),
    "SL23": sl23(),
}


@pytest.mark.parametrize("name", sorted(POOL))
def test_classes_match_brute_force(name):
    """The classes in the oracle's order: representatives are the least
    members, increasing; members are sorted; inverse_class[c] is the class
    of reps[c]⁻¹."""
    g = POOL[name]
    ours = g.conjugacy_classes()
    theirs = oracles.conjugacy_partition(g.mul)  # ordered by least member
    assert len(ours) == len(theirs)
    for c, cls in enumerate(theirs):
        assert np.array_equal(ours.members[c], sorted(cls))
        assert ours.reps[c] == min(cls) and ours.sizes[c] == len(cls)
        assert np.all(ours.class_of[ours.members[c]] == c)
        assert g.inv[ours.reps[c]] in theirs[ours.inverse_class[c]]
    assert np.all(np.diff(ours.reps) > 0)
    for i, rep in enumerate(ours.reps):
        assert ours.sizes[i] * oracles.centralizer_order(g.mul, rep) == g.order


def test_cached_arrays_refuse_writes():
    """Class fields and subgroup arrays are shared by every caller."""
    g = POOL["S4"]
    cc = g.conjugacy_classes()
    sub = g.derived_subgroup()
    arrays = [cc.reps, cc.sizes, cc.class_of, cc.inverse_class, *cc.members,
              sub.elements, sub.member_mask(), sub.class_mask(), sub.local_ids()]
    for a in arrays:
        assert a.dtype in (np.int64, bool)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


@pytest.mark.parametrize("name", sorted(POOL))
def test_element_orders_and_exponent(name):
    g = POOL[name]
    brute = [oracles.element_order(g.mul, x) for x in range(g.order)]
    assert list(g.elt_order) == brute
    lcm = 1
    for k in brute:
        lcm = lcm * k // np.gcd(lcm, k)
    assert g.exponent == lcm


@given(
    st.sampled_from(sorted(POOL)),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
)
def test_inverse_and_conjugation_laws(name, i, j):
    g = POOL[name]
    x, y = i % g.order, j % g.order
    mul, inv = g.mul, g.inv
    assert mul[x, inv[x]] == 0 and mul[inv[x], x] == 0
    assert inv[mul[x, y]] == mul[inv[y], inv[x]]
    conj = mul[mul[y, x], inv[y]]
    assert g.elt_order[conj] == g.elt_order[x]


def test_centralizer_and_center():
    g = POOL["S4"]
    for x in (0, 3, 9):
        assert g.centralizer(x).order == oracles.centralizer_order(g.mul, x)
    assert g.center().order == 1
    assert POOL["Q16"].center().order == 2
    assert cyclic(9).center().order == 9


def test_subgroup_validation_and_masks():
    g = POOL["D12"]
    rot = generated_subgroup(g, [min(x for x in range(12) if g.elt_order[x] == 6)])
    assert rot.order == 6
    assert oracles.is_subgroup(g.mul, rot.elements)
    mask = rot.member_mask()
    assert mask.sum() == 6 and all(mask[list(rot.elements)])
    with pytest.raises(ValueError):
        g.subgroup([0, 1, 2, 3, 4])  # not closed in general
    with pytest.raises(ValueError):
        g.subgroup([1] if g.elt_order[1] > 1 else [2])  # missing identity
    with pytest.raises(ValueError, match="identity"):
        groups.Subgroup(g, [])
    s3 = sym(3)
    for ids in ([0, 99], [0, 6], [-1, 0]):  # [0, 99] made an order-2 subgroup before
        with pytest.raises(ValueError, match="0..5"):
            groups.Subgroup(s3, ids)
        with pytest.raises(ValueError, match="0..5"):
            s3.subgroup(ids)


def test_normality_matches_brute_force_on_full_lattice():
    g = POOL["D12"]
    for sub in oracles.all_subgroups(g):
        assert sub.is_normal == oracles.is_normal(g.mul, sub.elements)


def test_subgroup_round_trip_local_ids():
    g = POOL["S4"]
    v4 = g.subgroup([0, 7, 16, 23])
    local = v4.as_group()
    assert local.order == 4 and local.exponent == 2
    assert np.array_equal(v4.local_ids()[v4.to_parent(np.arange(4))], np.arange(4))
    assert np.count_nonzero(v4.local_ids() >= 0) == 4
    back = v4.to_parent(np.arange(4))
    assert sorted(int(b) for b in back) == [0, 7, 16, 23]
    a4 = g.derived_subgroup()
    assert a4.order == 12 and v4.is_subset_of(a4)
    inner = v4.within(a4)
    assert inner.parent is a4.as_group()
    assert np.array_equal(a4.to_parent(inner.elements), v4.elements)
    assert np.array_equal(inner.as_group().mul, local.mul)
    with pytest.raises(ValueError):
        a4.within(v4)  # not contained
    with pytest.raises(ValueError):
        v4.within(full_subgroup(POOL["A4"]))  # another parent


def test_quotient_s4_by_v4_is_s3_shaped():
    g = POOL["S4"]
    qm = g.quotient(g.subgroup([0, 7, 16, 23]))
    assert qm.image.order == 6
    cc = qm.image.conjugacy_classes()
    assert sorted(cc.sizes) == [1, 2, 3]
    # the map is a homomorphism
    for x in (1, 5, 11):
        for y in (2, 7, 20):
            assert qm(int(g.mul[x, y])) == qm.image.mul[qm(x), qm(y)]


def test_derived_subgroups():
    assert POOL["S4"].derived_subgroup().order == 12
    assert POOL["A4"].derived_subgroup().order == 4
    assert POOL["D12"].derived_subgroup().order == 3
    assert cyclic(15).derived_subgroup().order == 1


def test_derived_subgroup_matches_all_commutators_oracle(corpus_groups):
    """G′ from the generators' commutators against every commutator."""
    for name, g in corpus_groups.items():
        want = oracles.derived_subgroup(g.mul.tolist())
        assert np.array_equal(g.derived_subgroup().elements, want), name


def test_chief_series_factors_are_prime_power_chief_sizes():
    for name in ("S4", "A4", "D12", "Q16", "SL23"):
        g = POOL[name]
        orders = [f.order for f in g.chief_series()]
        prod = 1
        for k in orders:
            prod *= k
            # chief factors of solvable groups are elementary abelian
            assert any(k == p ** e for p in (2, 3, 5, 7) for e in range(1, 8))
        assert prod == g.order


def test_structural_flags():
    assert POOL["S4"].is_solvable() and not POOL["S4"].is_supersolvable()
    assert POOL["D12"].is_supersolvable() and not POOL["D12"].is_nilpotent()
    assert POOL["Q16"].is_nilpotent() and not POOL["Q16"].is_abelian
    assert POOL["C12"].is_abelian and POOL["C12"].is_cyclic
    assert not POOL["C2xC4"].is_cyclic
    assert not alt(5).is_solvable()
    assert sym(5).is_solvable() is False


def test_radicals_and_fitting_style_subgroups():
    s4 = POOL["S4"]
    r2 = s4.radicals(2)
    assert r2.o_p.order == 4            # O_2(S4) = V4
    assert r2.o_p_prime.order == 1      # O_{2'}(S4) = 1
    r3 = s4.radicals(3)
    assert r3.o_p.order == 1
    a4 = POOL["A4"]
    assert a4.radicals(2).o_p.order == 4
    assert a4.radicals(3).o_p_prime.order == 4


def test_iterated_series():
    s4 = POOL["S4"]
    ser = s4.iterated_series(2)
    assert ser.o_p.order == 4
    assert ser.o_p_pprime.order == 12      # O_{2,2'}(S4) = A4
    assert ser.o_p_pprime_p.order == 24    # O_{2,2',2}(S4) = S4


def test_minimal_normal_subgroups():
    assert [s.order for s in POOL["S4"].minimal_normal_subgroups()] == [4]
    assert [s.order for s in POOL["A4"].minimal_normal_subgroups()] == [4]
    q8 = generalized_quaternion(8)
    assert [s.order for s in q8.minimal_normal_subgroups()] == [2]
    assert [s.order for s in POOL["D12"].minimal_normal_subgroups()] == [2, 3]
    assert [s.order for s in alt(5).minimal_normal_subgroups()] == [60]


@pytest.mark.parametrize("name", sorted(POOL))
def test_class_mask_marks_the_classes_inside_a_normal_subgroup(name):
    g = POOL[name]
    classes = oracles.conjugacy_partition(g.mul.tolist())
    for sub in g.normal_subgroups():
        inside = [cls <= set(sub.elements) for cls in classes]
        assert sub.class_mask().tolist() == inside
        assert sum(len(cls) for cls, m in zip(classes, inside) if m) == sub.order


def test_class_mask_of_a_non_normal_subgroup_marks_the_classes_it_meets():
    s3 = sym(3)
    t = next(x for x in range(s3.order) if s3.elt_order[x] == 2)
    sub = generated_subgroup(s3, [t])  # <(1 2)>, not normal
    assert not sub.is_normal
    classes = oracles.conjugacy_partition(s3.mul.tolist())
    assert sub.class_mask().tolist() == [bool(cls & set(sub.elements)) for cls in classes]
    marked = [len(cls) for cls, m in zip(classes, sub.class_mask()) if m]
    assert marked == [1, 3] and sum(marked) > sub.order


def test_normal_lattice_matches_atom_join_oracle(corpus_groups):
    checked = 0
    for name, g in corpus_groups.items():
        if g.order > 64:
            continue
        lattice = [s.elements for s in g.normal_subgroups()]
        want = oracles.normal_lattice(g.mul.tolist())
        assert len(lattice) == len(want), name
        assert all(np.array_equal(a, b) for a, b in zip(lattice, want)), name
        checked += 1
    assert checked == 108


def test_normal_lattice_bounds(monkeypatch):
    # abelian([2] * 5) has 374 subgroups, all normal
    monkeypatch.setattr(groups, "NORMAL_LATTICE_BOUND", 100)
    with pytest.raises(BoundExceeded):
        abelian([2] * 5).normal_subgroups()
    monkeypatch.setattr(groups, "NORMAL_LATTICE_BOUND", 373)
    with pytest.raises(BoundExceeded):
        abelian([2] * 5).normal_subgroups()
    monkeypatch.setattr(groups, "NORMAL_LATTICE_BOUND", 374)
    assert len(abelian([2] * 5).normal_subgroups()) == 374
    with pytest.raises(BoundExceeded):
        cyclic(520).normal_subgroups()  # beyond the character-table order cap


def _largest(members):
    best = max(members, key=len)
    assert all(m <= best for m in members)  # the largest contains the rest
    return best


def test_normal_structure_matches_kernel_lattice(corpus_groups):
    """Chief series, radicals, iterated series and minimal normal subgroups,
    all built from class atoms, against the character-kernel lattice."""
    for name, g in corpus_groups.items():
        lattice = [frozenset(s.elements) for s in g.normal_subgroups()]
        for f in g.chief_series():
            below, above = frozenset(f.below.elements), frozenset(f.above.elements)
            assert above in lattice and f.order == len(above) // len(below), name
            assert not any(below < m < above for m in lattice), name
        minimal = [m for m in lattice[1:] if not any(1 < len(x) and x < m for x in lattice)]
        assert [frozenset(s.elements) for s in g.minimal_normal_subgroups()] == minimal, name
        for p in prime_factors(g.order):
            def p_power(k):
                return k == 1 or (prime_power(k) or (0,))[0] == p

            rad, ser = g.radicals(p), g.iterated_series(p)
            o_p = _largest([m for m in lattice if p_power(len(m))])
            assert set(rad.o_p.elements) == o_p == set(ser.o_p.elements), name
            o_pp = _largest([m for m in lattice if len(m) % p])
            assert set(rad.o_p_prime.elements) == o_pp, name
            o_pq = _largest([m for m in lattice if o_p <= m and len(m) // len(o_p) % p])
            assert set(ser.o_p_pprime.elements) == o_pq, name
            o_pqp = _largest([m for m in lattice if o_pq <= m and p_power(len(m) // len(o_pq))])
            assert set(ser.o_p_pprime_p.elements) == o_pqp, name


def test_class_atoms_bound():
    g = cyclic(SUBGROUP_BOUND + 1)
    with pytest.raises(BoundExceeded):
        g.minimal_normal_subgroups()
    with pytest.raises(BoundExceeded):
        g.chief_series()


def test_normal_closure():
    s4 = POOL["S4"]
    transposition = min(
        x for x in range(24) if s4.elt_order[x] == 2 and s4.centralizer(x).order == 4
    )
    assert s4.normal_closure([transposition]).order == 24
    double = min(x for x in range(1, 24) if s4.centralizer(x).order == 8)
    assert s4.normal_closure([double]).order == 4


@pytest.mark.parametrize(
    "build", [lambda: sym(3), lambda: agl1(5), lambda: dihedral(5),
              frobenius72_quaternion, lambda: sym(4), lambda: dihedral(6),
              lambda: generalized_quaternion(8), lambda: cyclic(6)]
)
def test_frobenius_detection_matches_definition(build):
    g = build()
    for sub in g.normal_subgroups():
        if not 1 < sub.order < g.order:
            continue
        assert is_frobenius_with_kernel(g, sub) == oracles.is_frobenius_kernel(g, sub)


def test_frobenius_complement_shapes():
    f20 = agl1(5)
    kernel = f20.subgroup([x for x in range(20) if f20.elt_order[x] in (1, 5)])
    comp = frobenius_complement(f20, kernel)
    assert comp is not None and comp.order == 4
    f72 = frobenius72_quaternion()
    k9 = f72.minimal_normal_subgroups()[0]
    assert k9.order == 9
    comp = frobenius_complement(f72, k9)
    assert comp is not None and comp.order == 8
    local = comp.as_group()
    assert not local.is_abelian
    assert sum(1 for x in range(8) if local.elt_order[x] == 2) == 1  # quaternion


def _frobenius_pairs(named_groups):
    for name, g in named_groups:
        subs = g.normal_subgroups() if g.order <= 512 else g.minimal_normal_subgroups()
        for sub in subs:
            if is_frobenius_with_kernel(g, sub):
                yield name, g, sub


def test_frobenius_complement_is_a_complement(corpus_groups):
    """The built complement has order |G:N|, is closed and meets N in 1, on
    every corpus Frobenius pair and on AGL1(q) for five larger q."""
    named = list(corpus_groups.items()) + [
        (f"AGL1({q})", agl1(q)) for q in (17, 23, 25, 27, 32)
    ]
    pairs = list(_frobenius_pairs(named))
    assert len(pairs) == 35
    for name, g, sub in pairs:
        comp = frobenius_complement(g, sub)
        assert comp.order == g.order // sub.order, name
        assert oracles.is_subgroup(g.mul, comp.elements), name
        assert set(comp.elements) & set(sub.elements) == {0}, name


def test_frobenius_complement_is_among_all_complements(corpus_groups):
    """Against the full subgroup enumeration, for |G| <= 80."""
    small = [(name, g) for name, g in corpus_groups.items() if g.order <= 80]
    checked = 0
    for name, g, sub in _frobenius_pairs(small):
        complements = [
            h.elements for h in oracles.all_subgroups(g)
            if h.order == g.order // sub.order
            and set(h.elements) & set(sub.elements) == {0}
        ]
        comp = frobenius_complement(g, sub).elements
        assert any(np.array_equal(comp, h) for h in complements), name
        checked += 1
    assert checked == 27


def test_pprime_elements_fixed_point_free():
    s3 = sym(3)
    a3 = s3.subgroup(np.nonzero(s3.elt_order % 2 == 1)[0])
    assert pprime_elements_fpf(s3, a3, 3)
    c6 = cyclic(6)
    assert not pprime_elements_fpf(c6, c6.subgroup([0, 2, 4]), 3)


def test_fixed_point_free_helper_matches_centralizers(corpus_groups):
    """acts_fixed_point_freely against the definition (no acting g lies in
    C_G(x) for any x in N#), with the acting sets of its callers: the
    elements outside N, and the nontrivial p'-elements."""
    verdicts = set()
    for g in corpus_groups.values():
        if g.order > 48:
            continue
        for sub in g.normal_subgroups():
            acting_sets = [~sub.member_mask()]
            for p in prime_factors(g.order):
                pprime = np.gcd(g.elt_order, p) == 1
                pprime[0] = False
                acting_sets.append(pprime)
            for acting in acting_sets:
                want = not any(acting[g.centralizer(x).elements].any()
                               for x in sub.elements[1:])
                assert acts_fixed_point_freely(g, acting, sub) == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_group_constructor_validation():
    with pytest.raises(ValueError):
        Group(np.array([[0, 1], [1, 1]]))  # not a Latin square
    with pytest.raises(ValueError):
        Group(np.array([[1, 0], [0, 1]]))  # identity not id 0
    mul = np.zeros((1, 1), dtype=np.int64)
    assert Group(mul).order == 1


@pytest.mark.parametrize("table", [
    [[0, 1.7], [1.2, 0.4]],  # read as C2 by truncation before
    np.array([[0, 1], [1, 0]], dtype=float),
    [["0", "1"], ["1", "0"]],
    [[True, False], [False, True]],
], ids=["floats", "float-array", "strings", "bools"])
def test_group_refuses_a_non_integer_table(table):
    with pytest.raises(ValueError, match="integers"):
        Group(table)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
def test_group_accepts_int_and_uint_tables(dtype):
    assert Group(np.array([[0, 1], [1, 0]], dtype=dtype)).order == 2
    assert Group([[0, 1], [1, 0]]).mul.dtype == np.int64


def test_associativity_is_checked_on_input_not_on_derived_groups(tmp_path, monkeypatch):
    """Light's test runs once on a loaded Cayley file and never on a
    subgroup cut from, a direct product of, or a quotient of already
    validated groups."""
    calls = []
    check = Group._check_associativity

    def counting(self):
        calls.append(self.label)
        check(self)

    g, c2 = sym(4), cyclic(2)
    path = tmp_path / "s4.grp"
    save_group(g, path)
    monkeypatch.setattr(Group, "_check_associativity", counting)
    for sub in g.normal_subgroups():
        sub.as_group()
        g.quotient(sub)
    generated_subgroup(g, [1]).as_group()
    direct_product(g, c2)
    assert calls == []
    load_group(path)
    assert len(calls) == 1


def test_associativity_is_checked_exactly_above_order_256():
    g = direct_product(alt(5), sym(3))  # order 360
    mul = g.mul
    # Rows r, r·t and columns c, t·c (t an involution) hold an intercalate, a
    # 2x2 Latin subsquare; swapping its entries keeps a Latin square.
    t = next(x for x in range(1, g.order) if g.elt_order[x] == 2)
    r, c = next(
        (r, c) for r in range(1, g.order) for c in range(1, g.order)
        if 0 not in (mul[r, t], mul[t, c], mul[r, c], mul[mul[r, t], c])
        and mul[t, c] != c
    )
    r2, c2 = mul[r, t], mul[t, c]
    bad = mul.copy()
    bad[[r, r2], [c, c2]] = mul[r2, c]
    bad[[r, r2], [c2, c]] = mul[r, c]
    assert Group(bad, validate=False).order == 360  # identity and inverses hold
    with pytest.raises(ValueError, match="associativity"):
        Group(bad)
