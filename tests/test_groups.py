"""Group core: classes, subgroups, quotients, series, structural flags."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupchar import (
    BoundExceeded,
    Group,
    abelian,
    alt,
    all_subgroups,
    cyclic,
    dihedral,
    frobenius72_quaternion,
    frobenius_complement,
    generalized_quaternion,
    agl1,
    is_frobenius_with_kernel,
    pprime_elements_fpf,
    sl23,
    sym,
)

import oracles

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
    g = POOL[name]
    ours = g.conjugacy_classes()
    theirs = oracles.conjugacy_partition(g.mul)
    mine = sorted(
        frozenset(int(m) for m in ours.members[i]) for i in range(len(ours.reps))
    )
    assert mine == sorted(theirs)
    for i, rep in enumerate(ours.reps):
        assert ours.sizes[i] * oracles.centralizer_order(g.mul, rep) == g.order


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
    rot = g.generated_subgroup([min(x for x in range(12) if g.elt_order[x] == 6)])
    assert rot.order == 6
    assert oracles.is_subgroup(g.mul, rot.elements)
    mask = rot.member_mask()
    assert mask.sum() == 6 and all(mask[list(rot.elements)])
    with pytest.raises(ValueError):
        g.subgroup([0, 1, 2, 3, 4])  # not closed in general
    with pytest.raises(ValueError):
        g.subgroup([1] if g.elt_order[1] > 1 else [2])  # missing identity


def test_normality_matches_brute_force_on_full_lattice():
    g = POOL["D12"]
    for sub in all_subgroups(g):
        assert sub.is_normal == oracles.is_normal(g.mul, sub.elements)


def test_subgroup_round_trip_local_ids():
    g = POOL["S4"]
    v4 = g.subgroup([0, 7, 16, 23])
    local = v4.as_group()
    assert local.order == 4 and local.exponent == 2
    for i in range(4):
        assert int(v4.from_parent(int(v4.to_parent(i)))) == i
    back = v4.to_parent(np.arange(4))
    assert sorted(int(b) for b in back) == [0, 7, 16, 23]


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


def test_normal_lattice_matches_atom_join_oracle(corpus_groups):
    checked = 0
    for name, g in corpus_groups.items():
        if g.order > 64:
            continue
        lattice = [s.elements for s in g.normal_subgroups()]
        assert lattice == oracles.normal_lattice(g.mul.tolist()), name
        checked += 1
    assert checked == 108


def test_normal_lattice_bounds():
    g = abelian([2] * 5)  # 374 subgroups, all normal
    with pytest.raises(BoundExceeded):
        g.normal_subgroups(bound=100)
    assert len(g.normal_subgroups(bound=374)) == 374
    with pytest.raises(BoundExceeded):
        g.normal_subgroups(bound=373)  # the cached lattice is capped too
    with pytest.raises(BoundExceeded):
        cyclic(520).normal_subgroups()  # beyond the character-table order cap


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


def test_pprime_elements_fixed_point_free():
    s3 = sym(3)
    a3 = s3.subgroup(np.nonzero(s3.elt_order % 2 == 1)[0])
    assert pprime_elements_fpf(s3, a3, 3)
    c6 = cyclic(6)
    assert not pprime_elements_fpf(c6, c6.subgroup([0, 2, 4]), 3)


def test_group_constructor_validation():
    with pytest.raises(ValueError):
        Group(np.array([[0, 1], [1, 1]]))  # not a Latin square
    with pytest.raises(ValueError):
        Group(np.array([[1, 0], [0, 1]]))  # identity not id 0
    mul = np.zeros((1, 1), dtype=np.int64)
    assert Group(mul).order == 1
