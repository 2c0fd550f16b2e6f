"""Clifford layer: orbits and stabilizers of characters, characters above,
full ramification, extensions, and the invariant-theta theorem scans.

Stabilizers and full ramification in G(θ) come from
``oracles.ramification_by_definition``, which builds G(θ) and its table;
the library reads both off G."""

from __future__ import annotations

import numpy as np
import pytest

import groupchar.chartable as chartable
import groupchar.clifford as clifford
from groupchar import pairs
from groupchar import (
    ContractViolation,
    Group,
    NotNormal,
    abelian,
    abelian_invariant_factors,
    agl1,
    alt,
    build_corpus,
    c5c5_c3,
    classify_pair,
    compute_table,
    cyclic,
    dihedral,
    direct_product,
    distinct_nonlinear_scan,
    extraspecial_2,
    generalized_quaternion,
    invariant_rows,
    is_frobenius_with_kernel,
    quotient_class,
    ramification_report,
    ramification_scan_pair,
    restriction_multiplicities,
    sl23,
    sym,
)

from groupchar.groups import Subgroup, _memo

import oracles
from helpers import (
    conjugate_character,
    extension_alternative,
    extensions_of,
    full_subgroup,
    generated_subgroup,
    section_centralizer,
)


def _s3_with_a3():
    g = sym(3)
    sub = g.subgroup(np.nonzero(g.elt_order % 2 == 1)[0])
    return g, sub, compute_table(sub.as_group())


def _q8_with_center():
    g = generalized_quaternion(8)
    sub = g.center()
    return g, sub, compute_table(sub.as_group())


def test_conjugation_permutes_a3_characters():
    g, sub, table_n = _s3_with_a3()
    transposition = min(x for x in range(6) if g.elt_order[x] == 2)
    theta = table_n.rows[1]
    image = conjugate_character(theta, transposition, sub)
    assert image.index == 2  # the two nontrivial linear characters swap
    assert conjugate_character(image, transposition, sub).index == 1
    trivial = conjugate_character(table_n.rows[0], transposition, sub)
    assert trivial.index == 0


def _orbit_rows(group, sub, table_n):
    """The rows of each G-orbit on Irr(N), from the pass's closure."""
    return [tuple(np.flatnonzero(o)) for o in clifford._orbits(group, sub, table_n)]


def _record(group, sub, row):
    """The pass's record of θ = ``row``, checked against the oracle."""
    rec = ramification_report(group, sub)[row]
    ref = oracles.ramification_by_definition(group, sub)[row]
    keys = ("count_above", "fully_ramified", "e")
    assert [rec[k] for k in keys] == [ref[k] for k in keys]
    return rec


def test_invariant_rows_and_stabilizers():
    g, sub, table_n = _s3_with_a3()
    inv = invariant_rows(g, sub)
    assert list(inv) == [True, False, False]
    orbits = _orbit_rows(g, sub, table_n)
    oracle = oracles.ramification_by_definition(g, sub)
    assert orbits[1] == oracle[1]["orbit"] == (1, 2)
    # |G(θ)| = |G| / |O(θ)|
    assert g.order // len(orbits[1]) == oracle[1]["stabilizer_order"] == 3
    assert g.order // len(orbits[0]) == oracle[0]["stabilizer_order"] == 6

    a4 = alt(4)
    v4 = a4.minimal_normal_subgroups()[0]
    orbits = _orbit_rows(a4, v4, compute_table(v4.as_group()))
    oracle = oracles.ramification_by_definition(a4, v4)
    assert len(orbits[1]) == len(oracle[1]["orbit"]) == 3
    assert a4.order // len(orbits[1]) == oracle[1]["stabilizer_order"] == 4


def test_irr_above_frozen_counts():
    g, sub, _ = _s3_with_a3()
    rec = _record(g, sub, 1)
    assert (rec["degrees_above"], rec["e"]) == ([2], 1)

    q8, z, _ = _q8_with_center()
    rec = _record(q8, z, 1)
    assert (rec["degrees_above"], rec["e"]) == ([2], 2)

    a4 = alt(4)
    v4 = a4.minimal_normal_subgroups()[0]
    rec = _record(a4, v4, 1)
    assert (rec["degrees_above"], rec["e"]) == ([3], 1)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_extraspecial_above_center(sign):
    g = extraspecial_2(2, sign)
    rec = _record(g, g.center(), 1)
    assert (rec["degrees_above"], rec["e"]) == ([4], 4)
    assert (rec["fully_ramified"], rec["e"]) == (True, 4)


def test_fully_ramified_verdicts():
    q8, z, _ = _q8_with_center()
    rec = _record(q8, z, 1)
    assert (rec["fully_ramified"], rec["e"]) == (True, 2)

    c4 = cyclic(4)
    rec = _record(c4, c4.subgroup([0, 2]), 1)
    assert (rec["fully_ramified"], rec["e"]) == (False, None)

    # theta not invariant: the oracle reads the verdict in the stabilizer
    g, sub, _ = _s3_with_a3()
    rec = _record(g, sub, 1)
    assert (rec["fully_ramified"], rec["e"]) == (True, 1)

    # degenerate N = G
    rec = _record(g, g.subgroup(range(6)), 1)
    assert (rec["fully_ramified"], rec["e"]) == (True, 1)


def test_extensions_frozen_counts():
    q8 = generalized_quaternion(8)
    z = q8.center()
    # a cyclic order-4 subgroup through the center
    gen4 = min(x for x in range(8) if q8.elt_order[x] == 4)
    c4 = generated_subgroup(q8, [gen4])
    table_z = compute_table(z.as_group())
    theta = table_z.rows[1]
    assert len(extensions_of(theta, z, c4)) == 2
    full = q8.subgroup(range(8))
    assert len(extensions_of(theta, z, full)) == 0
    # Gallagher bookkeeping: the trivial character has |M:N| extensions
    # when M/N is abelian
    assert len(extensions_of(table_z.rows[0], z, full)) == 4
    # M/N = S3 is not abelian: the trivial θ of 1 has two extensions, not 6
    s3 = sym(3)
    one = s3.trivial_subgroup()
    trivial = compute_table(one.as_group()).rows[0]
    assert len(extensions_of(trivial, one, full_subgroup(s3))) == 2
    with pytest.raises(ValueError):
        extensions_of(compute_table(c4.as_group()).rows[0], c4, z)  # needs N ≤ M


def test_extension_alternative_q8_chain():
    q8 = generalized_quaternion(8)
    z = q8.center()
    gen4 = min(x for x in range(8) if q8.elt_order[x] == 4)
    c4 = generated_subgroup(q8, [gen4])
    theta = compute_table(z.as_group()).rows[1]
    out = extension_alternative(q8, z, c4, theta)
    assert out["extendible"] is True
    assert out["invariant_extension"] is False
    assert out["transitive"] is True


def test_section_centralizer():
    q8 = generalized_quaternion(8)
    z = q8.center()
    gen4 = min(x for x in range(8) if q8.elt_order[x] == 4)
    c4 = generated_subgroup(q8, [gen4])
    assert section_centralizer(q8, c4, z).order == 8

    s4 = sym(4)
    v4 = s4.subgroup([0, 7, 16, 23])
    assert section_centralizer(s4, v4, s4.trivial_subgroup()).order == 4


@pytest.mark.parametrize(
    "invariants,expected",
    [
        ([2, 2], [2, 2]),
        ([4], [4]),
        ([2, 4], [2, 4]),
        ([2, 2, 12], [2, 2, 12]),
        ([360], [360]),
        ([2, 6, 6], [2, 6, 6]),
    ],
)
def test_abelian_invariant_factors_round_trip(invariants, expected):
    g = abelian(invariants)
    assert abelian_invariant_factors(g, g.trivial_subgroup()) == expected


def _squares(g):
    """{x²}, a subgroup of an abelian group."""
    ids = np.arange(g.order)
    return g.subgroup(g.mul[ids, ids])


@pytest.mark.parametrize(
    "build,normal,expected",
    [
        (lambda: abelian([4, 8]), _squares, [2, 2]),  # C4×C8 / C2×C4
        (lambda: abelian([6, 6]), _squares, [2, 2]),
        (lambda: generalized_quaternion(8), lambda g: g.center(), [2, 2]),
        (lambda: extraspecial_2(2, "+"), lambda g: g.center(), [2, 2, 2, 2]),
        (lambda: agl1(5), lambda g: g.minimal_normal_subgroups()[0], [4]),
        (lambda: direct_product(sym(3), cyclic(4)),
         lambda g: g.derived_subgroup(), [2, 4]),
    ],
    ids=["C4xC8/squares", "C6xC6/squares", "Q8/Z", "ES32+/Z", "AGL1(5)/C5", "S3xC4/A3"],
)
def test_abelian_invariant_factors_over_a_normal_subgroup(build, normal, expected):
    g = build()
    assert abelian_invariant_factors(g, normal(g)) == expected


def test_abelian_invariant_factors_trivial_and_errors():
    c1 = cyclic(1)
    assert abelian_invariant_factors(c1, c1.trivial_subgroup()) == []
    q8 = generalized_quaternion(8)
    assert abelian_invariant_factors(q8, full_subgroup(q8)) == []
    s3 = sym(3)
    with pytest.raises(ValueError):
        abelian_invariant_factors(s3, s3.trivial_subgroup())
    s4 = sym(4)
    with pytest.raises(ValueError):  # S4/V4 is S3
        abelian_invariant_factors(s4, s4.subgroup([0, 7, 16, 23]))


def _pair_entry_points(group, sub):
    """Every library call that takes a pair (G, N), by name."""
    return {
        "invariant_rows": lambda: invariant_rows(group, sub),
        "abelian_invariant_factors": lambda: abelian_invariant_factors(group, sub),
        "quotient_class": lambda: quotient_class(group, sub),
        "ramification_scan_pair": lambda: ramification_scan_pair(group, sub),
        "ramification_report": lambda: ramification_report(group, sub),
        "has_property_D": lambda: pairs.has_property_D(group, sub),
        "is_camina_centralizer": lambda: pairs.is_camina_centralizer(group, sub),
        "is_camina_vanishing": lambda: pairs.is_camina_vanishing(group, sub),
        "camina_pair": lambda: pairs.camina_pair(group, sub),
        "classify_pair": lambda: classify_pair(group, sub),
        "restriction_multiplicities": lambda: restriction_multiplicities(group, sub),
        "is_supersolvable": lambda: group.is_supersolvable(sub),
    }


def test_non_normal_subgroup_is_refused():
    """On S3 with <(1 2)> the G-classes do not partition N's classes, so
    every fact over N would be read off the wrong blocks: each entry point
    raises NotNormal instead, which is a ValueError.  residual_case keeps its
    documented case 'none' and is_frobenius_with_kernel says False."""
    s3 = sym(3)
    sub = s3.subgroup([0, min(x for x in range(6) if s3.elt_order[x] == 2)])
    assert not sub.is_normal
    for name, call in _pair_entry_points(s3, sub).items():
        with pytest.raises(NotNormal):
            call()
    assert issubclass(NotNormal, ValueError)
    assert pairs.residual_case(s3, sub) == {"case": "none"}
    assert is_frobenius_with_kernel(s3, sub) is False


def test_subgroup_of_another_group_is_refused():
    """A4's V4 (ids 0, 3, 8, 11) read as a subgroup of S4: quotient_class
    called S4 over it supersolvable, and class_fusion raised IndexError.
    Every entry point now raises ValueError, residual_case included."""
    s4, a4 = sym(4), alt(4)
    v4 = a4.minimal_normal_subgroups()[0]
    assert v4.elements.tolist() == [0, 3, 8, 11]
    calls = _pair_entry_points(s4, v4)
    calls["residual_case"] = lambda: pairs.residual_case(s4, v4)
    calls["is_frobenius_with_kernel"] = lambda: is_frobenius_with_kernel(s4, v4)
    for name, call in calls.items():
        with pytest.raises(ValueError, match="different group"):
            call()


def test_quotient_class_verdicts():
    for g, verdict in ((sym(3), "supersolvable"), (cyclic(15), "supersolvable"),
                       (c5c5_c3(), "odd"), (sym(4), "other")):
        assert quotient_class(g, g.trivial_subgroup()) == verdict
    s4 = sym(4)
    assert quotient_class(s4, s4.subgroup([0, 7, 16, 23])) == "supersolvable"
    # No proper corpus pair is odd and not supersolvable; G/Z is C5²⋊C3.
    g = direct_product(c5c5_c3(), cyclic(3))
    assert g.center().order == 3
    assert quotient_class(g, g.center()) == "odd"


def _quotient_facts(group, sub):
    """(class, abelian, odd index, invariant factors or None) of G/N, read
    inside G."""
    abelian_q = clifford._abelian_over(group, sub)
    return (quotient_class(group, sub), abelian_q,
            (group.order // sub.order) % 2 == 1,
            abelian_invariant_factors(group, sub) if abelian_q else None)


def _image_facts(group, sub):
    """The same facts read from the quotient group G/N itself."""
    image = group.quotient(sub)
    one = image.trivial_subgroup()
    return (quotient_class(image, one), image.is_abelian, image.order % 2 == 1,
            abelian_invariant_factors(image, one) if image.is_abelian else None)


def test_quotient_facts_match_the_quotient_group(proper_normal_pairs):
    """Two routes to the facts about G/N: inside G, and from the image group
    that `Group.quotient` builds; every corpus pair, and N = 1 and N = G."""
    pairs = [(g, sub) for _, g, sub in proper_normal_pairs]
    for g in (sym(4), generalized_quaternion(8), c5c5_c3(), agl1(5),
              direct_product(c5c5_c3(), cyclic(3))):
        pairs += [(g, g.trivial_subgroup()), (g, full_subgroup(g))]
    seen = set()
    for g, sub in pairs:
        facts = _quotient_facts(g, sub)
        assert facts == _image_facts(g, sub), (g.label, sub.order)
        seen.add(facts[:2])
    assert seen >= {("supersolvable", True), ("supersolvable", False),
                    ("odd", False), ("other", False)}


def test_invariant_rows_match_the_fusion_blocks(proper_normal_pairs):
    """Two routes to the invariant rows: one gather over N's class
    representatives, and the blocks of oracles.class_fusion; every corpus pair."""
    some_not_invariant = 0
    for _, g, sub in proper_normal_pairs:
        table_n = compute_table(sub.as_group())
        got = invariant_rows(g, sub)
        assert np.array_equal(got, oracles.invariant_rows_by_fusion(g, sub, table_n)), (
            g.label, sub.order)
        some_not_invariant += not got.all()
    assert some_not_invariant > 0


def test_pairs_share_one_class_map(proper_normal_pairs, triple_records):
    """N's classes go into G's by one memo fact of the subgroup, the classes
    of ``as_group()``, which ``invariant_rows`` and
    ``restriction_multiplicities`` both read: on every corpus pair the scan
    left it, equal to the direct gather over the classes of N's table."""
    for name, g, sub in proper_normal_pairs:
        classes = compute_table(sub.as_group()).classes
        shared = sub._cache["_parent_classes"]
        want = g.conjugacy_classes().class_of[sub.to_parent(classes.reps)]
        assert np.array_equal(shared, want), (name, sub.order)
        assert sub._parent_classes() is shared


def test_a_pass_maps_the_classes_of_n_once(monkeypatch):
    """Each pass over (G, N) reads the one class map, computed on the
    first pass and kept for the next."""
    fusions = []
    fusion = Subgroup._parent_classes.__wrapped__

    def counted(sub):
        fusions.append(sub)
        return fusion(sub)

    counted.__name__ = fusion.__name__
    monkeypatch.setattr(Subgroup, "_parent_classes", _memo(counted))
    g = sym(4)
    for sub in g.normal_subgroups():
        if 1 < sub.order < g.order:
            ramification_report(g, sub)
            ramification_scan_pair(g, sub)
            assert fusions.count(sub) == 1


def test_pass_builds_no_quotient_group(monkeypatch, f16_by_dic3, q8c7_by_c3):
    """The ramification pass, the extraspecial bucket, extensions_of, the
    classifier and the residual shape read every fact about G/N inside G.
    The one quotient built is G/G′, inside a table build, whose linear rows
    are read off it."""
    s4 = sym(4)
    v4 = s4.subgroup([0, 7, 16, 23])
    es32 = extraspecial_2(2, "+")  # a central product: built by a quotient
    q8 = generalized_quaternion(8)
    z = q8.center()
    c4 = generated_subgroup(q8, [min(x for x in range(8) if q8.elt_order[x] == 4)])
    theta = compute_table(z.as_group()).rows[1]

    quotient, linear = Group.quotient, chartable._linear_exponents
    building = []

    def linear_exponents(group):
        building.append(group)
        try:
            return linear(group)
        finally:
            building.pop()

    def refuse(self, normal):
        if not (building and building[-1] is self and normal == self.derived_subgroup()):
            raise AssertionError("a quotient group was built")
        return quotient(self, normal)

    monkeypatch.setattr(chartable, "_linear_exponents", linear_exponents)
    monkeypatch.setattr(Group, "quotient", refuse)
    for g, sub in ((s4, v4), (es32, es32.center())):
        assert ramification_scan_pair(g, sub)
        assert ramification_report(g, sub)
    assert distinct_nonlinear_scan(es32)["bucket"] == "extraspecial-2"
    assert len(extensions_of(theta, z, c4)) == 2
    assert len(extensions_of(compute_table(z.as_group()).rows[0], z,
                             full_subgroup(q8))) == 4
    for g in (sl23(), agl1(7), c5c5_c3(), f16_by_dic3):
        for sub in g.minimal_normal_subgroups():
            classify_pair(g, sub)
    (n,) = f16_by_dic3.minimal_normal_subgroups()
    assert classify_pair(f16_by_dic3, n).residual_case == "ii"
    series = q8c7_by_c3.iterated_series(3)
    assert pairs._residual_shape(q8c7_by_c3, series, 3) == ("iii", 56, 3)


def test_ramification_report_q8_center():
    q8, z, table_z = _q8_with_center()
    records = ramification_report(q8, z)
    assert [rec["theta"] for rec in records] == [0, 1]
    rep = records[1]
    assert {k: rep[k] for k in ("invariant", "distinct_degrees", "count_above",
                                "degrees_above", "fully_ramified", "e",
                                "quotient_class")} == {
        "invariant": True,
        "distinct_degrees": True,
        "count_above": 1,
        "degrees_above": [2],
        "fully_ramified": True,
        "e": 2,
        "quotient_class": "supersolvable",
    }
    rep0 = records[0]
    assert rep0["count_above"] == 4
    assert rep0["fully_ramified"] is False
    assert rep0["distinct_degrees"] is False


def test_scan_records_shape():
    g = agl1(5)
    kernel = g.minimal_normal_subgroups()[0]
    records = ramification_scan_pair(g, kernel)
    # only the trivial character of the kernel is invariant: 4 linear above
    assert len(records) == 1
    rec = records[0]
    assert rec["theta"] == 0 and rec["count_above"] == 4
    assert rec["quotient_abelian"] is True
    assert rec["fully_ramified"] is False

    q8, z, _ = _q8_with_center()
    records = ramification_scan_pair(q8, z)
    assert len(records) == 2
    fully = [r for r in records if r["fully_ramified"]]
    assert len(fully) == 1 and fully[0]["e"] == 2


def test_scan_over_dihedral_family_raises_nothing():
    for n in range(3, 12):
        g = dihedral(n)
        for sub in g.normal_subgroups():
            if 1 < sub.order < g.order:
                ramification_scan_pair(g, sub)


def _small_nonabelian_pairs():
    for entry in build_corpus():
        g = entry.build()
        if g.order > 24 or g.is_abelian:
            continue
        for sub in g.normal_subgroups():
            if sub.order > 1:
                yield g, sub


def test_report_matches_the_stabilizer_route():
    """The one pass against the oracle, which builds each stabilizer G(θ)
    and its own table, on every nonabelian corpus group of order ≤ 24 and
    every nontrivial normal N (N = G too)."""
    keys = ("count_above", "fully_ramified", "e")
    triples = 0
    for g, sub in _small_nonabelian_pairs():
        table_n = compute_table(sub.as_group())
        records = ramification_report(g, sub)
        assert [rec["theta"] for rec in records] == list(range(len(table_n)))
        oracle = oracles.ramification_by_definition(g, sub)
        for rec, ref, orbit in zip(records, oracle, _orbit_rows(g, sub, table_n),
                                   strict=True):
            assert [rec[k] for k in keys] == [ref[k] for k in keys], (g.label, sub.order)
            assert orbit == ref["orbit"]
            triples += 1
    assert triples == 575


def test_pass_rejects_a_support_that_is_not_the_orbit(monkeypatch):
    """Swap one member between two orbits of equal size and degree: only
    the support-equals-orbit check can see it."""
    g = dihedral(5)
    sub = g.minimal_normal_subgroups()[0]  # C5: orbits {0}, two of size 2
    real = clifford._orbits

    def swapped(group, n, table_n):
        orbits = real(group, n, table_n)
        a, b = sorted({tuple(np.flatnonzero(o)) for o in orbits if o.sum() == 2})
        bad = orbits.copy()
        bad[list(a + b)] = False
        for orbit in ([a[0], b[1]], [b[0], a[1]]):
            bad[np.ix_(orbit, orbit)] = True
        return bad

    monkeypatch.setattr(clifford, "_orbits", swapped)
    with pytest.raises(ContractViolation, match="not the orbit"):
        ramification_report(g, sub)


def test_a_passing_scan_builds_no_witness(proper_normal_pairs, monkeypatch):
    """A TheoremViolation witness names N by its ids; it is built only when
    an assertion fails, not once per invariant θ."""
    calls = 0
    witness = clifford._pair_witness

    def counting(group, sub):
        nonlocal calls
        calls += 1
        return witness(group, sub)

    monkeypatch.setattr(clifford, "_pair_witness", counting)
    chosen = [(g, sub) for name, g, sub in proper_normal_pairs
              if name in ("S4", "SL(2,3)", "ES32+", "D8xC3")]
    records = [rec for g, sub in chosen for rec in ramification_scan_pair(g, sub)]
    assert len(chosen) > 10 and len(records) > len(chosen)
    assert calls == 0
