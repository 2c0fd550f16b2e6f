"""Distinct-degree pairs: property (D), Camina checks, the classifier,
residual structure, the degree scan, and monotonicity."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

from groupchar import (
    Group,
    Subgroup,
    agl1,
    alt,
    abelian,
    ContractViolation,
    NotNormal,
    camina_pair,
    camina_verdicts,
    classify_pair,
    compute_table,
    cyclic,
    dihedral,
    distinct_nonlinear_scan,
    extraspecial_2,
    frobenius72_quaternion,
    generalized_quaternion,
    has_property_D,
    is_camina_centralizer,
    is_camina_vanishing,
    residual_case,
    save_group,
    sl23,
    sym,
    TheoremViolation,
)
from groupchar import clifford, pairs
from groupchar.clifford import ramification_scan_pair
from groupchar._arith import prime_factors
from groupchar.cli import main
from groupchar.constructors import (
    _cyclic_extension,
    automorphism_from_images,
    c7_c3,
    direct_product,
)

import helpers
import oracles
from helpers import full_subgroup, generated_subgroup, property_d_monotone


def _a3(g):
    return g.subgroup(np.nonzero(g.elt_order % 2 == 1)[0])


def test_irr_over_counts():
    s4, q8, a4 = sym(4), generalized_quaternion(8), alt(4)
    for g, sub, want in ((s4, s4.subgroup([0, 7, 16, 23]), [3, 3]),
                         (q8, q8.center(), [2]),
                         (a4, a4.minimal_normal_subgroups()[0], [3])):
        table = compute_table(g)
        rows = oracles.irr_over_by_values(table, sub)
        assert [int(table.degrees[r]) for r in rows] == want
        assert classify_pair(g, sub).evidence["degrees_over"] == want


def test_property_d_frozen():
    q8 = generalized_quaternion(8)
    assert has_property_D(q8, q8.center())
    s4 = sym(4)
    assert not has_property_D(s4, s4.subgroup([0, 7, 16, 23]))
    c6 = cyclic(6)
    assert not has_property_D(c6, c6.subgroup([0, 2, 4]))
    s3 = sym(3)
    assert has_property_D(s3, _a3(s3))


def test_property_d_refuses_a_non_normal_subgroup():
    s3 = sym(3)  # <(1 2)> below: the degrees over it were read as distinct
    with pytest.raises(NotNormal):
        has_property_D(s3, s3.subgroup([0, min(x for x in range(6) if s3.elt_order[x] == 2)]))


def test_camina_frozen_examples():
    s3 = sym(3)
    assert camina_pair(s3, _a3(s3)) is True
    q8 = generalized_quaternion(8)
    assert camina_pair(q8, q8.center()) is True
    c4 = cyclic(4)
    assert camina_pair(c4, c4.subgroup([0, 2])) is False
    with pytest.raises(ValueError):
        camina_pair(s3, s3.trivial_subgroup())
    with pytest.raises(ValueError):
        camina_pair(s3, full_subgroup(s3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: sym(3),
        lambda: sym(4),
        lambda: cyclic(4),
        lambda: cyclic(12),
        lambda: dihedral(4),
        lambda: dihedral(5),
        lambda: generalized_quaternion(8),
        lambda: alt(4),
        lambda: agl1(5),
        lambda: extraspecial_2(2, "-"),
        lambda: abelian([2, 2, 2]),
        c7_c3,
    ],
)
def test_camina_checkers_match_conjugation_definition(build):
    g = build()
    verdicts = camina_verdicts(g)
    assert len(verdicts) == len(g.normal_subgroups())
    for sub, verdict in zip(g.normal_subgroups(), verdicts):
        if not 1 < sub.order < g.order:
            assert not verdict
            continue
        expected = oracles.camina_f2(g, sub)
        assert is_camina_centralizer(g, sub) == expected
        assert is_camina_vanishing(g, sub) == expected
        assert camina_pair(g, sub) == expected
        assert verdict == expected


@pytest.mark.parametrize(
    "build", [lambda: sym(4), lambda: alt(4), lambda: generalized_quaternion(8),
              lambda: dihedral(6)],
)
def test_camina_centralizer_decider_needs_no_character_table(build, monkeypatch):
    g = build()
    subs = [s for s in g.normal_subgroups() if 1 < s.order < g.order]
    masks, _ = g._normal_lattice()

    def no_table(group):
        raise AssertionError("the centralizer decider read a character table")

    monkeypatch.setattr(pairs, "compute_table", no_table)
    expected = [oracles.camina_f2(g, sub) for sub in subs]
    assert [is_camina_centralizer(g, sub) for sub in subs] == expected
    assert pairs._centralizer_verdicts(g, masks[1:-1]).tolist() == expected


def test_centralizer_decider_reads_only_the_commutator_classes(corpus_groups):
    """On every proper row of every corpus lattice the decider equals the
    verdict from the full counts H·Mᵀ, and the columns where H is nonzero,
    the classes that hold a commutator, are classes of G′."""
    for name, g in corpus_groups.items():
        h = pairs._commutator_classes(g)
        sizes = g.conjugacy_classes().sizes
        proper = g._normal_lattice()[0][1:-1]
        full = (h @ proper.T) * sizes[:, None] == g.order * (proper @ sizes)
        want = (full | proper.T).all(axis=0)
        assert pairs._centralizer_verdicts(g, proper).tolist() == want.tolist(), name
        assert g.derived_subgroup().class_mask()[h.any(axis=0)].all(), name


def test_vanishing_decider_fails_linear_rows_without_a_product(corpus_groups):
    """On every proper row of every corpus lattice the decider equals both
    boolean products taken over all rows, and each row outside G′, which
    it fails before the products, has a degree-1 character over it."""
    early = 0
    for name, g in corpus_groups.items():
        table = compute_table(g)
        proper = g._normal_lattice()[0][1:-1]
        over = ~table._kernel_mask @ proper.T
        nonzero = over.T @ ~table._zero_mask
        verdicts = pairs._vanishing_verdicts(g, proper)
        assert verdicts.tolist() == (~(nonzero & ~proper).any(axis=1)).tolist(), name
        outside = (proper & ~g.derived_subgroup().class_mask()).any(axis=1)
        assert not verdicts[outside].any(), name
        linear_over = over[table.degrees == 1].any(axis=0)
        assert np.array_equal(linear_over, outside), name
        early += int(outside.sum())
    assert early > 0


def test_classify_type1_families():
    q8 = generalized_quaternion(8)
    pr = classify_pair(q8, q8.center())
    assert pr.type == "Type1" and pr.p == 2
    assert pr.property_D and pr.camina_centralizer and pr.camina_vanishing
    assert pr.unique_minimal_normal and pr.o_p_prime_trivial and pr.pprime_fpf
    assert pr.evidence["faithful_degree"] == 2
    assert pr.residual_case == "i"

    for sign in ("+", "-"):
        es = extraspecial_2(2, sign)
        pr = classify_pair(es, es.center())
        assert pr.type == "Type1"
        assert pr.evidence["faithful_degree"] == 4


def test_classify_type2_families():
    f20 = agl1(5)
    pr = classify_pair(f20, f20.minimal_normal_subgroups()[0])
    assert pr.type == "Type2"
    assert pr.evidence["complement_order"] == 4
    assert pr.evidence["faithful_degree"] == 4
    assert pr.residual_case == "i"

    s3 = sym(3)
    pr = classify_pair(s3, _a3(s3))
    assert pr.type == "Type2" and pr.residual_case == "i"

    a4 = alt(4)
    pr = classify_pair(a4, a4.minimal_normal_subgroups()[0])
    assert pr.type == "Type2"

    f72 = frobenius72_quaternion()
    pr = classify_pair(f72, f72.minimal_normal_subgroups()[0])
    assert pr.type == "Type2"
    assert pr.evidence["faithful_degree"] == 8
    assert pr.evidence["complement_order"] == 8


def _unitriangular3_by_inversion():
    """U ⋊ ⟨diag(1, 1, −1)⟩ of order 54, U the upper unitriangular 3×3
    matrices over F_3: the matrices [[1, a, b], [0, 1, c], [0, 0, ±1]]."""
    mats = [np.array([[1, a, b], [0, 1, c], [0, 0, s]])
            for s in (1, 2) for a, b, c in itertools.product(range(3), repeat=3)]
    ids = {m.tobytes(): i for i, m in enumerate(mats)}
    return Group([[ids[(x @ y % 3).tobytes()] for y in mats] for x in mats],
                 label="U3(3):2")


def test_classify_type3_witness(tmp_path, capsys):
    """Not nilpotent (the centre is trivial) and not Frobenius over N = Z(U):
    the residual shape, case i, with J = U the Sylow 3-subgroup."""
    g = _unitriangular3_by_inversion()
    (n,) = g.minimal_normal_subgroups()
    assert (g.order, n.order, g.center().order) == (54, 3, 1)
    pr = classify_pair(g, n)
    assert (pr.type, pr.residual_case) == ("Type3", "i")
    assert pr.evidence["degrees_over"] == [6]
    assert pr.evidence["j_order"] == 27
    # (p^n − 1)·√(|J| / p^n) with p^n = 3 and |J| = 27
    assert pr.evidence["unique_degree"] == (3 - 1) * 3
    path = tmp_path / "g54.grp"
    save_group(g, path)
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "type = Type3" in out and "case = i" in out


def test_classify_residual_case_ii_witness(f16_by_dic3, tmp_path, capsys):
    """Type 3 with residual case ii: J = G, O_2(J) of order 32, a middle
    layer C3 and a top C2 inverting it."""
    g = f16_by_dic3
    (n,) = g.minimal_normal_subgroups()
    assert (g.order, n.order, g.center().order) == (192, 4, 1)
    pr = classify_pair(g, n)
    assert (pr.type, pr.residual_case) == ("Type3", "ii")
    assert pr.evidence["degrees_over"] == [12]
    residual = pr.evidence["residual"]
    assert (residual["j_order"], residual["middle_order"], residual["top_order"]) == (
        192, 3, 2)
    path = tmp_path / "g192.grp"
    save_group(g, path)
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "type = Type3" in out and "case = ii" in out


def test_classify_pair_raises_when_camina_deciders_disagree(monkeypatch):
    s4 = sym(4)
    v4 = s4.minimal_normal_subgroups()[0]  # a NotD pair: no later Camina check
    verdict = is_camina_vanishing(s4, v4)
    monkeypatch.setattr(pairs, "is_camina_vanishing", lambda group, sub: not verdict)
    with pytest.raises(ContractViolation):
        classify_pair(s4, v4)


@pytest.mark.parametrize("row", [0, 2, 3])
def test_camina_verdicts_raise_when_the_deciders_disagree(row, monkeypatch):
    g = dihedral(4)  # proper normal rows: Z(G) of order 2, then three of order 4
    masks, orders = g._normal_lattice()
    honest = pairs._vanishing_verdicts

    def flip_one(group, rows):
        out = honest(group, rows).copy()
        out[row] = not out[row]
        return out

    monkeypatch.setattr(pairs, "_vanishing_verdicts", flip_one)
    classes = np.flatnonzero(masks[row + 1]).tolist()
    with pytest.raises(ContractViolation) as err:
        camina_verdicts(g)
    assert f"({g.label}, N of order {orders[row + 1]}, classes {classes})" in str(err.value)


def test_classify_notd_and_notapplicable():
    c6 = cyclic(6)
    pr = classify_pair(c6, c6.subgroup([0, 2, 4]))
    assert pr.type == "NotD"

    s4 = sym(4)
    pr = classify_pair(s4, s4.subgroup([0, 7, 16, 23]))
    assert pr.type == "NotD"
    assert pr.evidence["degrees_over"] == [3, 3]

    # nonsolvable: duplicate degrees already fail property (D), so NotD wins
    a5 = alt(5)
    pr = classify_pair(a5, a5.minimal_normal_subgroups()[0])
    assert pr.type == "NotD"

    # abelian with property (D): a single character over N
    c2 = cyclic(2)
    pr = classify_pair(c2, full_subgroup(c2))
    assert pr.property_D and pr.type == "NotApplicable"


def test_classifier_edge_subgroups():
    s4 = sym(4)
    # trivial N: property (D) is vacuous, N is not minimal -> NotApplicable
    pr = classify_pair(s4, s4.trivial_subgroup())
    assert pr.property_D and pr.type == "NotApplicable"
    # non-normal N is a usage error
    transposition = min(
        x for x in range(24)
        if s4.elt_order[x] == 2 and oracles.centralizer(s4, x).order == 4
    )
    with pytest.raises(ValueError):
        classify_pair(s4, generated_subgroup(s4, [transposition]))


def test_residual_cases():
    q8 = generalized_quaternion(8)
    out = residual_case(q8, q8.center())
    assert out["case"] == "i"

    s3 = sym(3)
    out = residual_case(s3, _a3(s3))
    assert out["case"] == "i"

    f72 = frobenius72_quaternion()
    out = residual_case(f72, f72.minimal_normal_subgroups()[0])
    assert out["case"] == "i"

    # "none": not a Camina pair, N not of prime-power order, N = 1
    s4 = sym(4)
    assert residual_case(s4, s4.subgroup([0, 7, 16, 23])) == {"case": "none"}
    d12 = dihedral(6)  # ids r^i s^j = i + 6j, so the rotations are 0..5
    assert residual_case(d12, d12.subgroup(range(6))) == {"case": "none"}
    assert residual_case(s3, s3.trivial_subgroup()) == {"case": "none"}


def test_residual_case_witness_rebuilds_n(monkeypatch):
    s3 = sym(3)
    a3 = _a3(s3)
    monkeypatch.setattr(pairs, "_camina_inside", lambda group, j_sub, sub: False)
    with pytest.raises(TheoremViolation) as err:
        residual_case(s3, a3)
    witness = err.value.witness
    assert witness["p"] == 3
    assert Subgroup(s3, witness["n_elements"]) == a3


def _replay_cases():
    """(module, patched name, stand-in, G, N, entry point, claim) per
    forced violation: the invariant-character theorems, the classifier's
    own check, and each of the three type assertions."""
    es32 = extraspecial_2(2, "+")
    s3 = sym(3)
    u54 = _unitriangular3_by_inversion()
    return {
        "clifford": (clifford, "abelian_invariant_factors", lambda group, sub: [2],
                     es32, es32.center(), ramification_scan_pair, "fully ramified"),
        "classify": (pairs, "pprime_elements_fpf", lambda group, sub, p: False,
                     s3, _a3(s3), classify_pair, "distinct-degree pair misses"),
        "type1": (pairs, "_faithful_rows", lambda table: np.zeros(0, dtype=np.int64),
                  es32, es32.center(), classify_pair, "nilpotent"),
        "type2": (pairs, "frobenius_complement", lambda group, sub: None,
                  s3, _a3(s3), classify_pair, "Frobenius"),
        "type3": (pairs, "isqrt_exact", lambda n: None,
                  u54, u54.minimal_normal_subgroups()[0], classify_pair, "residual"),
    }


@pytest.mark.parametrize("case", ["clifford", "classify", "type1", "type2", "type3"])
def test_every_theorem_violation_replays(case, monkeypatch):
    """Each forced TheoremViolation names G by its label and N by its ids:
    ``Subgroup(G, witness["n_elements"])`` is N again, and the same call on
    it fails the same claim."""
    module, name, stand_in, g, n, entry, claim = _replay_cases()[case]
    monkeypatch.setattr(module, name, stand_in)
    with pytest.raises(TheoremViolation) as err:
        entry(g, n)
    assert err.value.claim.startswith(claim)
    witness = err.value.witness
    assert (witness["group"], witness["n_order"]) == (g.label, n.order)
    rebuilt = Subgroup(g, witness["n_elements"])
    assert rebuilt == n
    with pytest.raises(TheoremViolation) as again:
        entry(g, rebuilt)
    assert again.value.claim == err.value.claim


_TYPE1_CLAIM = "nilpotent distinct-degree pair must be the 2-group shape"
_TYPE2_CLAIM = "Frobenius distinct-degree pair must be the sharply transitive shape"


def _wrong_fact_cases():
    """(G, N, call, forced faithful rows or None, claim) per claim branch
    of `pairs._assert_type1` and `_assert_type2` but the missing
    complement, which the replay cases above force: a wrong prime or
    exponent, a pair of the wrong shape, or a forced faithful-row set."""
    es32, d8, d10, d16, d32, f20 = (extraspecial_2(2, "+"), dihedral(4), dihedral(5),
                                    dihedral(8), dihedral(16), agl1(5))
    translations = f20.minimal_normal_subgroups()[0]

    def type1(p):
        return functools.partial(pairs._assert_type1, p=p)

    def type2(p, n_exp):
        return functools.partial(pairs._assert_type2, p=p, n_exp=n_exp)

    return {
        "type1-prime": (es32, es32.center(), type1(3), None,
                        f"{_TYPE1_CLAIM}: kernel prime is 3, not 2"),
        "type1-order": (d16, d16.center(), type1(2), None,
                        f"{_TYPE1_CLAIM}: |G| = 16 is not an odd power 2^(2m+1) with m >= 1"),
        "type1-center": (d8, d8.subgroup([0, 1, 2, 3]), type1(2), None,
                         f"{_TYPE1_CLAIM}: N must equal the center, of order 2"),
        "type1-faithful": (d32, d32.center(), type1(2), None,  # the four ρ_j, j odd
                           f"{_TYPE1_CLAIM}: 4 faithful characters, expected exactly 1"),
        "type1-degree": (es32, es32.center(), type1(2), [0],
                         f"{_TYPE1_CLAIM}: faithful degree 1 differs from 2^2"),
        "type2-index": (f20, translations, type2(5, 2), None,
                        f"{_TYPE2_CLAIM}: complement order 4 differs from 24"),
        "type2-transitive": (d10, d10.subgroup(range(5)), type2(3, 1), None,
                             f"{_TYPE2_CLAIM}: G is not transitive on the nonidentity "
                             "elements of N"),
        "type2-faithful": (f20, translations, type2(5, 1), [1, 2],
                           f"{_TYPE2_CLAIM}: 2 faithful characters, expected exactly 1"),
        "type2-degree": (f20, translations, type2(5, 1), [0],
                         f"{_TYPE2_CLAIM}: faithful degree 1 differs from 4"),
    }


@pytest.mark.parametrize("case", ["type1-prime", "type1-order", "type1-center",
                                  "type1-faithful", "type1-degree", "type2-index",
                                  "type2-transitive", "type2-faithful", "type2-degree"])
def test_type_assertions_fail_each_claim_on_a_wrong_fact(case, monkeypatch):
    """Each claim branch of the two type assertions raises its own text,
    and ``Subgroup(G, witness["n_elements"])`` is N again."""
    g, n, call, rows, claim = _wrong_fact_cases()[case]
    if rows is not None:
        monkeypatch.setattr(pairs, "_faithful_rows",
                            lambda table: np.array(rows, dtype=np.int64))
    report = pairs.PairReport(g.label, g.order, tuple(n.elements.tolist()), n.order)
    with pytest.raises(TheoremViolation) as err:
        call(g, n, report=report)
    assert err.value.claim == claim
    assert Subgroup(g, err.value.witness["n_elements"]) == n


def _by_cyclic(base, m, auto):
    """base ⋊ C_m, the generator of C_m acting by the automorphism ``auto``
    (a permutation of base's ids whose order divides m)."""
    return _cyclic_extension(base, m, auto, f"{base.label}:C{m}")


def _residual_shape_inputs(corpus_groups, f16_by_dic3, q8c7_by_c3):
    """(label, J, p): J = O^{p'}(G) for every corpus group G and prime p,
    the case-ii witness with p = 2, then groups taken as J with p = 3 and
    a middle layer of even order."""
    for name, g in corpus_groups.items():
        for p in prime_factors(g.order):
            yield f"{name} p={p}", g.radicals(p).p_residual.as_group(), p
    yield "F16:Dic3", f16_by_dic3, 2
    yield "C4 p=3", cyclic(4), 3  # cyclic middle of even order, trivial top
    yield "(Q8xC7):C3", q8c7_by_c3, 3
    q8 = generalized_quaternion(8)
    sigma = automorphism_from_images(q8, [1, 4], [4, 5])  # a -> b, b -> ab
    yield "Q8:C9", _by_cyclic(q8, 9, sigma), 3  # O_3 = C3, middle Q8
    yield "(Q8xC5):C3", _by_cyclic(direct_product(q8, cyclic(5)), 3,
                                    [sigma[x // 5] * 5 + x % 5 for x in range(40)]), 3
    c5c5 = abelian([5, 5])  # ids 5x + y
    on_c5c5 = automorphism_from_images(c5c5, [5, 1], [1, 24])  # x²+x+1, no fixed vector
    yield "(Q8xC5^2):C3", _by_cyclic(direct_product(q8, c5c5), 3,
                                     [sigma[x // 25] * 25 + on_c5c5[x % 25]
                                      for x in range(200)]), 3
    on_c7 = [x // 7 * 7 + 2 * x % 7 for x in range(56)]  # x -> 2x on C7
    yield "(C8xC7):C3", _by_cyclic(direct_product(cyclic(8), cyclic(7)), 3, on_c7), 3
    yield "C2^3:C3", _by_cyclic(abelian([2, 2, 2]), 3,  # ids 4a + 2b + c
                                [4 * (x & 1) + (x >> 1) for x in range(8)]), 3


def test_residual_shape_matches_the_quotient_route(corpus_groups, f16_by_dic3,
                                                   q8c7_by_c3):
    """Cases ii/iii read inside J agree with the shape read from J/O_p(J)
    and its quotient built by `Group.quotient`: the verdict, |M:K| and
    |J:M|."""
    seen = {}
    for label, j_grp, p in _residual_shape_inputs(corpus_groups, f16_by_dic3,
                                                  q8c7_by_c3):
        shape = pairs._residual_shape(j_grp, j_grp.iterated_series(p), p)
        assert shape == oracles.residual_shape_by_quotient(j_grp, p), label
        seen[label] = shape
    assert len(seen) == 188 + 8
    assert seen["F16:Dic3"] == ("ii", 3, 2)
    assert seen["SL(2,3) p=3"] == ("iii", 8, 3)
    assert seen["(Q8xC7):C3"] == ("iii", 56, 3)
    assert seen["Q8:C9"] == ("iii", 8, 3)
    assert seen["(Q8xC5):C3"] == (None, 40, 3)  # [J, M] misses C5
    assert seen["(C8xC7):C3"] == (None, 56, 3)
    assert seen["C2^3:C3"] == (None, 8, 3)
    assert seen["(Q8xC5^2):C3"] == (None, 200, 3)  # C5 × C5 is not cyclic
    assert seen["S4 p=3"] == (None, 4, 3)
    assert seen["C4 p=3"] == (None, 4, 1)
    verdicts = [shape[0] for shape in seen.values()]
    assert (verdicts.count("ii"), verdicts.count("iii")) == (179, 3)


SCAN_EXPECTATIONS = [
    (lambda: dihedral(4), True, "extraspecial-2"),
    (lambda: sym(3), True, "frobenius-cyclic"),
    (lambda: alt(4), True, "frobenius-cyclic"),
    (lambda: agl1(16), True, "frobenius-cyclic"),
    (frobenius72_quaternion, True, "frobenius72-quaternion"),
    (lambda: extraspecial_2(3, "-"), True, "extraspecial-2"),
    (lambda: dihedral(5), False, None),
    (lambda: generalized_quaternion(16), False, None),
    (lambda: sym(4), False, None),
    (sl23, False, None),
    (c7_c3, False, None),
    (lambda: direct_product(generalized_quaternion(8), cyclic(3)), False, None),
]


@pytest.mark.parametrize("build,distinct,bucket", SCAN_EXPECTATIONS)
def test_distinct_nonlinear_scan(build, distinct, bucket):
    out = distinct_nonlinear_scan(build())
    assert out["distinct"] is distinct
    assert out["bucket"] == bucket


def test_scan_rejects_abelian():
    with pytest.raises(ValueError):
        distinct_nonlinear_scan(cyclic(8))


def test_monotonicity_counts_every_subset_pair(corpus_groups):
    for name, g in corpus_groups.items():
        if g.order > 64:  # ES128± have 2826 normal subgroups: 8M pairs
            continue
        normals = g.normal_subgroups()
        want = sum(a.is_subset_of(b) for a in normals for b in normals)
        assert property_d_monotone(g) == want, name


def test_monotonicity_failure_names_the_first_chain(monkeypatch):
    s4 = sym(4)
    monkeypatch.setattr(helpers, "has_property_D", lambda group, sub: sub.order == 24)
    with pytest.raises(TheoremViolation) as err:
        property_d_monotone(s4)
    assert (err.value.witness["n_order"], err.value.witness["m_order"]) == (1, 24)


def test_monotonicity_counts():
    assert property_d_monotone(generalized_quaternion(8)) == 18
    assert property_d_monotone(sym(4)) == 10
    assert property_d_monotone(alt(4)) == 6
    assert property_d_monotone(dihedral(8)) == 25
