"""Distinct-degree pairs: property (D), Camina checks, the classifier,
residual structure, the degree scan, and monotonicity."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from groupchar import (
    Group,
    agl1,
    alt,
    abelian,
    ContractViolation,
    camina_pair,
    classify_pair,
    cyclic,
    dihedral,
    distinct_nonlinear_scan,
    extraspecial_2,
    frobenius72_quaternion,
    generalized_quaternion,
    has_property_D,
    irr_over,
    is_camina_centralizer,
    is_camina_vanishing,
    property_d_monotone,
    residual_case,
    save_group,
    sl23,
    sym,
)
from groupchar import pairs
from groupchar.cli import main
from groupchar.constructors import c7_c3, direct_product

import oracles


def _a3(g):
    return g.subgroup(np.nonzero(g.elt_order % 2 == 1)[0])


def test_irr_over_counts():
    s4 = sym(4)
    v4 = s4.subgroup([0, 7, 16, 23])
    assert [chi.degree for chi in irr_over(s4, v4)] == [3, 3]
    q8 = generalized_quaternion(8)
    assert [chi.degree for chi in irr_over(q8, q8.center())] == [2]
    a4 = alt(4)
    assert [chi.degree for chi in irr_over(a4, a4.minimal_normal_subgroups()[0])] == [3]


def test_property_d_frozen():
    q8 = generalized_quaternion(8)
    assert has_property_D(q8, q8.center())
    s4 = sym(4)
    assert not has_property_D(s4, s4.subgroup([0, 7, 16, 23]))
    c6 = cyclic(6)
    assert not has_property_D(c6, c6.subgroup([0, 2, 4]))
    s3 = sym(3)
    assert has_property_D(s3, _a3(s3))


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
        camina_pair(s3, s3.full_subgroup())


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
    for sub in g.normal_subgroups():
        if not 1 < sub.order < g.order:
            continue
        expected = oracles.camina_f2(g, sub)
        assert is_camina_centralizer(g, sub) == expected
        assert is_camina_vanishing(g, sub) == expected
        assert camina_pair(g, sub) == expected


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


def test_classify_pair_raises_when_camina_deciders_disagree(monkeypatch):
    s4 = sym(4)
    v4 = s4.minimal_normal_subgroups()[0]  # a NotD pair: no later Camina check
    verdict = is_camina_vanishing(s4, v4)
    monkeypatch.setattr(pairs, "is_camina_vanishing", lambda group, sub: not verdict)
    with pytest.raises(ContractViolation):
        classify_pair(s4, v4)


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
    pr = classify_pair(c2, c2.full_subgroup())
    assert pr.property_D and pr.type == "NotApplicable"


def test_classifier_edge_subgroups():
    s4 = sym(4)
    # trivial N: property (D) is vacuous, N is not minimal -> NotApplicable
    pr = classify_pair(s4, s4.trivial_subgroup())
    assert pr.property_D and pr.type == "NotApplicable"
    # non-normal N is a usage error
    transposition = min(
        x for x in range(24)
        if s4.elt_order[x] == 2 and s4.centralizer(x).order == 4
    )
    with pytest.raises(ValueError):
        classify_pair(s4, s4.generated_subgroup([transposition]))


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


def test_monotonicity_counts():
    assert property_d_monotone(generalized_quaternion(8)) == 18
    assert property_d_monotone(sym(4)) == 10
    assert property_d_monotone(alt(4)) == 6
    assert property_d_monotone(dihedral(8)) == 25
