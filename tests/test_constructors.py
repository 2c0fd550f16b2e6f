"""Builders: orders, class shapes, action validation, family structure."""

from __future__ import annotations

import numpy as np
import pytest

import groupchar.constructors as constructors
from groupchar import (
    BoundExceeded,
    Group,
    InvalidAction,
    NotPrimePower,
    abelian,
    agl1,
    alt,
    automorphism_from_images,
    c5c5_c3,
    c7_c3,
    central_product,
    compute_table,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_2,
    frobenius72_quaternion,
    generalized_quaternion,
    is_frobenius_with_kernel,
    load_group,
    semidirect_product,
    sl23,
    sym,
)
from groupchar.groups import SUBGROUP_BOUND

import oracles


def _fingerprint(g):
    """Isomorphism-invariant shape: order, exponent, class sizes, degrees."""
    cc = g.conjugacy_classes()
    table = compute_table(g)
    return (
        g.order,
        g.exponent,
        tuple(sorted(cc.sizes)),
        tuple(sorted(int(d) for d in table.degrees)),
    )


def test_cyclic_and_abelian():
    assert cyclic(1).order == 1
    assert cyclic(7).is_cyclic and cyclic(7).exponent == 7
    g = abelian([2, 4])
    assert g.order == 8 and g.exponent == 4 and g.is_abelian
    with pytest.raises(ValueError):
        abelian([])
    with pytest.raises(ValueError):
        abelian([0, 3])


def test_dihedral_and_quaternion():
    d8 = dihedral(4)
    assert d8.order == 8 and not d8.is_abelian
    assert sorted(d8.conjugacy_classes().sizes) == [1, 1, 2, 2, 2]
    q8 = generalized_quaternion(8)
    assert q8.order == 8
    assert sum(1 for x in range(8) if q8.elt_order[x] == 2) == 1
    q32 = generalized_quaternion(32)
    assert q32.order == 32 and q32.exponent == 16
    with pytest.raises(ValueError):
        generalized_quaternion(12)
    with pytest.raises(ValueError, match="need n >= 1"):
        dihedral(0)


def test_sym_alt():
    assert sym(3).order == 6 and alt(4).order == 12
    assert sym(5).order == 120 and alt(5).order == 60
    assert sym(1).order == 1
    with pytest.raises(ValueError):
        sym(6)
    with pytest.raises(ValueError):
        alt(6)


@pytest.mark.parametrize("perms,message", [
    ([(0, 1, 2), (1, 2, 0)], "not closed"),  # (1 2 0)∘(1 2 0) = (2 0 1) is missing
    ([(0, 1, 2), (1, 0, 2), (1, 0, 2)], "repeated"),
    ([(1, 0, 2), (0, 1, 2)], "identity"),
])
def test_perm_group_refuses_a_list_that_is_not_a_group(perms, message):
    with pytest.raises(ValueError, match=message):
        constructors._perm_group(perms, "bad")


def test_perm_file_without_generators_is_the_trivial_group(tmp_path):
    path = tmp_path / "trivial.perm.grp"
    path.write_text("perm 4\n# no generator lines\n")
    g = load_group(path)
    assert g.order == 1 and g.mul.tolist() == [[0]]


def test_direct_product_q8_c3():
    g = direct_product(generalized_quaternion(8), cyclic(3))
    assert g.order == 24
    assert g.is_nilpotent()


def test_semidirect_s3_profile():
    c3, c2 = cyclic(3), cyclic(2)
    inversion = [(0, 1, 2), (0, 2, 1)]
    g = semidirect_product(c3, c2, inversion)
    assert g.order == 6
    assert sorted(g.conjugacy_classes().sizes) == [1, 2, 3]
    assert _fingerprint(g) == _fingerprint(sym(3))


def test_semidirect_validates_action():
    c3, c2 = cyclic(3), cyclic(2)
    with pytest.raises(InvalidAction):
        semidirect_product(c3, c2, [(0, 1, 2), (1, 0, 2)])  # not an automorphism
    with pytest.raises(InvalidAction):
        semidirect_product(c3, c2, [(0, 2, 1), (0, 2, 1)])  # identity acts nontrivially
    with pytest.raises(InvalidAction):
        # not a homomorphism: 1 acts by x -> 2x (order 4) but 1+1 acts trivially
        c4 = cyclic(4)
        c5 = cyclic(5)
        ident = tuple(range(5))
        double = tuple((2 * x) % 5 for x in range(5))
        semidirect_product(c5, c4, [ident, double, ident, double])
    with pytest.raises(InvalidAction):
        semidirect_product(c3, c2, [(0, 1, 2)])  # wrong table count


@pytest.mark.parametrize("build, made", [
    (lambda: abelian([2, 2, 2]), 1),  # one table, no factor groups
    (sl23, 3),  # Q8, C3 and the product, under its own label
])
def test_each_group_is_built_once(monkeypatch, build, made):
    calls = 0
    init = Group.__init__

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Group, "__init__", counting)
    build()
    assert calls == made


def test_automorphism_from_images():
    c5 = cyclic(5)
    auto = automorphism_from_images(c5, [1], [2])
    assert tuple(auto) == (0, 2, 4, 1, 3)
    with pytest.raises(InvalidAction):
        automorphism_from_images(c5, [1], [0])  # kills a generator


@pytest.mark.parametrize("gens, images, message", [
    ([-1], [1], "0..2"),  # -1 wrapped to id 2 and gave (0, 2, 1)
    ([1], [1.7], "integers"),  # truncated to 1
    ([5], [1], "0..2"),  # raised IndexError
], ids=["negative", "float", "out-of-range"])
def test_automorphism_from_images_refuses_bad_ids(gens, images, message):
    with pytest.raises(ValueError, match=message):
        automorphism_from_images(cyclic(3), gens, images)


@pytest.mark.parametrize("gens, images, want", [
    ([1, 1], [1, 2], None),  # the second image was ignored: gave (0, 1, 2)
    ([0, 1], [1, 1], None),  # the identity's image was ignored: gave (0, 1, 2)
    ([0, 1], [0, 2], (0, 2, 1)),  # a redundant list whose images agree
], ids=["repeated-generator", "identity-moved", "redundant"])
def test_automorphism_from_images_honours_every_image(gens, images, want):
    if want is None:
        with pytest.raises(InvalidAction):
            automorphism_from_images(cyclic(3), gens, images)
    else:
        assert automorphism_from_images(cyclic(3), gens, images) == want


@pytest.mark.parametrize("build", [
    lambda: abelian([2.5]),  # gave C2
    lambda: cyclic(3.7),  # gave C3
    lambda: abelian(["4"]),  # gave C4
], ids=["float-invariant", "float-order", "string-invariant"])
def test_orders_must_be_integers(build):
    with pytest.raises(ValueError, match="integers"):
        build()


def test_semidirect_refuses_a_non_integer_action():
    # truncated to the inversion [0, 2, 1], which built a "C3:C2" before
    with pytest.raises(ValueError, match="integers"):
        semidirect_product(cyclic(3), cyclic(2), [[0, 1, 2], [0, 2.7, 1.2]])


def test_extraspecial_base_cases():
    assert _fingerprint(extraspecial_2(1, "-")) == _fingerprint(generalized_quaternion(8))
    assert _fingerprint(extraspecial_2(1, "+")) == _fingerprint(dihedral(4))
    with pytest.raises(ValueError, match="need m >= 1"):
        extraspecial_2(0, "+")
    with pytest.raises(ValueError, match="sign must be"):
        extraspecial_2(1, "*")


@pytest.mark.parametrize("m,sign", [(2, "+"), (2, "-"), (3, "+"), (3, "-")])
def test_extraspecial_structure(m, sign):
    g = extraspecial_2(m, sign)
    assert g.order == 2 ** (2 * m + 1)
    z = g.center()
    assert z.order == 2
    image = g.quotient(z)
    assert image.is_abelian and image.exponent == 2
    table = compute_table(g)
    faithful = [
        chi for chi in table if chi.kernel().order == 1
    ]
    assert len(faithful) == 1 and faithful[0].degree == 2 ** m


def test_central_product_amalgamates_centers():
    g = central_product(dihedral(4), generalized_quaternion(8))
    assert g.order == 32
    assert g.center().order == 2


def test_agl1_profiles():
    assert agl1(2).order == 2
    a = agl1(4)
    assert a.order == 12
    assert sorted(a.conjugacy_classes().sizes) == [1, 3, 4, 4]
    assert _fingerprint(a) == _fingerprint(alt(4))
    f20 = agl1(5)
    assert f20.order == 20
    kernel = f20.minimal_normal_subgroups()[0]
    assert kernel.order == 5 and is_frobenius_with_kernel(f20, kernel)
    with pytest.raises(NotPrimePower):
        agl1(6)
    with pytest.raises(NotPrimePower):
        agl1(12)
    g9 = agl1(9)
    assert g9.order == 72
    assert g9.minimal_normal_subgroups()[0].order == 9


def test_agl1_refuses_an_order_past_the_subgroup_bound(monkeypatch):
    """AGL1(47) has order 2162 > SUBGROUP_BOUND: refused before the field
    tables or any array are made."""
    def no_field(q):
        raise AssertionError("the field was built")

    monkeypatch.setattr(constructors, "gf_field", no_field)
    with pytest.raises(BoundExceeded) as info:
        agl1(47)
    assert (info.value.size, info.value.bound) == (47 * 46, SUBGROUP_BOUND)


def test_frobenius72():
    g = frobenius72_quaternion()
    assert g.order == 72
    kernel = g.minimal_normal_subgroups()[0]
    assert kernel.order == 9
    assert is_frobenius_with_kernel(g, kernel)
    assert oracles.is_frobenius_kernel(g, kernel)
    table = compute_table(g)
    nonlinear = sorted(int(d) for d in table.degrees if d > 1)
    assert nonlinear == sorted(set(nonlinear))  # pairwise distinct
    assert sorted(int(d) for d in table.degrees) == [1, 1, 1, 1, 2, 8]


def test_named_small_groups():
    g24 = sl23()
    assert g24.order == 24 and g24.is_solvable() and not g24.is_supersolvable()
    assert sorted(int(d) for d in compute_table(g24).degrees) == [1, 1, 1, 2, 2, 2, 3]
    g21 = c7_c3()
    assert g21.order == 21 and not g21.is_abelian
    assert sorted(int(d) for d in compute_table(g21).degrees) == [1, 1, 1, 3, 3]
    g75 = c5c5_c3()
    assert g75.order == 75
    assert sorted(int(d) for d in compute_table(g75).degrees) == [1, 1, 1] + [3] * 8
    assert g75.minimal_normal_subgroups()[0].order == 25


def test_every_builder_satisfies_group_axioms():
    for g in (cyclic(6), dihedral(7), generalized_quaternion(16), sym(4),
              alt(5), agl1(8), extraspecial_2(2, "-"), sl23(), c7_c3()):
        mul = g.mul
        n = g.order
        assert mul.shape == (n, n)
        # identity and Latin-square checks
        assert list(mul[0]) == list(range(n))
        assert list(mul[:, 0]) == list(range(n))
        for x in range(0, n, max(1, n // 5)):
            assert sorted(mul[x]) == list(range(n))
            assert sorted(mul[:, x]) == list(range(n))


def test_every_constructed_table_passes_lights_test(corpus_groups, request_inputs,
                                                     tmp_path):
    """The constructors and the permutation loader skip Light's associativity
    test, since their tables are groups by construction; the suite runs it
    instead, by a validating ``Group(mul)``, on every table they make for the
    corpus, the named groups, S_n and A_n, AGL(1, q), and the ``requests``
    inputs (the constructors' tables and the permutation files' closures)."""
    inputs = request_inputs
    inputs.write_inputs(tmp_path, 0)
    groups = list(corpus_groups.values())
    groups += [sl23(), c7_c3(), c5c5_c3(), frobenius72_quaternion()]
    groups += [make(n) for make in (sym, alt) for n in range(1, 6)]
    groups += [agl1(q) for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 23)]
    groups += [build() for build, *_ in inputs.GROUPS.values()]
    groups += [load_group(tmp_path / f"{name}.perm.grp") for name in inputs.GROUPS]
    for g in groups:
        Group(g.mul)  # ValueError at a generator where associativity fails
