"""Distinct-degree pairs (G, N): predicates, classification, and scans.

Everything here treats the classification results as falsifiable claims:
whenever a hypothesis is established computationally, the promised
conclusions are asserted and any failure raises TheoremViolation with a
witness.  The two Camina checkers (centralizer sizes vs character
vanishing) are always run together; disagreement is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._arith import isqrt_exact, p_part, prime_power
from .chartable import Character, CharacterTable, compute_table
from .errors import ContractViolation, TheoremViolation
from .groups import (
    Group,
    Subgroup,
    frobenius_complement,
    is_frobenius_with_kernel,
    pprime_elements_fpf,
)

__all__ = [
    "PairReport",
    "irr_over",
    "has_property_D",
    "is_camina_centralizer",
    "is_camina_vanishing",
    "camina_pair",
    "classify_pair",
    "residual_case",
    "distinct_nonlinear_scan",
    "property_d_monotone",
]


# -- Irr(G|N) and property (D) --------------------------------------------------


def _classes_in(group: Group, sub: Subgroup) -> np.ndarray:
    """Sorted ids of the G-classes contained in the normal subgroup."""
    cc = group.conjugacy_classes()
    return np.unique(cc.class_of[sub.as_array()])


def _rows_over(table: CharacterTable, sub: Subgroup) -> np.ndarray:
    """Row indices of the characters whose kernel does not contain N."""
    inside = _classes_in(table.group, sub)
    contains = table._kernel_mask[:, inside].all(axis=1)
    return np.nonzero(~contains)[0]


def irr_over(group: Group, sub: Subgroup) -> list[Character]:
    """Characters of G whose kernel does not contain N (N normal, N = G ok)."""
    if not sub.is_normal:
        raise ValueError("irr_over needs a normal subgroup")
    table = compute_table(group)
    return [table.rows[r] for r in _rows_over(table, sub)]


def has_property_D(group: Group, sub: Subgroup) -> bool:
    """Are the degrees over N pairwise distinct?  Vacuously true if none."""
    table = compute_table(group)
    degs = table.degrees[_rows_over(table, sub)]
    return len(set(degs.tolist())) == len(degs)


# -- Camina pair checkers (two independent routes) ------------------------------


def is_camina_centralizer(group: Group, sub: Subgroup) -> bool:
    """|C_G(x)| = |C_{G/N}(xN)| for every x outside N (one rep per class).

    The quotient centralizer is counted directly: C_{G/N}(xN) is the image
    of {y : [x, y] ∈ N}, a union of N-cosets, so its order is that count
    divided by |N| — no quotient group is materialized.
    """
    if sub.order in (1, group.order) or not sub.is_normal:
        raise ValueError("Camina checks need a proper nontrivial normal subgroup")
    cc = group.conjugacy_classes()
    mask = sub.member_mask()
    mul, inv = group.mul, group.inv
    for c, rep in enumerate(cc.reps):
        if mask[rep]:
            continue
        cent_g = group.order // cc.sizes[c]
        conj = mul[mul[rep], inv[rep]]          # y -> x y x^{-1}
        comm = mul[conj, inv]                   # y -> [x, y]
        cent_q = int(mask[comm].sum()) // sub.order
        if cent_g != cent_q:
            return False
    return True


def is_camina_vanishing(group: Group, sub: Subgroup) -> bool:
    """Every character over N vanishes on all of G ∖ N."""
    if sub.order in (1, group.order) or not sub.is_normal:
        raise ValueError("Camina checks need a proper nontrivial normal subgroup")
    table = compute_table(group)
    rows = _rows_over(table, sub)
    inside = _classes_in(group, sub)
    outside = np.setdiff1d(np.arange(len(table.classes.reps)), inside)
    if len(rows) == 0 or len(outside) == 0:
        return True
    return bool(table._zero_mask[np.ix_(rows, outside)].all())


def camina_pair(group: Group, sub: Subgroup) -> bool:
    """Run both checkers; they must agree (their equivalence is a theorem)."""
    a = is_camina_centralizer(group, sub)
    b = is_camina_vanishing(group, sub)
    if a != b:
        raise ContractViolation(
            f"Camina checkers disagree on ({group.label}, N of order {sub.order}): "
            f"centralizer={a} vanishing={b}"
        )
    return a


# -- pair classification ---------------------------------------------------------


@dataclass
class PairReport:
    """Everything the classifier established about one pair (G, N)."""

    g_label: str
    g_order: int
    n_elements: tuple
    n_order: int
    p: int | None = None
    n_exp: int | None = None
    property_D: bool = False
    camina_centralizer: bool | None = None
    camina_vanishing: bool | None = None
    unique_minimal_normal: bool | None = None
    o_p_prime_trivial: bool | None = None
    pprime_fpf: bool | None = None
    type: str = "NotApplicable"
    residual_case: str | None = None
    evidence: dict = field(default_factory=dict)


def _faithful_rows(table: CharacterTable) -> np.ndarray:
    return np.nonzero(~table._kernel_mask[:, 1:].any(axis=1))[0]


def _assert_type1(group: Group, sub: Subgroup, p: int, report: PairReport):
    def fail(msg):
        raise TheoremViolation(
            "nilpotent distinct-degree pair must be the 2-group shape: " + msg,
            {"group": group.label, "n_order": sub.order},
        )

    order = group.order
    if p != 2:
        fail(f"kernel prime is {p}, not 2")
    k = order.bit_length() - 1
    if 2 ** k != order or k % 2 == 0 or k < 3:
        fail(f"|G| = {order} is not an odd power 2^(2m+1) with m >= 1")
    m = (k - 1) // 2
    center = group.center()
    if center.order != 2 or sub != center:
        fail("N must equal the center, of order 2")
    table = compute_table(group)
    faithful = _faithful_rows(table)
    if len(faithful) != 1:
        fail(f"{len(faithful)} faithful characters, expected exactly 1")
    fd = int(table.degrees[faithful[0]])
    if fd != 2 ** m:
        fail(f"faithful degree {fd} differs from 2^{m}")
    report.evidence["m"] = m
    report.evidence["faithful_degree"] = fd


def _assert_type2(group: Group, sub: Subgroup, p: int, n_exp: int,
                  report: PairReport):
    def fail(msg):
        raise TheoremViolation(
            "Frobenius distinct-degree pair must be the sharply transitive "
            "shape: " + msg,
            {"group": group.label, "n_order": sub.order},
        )

    target = p ** n_exp - 1
    index = group.order // sub.order
    if index != target:
        fail(f"complement order {index} differs from {target}")
    cc = group.conjugacy_classes()
    classes_in_n = _classes_in(group, sub)
    if len(classes_in_n) != 2:
        fail("G is not transitive on the nonidentity elements of N")
    comp = frobenius_complement(group, sub)
    if comp is None or comp.order != target:
        fail("no Frobenius complement of the predicted order")
    table = compute_table(group)
    faithful = _faithful_rows(table)
    if len(faithful) != 1:
        fail(f"{len(faithful)} faithful characters, expected exactly 1")
    fd = int(table.degrees[faithful[0]])
    if fd != target:
        fail(f"faithful degree {fd} differs from {target}")
    report.evidence["complement_order"] = comp.order
    report.evidence["faithful_degree"] = fd


def _camina_inside(group: Group, j_sub: Subgroup, sub: Subgroup) -> bool | None:
    """(J, N) Camina verdict inside the materialized J; None when J = N
    (the condition quantifies over the empty set J ∖ N)."""
    if j_sub.order == sub.order:
        return None
    if j_sub.order == group.order:
        return camina_pair(group, sub)
    j_grp = j_sub.as_group()
    rank = {e: i for i, e in enumerate(j_sub.elements)}
    n_in_j = Subgroup(j_grp, [rank[e] for e in sub.elements])
    return camina_pair(j_grp, n_in_j)


def _assert_type3(group: Group, sub: Subgroup, p: int, n_exp: int,
                  report: PairReport):
    def fail(msg):
        raise TheoremViolation(
            "residual distinct-degree pair breaks its promised shape: " + msg,
            {"group": group.label, "n_order": sub.order},
        )

    if group.center().order != 1:
        fail("center is nontrivial")
    # residual_case, which runs next, checks that (J, N) is a Camina pair.
    j_sub = group.radicals(p).p_residual
    report.evidence["j_order"] = j_sub.order
    if j_sub.order == sub.order:
        report.evidence["j_equals_n"] = True
    # When J is a Sylow p-subgroup the unique character over N has the
    # predicted degree (p^n - 1) * sqrt(|J| / p^n).
    if j_sub.order == p_part(group.order, p):
        table = compute_table(group)
        rows = _rows_over(table, sub)
        if len(rows) != 1:
            fail(f"|Irr(G|N)| = {len(rows)} with a Sylow p'-residual")
        root = isqrt_exact(j_sub.order // (p ** n_exp))
        if root is None:
            fail("|J| / |N| is not a perfect square")
        want = (p ** n_exp - 1) * root
        got = int(table.degrees[rows[0]])
        if got != want:
            fail(f"unique degree {got} differs from {want}")
        report.evidence["unique_degree"] = got


def classify_pair(group: Group, sub: Subgroup) -> PairReport:
    """Classify one pair (G, N) and assert every promised conclusion.

    Verdicts: NotApplicable (G abelian, G unsolvable, or N not minimal
    normal), NotD (degrees over N collide), else Type1 (nilpotent), Type2
    (Frobenius over N), or Type3 (residual).  All per-type claims are
    asserted; failures raise TheoremViolation.
    """
    report = PairReport(
        g_label=group.label,
        g_order=group.order,
        n_elements=sub.elements,
        n_order=sub.order,
    )
    if not sub.is_normal:
        raise ValueError("classify_pair needs a normal subgroup")
    report.property_D = has_property_D(group, sub)
    table = compute_table(group)
    report.evidence["degrees_over"] = [
        int(table.degrees[r]) for r in _rows_over(table, sub)
    ]
    if 1 < sub.order < group.order:
        report.camina_centralizer = report.camina_vanishing = camina_pair(group, sub)
    if not report.property_D:
        report.type = "NotD"
        return report
    if (
        group.is_abelian
        or not group.is_solvable()
        or sub not in group.minimal_normal_subgroups()
    ):
        return report

    pp = prime_power(sub.order)
    if pp is None:
        raise ContractViolation(
            "minimal normal subgroup of a solvable group must be a p-group"
        )
    p, n_exp = pp
    report.p, report.n_exp = p, n_exp

    def fail(msg):
        raise TheoremViolation(
            "distinct-degree pair misses a promised conclusion: " + msg,
            {"group": group.label, "n_order": sub.order},
        )

    if not (report.camina_centralizer and report.camina_vanishing):
        fail("(G, N) is not a Camina pair")
    minimals = group.minimal_normal_subgroups()
    report.unique_minimal_normal = len(minimals) == 1
    if not report.unique_minimal_normal:
        fail(f"{len(minimals)} minimal normal subgroups")
    rad = group.radicals(p)
    report.o_p_prime_trivial = rad.o_p_prime.order == 1
    if not report.o_p_prime_trivial:
        fail(f"O_p'(G) has order {rad.o_p_prime.order}")
    report.pprime_fpf = pprime_elements_fpf(group, sub, p)
    if not report.pprime_fpf:
        fail("some nontrivial p'-element fixes a nonidentity element of N")

    if group.is_nilpotent():
        report.type = "Type1"
        _assert_type1(group, sub, p, report)
    elif is_frobenius_with_kernel(group, sub):
        report.type = "Type2"
        _assert_type2(group, sub, p, n_exp, report)
    else:
        report.type = "Type3"
        _assert_type3(group, sub, p, n_exp, report)
    case = residual_case(group, sub)
    report.residual_case = case["case"]
    report.evidence["residual"] = case
    return report


# -- residual-case classification (Camina pair structure) -----------------------


def _series_subgroup_match(j_sub: Subgroup, local: Subgroup,
                           parent_sub: Subgroup) -> bool:
    """Does a subgroup of the materialized J equal a subgroup of G?"""
    parent_ids = {int(x) for x in j_sub.to_parent(local.as_array())}
    return parent_ids == set(parent_sub.elements)


def _is_quaternion8(group: Group) -> bool:
    """Order 8, nonabelian, unique involution."""
    return (
        group.order == 8
        and not group.is_abelian
        and int(np.count_nonzero(group.elt_order == 2)) == 1
    )


def _quaternion_times_odd_cyclic(group: Group) -> bool:
    """Is the group Q8 × C (C cyclic of odd order)?"""
    if group.order % 8 or (group.order // 8) % 2 == 0:
        return False
    two_part = np.nonzero((group.elt_order & (group.elt_order - 1)) == 0)[0]
    odd_part = np.nonzero(group.elt_order % 2 == 1)[0]
    if len(two_part) != 8 or len(odd_part) != group.order // 8:
        return False
    try:
        q = group.subgroup(two_part)
        c = group.subgroup(odd_part)
    except ValueError:
        return False
    if not (q.is_normal and c.is_normal):
        return False
    if not _is_quaternion8(q.as_group()) or not c.as_group().is_cyclic:
        return False
    return q.order * c.order == group.order


def _image_subgroup(qm, sub: Subgroup) -> Subgroup:
    """Image of a subgroup of the source under a quotient map."""
    return Subgroup(qm.image, sorted({qm(int(x)) for x in sub.elements}))


def _acts_fpf_on(quotient: Group, middle: Subgroup) -> bool:
    """Does every element outside the (abelian, normal) middle act without
    nonidentity fixed points on it by conjugation?"""
    mul, inv = quotient.mul, quotient.inv
    mid = middle.as_array()
    mid = mid[mid != 0]
    mask = middle.member_mask()
    for g in range(1, quotient.order):
        if mask[g]:
            continue
        conj = mul[mul[g, mid], inv[g]]
        if np.any(conj == mid):
            return False
    return True


def _commutator_span(quotient: Group, middle: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [g, m], g in Q, m in middle."""
    mul, inv = quotient.mul, quotient.inv
    mid = middle.as_array()
    gens = set()
    for g in range(quotient.order):
        gm = mul[mul[mul[g, mid], inv[g]], inv[mid]]
        gens.update(int(x) for x in gm)
    return quotient.generated_subgroup(sorted(gens))


def residual_case(group: Group, sub: Subgroup) -> dict:
    """Which structural case the p'-residual J of a Camina pair falls into.

    Precondition (verified; returns case 'none' otherwise): (G, N) is a
    Camina pair, N is a p-group, G is solvable.  Asserts O_p'(G) = 1 and
    that (J, N) is again a Camina pair, then returns the first matching
    case with its evidence:

      i.   J is a Sylow p-subgroup of G.
      ii.  O_p(J) = O_p(G), the iterated p,p',p-series of J reaches J, the
           middle layer is cyclic of odd order, the top is an abelian
           p-group acting fixed-point-freely on the middle layer.
      iii. p = 3 with the same radical/series shape, middle layer Q8 × odd
           cyclic, abelian top, and [J, middle] covering the middle layer.

    A Camina pair matching no case raises TheoremViolation.
    """
    out: dict = {"case": "none"}
    pp = prime_power(sub.order)
    if (
        pp is None
        or sub.order in (1, group.order)
        or not sub.is_normal
        or not group.is_solvable()
        or not camina_pair(group, sub)
    ):
        return out
    p, _ = pp
    rad = group.radicals(p)
    if rad.o_p_prime.order != 1:
        raise TheoremViolation(
            "a Camina pair over a p-group must have trivial O_p'(G)",
            {"group": group.label, "n_order": sub.order,
             "o_p_prime": rad.o_p_prime.order},
        )
    j_sub = rad.p_residual
    out["j_order"] = j_sub.order
    verdict = _camina_inside(group, j_sub, sub)
    if verdict is None:
        out["j_equals_n"] = True
    elif not verdict:
        raise TheoremViolation(
            "(J, N) must again be a Camina pair",
            {"group": group.label, "n_order": sub.order, "j_order": j_sub.order},
        )

    if j_sub.order == p_part(group.order, p):
        out["case"] = "i"
        return out

    j_grp = j_sub.as_group()
    series = j_grp.iterated_series(p)
    radical_match = _series_subgroup_match(j_sub, series.o_p, rad.o_p)
    series_full = series.o_p_pprime_p.order == j_grp.order
    out["radical_match"] = radical_match
    out["series_full"] = series_full
    if radical_match and series_full:
        qm = j_grp.quotient(series.o_p)
        middle = _image_subgroup(qm, series.o_p_pprime)
        mid_grp = middle.as_group()
        top = qm.image.quotient(middle).image
        top_p_part = p_part(top.order, p) == top.order
        if (
            mid_grp.is_cyclic
            and mid_grp.order % 2 == 1
            and top.is_abelian
            and top_p_part
            and _acts_fpf_on(qm.image, middle)
        ):
            out["case"] = "ii"
            out["middle_order"] = mid_grp.order
            out["top_order"] = top.order
            return out
        if (
            p == 3
            and _quaternion_times_odd_cyclic(mid_grp)
            and top.is_abelian
            and _commutator_span(qm.image, middle) == middle
        ):
            out["case"] = "iii"
            out["middle_order"] = mid_grp.order
            out["top_order"] = top.order
            return out
    raise TheoremViolation(
        "Camina pair over a p-group matches no residual case",
        {"group": group.label, "n_order": sub.order, "j_order": j_sub.order,
         "radical_match": radical_match, "series_full": series_full},
    )


# -- distinct nonlinear degrees scan ---------------------------------------------


def _fitting_subgroup(group: Group) -> Subgroup:
    from ._arith import prime_factors

    return group.radicals(prime_factors(group.order)[0]).fitting


def _bucket_extraspecial2(group: Group) -> bool:
    center = group.center()
    derived = group.derived_subgroup()
    if center.order != 2 or derived.order != 2 or center != derived:
        return False
    quot = group.quotient(center).image
    return quot.is_abelian and int(quot.elt_order.max()) <= 2


def _bucket_frobenius(group: Group):
    """('cyclic'|'quaternion'|None): is G a 2-transitive Frobenius group
    with cyclic complement, or the order-72 quaternion-complement group?"""
    fit = _fitting_subgroup(group)
    if fit.order in (1, group.order):
        return None
    if not is_frobenius_with_kernel(group, fit):
        return None
    if len(_classes_in(group, fit)) != 2:
        return None  # not transitive on kernel-minus-identity
    comp = frobenius_complement(group, fit)
    if comp is None:
        return None
    comp_grp = comp.as_group()
    if comp_grp.is_cyclic:
        return "cyclic"
    if group.order == 72 and fit.order == 9 and _is_quaternion8(comp_grp):
        return "quaternion"
    return None


def distinct_nonlinear_scan(group: Group) -> dict:
    """Decide whether all nonlinear degrees are distinct and match the shape.

    The classification says a nonabelian solvable-scale group has pairwise
    distinct nonlinear degrees exactly when it is an extraspecial 2-group, a
    2-transitive Frobenius group with cyclic complement, or the order-72
    Frobenius group with quaternion complement.  Both directions are
    asserted; the report carries the verdicts.
    """
    if group.is_abelian:
        raise ValueError("the scan is defined for nonabelian groups")
    table = compute_table(group)
    nonlinear = [int(d) for d in table.degrees if d > 1]
    distinct = len(set(nonlinear)) == len(nonlinear)
    if _bucket_extraspecial2(group):
        bucket = "extraspecial-2"
    else:
        frob = _bucket_frobenius(group)
        if frob == "cyclic":
            bucket = "frobenius-cyclic"
        elif frob == "quaternion":
            bucket = "frobenius72-quaternion"
        else:
            bucket = None
    if distinct and bucket is None:
        raise TheoremViolation(
            "distinct nonlinear degrees outside the three classified shapes",
            {"group": group.label, "nonlinear_degrees": nonlinear},
        )
    if not distinct and bucket is not None:
        raise TheoremViolation(
            "a classified shape must have distinct nonlinear degrees",
            {"group": group.label, "bucket": bucket,
             "nonlinear_degrees": nonlinear},
        )
    return {
        "distinct": distinct,
        "bucket": bucket,
        "nonlinear_degrees": sorted(nonlinear),
    }


# -- monotonicity of property (D) ------------------------------------------------


def property_d_monotone(group: Group, max_normals: int = 200) -> int:
    """Assert D(G, M) ⇒ D(G, N) for every normal chain N ≤ M; returns the
    number of ordered chains checked."""
    normals = group.normal_subgroups()
    if len(normals) > max_normals:
        normals = normals[:max_normals]
    verdicts = [(sub, has_property_D(group, sub)) for sub in normals]
    checked = 0
    for small, d_small in verdicts:
        for big, d_big in verdicts:
            if small.order > big.order or not small.is_subset_of(big):
                continue
            checked += 1
            if d_big and not d_small:
                raise TheoremViolation(
                    "property (D) fails to descend to a smaller normal subgroup",
                    {"group": group.label, "n_order": small.order,
                     "m_order": big.order},
                )
    return checked
