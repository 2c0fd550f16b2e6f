"""Distinct-degree pairs (G, N): predicates, classification, and scans.

Everything here treats the classification results as falsifiable claims:
whenever a hypothesis is established computationally, the promised
conclusions are asserted and any failure raises TheoremViolation with a
witness; on a pair (G, N) the witness names N by its ids (``n_elements``),
so the failing case replays.  The two Camina checkers (centralizer sizes
vs character vanishing) are always run together; disagreement is an
internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._arith import isqrt_exact, p_part, prime_power
from .chartable import CharacterTable, compute_table
from .errors import ContractViolation, TheoremViolation
from .groups import (
    Group,
    IteratedSeries,
    Subgroup,
    _memo,
    _orders_modulo,
    _pair_witness,
    acts_fixed_point_freely,
    frobenius_complement,
    is_frobenius_with_kernel,
    pprime_elements_fpf,
    require_normal,
)

__all__ = [
    "PairReport",
    "has_property_D",
    "is_camina_centralizer",
    "is_camina_vanishing",
    "camina_pair",
    "camina_verdicts",
    "classify_pair",
    "residual_case",
    "distinct_nonlinear_scan",
]


# -- Irr(G|N) and property (D) --------------------------------------------------


def _rows_over(table: CharacterTable, sub: Subgroup) -> np.ndarray:
    """Row indices of the characters whose kernel does not contain N."""
    contains = table._kernel_mask[:, sub.class_mask()].all(axis=1)
    return np.nonzero(~contains)[0]


def has_property_D(group: Group, sub: Subgroup) -> bool:
    """Are the degrees over N pairwise distinct?  Vacuously true if none."""
    require_normal(group, sub)
    table = compute_table(group)
    degs = table.degrees[_rows_over(table, sub)]
    return len(set(degs.tolist())) == len(degs)


# -- Camina pair checkers (two independent routes) ------------------------------


@_memo
def _commutator_classes(group: Group) -> np.ndarray:
    """H[c, d] = #{y : [x_c, y] ∈ class d}, x_c the representative of
    class c; built once per group from one gather of commutators.  H is
    zero outside the columns of the classes that hold a commutator, all in G′."""
    cc = group.conjugacy_classes()
    mul, inv, k = group.mul, group.inv, len(cc)
    comm = mul[mul[mul[cc.reps], inv[cc.reps][:, None]], inv]  # [x_c, y], row c
    codes = k * np.arange(k)[:, None] + cc.class_of[comm]
    return np.bincount(codes.ravel(), minlength=k * k).reshape(k, k)


def _centralizer_verdicts(group: Group, masks: np.ndarray) -> np.ndarray:
    """The centralizer decider on each row of ``masks`` (L × k bool, each row
    the class mask of a normal N): is |C_G(x)| = |C_{G/N}(xN)| for every x
    outside N (one rep per class)?

    Decided without the character table.  C_{G/N}(xN) is the image of
    {y : [x, y] ∈ N}, a union of N-cosets, so |C_{G/N}(x_c N)|·|N| is the
    number of y whose commutator with x_c falls in a class of N: the
    commutator-class count H[c, d] summed over the classes d inside N,
    which is H·Mᵀ for all rows at once, over the columns where H is nonzero.
    """
    sizes = group.conjugacy_classes().sizes  # |C_G(x_c)| = |G| / size
    h = _commutator_classes(group)
    cols = np.flatnonzero(h.any(axis=0))
    counts = h[:, cols] @ masks[:, cols].T  # |C_{G/N}(x_c N)|·|N|, (k, L)
    want = group.order * (masks @ sizes)  # |G|·|N| per row
    return ((counts * sizes[:, None] == want) | masks.T).all(axis=0)


def _vanishing_verdicts(group: Group, masks: np.ndarray) -> np.ndarray:
    """The vanishing decider on each row of ``masks`` (a proper normal N
    each): does every character over N, one with a class of N outside its
    kernel, vanish on all of G ∖ N?  A linear character vanishes nowhere,
    so a row outside the meet of their kernels fails at once; two boolean
    products decide the rest."""
    table = compute_table(group)
    linear_meet = table._kernel_mask[table.degrees == 1].all(axis=0)
    out = ~(masks & ~linear_meet).any(axis=1)  # False: a linear character is over N
    rest = masks[out]
    nonzero = rest @ ~table._kernel_mask.T @ ~table._zero_mask  # some χ over N is ≠ 0
    out[out] = ~(nonzero & ~rest).any(axis=1)
    return out


def _proper_row(group: Group, sub: Subgroup) -> np.ndarray:
    """N's class mask as a one-row matrix, for a proper nontrivial normal N."""
    require_normal(group, sub)
    if sub.order in (1, group.order):
        raise ValueError("Camina checks need a proper nontrivial normal subgroup")
    return sub.class_mask()[None]


def _disagreement(group: Group, order: int, mask: np.ndarray, a: bool,
                  b: bool) -> ContractViolation:
    return ContractViolation(
        f"Camina checkers disagree on ({group.label}, N of order {order}, "
        f"classes {np.flatnonzero(mask).tolist()}): centralizer={a} vanishing={b}"
    )


def is_camina_centralizer(group: Group, sub: Subgroup) -> bool:
    """|C_G(x)| = |C_{G/N}(xN)| for every x outside N: the centralizer
    decider on N's row alone, with no character table."""
    return bool(_centralizer_verdicts(group, _proper_row(group, sub))[0])


def is_camina_vanishing(group: Group, sub: Subgroup) -> bool:
    """Every character over N vanishes on all of G ∖ N: the vanishing
    decider on N's row alone."""
    return bool(_vanishing_verdicts(group, _proper_row(group, sub))[0])


def camina_pair(group: Group, sub: Subgroup) -> bool:
    """Run both checkers; they must agree (their equivalence is a theorem)."""
    a = is_camina_centralizer(group, sub)
    b = is_camina_vanishing(group, sub)
    if a != b:
        raise _disagreement(group, sub.order, sub.class_mask(), a, b)
    return a


def camina_verdicts(group: Group) -> np.ndarray:
    """Is (G, N) a Camina pair, for every N of the normal lattice: one bool
    per row of ``group._normal_lattice()`` (so per entry of
    ``group.normal_subgroups()``), False at N = 1 and N = G.  Both deciders
    run over all proper rows at once; the first row where they disagree
    raises ContractViolation."""
    masks, orders = group._normal_lattice()
    proper = masks[1:-1]  # rows run from N = 1 up to N = G
    a = _centralizer_verdicts(group, proper)
    b = _vanishing_verdicts(group, proper)
    bad = np.flatnonzero(a != b)
    if bad.size:
        i = bad[0]
        raise _disagreement(group, int(orders[i + 1]), proper[i], bool(a[i]), bool(b[i]))
    out = np.zeros(len(orders), dtype=bool)
    out[1:-1] = a
    return out


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


def _failing(group: Group, sub: Subgroup, claim: str):
    """``fail(msg)``: raise TheoremViolation "<claim>: <msg>" with the pair's
    witness."""
    def fail(msg):
        raise TheoremViolation(f"{claim}: {msg}", _pair_witness(group, sub))
    return fail


def _assert_type1(group: Group, sub: Subgroup, p: int, report: PairReport):
    fail = _failing(group, sub, "nilpotent distinct-degree pair must be the 2-group shape")
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
    fail = _failing(group, sub, "Frobenius distinct-degree pair must be the "
                                "sharply transitive shape")
    target = p ** n_exp - 1
    index = group.order // sub.order
    if index != target:
        fail(f"complement order {index} differs from {target}")
    if np.count_nonzero(sub.class_mask()) != 2:
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
    return camina_pair(j_sub.as_group(), sub.within(j_sub))


def _assert_type3(group: Group, sub: Subgroup, p: int, n_exp: int,
                  report: PairReport):
    fail = _failing(group, sub, "residual distinct-degree pair breaks its promised shape")
    if group.center().order != 1:
        fail("center is nontrivial")
    # residual_case, which runs next, checks that (J, N) is a Camina pair.
    j_sub = group.radicals(p).p_residual
    report.evidence["j_order"] = j_sub.order
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
    require_normal(group, sub)
    report = PairReport(
        g_label=group.label,
        g_order=group.order,
        n_elements=tuple(sub.elements.tolist()),
        n_order=sub.order,
    )
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

    fail = _failing(group, sub, "distinct-degree pair misses a promised conclusion")

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


def _is_quaternion8(group: Group) -> bool:
    """Order 8, nonabelian, unique involution."""
    return (
        group.order == 8
        and not group.is_abelian
        and int(np.count_nonzero(group.elt_order == 2)) == 1
    )


def _residual_shape(j_grp: Group, series: IteratedSeries,
                    p: int) -> tuple[str | None, int, int]:
    """(case "ii", "iii" or None, |M:K|, |J:M|) for K = O_p(J) and
    M = O_{p,p'}(J), read inside J as `residual_case` describes."""
    mul, inv, n = j_grp.mul, j_grp.inv, j_grp.order
    k_sub, m_sub = series.o_p, series.o_p_pprime
    k_mask, m_mask = k_sub.member_mask(), m_sub.member_mask()
    middle, top = m_sub.order // k_sub.order, n // m_sub.order
    mod_k = _orders_modulo(mul, k_mask)[m_mask]  # orders in M/K
    if not m_mask[j_grp.derived_subgroup().elements].all():
        return None, middle, top
    if (
        middle % 2 == 1
        and mod_k.max() == middle
        and acts_fixed_point_freely(j_grp, ~m_mask, m_sub, below=k_mask)
    ):
        return "ii", middle, top
    m_els = m_sub.elements
    two = m_els[(mod_k & (mod_k - 1)) == 0]
    odd = m_els[mod_k % 2 == 1]
    if (
        p != 3 or middle % 16 != 8  # |M:K| = 8·odd
        or len(two) != 8 * k_sub.order
        or np.count_nonzero(mod_k == 2) != k_sub.order
        or np.any(mod_k == 8)
        or not k_mask[mul[mul[odd[:, None], two], inv[mul[two, odd[:, None]]]]].all()
        or mod_k[mod_k % 2 == 1].max() != middle // 8
    ):
        return None, middle, top
    comm = mul[mul[mul[:, m_els], inv[:, None]], inv[m_els]]  # [g, y], g ∈ J, y ∈ M
    span = j_grp._closure(np.union1d(k_sub.elements, comm.ravel()))
    return ("iii" if len(span) == m_sub.order else None), middle, top


def residual_case(group: Group, sub: Subgroup) -> dict:
    """Which structural case the p'-residual J of a Camina pair falls into.

    Precondition (verified; returns case 'none' otherwise): (G, N) is a
    Camina pair, N is a p-group, G is solvable; a subgroup of another group
    raises ValueError.  Asserts O_p'(G) = 1 and that (J, N) is again a
    Camina pair, then returns the first matching case with its evidence:

      i.   J is a Sylow p-subgroup of G.
      ii.  O_p(J) = O_p(G), the iterated p,p',p-series K ≤ M ≤ J of J
           reaches J, the middle layer M/K is cyclic of odd order, the top
           J/M is an abelian p-group acting fixed-point-freely on M/K.
      iii. p = 3 with the same radical/series shape, M/K ≅ Q8 × odd cyclic,
           abelian top, and [J, M] covering M/K.

    Cases ii and iii are read inside J, with no quotient group.  M/K is
    cyclic of odd order when |M:K| is odd and some x ∈ M has order |M:K|
    modulo K.  J/M is abelian when J′ ≤ M, and acts fixed-point-freely
    when no x ∈ J ∖ M has [x, y] ∈ K for any y ∈ M ∖ K.  M/K ≅ Q8 × C when
    |M:K| = 8·odd, the x ∈ M of 2-power order modulo K number 8|K| with
    |K| of order 2 and none of order 8 (so they form Q8 modulo K), and
    those of odd order modulo K commute with them modulo K, one having
    order |M:K| / 8.  [J, M] covers M/K when K and every [g, y] (g ∈ J,
    y ∈ M) generate M.

    A Camina pair matching no case raises TheoremViolation; its witness
    carries p and N's element ids (``n_elements``), so
    ``Subgroup(G, witness["n_elements"])`` rebuilds N.
    """
    out: dict = {"case": "none"}
    if sub.parent is not group:
        raise ValueError("subgroup belongs to a different group")
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
    witness = {**_pair_witness(group, sub), "p": p}
    rad = group.radicals(p)
    if rad.o_p_prime.order != 1:
        raise TheoremViolation(
            "a Camina pair over a p-group must have trivial O_p'(G)",
            {**witness, "o_p_prime": rad.o_p_prime.order},
        )
    j_sub = rad.p_residual
    out["j_order"] = j_sub.order
    verdict = _camina_inside(group, j_sub, sub)
    if verdict is None:
        out["j_equals_n"] = True
    elif not verdict:
        raise TheoremViolation(
            "(J, N) must again be a Camina pair",
            {**witness, "j_order": j_sub.order},
        )

    if j_sub.order == p_part(group.order, p):
        out["case"] = "i"
        return out

    j_grp = j_sub.as_group()
    series = j_grp.iterated_series(p)
    # Local ids sort by parent id, so equal subgroups give equal arrays.
    radical_match = bool(np.array_equal(j_sub.to_parent(series.o_p.elements),
                                        rad.o_p.elements))
    series_full = series.o_p_pprime_p.order == j_grp.order
    out["radical_match"] = radical_match
    out["series_full"] = series_full
    if radical_match and series_full:
        case, middle, top = _residual_shape(j_grp, series, p)
        if case is not None:
            out.update(case=case, middle_order=middle, top_order=top)
            return out
    raise TheoremViolation(
        "Camina pair over a p-group matches no residual case",
        {**witness, "j_order": j_sub.order,
         "radical_match": radical_match, "series_full": series_full},
    )


# -- distinct nonlinear degrees scan ---------------------------------------------


def _bucket_extraspecial2(group: Group) -> bool:
    center = group.center()
    derived = group.derived_subgroup()
    # With Z = G′ of order 2, G/Z is elementary abelian: [g², h] = [g, h]² = 1.
    return center.order == 2 and derived.order == 2 and center == derived


def _bucket_frobenius(group: Group):
    """('cyclic'|'quaternion'|None): is G a 2-transitive Frobenius group
    with cyclic complement, or the order-72 quaternion-complement group?"""
    fit = group._fitting()
    if fit.order in (1, group.order):
        return None
    if np.count_nonzero(fit.class_mask()) != 2:
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
