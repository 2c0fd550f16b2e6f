"""The shipped verification corpus and its batch runner.

The corpus is a fixed list of small groups: every abelian group of order
at most 32, the dihedral and generalized-quaternion families up to order
64, the extraspecial 2-groups of order up to 128, the one-dimensional
affine groups AGL(1, q) for selected prime powers, the order-72 Frobenius
group with quaternion complement, a handful of named groups, and assorted
semidirect and direct products.  Entries are not deduplicated up to
isomorphism; some families intentionally overlap.

``run_corpus`` rebuilds every entry from scratch, verifies its character
table, runs both Camina checkers over every proper nontrivial normal
subgroup at once (`pairs.camina_verdicts`, over the class-mask matrix of
the normal lattice), classifies every minimal normal subgroup, runs the
distinct-degree scan on nonabelian entries, and compares any frozen
expected verdicts.  The output is a deterministic line-oriented report;
any failed invariant raises and aborts the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ._arith import divisors
from .errors import ContractViolation, UsageError
from .groups import Group
from .chartable import compute_table, verify_table
from .pairs import camina_verdicts, classify_pair, distinct_nonlinear_scan
from .constructors import (
    _cyclic_extension,
    abelian,
    agl1,
    alt,
    automorphism_from_images,
    c5c5_c3,
    c7_c3,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_2,
    frobenius72_quaternion,
    generalized_quaternion,
    sl23,
    sym,
)
from .reporting import Report, format_value

__all__ = ["CorpusEntry", "build_corpus", "run_corpus"]


# --------------------------------------------------------------------------
# enumerating the abelian groups of order <= 32


def _abelian_variants(n: int, step: int = 1) -> list[tuple[int, ...]]:
    """Invariant-factor lists (ascending divisor chains) of all abelian
    groups of order n whose factors are multiples of ``step``, sorted: a
    least factor d > 1, then the chains of n / d in multiples of d."""
    if n == 1:
        return [()]
    return sorted((d, *rest) for d in divisors(n) if d > 1 and d % step == 0
                  for rest in _abelian_variants(n // d, d))


# --------------------------------------------------------------------------
# assorted semidirect products


def dicyclic12() -> Group:
    """The dicyclic group of order 12: C3 semidirect C4, C4 inverting C3."""
    return _cyclic_extension(cyclic(3), 4, (0, 2, 1), "C3:C4")


def c5_c4() -> Group:
    """The Frobenius group of order 20: C4 acting faithfully on C5."""
    return _cyclic_extension(cyclic(5), 4, [2 * x % 5 for x in range(5)], "C5:C4")


def heisenberg3() -> Group:
    """The extraspecial group of order 27 and exponent 3 as (C3 x C3)
    semidirect C3 via the unipotent map (i, j) -> (i, i + j)."""
    a = abelian([3, 3])
    auto = automorphism_from_images(a, [3, 1], [4, 1])
    return _cyclic_extension(a, 3, auto, "C3xC3:C3")


# --------------------------------------------------------------------------
# the fixed entry list


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus member: display name, builder, optional frozen verdicts.

    ``expected`` may freeze any of: ``types`` (sorted classifier types over
    the minimal normal subgroups), ``bucket`` and ``distinct`` (from the
    distinct-degree scan).  Absent keys are computed but not pinned.
    """

    name: str
    build: Callable[[], Group]
    expected: dict = field(default_factory=dict)


_TYPE1 = {"types": ["Type1"], "bucket": "extraspecial-2", "distinct": True}
_TYPE2 = {"types": ["Type2"], "bucket": "frobenius-cyclic", "distinct": True}


def build_corpus() -> list[CorpusEntry]:
    """The fixed corpus list, in a fixed order."""
    entries: list[CorpusEntry] = []

    for n in range(1, 33):
        for invs in _abelian_variants(n):
            name = "C1" if not invs else "x".join(f"C{d}" for d in invs)
            entries.append(CorpusEntry(name, partial(abelian, invs or [1])))

    for n in range(3, 33):
        if n == 3:
            expected = dict(_TYPE2)
        elif n == 4:
            expected = dict(_TYPE1)
        else:
            expected = {"distinct": False, "bucket": "none"}
        entries.append(CorpusEntry(f"D{2 * n}", partial(dihedral, n), expected))

    for order in (8, 16, 32, 64):
        expected = dict(_TYPE1) if order == 8 else {"distinct": False, "bucket": "none"}
        entries.append(
            CorpusEntry(f"Q{order}", partial(generalized_quaternion, order), expected)
        )

    for m in (1, 2, 3):
        for sign in ("+", "-"):
            entries.append(
                CorpusEntry(
                    f"ES{2 ** (2 * m + 1)}{sign}",
                    partial(extraspecial_2, m, sign),
                    dict(_TYPE1),
                )
            )

    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
        entries.append(CorpusEntry(f"AGL1({q})", partial(agl1, q), dict(_TYPE2)))

    entries.append(
        CorpusEntry(
            "F72:Q8",
            frobenius72_quaternion,
            {"types": ["Type2"], "bucket": "frobenius72-quaternion", "distinct": True},
        )
    )

    not_d = {"types": ["NotD"], "bucket": "none", "distinct": False}
    entries.append(CorpusEntry("S3", partial(sym, 3), dict(_TYPE2)))
    entries.append(CorpusEntry("S4", partial(sym, 4), dict(not_d)))
    entries.append(CorpusEntry("A4", partial(alt, 4), dict(_TYPE2)))
    entries.append(CorpusEntry("SL(2,3)", sl23, dict(not_d)))
    entries.append(CorpusEntry("C7:C3", c7_c3, dict(not_d)))
    entries.append(CorpusEntry("(C5xC5):C3", c5c5_c3, dict(not_d)))
    entries.append(
        CorpusEntry(
            "Q8xC3",
            lambda: direct_product(generalized_quaternion(8), cyclic(3)),
            dict(not_d),
        )
    )
    entries.append(
        CorpusEntry(
            "D8xC3", lambda: direct_product(dihedral(4), cyclic(3)), dict(not_d)
        )
    )
    entries.append(CorpusEntry("Dic3", dicyclic12, dict(not_d)))
    entries.append(CorpusEntry("C5:C4", c5_c4, dict(_TYPE2)))
    entries.append(CorpusEntry("He3", heisenberg3, dict(not_d)))

    return entries


# --------------------------------------------------------------------------
# the batch runner


def _check_expected(entry: CorpusEntry, computed: dict) -> None:
    for key, want in sorted(entry.expected.items()):
        got = computed.get(key)
        if got != want:
            raise ContractViolation(
                f"corpus entry {entry.name}: expected {key} = {want!r}, got {got!r}"
            )


def run_corpus(name_filter: str | None = None) -> str:
    """Run every check over the corpus and return the report text.

    Raises TheoremViolation / ContractViolation on any failed invariant.
    """
    entries = build_corpus()
    if name_filter is not None:
        entries = [e for e in entries if name_filter in e.name]
        if not entries:
            raise UsageError(f"no corpus entry matches {name_filter!r}")

    rep = Report()
    rep.add("corpus-entries", len(entries))
    normal_pairs = 0
    camina_pairs = 0
    pairs_classified = 0
    type3 = 0

    for entry in entries:
        group = entry.build()
        table = compute_table(group)
        verify_table(table)

        rep.blank()
        rep.add("group", entry.name)
        rep.add("order", group.order)
        rep.add("exponent", group.exponent)
        rep.add("classes", len(table))
        rep.add("degrees", Counter(table.degrees.tolist()))
        rep.add("table-ok", True)

        _, orders = group._normal_lattice()
        proper = len(orders[1:-1])  # rows run from N = 1 up to N = G
        camina_orders = orders[camina_verdicts(group)].tolist()  # rows sort by order
        normal_pairs += proper
        camina_pairs += len(camina_orders)
        rep.add("proper-normals", proper)
        rep.add("camina-orders", camina_orders)

        computed: dict = {}
        types = []
        for sub in group.minimal_normal_subgroups():
            pr = classify_pair(group, sub)
            pairs_classified += 1
            types.append(pr.type)
            if pr.type == "Type3":
                type3 += 1
            rep.raw(
                f"pair = n-order {sub.order} property-D "
                f"{format_value(pr.property_D)} type {pr.type} "
                f"case {pr.residual_case or '-'}"
            )
        computed["types"] = sorted(set(types))

        if not group.is_abelian:
            scan = distinct_nonlinear_scan(group)
            computed["distinct"] = scan["distinct"]
            computed["bucket"] = scan["bucket"] or "none"
            rep.add("scan-distinct", scan["distinct"])
            rep.add("scan-bucket", scan["bucket"] or "none")

        if entry.expected:
            _check_expected(entry, computed)
            rep.add("expected-ok", True)

    rep.blank()
    rep.add("groups-checked", len(entries))
    rep.add("normal-pairs", normal_pairs)
    rep.add("camina-pairs", camina_pairs)
    rep.add("pairs-classified", pairs_classified)
    rep.add("type3-witnesses", type3)
    return rep.render()
