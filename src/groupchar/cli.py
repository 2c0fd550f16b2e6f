"""Command-line surface.

Subcommands: ``info`` and ``table`` inspect a group file, ``analyze`` walks
Irr(N) for a normal subgroup, ``classify`` runs the pair classifier,
``corpus`` runs the shipped verification corpus (the CI entry point), and
``orbits`` checks a matrix action on a finite vector space.  Every input
file, group or generator matrices, is read by `groupio`; this module holds
no file parsing.

All reports are line-oriented ``key = value`` text with a
``report-version = 1`` first line.  Exit codes: 0 all assertions passed,
1 a usage or input error (a bad argument, a missing or malformed file), 2
a theorem or frozen-regression assertion failed, an internal consistency
check (``ContractViolation``, ``SplitFailure``) did, or the library raised
any other ``ValueError``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .errors import (
    ContractViolation,
    GroupCharError,
    SplitFailure,
    TheoremViolation,
    UsageError,
)
from .groups import Group, Subgroup
from .groupio import _read_matrices, load_group
from .chartable import compute_table, verify_table
from .cyclotomic import _format_value
from .clifford import ramification_report
from .pairs import classify_pair
from .corpus import run_corpus
from .actions import (
    LinearAction,
    dade_duplicate_check,
    distinct_sizes_scan,
    is_transitive_nonzero,
    negation_pairing,
    orbit_sizes,
    regular_orbit_count,
)
from .reporting import Report

__all__ = ["main"]

USAGE_ERROR = 1
VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the report contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _parse_ids(spec: str, order: int) -> list[int]:
    tokens = [t for t in re.split(r"[,\s]+", spec.strip()) if t]
    if not tokens or not all(re.fullmatch("[0-9]+", t) and int(t) < order for t in tokens):
        raise UsageError(f"--normal {spec!r} is not a list of element ids 0..{order - 1}")
    return [int(t) for t in tokens]


def _resolve_normals(group: Group, spec: str) -> list[Subgroup]:
    """A literal ``auto-minimal`` or an explicit element-id list."""
    if spec == "auto-minimal":
        return group.minimal_normal_subgroups()
    ids = _parse_ids(spec, group.order)
    try:
        sub = group.subgroup(ids)
    except ValueError as exc:
        raise UsageError(f"--normal: {exc}") from None
    if not sub.is_normal:
        raise UsageError("the given elements generate a non-normal subgroup")
    return [sub]


# --------------------------------------------------------------------------
# subcommands


def _cmd_info(args) -> str:
    group = load_group(args.file)
    cc = group.conjugacy_classes()
    rep = Report()
    rep.add("group", group.label)
    rep.add("order", group.order)
    rep.add("exponent", group.exponent)
    rep.add("classes", len(cc.reps))
    rep.add("class-sizes", sorted(cc.sizes.tolist()))
    rep.add("abelian", group.is_abelian)
    rep.add("cyclic", group.is_cyclic)
    rep.add("nilpotent", group.is_nilpotent())
    rep.add("supersolvable", group.is_supersolvable())
    rep.add("solvable", group.is_solvable())
    rep.add("center-order", group.center().order)
    rep.add("minimal-normal-orders",
            sorted(s.order for s in group.minimal_normal_subgroups()))
    return rep.render()


def _cmd_table(args) -> str:
    group = load_group(args.file)
    table = compute_table(group)
    verify_table(table)
    rep = Report()
    reps = " ".join(str(r) for r in table.classes.reps)
    sizes = " ".join(str(s) for s in table.classes.sizes)
    rep.raw(f"classes: {reps} sizes: {sizes}")
    # Values straight from the coefficient array, as Cyclotomic prints them.
    for degree, row in zip(table.degrees.tolist(), table._coeffs.tolist()):
        values = ", ".join(_format_value(table.conductor, value) for value in row)
        rep.raw(f"deg={degree} values={values}")
    return rep.render()


def _cmd_analyze(args) -> str:
    group = load_group(args.pair)
    rep = Report()
    rep.add("group", group.label)
    rep.add("order", group.order)
    for sub in _resolve_normals(group, args.normal):
        rep.blank()
        rep.add("normal", sub.elements.tolist())
        rep.add("normal-order", sub.order)
        for rec in ramification_report(group, sub):
            rep.blank()
            rep.add("theta", rec["theta"])
            rep.add("theta-degree", rec["theta_degree"])
            rep.add("invariant", rec["invariant"])
            rep.add("distinct-degrees", rec["distinct_degrees"])
            rep.add("count-above", rec["count_above"])
            rep.add("degrees-above", rec["degrees_above"])
            rep.add("fully-ramified", rec["fully_ramified"])
            rep.add("e", rec["e"])
            rep.add("quotient-class", rec["quotient_class"])
    return rep.render()


def _cmd_classify(args) -> str:
    group = load_group(args.file)
    rep = Report()
    rep.add("group", group.label)
    rep.add("order", group.order)
    for sub in _resolve_normals(group, args.normal):
        pr = classify_pair(group, sub)
        rep.blank()
        rep.add("normal", sub.elements.tolist())
        rep.add("normal-order", sub.order)
        rep.add("p", pr.p)
        rep.add("n-exponent", pr.n_exp)
        rep.add("property-D", pr.property_D)
        rep.add("camina-centralizer", pr.camina_centralizer)
        rep.add("camina-vanishing", pr.camina_vanishing)
        rep.add("unique-minimal-normal", pr.unique_minimal_normal)
        rep.add("o-p-prime-trivial", pr.o_p_prime_trivial)
        rep.add("pprime-fixed-point-free", pr.pprime_fpf)
        rep.add("type", pr.type)
        rep.add("case", pr.residual_case)
        rep.add("evidence", pr.evidence)
    return rep.render()


def _cmd_corpus(args) -> str:
    return run_corpus(args.filter)


def _cmd_orbits(args) -> str:
    mats = _read_matrices(args.gens, args.dim)
    action = LinearAction(args.prime, args.dim, mats)
    rep = Report()
    rep.add("prime", args.prime)
    rep.add("dim", args.dim)
    rep.add("generators", len(mats))
    rep.add("group-order", action.group_order)
    rep.add("orbit-sizes", orbit_sizes(action))
    rep.add("transitive-nonzero", is_transitive_nonzero(action))
    rep.add("regular-orbits", regular_orbit_count(action))
    rep.add("negation-pairing",
            negation_pairing(action) if args.prime != 2 else None)
    odd_odd = args.prime != 2 and action.group_order % 2 == 1
    rep.add("dade-duplicate",
            dade_duplicate_check(action) if odd_odd else None)
    scan = distinct_sizes_scan(action)
    rep.add("scan-char-odd", scan["char_odd"])
    rep.add("scan-order-odd", scan["order_odd"])
    rep.add("scan-irreducible", scan["irreducible"])
    rep.add("scan-distinct", scan["distinct"])
    rep.add("scan-transitive", scan["transitive"])
    rep.add("scan-asserted", scan["asserted"])
    return rep.render()


# --------------------------------------------------------------------------
# wiring


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="groupchar",
        description="Exact character tables and structural checks "
                    "for small finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structural summary of a group file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("table", help="print the exact character table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "analyze",
        help="ramification report for every character of a normal subgroup",
    )
    p.add_argument("--pair", required=True, metavar="FILE")
    p.add_argument("--normal", required=True,
                   metavar="IDS|auto-minimal")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="run the pair classifier")
    p.add_argument("file")
    p.add_argument("--normal", default="auto-minimal", metavar="IDS|auto-minimal")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("corpus", help="run the shipped verification corpus")
    p.add_argument("--filter", metavar="NAME")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("orbits", help="orbit checks for a matrix action")
    p.add_argument("--prime", required=True, type=int)
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--gens", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_orbits)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except (TheoremViolation, ContractViolation, SplitFailure) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return VIOLATION
    except (GroupCharError, OSError, UnicodeDecodeError) as exc:  # input files are ASCII
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return VIOLATION
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
