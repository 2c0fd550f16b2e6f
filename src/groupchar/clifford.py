"""Characters above a normal subgroup: invariance, orbits, ramification.

All operations work on exact character tables over a normal subgroup N of
G; one that is not normal raises NotNormal.  Characters of N live on its
materialized standalone group (`Subgroup.as_group()`), whose local ids are
the parent ids in sorted order; `local_ids` and `to_parent` map ids each
way.

One pass per pair (G, N) gives a record for every θ ∈ Irr(N)
(`ramification_report`) or for the invariant θ only
(`ramification_scan_pair`).  It asserts Clifford's theorem on every θ it
reports and, for every invariant θ with pairwise distinct degrees above it
and a supersolvable or odd-order quotient G/N, that exactly one character
of G lies above θ and that its ramification index e satisfies e² = |G:N|;
it also asserts the two-characters-above fact (equal degrees) and, for
fully ramified θ with abelian quotient, the A × A invariant-factor shape of
G/N.  Violations are raised as TheoremViolation, never swallowed.  Facts
about G/N are read inside G: its order |G:N|, G/N abelian as G′ ≤ N, its
chief factors as those of G above N, and its invariant factors from orders
modulo N, so no quotient group is built.  Full ramification is read from
G through the Clifford correspondence, so no stabilizer group is built
either; the route through G(θ) and its own table is the test oracle.
"""

from __future__ import annotations

from collections import Counter
from math import prod

import numpy as np

from ._arith import prime_factors
from .chartable import CharacterTable, compute_table, restriction_multiplicities
from .errors import ContractViolation, NotNormal, TheoremViolation
from .groups import Group, Subgroup

__all__ = [
    "class_fusion",
    "invariant_rows",
    "abelian_invariant_factors",
    "quotient_class",
    "ramification_report",
    "ramification_scan_pair",
]


def class_fusion(group: Group, sub: Subgroup, table_n: CharacterTable):
    """Partition of N's classes into G-conjugation blocks (list of arrays)."""
    if not sub.is_normal:
        raise NotNormal(f"{sub} is not normal in {group.label}")
    members = group.conjugacy_classes().members
    rank = sub.local_ids()
    class_of_n = table_n.classes.class_of
    return [np.unique(class_of_n[rank[members[c]]])
            for c in np.flatnonzero(sub.class_mask())]


def invariant_rows(group: Group, sub: Subgroup, table_n: CharacterTable) -> np.ndarray:
    """Boolean mask over rows of N's table: is θ fixed by G-conjugation?"""
    coeffs = table_n._coeffs
    inv_mask = np.ones(len(table_n.rows), dtype=bool)
    for block in class_fusion(group, sub, table_n):
        if block.size < 2:
            continue
        ref = coeffs[:, block[0], :]
        inv_mask &= np.all(coeffs[:, block, :] == ref[:, None, :], axis=(1, 2))
    return inv_mask


def _row_lookup(table: CharacterTable) -> dict[bytes, int]:
    lut = getattr(table, "_lookup", None)
    if lut is None:
        lut = {table._coeffs[r].tobytes(): r for r in range(len(table.rows))}
        table._lookup = lut
    return lut


def _conjugation_profile(group: Group, sub: Subgroup,
                         table_n: CharacterTable) -> np.ndarray:
    """For each g in G, the induced permutation σ_g of N's classes: σ_g[j]
    is the N-class of g x_j g^{-1}."""
    mul, inv = group.mul, group.inv
    reps_parent = sub.to_parent(table_n.classes.reps)
    conj = mul[mul[:, reps_parent], inv[:, None]]
    return table_n.classes.class_of[sub.local_ids()[conj]]


def abelian_invariant_factors(group: Group, sub: Subgroup) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an abelian quotient G/N, ascending."""
    if not _abelian_over(group, sub):
        raise ValueError("invariant factors require an abelian quotient")
    orders = group._element_orders(sub.member_mask())  # orders in G/N
    factors: list[int] = []  # descending
    for p in prime_factors(group.order // sub.order):
        # The layer {a : a^(p^k) = 1} of G/N, counted as its preimage in G
        # divided by |N|, grows by p^r over the layer below, where r is the
        # number of cyclic p-factors of order at least p^k.
        below, k = 1, 1
        while True:
            size = int(np.count_nonzero(p ** k % orders == 0)) // sub.order
            step, r = size // below, 0
            while step % p == 0:
                step, r = step // p, r + 1
            if step != 1 or size % below:
                raise ContractViolation("p-torsion layer is not a p-power")
            if r == 0:
                break
            factors += [1] * (r - len(factors))
            for j in range(r):
                factors[j] *= p
            below, k = size, k + 1
    if prod(factors) * sub.order != group.order:
        raise ContractViolation("invariant factors do not multiply to the order")
    return factors[::-1]


def _abelian_over(group: Group, sub: Subgroup) -> bool:
    """Is G/N abelian, that is, G′ ≤ N?"""
    return group.derived_subgroup().is_subset_of(sub)


def quotient_class(group: Group, sub: Subgroup) -> str:
    """'supersolvable', else 'odd', else 'other' for G/N (theorem hypotheses)."""
    if not sub.is_normal:
        raise NotNormal(f"{sub} is not normal in {group.label}")
    if group.is_supersolvable(sub):
        return "supersolvable"
    if (group.order // sub.order) % 2:
        return "odd"
    return "other"


def _orbits(group: Group, sub: Subgroup, table_n: CharacterTable) -> np.ndarray:
    """Row masks of the G-orbits on Irr(N), closed under the row permutations
    that the generators of G induce.  Asserts |G(θ)|·|O(θ)| = |G|, counting
    G(θ) over the class permutations of all of G."""
    coeffs = table_n._coeffs
    profile = _conjugation_profile(group, sub, table_n)
    lut = _row_lookup(table_n)
    perms = [
        np.array([lut.get(row.tobytes(), -1)
                  for row in np.ascontiguousarray(coeffs[:, profile[g]])])
        for g in group.generators()
    ]
    if any((perm < 0).any() for perm in perms):
        raise ContractViolation("conjugate character left the table")
    label, prev = np.arange(len(coeffs)), None  # label: least row of the orbit
    while not np.array_equal(label, prev):
        prev = label.copy()
        for perm in perms:
            np.minimum(label, label[perm], out=label)
    orbits = label[:, None] == label[None, :]
    sigmas, counts = np.unique(profile, axis=0, return_counts=True)
    stab = sum(c * np.all(coeffs[:, s] == coeffs, axis=(1, 2))
               for s, c in zip(sigmas, counts))
    if not np.all(stab * orbits.sum(axis=1) == group.order):
        raise ContractViolation("orbit size does not match stabilizer index")
    return orbits


def _check_clifford(table_g: CharacterTable, table_n: CharacterTable,
                    mults: np.ndarray, rows: np.ndarray, orbits: np.ndarray):
    """Clifford's theorem on the rows θ of N's table, with ``orbits[i]`` the
    orbit of θ = rows[i]: every χ above θ restricts to e·Σ_{θ' ∈ O(θ)} θ',
    every θ' has degree θ(1), and χ(1) = e·|O(θ)|·θ(1)."""
    chi, i = np.nonzero(mults[:, rows])
    e, above = mults[chi, rows[i]], mults[chi]
    if not np.array_equal(above > 0, orbits[i]):
        raise ContractViolation("restriction support is not the orbit of θ")
    if not np.all((above == e[:, None]) | (above == 0)):
        raise ContractViolation("Clifford multiplicities are not homogeneous")
    theta_deg = table_n.degrees[rows]
    if np.any(orbits & (table_n.degrees != theta_deg[:, None])):
        raise ContractViolation("orbit members have unequal degrees")
    if not np.array_equal(table_g.degrees[chi],
                          e * orbits.sum(axis=1)[i] * theta_deg[i]):
        raise ContractViolation("degree bookkeeping fails for Irr(G|θ)")


def _assert_invariant_theorems(group: Group, sub: Subgroup, rec: dict):
    """The theorem assertions for the record of one invariant θ."""
    count, degs, qclass = rec["count_above"], rec["degrees_above"], rec["quotient_class"]
    witness = {"group": group.label, "n_order": sub.order, "theta": rec["theta"]}
    if (rec["distinct_degrees"] and qclass in ("supersolvable", "odd")
            and not rec["fully_ramified"]):
        raise TheoremViolation(
            "distinct degrees above an invariant character with a "
            "supersolvable-or-odd quotient must be fully ramified",
            {**witness, "count_above": count, "degrees_above": degs,
             "quotient": qclass},
        )
    if count == 2 and degs[0] != degs[1]:
        raise TheoremViolation(
            "exactly two characters above an invariant character must share a degree",
            {**witness, "degrees_above": degs},
        )
    if rec["fully_ramified"] and rec["quotient_abelian"]:
        factors = abelian_invariant_factors(group, sub)
        if any(v % 2 for v in Counter(factors).values()):
            raise TheoremViolation(
                "fully ramified over an abelian quotient requires the "
                "A x A invariant-factor shape",
                {**witness, "invariant_factors": factors},
            )


def _ramification_pass(group: Group, sub: Subgroup, every_row: bool) -> list[dict]:
    """One pass over (G, N): a record for every θ ∈ Irr(N), or with
    ``every_row`` false for the invariant θ only, which needs no orbit work.

    θ is fully ramified in its stabilizer G(θ) exactly when one χ lies above
    it and e²·|O(θ)| = |G:N|: induction from G(θ) is a bijection
    Irr(G(θ)|θ) → Irr(G|θ) that keeps e, and |G(θ):N| = |G:N|/|O(θ)|
    (Isaacs, *Character Theory of Finite Groups*, 6.11)."""
    table_g = compute_table(group)
    table_n = compute_table(sub.as_group())
    inv_mask = invariant_rows(group, sub, table_n)
    mults = restriction_multiplicities(table_g, sub, table_n)
    qclass = quotient_class(group, sub)
    q_abelian = _abelian_over(group, sub)
    if every_row:
        rows = np.arange(len(inv_mask))
        orbits = _orbits(group, sub, table_n)
        if not np.array_equal(orbits.sum(axis=1) == 1, inv_mask):
            raise ContractViolation("invariant rows are not the singleton orbits")
    else:
        rows = np.flatnonzero(inv_mask)
        orbits = np.eye(len(inv_mask), dtype=bool)[rows]  # O(θ) = {θ}
    _check_clifford(table_g, table_n, mults, rows, orbits)
    index = group.order // sub.order
    records = []
    for t, size in zip(rows.tolist(), orbits.sum(axis=1).tolist()):
        above = np.flatnonzero(mults[:, t])
        degs = table_g.degrees[above].tolist()
        e_val = int(mults[above[0], t]) if len(above) == 1 else None
        rec = {
            "theta": t,
            "theta_degree": int(table_n.degrees[t]),
            "invariant": bool(inv_mask[t]),
            "count_above": len(above),
            "degrees_above": degs,
            "distinct_degrees": len(set(degs)) == len(degs),
            "fully_ramified": e_val is not None and e_val * e_val * size == index,
            "e": e_val,
            "quotient_class": qclass,
            "quotient_abelian": q_abelian,
        }
        if rec["invariant"]:
            _assert_invariant_theorems(group, sub, rec)
        records.append(rec)
    return records


def ramification_scan_pair(group: Group, sub: Subgroup) -> list[dict]:
    """The records of the invariant θ from one pass over (G, N), with the
    theorem assertions applied; see the module doc."""
    return _ramification_pass(group, sub, every_row=False)


def ramification_report(group: Group, sub: Subgroup) -> list[dict]:
    """The records of every θ ∈ Irr(N), indexed by row, from one pass over
    (G, N); the invariant ones are ``ramification_scan_pair``'s.  Orbits
    come from the generators of G and full ramification from the Clifford
    correspondence, so no stabilizer group is built."""
    return _ramification_pass(group, sub, every_row=True)
