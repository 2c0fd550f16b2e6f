"""Library surface that no pipeline path uses, kept for the tests.

No CLI command, corpus check or benchmark workload reaches these, so they
live here rather than in ``groupchar``, built on its private helpers:

* `full_subgroup(G)`, G as a normal subgroup of itself, and
  `generated_subgroup(G, gens)`, the closure of ``gens``;
* the Clifford extension helpers: `conjugate_character`, `extensions_of`,
  `section_centralizer` and `extension_alternative`;
* `property_d_monotone`, property (D) descending along normal chains.
"""

from __future__ import annotations

import numpy as np

from groupchar.chartable import Character, compute_table, restriction_multiplicities
from groupchar.clifford import (
    _abelian_over,
    _conjugation_profile,
    _row_lookup,
    invariant_rows,
)
from groupchar.errors import ContractViolation, TheoremViolation
from groupchar.groups import Group, Subgroup
from groupchar.pairs import has_property_D


def generated_subgroup(group: Group, gens) -> Subgroup:
    return Subgroup(group, group._closure(np.asarray(list(gens), dtype=np.int64)))


def full_subgroup(group: Group) -> Subgroup:
    return Subgroup(group, np.arange(group.order), normal=True)


def conjugate_character(theta: Character, g: int, sub: Subgroup) -> Character:
    """θ^g with θ^g(x) = θ(g x g^{-1}); again a row of N's table."""
    table_n = theta.table
    sigma = _conjugation_profile(sub.parent, sub, table_n)[g]
    new_coeffs = table_n._coeffs[theta.index][sigma]
    idx = _row_lookup(table_n).get(np.ascontiguousarray(new_coeffs).tobytes())
    if idx is None:
        raise ContractViolation("conjugate character is not a table row")
    return table_n.rows[idx]


def extensions_of(theta: Character, sub_n: Subgroup, sub_m: Subgroup):
    """Rows of M's table restricting exactly to θ (N ≤ M, θ M-invariant).

    When M/N is abelian and θ is linear, a nonzero count must equal |M:N|
    (Gallagher); that count is asserted.
    """
    n_in_m = sub_n.within(sub_m)  # ValueError unless N ≤ M
    m_group = n_in_m.parent
    table_m = compute_table(m_group)
    table_n = theta.table
    if not bool(invariant_rows(m_group, n_in_m, table_n)[theta.index]):
        raise ValueError("character is not invariant in M")
    mults = restriction_multiplicities(table_m, n_in_m, table_n)
    exts = [
        table_m.rows[r]
        for r in np.nonzero(mults[:, theta.index])[0]
        if table_m.rows[r].degree == theta.degree
    ]
    index = m_group.order // n_in_m.order
    if theta.degree == 1 and exts and _abelian_over(m_group, n_in_m):
        if len(exts) != index:
            raise ContractViolation(
                f"extension count {len(exts)} differs from |M:N| = {index}"
            )
    return exts


def section_centralizer(group: Group, sub_m: Subgroup, sub_n: Subgroup) -> Subgroup:
    """C_G(M/N) = {g : [g, m] ∈ N for all m ∈ M}."""
    mul, inv = group.mul, group.inv
    m_els = sub_m.elements
    gm = mul[:, m_els]
    gmg = mul[gm, inv[:, None]]
    comm = mul[gmg, inv[m_els][None, :]]
    ok = sub_n.member_mask()[comm].all(axis=1)
    return Subgroup(group, np.nonzero(ok)[0])


def extension_alternative(group: Group, sub_n: Subgroup, sub_m: Subgroup,
                          theta: Character) -> dict:
    """For N ◁ M ◁ G (M normal in G) and θ invariant and extendible to M:
    either some extension of θ is G-invariant, or C_G(M/N) permutes the
    extensions transitively.  Returns the verdict; raises TheoremViolation
    if both branches fail."""
    if not sub_m.is_normal:
        raise ValueError("M must be normal in G for conjugation to act")
    exts = extensions_of(theta, sub_n, sub_m)
    if not exts:
        return {"extendible": False, "invariant_extension": None, "transitive": None}
    m_group = sub_m.as_group()
    table_m = compute_table(m_group)
    inv_m = invariant_rows(group, sub_m, table_m)
    ext_rows = {phi.index for phi in exts}
    if any(inv_m[i] for i in ext_rows):
        return {"extendible": True, "invariant_extension": True, "transitive": None}
    cent = section_centralizer(group, sub_m, sub_n)
    orbit = set()
    first = exts[0]
    for c in cent.elements.tolist():
        orbit.add(conjugate_character(first, c, sub_m).index)
    transitive = ext_rows <= orbit
    if not transitive:
        raise TheoremViolation(
            "no G-invariant extension and C_G(M/N) not transitive on extensions",
            {"group": group.label, "m_order": sub_m.order, "n_order": sub_n.order,
             "theta": theta.index, "extensions": sorted(ext_rows),
             "centralizer_orbit": sorted(orbit)},
        )
    return {"extendible": True, "invariant_extension": False, "transitive": True}


def property_d_monotone(group: Group) -> int:
    """Assert D(G, M) ⇒ D(G, N) for every normal chain N ≤ M; returns the
    number of ordered chains checked."""
    normals = group.normal_subgroups()
    d = np.array([has_property_D(group, sub) for sub in normals])
    m = np.array([sub.class_mask() for sub in normals], dtype=np.int64)
    below = m @ (1 - m).T == 0  # below[i, j]: N_i ≤ N_j
    bad = np.argwhere(below & ~d[:, None] & d[None, :])
    if len(bad):
        small, big = normals[bad[0][0]], normals[bad[0][1]]
        raise TheoremViolation(
            "property (D) fails to descend to a smaller normal subgroup",
            {"group": group.label, "n_order": small.order, "m_order": big.order},
        )
    return int(below.sum())
