"""Session-scoped fixtures shared across the suite.

The corpus is built once; character tables cache on the group objects, so
later fixtures are cheap.  The triple-scan fixture runs the invariant-
character assertions over every (G, N) pair in the corpus and keeps the
records for the acceptance criteria that quantify over triples.

These groups live for the whole session, so ``compute_table`` on any
isomorphic group a later test builds is transported from one of them, not
built.  A test that must exercise the split calls ``chartable._build_table``
directly or empties the pool (``chartable._TABLE_POOL``) by monkeypatch.
"""

from __future__ import annotations

import pytest

from groupchar.chartable import compute_table
from groupchar.clifford import ramification_scan_pair
from groupchar.corpus import build_corpus


@pytest.fixture(scope="session")
def corpus_groups():
    return {entry.name: entry.build() for entry in build_corpus()}


@pytest.fixture(scope="session")
def corpus_tables(corpus_groups):
    return {name: compute_table(g) for name, g in corpus_groups.items()}


@pytest.fixture(scope="session")
def proper_normal_pairs(corpus_groups):
    """Every (name, G, N) with N a proper nontrivial normal subgroup."""
    pairs = []
    for name, group in corpus_groups.items():
        for sub in group.normal_subgroups():
            if 1 < sub.order < group.order:
                pairs.append((name, group, sub))
    return pairs


@pytest.fixture(scope="session")
def triple_records(proper_normal_pairs):
    """Invariant-theta records for every corpus pair.

    ramification_scan_pair raises TheoremViolation on any failed invariant,
    so merely building this fixture is the zero-violation check.
    """
    records = []
    for name, group, sub in proper_normal_pairs:
        for rec in ramification_scan_pair(group, sub):
            records.append((name, group, sub, rec))
    return records
