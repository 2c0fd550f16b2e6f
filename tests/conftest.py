"""Session-scoped fixtures shared across the suite.

The corpus is built once; character tables cache on the group objects, so
later fixtures are cheap.  The triple-scan fixture runs the invariant-
character assertions over every (G, N) pair in the corpus and keeps the
records for the acceptance criteria that quantify over triples.

These groups live for the whole session, so ``compute_table`` on any
isomorphic group a later test builds is transported from one of them, not
built.  A test that must exercise the split calls ``chartable._build_table``
directly or takes the ``empty_table_pool`` fixture.
The last two fixtures are groups outside the corpus with the shapes of
residual cases ii and iii of the pair classifier.  ``request_inputs`` is
``perfbench/inputs.py``, the generator of the ``requests`` workload's group
files, loaded by path.
"""

from __future__ import annotations

import importlib.util
import weakref
from pathlib import Path

import numpy as np
import pytest

from groupchar import chartable
from groupchar.chartable import compute_table
from groupchar.clifford import ramification_scan_pair
from groupchar.constructors import (
    automorphism_from_images,
    cyclic,
    direct_product,
    generalized_quaternion,
    semidirect_product,
)
from groupchar.corpus import build_corpus
from groupchar.gf import gf_field
from groupchar.groups import Group


@pytest.fixture(scope="session")
def corpus_groups():
    return {entry.name: entry.build() for entry in build_corpus()}


@pytest.fixture
def empty_table_pool(monkeypatch):
    """Both of ``compute_table``'s weak maps emptied for one test, so no table
    met before serves it; the session's maps come back afterwards."""
    for name in ("_SAME_TABLE", "_BUILT_TABLE"):
        monkeypatch.setattr(chartable, name, weakref.WeakValueDictionary())


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


@pytest.fixture(scope="session")
def request_inputs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def q8c7_by_c3():
    """(Q8 × C7) ⋊ C3 of order 168, C3 cycling i → j → k on Q8 and acting
    by x → 2x on C7: with p = 3 it has the case-iii shape, middle layer
    Q8 × C7 of order 56 and top C3."""
    q8 = generalized_quaternion(8)
    sigma = automorphism_from_images(q8, [1, 4], [4, 5])  # a -> b, b -> ab
    base = direct_product(q8, cyclic(7))  # ids 7a + c
    t = tuple(sigma[x // 7] * 7 + 2 * x % 7 for x in range(base.order))
    t2 = tuple(t[x] for x in t)
    return semidirect_product(base, cyclic(3), [tuple(range(base.order)), t, t2])


@pytest.fixture(scope="session")
def f16_by_dic3():
    """F_16 ⋊ ⟨x ↦ ω⁵x, x ↦ ωx²⟩ inside AΓL(1, 16), of order 192, with ω
    the primitive element of id 2 in ``gf_field(16)``: the translations
    extended by Dic3 = C3 ⋊ C4, whose C3 = F_4^× is inverted by x ↦ ωx².
    With its minimal normal subgroup of order 4 it is a Camina pair in
    residual case ii."""
    f = gf_field(16)
    xs = np.arange(16)
    omega5 = 1
    for _ in range(5):
        omega5 = f.mul[omega5, 2]
    gens = [f.add[xs, 1], f.mul[omega5, xs], f.mul[2, f.mul[xs, xs]]]
    maps, frontier, seen = [xs], [xs], {xs.tobytes()}
    while frontier:
        fresh = [g[s] for s in frontier for g in gens]
        frontier = []
        for t in fresh:
            if t.tobytes() not in seen:
                seen.add(t.tobytes())
                maps.append(t)
                frontier.append(t)
    ids = {m.tobytes(): i for i, m in enumerate(maps)}
    return Group([[ids[x[y].tobytes()] for y in maps] for x in maps],
                 label="F16:Dic3")
