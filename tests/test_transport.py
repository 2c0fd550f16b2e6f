"""Tables transported along an isomorphism against tables built by the
split, tables served to a byte-equal Cayley table, the isomorphism search
on a key collision, the weak maps' lifetime, the table counters, and the
one generator chain that the search, ``Group.generators()`` and the
constructors walk."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import sys
import threading

import numpy as np
import pytest

from groupchar import (
    Group,
    TheoremViolation,
    agl1,
    build_corpus,
    c7_c3,
    compute_table,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_2,
    generalized_quaternion,
    ramification_scan_pair,
    semidirect_product,
    sym,
)
import groupchar.chartable as chartable
import groupchar.clifford as clifford
import groupchar.constructors as constructors
import groupchar.groups as groups
from groupchar.chartable import _build_table
from groupchar.groups import _memo

import oracles


def relabel(group: Group, seed: int) -> Group:
    """``group`` on its ids permuted by a seeded permutation that fixes 0."""
    rng = np.random.default_rng(seed)
    sigma = np.concatenate([[0], 1 + rng.permutation(group.order - 1)])
    mul = np.empty_like(group.mul)
    mul[sigma[:, None], sigma[None, :]] = sigma[group.mul]
    return Group(mul, label=f"{group.label}~{seed}")


def route_differences(group: Group, got=None) -> list[str]:
    """The fields on which ``got`` (by default ``compute_table(group)``) and
    ``_build_table(group)`` differ."""
    got, want = compute_table(group) if got is None else got, _build_table(group)
    fields = ("_coeffs", "_modq", "_kernel_mask", "degrees")
    out = [f for f in fields if not np.array_equal(getattr(got, f), getattr(want, f))]
    out += [f for f in ("prime", "root", "conductor")
            if getattr(got, f) != getattr(want, f)]
    return out


@pytest.fixture(scope="module")
def type_representatives(corpus_groups, triple_records):
    """One group per isomorphism key met among the corpus groups and their
    proper normal subgroups, and every distinct subgroup Cayley table; all
    of them hold a table after the triple scan."""
    types, tables = {}, {}
    for group in corpus_groups.values():
        types.setdefault(chartable._isomorphism_key(group), group)
        for sub in group.normal_subgroups():
            if 1 < sub.order < group.order:
                h = sub.as_group()
                types.setdefault(chartable._isomorphism_key(h), h)
                tables.setdefault(h.mul.tobytes(), h)
    return list(types.values()), list(tables.values())


def _transported_cases(groups, seed):
    """(relabelled copy, its table transported from the original's table)
    for each of ``groups``, along a map the search must find."""
    cases = []
    for i, g in enumerate(groups):
        h = relabel(g, seed + i)
        phi = chartable._find_isomorphism(h, g)
        assert phi is not None, h.label
        cases.append((h, chartable._transport(h, compute_table(g), phi)))
    return cases


def test_transport_matches_build_on_every_type(type_representatives):
    types, _ = type_representatives
    assert len(types) >= 100
    for h, table in _transported_cases(types, seed=1000):
        assert route_differences(h, table) == [], h.label


def test_transport_matches_build_on_sampled_tables(type_representatives):
    _, tables = type_representatives
    rng = np.random.default_rng(20221)
    sample = [tables[i] for i in sorted(rng.choice(len(tables), 60, replace=False))]
    for h, table in _transported_cases(sample, seed=5000):
        assert route_differences(h, table) == [], h.label


def test_identity_gather_fails_the_two_routes(type_representatives, monkeypatch):
    """Mutation check: columns taken in the source's own class order, not
    through the isomorphism, must be caught by the comparison above."""
    types, _ = type_representatives
    monkeypatch.setattr(chartable, "_image_classes",
                        lambda h, s, phi: np.arange(len(h.conjugacy_classes())))
    cases = _transported_cases(types, seed=9000)
    assert sum(bool(route_differences(h, table)) for h, table in cases) > len(cases) // 2


def test_key_collision_is_rejected_and_both_are_built(empty_table_pool):
    c4 = cyclic(4)
    inversion = [[0, 1, 2, 3], [0, 3, 2, 1]] * 2
    c4_c4 = semidirect_product(c4, c4, inversion)
    c2_q8 = direct_product(cyclic(2), generalized_quaternion(8))
    assert chartable._isomorphism_key(c4_c4) == chartable._isomorphism_key(c2_q8)
    # Not isomorphic: C4:C4 has three squares, C2 x Q8 two.
    assert [_square_count(g) for g in (c4_c4, c2_q8)] == [3, 2]
    assert chartable._find_isomorphism(c2_q8, c4_c4) is None
    before = chartable.table_counts["built"]
    compute_table(c4_c4)
    compute_table(c2_q8)
    assert chartable.table_counts["built"] - before == 2
    # The key's one slot keeps the first table built for it.
    assert _pooled(c2_q8) == (compute_table(c2_q8), compute_table(c4_c4))
    for g in (c4_c4, c2_q8):
        assert route_differences(g) == []


def _square_count(group: Group) -> int:
    ids = np.arange(group.order)
    return np.unique(group.mul[ids, ids]).size


def test_zero_budget_builds_the_same_bytes(monkeypatch):
    """With no search budget a group of a pooled type is built, to the bytes
    the transport gives it.  The group is a fresh relabelling: one byte-equal
    to a pooled table would take that table and never reach the search."""
    s4 = sym(4)
    compute_table(s4)
    h = relabel(s4, 14)
    transported = chartable._transport(h, compute_table(s4),
                                       chartable._find_isomorphism(h, s4))
    monkeypatch.setattr(chartable, "ISOMORPHISM_NODE_BUDGET", 0)
    before = dict(chartable.table_counts)
    built = compute_table(h)
    assert chartable.table_counts["built"] == before["built"] + 1
    assert chartable.table_counts["transported"] == before["transported"]
    for field in ("_coeffs", "_modq", "_kernel_mask", "degrees"):
        assert np.array_equal(getattr(built, field), getattr(transported, field))
    assert (built.prime, built.root, built.conductor) == (
        transported.prime, transported.root, transported.conductor)


def test_a_map_that_fails_the_checks_is_a_contract_violation(monkeypatch):
    s4 = sym(4)
    compute_table(s4)
    swapped = np.arange(24)
    swapped[[1, 2]] = [2, 1]
    monkeypatch.setattr(chartable, "_find_isomorphism", lambda h, s: swapped)
    with pytest.raises(chartable.ContractViolation, match="non-homomorphism"):
        compute_table(relabel(s4, 2))
    monkeypatch.setattr(chartable, "_find_isomorphism",
                        lambda h, s: np.zeros(24, dtype=np.int64))
    with pytest.raises(chartable.ContractViolation, match="non-bijection"):
        compute_table(relabel(s4, 3))


def test_the_inverse_of_a_map_that_is_no_bijection_is_refused():
    """The search inverts its map s -> h; an id the map misses must leave a
    mark in the inverse that ``_transport``'s bijection check sees."""
    psi = np.array([0, 2, 3, 1])
    assert chartable._inverse_map(psi).tolist() == [0, 3, 1, 2]
    collapsed = chartable._inverse_map(np.array([0, 1, 1, 3]))
    assert collapsed.tolist() == [0, 2, -1, 3]
    s4 = sym(4)
    compute_table(s4)
    psi = np.arange(24)
    psi[5] = 6  # 5 is missed, 6 is hit twice
    phi = chartable._inverse_map(psi)
    assert -1 in phi
    with pytest.raises(chartable.ContractViolation, match="non-bijection"):
        chartable._transport(relabel(s4, 8), compute_table(s4), phi)


def test_agl1_16_transports_both_ways_within_the_budget():
    """The constructed AGL(1, 16) has the translations 1, 2, 4 and 8 among
    its ``generators()``, too many candidate images for the budget; its
    source chain must still find both directions against a relabelled copy."""
    assert chartable.ISOMORPHISM_NODE_BUDGET == 2000
    built = agl1(16)
    assert {1, 2, 4, 8} <= set(built.generators())
    assert set(built.elt_order[[1, 2, 4, 8]].tolist()) == {2}
    copy = relabel(built, 16)
    for h, s in ((copy, built), (built, copy)):
        phi = chartable._find_isomorphism(h, s)
        assert phi is not None, (h.label, s.label)
        assert route_differences(h, chartable._transport(h, _build_table(s), phi)) == []


def test_the_pair_scan_walks_only_source_chains(monkeypatch, empty_table_pool):
    """Fresh corpus groups and all 6912 pairs, from an empty pool: each
    pooled source builds its generator chain at most once, no searched
    group builds one, and no searched group calls ``generators()`` while
    its table is computed."""
    chains: dict[Group, int] = {}
    source_chain = chartable._source_chain.__wrapped__

    def counted_chain(s):
        chains[s] = chains.get(s, 0) + 1
        return source_chain(s)

    counted_chain.__name__ = source_chain.__name__
    monkeypatch.setattr(chartable, "_source_chain", _memo(counted_chain))
    searched, sources = set(), set()
    computing, inside = [], []  # groups whose table or search runs, innermost last
    search = chartable._find_isomorphism

    def recorded(h, s):
        searched.add(h)
        sources.add(s)
        computing.append(h)
        try:
            return search(h, s)
        finally:
            computing.pop()

    monkeypatch.setattr(chartable, "_find_isomorphism", recorded)
    generators, table = Group.generators, clifford.compute_table

    def watched_generators(self):
        if computing and self is computing[-1]:
            inside.append(self)
        return generators(self)

    def watched_table(group):
        computing.append(group)
        try:
            return table(group)
        finally:
            computing.pop()

    monkeypatch.setattr(Group, "generators", watched_generators)
    monkeypatch.setattr(clifford, "compute_table", watched_table)
    pairs = records = 0
    for entry in build_corpus():
        group = entry.build()
        for sub in group.normal_subgroups():
            if 1 < sub.order < group.order:
                records += len(ramification_scan_pair(group, sub))
                pairs += 1
    assert (pairs, records) == (6912, 60782)
    assert len(searched) > 1000 and len(sources) < 100
    assert set(chains) == sources
    assert max(chains.values()) == 1
    assert not searched & set(chains)
    assert not searched & set(inside)


def test_generators_match_the_greedy_closures(corpus_groups, request_inputs):
    """``generators()`` reads its picks off one generator chain along all
    ids; closing the span anew for each pick gives the same ids, on every
    corpus group and on a relabelled copy of every ``requests`` group."""
    groups_ = list(corpus_groups.values())
    groups_ += [relabel(build(), k) for k, (build, *_) in
                enumerate(request_inputs.GROUPS.values())]
    for group in groups_:
        assert group.generators() == oracles.greedy_generators(group), group.label


def test_every_walk_along_generators_is_the_one_chain(monkeypatch):
    """``groups._generator_chain`` is the one walk of a group along a list
    of generators: each module binds that function, and ``generators()``,
    ``Group._closure``, ``automorphism_from_images``,
    ``frobenius72_quaternion`` and the search's ``_source_chain`` each call
    it once."""
    chain = groups._generator_chain
    modules = (groups, chartable, constructors)
    assert all(module._generator_chain is chain for module in modules)
    calls = []

    def counted(s, gens, cap=None):
        calls.append(s.label)
        return chain(s, gens, cap)

    for module in modules:
        monkeypatch.setattr(module, "_generator_chain", counted)
    runs = {
        "generators": lambda: sym(4).generators(),
        "_closure": lambda: sym(4)._closure([1, 2]),
        "automorphism_from_images":
            lambda: constructors.automorphism_from_images(cyclic(5), [1], [2]),
        "frobenius72_quaternion": constructors.frobenius72_quaternion,
        "_source_chain": lambda: chartable._source_chain(sym(4)),
    }
    reached = {}
    for name, run in runs.items():
        before = len(calls)
        run()
        reached[name] = len(calls) - before
    assert reached == dict.fromkeys(runs, 1)


def _digest(group: Group) -> bytes:
    return hashlib.blake2b(group.mul, digest_size=16).digest()


def _pooled(group: Group) -> tuple:
    """(the table pooled for the Cayley table of ``group``, the table pooled
    for its isomorphism key), None where a map holds none."""
    return (chartable._SAME_TABLE.get(_digest(group)),
            chartable._BUILT_TABLE.get(chartable._isomorphism_key(group)))


def _no_search(*args):
    raise AssertionError("a byte-equal group reached the isomorphism key or search")


def test_a_byte_equal_group_takes_the_pooled_table_without_a_search(monkeypatch):
    g = direct_product(cyclic(3), dihedral(10))  # C3 x D10: no other test builds it
    fresh = Group(g.mul.copy()).conjugacy_classes()
    source = compute_table(g)
    twin = Group(g.mul.copy(), label="twin")
    monkeypatch.setattr(chartable, "_find_isomorphism", _no_search)
    before = dict(chartable.table_counts)
    table = compute_table(twin)
    assert chartable.table_counts["transported"] == before["transported"] + 1
    assert chartable.table_counts["built"] == before["built"]
    assert table is not source and table._coeffs is source._coeffs
    assert route_differences(twin) == []
    assert table.group is twin and table.classes is twin.conjugacy_classes()
    # The twin shares the source's classes object and derived table arrays,
    # and the classes equal the ones a fresh group computes.
    assert table.classes is source.classes
    for field in dataclasses.fields(fresh):
        assert np.array_equal(getattr(table.classes, field.name),
                              getattr(fresh, field.name)), field.name
    assert len(table.classes.members) == len(fresh.members)
    assert all(np.array_equal(a, b) for a, b in zip(table.classes.members, fresh.members))
    for derived in ("_modq", "_kernel_mask", "_zero_mask"):
        assert getattr(table, derived) is getattr(source, derived), derived
    with pytest.raises(chartable.ContractViolation, match="byte-equal"):
        twin._adopt_classes(cyclic(twin.order))
    for chi in table:
        kernel = chi.kernel()
        assert kernel.parent is twin
        assert set(kernel.elements) == oracles.kernel_by_values(chi)
    assert _pooled(g) == (table, source)


def test_a_byte_equal_group_needs_no_isomorphism_key(monkeypatch):
    g = direct_product(cyclic(3), dihedral(14))  # C3 x D14: no other test builds it
    source = compute_table(g)
    monkeypatch.setattr(chartable, "_isomorphism_key", _no_search)
    monkeypatch.setattr(chartable, "_find_isomorphism", _no_search)
    table = compute_table(Group(g.mul.copy(), label="twin"))
    assert table._coeffs is source._coeffs


def test_a_dead_table_serves_no_byte_equal_group():
    g = direct_product(cyclic(7), cyclic(13))  # C91: no other test builds it
    mul = g.mul.copy()
    compute_table(g)
    del g
    gc.collect()
    twin = Group(mul, label="twin")
    before = chartable.table_counts["built"]
    table = compute_table(twin)
    assert chartable.table_counts["built"] == before + 1
    assert _pooled(twin) == (table, table)


def test_an_emptied_pool_isolates_from_byte_equal_tables(empty_table_pool):
    g = direct_product(cyclic(5), cyclic(11))  # C55: no other test builds it
    before = chartable.table_counts["built"]
    compute_table(g)
    compute_table(Group(g.mul.copy(), label="twin"))
    assert chartable.table_counts["built"] == before + 1
    chartable._SAME_TABLE.clear()
    chartable._BUILT_TABLE.clear()
    compute_table(Group(g.mul.copy(), label="second twin"))
    assert chartable.table_counts["built"] == before + 2


def test_pool_forgets_a_dead_group():
    g = direct_product(cyclic(7), cyclic(11))  # C77: no other test builds it
    table = compute_table(g)
    assert _pooled(g) == (table, table)
    del table
    fresh = relabel(g, 4)
    del g
    gc.collect()
    before = chartable.table_counts["built"]
    compute_table(fresh)
    assert chartable.table_counts["built"] == before + 1
    assert _pooled(fresh) == (compute_table(fresh), compute_table(fresh))


def test_both_maps_drop_a_dead_group_at_once():
    """A dead table leaves both maps when the collector frees it, with no
    later miss on its key needed."""
    g = direct_product(cyclic(3), cyclic(29))  # C87: no other test builds it
    table = compute_table(g)
    digest, key = _digest(g), chartable._isomorphism_key(g)
    assert chartable._SAME_TABLE[digest] is table
    assert chartable._BUILT_TABLE[key] is table
    del g, table
    gc.collect()
    assert digest not in chartable._SAME_TABLE
    assert key not in chartable._BUILT_TABLE


def test_a_live_transported_table_serves_once_the_built_one_dies(monkeypatch):
    """Once the built table of a type dies, a relabelled group of the type
    is built again: a transported table is never searched against.  The
    live transported table still serves a group byte-equal to its own."""
    g = direct_product(cyclic(5), cyclic(13))  # C65: no other test builds it
    key = chartable._isomorphism_key(g)
    before = dict(chartable.table_counts)
    compute_table(g)
    first = relabel(g, 6)
    compute_table(first)
    assert chartable.table_counts["built"] == before["built"] + 1
    assert chartable.table_counts["transported"] == before["transported"] + 1
    del g
    gc.collect()
    assert key not in chartable._BUILT_TABLE
    second = relabel(first, 7)
    compute_table(second)
    assert chartable.table_counts["built"] == before["built"] + 2
    assert _pooled(second) == (compute_table(second), compute_table(second))
    assert route_differences(second) == []
    monkeypatch.setattr(chartable, "_find_isomorphism", _no_search)
    twin = Group(first.mul.copy(), label="twin")
    assert compute_table(twin)._coeffs is compute_table(first)._coeffs
    assert chartable.table_counts["transported"] == before["transported"] + 2


def test_transported_table_belongs_to_the_caller():
    s4 = sym(4)
    compute_table(s4)
    h = relabel(s4, 5)
    before = chartable.table_counts["transported"]
    table = compute_table(h)
    assert chartable.table_counts["transported"] == before + 1
    assert table.group is h and table.classes is h.conjugacy_classes()
    for chi in table:
        kernel = chi.kernel()
        assert kernel.parent is h
        assert set(kernel.elements) == oracles.kernel_by_values(chi)


def test_witness_from_a_transported_subgroup_names_the_parent(monkeypatch):
    c2 = cyclic(2)
    compute_table(c2)  # a live pooled source for the centre's type
    g = Group(extraspecial_2(2, "+").mul, label="ES32+ parent")
    center = g.center()
    n = center.as_group()
    compute_table(g)
    before = chartable.table_counts["transported"]
    assert compute_table(n).group is n
    assert chartable.table_counts["transported"] == before + 1
    # An odd multiplicity of invariant factors makes the fully ramified,
    # abelian-quotient assertion fire on θ ≠ 1 of the centre.
    monkeypatch.setattr(clifford, "abelian_invariant_factors", lambda group, sub: [2])
    with pytest.raises(TheoremViolation) as err:
        ramification_scan_pair(g, center)
    assert err.value.witness["group"] == "ES32+ parent"
    assert err.value.witness["n_order"] == 2


def _run_threads(work, chunks):
    """Run ``work`` on each chunk in its own thread, switching threads as
    often as the interpreter allows; returns what the threads raised."""
    errors = []

    def guarded(chunk):
        try:
            work(chunk)
        except Exception as exc:  # reported by the caller's assertion
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in chunks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_concurrent_first_calls_agree(empty_table_pool):
    """Unlocked pool fills from six threads: every table equals a build,
    and every request is counted once as built or transported."""
    bases = [sym(4), dihedral(8), generalized_quaternion(16), c7_c3()]
    groups = [relabel(b, seed) for seed in range(6) for b in bases]
    before = sum(chartable.table_counts.values())

    def tables(chunk):
        for h in chunk:
            compute_table(h)

    assert _run_threads(tables, [groups[i::6] for i in range(6)]) == []
    assert sum(chartable.table_counts.values()) - before == len(groups)
    for h in groups:
        assert route_differences(h) == [], h.label
    # First calls on one shared instance may fill its cache twice, with
    # the same bytes.
    shared = [relabel(b, 100) for b in bases]
    seen = []
    assert _run_threads(lambda _: seen.extend(compute_table(h) for h in shared),
                        range(6)) == []
    for table in seen:
        assert route_differences(table.group) == []


def test_counts_over_every_corpus_pair(monkeypatch, empty_table_pool):
    """Fresh corpus groups and all 6912 pairs, from an empty pool: every
    table requested is built or transported, no isomorphism type is built
    twice, and no Cayley table met before is searched for again."""
    searches = 0
    search = chartable._find_isomorphism

    def counted(h, s):
        nonlocal searches
        searches += 1
        return search(h, s)

    monkeypatch.setattr(chartable, "_find_isomorphism", counted)
    before = dict(chartable.table_counts)
    requested = []
    for entry in build_corpus():
        group = entry.build()
        requested.append(group)
        for sub in group.normal_subgroups():
            if 1 < sub.order < group.order:
                compute_table(sub.as_group())
                requested.append(sub.as_group())
    assert len(requested) == 116 + 6912
    built = chartable.table_counts["built"] - before["built"]
    transported = chartable.table_counts["transported"] - before["transported"]
    assert built + transported == len(requested)
    # Isomorphic groups share (order, multiset of (element order, class
    # size)), so the number of such invariants met bounds the types met
    # from below.
    invariants = {_order_class_size_invariant(g) for g in requested}
    assert built <= len(invariants)
    # One table per isomorphism key: no key met here holds two types, so
    # the key's one slot serves every later group of its type.
    assert built == len({chartable._isomorphism_key(g) for g in requested})
    # A Cayley table met before takes the table already pooled for it, so
    # only the first request of each one that is not built may search.
    assert searches <= len({g.mul.tobytes() for g in requested}) - built


def _order_class_size_invariant(group: Group) -> tuple[int, bytes]:
    """(order, multiset of (element order, centralizer order)), read
    straight off the table."""
    centralizers = np.count_nonzero(group.mul == group.mul.T, axis=0)
    codes = group.elt_order * (group.order + 1) + centralizers
    return group.order, np.sort(codes).tobytes()
