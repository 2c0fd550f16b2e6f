"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Each test prints as a single pass/fail line under ``pytest -v``.  The two
timed guarantees measure their own wall-clock window around the exact
workload they promise (fresh table builds; the orbit scans).  Everything
else quantifies over the corpus fixtures with zero tolerance: any failed
invariant raises, any frozen count that drifts fails the test.
"""

import hashlib
import json
import time
from collections import Counter

from groupchar import (
    agl1,
    build_corpus,
    compute_table,
    extraspecial_2,
    has_property_D,
    run_corpus,
    verify_table,
)
import groupchar.chartable as chartable
from groupchar._arith import prime_factors
from groupchar.actions import (
    dade_duplicate_check,
    negation_pairing,
    odd_order_subgroup_actions,
)
from groupchar.clifford import abelian_invariant_factors
from groupchar.pairs import (
    camina_pair,
    camina_verdicts,
    classify_pair,
    distinct_nonlinear_scan,
    is_camina_centralizer,
    is_camina_vanishing,
)

ODD_PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_criterion_1_character_table_soundness():
    """Every corpus table passes both exact orthogonality relations, the
    degree identity, and the column-centralizer identity, under 60 s."""
    start = time.perf_counter()
    checked = 0
    for entry in build_corpus():
        group = entry.build()  # fresh group: nothing reused from fixtures
        assert group.order <= 512
        table = compute_table(group)
        summary = verify_table(table)  # raises ContractViolation on failure
        assert summary["order"] == group.order
        assert summary["classes"] == len(group.conjugacy_classes().reps)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 116
    assert elapsed < 60.0, f"table verification took {elapsed:.1f}s"


def test_criterion_2_camina_equivalence(proper_normal_pairs):
    """The centralizer-order and character-vanishing Camina deciders agree
    on every proper nontrivial normal pair in the corpus."""
    camina_true = 0
    for name, group, sub in proper_normal_pairs:
        by_centralizers = is_camina_centralizer(group, sub)
        by_vanishing = is_camina_vanishing(group, sub)
        assert by_centralizers == by_vanishing, (
            f"{name}: centralizer test {by_centralizers}, "
            f"vanishing test {by_vanishing} for |N| = {sub.order}"
        )
        camina_true += by_centralizers
    assert len(proper_normal_pairs) == 6912
    assert camina_true == 40


def test_criterion_2_camina_verdicts_over_the_lattice(corpus_groups):
    """The group-level Camina verdicts, both deciders over the class-mask
    matrix of the whole normal lattice, equal ``camina_pair`` on each N's
    row alone, on every proper nontrivial normal pair in the corpus."""
    checked = camina_true = 0
    for name, group in corpus_groups.items():
        verdicts = camina_verdicts(group)
        normals = group.normal_subgroups()
        assert len(verdicts) == len(normals), name
        assert not verdicts[0] and not verdicts[-1], name
        for sub, verdict in zip(normals[1:-1], verdicts[1:-1]):
            assert camina_pair(group, sub) == verdict, (name, sub.order)
            checked += 1
        camina_true += int(verdicts.sum())
    assert checked == 6912
    assert camina_true == 40


def test_criterion_3_forward_classification(corpus_groups):
    """Every minimal normal subgroup of a nonabelian corpus group classifies
    without a theorem violation; distinct degrees always force a type."""
    classified = 0
    with_property = 0
    for name, group in corpus_groups.items():
        if group.is_abelian:
            continue
        assert group.is_solvable()
        for sub in group.minimal_normal_subgroups():
            report = classify_pair(group, sub)  # asserts per-type theorems
            classified += 1
            if report.property_D:
                with_property += 1
                assert report.type in ("Type1", "Type2", "Type3"), (
                    f"{name}: distinct degrees but type {report.type}"
                )
                assert report.camina_centralizer and report.camina_vanishing
                assert report.unique_minimal_normal
                assert report.o_p_prime_trivial
                assert report.pprime_fpf
    assert classified > 61  # every nonabelian entry has a minimal normal
    assert with_property == 22


def test_criterion_4_type1_type2_converses():
    """Central-quotient 2-groups and affine Frobenius groups have distinct
    degrees over the designated normal subgroup, with exactly one faithful
    character of the predicted degree."""
    for m in (1, 2, 3):
        for sign in ("+", "-"):
            group = extraspecial_2(m, sign)
            center = group.center()
            assert center.order == 2
            assert has_property_D(group, center) is True
            faithful = [c for c in compute_table(group)
                        if c.kernel().order == 1]
            assert len(faithful) == 1
            assert faithful[0].degree == 2 ** m

    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
        group = agl1(q)
        minimals = group.minimal_normal_subgroups()
        assert len(minimals) == 1 and minimals[0].order == q
        assert has_property_D(group, minimals[0]) is True
        faithful = [c for c in compute_table(group) if c.kernel().order == 1]
        assert len(faithful) == 1
        assert faithful[0].degree == q - 1


def test_criterion_5_distinct_degree_scan(corpus_groups):
    """Exactly the expected corpus entries have pairwise-distinct nonlinear
    degrees, and each lands in its structural bucket."""
    expected_bucket = {
        "D6": "frobenius-cyclic",
        "D8": "extraspecial-2",
        "Q8": "extraspecial-2",
        "ES8+": "extraspecial-2",
        "ES8-": "extraspecial-2",
        "ES32+": "extraspecial-2",
        "ES32-": "extraspecial-2",
        "ES128+": "extraspecial-2",
        "ES128-": "extraspecial-2",
        "AGL1(3)": "frobenius-cyclic",
        "AGL1(4)": "frobenius-cyclic",
        "AGL1(5)": "frobenius-cyclic",
        "AGL1(7)": "frobenius-cyclic",
        "AGL1(8)": "frobenius-cyclic",
        "AGL1(9)": "frobenius-cyclic",
        "AGL1(11)": "frobenius-cyclic",
        "AGL1(13)": "frobenius-cyclic",
        "AGL1(16)": "frobenius-cyclic",
        "F72:Q8": "frobenius72-quaternion",
        "S3": "frobenius-cyclic",
        "A4": "frobenius-cyclic",
        "C5:C4": "frobenius-cyclic",
    }
    seen_distinct = set()
    nonabelian = 0
    for name, group in corpus_groups.items():
        if group.is_abelian:
            continue
        nonabelian += 1
        scan = distinct_nonlinear_scan(group)  # asserts bucket coverage
        if scan["distinct"]:
            seen_distinct.add(name)
            assert scan["bucket"] == expected_bucket.get(name), (
                f"{name}: bucket {scan['bucket']}"
            )
        else:
            assert name not in expected_bucket, f"{name}: lost distinctness"
    assert nonabelian == 61
    assert seen_distinct == set(expected_bucket)


def test_criterion_6_single_character_above(triple_records):
    """Distinct degrees above an invariant character with a supersolvable or
    odd-order quotient force one fully ramified character; two characters
    above an invariant character always share a degree."""
    forced = 0
    two_above = 0
    for name, group, sub, rec in triple_records:
        assert rec["invariant"] is True
        index = group.order // sub.order
        if rec["distinct_degrees"] and rec["quotient_class"] in (
            "supersolvable", "odd",
        ):
            forced += 1
            assert rec["count_above"] == 1, (name, sub.order, rec)
            assert rec["fully_ramified"] is True
            assert rec["e"] ** 2 == index
        if rec["count_above"] == 2:
            two_above += 1
            a, b = rec["degrees_above"]
            assert a == b, (name, sub.order, rec)
    assert forced > 100
    assert two_above > 100


def test_criterion_7_fully_ramified_abelian(triple_records):
    """A fully ramified character over an abelian quotient forces every
    invariant factor of the quotient to appear an even number of times."""
    witnesses = 0
    for name, group, sub, rec in triple_records:
        if not (rec["fully_ramified"] and rec["quotient_abelian"]):
            continue
        witnesses += 1
        quotient = group.quotient(sub)
        factors = abelian_invariant_factors(quotient, quotient.trivial_subgroup())
        multiplicities = Counter(factors)
        assert all(v % 2 == 0 for v in multiplicities.values()), (
            name, sub.order, factors,
        )
        assert rec["e"] ** 2 == group.order // sub.order
    assert witnesses > 0


def test_criterion_8_orbit_lemmas():
    """Every odd-order subgroup of GL(1, p) for odd p up to 31 and of
    GL(2, 3) repeats an orbit length on the nonzero vectors, and negation
    pairs orbits in every odd-characteristic action; under 30 s.

    Characteristic 2 is outside both statements' hypotheses (the checkers
    refuse it), so the scan covers the odd primes.
    """
    start = time.perf_counter()
    actions = []
    for p in ODD_PRIMES_TO_31:
        actions.extend(odd_order_subgroup_actions(p, 1))
    actions.extend(odd_order_subgroup_actions(3, 2))
    assert len(actions) == 25
    for action in actions:
        assert action.group_order % 2 == 1
        assert dade_duplicate_check(action) is True
        assert negation_pairing(action) is True
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"orbit scan took {elapsed:.1f}s"


def test_criterion_9_determinism():
    """Two complete corpus runs emit byte-identical reports with the frozen
    totals, and the report's digest matches the recorded one."""
    first = run_corpus()
    second = run_corpus()
    assert first == second
    assert hashlib.sha256(first.encode()).hexdigest()[:16] == "27601a057b47db7d"
    assert "groups-checked = 116" in first
    assert "normal-pairs = 6912" in first
    assert "camina-pairs = 40" in first
    assert "pairs-classified = 286" in first
    assert "type3-witnesses = 0" in first


def test_corpus_cayley_tables_are_frozen():
    """The corpus entries' Cayley tables, built fresh and hashed in corpus
    order, match the recorded digest, so a constructor that relabels its
    group fails here even when no line of the corpus report moves."""
    digest = hashlib.sha256()
    for entry in build_corpus():
        digest.update(entry.build().mul.tobytes())
    assert digest.hexdigest()[:16] == "ebdc5798e60fe479"


def test_corpus_normal_structure_is_frozen():
    """Chief series, minimal normal subgroups, radicals and iterated series
    of the corpus entries, built fresh and hashed in corpus order, match the
    recorded digest: no report prints a chief series, so a changed
    tie-break or radical fails here even when no report line moves."""
    def ids(sub):
        return sub.elements.tolist()

    records = []
    for entry in build_corpus():
        group = entry.build()
        record = [[[ids(f.below), ids(f.above)] for f in group.chief_series()],
                  [ids(m) for m in group.minimal_normal_subgroups()]]
        for p in prime_factors(group.order):
            rad, series = group.radicals(p), group.iterated_series(p)
            record.append([ids(rad.o_p), ids(rad.o_p_prime), ids(rad.p_residual),
                           ids(rad.fitting), ids(series.o_p_pprime),
                           ids(series.o_p_pprime_p)])
        records.append(record)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest[:16] == "7842fa6ce1769052"


def test_triple_records_are_frozen(triple_records):
    """Every invariant-θ record of the corpus pairs, each with its entry name
    and N's ids, hashed in fixture order, matches the recorded digest: the
    scan's counts above only sample these fields, so a changed record fails
    here even when no count moves."""
    rows = [[name, sub.elements.tolist(), rec] for name, _, sub, rec in triple_records]
    assert len(rows) == 60782
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == "a090055ee5bb889d"


def test_corpus_built_tables_are_frozen():
    """Every corpus entry's table, built by the class-algebra split (not
    transported) and hashed in corpus order with its prime, root, conductor
    and shape, matches the recorded digest, so a change to the build that
    moves the bytes of every table alike fails here."""
    digest = hashlib.sha256()
    for entry in build_corpus():
        table = chartable._build_table(entry.build())
        digest.update(json.dumps([entry.name, table.prime, table.root, table.conductor,
                                  list(table._coeffs.shape)]).encode())
        digest.update(table._coeffs.tobytes())
    assert digest.hexdigest()[:16] == "eba6ec9e7249cc64"
