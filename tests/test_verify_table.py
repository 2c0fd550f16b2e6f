"""`verify_table` in evaluation form against the coefficient-space oracle:
both accept every corpus and normal-subgroup table, both reject mutated
tables, the check stays exact when it needs several primes, no product is
run past the float64 bound, and a rejection names enough to replay it."""

from __future__ import annotations

import dataclasses
import re
from math import gcd

import pytest

import groupchar.chartable as chartable
from groupchar import ContractViolation, compute_table, verify_table
from groupchar._arith import is_prime
from groupchar.chartable import CharacterTable

import oracles

FLOAT_EXACT = 1 << 53


def _with(table, coeffs=None, classes=None):
    """A copy of ``table`` with its coefficient array or classes replaced."""
    return CharacterTable(
        table.group,
        table.classes if classes is None else classes,
        table.degrees,
        table.conductor,
        table.prime,
        table.root,
        table._coeffs.copy() if coeffs is None else coeffs,
    )


def _rows_swapped(table):
    coeffs = table._coeffs.copy()
    coeffs[[1, 6]] = coeffs[[6, 1]]
    return _with(table, coeffs=coeffs)


def _one_coefficient_off(table):
    coeffs = table._coeffs.copy()
    coeffs[2, 3, 0] += 1
    return _with(table, coeffs=coeffs)


def _wrong_class_size(table):
    sizes = table.classes.sizes.copy()
    sizes[2] += 1
    return _with(table, classes=dataclasses.replace(table.classes, sizes=sizes))


def _galois_conjugate_column(table):
    """The first non-rational column replaced by its image under the first
    ζ ↦ ζ^j that moves it."""
    e = table.conductor
    coeffs = table._coeffs.copy()
    for col in range(coeffs.shape[1]):
        values = [oracles.Cyclotomic(e, c) for c in coeffs[:, col]]
        for j in range(2, e):
            if gcd(j, e) == 1:
                image = [v.galois(j) for v in values]
                if image != values:
                    coeffs[:, col] = [v.coeffs for v in image]
                    return _with(table, coeffs=coeffs)
    raise AssertionError("the table has no non-rational column")


MUTATIONS = {
    "rows-swapped-against-degrees": _rows_swapped,
    "one-coefficient-plus-one": _one_coefficient_off,
    "wrong-class-size": _wrong_class_size,
    "galois-conjugate-column": _galois_conjugate_column,
}


@pytest.fixture(scope="module")
def agl17(corpus_tables):
    """AGL1(7): degrees 1 (six times) and 6, conductor 42, with
    non-rational columns."""
    table = corpus_tables["AGL1(7)"]
    assert [int(d) for d in table.degrees] == [1, 1, 1, 1, 1, 1, 6]
    return table


def test_both_routes_accept_every_corpus_and_normal_subgroup_table(
        corpus_tables, proper_normal_pairs):
    tables = list(corpus_tables.values())
    tables += [compute_table(sub.as_group()) for _, _, sub in proper_normal_pairs]
    assert len(tables) == 116 + 6912
    for table in tables:
        summary = verify_table(table)
        assert summary == {**oracles.verify_table_by_coefficients(table),
                           "check_primes": summary["check_primes"]}
        assert all(r != table.prime and (r - 1) % table.conductor == 0 and is_prime(r)
                   for r in summary["check_primes"])


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_tables_are_rejected(agl17, mutation):
    bad = MUTATIONS[mutation](agl17)
    with pytest.raises(ContractViolation):
        verify_table(bad)
    if mutation == "rows-swapped-against-degrees":
        # Orthogonality does not see a row permutation; only the degree
        # check does, which the coefficient-space route never had.
        oracles.verify_table_by_coefficients(bad)
    else:
        with pytest.raises(ContractViolation):
            oracles.verify_table_by_coefficients(bad)


def test_tampered_inverse_classes_are_rejected(agl17):
    """The column relation follows from the row relation only when the
    inverse-class map is an involution that keeps class sizes."""
    # AGL1(7): sizes 1, 6 and five classes of 7.
    assert agl17.classes.sizes.tolist() == [1, 6, 7, 7, 7, 7, 7]
    inv = agl17.classes.inverse_class
    three_cycle, sizes_moved = inv.copy(), inv.copy()
    three_cycle[[2, 3, 4]] = inv[[3, 4, 2]]
    sizes_moved[[1, 6]] = [6, 1]  # both self-inverse, sizes 6 and 7
    for bad in (three_cycle, sizes_moved):
        classes = dataclasses.replace(agl17.classes, inverse_class=bad)
        with pytest.raises(ContractViolation,
                           match="inverse classes are not an involution that keeps class sizes"):
            verify_table(_with(agl17, classes=classes))


def test_rows_swapped_against_degrees_names_the_identity_column(agl17):
    with pytest.raises(ContractViolation, match="values at the identity are not the degrees"):
        verify_table(_rows_swapped(agl17))


def test_several_primes_when_the_ceiling_is_low(monkeypatch, corpus_tables, agl17):
    monkeypatch.setattr(chartable, "_CHECK_PRIME_CEILING", 1024)
    counts = [len(verify_table(t)["check_primes"]) for t in corpus_tables.values()]
    assert max(counts) >= 2 and counts.count(2) >= 10
    # AGL1(7): Gram bound 126, so 2B = 252 > 211, the largest prime = 1 mod 42
    # up to 300.
    monkeypatch.setattr(chartable, "_CHECK_PRIME_CEILING", 300)
    assert verify_table(agl17)["check_primes"] == [211, 43]
    for mutate in (_one_coefficient_off, _galois_conjugate_column):
        with pytest.raises(ContractViolation, match="orthogonality fails exactly"):
            verify_table(mutate(agl17))


def test_too_few_primes_below_the_ceiling_raise(monkeypatch, agl17):
    # Up to 200 the primes = 1 mod 42 are 43 and the table's own prime 127.
    monkeypatch.setattr(chartable, "_CHECK_PRIME_CEILING", 200)
    with pytest.raises(ContractViolation, match="do not exceed twice the Gram bound"):
        verify_table(agl17)


def test_a_ceiling_past_the_float_bound_takes_smaller_primes(monkeypatch, corpus_tables):
    monkeypatch.setattr(chartable, "_CHECK_PRIME_CEILING", 1 << 40)
    for table in corpus_tables.values():
        k = len(table)
        for r in verify_table(table)["check_primes"]:
            assert k * (r - 1) ** 2 < FLOAT_EXACT


@pytest.mark.parametrize("big", [1 << 40, (1 << 62) - 1, -(1 << 62)])
def test_huge_coefficients_raise_before_any_product(agl17, big):
    coeffs = agl17._coeffs.copy()
    coeffs[6, 3, 1] = big
    with pytest.raises(ContractViolation, match="is not a sum of 6 roots of unity"):
        verify_table(_with(agl17, coeffs=coeffs))


def test_a_prime_past_the_float_bound_raises(monkeypatch, agl17):
    e = agl17.conductor
    t = (1 << 30) // e
    while not is_prime(e * t + 1):
        t += 1
    r = e * t + 1
    assert len(agl17) * (r - 1) ** 2 >= FLOAT_EXACT
    monkeypatch.setattr(chartable, "_check_primes", lambda *args: [r])
    with pytest.raises(ContractViolation, match="2\\^53"):
        verify_table(agl17)


def test_a_rejection_replays(agl17):
    """The message names the prime, the root and the first failing pair;
    recomputing that Gram entry by hand at that root gives the reported
    value."""
    bad = _one_coefficient_off(agl17)
    with pytest.raises(ContractViolation) as info:
        verify_table(bad)
    message = str(info.value)
    assert message.startswith("row orthogonality fails exactly")
    found = re.search(r"mod r = (\d+) at zeta -> (\d+): rows \((\d+), (\d+)\) "
                      r"give (\d+), expected (\d+)", message)
    r, root, a, b, got, expected = map(int, found.groups())
    assert pow(root, bad.conductor, r) == 1 and got != expected

    def value(row, col):
        return sum(int(c) * pow(root, i, r) for i, c in enumerate(bad._coeffs[row, col]))

    classes = bad.classes
    entry = sum(size * value(a, col) * value(b, classes.inverse_class[col])
                for col, size in enumerate(classes.sizes)) % r
    assert entry == got
    assert expected == (bad.group.order % r if a == b else 0)
