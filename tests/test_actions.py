"""Linear actions on finite vector spaces: group orders and their bound,
orbits, pairing, duplicate lengths, the transitivity scan, the
exhaustive odd-subgroup scans, and each violation branch fed a wrong fact."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from groupchar import (
    BoundExceeded,
    EvenCharacteristic,
    EvenOrder,
    InvalidAction,
    LinearAction,
    TheoremViolation,
    dade_duplicate_check,
    distinct_sizes_scan,
    gl_elements,
    is_transitive_nonzero,
    negation_pairing,
    odd_order_subgroup_actions,
    orbit_sizes,
    regular_orbit_count,
)

from groupchar import actions, clifford, constructors, ramification_report, sym

import oracles


def test_trivial_group_on_gf3_squared():
    action = LinearAction(3, 2, [])
    assert action.group_order == 1
    assert orbit_sizes(action) == [1] * 8
    assert not is_transitive_nonzero(action)
    assert regular_orbit_count(action) == 8


def test_scalar_orbits_on_gf5():
    action = LinearAction(5, 1, [[[2]]])
    assert action.group_order == 4
    assert orbit_sizes(action) == [4]
    assert is_transitive_nonzero(action)


def test_minus_identity_on_gf5_squared():
    action = LinearAction(5, 2, [[[4, 0], [0, 4]]])
    assert action.group_order == 2
    assert orbit_sizes(action) == [2] * 12
    assert regular_orbit_count(action) == 12
    assert negation_pairing(action)


def test_c3_on_gf2_squared():
    action = LinearAction(2, 2, [[[0, 1], [1, 1]]])
    assert action.group_order == 3
    assert orbit_sizes(action) == [3]


def test_fibonacci_matrix_transitive_on_gf3():
    action = LinearAction(3, 2, [[[0, 1], [1, 1]]])
    assert action.group_order == 8
    assert orbit_sizes(action) == [8]
    scan = distinct_sizes_scan(action)
    assert scan["transitive"] and scan["distinct"]
    assert not scan["order_odd"] and not scan["asserted"]


def test_even_characteristic_guards():
    action = LinearAction(2, 2, [[[0, 1], [1, 1]]])
    with pytest.raises(EvenCharacteristic):
        negation_pairing(action)
    with pytest.raises(EvenCharacteristic):
        dade_duplicate_check(action)


def test_even_order_guard():
    action = LinearAction(5, 1, [[[2]]])  # order 4
    with pytest.raises(EvenOrder):
        dade_duplicate_check(action)


def test_dade_duplicate_on_odd_odd():
    # <2> has order 3 in GF(7)*: orbits on 6 nonzero elements are [3, 3]
    action = LinearAction(7, 1, [[[2]]])
    assert action.group_order == 3
    assert orbit_sizes(action) == [3, 3]
    assert dade_duplicate_check(action)
    # the trivial group duplicates singleton orbits
    assert dade_duplicate_check(LinearAction(3, 2, []))


def test_invalid_actions():
    with pytest.raises(InvalidAction):
        LinearAction(4, 1, [[[3]]])  # 4 is not prime
    with pytest.raises(InvalidAction):
        LinearAction(3, 2, [[[1, 1], [1, 1]]])  # singular
    with pytest.raises(InvalidAction):
        LinearAction(3, 2, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])  # wrong shape
    with pytest.raises(InvalidAction):
        LinearAction(3, 0, [])  # dimension must be positive


@pytest.mark.parametrize("p, n, gens", [
    (3, 1, [[[2.7]]]),  # the entry was truncated to 2
    (3.0, 1, []),  # raised TypeError from pow
    (3, 1.0, []),  # raised AttributeError
], ids=["float-entry", "float-p", "float-n"])
def test_linear_action_refuses_non_integers(p, n, gens):
    with pytest.raises(InvalidAction, match="integers"):
        LinearAction(p, n, gens)


def test_linear_action_reduces_big_entries_exactly():
    # 10^40 + 1 ≡ 2 (mod 3), the scalar of order 2; a float would lose it
    assert LinearAction(3, 1, [[[10 ** 40 + 1]]]).group_order == 2
    assert LinearAction(3, 1, [[[10 ** 40 + 1]]]).generators[0].tolist() == [[2]]


def test_space_and_order_bounds(monkeypatch):
    with pytest.raises(BoundExceeded):
        LinearAction(2, 21, [])  # 2^21 vectors exceeds the space bound
    with pytest.raises(BoundExceeded):
        LinearAction(3, 10 ** 6, [])  # refused before 3^(10^6) is built
    with pytest.raises(BoundExceeded):
        LinearAction(2 ** 21 + 17, 1, [])  # a prime field past the space bound
    monkeypatch.setattr(actions, "ORDER_BOUND", 3)
    with pytest.raises(BoundExceeded):
        LinearAction(5, 1, [[[2]]])  # order 4


def test_negation_pairing_vs_structure():
    # negation maps each orbit to an orbit of equal size: spot-check the
    # scalar <2> action where -O is genuinely a different orbit
    action = LinearAction(7, 1, [[[2]]])  # orbits {1,2,4}, {3,6,5}
    assert negation_pairing(action)
    assert orbit_sizes(action) == [3, 3]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbits_match_brute_force(data):
    # GF(3)^3 only: GL(3, 5) is past the order bound
    p, n = data.draw(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    mats = [np.reshape(e, (n, n)).tolist()
            for e in data.draw(st.lists(entries, min_size=1, max_size=3))]
    mats = [m for m in mats if oracles.rank_mod(m, p) == n]
    assume(mats)
    extra = data.draw(st.sampled_from([[], [np.eye(n, dtype=int).tolist()], mats[:1]]))
    at = data.draw(st.integers(0, len(mats)))
    mats = mats[:at] + extra + mats[at:]
    action = LinearAction(p, n, mats)
    assert action.group_order == len(oracles.matrix_group_by_products(p, n, mats))
    assert orbit_sizes(action) == oracles.orbits_brute(p, n, mats)
    assert negation_pairing(action)


def _jordan(n):
    return (np.eye(n, dtype=int) + np.eye(n, k=1, dtype=int)).tolist()


@pytest.mark.parametrize("p, n, mats", [
    (31, 2, [_jordan(2)]),  # 31 cycles of length 31 on the vectors off the axis
    (5, 3, [_jordan(3)]),
    (3, 4, [_jordan(4)]),
    (5, 3, [np.eye(3, dtype=int).tolist()]),
    (3, 4, [np.eye(4, dtype=int).tolist()]),
    (3, 4, []),
    # pairs of transvections, whose orbits no single pass over the
    # generators joins
    (3, 2, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]),
    (3, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]),
])
def test_orbit_labels_match_brute_force_on_unipotent_and_identity_actions(p, n, mats):
    """Jordan blocks, identities and transvections: each label is constant
    under every generator and the orbit sizes are the brute-force ones, so
    the label classes are exactly the orbits."""
    action = LinearAction(p, n, mats)
    labels, sizes = action.orbits()
    assert all(np.array_equal(labels[perm], labels) for perm in action._vector_perms)
    assert orbit_sizes(action) == oracles.orbits_brute(p, n, mats)
    assert sizes.sum() == p ** n


def test_orbit_labels_are_dense_in_order_of_least_vector():
    """diag(1, 2) on GF(3)^2, ids v_0 + 3·v_1: it fixes the first axis and
    pairs (v_0, 1) with (v_0, 2)."""
    labels, sizes = LinearAction(3, 2, [[[1, 0], [0, 2]]]).orbits()
    assert labels.tolist() == [0, 1, 2, 3, 4, 5, 3, 4, 5]
    assert sizes.tolist() == [1, 1, 1, 2, 2, 2]
    assert labels.dtype == sizes.dtype == np.int64


def test_every_orbit_labelling_is_the_one_closure(monkeypatch):
    """``constructors._orbit_labels`` is the one orbit labelling of a group
    given by generator permutations: ``actions`` and ``clifford`` bind it,
    and ``LinearAction.orbits`` (on the 9 vectors of GF(3)^2) and
    ``ramification_report`` (on the 4 characters of V4 in S4) each call it
    once."""
    labelling = constructors._orbit_labels
    assert actions._orbit_labels is labelling and clifford._orbit_labels is labelling
    calls = []

    def counted(perms, size):
        calls.append(size)
        return labelling(perms, size)

    for module in (actions, clifford):
        monkeypatch.setattr(module, "_orbit_labels", counted)
    LinearAction(3, 2, [[[1, 0], [0, 2]]]).orbits()
    s4 = sym(4)
    ramification_report(s4, s4.subgroup([0, 7, 16, 23]))
    assert calls == [9, 4]


def _companion(coeffs, p):
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0 over GF(p)."""
    n = len(coeffs)
    m = np.zeros((n, n), dtype=np.int64)
    m[np.arange(1, n), np.arange(n - 1)] = 1
    m[:, n - 1] = [-c % p for c in coeffs]
    return m


def _frobenius(c, p):
    """x -> x^p in the power basis of the companion's root: column j is
    x^(pj) = c^(pj)·e_0."""
    powers = [np.eye(len(c), dtype=np.int64)[:, 0]]
    for _ in range(p * (len(c) - 1)):
        powers.append(c @ powers[-1] % p)
    return np.stack(powers[::p], axis=1)


def _elementary(n, i, j):
    """I + E_ij."""
    m = np.eye(n, dtype=np.int64)
    m[i, j] = 1
    return m


_SINGER_3_4 = _companion((2, 0, 0, 1), 3)  # x^4 + x^3 + 2, primitive


@pytest.mark.parametrize("p, n, mats, order", [
    (3, 4, [_SINGER_3_4], 80),
    (3, 4, [_SINGER_3_4, _frobenius(_SINGER_3_4, 3)], 320),  # ΓL(1, 81)
    (3, 2, [[[1, 1], [0, 1]], [[0, 1], [2, 0]], [[2, 0], [0, 1]]], 48),  # GL(2, 3)
    (5, 4, [np.diag([4, 1, 1, 1]),  # signed permutations
            np.eye(4, dtype=np.int64)[[1, 0, 2, 3]],
            np.eye(4, dtype=np.int64)[[1, 2, 3, 0]]], 384),
    (3, 4, [_elementary(4, i, i + 1) for i in range(3)], 729),  # U(4, 3)
], ids=["singer-81", "semilinear-81", "gl-2-3", "signed-perm-5^4", "unitriangular-4-3"])
def test_fixed_group_orders(p, n, mats, order):
    assert LinearAction(p, n, mats).group_order == order


def test_order_bound_on_gl_3_11():
    # diag(2, 1, 1), I + E_12 and a 3-cycle generate GL(3, 11), of order
    # about 2·10^9: the closure stops at the first block past the bound.
    gens = [np.diag([2, 1, 1]), _elementary(3, 0, 1),
            np.eye(3, dtype=np.int64)[[1, 2, 0]]]
    with pytest.raises(BoundExceeded,
                       match="matrix group order: size 1000001 exceeds bound 1000000"):
        LinearAction(11, 3, gens)


def test_gl_element_counts():
    assert len(gl_elements(2, 2)) == 6      # |GL(2,2)|
    assert len(gl_elements(3, 2)) == 48     # |GL(2,3)|
    assert len(gl_elements(7, 1)) == 6


def test_gl_elements_refuses_before_building_the_count():
    with pytest.raises(BoundExceeded, match="matrix space dimension"):
        gl_elements(3, 100)  # refused before 3^(100²) is built
    with pytest.raises(BoundExceeded, match="field size in bits"):
        gl_elements(10 ** 5000 + 1, 1)  # a field too large to name in full
    with pytest.raises(BoundExceeded, match="matrix space: size 43046721"):
        gl_elements(3, 4)  # 3^16 is small enough to build and name


@pytest.mark.parametrize("p, n, claim", [
    (4, 2, "4 is not prime"),  # raised ValueError: base is not invertible
    (6, 1, "6 is not prime"),
    (2.0, 2, "integers"),  # raised AttributeError
    (2, 1.0, "integers"),
    (2, -1, "at least 1"),  # raised a numpy reshape error
    (2, 0, "at least 1"),  # returned one matrix
], ids=["p-4", "p-6", "float-p", "float-n", "n-negative", "n-zero"])
def test_gl_scans_refuse_bad_input(p, n, claim):
    for call in (gl_elements, odd_order_subgroup_actions,
                 lambda p, n: LinearAction(p, n, [])):
        with pytest.raises(InvalidAction, match=claim):
            call(p, n)


def test_bounds_refuse_before_the_primality_test(monkeypatch):
    def tested(p):
        raise AssertionError(f"primality test on a {p.bit_length()}-bit p")
    monkeypatch.setattr(actions, "is_prime", tested)
    # a 14281-bit p: the test on it takes seconds, and its 4300 digits
    # are not named
    with pytest.raises(BoundExceeded,
                       match="^field size in bits: size 14281 exceeds bound 21$"):
        LinearAction(10 ** 4299 + 7, 1, [])
    # each input is refused by a bound, and is no prime either
    with pytest.raises(BoundExceeded, match="^vector space dimension"):
        LinearAction(4, 30, [])
    with pytest.raises(BoundExceeded, match="^vector space: size 2097150 exceeds"):
        LinearAction(2 ** 21 - 2, 1, [])
    with pytest.raises(BoundExceeded, match="^matrix space: size 281474976710656 exceeds"):
        gl_elements(2 ** 12, 2)


def test_odd_subgroups_of_gl1_small():
    # GF(7)^* is cyclic of order 6; in GF(19)^*, of order 18, the subgroup
    # of order 3 is found from a generator inside the one of order 9.
    for p, expected in [(7, [1, 3]), (19, [1, 3, 9])]:
        actions = odd_order_subgroup_actions(p, 1)
        assert sorted(a.group_order for a in actions) == expected
        for action in actions:
            assert dade_duplicate_check(action)
            scan = distinct_sizes_scan(action)
            assert scan["order_odd"] and not scan["distinct"]


def test_odd_subgroups_of_gl23():
    actions = odd_order_subgroup_actions(3, 2)
    orders = sorted(a.group_order for a in actions)
    assert orders == [1, 3, 3, 3, 3]
    for action in actions:
        assert dade_duplicate_check(action)
        assert negation_pairing(action)


def test_odd_subgroups_of_gl25():
    actions = odd_order_subgroup_actions(5, 2)
    orders = sorted(a.group_order for a in actions)
    assert orders == [1] + [3] * 10 + [5] * 6
    for action in actions:
        assert dade_duplicate_check(action)


def _claim(call) -> str:
    with pytest.raises(TheoremViolation) as exc:
        call()
    return exc.value.claim


@pytest.mark.parametrize("p, labels, sizes, claim", [
    (3, [0, 0, 1], [2, 1], "the zero vector must be a fixed point"),
    (3, [0, 1, 2], [1, 1, 5],
     "orbit sizes do not sum to the number of nonzero vectors"),
    (5, [0, 1, 1, 2, 2], [1, 2, 2],
     "an orbit size does not divide the group order"),
], ids=["zero-moved", "wrong-sum", "size-not-dividing"])
def test_orbit_sizes_refuses_a_wrong_partition(monkeypatch, p, labels, sizes, claim):
    action = LinearAction(p, 1, [])  # the trivial group, of order 1
    partition = (np.array(labels), np.array(sizes))
    monkeypatch.setattr(action, "orbits", lambda: partition)
    assert _claim(lambda: orbit_sizes(action)) == claim


@pytest.mark.parametrize("sizes, call, claim", [
    ([2, 4], dade_duplicate_check,
     "odd-order action with pairwise distinct orbit sizes"),
    ([2, 4], distinct_sizes_scan,
     "odd-order irreducible action with distinct orbit sizes must be "
     "transitive on nonzero vectors"),
    ([6], distinct_sizes_scan,
     "transitive action order not divisible by the orbit length"),
], ids=["dade-distinct", "scan-intransitive", "scan-order"])
def test_orbit_facts_refuse_wrong_orbit_sizes(monkeypatch, sizes, call, claim):
    # <2> in GF(7)^* has order 3 and orbits [3, 3]
    action = LinearAction(7, 1, [[[2]]])
    monkeypatch.setattr(actions, "orbit_sizes", lambda _: sizes)
    assert _claim(lambda: call(action)) == claim


def test_odd_subgroup_scan_catches_a_closure_that_drops_a_row(monkeypatch):
    """The shared Dimino closure is checked against ``Group._closure``."""
    closure = actions._dimino_closure
    monkeypatch.setattr(actions, "_dimino_closure", lambda *a: closure(*a)[:-1])
    assert (_claim(lambda: odd_order_subgroup_actions(7, 1))
            == "subgroup closure and action closure disagree")
