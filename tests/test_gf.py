"""GF(q) tables and the vector numbering against the list-polynomial and
digit-by-digit references in `oracles`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupchar
from groupchar import _modlinalg
from groupchar._arith import prime_power
from groupchar._modlinalg import digits, powers_mod, vector_perms
from groupchar.constructors import _matrix_perm
from groupchar.errors import NotPrimePower
from groupchar.gf import gf_field

import oracles

PRIME_POWERS = [q for q in range(2, 244) if prime_power(q) is not None]


def test_gf_tables_match_the_polynomial_reference():
    for q in PRIME_POWERS:
        field = gf_field(q)
        modulus, add, mul = oracles.gf_by_polynomials(field.p, field.n)
        assert (field.p ** field.n, field.modulus) == (q, modulus), q
        assert np.array_equal(field.add, add), q
        assert np.array_equal(field.mul, mul), q
        assert field.add.dtype == field.mul.dtype == np.int64
        assert not field.add.flags.writeable and not field.mul.flags.writeable


def test_gf_moduli_are_the_least_irreducible_ones():
    # Candidates run 1 + c_1 x + ... in lexicographic order of (c_0, c_1, ...):
    # x^2 + 1 is irreducible mod 3 but not mod 5 (-1 = 2^2), x^2 + x + 1
    # has the non-square discriminant -3 mod 5, and x^3 + 1 = (x + 1)(x^2 +
    # x + 1) mod 2 while x^3 + x^2 + 1 has no root mod 2.
    assert gf_field(4).modulus == (1, 1, 1)
    assert gf_field(9).modulus == (1, 0, 1)
    assert gf_field(25).modulus == (1, 1, 1)
    assert gf_field(8).modulus == (1, 0, 1, 1)
    assert gf_field(7).modulus == (0, 1)


def test_gf_refuses_a_non_prime_power():
    for q in (1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            gf_field(q)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_matrix_perm_matches_the_big_endian_loop(p, k):
    rng = np.random.default_rng(1000 * p + k)
    for _ in range(6):
        mat = rng.integers(-p, 2 * p, size=(k, k))
        assert tuple(_matrix_perm(p, mat).tolist()) == oracles.matrix_perm_big_endian(p, mat)


def test_vector_numbering_and_perms():
    vecs = digits(np.arange(9), 3, 2)
    assert vecs.tolist() == [[a, b] for b in range(3) for a in range(3)]
    assert digits([[5, 7]], 3, 2).tolist() == [[[2, 1], [1, 2]]]
    swap = np.array([[0, 1], [1, 0]])
    (perm,) = vector_perms(3, 2, [swap])
    assert [perm[a + 3 * b] for a in range(3) for b in range(3)] == [
        b + 3 * a for a in range(3) for b in range(3)]


def test_vector_perms_agree_across_blocks(monkeypatch):
    """Blocks of 5 ids, the last one short, give the perms that one pass
    over all 27 vectors of GF(3)^3 gives."""
    rng = np.random.default_rng(3)
    mats = [rng.integers(0, 3, size=(3, 3)) for _ in range(4)]
    vecs = digits(np.arange(27), 3, 3)
    whole = [vecs @ m.T % 3 @ (3 ** np.arange(3)) for m in mats]
    monkeypatch.setattr(_modlinalg, "_PERM_BLOCK", 5)
    for got, want in zip(vector_perms(3, 3, mats), whole):
        assert got.tolist() == want.tolist()


# The peak is the child's own VmHWM: its ru_maxrss would also count the
# resident size of the test process it was started from.
_IDENTITY_PERM_PEAK = """
import numpy as np
from groupchar._modlinalg import vector_perms
(perm,) = vector_perms(2, 20, [np.eye(20, dtype=np.int64)])
assert np.array_equal(perm, np.arange(2 ** 20))
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) // 1024)
"""


def test_vector_perms_of_the_largest_space_hold_only_the_perm():
    """The identity on the 2^20 vectors of GF(2)^20, in a fresh process: a
    block of ids at a time, so the peak stays far below the 168 MB of each
    whole 2^20 × 20 digit array (three of them put it at about 513 MB)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(groupchar.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _IDENTITY_PERM_PEAK],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 120  # MB peak RSS


def test_powers_mod():
    assert powers_mod(3, 0, 7).tolist() == []
    for z, count, q in ((3, 6, 7), (5, 40, 1009), (2, 21, 1 << 20)):
        assert powers_mod(z, count, q).tolist() == [pow(z, i, q) for i in range(count)]
