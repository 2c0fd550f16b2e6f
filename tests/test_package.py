"""The package surface and the test configuration: every submodule
``__all__`` name exists, ``groupchar`` re-exports exactly those names, the
public name list is pinned, and a failing hypothesis test does not end the
pytest session."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import groupchar

ROOT = Path(__file__).resolve().parent.parent

# Submodules that declare __all__: groupchar re-exports the library ones,
# not the command-line entry point and its report format.
REEXPORTED = ["actions", "clifford", "corpus", "groupio", "pairs"]
NOT_REEXPORTED = ["cli", "reporting"]

PUBLIC = [
    "BoundExceeded", "Character", "CharacterTable", "ConjugacyClasses",
    "ContractViolation", "CorpusEntry", "Cyclotomic", "EvenCharacteristic",
    "EvenOrder", "Group", "GroupCharError", "InvalidAction", "LinearAction",
    "NoSuitablePrime", "NotNormal", "NotPrimePower", "PairReport", "ParseError",
    "QuotientMap", "SplitFailure", "Subgroup", "TheoremViolation", "UsageError",
    "abelian", "abelian_invariant_factors", "acts_fixed_point_freely", "agl1",
    "alt", "automorphism_from_images", "build_corpus", "c5c5_c3", "c7_c3",
    "camina_pair", "central_product", "class_fusion", "classify_pair",
    "compute_table", "cyclic", "dade_duplicate_check", "dihedral",
    "direct_product", "distinct_nonlinear_scan", "distinct_sizes_scan",
    "extraspecial_2", "frobenius72_quaternion", "frobenius_complement",
    "generalized_quaternion", "gl_elements", "has_property_D", "invariant_rows",
    "irr_over", "is_camina_centralizer", "is_camina_vanishing",
    "is_frobenius_with_kernel", "is_transitive_nonzero", "load_group",
    "negation_pairing", "odd_order_subgroup_actions", "orbit_sizes",
    "pprime_elements_fpf", "quotient_class", "ramification_report",
    "ramification_scan_pair", "regular_orbit_count", "residual_case",
    "restriction_multiplicities", "run_corpus", "save_group",
    "semidirect_product", "sl23", "sym", "verify_table",
]


def _public(module) -> set[str]:
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def _submodules_with_all() -> dict[str, object]:
    mods = {info.name: importlib.import_module(f"groupchar.{info.name}")
            for info in pkgutil.iter_modules(groupchar.__path__)}
    return {name: mod for name, mod in mods.items() if hasattr(mod, "__all__")}


def test_every_all_name_exists():
    for name, mod in _submodules_with_all().items():
        assert len(set(mod.__all__)) == len(mod.__all__), name
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not missing, (name, missing)


def test_groupchar_reexports_exactly_the_all_names():
    mods = _submodules_with_all()
    assert sorted(mods) == sorted(REEXPORTED + NOT_REEXPORTED)
    public = _public(groupchar)
    for name in REEXPORTED:
        mod = mods[name]
        defined_there = {n for n in public
                         if getattr(getattr(groupchar, n), "__module__", None) == mod.__name__}
        assert defined_there == set(mod.__all__), name
        assert all(getattr(groupchar, n) is getattr(mod, n) for n in mod.__all__), name
    for name in NOT_REEXPORTED:
        assert not public & set(mods[name].__all__), name


def test_public_names_are_pinned():
    assert sorted(_public(groupchar)) == PUBLIC


PROBE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_given_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass


def test_other_deprecation_still_fails():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    """When a @given test fails, hypothesis imports libcst to write its
    failing example, and libcst raises a mypy_extensions.TypedDict
    DeprecationWarning from a pytest hook; under ``filterwarnings = error``
    alone that is an INTERNALERROR and no later test runs.  The pyproject
    filters ignore that one warning, and every other DeprecationWarning
    still fails its test."""
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "FAILED test_probe.py::test_given_fails" in out
    assert "FAILED test_probe.py::test_other_deprecation_still_fails" in out
    assert "2 failed, 1 passed" in out
