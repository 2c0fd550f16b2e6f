"""The package surface and the test configuration: every submodule
``__all__`` name exists, ``groupchar`` re-exports exactly those names, the
public name list is pinned, every export but one has a reader outside the
tests, cached facts are filled by one route, no constructor copies a
finished group only to rename it, only a Cayley file's table runs the
associativity test, a failing hypothesis test does not end the pytest
session, and the hand-run probes of ``tests/probes.py`` still run."""

from __future__ import annotations

import ast
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
    "SplitFailure", "Subgroup", "TheoremViolation", "UsageError",
    "abelian", "abelian_invariant_factors", "acts_fixed_point_freely", "agl1",
    "alt", "automorphism_from_images", "build_corpus", "c5c5_c3", "c7_c3",
    "camina_pair", "camina_verdicts", "central_product",
    "classify_pair", "compute_table", "cyclic", "dade_duplicate_check", "dihedral",
    "direct_product", "distinct_nonlinear_scan", "distinct_sizes_scan",
    "extraspecial_2", "frobenius72_quaternion", "frobenius_complement",
    "generalized_quaternion", "gl_elements", "has_property_D", "invariant_rows",
    "is_camina_centralizer", "is_camina_vanishing",
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


# Names groupchar exports that no code in src/, demos/ or perfbench/ reads:
UNUSED_EXPORTS = {
    # the public split-extension constructor; the library builds its own
    # extensions through `constructors._semidirect`, under their own labels
    "semidirect_product",
}


def _reads(path: Path, names: set[str]) -> set[str]:
    """The names of ``names`` that one module reads, as a bare name or an
    attribute, outside the function or class of that name; an import or an
    ``__all__`` string is not a read."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in names and name not in defining:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_export_is_read_outside_the_tests():
    """An export that only tests reach leaves `src/`; a check it made
    moves to tests/oracles.py."""
    exported, read = _public(groupchar), set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= _reads(path, exported)
    assert exported - read == UNUSED_EXPORTS


# The only functions that write into a ``_cache`` directly: the memo route,
# the maker of normal subgroups (which seeds the class mask), and the class
# sharing of a byte-equal group (which seeds the classes from its twin's).
CACHE_WRITERS = {"groups._memo", "groups.Group._normal", "groups.Group._adopt_classes"}


def _functions_where(path: Path, hit) -> set[str]:
    """The qualified names of the functions of one module that hold a node
    for which ``hit`` is true."""
    found, scope = set(), [path.stem]

    class Visitor(ast.NodeVisitor):
        def visit_scope(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_FunctionDef = visit_ClassDef = visit_scope

        def generic_visit(self, node):
            if hit(node):
                found.add(".".join(scope))
            super().generic_visit(node)

    Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def _writes_cache(node) -> bool:
    """An assignment into ``<expr>._cache[...]``."""
    return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "_cache")


def test_cached_facts_are_filled_only_by_the_memo_route():
    owner = {}  # writing function -> the allowed writer it lies in, or None
    for path in sorted((ROOT / "src" / "groupchar").glob("*.py")):
        for f in _functions_where(path, _writes_cache):
            owner[f] = next((w for w in CACHE_WRITERS if f == w or f.startswith(w + ".")), None)
    outside = sorted(f for f, w in owner.items() if w is None)
    assert not outside, f"fill these through groups._memo: {outside}"
    assert set(owner.values()) == CACHE_WRITERS  # the scan still sees the allowed writes


# The only functions that make a `Group` from another group's table, a copy
# that renames a finished group:
RELABEL_COPIES = {
    # the image that `Group.quotient` builds and names, renamed "XoY";
    # `quotient` stays, and `perfbench/tracer.py` times it
    "constructors.central_product",
    # the last of a chain of central products, renamed "ES<order><sign>"
    "constructors.extraspecial_2",
}


def _copies_a_table(node) -> bool:
    """A call ``Group(<expr>.mul, ...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Group"):
        return False
    tables = node.args[:1] + [k.value for k in node.keywords if k.arg == "mul"]
    return any(isinstance(t, ast.Attribute) and t.attr == "mul" for t in tables)


def test_no_group_is_copied_only_to_rename_it():
    copies = set()
    for path in sorted((ROOT / "src" / "groupchar").glob("*.py")):
        copies |= _functions_where(path, _copies_a_table)
    assert copies == RELABEL_COPIES, "build the table once, under its own label"


def _validates(node) -> bool:
    """A call ``Group(...)`` without ``validate=False``: it runs Light's
    associativity test."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Group"
            and not any(k.arg == "validate" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in node.keywords))


def test_associativity_is_checked_only_on_a_table_the_library_did_not_make():
    """Light's test guards a Cayley file; every table `src/` builds is a
    group by construction and passes ``validate=False``."""
    paths = sorted((ROOT / "src" / "groupchar").glob("*.py"))
    calls = [node for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _validates(node)]
    sites = set().union(*(_functions_where(path, _validates) for path in paths))
    assert len(calls) == 1 and sites == {"groupio._load_cayley"}


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


def test_the_hand_run_probes_still_run():
    """Nothing else runs ``tests/probes.py``, so a renamed internal that the
    probes wrap or call would break them silently.  One quick probe, run as
    by hand, goes through the shared harness and prints its frozen counts."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "probes.py"), "lattice", "C2^5"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "374 normals  meets    6531 (frontier   11968)" in run.stdout
