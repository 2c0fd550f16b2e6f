"""The scripts under demos/ run to completion, in-process, and every
function the benchmark tracer wraps exists."""

from __future__ import annotations

import importlib
import importlib.util
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "classify_frobenius.py", "exact_table.py", "orbit_duplication.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_tracer_targets_resolve():
    """Each (module, qualified name) in ``perfbench/tracer.py`` names a
    callable, so renaming or removing a traced function fails here and not
    only in a traced benchmark run.  The tracer is executed from its source
    text, so nothing is written next to it."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_loader("perfbench_tracer", loader=None)
    tracer = importlib.util.module_from_spec(spec)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(tracer))
    assert tracer.TARGETS
    for label, (module_name, qualname) in tracer.TARGETS.items():
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{label}: {module_name}.{qualname} is gone"
        assert callable(owner), label
