"""The scripts under demos/ run to completion, in-process."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "classify_frobenius.py", "exact_table.py", "orbit_duplication.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
