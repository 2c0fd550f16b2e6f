"""Time ``load_group`` on the ``requests`` permutation files.

    python3 tests/load_probe.py [SEED]

Writes the input files of one variant of the ``requests`` workload
(``perfbench/inputs.py``, seed 7 by default) to a temporary directory and
prints, for each ``<name>.perm.grp``, the best of five ``load_group`` times,
the group order and the number of generators the table walk of
``constructors._perm_group`` took.  The walk takes each next generator as
the least id it has not reached, the rule of ``Group.generators()``, so that
count is ``len(group.generators())``.  Times are wall seconds in one warm
process, so compare two revisions run one after the other on one machine.
The file name keeps pytest from collecting it.
"""

import importlib.util
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from groupchar import load_group  # noqa: E402

REPEATS = 5


def _inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    inputs = _inputs()
    total = 0.0
    with tempfile.TemporaryDirectory() as directory:
        inputs.write_inputs(Path(directory), seed)
        for name in inputs.GROUPS:
            path = Path(directory) / f"{name}.perm.grp"
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                group = load_group(path)
                best = min(best, time.perf_counter() - start)
            total += best
            print(f"{name:10s} {best * 1e3:7.2f} ms  order {group.order:4d}"
                  f"  {len(group.generators())} walk generators")
    print(f"{'total':10s} {total * 1e3:7.2f} ms")


if __name__ == "__main__":
    main()
