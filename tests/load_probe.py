"""Time the two permutation closures of the ``requests`` workload.

    python3 tests/load_probe.py [SEED]

Writes the input files of one variant of the ``requests`` workload
(``perfbench/inputs.py``, seed 7 by default) to a temporary directory.  For
each ``<name>.perm.grp`` it prints the best of five ``load_group`` times,
the group order and the number of generators the table walk of
``constructors._perm_group`` took.  The walk takes each next generator as
the least id it has not reached, the rule of ``Group.generators()``, so that
count is ``len(group.generators())``.  For each ``<name>.gens`` matrix
action it prints the best of five times of ``LinearAction._close_group``
(the action built once, so vector permutations and rank checks are not
timed) and the group order.  Each part ends with a total line.  Both parts
run ``constructors._dimino_closure``.  Times are wall seconds in one warm
process, so compare two revisions run one after the other on one machine.
The file name keeps pytest from collecting it.
"""

import importlib.util
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from groupchar import LinearAction, load_group  # noqa: E402

REPEATS = 5


def _inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _best(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    inputs = _inputs()
    with tempfile.TemporaryDirectory() as directory:
        inputs.write_inputs(Path(directory), seed)
        total = 0.0
        for name in inputs.GROUPS:
            path = Path(directory) / f"{name}.perm.grp"
            best = _best(lambda: load_group(path))
            group = load_group(path)
            total += best
            print(f"{name:10s} {best * 1e3:7.2f} ms  order {group.order:4d}"
                  f"  {len(group.generators())} walk generators")
        print(f"{'total':10s} {total * 1e3:7.2f} ms")
        total = 0.0
        for name, (p, n, _) in inputs.ORBITS.items():
            path = Path(directory) / f"{name}.gens"
            gens = [np.array(line.split(), dtype=np.int64).reshape(n, n)
                    for line in path.read_text().splitlines()]
            action = LinearAction(p, n, gens)
            best = _best(action._close_group)
            total += best
            print(f"{name:18s} {best * 1e3:7.2f} ms  order {action.group_order:6d}")
        print(f"{'actions total':18s} {total * 1e3:7.2f} ms")


if __name__ == "__main__":
    main()
