"""Time the normal-lattice closure and the Camina deciders on the largest
lattices, one fresh process per group.

    python3 tests/lattice_probe.py

For each of ES128+, ES128−, ES32+ and C2^5 it runs, in a subprocess of its
own: the lattice size; the number of meets (one ``&`` of two class
bitmasks) that a sweep over the distinct kernels performs, and that the
older frontier × kernels closure performed, both counted by replaying the
closures on the table's kernels; then the best of 5 wall milliseconds of
``Group._normal_lattice`` called unwrapped (no memo, so each call closes
the lattice again) on a group whose table is already built, and of
``pairs.camina_verdicts`` once its lattice and commutator counts are
memoized.  Times are wall milliseconds, so compare two revisions run one
after the other on one machine.  The file name keeps pytest from
collecting it.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from groupchar import Group, abelian, camina_verdicts, extraspecial_2  # noqa: E402
from groupchar.chartable import compute_table  # noqa: E402

GROUPS = {
    "ES128+": lambda: extraspecial_2(3, "+"),
    "ES128-": lambda: extraspecial_2(3, "-"),
    "ES32+": lambda: extraspecial_2(2, "+"),
    "C2^5": lambda: abelian([2] * 5),
}


def _meets(kernels: list[int]) -> tuple[int, int, int]:
    """(lattice size, meets of the sweep, meets of the frontier closure)."""
    found: set[int] = set()
    sweep = 0
    for ker in kernels:
        sweep += len(found)
        found |= {m & ker for m in found}
        found.add(ker)
    seen, frontier, frontier_meets = set(kernels), list(kernels), 0
    while frontier:
        frontier_meets += len(frontier) * len(kernels)
        fresh = {m & ker for m in frontier for ker in kernels} - seen
        seen |= fresh
        frontier = list(fresh)
    assert seen == found
    return len(found), sweep, frontier_meets


def _best_ms(call, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _probe(name: str) -> None:
    group = GROUPS[name]()
    packed = np.packbits(compute_table(group)._kernel_mask, axis=1, bitorder="little")
    kernels = list({int.from_bytes(row.tobytes(), "little") for row in packed})
    size, sweep, frontier = _meets(kernels)
    if size != len(group._normal_lattice()[1]):
        raise AssertionError(f"{name}: replayed closure has {size} rows")
    closure = Group._normal_lattice.__wrapped__
    lattice_ms = _best_ms(lambda: closure(group))
    camina_verdicts(group)
    camina_ms = _best_ms(lambda: camina_verdicts(group))
    print(f"{name:7s} {size:5d} normals  meets {sweep:7d} (frontier {frontier:7d})  "
          f"_normal_lattice {lattice_ms:6.2f} ms  camina_verdicts {camina_ms:6.2f} ms")


def main() -> None:
    if len(sys.argv) > 1:
        _probe(sys.argv[1])
        return
    for name in GROUPS:
        subprocess.run([sys.executable, __file__, name], check=True)


if __name__ == "__main__":
    main()
