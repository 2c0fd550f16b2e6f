"""Time the table build of a few large groups, one fresh process each, and
check that a cyclic group past the cell bound is refused early.

    python3 tests/table_probe.py

For each of C127 (the largest cyclic group ``TABLE_CELL_BOUND`` admits),
AGL(1, 23) and C2^8 it runs ``chartable._build_table`` in a subprocess of
its own, so that no group's arrays set another's peak, and prints the build
seconds and the peak resident set of that process (numpy and the library
imported included).  The last line builds C251 in a subprocess where
``dixon_prime``, the first step after the cell check, fails if reached: the
build must raise ``BoundExceeded`` before any table array is made.
Times are wall seconds, so compare two revisions run one after the other
on one machine.  The file name keeps pytest from collecting it.
"""

import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from groupchar import abelian, agl1, chartable, cyclic  # noqa: E402
from groupchar.errors import BoundExceeded  # noqa: E402

GROUPS = {
    "C127": lambda: cyclic(127),
    "AGL1(23)": lambda: agl1(23),
    "C2^8": lambda: abelian([2] * 8),
}


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _build(name: str) -> None:
    group = GROUPS[name]()
    start = time.perf_counter()
    chartable._build_table(group)
    print(f"{name:10s} {time.perf_counter() - start:6.3f} s  {_peak_mb():6.1f} MB peak RSS")


def _refuse() -> None:
    def reached(*args):
        raise AssertionError("the build went past the cell check")

    chartable.dixon_prime = reached
    try:
        chartable._build_table(cyclic(251))
    except BoundExceeded as exc:
        print(f"C251       refused before any table array: {exc}")
        return
    raise AssertionError("C251 was not refused")


def main() -> None:
    if len(sys.argv) > 1:
        _refuse() if sys.argv[1] == "C251" else _build(sys.argv[1])
        return
    for name in (*GROUPS, "C251"):
        subprocess.run([sys.executable, __file__, name], check=True)


if __name__ == "__main__":
    main()
