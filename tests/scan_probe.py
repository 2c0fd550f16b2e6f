"""Time the invariant-character scan over all 6912 corpus pairs, in a
fresh process.

    python3 tests/scan_probe.py [runs]

Each run (one by default) starts a fresh interpreter, which builds the 116
corpus groups and their normal lattices outside the timing, then runs
``ramification_scan_pair`` on every proper nontrivial normal subgroup of
each, as the Tier-1 ``triple_records`` fixture does.  It prints the pairs,
the records, the isomorphism searches run (``_find_isomorphism`` calls),
the wall seconds of the scan, and the share of the pairs and of the
seconds that ES128+ and ES128- take.  The pairs and the search counter are
those of ``tests/pool_counts.py``.  Times are wall seconds, so compare
two revisions run one after the other on one machine.  The file name keeps
pytest from collecting it.
"""

import os

# One core: pin native thread pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

# pool_counts puts src/ on the path.
from pool_counts import corpus_pairs, count_searches  # noqa: E402
from groupchar import ramification_scan_pair  # noqa: E402

HEAVY = ("ES128+", "ES128-")


def _scan() -> None:
    pairs = list(corpus_pairs())
    searches = count_searches()
    records, heavy_pairs, heavy_s = 0, 0, 0.0
    clock = time.perf_counter
    start = clock()
    for name, group, sub in pairs:
        t = clock()
        records += len(ramification_scan_pair(group, sub))
        if name in HEAVY:
            heavy_pairs += 1
            heavy_s += clock() - t
    seconds = clock() - start
    print(f"{len(pairs)} pairs  {records} records  {searches()} searches  {seconds:.3f} s"
          f"  ES128±: {heavy_pairs / len(pairs):.1%} of pairs, {heavy_s / seconds:.1%} of time",
          flush=True)


def main() -> None:
    if sys.argv[1:] == ["scan"]:
        _scan()
        return
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    for _ in range(runs):
        subprocess.run([sys.executable, __file__, "scan"], check=True)


if __name__ == "__main__":
    main()
