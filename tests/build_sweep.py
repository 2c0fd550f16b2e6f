"""Build the table of every distinct normal subgroup of the corpus and print
one digest over all of them.

    python3 tests/build_sweep.py

Walks the corpus entries in order and each entry's normal subgroups in
order.  The first time a Cayley table (``as_group().mul``) is met, its
character table is built by the class-algebra split (``_build_table``:
never transported, never cached).  Each table's digest is the sha256 of
its coefficient bytes followed by ``repr((prime, root, shape))``; the
script prints the number of tables and the first 16 hex digits of the
sha256 of the sorted per-table hex digests, joined.  A change to the build
that keeps this line keeps the bytes of every table the pipeline can meet.
A second line counts the split's work over these builds: its block splits
(``_split_block`` calls) and the nullspaces taken by roots whose projected
probes fell short (``nullspace_mod`` calls).  Only calls made inside the
script's own ``_build_table`` calls count, not those of the parents' tables
that ``normal_subgroups()`` builds through the pool: how many of those are
built depends on when the garbage collector runs.
The file name keeps pytest from collecting it.
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from groupchar import build_corpus  # noqa: E402
from groupchar import chartable  # noqa: E402


def _counted(name: str, counts: dict) -> None:
    """Count the calls of ``chartable.<name>`` in ``counts[name]`` while
    ``counts["sweep"]`` is set."""
    fn = getattr(chartable, name)

    def counted(*args):
        if counts["sweep"]:
            counts[name] += 1
        return fn(*args)
    counts[name] = 0
    setattr(chartable, name, counted)


def main() -> None:
    counts = {"sweep": False}
    for name in ("_split_block", "nullspace_mod"):
        _counted(name, counts)
    start = time.perf_counter()
    seen: set[bytes] = set()
    digests = []
    for entry in build_corpus():
        for sub in entry.build().normal_subgroups():
            group = sub.as_group()
            key = group.mul.tobytes()
            if key in seen:
                continue
            seen.add(key)
            counts["sweep"] = True
            t = chartable._build_table(group)
            counts["sweep"] = False
            tail = repr((t.prime, t.root, t._coeffs.shape)).encode()
            digests.append(hashlib.sha256(t._coeffs.tobytes() + tail).hexdigest())
    total = hashlib.sha256("".join(sorted(digests)).encode()).hexdigest()
    print(f"{len(digests)} tables  {total[:16]}  "
          f"({time.perf_counter() - start:.1f} s)")
    print(f"{counts['_split_block']} block splits  "
          f"{counts['nullspace_mod']} nullspaces")


if __name__ == "__main__":
    main()
