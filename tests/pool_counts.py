"""Print the tables built and transported per pass, with the cyclic garbage
collector on and off.

    python3 tests/pool_counts.py

For each collector setting, one fresh interpreter runs two ``run_corpus()``
passes and another the scan over every corpus pair: the 116 corpus groups
are built and kept, then ``ramification_scan_pair`` runs on each proper
nontrivial normal subgroup of each, as the Tier-1 ``triple_records``
fixture does.  Each line gives the pass, the ``chartable.table_counts``
it added as built/transported, and the isomorphism searches it ran
(``_find_isomorphism`` calls).  Counts that differ between the two
settings depend on when the collector frees a group's table.
The file name keeps pytest from collecting it.
"""

import gc
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from groupchar import build_corpus, ramification_scan_pair, run_corpus  # noqa: E402
from groupchar import chartable  # noqa: E402


def corpus_pairs():
    """Yield (name, G, N) for each proper nontrivial normal subgroup N of
    each corpus group G: all 116 groups are built first, and each G's
    normal lattice when its turn comes."""
    groups = [(entry.name, entry.build()) for entry in build_corpus()]
    for name, group in groups:
        for sub in group.normal_subgroups():
            if 1 < sub.order < group.order:
                yield name, group, sub


def count_searches():
    """Count the ``_find_isomorphism`` calls from now on; return a reader
    of the count."""
    searches = 0
    search = chartable._find_isomorphism

    def counted(h, s):
        nonlocal searches
        searches += 1
        return search(h, s)

    chartable._find_isomorphism = counted
    return lambda: searches


def _pair_scan() -> None:
    for _, group, sub in corpus_pairs():
        ramification_scan_pair(group, sub)


PASSES = {"corpus": (("corpus 1", run_corpus), ("corpus 2", run_corpus)),
          "pairs": (("pair scan", _pair_scan),)}


def _passes(collector: str, job: str) -> None:
    """Run the passes of ``job`` in this interpreter and print their counts."""
    if collector == "off":
        gc.disable()
    searches = count_searches()
    for name, run in PASSES[job]:
        before, searched = dict(chartable.table_counts), searches()
        run()
        built = chartable.table_counts["built"] - before["built"]
        moved = chartable.table_counts["transported"] - before["transported"]
        print(f"collector {collector:3}  {name:9}  {built:4} built / {moved:4} transported"
              f"  {searches() - searched:4} searches", flush=True)


def main() -> None:
    if len(sys.argv) > 1:
        _passes(*sys.argv[1:])
        return
    for collector in ("on", "off"):
        for job in PASSES:
            subprocess.run([sys.executable, __file__, collector, job], check=True)


if __name__ == "__main__":
    main()
