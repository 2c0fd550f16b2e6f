"""Hand-run probes of the exact pipeline: timings, call counts, table bytes
and the lines Tier-1 never runs.

    python3 tests/probes.py {table,load,lattice,scan,sweep,pools,coverage} [ARG]
    python3 tests/probes.py ab PARENT CHANGE LABEL [PAIRS [SEED]]

``load`` takes a seed (7 by default), ``scan`` a number of runs (1) and
``lattice`` one group to probe in this process; each probe's docstring says
what it prints.  ``ab`` compares two checkouts by the benchmark and by their
``pools`` and ``sweep`` lines, and writes ``BENCH_<LABEL>.json``.  Every
probe runs with native thread pools pinned to one thread, and imports what
it needs inside itself, so that a fresh child holds only its own probe's
modules.  Times are wall seconds, so compare two revisions run one after
the other on one machine.  The file name keeps pytest from collecting it.
"""

import os

# One core: pin native thread pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _fresh(*args: str) -> None:
    """Run this module with ``args`` (a probe name first) in a fresh
    interpreter.  It is imported by ``-m``: compiled as the main script, this
    file left a ``table`` child 0.6 MB more resident than a one-probe file."""
    subprocess.run([sys.executable, "-m", "probes", *args],
                   cwd=Path(__file__).parent, check=True)


def _best(call, repeats: int = 5) -> float:
    """The least wall seconds of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _count(module, name: str, when=lambda: True):
    """Count the calls of ``module.<name>`` made from now on while ``when()``
    holds; return a reader of the count."""
    fn, calls = getattr(module, name), 0

    def counted(*args):
        nonlocal calls
        calls += when()
        return fn(*args)
    setattr(module, name, counted)
    return lambda: calls


def corpus_pairs():
    """Yield (name, G, N) for each proper nontrivial normal subgroup N of
    each corpus group G: all 116 groups are built first, and each G's
    normal lattice when its turn comes."""
    from groupchar import build_corpus
    groups = [(entry.name, entry.build()) for entry in build_corpus()]
    for name, group in groups:
        for sub in group.normal_subgroups():
            if 1 < sub.order < group.order:
                yield name, group, sub


def table(name: str = "") -> None:
    """Build each group's table with ``chartable._build_table`` in a process
    of its own, so that no group's arrays set another's peak, and print the
    seconds and the peak RSS of that process (numpy and the library
    included).  C251 is built where ``dixon_prime``, the first step after
    the cell check, fails if reached: it must raise ``BoundExceeded`` before
    any table array is made."""
    import resource
    from groupchar import abelian, agl1, chartable, cyclic
    from groupchar.errors import BoundExceeded
    groups = {"C127": lambda: cyclic(127), "AGL1(23)": lambda: agl1(23),
              "C2^8": lambda: abelian([2] * 8)}
    if not name:
        for name in (*groups, "C251"):
            _fresh("table", name)
    elif name != "C251":
        group = groups[name]()
        start = time.perf_counter()
        chartable._build_table(group)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name:10s} {time.perf_counter() - start:6.3f} s  {peak:6.1f} MB peak RSS")
    else:
        def reached(*args):
            raise AssertionError("the build went past the cell check")
        chartable.dixon_prime = reached
        try:
            chartable._build_table(cyclic(251))
        except BoundExceeded as exc:
            print(f"C251       refused before any table array: {exc}")
            return
        raise AssertionError("C251 was not refused")


def load(seed: str = "7") -> None:
    """Write the inputs of one variant of the ``requests`` workload
    (``perfbench/inputs.py``) to a temporary directory.  For each
    ``<name>.perm.grp`` print the best ``load_group`` time, the order and
    ``len(group.generators())``, the generators the table walk of
    ``constructors._perm_group`` took (both take the least id not yet
    reached).  For each ``<name>.gens`` action print the best time of
    ``LinearAction._close_group``, the action built once, and the order."""
    import importlib.util
    import tempfile
    from groupchar import LinearAction, load_group
    from groupchar.groupio import _read_matrices
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    with tempfile.TemporaryDirectory() as directory:
        inputs.write_inputs(Path(directory), int(seed))
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
            action = LinearAction(p, n, _read_matrices(path, n))
            best = _best(action._close_group)
            total += best
            print(f"{name:18s} {best * 1e3:7.2f} ms  order {action.group_order:6d}")
        print(f"{'actions total':18s} {total * 1e3:7.2f} ms")


def lattice(name: str = "") -> None:
    """For ES128±, ES32+ and C2^5, one fresh process each, print the lattice
    size; the meets (one ``&`` of two class bitmasks) of the sweep over the
    distinct kernels and of the older frontier × kernels closure, both
    replayed on the table's kernels; and the best milliseconds of
    ``Group._normal_lattice`` unwrapped (no memo) on a group whose table is
    built, and of ``camina_verdicts`` once memoized."""
    import numpy as np
    from groupchar import Group, abelian, camina_verdicts, extraspecial_2
    from groupchar.chartable import compute_table
    groups = {"ES128+": lambda: extraspecial_2(3, "+"),
              "ES128-": lambda: extraspecial_2(3, "-"),
              "ES32+": lambda: extraspecial_2(2, "+"),
              "C2^5": lambda: abelian([2] * 5)}
    if not name:
        for name in groups:
            _fresh("lattice", name)
        return
    group = groups[name]()
    packed = np.packbits(compute_table(group)._kernel_mask, axis=1, bitorder="little")
    kernels = list({int.from_bytes(row.tobytes(), "little") for row in packed})
    found: set[int] = set()
    sweep = 0
    for ker in kernels:
        sweep += len(found)
        found |= {m & ker for m in found}
        found.add(ker)
    seen, front, frontier = set(kernels), list(kernels), 0
    while front:
        frontier += len(front) * len(kernels)
        fresh = {m & ker for m in front for ker in kernels} - seen
        seen |= fresh
        front = list(fresh)
    if seen != found or len(found) != len(group._normal_lattice()[1]):
        raise AssertionError(f"{name}: the replayed closures disagree with the lattice")
    closure = Group._normal_lattice.__wrapped__
    lattice_ms = 1e3 * _best(lambda: closure(group))
    camina_verdicts(group)
    camina_ms = 1e3 * _best(lambda: camina_verdicts(group))
    print(f"{name:7s} {len(found):5d} normals  meets {sweep:7d} (frontier {frontier:7d})  "
          f"_normal_lattice {lattice_ms:6.2f} ms  camina_verdicts {camina_ms:6.2f} ms")


def scan(runs: str = "1") -> None:
    """Each run, in a fresh process, builds the 116 corpus groups and their
    lattices outside the timing, then runs ``ramification_scan_pair`` on
    every corpus pair, as the Tier-1 ``triple_records`` fixture does.  Print
    the pairs, records, isomorphism searches (``_find_isomorphism`` calls),
    the scan's seconds and the share of the pairs and of the seconds that
    ES128± take.  ``scan here`` is one run in this process."""
    if runs != "here":
        for _ in range(int(runs)):
            _fresh("scan", "here")
        return
    from groupchar import chartable, ramification_scan_pair
    pairs = list(corpus_pairs())
    searches = _count(chartable, "_find_isomorphism")
    records, heavy_pairs, heavy_s = 0, 0, 0.0
    clock = time.perf_counter
    start = clock()
    for name, group, sub in pairs:
        t = clock()
        records += len(ramification_scan_pair(group, sub))
        if name in ("ES128+", "ES128-"):
            heavy_pairs += 1
            heavy_s += clock() - t
    seconds = clock() - start
    print(f"{len(pairs)} pairs  {records} records  {searches()} searches  {seconds:.3f} s"
          f"  ES128±: {heavy_pairs / len(pairs):.1%} of pairs, {heavy_s / seconds:.1%} of time",
          flush=True)


def sweep() -> None:
    """The first time a Cayley table is met, walking the corpus entries and
    each one's normal subgroups in order, build its character table with
    ``_build_table`` (never transported, never cached).  Print the tables
    and the first 16 hex digits of the sha256 of the sorted per-table
    digests, each the sha256 of the coefficient bytes and
    ``repr((prime, root, shape))``: a build that keeps this line keeps the
    bytes of every table the pipeline can meet.  Then the block splits and
    nullspaces made inside those builds; those of the parents' tables that
    ``normal_subgroups()`` builds depend on when the collector runs."""
    import hashlib
    from groupchar import build_corpus, chartable
    building = [False]
    splits = _count(chartable, "_split_block", when=lambda: building[0])
    nullspaces = _count(chartable, "nullspace_mod", when=lambda: building[0])
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
            building[0] = True
            t = chartable._build_table(group)
            building[0] = False
            tail = repr((t.prime, t.root, t._coeffs.shape)).encode()
            digests.append(hashlib.sha256(t._coeffs.tobytes() + tail).hexdigest())
    total = hashlib.sha256("".join(sorted(digests)).encode()).hexdigest()
    print(f"{len(digests)} tables  {total[:16]}  ({time.perf_counter() - start:.1f} s)")
    print(f"{splits()} block splits  {nullspaces()} nullspaces")


def pools(collector: str = "", job: str = "") -> None:
    """For each collector setting, one process runs two ``run_corpus()``
    passes and another the scan over every corpus pair.  Each line gives
    the pass, the ``chartable.table_counts`` it added as built/transported
    and its isomorphism searches.  Counts that differ between the two
    settings depend on when the collector frees a group's table."""
    if not collector:
        for collector in ("on", "off"):
            for job in ("corpus", "pairs"):
                _fresh("pools", collector, job)
        return
    import gc
    from groupchar import chartable, ramification_scan_pair, run_corpus

    def pair_scan():
        for _, group, sub in corpus_pairs():
            ramification_scan_pair(group, sub)
    passes = {"corpus": (("corpus 1", run_corpus), ("corpus 2", run_corpus)),
              "pairs": (("pair scan", pair_scan),)}
    if collector == "off":
        gc.disable()
    searches = _count(chartable, "_find_isomorphism")
    for name, run in passes[job]:
        before, searched = dict(chartable.table_counts), searches()
        run()
        built = chartable.table_counts["built"] - before["built"]
        moved = chartable.table_counts["transported"] - before["transported"]
        print(f"collector {collector:3}  {name:9}  {built:4} built / {moved:4} transported"
              f"  {searches() - searched:4} searches", flush=True)


def _tree_digest(root: Path, pattern: str) -> str:
    """The first 16 hex digits of the sha256 of the files under ``root``
    that match ``pattern``, names and bytes, in name order."""
    import hashlib
    digest = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def ab(parent: str, change: str, label: str, pairs: str = "6", seed: str = "1") -> None:
    """Compare two checkouts, PARENT and CHANGE, by ``perfbench/run.py
    --trace 0`` on ``corpus``, ``triples`` and ``requests``: PAIRS pairs (6)
    at one SEED (1), each run as long as ``BENCHMARK.json``'s
    ``run_seconds``, the side that runs first alternating from pair to
    pair, and every workload run once per side in each pair.  Each side runs
    its own ``perfbench``; the digests of both sides' ``src`` and
    ``perfbench`` files are recorded.  Write ``BENCH_<LABEL>.json`` at the
    root of this checkout: per workload and end-to-end metric of this
    checkout's ``BENCHMARK.json``, each side's values, median, quartiles and
    n; the change's wins and the parent's, ties counting for neither; the
    change's relative worsening of the median and the metric's bound, with
    pass or fail; and every run that exited nonzero, was not ``correct`` or
    had failed ops.  Print one line per workload and metric.  First each
    side's own ``pools`` and ``sweep`` probes run once; their lines go under
    ``"probes"``, and whether the two sides' lines agree, timings aside, is
    printed."""
    import json
    import re
    import statistics
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    probes = {}
    for probe in ("pools", "sweep"):
        lines = {}
        for side, path in sides.items():
            out = subprocess.run([sys.executable, "tests/probes.py", probe],
                                 cwd=path, capture_output=True, text=True)
            lines[side] = out.stdout.splitlines()
            if out.returncode:
                lines[side] += [f"exit {out.returncode}"] + out.stderr.splitlines()[-1:]
        untimed = [[re.sub(r"\s*\([\d.]+ s\)$", "", line) for line in lines[side]]
                   for side in sides]
        agree = untimed[0] == untimed[1]
        probes[probe] = {**lines, "agree": agree}
        print(f"probe {probe}: lines {'agree' if agree else 'DIFFER'}", flush=True)
    runs = {side: {w: [] for w in workloads} for side in sides}
    for i in range(int(pairs)):
        for w in workloads:
            for side in (sides if i % 2 == 0 else reversed(sides)):
                out = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", w, "--seed", seed,
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=sides[side], capture_output=True, text=True)
                result = (json.loads(out.stdout.splitlines()[-1]) if out.returncode == 0
                          else {"correct": False, "exit": out.returncode,
                                "stderr": out.stderr.strip().splitlines()[-1:]})
                runs[side][w].append(result)
                print(f"pair {i + 1} {w:8s} {side:6s} correct={result['correct']}", flush=True)

    def summary(values):
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
                "n": len(values)}

    report = {"label": label, "command": spec["command"] + ["--trace", "0"],
              "run_seconds": spec["run_seconds"], "seed": int(seed), "pairs": int(pairs),
              "sides": {side: {"src": _tree_digest(path, "src/groupchar/*.py"),
                               "perfbench": _tree_digest(path, "perfbench/*.py")}
                        for side, path in sides.items()},
              "probes": probes, "workloads": {}}
    for w in workloads:
        bad = [{"side": side, "pair": i + 1, **{k: v for k, v in run.items() if k != "metrics"}}
               for side in sides for i, run in enumerate(runs[side][w])
               if not run["correct"] or run.get("failed", 0)]
        metrics = {}
        for m in spec["end_to_end"]:
            value = {side: [run["metrics"][m["name"]]["value"] if "metrics" in run else None
                            for run in runs[side][w]] for side in sides}
            kept = [(p, c) for p, c in zip(value["parent"], value["change"])
                    if p is not None and c is not None]
            if not kept:
                continue
            sign = 1 if m["better"] == "lower" else -1
            par, chg = summary([p for p, _ in kept]), summary([c for _, c in kept])
            worse = sign * (chg["median"] - par["median"]) / par["median"]
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "parent": par, "change": chg,
                "change_wins": sum(sign * (c - p) < 0 for p, c in kept),
                "parent_wins": sum(sign * (c - p) > 0 for p, c in kept),
                "worsening": worse, "bound": m["bound"], "within_bound": worse <= m["bound"]}
            print(f"{w:8s} {m['name']:11s} {par['median']:10.4g} [{par['q1']:.4g}-{par['q3']:.4g}]"
                  f" -> {chg['median']:10.4g}  wins {metrics[m['name']]['change_wins']}/{len(kept)}"
                  f"  {worse:+7.1%} (bound {m['bound']:.0%})"
                  f"  {'pass' if worse <= m['bound'] else 'FAIL'}")
        report["workloads"][w] = {"metrics": metrics, "bad_runs": bad}
        print(f"{w:8s} {len(bad)} bad runs")
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(report, indent=1) + "\n")


# Lines that cannot run under the trace, keyed by file name and stripped
# source text, each with the reason.
NEVER_TRACED = {
    ("cli.py", "sys.exit(main())"):
        "runs only under __main__, which only a subprocess runs",
    ("corpus.py", "type3 += 1"):
        "the frozen corpus has type3-witnesses = 0",
}


def coverage() -> None:
    """Run Tier-1 under the stdlib ``trace`` module in this process and print
    each executable line of ``src/groupchar`` (``__init__.py`` aside) that
    never ran, as ``file:line: text``, then a count line, then a count of
    those not in ``NEVER_TRACED``.  Code that a test runs in a subprocess is
    not traced, so a few of these lines (CLI ones among them) may run after
    all."""
    import trace
    import pytest
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    ran = tracer.results().counts
    missed = total = listed = 0
    for path in sorted((ROOT / "src" / "groupchar").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8").splitlines()
        # Line 0 is the module's entry, which sends no line event.
        lines = sorted(filter(None, trace._find_executable_linenos(str(path))))
        total += len(lines)
        for line in lines:
            if (str(path), line) not in ran:
                missed += 1
                listed += (path.name, text[line - 1].strip()) in NEVER_TRACED
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran ({1 - missed / total:.1%} ran)")
    print(f"{missed - listed} of them are not in NEVER_TRACED")


PROBES = {probe.__name__: probe
          for probe in (table, load, lattice, scan, sweep, pools, coverage, ab)}


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in PROBES:
        sys.exit(__doc__)
    PROBES[sys.argv[1]](*sys.argv[2:])
