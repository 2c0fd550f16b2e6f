"""Benchmark for groupchar: end-to-end metrics per workload, or a traced run
for per-layer metrics.

    python3 perfbench/run.py --workload {corpus,triples,requests} \
        --seed N --seconds S --trace {0,1} [--full]

Run from a checkout: the program is imported from ``src/`` next to this
directory.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json`` (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``).

``--trace 0`` runs passes of fixed work (see ``workloads.py``) until
``--seconds`` of passes have run.  ``--trace 1`` runs an untraced, a
traced and an untraced pass, each on fresh inputs; the traced pass minus
the mean untraced pass is the tracing overhead.  All times are scaled to
a reference core speed measured during the run (``clock.py``).
``--full`` makes the ``triples`` pass cover all 6912 pairs instead of one
in eight.
"""

import os

# One core: pin native thread pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
IMPORT_REPEATS = 5
PREPARE_REPEATS = 3


def timed(clock, fn, *args, **kwargs):
    """fn(...) and the interval of now() it took."""
    start = clock.now()
    out = fn(*args, **kwargs)
    return out, (start, clock.now())


def import_spans(clock) -> list[tuple[float, float]]:
    """Fresh interpreters importing groupchar."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import groupchar"]
    return [timed(clock, subprocess.run, cmd, env=env, check=True)[1]
            for _ in range(IMPORT_REPEATS)]


def measure(workload, seconds: float, clock, ops) -> dict:
    """End-to-end metrics: passes of fixed work until the time is spent."""
    pending, prep_spans = [], []

    def prepare():
        inp, span = timed(clock, workload.prepare)
        pending.append(inp)
        prep_spans.append(span)

    for _ in range(PREPARE_REPEATS):
        prepare()
    pass_spans: list[tuple[float, float]] = []
    while sum(end - start for start, end in pass_spans) < seconds:
        if not pending:
            prepare()
        # pop() drops the last reference, so a used input (and everything
        # the program cached on it) is freed before the next pass.
        pass_spans.append(timed(clock, workload.run_pass, pending.pop(), ops)[1])
        gc.collect()

    def scaled(spans):
        return [clock.scaled(*span) for span in spans]

    passes = scaled(pass_spans)
    op_ms = [s * 1e3 for s in scaled(ops.intervals)]
    return {
        "setup_s": (statistics.median(scaled(import_spans(clock)))
                    + statistics.median(scaled(prep_spans))),
        "wall_s": statistics.median(passes),
        "ops_per_s": len(op_ms) / sum(passes),
        "op_ms.p50": float(np.percentile(op_ms, 50)),
        "op_ms.p90": float(np.percentile(op_ms, 90)),
        "op_ms.p99": float(np.percentile(op_ms, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload, clock, ops, trace_path: Path) -> dict:
    """Per-layer metrics from one traced pass between two untraced ones;
    the overhead is the traced pass minus the mean untraced pass.  Layer
    times are scaled by the traced pass's reference factor."""
    from tracer import Tracer

    tracer = Tracer(clock.now)

    def one_pass(trace=False):
        inp = workload.prepare()
        gc.collect()
        if trace:
            tracer.install()
        try:
            return timed(clock, workload.run_pass, inp, ops)[1]
        finally:
            if trace:
                tracer.uninstall()

    before = one_pass()
    traced_span = one_pass(trace=True)
    after = one_pass()
    traced_s = clock.scaled(*traced_span)
    untraced_s = (clock.scaled(*before) + clock.scaled(*after)) / 2
    factor = traced_s / (traced_span[1] - traced_span[0])

    metrics = {"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
               "trace.overhead_s": traced_s - untraced_s}
    for name, row in tracer.layers().items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.s"] = row["s"] * factor
        metrics[f"{name}.self_s"] = row["self_s"] * factor
    metrics.update(tracer.counters())
    tracer.write(trace_path, metrics)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "triples", "requests"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)
    if args.full and args.workload != "triples":
        parser.error("--full applies to the triples workload only")

    if not (SRC / "groupchar" / "__init__.py").is_file():
        print(f"error: no groupchar sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    import groupchar
    if Path(groupchar.__file__).resolve().parent != SRC / "groupchar":
        print(f"error: groupchar imported from {groupchar.__file__}", file=sys.stderr)
        return 2
    from clock import Clock
    from workloads import WORKLOADS, Ops

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, WORK, full=True) if args.full else cls(args.seed, WORK)
    clock = Clock()
    ops = Ops(clock)
    clock.start()
    try:
        if args.trace:
            values = traced(workload, clock, ops, WORK / f"trace-{args.workload}.json")
        else:
            values = measure(workload, args.seconds, clock, ops)
    finally:
        clock.stop()
        workload.close()

    if not args.trace and {m["name"] for m in wanted} - values.keys():
        print("error: BENCHMARK.json names an end-to-end metric this script "
              "does not measure", file=sys.stderr)
        return 2
    # A layer that was never called has no span: its counts and times are 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": ops.failed == 0 and ops.errors == 0,
        "attempted": len(ops.intervals),
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
