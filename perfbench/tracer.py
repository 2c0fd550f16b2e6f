"""Outside-in tracing of groupchar's public functions, for traced runs only.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper at
every module binding inside the ``groupchar`` package (names are imported
by value, e.g. ``corpus.compute_table``), and each method on its class.
A wrapper records one span (name, start, end, parent span) per call and
feeds the counters below; ``uninstall`` puts the originals back.  Spans
stay in memory until ``write``.

Self time of a span is its duration minus the time covered by its direct
child spans (the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# metric prefix -> (module, qualified name)
TARGETS = {
    "groups.Group.init": ("groupchar.groups", "Group.__init__"),
    "groups.normal_subgroups": ("groupchar.groups", "Group.normal_subgroups"),
    "groups.minimal_normal_subgroups": ("groupchar.groups", "Group.minimal_normal_subgroups"),
    "groups.Group.quotient": ("groupchar.groups", "Group.quotient"),
    "groups.Subgroup.as_group": ("groupchar.groups", "Subgroup.as_group"),
    "chartable.compute_table": ("groupchar.chartable", "compute_table"),
    "chartable.verify_table": ("groupchar.chartable", "verify_table"),
    "chartable.restriction_multiplicities": ("groupchar.chartable", "restriction_multiplicities"),
    "modlinalg.rref_mod": ("groupchar._modlinalg", "rref_mod"),
    "modlinalg.charpoly_mod": ("groupchar._modlinalg", "charpoly_mod"),
    "modlinalg.nullspace_mod": ("groupchar._modlinalg", "nullspace_mod"),
    "modlinalg.poly_roots_mod": ("groupchar._modlinalg", "poly_roots_mod"),
    "pairs.camina_pair": ("groupchar.pairs", "camina_pair"),
    "pairs.is_camina_centralizer": ("groupchar.pairs", "is_camina_centralizer"),
    "pairs.is_camina_vanishing": ("groupchar.pairs", "is_camina_vanishing"),
    "pairs.classify_pair": ("groupchar.pairs", "classify_pair"),
    "pairs.residual_case": ("groupchar.pairs", "residual_case"),
    "pairs.distinct_nonlinear_scan": ("groupchar.pairs", "distinct_nonlinear_scan"),
    "clifford.ramification_scan_pair": ("groupchar.clifford", "ramification_scan_pair"),
    "clifford.invariant_rows": ("groupchar.clifford", "invariant_rows"),
    "clifford.quotient_class": ("groupchar.clifford", "quotient_class"),
    "clifford.ramification_report": ("groupchar.clifford", "ramification_report"),
    "actions.LinearAction.init": ("groupchar.actions", "LinearAction.__init__"),
    "actions.LinearAction.orbits": ("groupchar.actions", "LinearAction.orbits"),
    "groupio.load_group": ("groupchar.groupio", "load_group"),
    "corpus.run_corpus": ("groupchar.corpus", "run_corpus"),
    "cli.main": ("groupchar.cli", "main"),
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._groups: dict[int, object] = {}  # id -> Group, kept alive so ids stay unique
        self._tables: set[bytes] = set()

    # -- counters fed by the wrappers ---------------------------------------

    def _before(self, label: str, args, kwargs) -> None:
        if label == "chartable.compute_table":
            group = args[0] if args else kwargs["group"]
            if id(group) not in self._groups:
                self._groups[id(group)] = group
                self.counts["chartable.compute_table.builds"] += 1
                self._tables.add(group.mul.tobytes())
        elif label == "groupio.load_group":
            self.counts["groupio.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _after(self, label: str, args, result) -> None:
        if label == "groups.normal_subgroups":
            self.counts["groups.normal_subgroups.lattice_size"] += len(result)
        elif label == "actions.LinearAction.init":
            self.counts["actions.group_order.sum"] += args[0].group_order
        elif label == "cli.main":
            self.counts[f"cli.exit_code.{result}"] += 1

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        before, after = self._before, self._after

        def wrapper(*args, **kwargs):
            before(label, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (label, start, clock(), parent)
                stack.pop()
            after(label, args, result)
            return result

        return wrapper

    def _count_constructions(self, init):
        counts = self.counts

        def wrapper(self_, *args, **kwargs):
            counts["cyclotomic.Cyclotomic.constructed"] += 1
            init(self_, *args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "groupchar" or name.startswith("groupchar.")]
        for label, (module_name, qualname) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, attr, self._wrap(label, getattr(cls, attr)))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(label, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        cyclotomic = sys.modules["groupchar.cyclotomic"].Cyclotomic
        self._replace(cyclotomic, "__init__", self._count_constructions(cyclotomic.__init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._groups.clear()

    # -- reporting -------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost calls of that
        name only) and self seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for label, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (label, start, end, parent) in enumerate(spans):
            row = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - covered[i]
            while parent >= 0 and spans[parent][0] != label:
                parent = spans[parent][3]
            if parent < 0:
                row["s"] += end - start
        return out

    def counters(self) -> dict[str, float]:
        out = dict(self.counts)
        builds = out.get("chartable.compute_table.builds", 0)
        out["chartable.distinct_tables"] = len(self._tables)
        out["chartable.build_reuse_ratio"] = len(self._tables) / builds if builds else 1.0
        return out

    def write(self, path: Path, metrics: dict) -> None:
        """Spans as [name index, start, end, parent] rows (unscaled seconds
        from the first span), plus the run's per-layer metrics."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "spans": [[index[label], round(start - t0, 7), round(end - t0, 7), parent]
                      for label, start, end, parent in self.spans],
            "metrics": metrics,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
