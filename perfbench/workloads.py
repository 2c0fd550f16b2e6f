"""The three workloads.  Each is a closed loop with one client in this
process, built from a ``prepare`` step (fresh inputs, timed as set-up) and
a ``run_pass`` step (one pass of fixed work, timed), which checks every
output it produces against the digests recorded in ``expected/``.

* ``corpus``: one op is one full ``run_corpus()``; it rebuilds every entry
  from scratch, so passes share no group objects.
* ``triples``: fresh corpus groups; the pass enumerates all 6912 proper
  normal pairs, then runs ``ramification_scan_pair`` on every
  ``STRIDE``-th pair of each parent (seeded offset per parent).  One op is
  one pair.  Pairs are sorted by subgroup order, so the sample keeps the
  full scan's mix of subgroup sizes.
* ``requests``: the seeded files of ``inputs.py``; one op is one in-process
  ``groupchar`` CLI request, which re-reads its file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

import groupchar
import groupchar.cli
import inputs

EXPECTED = Path(__file__).resolve().parent / "expected"
STRIDE = 8

# Frozen corpus totals: groups, normal pairs, Camina pairs, pairs
# classified, Type3 witnesses.
CORPUS_TOTALS = {
    "groups-checked": 116,
    "normal-pairs": 6912,
    "camina-pairs": 40,
    "pairs-classified": 286,
    "type3-witnesses": 0,
}
TRIPLE_PAIRS = 6912
TRIPLE_RECORDS = 60782


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def records_digest(records: list[dict]) -> str:
    return f"{len(records)}:{digest(json.dumps(records, sort_keys=True))}"


def corpus_totals_ok(report: str) -> bool:
    tail = dict(line.partition(" = ")[::2] for line in report.splitlines()[-5:])
    return tail == {k: str(v) for k, v in CORPUS_TOTALS.items()}


def _load(name: str) -> dict:
    return json.loads((EXPECTED / name).read_text())


class Ops:
    """The time interval of each op of one run, and which ops failed."""

    def __init__(self, clock):
        self.clock = clock
        self.intervals: list[tuple[float, float]] = []
        self.failed_ops: set[int] = set()
        self.errors = 0  # failed checks that belong to no single op

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def call(self, fn, *args):
        """Time one op; an exception fails it and returns None."""
        start = self.clock.now()
        try:
            return fn(*args)
        except Exception:
            self.failed_ops.add(len(self.intervals))
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.intervals.append((start, self.clock.now()))

    def check(self, ok: bool, what: str, *, op: bool = True) -> None:
        """Fail the op timed last on a wrong output (or, with ``op=False``,
        the run as a whole)."""
        if ok:
            return
        print(f"check failed: {what}", file=sys.stderr)
        if op:
            self.failed_ops.add(len(self.intervals) - 1)
        else:
            self.errors += 1


class Corpus:
    def __init__(self, seed: int, workdir: Path):
        self.expected = _load("corpus.json")

    def prepare(self):
        return None

    def run_pass(self, _inputs, ops: Ops) -> None:
        report = ops.call(groupchar.run_corpus)
        if report is None:
            return
        ops.check(corpus_totals_ok(report), "corpus totals")
        ops.check(digest(report) == self.expected["report"], "corpus report digest")

    def close(self) -> None:
        pass


class Triples:
    def __init__(self, seed: int, workdir: Path, full: bool = False):
        expected = _load("triples.json")
        self.expected = {name: row.split() for name, row in expected.items()}
        counts = [int(d.split(":")[0]) for row in self.expected.values() for d in row]
        if len(counts) != TRIPLE_PAIRS or sum(counts) != TRIPLE_RECORDS:
            raise ValueError("expected/triples.json does not hold the frozen totals")
        self.offsets = np.random.default_rng(seed).integers(0, STRIDE, len(self.expected))
        self.stride = 1 if full else STRIDE

    def prepare(self):
        return [(entry.name, entry.build()) for entry in groupchar.build_corpus()]

    def run_pass(self, groups, ops: Ops) -> None:
        pairs = []
        for k, (name, group) in enumerate(groups):
            normals = [n for n in group.normal_subgroups() if 1 < n.order < group.order]
            pairs += [(name, i, group, n) for i, n in enumerate(normals)
                      if i % self.stride == self.offsets[k] % self.stride]
            ops.check(len(normals) == len(self.expected[name]),
                      f"{name}: {len(normals)} proper normal subgroups", op=False)
        for name, i, group, sub in pairs:
            records = ops.call(groupchar.ramification_scan_pair, group, sub)
            want = self.expected[name]
            if records is not None:
                ops.check(i < len(want) and records_digest(records) == want[i],
                          f"{name} pair {i} records")

    def close(self) -> None:
        pass


def run_request(argv: list[str]) -> tuple[int, str]:
    """One in-process ``groupchar`` invocation: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = groupchar.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Requests:
    def __init__(self, seed: int, workdir: Path):
        self.variant = seed % inputs.VARIANTS
        self.expected = _load("requests.json")[str(self.variant)]
        self.rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=f"requests-{seed}-", dir=workdir))
        self.made = 0

    def prepare(self):
        self.made += 1
        directory = self.root / str(self.made)
        directory.mkdir()
        return inputs.write_inputs(directory, self.variant)

    def run_pass(self, requests, ops: Ops) -> None:
        ops.check(sorted(rid for rid, _ in requests) == sorted(self.expected),
                  "request list differs from the recorded one", op=False)
        for j in self.rng.permutation(len(requests)):
            rid, argv = requests[j]
            result = ops.call(run_request, argv)
            if result is not None:
                code, stdout = result
                ops.check(code == 0 and digest(stdout) == self.expected.get(rid),
                          f"{rid}: exit {code}")

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {"corpus": Corpus, "triples": Triples, "requests": Requests}
