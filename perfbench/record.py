"""Record the expected outputs that the benchmark checks against.

    python3 perfbench/record.py

Writes ``expected/corpus.json`` (digest of the corpus report),
``expected/triples.json`` (per corpus parent, the record count and digest
of ``ramification_scan_pair`` for each proper normal subgroup, in
``normal_subgroups`` order) and ``expected/requests.json`` (per input
variant, the stdout digest of each request).  Run it only at a commit
whose outputs are known good; the frozen totals are asserted here too.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import groupchar  # noqa: E402
import inputs  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED, TRIPLE_PAIRS, TRIPLE_RECORDS, corpus_totals_ok, digest,
    records_digest, run_request,
)


def record_corpus() -> dict:
    report = groupchar.run_corpus()
    if not corpus_totals_ok(report):
        raise SystemExit("corpus totals differ")
    return {"report": digest(report)}


def record_triples() -> dict:
    rows, pairs, records = {}, 0, 0
    for entry in groupchar.build_corpus():
        group = entry.build()
        row = []
        for sub in group.normal_subgroups():
            if 1 < sub.order < group.order:
                recs = groupchar.ramification_scan_pair(group, sub)
                row.append(records_digest(recs))
                records += len(recs)
        if entry.name in rows:
            raise SystemExit(f"duplicate corpus name {entry.name}")
        rows[entry.name] = " ".join(row)
        pairs += len(row)
    if (pairs, records) != (TRIPLE_PAIRS, TRIPLE_RECORDS):
        raise SystemExit(f"triple totals differ: {pairs} pairs, {records} records")
    return rows


def record_requests() -> dict:
    out = {}
    for variant in range(inputs.VARIANTS):
        (HERE / "work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
            digests = {}
            for rid, argv in inputs.write_inputs(Path(tmp), variant):
                code, stdout = run_request(argv)
                if code != 0:
                    raise SystemExit(f"variant {variant} {rid}: exit {code}")
                digests[rid] = digest(stdout)
        out[str(variant)] = digests
    return out


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for name, record in (("corpus", record_corpus), ("requests", record_requests),
                         ("triples", record_triples)):
        data = record()
        (EXPECTED / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote expected/{name}.json", file=sys.stderr)


if __name__ == "__main__":
    main()
