"""Record the verdict-and-witness digest of every question variant.

    python3 perfbench/record_digests.py [moduli] [stacks] [cli]

Runs each question once for every input variant and rewrites the named
workloads' entries in digests.json. Run it from the root of a checkout,
and only in a change that edits the benchmark: the recorded digests are
what later runs must reproduce. A question that raises is recorded as
null and is then checked only against its known answer.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import harness

WORKLOADS = ("moduli", "stacks", "cli")


def record(name):
    workload = importlib.import_module(f"workload_{name}")
    table = {}
    for v in range(harness.VARIANTS):
        questions = workload.build(harness.fixed_variant(v))
        got = {}
        result = harness.run_pass(workload, questions, 0, harness.NullTracer(), {}, record=got)
        if result.problems:
            raise SystemExit(f"{name} variant {v}: wrong answers {result.problems}")
        for q in questions:
            table.setdefault(q.qid, [None] * harness.VARIANTS)[v] = got[q.qid]
        print(f"{name} variant {v}: {len(questions)} questions, {len(result.errors)} raised", flush=True)
    return table


def _format(digests):
    """One line per question, so a re-recording shows as a readable diff."""
    blocks = []
    for name in sorted(digests):
        rows = [f"  {json.dumps(qid)}: {json.dumps(row)}" for qid, row in sorted(digests[name].items())]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv):
    names = argv or list(WORKLOADS)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    for name in names:
        table = record(name)
        try:
            with open(harness.DIGEST_FILE, encoding="utf-8") as fh:
                digests = json.load(fh)
        except FileNotFoundError:
            digests = {}
        digests[name] = table
        with open(harness.DIGEST_FILE, "w", encoding="utf-8") as fh:
            fh.write(_format(digests))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
