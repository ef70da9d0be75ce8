"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload moduli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The exit code is 1 when any verdict, witness or digest is
wrong, and 2 when the checkout holds no ``src/tristack``. Traces and a
full result file go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import layers

WORKLOADS = ("moduli", "stacks", "cli")
SETUP_TIMEOUT_S = 60
E2E_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "answered_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and print it; no questions")
    return p.parse_args(argv)


def fresh_setups(args, count):
    """Set-up seconds of ``count`` fresh processes, each importing and building as this run does."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(count):
        proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def measure(workload, questions, seconds, trace, digests):
    """Whole passes until the measured time reaches ``seconds``.

    A traced run alternates untraced and traced passes, so the per-layer
    numbers and the tracing overhead come from the same run.
    """
    plain_passes, traced_passes = [], []
    tracer = harness.Tracer()
    k = 0
    while True:
        if trace and k % 2 == 1:
            traced_passes.append(harness.run_pass(workload, questions, k, tracer, digests))
        else:
            plain_passes.append(harness.run_pass(workload, questions, k, harness.NullTracer(), digests))
        k += 1
        measured = sum(r.wall for r in plain_passes + traced_passes)
        if measured >= seconds and (traced_passes or not trace):
            return plain_passes, traced_passes, tracer


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "tristack" / "__init__.py").is_file():
        print(f"perfbench: {src / 'tristack'} not found; run from a tristack checkout", file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    sys.path.insert(0, str(src))
    # import from cached byte code, as an installed package would
    sys.dont_write_bytecode = False

    variant_of = harness.variant_picker(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": harness.timed_setup(args.workload, variant_of)[2]}))
        return 0
    # Set-up costs its first use of every import, so each sample is a fresh
    # process; this run's own set-up comes last and is one of them.
    setup_samples = fresh_setups(args, harness.SETUP_SAMPLES - 1)
    workload, questions, own_setup_s = harness.timed_setup(args.workload, variant_of)
    setup_samples.append(own_setup_s)
    setup_s = statistics.median(setup_samples)

    digests = harness.load_digests(args.workload)
    plain_passes, traced_passes, tracer = measure(workload, questions, args.seconds, args.trace, digests)
    everything = plain_passes + traced_passes

    attempted = sum(len(r.latencies) for r in everything)
    failed_total = sum(len(r.errors) for r in everything)
    problems = [p for r in everything for p in r.problems]
    correct = not problems
    e2e = harness.end_to_end(plain_passes)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = harness.peak_rss_mb()
    stamp = harness.stamp(args.workload, args.seed)
    result = {
        "stamp": stamp,
        "questions_per_pass": len(questions),
        "passes": {"untraced": len(plain_passes), "traced": len(traced_passes)},
        "setup_samples_s": setup_samples,
        "failed_share": failed_total / attempted,
        "failures": sorted({f"{qid}: {err}" for r in everything for qid, err in r.errors}),
        "problems": [f"{qid}: {msg}" for qid, msg in problems],
        "digests_checked": sum(r.checked for r in everything),
        "end_to_end": e2e,
        "question_ms": harness.question_ms(questions, plain_passes),
    }

    if args.trace:
        per_layer = {name: 0.0 for name, _, _ in layers.registry()}
        per_layer.update(tracer.layer_totals(len(traced_passes)))
        per_layer.update(workload.work_counts(questions))
        extras = getattr(workload, "trace_extras", None)
        if extras:
            per_layer.update(extras())
        plain_time = statistics.median(sum(r.spent) for r in plain_passes)
        traced_time = statistics.median(sum(r.spent) for r in traced_passes)
        per_layer["trace.overhead_pct"] = 100.0 * (traced_time / plain_time - 1.0)
        # every span also counts calls and failures; the CLI's stay in the result file only
        reported = {name for name, _, _ in layers.registry()}
        unknown = sorted(n for n in per_layer if n not in reported and not n.endswith((".calls", ".failed")))
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from the registry: {unknown}")
        result["per_layer"] = per_layer
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit, _ in layers.registry()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    with open(out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, unit in E2E_UNITS.items():
        print(f"{name} {e2e[name]!r} {unit}")
    for name in ("verdicts_per_s", "verdict_ms_p50", "verdict_ms_p90"):
        print(f"unscaled_{name} {e2e['unscaled_' + name]!r} {E2E_UNITS[name]}")
    print(f"failed_share {result['failed_share']!r} ratio")
    for line in result["failures"]:
        print(f"failed: {line}")
    for line in result["problems"]:
        print(f"WRONG: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed_total, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
