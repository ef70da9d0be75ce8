"""Closed-loop question runner, span tracer and metric assembly.

A workload module provides:

- ``build(variant_of)``: set-up. Generates and serializes every question
  of one pass; ``variant_of(qid)`` picks which of the ``VARIANTS`` input
  variants a question uses.
- ``ask(question, text, tracer)``: the timed part. Makes the library
  calls a user's question makes and returns the raw result.
- ``verdict(question, text, raw)``: after the pass, outside the timing. Returns
  ``(payload, problem)``: a JSON-able verdict-and-witness payload whose
  digest is compared with the recorded one, and ``None`` or the reason
  the answer is wrong.
- ``text_for_pass(question, k)``: the question's input for pass ``k``.
- ``work_counts(questions)``: per-pass counts computed from the inputs.

One client on one thread sends the next question only when the previous
verdict is back. Passes over the whole question list repeat until the
measured time reaches the requested seconds, so every run asks each
question the same number of times.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 16
SETUP_SAMPLES = 3  # fresh processes whose set-up times give setup_s's median
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Question:
    qid: str        # stable name, used in failure messages and the digest table
    kind: str       # selects the library calls
    text: object    # the input: JSON text (or argv for the cli workload)
    expect: object  # the known answer and whatever its checker needs
    variant: int


def variant_picker(seed: int):
    def variant_of(qid: str) -> int:
        digest = hashlib.sha256(f"{seed}:{qid}".encode()).digest()
        return int.from_bytes(digest[:4], "big") % VARIANTS

    return variant_of


def fixed_variant(v: int):
    return lambda qid: v


def digest(payload) -> str:
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    # per-pass id tags (see workload_moduli) are not part of the answer
    payload = re.sub(r"~\d+~", "~~", payload)
    return hashlib.sha256(payload.encode()).hexdigest()[:10]


def plain(value):
    """JSON-able form of a library verdict's witness, as the CLI reports it."""
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def load_digests(workload: str) -> dict:
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


# -- tracing -------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "name", "rung", "idx")

    def __init__(self, tracer, name, rung):
        self.tracer, self.name, self.rung = tracer, name, rung

    def __enter__(self):
        tr = self.tracer
        parent = tr.open[-1] if tr.open else None
        self.idx = len(tr.spans)
        # name, rung, question, start, end, parent, failed, child time
        rec = [self.name, self.rung, tr.question, 0.0, 0.0, parent, False, 0.0]
        tr.spans.append(rec)
        tr.open.append(self.idx)
        rec[3] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        rec = tr.spans[self.idx]
        rec[4] = end
        rec[6] = exc_type is not None
        tr.open.pop()
        if rec[5] is not None:
            tr.spans[rec[5]][7] += end - rec[3]
        return False


class Tracer:
    """Spans kept in memory: name, start, end, parent span and question id."""

    def __init__(self):
        self.spans = []
        self.open = []
        self.question = None

    def span(self, name, rung=None):
        return _Span(self, name, rung)

    def layer_totals(self, passes: int) -> dict:
        """Per-pass self time (scaled ms), calls and failures of every named span."""
        out = {}
        for name, rung, _, start, end, _, failed, child, scale in self.spans:
            if name == "question":
                continue
            self_ms = (end - start - child) * scale * 1000.0
            out[f"{name}.ms"] = out.get(f"{name}.ms", 0.0) + self_ms / passes
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1 / passes
            out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + (1 / passes if failed else 0)
            if rung:
                out[rung] = out.get(rung, 0.0) + self_ms / passes
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, rung, question, start, end, parent, failed, _, scale in self.spans:
                fh.write(json.dumps({
                    "name": name, "rung": rung, "question": question, "start": start,
                    "end": end, "parent": parent, "failed": failed, "scale": scale,
                }) + "\n")


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    _span = _NullSpan()
    question = None
    spans = ()

    def span(self, name, rung=None):
        return self._span


# -- machine speed ----------------------------------------------------------------
# The shared 2-core VM this benchmark was introduced on drifts by +-25 % in speed
# over seconds to minutes, and jumps within a second (other tenants share
# the host). Every timed interval is therefore scaled by REFERENCE_MS / r,
# where r is the time of a fixed kernel measured right around that interval:
# the run just before and the run just after a question tracked the jumps
# better than medians over three runs on each side. Times read as milliseconds
# at the typical speed of that machine, and a change to tristack cannot
# move r: the kernel uses only the standard library.

REFERENCE_MS = 1.6  # typical reference_ms() on the 2-core Xeon VM of the first runs
SPEED_WINDOW = 1    # kernel runs on each side of a question that set its scale
SETUP_SPEED_RUNS = 3  # kernel runs before and after a set-up that set its scale


_DOCUMENT = json.dumps([{"id": f"v{i}", "lengths": [f"{i % 97 + 1}/{j + 3}" for j in range(3)]} for i in range(400)])


def _kernel():
    """Fraction arithmetic, dict building and JSON parsing: the work mix of a question."""
    acc, table = Fraction(0), {}
    for i in range(1, 120):
        f = Fraction(i, 7) + Fraction(3, i + 1)
        table[(i, str(f))] = f
        acc += f
    rows = {row["id"]: tuple(row["lengths"]) for row in json.loads(_DOCUMENT)}
    return sorted(table.values())[0], acc, len(rows)


def reference_ms() -> float:
    """Time of the fixed kernel, with the collector paused."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return (time.perf_counter() - t0) * 1000.0
    finally:
        gc.enable()


def scale_of(refs, nominal=REFERENCE_MS) -> float:
    return nominal / statistics.median(refs)


# -- the question loop -----------------------------------------------------------


@dataclass
class PassResult:
    wall: float       # seconds the pass took, reference runs included
    latencies: list   # scaled seconds per question; None where the question raised
    spent: list       # scaled seconds per question, raised or not
    raw: list         # unscaled seconds per question
    problems: list    # (qid, message) for wrong answers
    errors: list      # (qid, exception name) for questions that raised
    checked: int      # answers compared with a recorded digest


def run_pass(workload, questions, k, tracer, digests, record=None) -> PassResult:
    """Ask every question once; then check the answers.

    A workload whose questions run outside this process brings its own
    ``reference_ms`` and ``REFERENCE_MS`` (``workload_cli`` does): the
    kernel here does not time process start-up, exec or disk.
    """
    measure = getattr(workload, "reference_ms", reference_ms)
    nominal = getattr(workload, "REFERENCE_MS", REFERENCE_MS)
    texts = [workload.text_for_pass(q, k) for q in questions]
    raws, refs, spans = [], [measure()], []
    pass_start = time.perf_counter()
    for q, text in zip(questions, texts):
        tracer.question = q.qid
        first = len(tracer.spans)
        with tracer.span("question"):
            t0 = time.perf_counter()
            try:
                raw, err = workload.ask(q, text, tracer), None
            except Exception as exc:  # a crash is a failed question, not a verdict
                raw, err = None, type(exc).__name__
            raws.append((raw, err, time.perf_counter() - t0))
        refs.append(measure())
        spans.append((first, len(tracer.spans)))
    wall = time.perf_counter() - pass_start

    scales = [
        scale_of(refs[max(0, i + 1 - SPEED_WINDOW): i + 1 + SPEED_WINDOW], nominal)
        for i in range(len(questions))
    ]
    for (first, stop), scale in zip(spans, scales):
        for rec in tracer.spans[first:stop]:
            rec.append(scale)

    latencies, problems, errors, checked = [], [], [], 0
    for q, text, (raw, err, dt), scale in zip(questions, texts, raws, scales):
        if err is not None:
            latencies.append(None)
            errors.append((q.qid, err))
            if record is not None:
                record[q.qid] = None
            continue
        latencies.append(dt * scale)
        payload, problem = workload.verdict(q, text, raw)
        if problem:
            problems.append((q.qid, problem))
            continue
        got = digest(payload)
        if record is not None:
            record[q.qid] = got
            continue
        recorded = digests.get(q.qid)
        if recorded is None:
            problems.append((q.qid, "no digest recorded for this question"))
            continue
        want = recorded[q.variant]
        if want is None:  # raised when the digests were recorded
            continue
        checked += 1
        if got != want:
            problems.append((q.qid, f"verdict or witness changed (digest {got}, recorded {want})"))
    spent = [dt * scale for (_, _, dt), scale in zip(raws, scales)]
    return PassResult(wall, latencies, spent, [dt for _, _, dt in raws], problems, errors, checked)


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def pass_metrics(latencies, spent):
    """Throughput, median and p90 (ms) of one pass.

    Throughput is answered questions per second of question time. A
    question that raised ranks above every answered one: its latency is
    taken as the whole pass's question time.
    """
    total = sum(spent)
    answered = sorted(x for x in latencies if x is not None)
    ranked = answered + [total] * (len(latencies) - len(answered))
    return len(answered) / total, nearest_rank(ranked, 0.5) * 1000.0, nearest_rank(ranked, 0.9) * 1000.0


def end_to_end(results):
    """Medians over the passes, so that one disturbed pass does not decide."""
    scaled = [pass_metrics(r.latencies, r.spent) for r in results]
    unscaled = [
        pass_metrics([None if x is None else dt for x, dt in zip(r.latencies, r.raw)], r.raw) for r in results
    ]
    answered = sum(1 for r in results for x in r.latencies if x is not None)
    attempted = sum(len(r.latencies) for r in results)
    out = {"answered_share": answered / attempted}
    for prefix, per_pass in (("", scaled), ("unscaled_", unscaled)):
        for i, name in enumerate(("verdicts_per_s", "verdict_ms_p50", "verdict_ms_p90")):
            out[prefix + name] = statistics.median(m[i] for m in per_pass)
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stamp(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": nproc,
        "cpu": cpu,
    }


def timed_setup(name, variant_of):
    """Import workload ``name`` and build its questions: the set-up of a fresh process.

    Returns the module, the questions and the scaled seconds from the
    import to the last input built. Afterwards the inputs are frozen out
    of the collector so that it does not rescan them while the questions run.
    """
    before = [reference_ms() for _ in range(SETUP_SPEED_RUNS)]
    t0 = time.perf_counter()
    workload = importlib.import_module(f"workload_{name}")
    questions = workload.build(variant_of)
    elapsed = time.perf_counter() - t0
    seconds = elapsed * scale_of(before + [reference_ms() for _ in range(SETUP_SPEED_RUNS)])
    gc.collect()
    gc.freeze()
    return workload, questions, seconds


def question_ms(questions, results):
    """Median latency of each question over the passes (None if it always raised)."""
    out = {}
    for i, q in enumerate(questions):
        xs = [r.latencies[i] * 1000.0 for r in results if r.latencies[i] is not None]
        out[q.qid] = statistics.median(xs) if xs else None
    return out
