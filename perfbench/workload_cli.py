"""The same code reached through the front door: one CLI process per question.

Each question runs ``python -S -m tristack --json <report> <subcommand> ...``
on a small generated file, one process at a time, across all eleven
subcommands. Interpreter start-up, imports, JSON parsing, input
validation and report writing dominate, so a lazy import or a schema
checker shows here while a faster search kernel should not. The digest
of every ``--json`` report is checked byte for byte.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workload_moduli as geometry
import workload_stacks as categories
from harness import Question
from tristack import corpus, grothendieck

ROOT = Path(__file__).resolve().parent.parent
FILES = ".perfbench_out/cli"
REPORT = os.path.join(FILES, "report.json")
TIMEOUT_S = 120
PROBES = 5


# Processes start with -S: tristack needs nothing from site-packages, and
# on the machine of the first runs the site hooks of the installed
# interpreter alone took 50-100 ms, varying twofold from run to run.
PYTHON = [sys.executable, "-S"]


def child_env():
    """A fixed environment: this checkout's sources, with byte code cached as installed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


ENV = child_env()


def _child_ms(code):
    t0 = time.perf_counter()
    subprocess.run([*PYTHON, "-c", code], cwd=ROOT, env=ENV, check=True, timeout=TIMEOUT_S)
    return (time.perf_counter() - t0) * 1000.0


# Speed reference: a process that starts and imports from the standard
# library what the CLI imports. The in-process kernel of
# harness.reference_ms times none of the process start-up, exec and disk
# work these questions spend their time on; this reference does, and no
# change to tristack can move it.
REFERENCE_CODE = "import argparse, fractions, json, re"
REFERENCE_MS = 64.0  # typical reference_ms() on the 2-core Xeon VM of the first runs


def reference_ms():
    return _child_ms(REFERENCE_CODE)


# -- inputs (set-up) ---------------------------------------------------------------
# Kinds and sizes follow the question index i, not the seed, so that every
# seed asks the same mix of verdicts and of small and larger inputs.


def _write(name, raw):
    path = os.path.join(FILES, name.replace("/", "_") + ".json")
    with open(ROOT / path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return path


def _classify(rng, qid, i):
    kind = ("equilateral", "isosceles", "scalene", "outside")[i % 4]
    text, expect = geometry.make_classify(rng, kind)
    if not expect["inM"]:
        return ["classify", *json.loads(text)], {"exit": 1}
    return ["classify", *json.loads(text)], {"exit": 0, "type": kind}


def _plot(rng, qid, i):
    d = 2 + i % 11
    return ["plot-data", "--denominator", str(d)], {"exit": 0, "rows": (2 * d + 1) * (2 * d + 2) // 2}


def _family_iso(rng, qid, i):
    if i % 2 == 0:
        f = geometry.path_family(rng, 4 + i % 9)
        pair, isomorphic = {"f": f.to_json(), "g": geometry.relabelled(rng, f).to_json()}, True
    else:
        pair, isomorphic = json.loads(geometry.make_iso_neg(rng, 6)[0]), False
    args = [_write(f"{qid}-f", pair["f"]), _write(f"{qid}-g", pair["g"])]
    return ["family-iso", *args], {"exit": 0 if isomorphic else 1, "pair": pair}


def _orientable(rng, qid, i):
    shape = ("path", "oriented", "twisted")[i % 3]
    text, expect = geometry.make_orient(rng, 8 + 3 * i, shape)
    fam = json.loads(text)["family"]
    return ["orientable", _write(qid, fam)], {"exit": 0 if expect["orientable"] else 1, "family": fam}


def _site_check(rng, qid, i):
    sites = categories.site_inputs()
    cases = [(raw, 0) for name, raw in sites.items() if name != "chain-6"]
    cases += [(raw, 1) for _, raw, _ in categories.broken_sites(sites)]
    raw, code = cases[i % len(cases)]
    return ["site-check", _write(qid, raw)], {"exit": code}


def _stack_check(rng, qid, i):
    sites = categories.site_inputs()
    three_atoms = corpus.site_three_atoms().base
    case = i % 7
    if case < 2:
        n = 3 + case
        x = rng.choice(sites[f"chain-{n}"]["base"]["objects"])
        raw, status = {"site": sites[f"chain-{n}"], "fibered": {"kind": "slice", "object": x}}, "stack"
    elif case < 4:
        values, restrictions = corpus.constant_presheaf(three_atoms, categories.names(rng, "c", case - 1))
        fibered = {"kind": "elements", "values": values, "restrictions": restrictions}
        raw, status = {"site": sites["three-atoms"], "fibered": fibered}, "stack"
    else:
        _, fibered, status = categories.fixtures(rng)[case - 4]
        raw = {"site": sites["two-point"], "fibered": fibered}
    return ["stack-check", _write(qid, raw)], {"exit": 0 if status == "stack" else 1, "status": status}


def _groth(rng, qid, i):
    p = rng.choice(corpus.pseudofunctor_corpus(seed=rng.randrange(1000), n=8))
    raw = grothendieck.pseudofunctor_to_json(p)
    return ["groth-roundtrip", _write(qid, raw)], {"exit": 0, "morphisms": oracle.total_morphism_count(raw)}


def _glue(rng, qid, i):
    corrupt = i % 5 in (1, 3)
    text, expect = geometry.make_glue(rng, 4 + i, corrupt)
    return ["descent-glue", _write(qid, json.loads(text))], {"exit": 1 if corrupt else 0}


def _coarse(rng, qid, i):
    invariant = ("perimeter", "spread", "heron", "ycoord")[i % 4]
    args = ["--seed", str(rng.randrange(1000)), "coarse-check", invariant, "--corpus-size", "5"]
    return args, {"exit": 1 if invariant == "ycoord" else 0}


def _fixed(name, **report):
    return lambda rng, qid, i: ([name], {"exit": 0, **report})


PLAN = [
    ("classify", 12, _classify),
    ("demo-remark25", 5, _fixed("demo-remark25", sameNMap=True, isomorphic=False)),
    ("demo-mobius", 5, _fixed("demo-mobius", orientable=False, quotientMapCloses=True)),
    ("plot-data", 8, _plot),
    ("family-iso", 12, _family_iso),
    ("orientable", 12, _orientable),
    ("site-check", 8, _site_check),
    ("stack-check", 12, _stack_check),
    ("groth-roundtrip", 10, _groth),
    ("descent-glue", 10, _glue),
    ("coarse-check", 8, _coarse),
]


def build(variant_of):
    (ROOT / FILES).mkdir(parents=True, exist_ok=True)
    questions = []
    for sub, count, make in PLAN:
        for i in range(count):
            qid = f"{sub}/{i}"
            v = variant_of(qid)
            argv, expect = make(random.Random(f"cli:{qid}:{v}"), qid, i)
            questions.append(Question(qid, sub, argv, expect, v))
    # byte-compile the package once, as an installed package would be
    subprocess.run([*PYTHON, "-c", "import tristack.cli"], cwd=ROOT, env=ENV, check=True, timeout=TIMEOUT_S)
    return questions


def text_for_pass(q, k):
    return q.text


# -- the timed question ------------------------------------------------------------


class CliCrash(RuntimeError):
    pass


def ask(q, argv, tr):
    report = ROOT / REPORT
    if report.exists():
        report.unlink()
    with tr.span(f"cli.{q.kind}"):
        proc = subprocess.run(
            [*PYTHON, "-m", "tristack", "--json", REPORT, *argv],
            cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    if proc.returncode not in (0, 1, 2) or "Traceback" in proc.stderr:
        raise CliCrash(f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}")
    text = report.read_text(encoding="utf-8") if report.exists() else None
    return proc.returncode, text


# -- known answers and witness checks ------------------------------------------------


def verdict(q, argv, raw):
    code, text = raw
    want = q.expect
    if text is None:
        return None, f"exit {code} without a --json report"
    if code != want["exit"]:
        return text, f"exit {code}, known answer {want['exit']}"
    report = json.loads(text)["report"]
    for key in ("type", "rows", "status", "sameNMap", "isomorphic", "orientable", "quotientMapCloses"):
        if key in want and report.get(key) != want[key]:
            return text, f"{key}={report.get(key)}, known answer {want[key]}"
    if q.kind == "family-iso" and code == 0:
        pair = want["pair"]
        return text, oracle.check_family_iso(pair["f"], pair["g"], report["assignment"], None)
    if q.kind == "orientable":
        fam = want["family"]
        if code == 0:
            return text, oracle.check_orientation(fam, report["vertexGauge"], report["edgeRecharts"])
        mono = oracle.family_cycle_monodromy(fam, report["cycle"])
        if mono != report["monodromy"] or mono not in oracle.TRANSPOSITIONS:
            return text, f"cycle monodromy {mono}, reported {report['monodromy']}"
    if q.kind == "groth-roundtrip" and report["totalMorphisms"] != want["morphisms"]:
        return text, "total morphism count differs from the count of the input"
    return text, None


def work_counts(questions):
    return {}


def trace_extras():
    """Bare interpreter start-up, and the import of the CLI on top of it (unscaled)."""
    bare = statistics.median(_child_ms("pass") for _ in range(PROBES))
    cli = statistics.median(_child_ms("import tristack.cli") for _ in range(PROBES))
    return {"cli.interpreter_ms": bare, "cli.import_ms": cli - bare}
