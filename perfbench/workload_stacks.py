"""The category half: finite categories, fibrations, totals and stack verdicts.

``fincat``, ``grothendieck`` and ``descent`` do the work here;
``families`` and ``torsor`` do nothing. Six sites are asked many
questions each, so per-site data (sieves, chosen pullbacks, cleavages)
is worth caching here and nowhere in ``moduli``. Constructions
(``total_category`` builds a whole category) run beside decisions
(``is_fibered``, ``stack_verdict``). NOTES.md gives the argument behind
each known answer.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import oracle
from harness import Question, plain
from tristack import corpus, descent, fincat, grothendieck

SYMMETRIC = (3, 4, 5)
POSETS = 12
FIBERED = 27
CORPUS_SIZE = 60
PSEUDOFUNCTORS = 12
CHAINS = (3, 4, 5, 6)
CONSTANT = range(1, 7)
Z3_CHAINS = (3, 4)


# -- inputs (set-up) ---------------------------------------------------------------


def names(rng, prefix, n):
    picks = rng.sample(range(10 * n + 10), n)
    return [f"{prefix}{k}" for k in picks]


def symmetric_group(rng, n):
    perms = list(itertools.permutations(range(n)))
    name = dict(zip(perms, names(rng, "p", len(perms))))
    mul = {
        (name[a], name[b]): name[tuple(a[b[i]] for i in range(n))] for a in perms for b in perms
    }
    return fincat.category_to_json(fincat.group_category(list(name.values()), mul, name="s"))


def site_inputs():
    sites = {f"chain-{n}": corpus.site_chain(n) for n in CHAINS}
    sites["three-atoms"] = corpus.site_three_atoms()
    sites["two-point"] = corpus.site_two_point_space()
    return {name: descent.site_to_json(site) for name, site in sites.items()}


def _constant_total(base, fib):
    """Total category input of the constant groupoid ``fib`` over a base."""
    psf = grothendieck.strict_pseudofunctor(
        base, {x: fib for x in base.objects}, {m: corpus.identity_endofunctor(fib) for m in base.morphisms}
    )
    return {"kind": "total", "pseudofunctor": grothendieck.pseudofunctor_to_json(psf)}


def _presheaf(base, values, restrict):
    restrictions = {}
    for f in base.morphisms:
        a, b = base.src(f), base.tgt(f)
        restrictions[f] = {e: (e if a == b else restrict(a, e)) for e in values[b]}
    return {"kind": "elements", "values": values, "restrictions": restrictions}


def fixtures(rng):
    """The four hand-pinned verdicts of the test suite, with fresh element names."""
    base = corpus.site_two_point_space().base
    a, b, c, e1, e2 = names(rng, "x", 5)
    truncated = _presheaf(
        base, {"X": [], "u1": [a], "u2": [b], "0": [c]}, lambda src, e: {"u1": a, "u2": b, "0": c}[src]
    )
    doubled = _presheaf(base, {"X": [e1, e2], "u1": [c], "u2": [c], "0": [c]}, lambda src, e: c)
    return [
        ("slice", {"kind": "slice", "object": "X"}, "stack"),
        ("z2-bundles", _constant_total(base, corpus.z2_category()), "stack"),
        ("doubled-global", doubled, "neither"),
        ("truncated", truncated, "prestack-only"),
    ]


def broken_sites(sites):
    """Two-point site without its isomorphism singletons (T1), or without a
    pulled-back family (T2)."""
    good = sites["two-point"]
    ids = good["base"]["identities"]
    no_t1 = json.loads(json.dumps(good))
    no_t1["coverings"] = {x: [f for f in fams if f != [ids[x]]] for x, fams in good["coverings"].items()}
    no_t2 = json.loads(json.dumps(good))
    no_t2["coverings"]["u1"] = [f for f in good["coverings"]["u1"] if set(f) != {"id_u1", "0<=u1"}]
    return [("no-t1", no_t1, "T1"), ("no-t2", no_t2, "T2")]


def build(variant_of):
    questions = []
    fibered_corpora, psf_corpora = {}, {}

    def add(kind, qid, make):
        v = variant_of(qid)
        text, expect = make(random.Random(f"stacks:{qid}:{v}"), v)
        questions.append(Question(qid, kind, text, expect, v))

    for n in SYMMETRIC:
        add("category", f"category/sym-{n}",
            lambda rng, v, n=n: (json.dumps(symmetric_group(rng, n)), {"morphisms": math.factorial(n)}))
    for i in range(POSETS):
        def poset(rng, v):
            raw = fincat.category_to_json(corpus.random_poset(rng, max_objects=6))
            return json.dumps(raw), {"morphisms": len(raw["morphisms"])}
        add("category", f"category/poset-{i}", poset)

    def fibered_corpus(v):
        """The variant's corpus as (JSON input, fibered in groupoids?) pairs."""
        if v not in fibered_corpora:
            entries = []
            for fun in corpus.fibered_corpus(seed=v, n=CORPUS_SIZE):
                raw = {
                    "dom": fincat.category_to_json(fun.dom),
                    "cod": fincat.category_to_json(fun.cod),
                    "functor": fincat.functor_to_json(fun),
                }
                dom, cod = oracle.Cat(raw["dom"]), oracle.Cat(raw["cod"])
                entries.append((raw, oracle.fibers_are_groupoids(dom, cod, fun.obj_map, fun.mor_map)))
            fibered_corpora[v] = entries
        return fibered_corpora[v]

    def interval_total(rng, length):
        """Total category of a chain pseudo-functor whose fibers are all intervals."""
        p = corpus.chain_pseudofunctor(rng, length=length, fiber_pool=[fincat.interval_category()])
        _, fun = grothendieck.total_category(p)
        return {
            "dom": fincat.category_to_json(fun.dom),
            "cod": fincat.category_to_json(fun.cod),
            "functor": fincat.functor_to_json(fun),
        }

    for predicate in ("is_fibered", "is_groupoid_fibration"):
        for i in range(FIBERED):
            # one in three groupoid questions asks about a total category
            # with non-invertible fiber arrows
            ok = predicate == "is_fibered" or i % 3 != 0

            def fibered(rng, v, predicate=predicate, ok=ok, i=i):
                if not ok:
                    return json.dumps(interval_total(rng, 2 + i // 3 % 2)), {"ok": False}
                pool = [raw for raw, groupoid in fibered_corpus(v) if predicate == "is_fibered" or groupoid]
                # stratified by size: question i draws from the i-th slice of the
                # pool, so every seed asks about small and large functors alike
                pool.sort(key=lambda raw: (len(raw["dom"]["morphisms"]), json.dumps(raw, sort_keys=True)))
                lo, hi = i * len(pool) // FIBERED, (i + 1) * len(pool) // FIBERED
                return json.dumps(rng.choice(pool[lo:max(hi, lo + 1)])), {"ok": True}
            add(predicate, f"{predicate}/{i}", fibered)

    for i in range(PSEUDOFUNCTORS):
        def groth(rng, v, i=i):
            if v not in psf_corpora:
                psf_corpora[v] = corpus.pseudofunctor_corpus(seed=v, n=PSEUDOFUNCTORS)
            raw = grothendieck.pseudofunctor_to_json(psf_corpora[v][i])
            return json.dumps(raw), {"morphisms": oracle.total_morphism_count(raw)}
        add("groth", f"groth/{i}", groth)

    sites = site_inputs()
    for name, raw in sites.items():
        if name == "chain-6":  # 1.5 s of T3 checks; its stack question validates it
            continue
        add("site", f"site/{name}", lambda rng, v, raw=raw: (json.dumps(raw), {"valid": None}))
    for name, raw, reason in broken_sites(sites):
        add("site", f"site/{name}", lambda rng, v, raw=raw, reason=reason: (json.dumps(raw), {"valid": reason}))

    def stack(site, fibered, status):
        return json.dumps({"site": sites[site], "fibered": fibered}), {"status": status, "site": site}

    for n in CHAINS:
        def chain_slice(rng, v, n=n):
            return stack(f"chain-{n}", {"kind": "slice", "object": f"o{n - 1}"}, "stack")
        add("stack", f"stack/chain-{n}", chain_slice)
    three_atoms = corpus.site_three_atoms().base
    for k in CONSTANT:
        def constant(rng, v, k=k):
            values, restrictions = corpus.constant_presheaf(three_atoms, names(rng, "c", k))
            fibered = {"kind": "elements", "values": values, "restrictions": restrictions}
            return stack("three-atoms", fibered, "stack")
        add("stack", f"stack/const-{k}", constant)
    for n in Z3_CHAINS:
        add("stack", f"stack/z3-chain-{n}",
            lambda rng, v, n=n: stack(f"chain-{n}", _constant_total(corpus.site_chain(n).base, corpus.z3_category()),
                                      "stack"))
    for idx, (name, _, _) in enumerate(fixtures(random.Random(0))):
        def fixture(rng, v, idx=idx):
            _, fibered, status = fixtures(rng)[idx]
            return stack("two-point", fibered, status)
        add("stack", f"stack/fixture-{name}", fixture)
    return questions


def text_for_pass(q, k):
    return q.text


# -- the timed question ------------------------------------------------------------


def _rung(q):
    return q.qid.split("/", 1)[1]


def _category(tr, raw, rung=None):
    with tr.span("fincat.validate_category", rung):
        return fincat.validate_category(raw)


def _transport(tr, site, desc):
    """The fibered category named by a stack-check descriptor, as a Transport."""
    kind = desc["kind"]
    if kind == "slice":
        _, proj = fincat.slice_category(site.base, desc["object"])
    elif kind == "elements":
        restrictions = {f: dict(t) for f, t in desc["restrictions"].items()}
        _, proj = corpus.elements_fibration(site.base, desc["values"], restrictions)
    else:
        p = grothendieck.pseudofunctor_from_json(desc["pseudofunctor"])
        with tr.span("grothendieck.total_category"):
            _, proj = grothendieck.total_category(p)
    with tr.span("descent.transport"):
        return descent.Transport(proj)


def ask(q, text, tr):
    raw = json.loads(text)
    kind = q.kind
    if kind == "category":
        name = _rung(q)
        return _category(tr, raw, f"fincat.validate_category.ms.{name}" if name.startswith("sym") else None)
    if kind in ("is_fibered", "is_groupoid_fibration"):
        dom, cod = _category(tr, raw["dom"]), _category(tr, raw["cod"])
        fun = fincat.functor_from_json(raw["functor"], dom, cod)
        with tr.span(f"fincat.{kind}"):
            return getattr(fincat, kind)(fun)
    if kind == "groth":
        p = grothendieck.pseudofunctor_from_json(raw)
        valid = grothendieck.validate_pseudofunctor(p)
        if not valid.ok:
            return {"valid": False, "reason": valid.reason}
        with tr.span("grothendieck.total_category"):
            total, proj = grothendieck.total_category(p)
        lifts_ok = grothendieck.canonical_lifts_are_cartesian(p, proj)
        with tr.span("grothendieck.roundtrip_check"):
            rt = grothendieck.roundtrip_check(proj)
        return {
            "valid": True,
            "totalObjects": len(total.objects),
            "totalMorphisms": len(total.morphisms),
            "canonicalLiftsCartesian": lifts_ok,
            "roundtrip": rt,
        }
    if kind == "site":
        site = descent.site_from_json(raw)
        with tr.span("descent.validate_site"):
            return descent.validate_site(site)
    if kind == "stack":
        site = descent.site_from_json(raw["site"])
        with tr.span("descent.validate_site"):
            valid = descent.validate_site(site)
        if not valid.ok:
            raise ValueError(f"site axioms fail: {valid.reason}")
        transport = _transport(tr, site, raw["fibered"])
        name = _rung(q)
        rung = None if name.startswith("fixture") else f"descent.stack_verdict.ms.{name}"
        with tr.span("descent.stack_verdict", rung):
            return descent.stack_verdict(site, transport)
    raise ValueError(f"unknown question kind {kind}")


# -- known answers and witness checks ------------------------------------------------


def verdict(q, text, r):
    kind, want = q.kind, q.expect
    inp = json.loads(text)
    if kind == "category":
        payload = {"objects": len(r.objects), "morphisms": len(r.morphisms)}
        problem = None if payload["morphisms"] == want["morphisms"] else "morphism count changed"
        return payload, problem
    if kind in ("is_fibered", "is_groupoid_fibration"):
        payload = {"status": r.status, "ok": r.ok, "witness": plain(r.witness),
                   "lifts": sorted([f, y, m] for (f, y), m in (r.lifts or {}).items())}
        if r.ok != want["ok"]:
            return payload, f"{kind} answered {r.ok}, known answer {want['ok']}"
        if r.ok:
            return payload, _check_lifts(inp, r.lifts)
        return payload, None
    if kind == "groth":
        expected = {"valid": True, "canonicalLiftsCartesian": True, "roundtrip": True,
                    "totalMorphisms": want["morphisms"],
                    "totalObjects": sum(len(f["objects"]) for f in inp["fibers"].values())}
        wrong = [k for k, value in expected.items() if r.get(k) != value]
        return r, (f"{', '.join(wrong)} differ from the known answer" if wrong else None)
    if kind == "site":
        payload = {"ok": r.ok, "reason": r.reason, "witness": plain(r.witness)}
        if want["valid"] is None:
            return payload, None if r.ok else f"valid site rejected: {r.reason}"
        if r.ok or not r.reason.startswith(want["valid"]):
            return payload, f"broken site answered {r.ok} ({r.reason}), known to fail {want['valid']}"
        return payload, None
    if kind == "stack":
        payload = {"status": r.status, "witness": plain(r.witness)}
        return payload, None if r.status == want["status"] else f"status {r.status}, known {want['status']}"
    raise ValueError(f"unknown question kind {kind}")


def _check_lifts(inp, lifts):
    """Every lift sits over its arrow, ends at its object and is cartesian."""
    dom, cod = oracle.Cat(inp["dom"]), oracle.Cat(inp["cod"])
    on_obj, on_mor = inp["functor"]["onObjects"], inp["functor"]["onMorphisms"]
    problems = [(f, y) for f in cod.src for y in dom.objects if on_obj[y] == cod.tgt[f]]
    if set(lifts) != set(problems):
        return "cleavage does not cover every lifting problem"
    for (f, y), lift in lifts.items():
        if on_mor[lift] != f or dom.tgt[lift] != y or not oracle.is_cartesian(dom, cod, on_mor, lift):
            return f"lift {lift} of {f} at {y} is not a cartesian lift"
    return None


# -- input-derived work counts -------------------------------------------------------


def work_counts(questions):
    triples = total = families_ = sieves = 0
    for q in questions:
        raw = json.loads(q.text)
        if q.kind == "category":
            triples += oracle.Cat(raw).composable_triples()
        elif q.kind in ("is_fibered", "is_groupoid_fibration"):
            triples += oracle.Cat(raw["dom"]).composable_triples() + oracle.Cat(raw["cod"]).composable_triples()
        elif q.kind == "groth":
            total += q.expect["morphisms"]
        elif q.kind == "stack":
            if raw["fibered"]["kind"] == "total":
                total += oracle.total_morphism_count(raw["fibered"]["pseudofunctor"])
            base = oracle.Cat(raw["site"]["base"])
            for fams in raw["site"]["coverings"].values():
                families_ += len(fams)
                sieves += len({oracle.generated_sieve(base, fam) for fam in fams})
    return {
        "fincat.assoc_triples": triples,
        "grothendieck.total_morphisms": total,
        "descent.covering_families": families_,
        "descent.distinct_sieves": sieves,
        "descent.sieve_share": sieves / families_,
    }
