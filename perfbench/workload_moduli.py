"""The geometry half: families, torsors, germs and triangle classification.

``families``, ``torsor``, ``deform`` and ``trigeo`` do almost all the
work here; ``fincat``, ``grothendieck`` and ``descent`` do none. Every
question has its own base graph, and each pass renames every id (the
``~k~`` tag), so a cache keyed by the base never hits. Positive questions
(a search may stop at the first solution) run beside negative ones (the
search must exhaust). NOTES.md gives the argument behind each known
answer.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle
from harness import Question, plain
from tristack import corpus, deform, families, torsor, trigeo
from tristack.families import Edge, graph
from tristack.trigeo import PERMS, TriangleLengths, act, compose, inverse

F0, F1 = Fraction(0), Fraction(1)
TAG = "~0~"

CLASSIFY_PER_TYPE = 10
ISO_POS = (125, 250, 500, 1000, 2000)
ISO_NEG = (8, 16, 32)
ORIENT = (250, 500, 1000, 2000)
TRIVIAL = (125, 250, 500, 1000)
GAUGE_NONE = (1, 2, 3, 4, 5)
GAUGE_SOME = (1, 2, 3)
GLUE = (25, 50, 100, 200)
GERMS = 6
QUOTIENT = (30, 60, 120, 240)


# -- generators (set-up) ---------------------------------------------------------


def _fmt(t):
    return [str(v) for v in (t.astuple() if hasattr(t, "astuple") else t)]


def _tag_family_json(raw):
    raw = dict(raw)
    raw["vertices"] = [dict(v, id=TAG + v["id"]) for v in raw["vertices"]]
    raw["edges"] = [
        dict(e, id=TAG + e["id"], **{"from": TAG + e["from"], "to": TAG + e["to"]})
        for e in raw["edges"]
    ]
    return raw


def _deformation_json(d):
    raw = _tag_family_json(deform.deformation_to_json(d))
    raw["basepoint"] = TAG + raw["basepoint"]
    return raw


def _triple(rng):
    """A random interior triple, drawn like ``corpus.random_interior_triple``."""
    x, y = Fraction(rng.randint(6, 36), 12), Fraction(rng.randint(6, 36), 12)
    lam = Fraction(rng.randint(1, 11), 12)
    lo, hi = abs(x - y), x + y
    return (x, y, lo + lam * (hi - lo))


class _Family:
    """Family data as plain tuples, written straight to the JSON format."""

    def __init__(self, fibers, edges):
        self.fibers = fibers  # vertex -> length triple
        self.edges = edges    # [(id, from, to, [(t, triple), ...], glueFrom, glueTo)]

    def to_json(self):
        return {
            "vertices": [{"id": v, "lengths": _fmt(t)} for v, t in self.fibers.items()],
            "edges": [
                {"id": eid, "from": a, "to": b, "glueFrom": gf, "glueTo": gt,
                 "chart": [{"t": str(t), "lengths": _fmt(x)} for t, x in chart]}
                for eid, a, b, chart, gf, gt in self.edges
            ],
        }


def _family_on(rng, vertices, edges, glue, fiber=_triple):
    """Random fibers and charts on a graph, with the glue given per edge.

    Every other edge gets an interior breakpoint, so the size of the input,
    and with it the cost of loading it, does not depend on the seed.
    """
    fibers = {v: fiber(rng) for v in vertices}
    out = []
    for i, (eid, a, b) in enumerate(edges):
        gf, gt = glue[eid]
        chart = [(F0, oracle.act(inverse(gf), fibers[a]))]
        if i % 2 == 0:
            chart.append((Fraction(rng.randint(1, 7), 8), fiber(rng)))
        chart.append((F1, oracle.act(inverse(gt), fibers[b])))
        out.append((eid, a, b, chart, gf, gt))
    return _Family(fibers, out)


def path_family(rng, n):
    vertices = [f"{TAG}v{i:04d}" for i in range(n + 1)]
    edges = [(f"{TAG}e{i:04d}", vertices[i], vertices[i + 1]) for i in range(n)]
    glue = {eid: (rng.choice(PERMS), rng.choice(PERMS)) for eid, _, _ in edges}
    return _family_on(rng, vertices, edges, glue)


def relabelled(rng, fam):
    """Isomorphic copy: per-vertex h_v on fibers and per-edge tau_e on charts."""
    h = {v: rng.choice(PERMS) for v in fam.fibers}
    edges = []
    for eid, a, b, chart, gf, gt in fam.edges:
        tau = rng.choice(PERMS)
        moved = [(t, oracle.act(tau, x)) for t, x in chart]
        back = inverse(tau)
        edges.append((eid, a, b, moved, compose(h[a], compose(gf, back)), compose(h[b], compose(gt, back))))
    return _Family({v: oracle.act(h[v], t) for v, t in fam.fibers.items()}, edges)


def _pair_text(f, g):
    return json.dumps({"f": f.to_json(), "g": g.to_json()})


def make_classify(rng, kind):
    def draw():
        return Fraction(rng.randint(4, 48), 8)

    a = draw()
    if kind == "equilateral":
        triple = (a, a, a)
    elif kind == "isosceles":
        b = rng.choice([Fraction(k, 8) for k in range(1, int(16 * a)) if Fraction(k, 8) != a])
        triple = tuple(rng.sample([a, a, b], 3))
    elif kind == "scalene":
        while True:
            triple = (a, draw(), draw())
            if len(set(triple)) == 3 and trigeo.in_M(triple):
                break
    else:  # degenerate: one length is the sum of the other two
        b = draw()
        triple = tuple(rng.sample([a, b, a + b], 3))
    return json.dumps([str(v) for v in triple]), {"inM": kind != "outside", "type": kind}


def make_iso_pos(rng, n):
    f = path_family(rng, n)
    return _pair_text(f, relabelled(rng, f)), {"isomorphic": True}


def make_iso_neg(rng, n):
    """Isosceles cycle; the copy composes one glue with (BC), fixing every fiber.

    Edge ids interleave around the cycle, so the search order alternates
    between its two halves.
    """
    order = list(range(0, n, 2)) + list(range(1, n, 2))
    ids = {pos: f"{TAG}c{rank:03d}" for rank, pos in enumerate(order)}
    vertices = [f"{TAG}w{i:03d}" for i in range(n)]
    edges = [(ids[i], vertices[i], vertices[(i + 1) % n]) for i in range(n)]

    def iso(rng):
        a = Fraction(rng.randint(16, 32), 8)
        b = rng.choice([Fraction(k, 8) for k in range(4, int(16 * a) - 4) if Fraction(k, 8) != a])
        return (a, a, b)

    glue = {eid: (rng.choice(("e", "(BC)")), rng.choice(("e", "(BC)"))) for eid, _, _ in edges}
    f = _family_on(rng, vertices, edges, glue, fiber=iso)
    seam = rng.randrange(n)
    eid, a, b, chart, gf, gt = f.edges[seam]
    g = _Family(f.fibers, f.edges[:seam] + [(eid, a, b, chart, gf, compose("(BC)", gt))] + f.edges[seam + 1:])
    return _pair_text(f, g), {"isomorphic": False}


def make_orient(rng, n, shape):
    """A path, or a random tree plus one edge: a single cycle of chosen monodromy."""
    if shape == "path":
        return json.dumps({"family": path_family(rng, n).to_json()}), {"orientable": True}
    vertices = [f"{TAG}v{i:04d}" for i in range(n)]
    edges, glue, sigma = [], {}, {vertices[0]: "e"}
    adjacent = set()
    for i in range(1, n):
        parent = vertices[rng.randrange(i)]
        eid = f"{TAG}t{i:04d}"
        a, b = (parent, vertices[i]) if rng.random() < 0.5 else (vertices[i], parent)
        glue[eid] = (rng.choice(PERMS), rng.choice(PERMS))
        edges.append((eid, a, b))
        adjacent.add(frozenset((a, b)))
        # propagate sigma_a . g_from == sigma_b . g_to along the tree
        gf, gt = glue[eid]
        if a == parent:
            sigma[b] = compose(compose(sigma[a], gf), inverse(gt))
        else:
            sigma[a] = compose(compose(sigma[b], gt), inverse(gf))
    while True:
        a, b = rng.sample(vertices, 2)
        if frozenset((a, b)) not in adjacent:
            break
    gf = rng.choice(PERMS)
    twist = "e" if shape == "oriented" else rng.choice(trigeo.TRANSPOSITIONS)
    gt = compose(inverse(sigma[b]), compose(twist, compose(sigma[a], gf)))
    eid = f"{TAG}x{n:04d}"
    glue[eid] = (gf, gt)
    edges.append((eid, a, b))
    fam = _family_on(rng, vertices, edges, glue)
    return json.dumps({"family": fam.to_json()}), {"orientable": shape == "oriented"}


def _torsor_json(vertices, edges, transitions):
    return {
        "base": {
            "vertices": vertices,
            "edges": [{"id": e, "from": a, "to": b} for e, a, b in edges],
            "faces": [],
        },
        "group": "S3",
        "transitions": transitions,
    }


def make_trivial(rng, n, twisted):
    vertices = [f"{TAG}a{i:04d}" for i in range(n)]
    edges = [(f"{TAG}e{i:04d}", vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    phi = {v: rng.choice(PERMS) for v in vertices}
    transitions = {e: oracle.s3_mul(oracle.inverse(phi[a]), phi[b]) for e, a, b in edges}
    if twisted:
        seam = rng.choice(edges)[0]
        transitions[seam] = oracle.s3_mul(transitions[seam], rng.choice(PERMS[1:]))
    return json.dumps(_torsor_json(vertices, edges, transitions)), {"trivial": not twisted}


def make_gauge(rng, k, solvable):
    """k triangle components of a trivial torsor t1 and a gauge transform t2.

    Every root choice solves a trivial component, so with a solution the
    search stops at its first candidate; without one, the last component
    of t2 is twisted to monodromy a transposition and all 6^k candidates fail.
    """
    vertices, edges = [], []
    for c in range(k):
        vs = [f"{TAG}k{c}a{i}" for i in range(3)]
        vertices += vs
        edges += [(f"{TAG}k{c}e{i}", vs[i], vs[(i + 1) % 3]) for i in range(3)]
    phi = {v: rng.choice(PERMS) for v in vertices}
    t1 = {e: oracle.s3_mul(oracle.inverse(phi[a]), phi[b]) for e, a, b in edges}
    psi = {v: rng.choice(PERMS) for v in vertices}
    t2 = {
        e: oracle.s3_mul(oracle.inverse(psi[a]), oracle.s3_mul(t1[e], psi[b])) for e, a, b in edges
    }
    if not solvable:
        seam = f"{TAG}k{k - 1}e0"
        t2[seam] = oracle.s3_mul(t2[seam], rng.choice(trigeo.TRANSPOSITIONS))
    text = {"t1": _torsor_json(vertices, edges, t1), "t2": _torsor_json(vertices, edges, t2)}
    return json.dumps(text), {"solvable": solvable}


def make_glue(rng, n, corrupt):
    """Star-cover glue data of a random S3 torsor on a path of n edges.

    Corrupted data multiplies the last overlap by a non-identity element:
    constant along the overlap, but the cocycle fails on the last triple.
    """
    vertices = [f"{TAG}a{i:04d}" for i in range(n + 1)]
    edges = [Edge(f"{TAG}e{i:04d}", vertices[i], vertices[i + 1]) for i in range(n)]
    base = torsor.SimplicialBase(vertices, edges)
    group = torsor.group_s3()
    t = torsor.TorsorCocycle(base, group, {e.id: rng.choice(PERMS) for e in edges})
    raw = torsor.glue_data_to_json(corpus.glue_data_from_torsor(t))
    if corrupt:
        last = raw["transitions"][-1]
        s = rng.choice(PERMS[1:])
        last["cells"] = {cell: oracle.s3_mul(g, s) for cell, g in last["cells"].items()}
    pieces = len(raw["pieces"])
    return json.dumps(raw), {"glued": not corrupt, "pieces": pieces}


def _remarked_pair(rng, legs):
    """Isosceles triangle re-marked by its own symmetry (BC) on moving legs.

    Each leg is one straight segment whose direction has three distinct
    coordinates, so only tau = e matches a leg with itself at any pair of
    dyadic cuts; the markings pin a non-identity permutation.
    """
    a = Fraction(rng.randint(8, 16), 4)
    b = rng.choice([Fraction(k, 4) for k in range(6, int(8 * a) - 5) if Fraction(k, 4) != a])
    t = TriangleLengths(a, a, b)
    marking = rng.choice(PERMS)
    center = act(marking, t)
    vertices, edges, vl, charts, gf, gt = ["x0"], [], {"x0": center}, {}, {}, {}
    for i in range(legs):
        leaf, eid = f"v{i}", f"s{i}"
        vertices.append(leaf)
        step = [Fraction(k, 16) * rng.choice((1, -1)) for k in rng.sample((1, 2, 3), 3)]
        if rng.random() < 0.5:
            glue_center, glue_leaf = rng.choice(PERMS), rng.choice(PERMS)
            start = act(inverse(glue_center), center)
            end = TriangleLengths(*(x + d for x, d in zip(start.astuple(), step)))
            edges.append((eid, "x0", leaf))
            charts[eid] = ((F0, start), (F1, end))
            gf[eid], gt[eid] = glue_center, glue_leaf
            vl[leaf] = act(glue_leaf, end)
        else:
            glue_leaf, glue_center = rng.choice(PERMS), rng.choice(PERMS)
            stop = act(inverse(glue_center), center)
            far = TriangleLengths(*(x + d for x, d in zip(stop.astuple(), step)))
            edges.append((eid, leaf, "x0"))
            charts[eid] = ((F0, far), (F1, stop))
            gf[eid], gt[eid] = glue_leaf, glue_center
            vl[leaf] = act(glue_leaf, far)
    fam = families.family(graph(vertices, edges), vl, charts, gf, gt)
    d1 = deform.deformation(t, fam, "x0", marking)
    d2 = deform.deformation(t, fam, "x0", compose(marking, "(BC)"))
    return d1, d2


def make_germ(rng, how, legs):
    if how == "remarked":
        d1, d2 = _remarked_pair(rng, legs)
    else:
        d1 = corpus.random_deformation(rng, legs=legs)
        if how == "twisted":
            d2 = deform.twist_deformation(d1, rng.choice(PERMS[1:]))
        else:
            d2 = deform.restrict_deformation(d1, rng.randint(1, 2))
    text = {"d1": _deformation_json(d1), "d2": _deformation_json(d2)}
    return json.dumps(text), {"equivalent": how != "remarked"}


def make_normal_form(rng, legs):
    d = corpus.random_deformation(rng, legs=legs, loop=legs == 3)
    return json.dumps({"d": _deformation_json(d), "depth": rng.randint(0, 2)}), {}


def make_coarse(rng, invariant):
    fams = corpus.family_corpus(seed=rng.randrange(10**6), n=6)
    raw = [_tag_family_json(families.family_to_json(f)) for f in fams]
    status = "not-natural" if invariant == "ycoord" else "factors"
    return json.dumps({"invariant": invariant, "families": raw}), {"status": status}


def make_quotient(rng, n):
    f = path_family(rng, n)
    return _pair_text(f, relabelled(rng, f)), {}


def build(variant_of):
    plan = []
    for kind in ("equilateral", "isosceles", "scalene", "outside"):
        for i in range(CLASSIFY_PER_TYPE):
            plan.append(("classify", f"classify/{kind}-{i}", make_classify, (kind,)))
    plan += [("iso-pos", f"iso-pos/path-{n}", make_iso_pos, (n,)) for n in ISO_POS]
    plan += [("iso-neg", f"iso-neg/cycle-{n}", make_iso_neg, (n,)) for n in ISO_NEG]
    for n in ORIENT:
        for shape in ("path", "oriented", "twisted"):
            plan.append(("orient", f"orient/{shape}-{n}", make_orient, (n, shape)))
    for n in TRIVIAL:
        for twisted in (False, True):
            name = "twisted" if twisted else "gauged"
            plan.append(("trivial", f"trivial/{name}-circle-{n}", make_trivial, (n, twisted)))
    plan += [("gauge", f"gauge/none-{k}", make_gauge, (k, False)) for k in GAUGE_NONE]
    plan += [("gauge", f"gauge/some-{k}", make_gauge, (k, True)) for k in GAUGE_SOME]
    plan += [("glue", f"glue/path-{n}", make_glue, (n, False)) for n in GLUE]
    plan += [("glue-bad", f"glue-bad/path-{n}", make_glue, (n, True)) for n in GLUE]
    for how in ("twisted", "restricted", "remarked"):
        plan += [("germ-eq", f"germ-eq/{how}-{i}", make_germ, (how, 1 + i % 3)) for i in range(GERMS)]
    plan += [("germ-nf", f"germ-nf/{i}", make_normal_form, (1 + i % 3,)) for i in range(GERMS)]
    plan += [("coarse", f"coarse/{name}", make_coarse, (name,)) for name in sorted(families.INVARIANTS)]
    plan += [("quotient", f"quotient/path-{n}", make_quotient, (n,)) for n in QUOTIENT]

    questions = []
    for kind, qid, make, args in plan:
        v = variant_of(qid)
        text, expect = make(random.Random(f"moduli:{qid}:{v}"), *args)
        questions.append(Question(qid, kind, text, expect, v))
    return questions


def text_for_pass(q, k):
    # a fresh copy on every pass, so that memory does not depend on the pass count
    return q.text.replace(TAG, f"~{k + 1}~")


# -- the timed question ------------------------------------------------------------


def _rung(q):
    return q.qid.split("/", 1)[1]


def _family(tr, raw):
    with tr.span("families.family_from_json"):
        return families.family_from_json(raw)


def ask(q, text, tr):
    raw = json.loads(text)
    kind = q.kind
    if kind == "classify":
        triple = tuple(Fraction(v) for v in raw)
        with tr.span("trigeo.classify"):
            if not trigeo.in_M(triple):
                return {"inM": False, "triple": [str(v) for v in triple]}
            t = TriangleLengths(*triple)
            return {
                "inM": True,
                "type": trigeo.triangle_type(t),
                "stabilizer": list(trigeo.stabilizer(t)),
                "nRepresentative": _fmt(trigeo.to_N(t)),
                "perimeter2": _fmt(trigeo.normalize_perimeter(t)),
            }
    if kind in ("iso-pos", "iso-neg"):
        f, g = _family(tr, raw["f"]), _family(tr, raw["g"])
        side = kind.split("-")[1]
        with tr.span(f"families.are_isomorphic.{side}", f"families.are_isomorphic.ms.{side}-{_rung(q)}"):
            return families.are_isomorphic(f, g)
    if kind == "orient":
        fam = _family(tr, raw["family"])
        shape, n = _rung(q).rsplit("-", 1)
        rung = f"families.is_orientable.ms.{'path' if shape == 'path' else 'rand'}-{n}"
        with tr.span("families.is_orientable", rung):
            return families.is_orientable(fam)
    if kind == "trivial":
        t = torsor.torsor_from_json(raw)
        with tr.span("torsor.is_trivial"):
            return torsor.is_trivial(t)
    if kind == "gauge":
        t1, t2 = torsor.torsor_from_json(raw["t1"]), torsor.torsor_from_json(raw["t2"])
        name = _rung(q)
        rung = f"torsor.find_gauge_isomorphism.ms.nosol-{name.split('-')[1]}" if name.startswith("none") else None
        with tr.span("torsor.find_gauge_isomorphism", rung):
            return torsor.find_gauge_isomorphism(t1, t2)
    if kind == "glue":
        data = torsor.glue_data_from_json(raw)
        with tr.span("torsor.glue_descent", f"torsor.glue_descent.ms.{_rung(q)}"):
            return torsor.glue_descent(data)
    if kind == "glue-bad":
        data = torsor.glue_data_from_json(raw)
        with tr.span("torsor.validate_glue_data"):
            return torsor.validate_glue_data(data)
    if kind == "germ-eq":
        d1, d2 = deform.deformation_from_json(raw["d1"]), deform.deformation_from_json(raw["d2"])
        with tr.span("deform.are_equivalent"):
            return deform.are_equivalent(d1, d2)
    if kind == "germ-nf":
        d = deform.deformation_from_json(raw["d"])
        with tr.span("deform.germ_normal_form"):
            return deform.germ_normal_form(d, raw["depth"])
    if kind == "coarse":
        fams = [_family(tr, f) for f in raw["families"]]
        with tr.span("families.check_coarse_factorization"):
            return families.check_coarse_factorization(families.INVARIANTS[raw["invariant"]], fams)
    if kind == "quotient":
        f, g = _family(tr, raw["f"]), _family(tr, raw["g"])
        with tr.span("families.classify_to_N"):
            nf, ng = families.classify_to_N(f), families.classify_to_N(g)
            return families.plmaps_equal(nf, ng), nf
    raise ValueError(f"unknown question kind {kind}")


# -- known answers and witness checks ------------------------------------------------


def _sorted_map(d):
    return dict(sorted(d.items()))


def _family_payload(fam):
    return {
        "vertices": {v: _fmt(t) for v, t in sorted(fam.vertex_lengths.items())},
        "edges": [
            [e.id, e.frm, e.to, fam.glue_from[e.id], fam.glue_to[e.id],
             [[str(t), _fmt(v)] for t, v in fam.charts[e.id]]]
            for e in fam.base.edges.values()
        ],
    }


def verdict(q, text, raw_result):
    kind, want = q.kind, q.expect
    if kind == "classify":
        return raw_result, _check_classify(json.loads(text), raw_result, want)
    inp = json.loads(text)
    r = raw_result
    if kind in ("iso-pos", "iso-neg"):
        if r.found != want["isomorphic"]:
            return None, f"isomorphic={r.found}, known answer {want['isomorphic']}"
        if not r.found:
            ob = r.obstruction
            return {"isomorphic": False, "witness": None if ob is None else plain(vars(ob))}, None
        problem = oracle.check_family_iso(inp["f"], inp["g"], r.assignment, r.vertex_perms)
        return {"isomorphic": True, "assignment": _sorted_map(r.assignment),
                "vertexPerms": _sorted_map(r.vertex_perms)}, problem
    if kind == "orient":
        fam = inp["family"]
        if r.orientable != want["orientable"]:
            return None, f"orientable={r.orientable}, known answer {want['orientable']}"
        if r.orientable:
            return ({"gauge": _sorted_map(r.vertex_gauge), "recharts": _sorted_map(r.edge_recharts)},
                    oracle.check_orientation(fam, r.vertex_gauge, r.edge_recharts))
        mono = oracle.family_cycle_monodromy(fam, r.obstruction_cycle)
        problem = None
        if mono != r.monodromy or mono not in trigeo.TRANSPOSITIONS:
            problem = f"cycle monodromy {mono}, reported {r.monodromy}, known to be a transposition"
        return {"cycle": plain(r.obstruction_cycle), "monodromy": r.monodromy}, problem
    if kind == "trivial":
        if r.trivial != want["trivial"]:
            return None, f"trivial={r.trivial}, known answer {want['trivial']}"
        if r.trivial:
            identity = {e["id"]: "e" for e in inp["base"]["edges"]}
            return ({"gauge": _sorted_map(r.gauge)},
                    oracle.check_gauge(inp["base"], inp["transitions"], identity, r.gauge))
        mono = oracle.torsor_cycle_product(inp["base"], inp["transitions"], r.obstruction_cycle)
        problem = None if mono == r.monodromy != "e" else f"cycle product {mono}, reported {r.monodromy}"
        return {"cycle": plain(r.obstruction_cycle), "monodromy": r.monodromy}, problem
    if kind == "gauge":
        if (r is not None) != want["solvable"]:
            return None, f"gauge found={r is not None}, known answer {want['solvable']}"
        if r is None:
            return {"gauge": None}, None
        t1, t2 = inp["t1"], inp["t2"]
        return {"gauge": _sorted_map(r)}, oracle.check_gauge(t1["base"], t1["transitions"], t2["transitions"], r)
    if kind == "glue":
        glued, witnesses = r
        payload = {"transitions": _sorted_map(glued.transitions),
                   "pieces": {str(i): _sorted_map(g) for i, g in sorted(witnesses.items())}}
        if len(witnesses) != want["pieces"]:
            return payload, "not every piece has a trivializing gauge"
        base = {"edges": [{"id": e.id, "from": e.frm, "to": e.to} for e in glued.base.edges.values()]}
        for idx, gauge in witnesses.items():
            piece = {"edges": [e for e in base["edges"] if e["id"] in set(inp["pieces"][idx])]}
            identity = {e["id"]: "e" for e in piece["edges"]}
            problem = oracle.check_gauge(piece, glued.transitions, identity, gauge)
            if problem:
                return payload, f"piece {idx}: {problem}"
        return payload, oracle.check_glue_overlaps(inp, witnesses)
    if kind == "glue-bad":
        payload = {"ok": r.ok, "reason": r.reason, "witness": plain(r.witness)}
        if r.ok or r.reason != "cocycle fails on a triple overlap":
            return payload, f"corrupted glue data answered {r.ok} ({r.reason})"
        return payload, None
    if kind == "germ-eq":
        if r.found != want["equivalent"]:
            return None, f"equivalent={r.found}, known answer {want['equivalent']}"
        if not r.found:
            return {"equivalent": False}, None
        center = compose(inp["d2"]["marking"], inverse(inp["d1"]["marking"]))
        problem = f"center {r.center}, markings pin {center}" if r.center != center else None
        problem = problem or oracle.check_germ_legs(inp["d1"], inp["d2"], center, r.legs)
        return {"equivalent": True, "center": r.center, "legs": plain(_sorted_map(r.legs))}, problem
    if kind == "germ-nf":
        d = inp["d"]
        bp = d["basepoint"]
        ends = sum((e["from"] == bp) + (e["to"] == bp) for e in d["edges"])
        fam = r.family
        center = next(v["lengths"] for v in d["vertices"] if v["id"] == bp)
        problem = None
        if len(fam.base.edges) != ends or _fmt(fam.vertex_lengths[r.basepoint]) != [
            str(Fraction(x)) for x in center
        ]:
            problem = "normal form does not keep one leg per incident end and the center fiber"
        return {"basepoint": r.basepoint, "marking": r.marking, "family": _family_payload(fam)}, problem
    if kind == "coarse":
        payload = {"status": r.status, "witness": plain(r.witness)}
        return payload, None if r.status == want["status"] else f"status {r.status}, known {want['status']}"
    if kind == "quotient":
        equal, nmap = r
        payload = {"equal": equal, "vertexValues": {v: _fmt(x) for v, x in sorted(nmap.vertex_values.items())}}
        fibers = {v["id"]: sorted(oracle.lengths(v["lengths"])) for v in inp["f"]["vertices"]}
        if not equal:
            return payload, "isomorphic families have different quotient maps"
        if any(list(nmap.vertex_values[v]) != fibers[v] for v in fibers):
            return payload, "quotient map is not the sorted fiber at a vertex"
        return payload, None
    raise ValueError(f"unknown question kind {kind}")


def _check_classify(triple, report, want):
    if report["inM"] != want["inM"]:
        return f"inM={report['inM']}, known answer {want['inM']}"
    if not want["inM"]:
        return None
    t = oracle.lengths(triple)
    s = sum(t)
    expected = {
        "type": want["type"],
        "nRepresentative": [str(v) for v in sorted(t)],
        "perimeter2": [str(2 * v / s) for v in t],
    }
    for key, value in expected.items():
        if report[key] != value:
            return f"{key}={report[key]}, want {value}"
    if len(report["stabilizer"]) != {"equilateral": 6, "isosceles": 2, "scalene": 1}[want["type"]]:
        return "stabilizer has the wrong order"
    return None


# -- input-derived work counts -------------------------------------------------------


def work_counts(questions):
    triples = 0
    for q in questions:
        if q.kind in ("glue", "glue-bad"):
            p = q.expect["pieces"]
            triples += p * (p - 1) * (p - 2) // 6
    return {"torsor.glue_piece_triples": triples}
