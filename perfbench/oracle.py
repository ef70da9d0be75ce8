"""The benchmark's own checkers for positive witnesses.

Nothing here calls the library function that produced a witness: each
checker applies the witness to the question's JSON input and re-checks
the defining equations. Permutations are derived from their labels
(a label renames the vertices A, B, C; edge lengths are stored as
(AB, AC, BC)), so the checkers share the library's conventions but none
of its code.
"""

from __future__ import annotations

from fractions import Fraction

PERMS = ("e", "(AB)", "(AC)", "(BC)", "(ABC)", "(ACB)")
TRANSPOSITIONS = ("(AB)", "(AC)", "(BC)")
_EDGES = ("AB", "AC", "BC")


def _letters(g):
    cycle = "" if g == "e" else g.strip("()")
    image = {c: c for c in "ABC"}
    for i, c in enumerate(cycle):
        image[c] = cycle[(i + 1) % len(cycle)]
    return image


def _source_positions(g):
    # relabelling by g moves the length of edge PQ to edge g(P)g(Q)
    image = _letters(g)
    out = [None] * 3
    for i, edge in enumerate(_EDGES):
        moved = "".join(sorted(image[c] for c in edge))
        out[_EDGES.index(moved)] = i
    return tuple(out)


_SOURCE = {g: _source_positions(g) for g in PERMS}


def act(g, t):
    src = _SOURCE[g]
    return (t[src[0]], t[src[1]], t[src[2]])


_BY_IMAGE = {act(g, (0, 1, 2)): g for g in PERMS}


def compose(g, h):
    """g after h."""
    return _BY_IMAGE[act(g, act(h, (0, 1, 2)))]


def inverse(g):
    return next(h for h in PERMS if compose(g, h) == "e")


def s3_mul(a, b):
    """The torsor group law of S3: a then b."""
    return compose(b, a)


def lengths(raw):
    return tuple(Fraction(v) for v in raw)


# -- families ----------------------------------------------------------------------


def _chart(edge):
    return [(Fraction(p["t"]), lengths(p["lengths"])) for p in edge["chart"]]


def _chart_at(chart, t):
    for (t0, v0), (t1, v1) in zip(chart, chart[1:]):
        if t0 <= t <= t1:
            lam = (t - t0) / (t1 - t0)
            return tuple(a + lam * (b - a) for a, b in zip(v0, v1))
    raise ValueError(f"time {t} outside the chart")


def _edges(fam):
    return {e["id"]: e for e in fam["edges"]}


def check_family_iso(f, g, assignment, vertex_perms):
    """Apply the per-edge permutations and re-check charts, ends and fibers."""
    fe, ge = _edges(f), _edges(g)
    if set(assignment) != set(fe):
        return "assignment does not cover exactly the edges"
    induced = {}
    for eid, e in fe.items():
        tau, fc, gc = assignment[eid], _chart(e), _chart(ge[eid])
        for t in sorted({t for t, _ in fc} | {t for t, _ in gc}):
            if act(tau, _chart_at(fc, t)) != _chart_at(gc, t):
                return f"edge {eid}: {tau} does not carry the chart at t={t}"
        for end, glue in (("from", "glueFrom"), ("to", "glueTo")):
            v = e[end]
            h = compose(ge[eid].get(glue, "e"), compose(tau, inverse(e.get(glue, "e"))))
            if induced.setdefault(v, h) != h:
                return f"vertex {v}: incident ends induce different permutations"
    fv = {v["id"]: lengths(v["lengths"]) for v in f["vertices"]}
    gv = {v["id"]: lengths(v["lengths"]) for v in g["vertices"]}
    for v, h in induced.items():
        if act(h, fv[v]) != gv[v]:
            return f"vertex {v}: {h} does not carry the fiber"
        if vertex_perms is not None and vertex_perms.get(v) != h:
            return f"vertex {v}: reported permutation differs from the induced one"
    return None


def check_orientation(fam, gauge, recharts):
    """Gauge and recharts must make every glue permutation trivial."""
    for eid, e in _edges(fam).items():
        r = recharts.get(eid)
        if compose(gauge[e["from"]], e.get("glueFrom", "e")) != r:
            return f"edge {eid}: from-end glue not trivialized"
        if compose(gauge[e["to"]], e.get("glueTo", "e")) != r:
            return f"edge {eid}: to-end glue not trivialized"
    return None


def _walk(edges, cycle):
    """Check that the steps close up; yield (edge, forward?) pairs."""
    here = None
    start = None
    out = []
    for eid, direction in cycle:
        e = edges[eid]
        a, b = (e["from"], e["to"]) if direction == "forward" else (e["to"], e["from"])
        if here is not None and a != here:
            raise ValueError(f"cycle breaks before edge {eid}")
        if start is None:
            start = a
        here = b
        out.append((eid, direction == "forward"))
    if here != start:
        raise ValueError("cycle does not close")
    return out


def family_cycle_monodromy(fam, cycle):
    edges = _edges(fam)
    mono = "e"
    for eid, forward in _walk(edges, cycle):
        e = edges[eid]
        p = compose(e.get("glueTo", "e"), inverse(e.get("glueFrom", "e")))
        mono = compose(p if forward else inverse(p), mono)
    return mono


def _legs(d):
    """Leg charts of a deformation, keyed as its germ normal form names them.

    A leg runs outward from the basepoint: a from-end keeps the edge's
    id when the edge leaves the basepoint for another vertex; every other
    end is named ``<edge>.<end>``.
    """
    bp, out = d["basepoint"], {}
    for e in d["edges"]:
        for end in ("from", "to"):
            if e[end] != bp:
                continue
            gid = e["id"] if end == "from" and e["to"] != bp else f"{e['id']}.{end}"
            glue = e.get("glueFrom" if end == "from" else "glueTo", "e")
            out[gid] = (_chart(e), end == "from", glue)
    return out


def _leg_at(leg, r):
    chart, outward, _ = leg
    return _chart_at(chart, r if outward else 1 - r)


def _leg_breaks(leg, radius):
    """Breakpoints of a leg cut at ``radius``, rescaled to [0, 1]."""
    chart, outward, _ = leg
    rs = {t if outward else 1 - t for t, _ in chart}
    return {r / radius for r in rs if 0 < r < radius} | {Fraction(0), Fraction(1)}


def check_germ_legs(d1, d2, center, legs):
    """Each leg's (tau, k1, k2) must carry d1's leg cut at 2^-k1 onto d2's cut at 2^-k2.

    The transported permutation glue2 . tau . glue1^-1 must be the center one.
    """
    l1, l2 = _legs(d1), _legs(d2)
    if set(legs) != set(l1) or set(l1) != set(l2):
        return "legs do not match the incident edge-ends"
    for gid, (tau, k1, k2) in legs.items():
        r1, r2 = Fraction(1, 2 ** k1), Fraction(1, 2 ** k2)
        for s in sorted(_leg_breaks(l1[gid], r1) | _leg_breaks(l2[gid], r2)):
            if act(tau, _leg_at(l1[gid], s * r1)) != _leg_at(l2[gid], s * r2):
                return f"leg {gid}: {tau} does not carry the germ at {s}"
        if compose(l2[gid][2], compose(tau, inverse(l1[gid][2]))) != center:
            return f"leg {gid}: {tau} does not transport to the center permutation"
    return None


# -- torsors over S3 ----------------------------------------------------------------


def check_gauge(base, t1, t2, gauge):
    """The gauge must carry every transition of t1 to the one of t2."""
    for e in base["edges"]:
        got = s3_mul(inverse(gauge[e["from"]]), s3_mul(t1[e["id"]], gauge[e["to"]]))
        if got != t2[e["id"]]:
            return f"edge {e['id']}: gauge gives {got}, want {t2[e['id']]}"
    return None


def check_glue_overlaps(glue_input, gauges):
    """Piece gauges must differ on every overlap cell by the input's identification.

    On an overlap of pieces i < j the input gives alpha_ij per cell; the
    gauges must satisfy gauge_i^-1 . gauge_j = alpha_ij at each vertex of
    the cell (an edge has its two ends, a face the ends of its edges).
    """
    base = glue_input["base"]
    ends = {e["id"]: (e["from"], e["to"]) for e in base["edges"]}
    for f in base.get("faces", ()):
        ends[f["id"]] = tuple(v for eid, _ in f["boundary"] for v in ends[eid])
    for t in glue_input["transitions"]:
        gi, gj = gauges[t["i"]], gauges[t["j"]]
        for cell, alpha in t["cells"].items():
            for v in ends.get(cell, (cell,)):
                got = s3_mul(inverse(gi[v]), gj[v])
                if got != alpha:
                    return f"overlap ({t['i']}, {t['j']}) at {cell}: gauges give {got}, input has {alpha}"
    return None


def torsor_cycle_product(base, transitions, cycle):
    edges = {e["id"]: e for e in base["edges"]}
    prod = "e"
    for eid, forward in _walk(edges, cycle):
        g = transitions[eid]
        prod = s3_mul(prod, g if forward else inverse(g))
    return prod


# -- finite categories -------------------------------------------------------------


class Cat:
    """Read-only view of a category JSON: typed arrows and composition."""

    def __init__(self, raw):
        self.objects = list(raw["objects"])
        self.src = {m["id"]: m["src"] for m in raw["morphisms"]}
        self.tgt = {m["id"]: m["tgt"] for m in raw["morphisms"]}
        self.identity = dict(raw["identities"])
        self.table = {(g, f): gf for g, f, gf in raw["compose"]}

    def hom(self, a, b):
        return [m for m in self.src if self.src[m] == a and self.tgt[m] == b]

    def composable_triples(self):
        into = {}
        for m, t in self.tgt.items():
            into[t] = into.get(t, 0) + 1
        out_of = {}
        for m, s in self.src.items():
            out_of[s] = out_of.get(s, 0) + 1
        return sum(into[self.src[g]] * out_of[self.tgt[g]] for g in self.src)


def is_cartesian(dom: Cat, cod: Cat, mor_map, lift):
    """Every g' into the lift's target factors uniquely over every h."""
    f = mor_map[lift]
    for g_prime in [m for m in dom.src if dom.tgt[m] == dom.tgt[lift]]:
        g = mor_map[g_prime]
        for h in cod.hom(cod.src[g], cod.src[f]):
            if cod.table[(f, h)] != g:
                continue
            factors = [
                m for m in dom.hom(dom.src[g_prime], dom.src[lift])
                if mor_map[m] == h and dom.table[(lift, m)] == g_prime
            ]
            if len(factors) != 1:
                return False
    return True


def fibers_are_groupoids(dom: Cat, cod: Cat, obj_map, mor_map):
    for x in cod.objects:
        over = [m for m in dom.src if mor_map[m] == cod.identity[x]]
        for m in over:
            a, b = dom.src[m], dom.tgt[m]
            if not any(
                dom.table.get((c, m)) == dom.identity[a] and dom.table.get((m, c)) == dom.identity[b]
                for c in over
                if dom.src[c] == b and dom.tgt[c] == a
            ):
                return False
    return True


def total_morphism_count(psf):
    """Morphisms of the total category: (u, f, s) with u: t -> f*(s) over T."""
    base = Cat(psf["base"])
    count = 0
    for f in base.src:
        fib_t = Cat(psf["fibers"][base.src[f]])
        on_obj = psf["pullbacks"][f]["onObjects"]
        for s in psf["fibers"][base.tgt[f]]["objects"]:
            target = on_obj[s]
            count += sum(1 for m in fib_t.src if fib_t.tgt[m] == target)
    return count


def generated_sieve(base: Cat, family):
    return frozenset(
        base.table[(iota, g)] for iota in family for g in base.src if base.tgt[g] == base.src[iota]
    )
