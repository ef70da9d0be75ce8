"""Differential tests of the group-label searches against brute-force oracles.

The oracles below are the searches the library used before its
spanning-forest kernel: a per-edge backtracking search for family
isomorphism, BFS with a full edge scan per vertex for orientability and
torsor triviality, and the product over every component's root values for
gauge isomorphism.  Verdicts, witnesses (including dict order) and
``find_all`` lists must agree on the seeded corpus and on hypothesis
graphs with loops, parallel edges, isolated vertices, many components and
random glue.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tristack import corpus
from tristack.families import (
    Edge,
    Infeasibility,
    IsoResult,
    Orientation,
    are_isomorphic,
    constant_family,
    edge_transport,
    family,
    graph,
    is_orientable,
    twist_family,
)
from tristack.records import Record
from tristack.torsor import (
    SimplicialBase,
    TorsorCocycle,
    Triviality,
    find_gauge_isomorphism,
    gauge_transform,
    group_s3,
    group_z2,
    group_z3,
    is_trivial,
    validate_torsor,
)
from tristack.trigeo import PERMS, TriangleLengths, act, compose, inverse, stabilizer

F = Fraction

# -- oracles ----------------------------------------------------------------------


def _scan_ends(base, v):
    out = []
    for e in base.edges.values():
        if e.frm == v:
            out.append((e.id, "from"))
        if e.to == v:
            out.append((e.id, "to"))
    return out


def _components(base):
    seen, comps = set(), []
    adj = {v: set() for v in base.vertices}
    for e in base.edges.values():
        adj[e.frm].add(e.to)
        adj[e.to].add(e.frm)
    for v in base.vertices:
        if v in seen:
            continue
        comp, stack = [], [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            comp.append(u)
            stack.extend(adj[u] - seen)
        comps.append(sorted(comp))
    return comps


def _cycle_through(parent, e):
    def path_to_root(v):
        out = []
        while parent[v] is not None:
            u, eid, end = parent[v]
            out.append((eid, "backward" if end == "from" else "forward"))
            v = u
        return out

    up_from = path_to_root(e.to)
    down_to = path_to_root(e.frm)
    common = 0
    while (
        common < len(up_from)
        and common < len(down_to)
        and up_from[len(up_from) - 1 - common] == down_to[len(down_to) - 1 - common]
    ):
        common += 1
    cyc = [(e.id, "forward")]
    cyc += up_from[: len(up_from) - common]
    cyc += [
        (eid, "forward" if d == "backward" else "backward")
        for eid, d in reversed(down_to[: len(down_to) - common])
    ]
    return cyc


def oracle_is_orientable(fam):
    sigma, parent = {}, {}
    for comp in _components(fam.base):
        root = comp[0]
        sigma[root] = "e"
        parent[root] = None
        frontier = [root]
        in_comp = set(comp)
        tree_edges = set()
        while frontier:
            u = frontier.pop(0)
            for eid, end in sorted(_scan_ends(fam.base, u)):
                e = fam.base.edges[eid]
                other = e.to if end == "from" else e.frm
                if other in sigma:
                    continue
                g_here = fam.glue(eid, end)
                g_there = fam.glue(eid, "to" if end == "from" else "from")
                sigma[other] = compose(compose(sigma[u], g_here), inverse(g_there))
                parent[other] = (u, eid, end)
                tree_edges.add(eid)
                frontier.append(other)
        for eid in sorted(fam.base.edges):
            e = fam.base.edges[eid]
            if e.frm not in in_comp or eid in tree_edges:
                continue
            lhs = compose(compose(sigma[e.frm], fam.glue_from[eid]), inverse(fam.glue_to[eid]))
            if lhs != sigma[e.to]:
                cycle = _cycle_through(parent, e)
                mono = "e"
                for cid, direction in cycle:
                    p = edge_transport(fam, cid)
                    mono = compose(inverse(p) if direction == "backward" else p, mono)
                return Orientation(False, obstruction_cycle=tuple(cycle), monodromy=mono)
    recharts = {eid: compose(sigma[e.frm], fam.glue_from[eid]) for eid, e in fam.base.edges.items()}
    return Orientation(True, vertex_gauge=sigma, edge_recharts=recharts)


def _oracle_candidates(f_chart, g_chart):
    from tristack.families import path_value
    from tristack.trigeo import act_tuple

    ts = sorted({t for t, _ in f_chart} | {t for t, _ in g_chart})
    return [
        tau for tau in PERMS
        if all(act_tuple(tau, path_value(f_chart, t)) == path_value(g_chart, t) for t in ts)
    ]


def _transported(f, g, eid, end, tau):
    return compose(g.glue(eid, end), compose(tau, inverse(f.glue(eid, end))))


def oracle_are_isomorphic(f, g, find_all=False):
    edges = sorted(f.base.edges)
    cands = {e: _oracle_candidates(f.charts[e], g.charts[e]) for e in edges}
    iso_perm = {}
    for v in f.base.vertices:
        if _scan_ends(f.base, v):
            continue
        opts = [h for h in PERMS if act(h, f.vertex_lengths[v]) == g.vertex_lengths[v]]
        if not opts:
            return [] if find_all else IsoResult(False, obstruction=None)
        iso_perm[v] = opts[0]
    solutions, assignment, vperm = [], {}, {}

    def place(i):
        if i == len(edges):
            solutions.append((dict(assignment), dict(vperm, **iso_perm)))
            return not find_all
        eid = edges[i]
        e = f.base.edges[eid]
        for tau in cands[eid]:
            if any(
                v in vperm and vperm[v] != _transported(f, g, eid, end, tau)
                for v, end in ((e.frm, "from"), (e.to, "to"))
            ):
                continue
            assignment[eid] = tau
            touched, ok = [], True
            for v, end in ((e.frm, "from"), (e.to, "to")):
                h = _transported(f, g, eid, end, tau)
                if v not in vperm:
                    vperm[v] = h
                    touched.append(v)
                elif vperm[v] != h:
                    ok = False
                    break
            if ok and place(i + 1):
                return True
            for v in touched:
                del vperm[v]
            del assignment[eid]
        return False

    place(0)
    if find_all:
        return [IsoResult(True, a, vp) for a, vp in solutions]
    if solutions:
        return IsoResult(True, *solutions[0])
    for v in f.base.vertices:
        hsets = [
            (eid, tuple(sorted({_transported(f, g, eid, end, tau) for tau in cands[eid]}, key=PERMS.index)))
            for eid, end in sorted(_scan_ends(f.base, v))
        ]
        for (e1, h1), (e2, h2) in itertools.combinations(hsets, 2):
            if not set(h1) & set(h2):
                return IsoResult(False, obstruction=Infeasibility(v, e1, h1, e2, h2))
    return IsoResult(False, obstruction=None)


def oracle_is_trivial(t):
    g = t.base.graph()
    gauge, parent, tree = {}, {}, set()
    for comp in _components(g):
        root = comp[0]
        gauge[root] = t.group.identity
        parent[root] = None
        frontier = [root]
        while frontier:
            u = frontier.pop(0)
            for eid, end in sorted(_scan_ends(g, u)):
                e = g.edges[eid]
                other = e.to if end == "from" else e.frm
                if other in gauge:
                    continue
                elem = t.element(eid, 1 if end == "from" else -1)
                gauge[other] = t.group.mul(t.group.inverse(elem), gauge[u])
                parent[other] = (u, eid, end)
                tree.add(eid)
                frontier.append(other)
    for eid in sorted(g.edges):
        if eid in tree:
            continue
        e = g.edges[eid]
        if gauge[e.to] != t.group.mul(t.group.inverse(t.transitions[eid]), gauge[e.frm]):
            cycle = _cycle_through(parent, e)
            mono = t.group.path_product(t.element(c, 1 if d == "forward" else -1) for c, d in cycle)
            return Triviality(False, obstruction_cycle=tuple(cycle), monodromy=mono)
    return Triviality(True, gauge=gauge)


def oracle_find_gauge(t1, t2):
    if t1.base.cells() != t2.base.cells() or t1.group.elements != t2.group.elements:
        return None
    g, grp = t1.base.graph(), t1.group

    def solve(component_roots):
        gauge = {}
        for root, root_val in component_roots:
            gauge[root] = root_val
            frontier = [root]
            while frontier:
                u = frontier.pop(0)
                for eid, end in sorted(_scan_ends(g, u)):
                    e = g.edges[eid]
                    other = e.to if end == "from" else e.frm
                    if other in gauge:
                        continue
                    a = t1.element(eid, 1 if end == "from" else -1)
                    b = t2.element(eid, 1 if end == "from" else -1)
                    gauge[other] = grp.mul(grp.inverse(a), grp.mul(gauge[u], b))
                    frontier.append(other)
        for eid, e in g.edges.items():
            if grp.mul(grp.inverse(gauge[e.frm]), grp.mul(t1.transitions[eid], gauge[e.to])) != t2.transitions[eid]:
                return None
        return gauge

    roots = [comp[0] for comp in _components(g)]
    for combo in itertools.product(grp.elements, repeat=len(roots)):
        gauge = solve(list(zip(roots, combo)))
        if gauge is not None:
            return gauge
    return None


# -- comparison -------------------------------------------------------------------


def _ordered(value):
    """Record or dict with every dict replaced by its item list, so order counts."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, Record):
        return (type(value).__name__, [(k, _ordered(getattr(value, k))) for k in value.__slots__])
    if isinstance(value, list):
        return [_ordered(v) for v in value]
    return value


def assert_families_agree(f, g):
    assert _ordered(is_orientable(f)) == _ordered(oracle_is_orientable(f))
    assert _ordered(are_isomorphic(f, g)) == _ordered(oracle_are_isomorphic(f, g))
    assert _ordered(are_isomorphic(f, g, find_all=True)) == _ordered(oracle_are_isomorphic(f, g, find_all=True))


def assert_torsors_agree(t1, t2):
    assert _ordered(is_trivial(t1)) == _ordered(oracle_is_trivial(t1))
    assert _ordered(find_gauge_isomorphism(t1, t2)) == _ordered(oracle_find_gauge(t1, t2))


# -- generators -------------------------------------------------------------------

FIBERS = (
    TriangleLengths(3, 4, 5),
    TriangleLengths(4, 3, 5),
    TriangleLengths(2, 2, 3),
    TriangleLengths(2, 3, 2),
    TriangleLengths(1, 1, 1),
)


@st.composite
def graphs(draw, max_vertices=7, max_edges=10):
    """Vertex and edge lists with loops, parallel edges and isolated vertices.

    Edge ids are drawn shuffled, so components interleave in edge-id order.
    """
    n = draw(st.integers(1, max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=max_edges))
    ids = draw(st.permutations([f"e{i}" for i in range(len(ends))]))
    return vertices, [Edge(eid, a, b) for eid, (a, b) in zip(ids, ends)]


@st.composite
def family_pairs(draw):
    vertices, edges = draw(graphs())
    base = graph(vertices, edges)
    fiber = {v: draw(st.sampled_from(FIBERS)) for v in base.vertices}
    gf = {eid: draw(st.sampled_from(PERMS)) for eid in base.edges}
    gt = {eid: draw(st.sampled_from(PERMS)) for eid in base.edges}
    charts = {}
    for eid, e in base.edges.items():
        start, end = act(inverse(gf[eid]), fiber[e.frm]), act(inverse(gt[eid]), fiber[e.to])
        mid = draw(st.sampled_from((None,) + FIBERS))
        charts[eid] = ((F(0), start),) + (((F(1, 2), mid),) if mid else ()) + ((F(1), end),)
    f = family(base, fiber, charts, gf, gt)
    # g relabels f by h_v and tau_e, which makes it isomorphic, then may break
    # one glue by a stabilizer of its fiber, which keeps it a valid family
    h = {v: draw(st.sampled_from(PERMS)) for v in base.vertices}
    tau = {eid: draw(st.sampled_from(PERMS)) for eid in base.edges}
    g_fiber = {v: act(h[v], t) for v, t in fiber.items()}
    g_charts = {eid: tuple((t, act(tau[eid], val)) for t, val in c) for eid, c in charts.items()}
    g_gf = {eid: compose(h[e.frm], compose(gf[eid], inverse(tau[eid]))) for eid, e in base.edges.items()}
    g_gt = {eid: compose(h[e.to], compose(gt[eid], inverse(tau[eid]))) for eid, e in base.edges.items()}
    if base.edges and draw(st.booleans()):
        eid = draw(st.sampled_from(sorted(base.edges)))
        e = base.edges[eid]
        if draw(st.booleans()):
            g_gf[eid] = compose(draw(st.sampled_from(stabilizer(g_fiber[e.frm]))), g_gf[eid])
        else:
            g_gt[eid] = compose(draw(st.sampled_from(stabilizer(g_fiber[e.to]))), g_gt[eid])
    return f, family(base, g_fiber, g_charts, g_gf, g_gt)


@st.composite
def torsor_pairs(draw, max_vertices=5):
    vertices, edges = draw(graphs(max_vertices=max_vertices, max_edges=8))
    base = SimplicialBase(vertices, edges)
    grp = draw(st.sampled_from((group_s3(), group_z2(), group_z3())))
    t1 = TorsorCocycle(base, grp, {eid: draw(st.sampled_from(grp.elements)) for eid in base.edges})
    t2 = gauge_transform(t1, {v: draw(st.sampled_from(grp.elements)) for v in base.vertices})
    if base.edges and draw(st.booleans()):
        eid = draw(st.sampled_from(sorted(base.edges)))
        transitions = dict(t2.transitions)
        transitions[eid] = grp.mul(transitions[eid], draw(st.sampled_from(grp.elements)))
        t2 = TorsorCocycle(base, grp, transitions)
    return t1, t2


# -- tests ------------------------------------------------------------------------

HYPOTHESIS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestAgainstOracles:
    @HYPOTHESIS
    @given(family_pairs())
    def test_family_searches(self, pair):
        f, g = pair
        assert_families_agree(f, g)
        assert_families_agree(g, f)

    @HYPOTHESIS
    @given(torsor_pairs())
    def test_torsor_searches(self, pair):
        t1, t2 = pair
        assert_torsors_agree(t1, t2)
        assert_torsors_agree(t2, t1)

    def test_find_all_over_interleaved_symmetric_components(self):
        # every fiber equilateral: each component has six solutions, and the
        # components' edge ids interleave
        base = graph(
            ["a", "b", "c", "d", "x"],
            [("e1", "a", "b"), ("e2", "c", "d"), ("e3", "b", "a"), ("e4", "d", "d")],
        )
        f = constant_family(base, (1, 1, 1))
        g = twist_family(f, "(ABC)")
        assert len(are_isomorphic(f, g, find_all=True)) == 36
        assert_families_agree(f, g)

    def test_family_corpus(self):
        fams = corpus.family_corpus(seed=3, n=40)
        for i, fam in enumerate(fams):
            for other in (fam, twist_family(fam, PERMS[i % 6]), fams[(i + 1) % len(fams)]):
                if other.base == fam.base:
                    assert_families_agree(fam, other)

    def test_torsor_corpus(self):
        rng = random.Random(5)
        for base in corpus.simplicial_base_corpus(seed=5, n=30):
            for grp in (group_s3(), group_z2(), group_z3()):
                t = corpus.random_torsor(rng, base, grp)
                gauged = gauge_transform(t, {v: rng.choice(grp.elements) for v in base.vertices})
                plain = TorsorCocycle(base, grp, {e: grp.identity for e in base.edges})
                for t2 in (gauged, plain):
                    if validate_torsor(t2).ok:
                        assert_torsors_agree(t, t2)


# -- regressions ------------------------------------------------------------------


def _path_family(n):
    base = graph([f"v{i:05d}" for i in range(n + 1)], [(f"e{i:05d}", f"v{i:05d}", f"v{i + 1:05d}") for i in range(n)])
    return constant_family(base, (3, 4, 5))


class TestNoRecursion:
    def test_long_path_answers(self):
        fam = _path_family(5000)
        r = are_isomorphic(fam, fam)
        assert r.found and set(r.assignment.values()) == {"e"} and len(r.vertex_perms) == 5001
        assert is_orientable(fam).orientable

    def test_gauge_without_solution_over_ten_components(self):
        tri = [(f"c{k}", f"d{k}", f"x{k}") for k in range(10)]
        vertices = [v for t in tri for v in t]
        edges = [Edge(f"{a}{b}", a, b) for a, b, c in tri for a, b in ((a, b), (b, c), (c, a))]
        base = SimplicialBase(vertices, edges)
        grp = group_s3()
        t1 = TorsorCocycle(base, grp, {e: "e" for e in base.edges})
        t2 = TorsorCocycle(base, grp, dict(t1.transitions, x9c9="(AB)"))
        assert find_gauge_isomorphism(t1, t2) is None
        assert find_gauge_isomorphism(t1, t1) == {v: "e" for v in sorted(vertices)}
