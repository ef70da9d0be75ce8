"""Piecewise-linear families of triangles over finite graph bases.

A family is presented by exact charts: every edge of the base graph
carries a PL path of edge-length triples inside the open cone M, and
every (vertex, incident edge-end) carries a vertex-relabeling
permutation transporting the chart's endpoint value to the single fiber
stored at the vertex.  Because M is convex, interpolation between
breakpoints stays inside M for free, so the breakpoint data is the whole
family.

Isomorphism of families is decided by a finite constraint search.  The
keystone is the locally-constant lemma: a continuous fiberwise-isometric
identification of two nondegenerate families induces a vertex-label
permutation at every base point, and since the vertices of a
nondegenerate triangle are pairwise distinct and move continuously, that
permutation is constant on open edges and matches up at vertices.  Per
edge there is therefore one unknown permutation, constrained by chart
equality and vertex-end compatibility; the search below is complete for
exactly that reason.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter

from . import trigeo
from .records import Record, read, setfield
from .trigeo import (
    PERM_ACTION,
    PERMS,
    NotInM,
    TriangleLengths,
    act,
    act_tuple,
    compose,
    inverse,
)

F0 = Fraction(0)
F1 = Fraction(1)


class FamilyError(ValueError):
    pass


class FiberNotInM(FamilyError):
    pass


class GlueInconsistent(FamilyError):
    pass


class NotOriented(FamilyError):
    pass


class DifferentBase(FamilyError):
    pass


class IllTypedMap(FamilyError):
    pass


# -- base graphs ---------------------------------------------------------------


class Edge(Record):
    __slots__ = ("id", "frm", "to")

    def __init__(self, id: str, frm: str, to: str):
        setfield(self, "id", id)
        setfield(self, "frm", frm)
        setfield(self, "to", to)


class BaseGraph:
    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(vertices))
        self.edges = {e.id: e for e in sorted(edges, key=lambda e: e.id)}
        # incident ends per vertex, in (edge id, end) order
        self._ends = {v: [] for v in self.vertices}
        for e in self.edges.values():
            if e.frm not in self._ends or e.to not in self._ends:
                raise FamilyError(f"edge {e.id} has unknown endpoint")
            self._ends[e.frm].append((e.id, "from"))
            self._ends[e.to].append((e.id, "to"))

    def incident_ends(self, v):
        """(edge id, end) pairs at v in that order; a loop contributes both ends."""
        return list(self._ends.get(v, ()))

    # -- group labels along a spanning forest --------------------------------
    # ``push(eid, end, label)`` is the label an edge forces on the vertex
    # across it from the vertex at ``end`` labelled ``label``, or None when
    # the edge admits none.  Orientability, family isomorphism, torsor
    # triviality and gauge isomorphism are all switching problems on such
    # voltage graphs: fix a label at a root, propagate it along a spanning
    # tree, check the remaining edges.

    def spread(self, root, value, push):
        """Label root's component breadth first, ends in (edge id, end) order.

        Returns the labels in visiting order and the tree as
        ``parent[v] = (u, eid, end)`` (None at the root), or None as soon
        as a tree edge admits no label.
        """
        labels, parent = {root: value}, {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for eid, end in self._ends[u]:
                e = self.edges[eid]
                other = e.to if end == "from" else e.frm
                if other in labels:
                    continue
                label = push(eid, end, labels[u])
                if label is None:
                    return None
                labels[other] = label
                parent[other] = (u, eid, end)
                queue.append(other)
        return labels, parent

    def open_edges(self, labels, push):
        """Ids, in no particular order, of the edges at the labelled vertices left open."""
        for v, label in labels.items():
            for eid, end in self._ends[v]:
                if end == "from" and push(eid, end, label) != labels[self.edges[eid].to]:
                    yield eid

    def labellings(self, root, values, push):
        """Labellings of root's component closing every edge, one per root value, in order."""
        for value in values:
            spread = self.spread(root, value, push)
            if spread is not None and next(self.open_edges(spread[0], push), None) is None:
                yield spread[0]

    def __eq__(self, other):
        return (
            isinstance(other, BaseGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"BaseGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def graph(vertices, edges) -> BaseGraph:
    return BaseGraph(vertices, [Edge(*e) if not isinstance(e, Edge) else e for e in edges])


# -- PL paths ------------------------------------------------------------------
# A PL path is a tuple of (time, point) pairs whose exact times rise
# strictly from 0 to 1; a point is a coordinate triple, a tuple or a
# TriangleLengths (both iterate over their coordinates).  Charts and the
# samples of a PLMap are PL paths, served by one evaluator, one merge walk
# and one reparametrisation.
#
# Segment arithmetic runs on integers.  A point becomes three numerators
# over one positive denominator (``_int_point``) and a place on a segment
# an integer ratio l/m with m > 0; the integer segment kernel
# (``_sign_changes``, ``_segment_crossings``) finds coordinate crossings,
# and each output time or coordinate is one ``Fraction(num, den)``.

_time = itemgetter(0)
_XYZ = attrgetter("x", "y", "z")


def _int_point(v) -> tuple:
    """(X, Y, Z, d): the coordinates of v as X/d, Y/d, Z/d, with d > 0 the lcm of their denominators."""
    x, y, z = _XYZ(v) if type(v) is TriangleLengths else v
    p, q, r = x.denominator, y.denominator, z.denominator
    d = lcm(p, q, r)
    return x.numerator * (d // p), y.numerator * (d // q), z.numerator * (d // r), d


def _sorted_by(a, v: TriangleLengths) -> tuple:
    """The coordinates of v, the objects themselves, sorted by the numerators of its integer point a."""
    return tuple([c for _, c in sorted(zip(a, _XYZ(v)))])


def _mix(a, b, l: int, m: int) -> tuple:
    """The integer point l/m of the way from integer point a to b (m > 0), unreduced."""
    da, db, k = a[3], b[3], m - l
    return (k * a[0] * db + l * b[0] * da, k * a[1] * db + l * b[1] * da,
            k * a[2] * db + l * b[2] * da, m * da * db)


def _lerp(p0, p1, t: Fraction):
    """The coordinates at t of the path segment from p0 to p1 (t0 < t < t1)."""
    (t0, v0), (t1, v1) = p0, p1
    n, e, n0, e0, n1, e1 = t.numerator, t.denominator, t0.numerator, t0.denominator, t1.numerator, t1.denominator
    x, y, z, d = _mix(_int_point(v0), _int_point(v1), (n * e0 - n0 * e) * e1, (n1 * e0 - n0 * e1) * e)
    return Fraction(x, d), Fraction(y, d), Fraction(z, d)


def _sign_changes(a, b) -> list:
    """(d0, d1) at integer points a, b of each coordinate difference that changes sign strictly.

    A difference that is 0 at either end touches and does not cross.
    """
    out = []
    for p, q in ((0, 1), (0, 2), (1, 2)):
        d0, d1 = a[p] - a[q], b[p] - b[q]
        if d0 > 0 > d1 or d0 < 0 < d1:
            out.append((d0, d1))
    return out


def _segment_crossings(t0: Fraction, a, t1: Fraction, b) -> list:
    """(time, sorted coordinates) at each distinct time, rising, where two coordinates cross strictly inside a segment.

    a and b are the integer points at t0 < t1.  Differences d0 and d1
    cross at λ = l/m with l = d0·b[3] and m = l - d1·a[3]; over the lcm of
    the m, equal λ have equal keys and are one crossing.
    """
    lams = []
    for d0, d1 in _sign_changes(a, b):
        l, m = d0 * b[3], d0 * b[3] - d1 * a[3]
        lams.append((l, m) if m > 0 else (-l, -m))
    if len(lams) > 1:
        common = lcm(*(m for _, m in lams))
        lams = [lm for _, lm in sorted({l * (common // m): (l, m) for l, m in lams}.items())]
    n0, e0, n1, e1 = t0.numerator, t0.denominator, t1.numerator, t1.denominator
    out = []
    for l, m in lams:
        x, y, z, d = _mix(a, b, l, m)
        x, y, z = sorted((x, y, z))
        time = Fraction(n0 * e1 * (m - l) + n1 * e0 * l, e0 * e1 * m)
        out.append((time, (Fraction(x, d), Fraction(y, d), Fraction(z, d))))
    return out


def path_value(path, t) -> tuple:
    """The coordinates of the path at t."""
    t = t if type(t) is Fraction else trigeo._frac(t)
    if not F0 <= t <= F1:
        raise FamilyError(f"chart parameter {t} outside [0,1]")
    i = bisect_left(path, t, key=_time)
    if path[i][0] == t:
        return tuple(path[i][1])
    return _lerp(path[i - 1], path[i], t)


def path_merge(p, q):
    """(t, p(t), q(t)) at the joint breakpoints of two paths, t rising.

    A two-pointer walk: each path is interpolated only at the other
    path's inner breakpoints.  ``tuple`` would read both kinds of point;
    ``_XYZ`` reads a TriangleLengths three times faster than its ``__iter__``.
    """
    xyz_p = tuple if type(p[0][1]) is tuple else _XYZ
    xyz_q = tuple if type(q[0][1]) is tuple else _XYZ
    i = j = 0
    while i < len(p):
        (s, u), (t, v) = p[i], q[j]
        if s == t:
            yield s, xyz_p(u), xyz_q(v)
            i, j = i + 1, j + 1
        elif s < t:
            yield s, xyz_p(u), _lerp(q[j - 1], q[j], s)
            i += 1
        else:
            yield t, _lerp(p[i - 1], p[i], t), xyz_q(v)
            j += 1


def path_reparam(path, a, b) -> tuple:
    """The path of s -> path(a + (b-a) s) with coordinate points; reverses when b < a."""
    a, b = trigeo._frac(a), trigeo._frac(b)
    if a == b:
        raise FamilyError("degenerate reparametrization")
    start, end = path_value(path, a), path_value(path, b)
    inner = path[bisect_right(path, min(a, b), key=_time):bisect_left(path, max(a, b), key=_time)]
    inner = [((t - a) / (b - a), tuple(v)) for t, v in inner]
    return ((F0, start), *(inner if a < b else reversed(inner)), (F1, end))


# -- charts --------------------------------------------------------------------
# A chart is a PL path of TriangleLengths.


def make_chart(points) -> tuple:
    """The chart of (time, triple) pairs built in Python; files are read by ``RationalReader.chart``."""
    out = []
    n0, d0, rising = -1, 0, True  # the reader's time test, on the integers of each Fraction
    for t, v in points:
        t = t if type(t) is Fraction else trigeo._frac(t)
        if not isinstance(v, TriangleLengths):
            v = TriangleLengths(*v)
        out.append((t, v))
        rising = rising and n0 * t.denominator < t.numerator * d0
        n0, d0 = t.numerator, t.denominator
    if not out or out[0][0] or n0 != d0:
        raise FamilyError("chart must start at 0 and end at 1")
    if not rising:
        raise FamilyError("chart times must increase strictly")
    return tuple(out)


def chart_eval(chart, t) -> TriangleLengths:
    return TriangleLengths(*path_value(chart, t))


def chart_act(g: str, chart):
    return tuple((t, act(g, v)) for t, v in chart)


def chart_reparam(chart, a: Fraction, b: Fraction):
    """Chart of t -> old(a + (b-a) t); reverses when b < a."""
    return tuple((s, TriangleLengths(*v)) for s, v in path_reparam(chart, a, b))


# -- families ------------------------------------------------------------------


class PLFamily(Record):
    __slots__ = ("base", "vertex_lengths", "charts", "glue_from", "glue_to")

    def __init__(self, base: BaseGraph, vertex_lengths: dict, charts: dict, glue_from: dict, glue_to: dict):
        setfield(self, "base", base)
        setfield(self, "vertex_lengths", vertex_lengths)  # vertex -> TriangleLengths
        setfield(self, "charts", charts)  # edge id -> chart
        setfield(self, "glue_from", glue_from)  # edge id -> Perm
        setfield(self, "glue_to", glue_to)  # edge id -> Perm

    def glue(self, edge_id, end):
        return self.glue_from[edge_id] if end == "from" else self.glue_to[edge_id]

    def is_presented_oriented(self) -> bool:
        return all(g == "e" for g in self.glue_from.values()) and all(
            g == "e" for g in self.glue_to.values()
        )


def validate_family(raw) -> PLFamily:
    """Check fibers, chart shape and glue consistency; returns the family.

    Accepts a PLFamily or the JSON-shaped dict (vertices with lengths,
    edges with charts and glue labels).
    """
    if isinstance(raw, dict):
        return family_from_json(raw)
    return _checked(raw, charts_built=False)


def _checked(fam: PLFamily, charts_built: bool) -> PLFamily:
    """validate_family's checks; ``charts_built`` skips re-running make_chart."""
    vl = fam.vertex_lengths
    for v in fam.base.vertices:
        if v not in vl:
            raise FamilyError(f"vertex {v} has no fiber")
        if not isinstance(vl[v], TriangleLengths):
            raise FiberNotInM((v, vl[v]))
    for eid, e in fam.base.edges.items():
        chart = fam.charts.get(eid)
        if chart is None:
            raise FamilyError(f"edge {eid} has no chart")
        if not charts_built:
            make_chart(chart)  # re-checks shape; values are TriangleLengths already
        g, h = fam.glue_from[eid], fam.glue_to[eid]
        try:
            p, q = PERM_ACTION[g], PERM_ACTION[h]
        except (KeyError, TypeError):  # an unhashable label (a list, say) is no label either
            raise FamilyError(f"edge {eid} glue {h if g in PERMS else g} is not a permutation label") from None
        # act(g, start) == the fiber at e.frm, on plain coordinate tuples
        s, v = chart[0][1], vl[e.frm]
        s = (s.x, s.y, s.z)
        if (s[p[0]], s[p[1]], s[p[2]]) != (v.x, v.y, v.z):
            raise GlueInconsistent(e.frm)
        s, v = chart[-1][1], vl[e.to]
        s = (s.x, s.y, s.z)
        if (s[q[0]], s[q[1]], s[q[2]]) != (v.x, v.y, v.z):
            raise GlueInconsistent(e.to)
    return fam


def family(base: BaseGraph, vertex_lengths, charts, glue_from=None, glue_to=None) -> PLFamily:
    glue_from = glue_from or {e: "e" for e in base.edges}
    glue_to = glue_to or {e: "e" for e in base.edges}
    vl = {}
    for v, t in vertex_lengths.items():
        try:
            vl[v] = t if isinstance(t, TriangleLengths) else TriangleLengths(*t)
        except NotInM as err:
            raise FiberNotInM((v, t)) from err
    built_charts = {}
    for e, c in charts.items():
        try:
            built_charts[e] = make_chart(c)
        except NotInM as err:
            raise FiberNotInM((e, c)) from err
    built = PLFamily(base, vl, built_charts, dict(glue_from), dict(glue_to))
    return _checked(built, charts_built=True)


def constant_family(base: BaseGraph, fiber) -> PLFamily:
    t = fiber if isinstance(fiber, TriangleLengths) else TriangleLengths(*fiber)
    return family(
        base,
        {v: t for v in base.vertices},
        {e: ((F0, t), (F1, t)) for e in base.edges},
    )


def point_family(fiber) -> PLFamily:
    return constant_family(graph(["p"], []), fiber)


def twist_family(fam: PLFamily, sigma: str) -> PLFamily:
    """Isomorphic copy with every fiber hit by the same global permutation."""
    return PLFamily(
        fam.base,
        {v: act(sigma, t) for v, t in fam.vertex_lengths.items()},
        {e: chart_act(sigma, c) for e, c in fam.charts.items()},
        {e: compose(sigma, compose(g, inverse(sigma))) for e, g in fam.glue_from.items()},
        {e: compose(sigma, compose(g, inverse(sigma))) for e, g in fam.glue_to.items()},
    )


# -- graph maps and pullback ---------------------------------------------------
# Points of a graph: ("vertex", v) or ("edge", e, t) with 0 < t < 1.
# Edge images: ("point", point) or ("segment", edge, a, b) with a != b.


def canonical_point(g: BaseGraph, e: str, t: Fraction):
    t = trigeo._frac(t)
    if t == 0:
        return ("vertex", g.edges[e].frm)
    if t == 1:
        return ("vertex", g.edges[e].to)
    if not F0 < t < F1:
        raise IllTypedMap(f"parameter {t} outside [0,1] on edge {e}")
    return ("edge", e, t)


class GraphMap(Record):
    __slots__ = ("dom", "cod", "vertex_image", "edge_image")

    def __init__(self, dom: BaseGraph, cod: BaseGraph, vertex_image: dict, edge_image: dict):
        setfield(self, "dom", dom)
        setfield(self, "cod", cod)
        setfield(self, "vertex_image", vertex_image)
        setfield(self, "edge_image", edge_image)


def validate_graph_map(m: GraphMap) -> GraphMap:
    for v in m.dom.vertices:
        p = m.vertex_image.get(v)
        if p is None:
            raise IllTypedMap(f"vertex {v} has no image")
        if p[0] == "vertex":
            if p[1] not in m.cod.vertices:
                raise IllTypedMap(f"vertex {v} maps to unknown vertex")
        elif p[0] == "edge":
            if p[1] not in m.cod.edges or not F0 < trigeo._frac(p[2]) < F1:
                raise IllTypedMap(f"vertex {v} maps to a non-point")
        else:
            raise IllTypedMap(f"vertex {v} image malformed")
    for eid, e in m.dom.edges.items():
        img = m.edge_image.get(eid)
        if img is None:
            raise IllTypedMap(f"edge {eid} has no image")
        if img[0] == "point":
            if m.vertex_image[e.frm] != img[1] or m.vertex_image[e.to] != img[1]:
                raise IllTypedMap(f"constant edge {eid} disagrees with endpoint images")
        elif img[0] == "segment":
            _, ce, a, b = img
            a, b = trigeo._frac(a), trigeo._frac(b)
            if ce not in m.cod.edges or a == b or not (F0 <= a <= F1 and F0 <= b <= F1):
                raise IllTypedMap(f"edge {eid} segment malformed")
            if m.vertex_image[e.frm] != canonical_point(m.cod, ce, a):
                raise IllTypedMap(f"edge {eid} start disagrees with vertex image")
            if m.vertex_image[e.to] != canonical_point(m.cod, ce, b):
                raise IllTypedMap(f"edge {eid} end disagrees with vertex image")
        else:
            raise IllTypedMap(f"edge {eid} image malformed")
    return m


def graph_map(dom, cod, vertex_image, edge_image) -> GraphMap:
    vi = {}
    for v, p in vertex_image.items():
        if p[0] == "edge":
            vi[v] = canonical_point(cod, p[1], p[2])
        else:
            vi[v] = p
    ei = {}
    for e, img in edge_image.items():
        if img[0] == "segment":
            ei[e] = ("segment", img[1], trigeo._frac(img[2]), trigeo._frac(img[3]))
        else:
            ei[e] = img
    return validate_graph_map(GraphMap(dom, cod, vi, ei))


def identity_graph_map(g: BaseGraph) -> GraphMap:
    return graph_map(
        g,
        g,
        {v: ("vertex", v) for v in g.vertices},
        {e: ("segment", e, 0, 1) for e in g.edges},
    )


def map_point(m: GraphMap, p):
    if p[0] == "vertex":
        return m.vertex_image[p[1]]
    _, e, t = p
    img = m.edge_image[e]
    if img[0] == "point":
        return img[1]
    _, ce, a, b = img
    return canonical_point(m.cod, ce, a + (b - a) * trigeo._frac(t))


def compose_graph_maps(g: GraphMap, f: GraphMap) -> GraphMap:
    """g after f."""
    if f.cod != g.dom:
        raise IllTypedMap("maps not composable")
    vi = {v: map_point(g, p) for v, p in f.vertex_image.items()}
    ei = {}
    for e, img in f.edge_image.items():
        if img[0] == "point":
            ei[e] = ("point", map_point(g, img[1]))
            continue
        _, ey, a, b = img
        gimg = g.edge_image[ey]
        if gimg[0] == "point":
            ei[e] = ("point", gimg[1])
            continue
        _, ex, c, d = gimg
        na, nb = c + (d - c) * a, c + (d - c) * b
        if na == nb:
            ei[e] = ("point", canonical_point(g.cod, ex, na))
        else:
            ei[e] = ("segment", ex, na, nb)
    return graph_map(f.dom, g.cod, vi, ei)


def fiber_at(fam: PLFamily, p) -> TriangleLengths:
    if p[0] == "vertex":
        return fam.vertex_lengths[p[1]]
    return chart_eval(fam.charts[p[1]], p[2])


def pullback_family(m: GraphMap, fam: PLFamily) -> PLFamily:
    """Family over the map's domain whose fiber at y is the fiber at m(y)."""
    if fam.base != m.cod:
        raise IllTypedMap("family does not live over the map's codomain")
    vl = {v: fiber_at(fam, p) for v, p in m.vertex_image.items()}
    charts, gf, gt = {}, {}, {}
    for eid, img in m.edge_image.items():
        if img[0] == "point":
            val = fiber_at(fam, img[1])
            charts[eid] = ((F0, val), (F1, val))
            gf[eid] = gt[eid] = "e"
            continue
        _, ce, a, b = img
        charts[eid] = chart_reparam(fam.charts[ce], a, b)
        def end_glue(param):
            if param == 0:
                return fam.glue_from[ce]
            if param == 1:
                return fam.glue_to[ce]
            return "e"
        gf[eid] = end_glue(a)
        gt[eid] = end_glue(b)
    return validate_family(PLFamily(m.dom, vl, charts, gf, gt))


# -- PL maps out of the base ----------------------------------------------------


class PLMap(Record):
    """Piecewise-linear map on a graph base with exact samples.

    ``samples[e]`` is a tuple of (time, value tuple) pairs; values at
    shared vertices must agree across edges (checked on construction via
    vertex_values).
    """

    __slots__ = ("base", "vertex_values", "samples")

    def __init__(self, base: BaseGraph, vertex_values: dict, samples: dict):
        setfield(self, "base", base)
        setfield(self, "vertex_values", vertex_values)
        setfield(self, "samples", samples)

    def eval_edge(self, e, t):
        return path_value(self.samples[e], t)

    def breakpoints(self, e):
        return [t for t, _ in self.samples[e]]


def plmaps_equal(m1: PLMap, m2: PLMap) -> bool:
    if m1.base != m2.base:
        return False
    if set(m1.vertex_values) != set(m2.vertex_values):
        return False
    for v in m1.vertex_values:
        if tuple(m1.vertex_values[v]) != tuple(m2.vertex_values[v]):
            return False
    for e in m1.base.edges:
        if any(u != v for _, u, v in path_merge(m1.samples[e], m2.samples[e])):
            return False
    return True


def pullback_plmap(m: GraphMap, pm: PLMap) -> PLMap:
    """pm ∘ m as a PL map over the domain of m."""
    def value_at(p):
        if p[0] == "vertex":
            return tuple(pm.vertex_values[p[1]])
        return pm.eval_edge(p[1], p[2])

    vertex_values = {v: value_at(p) for v, p in m.vertex_image.items()}
    samples = {}
    for eid, img in m.edge_image.items():
        if img[0] == "point":
            val = value_at(img[1])
            samples[eid] = ((F0, val), (F1, val))
            continue
        _, ce, a, b = img
        samples[eid] = path_reparam(pm.samples[ce], a, b)
    return PLMap(m.dom, vertex_values, samples)


def classify_to_M(fam: PLFamily) -> PLMap:
    """The classifying map of an oriented presentation: the charts themselves."""
    if not fam.is_presented_oriented():
        raise NotOriented("family has nontrivial glue; re-chart via orient() first")
    return PLMap(
        fam.base,
        {v: t.astuple() for v, t in fam.vertex_lengths.items()},
        {e: tuple((t, v.astuple()) for t, v in c) for e, c in fam.charts.items()},
    )


def classify_to_N(fam: PLFamily) -> PLMap:
    """Pointwise sorted charts, with breakpoints added at coordinate crossings.

    Independent of the glue (sorting is permutation-invariant) and
    continuous across vertices; this is the family's invariant map to the
    quotient.
    """
    samples = {}
    for e, chart in fam.charts.items():
        t0, a = F0, _int_point(chart[0][1])
        out = [(F0, _sorted_by(a, chart[0][1]))]
        for t1, v in chart[1:]:
            b = _int_point(v)
            out += _segment_crossings(t0, a, t1, b)
            out.append((t1, _sorted_by(b, v)))
            t0, a = t1, b
        samples[e] = tuple(out)
    return PLMap(
        fam.base,
        {v: _sorted_by(_int_point(t), t) for v, t in fam.vertex_lengths.items()},
        samples,
    )


# -- orientability ---------------------------------------------------------------


class Orientation(Record):
    __slots__ = ("orientable", "vertex_gauge", "edge_recharts", "obstruction_cycle", "monodromy")

    def __init__(self, orientable: bool, vertex_gauge: dict | None = None,
                 edge_recharts: dict | None = None, obstruction_cycle: tuple | None = None,
                 monodromy: str | None = None):
        setfield(self, "orientable", orientable)
        setfield(self, "vertex_gauge", vertex_gauge)  # vertex -> Perm
        setfield(self, "edge_recharts", edge_recharts)  # edge -> Perm
        setfield(self, "obstruction_cycle", obstruction_cycle)  # ((edge, direction), ...)
        setfield(self, "monodromy", monodromy)

    def __bool__(self):
        return self.orientable


def edge_transport(fam: PLFamily, eid: str) -> str:
    """Permutation transporting the from-vertex labeling to the to-vertex one."""
    return compose(fam.glue_to[eid], inverse(fam.glue_from[eid]))


_OTHER_END = {"from": "to", "to": "from"}


def is_orientable(fam: PLFamily) -> Orientation:
    """Spanning-forest propagation of a global vertex relabeling.

    Returns a full trivialization (per-vertex gauge and per-edge rechart
    making all glue trivial) or a failing cycle with its monodromy: the
    first open edge of the first component, by least vertex, that has one.
    """
    base = fam.base

    def push(eid, end, s):
        # constraint sigma_u ∘ g_{u,e} = sigma_other ∘ g_{other,e}
        return compose(compose(s, fam.glue(eid, end)), inverse(fam.glue(eid, _OTHER_END[end])))

    sigma, parent = {}, {}
    for root in base.vertices:
        if root in sigma:
            continue
        labels, tree = base.spread(root, "e", push)
        sigma.update(labels)
        parent.update(tree)
        eid = min(base.open_edges(labels, push), default=None)
        if eid is not None:
            e = base.edges[eid]
            # tree paths transport x to y by sigma_y⁻¹ ∘ sigma_x, so the
            # cycle's transports compose to sigma_frm⁻¹ ∘ sigma_to ∘ transport_e
            mono = compose(inverse(sigma[e.frm]), compose(sigma[e.to], edge_transport(fam, eid)))
            return Orientation(False, obstruction_cycle=tuple(cycle_through(parent, e)), monodromy=mono)
    recharts = {eid: compose(sigma[e.frm], fam.glue_from[eid]) for eid, e in base.edges.items()}
    return Orientation(True, vertex_gauge=sigma, edge_recharts=recharts)


def cycle_through(parent, e: Edge):
    """The cycle that edge e closes in a spanning forest, as (edge, direction) steps.

    It crosses e forward, climbs from e.to to the last common ancestor and
    descends to e.frm; ``parent`` is the tree ``BaseGraph.spread`` returns.
    """
    def path_to_root(v):
        # parent traversal was u -> v; walking back toward the root crosses
        # the edge against that direction
        out = []
        while parent[v] is not None:
            u, eid, end = parent[v]
            out.append((eid, "backward" if end == "from" else "forward"))
            v = u
        return out

    up_from = path_to_root(e.to)      # e.to -> root, edges oriented toward root
    down_to = path_to_root(e.frm)
    # cycle: traverse e from frm to to, then climb from e.to until the paths meet
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


def orient(fam: PLFamily) -> tuple[PLFamily, Orientation]:
    """Re-chart an orientable family so every glue permutation is trivial."""
    o = is_orientable(fam)
    if not o.orientable:
        raise NotOriented(f"monodromy {o.monodromy} around {o.obstruction_cycle}")
    vl = {v: act(o.vertex_gauge[v], t) for v, t in fam.vertex_lengths.items()}
    charts = {e: chart_act(o.edge_recharts[e], c) for e, c in fam.charts.items()}
    oriented = family(fam.base, vl, charts)
    return oriented, o


class NotScalene(FamilyError):
    pass


def _sorting_perm(t: TriangleLengths) -> str:
    """The unique label with act(g, t) sorted; needs three distinct lengths."""
    tup = t.astuple()
    if len(set(tup)) != 3:
        raise NotScalene(f"{tup} has a repeated length")
    want = tuple(sorted(tup))
    return next(g for g in PERMS if act_tuple(g, tup) == want)


def is_scalene_everywhere(fam: PLFamily) -> bool:
    """No chart breakpoint and no segment touches the isosceles locus."""
    for chart in fam.charts.values():
        for t, v in chart:
            if len(set(v.astuple())) != 3:
                return False
        points = [_int_point(v) for _, v in chart]
        if any(_sign_changes(a, b) for a, b in zip(points, points[1:])):
            return False
    return all(len(set(t.astuple())) == 3 for t in fam.vertex_lengths.values())


def scalene_natural_presentation(fam: PLFamily) -> PLFamily:
    """The canonical oriented presentation of a scalene-everywhere family.

    Away from the isosceles locus the sorting permutation of a chart is
    constant along every edge, so re-charting by it yields the unique
    presentation with strictly sorted fibers everywhere; this is what
    makes the strictly-sorted region a faithful classifier for scalene
    families.  Raises when any fiber has a repeated length or a chart
    crosses the locus.
    """
    if not is_scalene_everywhere(fam):
        raise NotScalene("family touches the isosceles locus")
    vl = {v: TriangleLengths(*sorted(t.astuple())) for v, t in fam.vertex_lengths.items()}
    charts = {e: chart_act(_sorting_perm(c[0][1]), c) for e, c in fam.charts.items()}
    return family(fam.base, vl, charts)


# -- isomorphism search ----------------------------------------------------------


class Infeasibility(Record):
    __slots__ = ("vertex", "left_edge", "left_forced", "right_edge", "right_forced")

    def __init__(self, vertex: str, left_edge: str, left_forced: tuple, right_edge: str, right_forced: tuple):
        setfield(self, "vertex", vertex)
        setfield(self, "left_edge", left_edge)
        setfield(self, "left_forced", left_forced)
        setfield(self, "right_edge", right_edge)
        setfield(self, "right_forced", right_forced)


class IsoResult(Record):
    __slots__ = ("found", "assignment", "vertex_perms", "obstruction")

    def __init__(self, found: bool, assignment: dict | None = None,
                 vertex_perms: dict | None = None, obstruction: Infeasibility | None = None):
        setfield(self, "found", found)
        setfield(self, "assignment", assignment)  # edge -> Perm
        setfield(self, "vertex_perms", vertex_perms)  # vertex -> Perm
        setfield(self, "obstruction", obstruction)

    def __bool__(self):
        return self.found


def _chart_candidates(f_chart, g_chart):
    """Permutations tau with tau . f_chart == g_chart at all joint breakpoints."""
    cands = PERMS
    for _, a, b in path_merge(f_chart, g_chart):
        cands = [tau for tau in cands if act_tuple(tau, a) == b]
        if not cands:
            break
    return cands


def _transported(f: PLFamily, g: PLFamily, eid, end, tau):
    return compose(g.glue(eid, end), compose(tau, inverse(f.glue(eid, end))))


def are_isomorphic(f: PLFamily, g: PLFamily, *, find_all: bool = False):
    """Fiberwise-isometric identification over the identity of the base.

    One permutation tau_e per edge, subject to exact chart matching and
    vertex-end compatibility.  The vertex permutation h_v at either end of
    an edge fixes tau_e, so h at one vertex of a component fixes the whole
    component: each component has at most six solutions, ordered by tau
    on its least edge.  Returns the least solution over the sorted edges in
    PERMS order, which is the product of the per-component least ones
    (or, with ``find_all``, every solution in that order).
    """
    if f.base != g.base:
        raise DifferentBase("families live over different bases")
    base = f.base
    cands = {e: _chart_candidates(f.charts[e], g.charts[e]) for e in base.edges}

    iso_perm = {}
    for v in base.vertices:
        if base.incident_ends(v):
            continue
        opts = [h for h in PERMS if act(h, f.vertex_lengths[v]) == g.vertex_lengths[v]]
        if not opts:
            return [] if find_all else IsoResult(False, obstruction=None)
        iso_perm[v] = opts[0]

    def tau_at(eid, end, h):
        return compose(inverse(g.glue(eid, end)), compose(h, f.glue(eid, end)))

    def push(eid, end, h):
        tau = tau_at(eid, end, h)
        return _transported(f, g, eid, _OTHER_END[end], tau) if tau in cands[eid] else None

    per_component = []
    labelled = set()
    for eid, e in base.edges.items():
        if e.frm in labelled:
            continue
        # a component is met first at its least edge; its root is that edge's start
        roots = [_transported(f, g, eid, "from", tau) for tau in cands[eid]]
        sols = base.labellings(e.frm, roots, push)
        sols = list(sols) if find_all else list(itertools.islice(sols, 1))
        if not sols:
            return [] if find_all else IsoResult(False, obstruction=_diagnose(f, g, cands))
        labelled.update(sols[0])
        per_component.append(sols)

    def solution(component_labels):
        h = {}
        for labels in component_labels:
            h.update(labels)
        assignment = {eid: tau_at(eid, "from", h[e.frm]) for eid, e in base.edges.items()}
        vertex_perms = {}  # in the order the sorted edges reach the vertices, as always listed
        for e in base.edges.values():
            vertex_perms.setdefault(e.frm, h[e.frm])
            vertex_perms.setdefault(e.to, h[e.to])
        vertex_perms.update(iso_perm)
        return IsoResult(True, assignment, vertex_perms)

    if find_all:
        return [solution(combo) for combo in itertools.product(*per_component)]
    return solution(sols[0] for sols in per_component)


def _diagnose(f, g, cands):
    """A vertex whose incident edge-ends force disjoint vertex permutations."""
    for v in f.base.vertices:
        hsets = []
        for eid, end in f.base.incident_ends(v):
            hs = tuple(sorted({_transported(f, g, eid, end, tau) for tau in cands[eid]},
                              key=PERMS.index))
            hsets.append((eid, hs))
        for i in range(len(hsets)):
            for j in range(i + 1, len(hsets)):
                (e1, h1), (e2, h2) = hsets[i], hsets[j]
                if not set(h1) & set(h2):
                    return Infeasibility(v, e1, h1, e2, h2)
    return None


# -- fixtures --------------------------------------------------------------------


def fixture_remark25():
    """The path-based pair: equal quotient maps, no fiberwise identification.

    Both families run from the scalene triple (1, 4/5, 6/5) to the
    isosceles triple (1, 1, 1) on the first edge; on the second edge one
    continues to the mirror triple while the other returns, which is the
    pointwise mirror image of the first.  All glue is trivial.
    """
    base = graph(["0", "1", "1/2"], [("edge-1", "0", "1/2"), ("edge-2", "1/2", "1")])
    start = TriangleLengths(1, Fraction(4, 5), Fraction(6, 5))
    mid = TriangleLengths(1, 1, 1)
    mirror = TriangleLengths(1, Fraction(6, 5), Fraction(4, 5))
    f = family(
        base,
        {"0": start, "1/2": mid, "1": mirror},
        {"edge-1": ((F0, start), (F1, mid)), "edge-2": ((F0, mid), (F1, mirror))},
    )
    g = family(
        base,
        {"0": start, "1/2": mid, "1": start},
        {"edge-1": ((F0, start), (F1, mid)), "edge-2": ((F0, mid), (F1, start))},
    )
    return f, g


def fixture_mobius() -> PLFamily:
    """Circle base, charts through the equilateral point, one twisted seam."""
    base = graph(["v0", "v1"], [("e0", "v0", "v1"), ("e1", "v1", "v0")])
    a = TriangleLengths(1, Fraction(4, 5), Fraction(6, 5))
    mid = TriangleLengths(1, 1, 1)
    mirror = TriangleLengths(1, Fraction(6, 5), Fraction(4, 5))
    return family(
        base,
        {"v0": a, "v1": mid},
        {"e0": ((F0, a), (F1, mid)), "e1": ((F0, mid), (F1, mirror))},
        glue_from={"e0": "e", "e1": "e"},
        glue_to={"e0": "e", "e1": "(AB)"},
    )


def double_cover_of_circle(fam: PLFamily) -> GraphMap:
    """Connected double cover of a 2-edge circle base, as a map onto it."""
    base = fam.base
    if sorted(base.edges) != ["e0", "e1"]:
        raise IllTypedMap("expected the 2-edge circle base")
    cover = graph(
        ["w0", "w1", "w2", "w3"],
        [("c0", "w0", "w1"), ("c1", "w1", "w2"), ("c2", "w2", "w3"), ("c3", "w3", "w0")],
    )
    return graph_map(
        cover,
        base,
        {"w0": ("vertex", "v0"), "w1": ("vertex", "v1"), "w2": ("vertex", "v0"), "w3": ("vertex", "v1")},
        {
            "c0": ("segment", "e0", 0, 1),
            "c1": ("segment", "e1", 0, 1),
            "c2": ("segment", "e0", 0, 1),
            "c3": ("segment", "e1", 0, 1),
        },
    )


# -- coarse factorization ---------------------------------------------------------


class InvariantAssignment(Record):
    """A fiberwise invariant: one exact vector per triangle."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: object):
        setfield(self, "name", name)
        setfield(self, "fn", fn)  # TriangleLengths -> tuple[Fraction, ...]

    def __call__(self, t: TriangleLengths):
        return tuple(trigeo._frac(v) for v in self.fn(t))


def _heron16(t: TriangleLengths):
    x2, y2, z2 = (v * v for v in t.astuple())
    return (2 * x2 * y2 + 2 * y2 * z2 + 2 * z2 * x2 - x2 * x2 - y2 * y2 - z2 * z2,)


INVARIANTS = {
    "perimeter": InvariantAssignment("perimeter", lambda t: (t.x + t.y + t.z,)),
    "spread": InvariantAssignment("spread", lambda t: (max(t.astuple()) - min(t.astuple()),)),
    "heron": InvariantAssignment("heron", _heron16),
    "ycoord": InvariantAssignment("ycoord", lambda t: (t.y,)),
}


class CoarseVerdict(Record):
    __slots__ = ("status", "witness")

    def __init__(self, status: str, witness: tuple | None = None):
        setfield(self, "status", status)  # factors | not-natural | mismatch
        setfield(self, "witness", witness)

    def __bool__(self):
        return self.status == "factors"


def _family_points(fam: PLFamily):
    for v in sorted(fam.vertex_lengths):
        yield ("vertex", v, None), fam.vertex_lengths[v]
    for e in sorted(fam.charts):
        for t, val in fam.charts[e]:
            yield ("edge", e, t), val


def check_coarse_factorization(beta: InvariantAssignment, corpus) -> CoarseVerdict:
    """Does the invariant factor through the quotient map, determined pointwise?

    First spot-checks that the assignment is well defined on isomorphism
    classes (global twists and a pullback leave it unchanged); then pins
    the factor on point families and compares against every breakpoint of
    every corpus family's quotient map.
    """
    corpus = list(corpus)
    for idx, fam in enumerate(corpus):
        for where, val in _family_points(fam):
            for sigma in PERMS:
                if beta(act(sigma, val)) != beta(val):
                    return CoarseVerdict("not-natural", (idx, sigma, val.astuple(), where))
    if corpus:
        fam = corpus[0]
        if fam.base.edges:
            eid = sorted(fam.base.edges)[0]
            sub = subdivide_edge_map(fam.base, eid, Fraction(1, 2))
            pulled = pullback_family(sub, fam)
            for where, val in _family_points(pulled):
                if beta(val) != beta(fiber_at(fam, map_point(sub, _as_point(where)))):
                    return CoarseVerdict("not-natural", (0, "pullback", where))

    # the factor on N is beta on the sorted triple
    for idx, fam in enumerate(corpus):
        nmap = classify_to_N(fam)
        for v in sorted(fam.vertex_lengths):
            lhs = beta(fam.vertex_lengths[v])
            rhs = beta(TriangleLengths(*nmap.vertex_values[v]))
            if lhs != rhs:
                return CoarseVerdict("mismatch", (idx, "vertex", v, lhs, rhs))
        for e in sorted(fam.charts):
            for t, m, n in path_merge(fam.charts[e], nmap.samples[e]):
                lhs = beta(TriangleLengths(*m))
                rhs = beta(TriangleLengths(*n))
                if lhs != rhs:
                    return CoarseVerdict("mismatch", (idx, e, t, lhs, rhs))
    return CoarseVerdict("factors")


def _as_point(where):
    kind, name, t = where
    return ("vertex", name) if kind == "vertex" else ("edge", name, t)


def subdivide_edge_map(base: BaseGraph, eid: str, t: Fraction) -> GraphMap:
    """Map from the base with edge ``eid`` split at t onto the original base."""
    e = base.edges[eid]
    mid = f"{eid}.cut"
    vertices = list(base.vertices) + [mid]
    edges = [ed for k, ed in base.edges.items() if k != eid]
    edges += [Edge(f"{eid}.a", e.frm, mid), Edge(f"{eid}.b", mid, e.to)]
    dom = BaseGraph(vertices, edges)
    vi = {v: ("vertex", v) for v in base.vertices}
    vi[mid] = ("edge", eid, t)
    ei = {k: ("segment", k, 0, 1) for k in base.edges if k != eid}
    ei[f"{eid}.a"] = ("segment", eid, 0, t)
    ei[f"{eid}.b"] = ("segment", eid, t, 1)
    return graph_map(dom, base, vi, ei)


# -- files -------------------------------------------------------------------------


def family_to_json(fam: PLFamily) -> dict:
    return {
        "vertices": [
            {"id": v, "lengths": trigeo.format_lengths(fam.vertex_lengths[v])}
            for v in fam.base.vertices
        ],
        "edges": [
            {
                "id": e.id,
                "from": e.frm,
                "to": e.to,
                "chart": [
                    {"t": str(t), "lengths": trigeo.format_lengths(v)}
                    for t, v in fam.charts[e.id]
                ],
                "glueFrom": fam.glue_from[e.id],
                "glueTo": fam.glue_to[e.id],
            }
            for e in fam.base.edges.values()
        ],
    }


# lengths and whole charts are read by ``trigeo.RationalReader``, one frame per length
# triple (memo lookups, the cone test on integers, the point); a fault names
# ("vertex", id) or ("edge", id), joined into text only when it is raised
FAMILY = {
    "vertices": [{"id": str, "lengths": None}],
    "edges": [{
        "id": str, "from": str, "to": str,
        "chart": [{"t": None, "lengths": None}],
        "glueFrom?": str, "glueTo?": str,
    }],
}


def family_from_json(raw: dict) -> PLFamily:
    return read(raw, FAMILY, _family_from_records, FamilyError)


def _family_from_records(raw: dict) -> PLFamily:
    read = trigeo.RationalReader(FamilyError)
    vertices = [v["id"] for v in raw["vertices"]]
    edges = [Edge(e["id"], e["from"], e["to"]) for e in raw["edges"]]
    base = BaseGraph(vertices, edges)
    vl, charts = {}, {}
    for v in raw["vertices"]:
        try:
            vl[v["id"]] = read.lengths(v["lengths"], ("vertex", v["id"]))
        except NotInM as err:
            raise FiberNotInM((v["id"], v["lengths"])) from err
    for e in raw["edges"]:
        try:
            charts[e["id"]] = read.chart(e["chart"], ("edge", e["id"]))
        except NotInM as err:
            raise FiberNotInM((e["id"], e["chart"])) from err
    gf = {e["id"]: e.get("glueFrom", "e") for e in raw["edges"]}
    gt = {e["id"]: e.get("glueTo", "e") for e in raw["edges"]}
    return _checked(PLFamily(base, vl, charts, gf, gt), charts_built=True)


def save_family(fam: PLFamily, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_json(fam), fh, indent=1, sort_keys=True)
