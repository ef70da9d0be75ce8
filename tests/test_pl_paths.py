"""Differential tests of the PL-path layer in ``families``.

Charts and PLMap samples are PL paths, served by one evaluator
(``path_value``), one two-pointer merge walk (``path_merge``) and one
reparametrisation (``path_reparam``).  The oracles below are the
hand-copied path code the layer replaced, kept verbatim: the linear-scan
chart and PLMap evaluators, ``chart_refine`` with ``_sort_crossings``
under ``classify_to_N``, ``chart_reparam``, ``pullback_plmap``, the
sort-the-union-then-rescan ``plmaps_equal`` and
``check_coarse_factorization``, and the private merge loop of
``_chart_candidates``.  Every operation must give equal values, equal
breakpoints and equal value types (tuples of ``Fraction`` in PLMap
samples, ``TriangleLengths`` in charts), and the same ``FamilyError`` for
parameters outside [0, 1], on the seeded corpus and on hypothesis charts.

Segment arithmetic runs on integers: the integer segment kernel
(``_sign_changes`` and ``_segment_crossings`` on ``_int_point`` points)
finds coordinate crossings, and ``_lerp`` interpolates with one
``Fraction`` per coordinate.  Both are checked on raw hypothesis segments
against the ``Fraction`` code they replaced, ``_crossings`` and the old
``_lerp``, also kept verbatim below.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tristack import corpus, deform, families, trigeo
from tristack.families import (
    F0,
    F1,
    INVARIANTS,
    CoarseVerdict,
    FamilyError,
    PLFamily,
    PLMap,
    _as_point,
    _family_points,
    double_cover_of_circle,
    family,
    fixture_mobius,
    graph,
    map_point,
    point_family,
    subdivide_edge_map,
    twist_family,
    validate_family,
)
from tristack.trigeo import PERMS, TriangleLengths, act, act_tuple

F = Fraction
HYPOTHESIS = settings(max_examples=150, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow])


# -- oracles: the path code before the shared layer, verbatim ------------------------


def chart_breaks(chart):
    return [t for t, _ in chart]


def oracle_lerp(p0, p1, t: Fraction):
    (t0, v0), (t1, v1) = p0, p1
    lam = (t - t0) / (t1 - t0)
    return tuple(ai + lam * (bi - ai) for ai, bi in zip(v0.astuple(), v1.astuple()))


def oracle_chart_eval_tuple(chart, t: Fraction):
    t = Fraction(t)
    if not F0 <= t <= F1:
        raise FamilyError(f"chart parameter {t} outside [0,1]")
    for p0, p1 in zip(chart, chart[1:]):
        if p0[0] <= t <= p1[0]:
            if t == p0[0]:
                return p0[1].astuple()
            if t == p1[0]:
                return p1[1].astuple()
            return oracle_lerp(p0, p1, t)
    raise FamilyError(f"chart parameter {t} not covered")


def oracle_chart_eval(chart, t) -> TriangleLengths:
    return TriangleLengths(*oracle_chart_eval_tuple(chart, t))


def oracle_chart_refine(chart, times):
    ts = sorted(set(chart_breaks(chart)) | {Fraction(t) for t in times})
    return tuple((t, oracle_chart_eval(chart, t)) for t in ts)


def oracle_chart_reparam(chart, a: Fraction, b: Fraction):
    a, b = Fraction(a), Fraction(b)
    if a == b:
        raise FamilyError("degenerate reparametrization")
    inner = [
        (t - a) / (b - a)
        for t in chart_breaks(chart)
        if min(a, b) < t < max(a, b)
    ]
    ts = sorted({F0, F1, *inner})
    return tuple((s, oracle_chart_eval(chart, a + (b - a) * s)) for s in ts)


def oracle_eval_edge(pm, e, t):
    t = Fraction(t)
    pts = pm.samples[e]
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t0 <= t <= t1:
            if t == t0:
                return tuple(v0)
            if t == t1:
                return tuple(v1)
            lam = (t - t0) / (t1 - t0)
            return tuple(a + lam * (b - a) for a, b in zip(v0, v1))
    raise FamilyError(f"parameter {t} not covered on edge {e}")


def oracle_plmaps_equal(m1: PLMap, m2: PLMap) -> bool:
    if m1.base != m2.base:
        return False
    if set(m1.vertex_values) != set(m2.vertex_values):
        return False
    for v in m1.vertex_values:
        if tuple(m1.vertex_values[v]) != tuple(m2.vertex_values[v]):
            return False
    for e in m1.base.edges:
        ts = sorted(set(m1.breakpoints(e)) | set(m2.breakpoints(e)))
        for t in ts:
            if oracle_eval_edge(m1, e, t) != oracle_eval_edge(m2, e, t):
                return False
    return True


def oracle_pullback_plmap(m, pm: PLMap) -> PLMap:
    def value_at(p):
        if p[0] == "vertex":
            return tuple(pm.vertex_values[p[1]])
        return oracle_eval_edge(pm, p[1], p[2])

    vertex_values = {v: value_at(p) for v, p in m.vertex_image.items()}
    samples = {}
    for eid, img in m.edge_image.items():
        if img[0] == "point":
            val = value_at(img[1])
            samples[eid] = ((F0, val), (F1, val))
            continue
        _, ce, a, b = img
        inner = [
            (t - a) / (b - a)
            for t in pm.breakpoints(ce)
            if min(a, b) < t < max(a, b)
        ]
        ts = sorted({F0, F1, *inner})
        samples[eid] = tuple((s, oracle_eval_edge(pm, ce, a + (b - a) * s)) for s in ts)
    return PLMap(m.dom, vertex_values, samples)


def oracle_sort_crossings(chart):
    times = []
    for (t0, v0), (t1, v1) in zip(chart, chart[1:]):
        a, b = v0.astuple(), v1.astuple()
        for p in range(3):
            for q in range(p + 1, 3):
                d0 = a[p] - a[q]
                d1 = b[p] - b[q]
                if (d0 > 0 and d1 < 0) or (d0 < 0 and d1 > 0):
                    times.append(t0 + (t1 - t0) * d0 / (d0 - d1))
    return times


def oracle_classify_to_N(fam: PLFamily) -> PLMap:
    samples = {}
    for e, chart in fam.charts.items():
        refined = oracle_chart_refine(chart, oracle_sort_crossings(chart))
        samples[e] = tuple((t, tuple(sorted(v.astuple()))) for t, v in refined)
    return PLMap(
        fam.base,
        {v: tuple(sorted(t.astuple())) for v, t in fam.vertex_lengths.items()},
        samples,
    )


def oracle_is_scalene_everywhere(fam: PLFamily) -> bool:
    for chart in fam.charts.values():
        for t, v in chart:
            if len(set(v.astuple())) != 3:
                return False
        if oracle_sort_crossings(chart):
            return False
    return all(len(set(t.astuple())) == 3 for t in fam.vertex_lengths.values())


def oracle_chart_candidates(f_chart, g_chart):
    cands = list(PERMS)
    i = j = 0
    while cands and i < len(f_chart):
        (tf, vf), (tg, vg) = f_chart[i], g_chart[j]
        if tf == tg:
            a, b = vf.astuple(), vg.astuple()
            i, j = i + 1, j + 1
        elif tf < tg:
            a, b = vf.astuple(), oracle_lerp(g_chart[j - 1], g_chart[j], tf)
            i += 1
        else:
            a, b = oracle_lerp(f_chart[i - 1], f_chart[i], tg), vg.astuple()
            j += 1
        cands = [tau for tau in cands if act_tuple(tau, a) == b]
    return cands


def oracle_fiber_at(fam, p):
    if p[0] == "vertex":
        return fam.vertex_lengths[p[1]]
    return oracle_chart_eval(fam.charts[p[1]], p[2])


def oracle_pullback_family(m, fam):
    vl = {v: oracle_fiber_at(fam, p) for v, p in m.vertex_image.items()}
    charts, gf, gt = {}, {}, {}
    for eid, img in m.edge_image.items():
        if img[0] == "point":
            val = oracle_fiber_at(fam, img[1])
            charts[eid] = ((F0, val), (F1, val))
            gf[eid] = gt[eid] = "e"
            continue
        _, ce, a, b = img
        charts[eid] = oracle_chart_reparam(fam.charts[ce], a, b)

        def end_glue(param):
            if param == 0:
                return fam.glue_from[ce]
            if param == 1:
                return fam.glue_to[ce]
            return "e"
        gf[eid] = end_glue(a)
        gt[eid] = end_glue(b)
    return validate_family(PLFamily(m.dom, vl, charts, gf, gt))


def oracle_check_coarse_factorization(beta, corpus) -> CoarseVerdict:
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
            pulled = oracle_pullback_family(sub, fam)
            for where, val in _family_points(pulled):
                if beta(val) != beta(oracle_fiber_at(fam, map_point(sub, _as_point(where)))):
                    return CoarseVerdict("not-natural", (0, "pullback", where))

    def mu(sorted_tuple):
        return beta(point_family(TriangleLengths(*sorted_tuple)).vertex_lengths["p"])

    for idx, fam in enumerate(corpus):
        nmap = oracle_classify_to_N(fam)
        for v in sorted(fam.vertex_lengths):
            lhs = beta(fam.vertex_lengths[v])
            rhs = mu(nmap.vertex_values[v])
            if lhs != rhs:
                return CoarseVerdict("mismatch", (idx, "vertex", v, lhs, rhs))
        for e in sorted(fam.charts):
            for t in nmap.breakpoints(e):
                lhs = beta(oracle_chart_eval(fam.charts[e], t))
                rhs = mu(oracle_eval_edge(nmap, e, t))
                if lhs != rhs:
                    return CoarseVerdict("mismatch", (idx, e, t, lhs, rhs))
    return CoarseVerdict("factors")


def oracle_leg_candidates(chart1, glue1, chart2, glue2, pin):
    from tristack.trigeo import compose, inverse

    depth = deform.MAX_GERM_DEPTH
    cuts1 = {k: oracle_chart_reparam(chart1, Fraction(0), Fraction(1, 2 ** k)) for k in range(depth + 1)}
    cuts2 = {k: oracle_chart_reparam(chart2, Fraction(0), Fraction(1, 2 ** k)) for k in range(depth + 1)}
    for k1 in range(depth + 1):
        for k2 in range(depth + 1):
            for tau in oracle_chart_candidates(cuts1[k1], cuts2[k2]):
                if compose(glue2, compose(tau, inverse(glue1))) == pin:
                    return (tau, k1, k2)
    return None


def oracle_crossings(p0, p1):
    """Times, rising, strictly inside the path segment p0-p1 where two coordinates cross."""
    (t0, a), (t1, b) = (p0[0], tuple(p0[1])), (p1[0], tuple(p1[1]))
    diffs = ((a[p] - a[q], b[p] - b[q]) for p, q in ((0, 1), (0, 2), (1, 2)))
    return sorted({t0 + (t1 - t0) * d0 / (d0 - d1) for d0, d1 in diffs if d0 > 0 > d1 or d0 < 0 < d1})


def oracle_path_lerp(p0, p1, t: Fraction):
    """The coordinates at t of the path segment from p0 to p1 (t0 < t < t1)."""
    (t0, v0), (t1, v1) = p0, p1
    lam = (t - t0) / (t1 - t0)
    return tuple(a + lam * (b - a) for a, b in zip(v0, v1))


def oracle_segment(p0, p1):
    # the crossing samples of one segment in classify_to_N
    return [(t, tuple(sorted(oracle_path_lerp(p0, p1, t)))) for t in oracle_crossings(p0, p1)]


# -- comparison helpers ---------------------------------------------------------------


def typed(value):
    """The value with the type of every part spelled out, so == compares types too."""
    if isinstance(value, TriangleLengths):
        return ("TriangleLengths", typed(value.astuple()))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(typed(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((k, typed(v)) for k, v in value.items()))
    return (type(value).__name__, value)


def typed_plmap(m):
    return (m.base, typed(m.vertex_values), typed(m.samples))


def typed_family(f):
    return (f.base, typed((f.vertex_lengths, f.charts, f.glue_from, f.glue_to)))


def outcome(fn, *args):
    """The result, or the type and arguments of the FamilyError it raises."""
    try:
        return ("value", typed(fn(*args)))
    except FamilyError as err:
        return ("raises", type(err), err.args)


def error_type(fn, *args):
    try:
        fn(*args)
    except FamilyError as err:
        return type(err)
    return None


def probe_times(chart):
    """Breakpoints, midpoints, thirds and a few points outside [0, 1]."""
    ts = set(chart_breaks(chart))
    for (t0, _), (t1, _) in zip(chart, chart[1:]):
        ts |= {(t0 + t1) / 2, t0 + (t1 - t0) / 3}
    return sorted(ts) + [F(-1, 3), F(4, 3), F(-1), F(2)]


def reparam_ends(chart):
    """Pairs (a, b): forward and reversed, on breakpoints, inside one segment, outside [0, 1]."""
    breaks = chart_breaks(chart)
    mids = [(t0 + t1) / 2 for t0, t1 in zip(breaks, breaks[1:])]
    thirds = [t0 + (t1 - t0) / 3 for t0, t1 in zip(breaks, breaks[1:])]
    pts = sorted(set(breaks) | set(mids) | set(thirds))
    # every ordered pair: a third and the midpoint of one segment cut inside it
    pairs = [(a, b) for a in pts for b in pts if a != b]
    pairs += [(F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)), (F(3, 2), F(0)), (F(1), F(2)), (F(1, 3), F(1, 3))]
    return pairs


# -- seeded corpus --------------------------------------------------------------------

FAMILIES = corpus.family_corpus(seed=7, n=40)
DEFORMATIONS = corpus.deformation_corpus(seed=7, n=20)
CHARTS = [c for fam in FAMILIES for c in fam.charts.values()] + [
    c for d in DEFORMATIONS for c in d.family.charts.values()]


class TestEvaluator:
    def test_chart_eval_and_eval_edge(self):
        for chart in CHARTS:
            pm = PLMap(graph(["u", "v"], [("e", "u", "v")]), {}, {"e": tuple((t, v.astuple()) for t, v in chart)})
            for t in probe_times(chart):
                assert outcome(families.path_value, chart, t) == outcome(oracle_chart_eval_tuple, chart, t)
                assert outcome(families.chart_eval, chart, t) == outcome(oracle_chart_eval, chart, t)
                if F0 <= t <= F1:
                    assert typed(pm.eval_edge("e", t)) == typed(oracle_eval_edge(pm, "e", t))
                else:
                    assert error_type(pm.eval_edge, "e", t) is error_type(oracle_eval_edge, pm, "e", t) is FamilyError

    def test_parameters_are_read_as_fractions(self):
        chart = FAMILIES[0].charts["edge-1"]
        for t in (0, 1, "1/2", "2/3", 2):
            assert outcome(families.path_value, chart, t) == outcome(oracle_chart_eval_tuple, chart, t)


def fractions_of_variables(tree, scope=""):
    """The scope of each one-argument ``Fraction(x)`` whose ``x`` is no int or string literal."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = f"{scope}.{node.name}".lstrip(".") if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
        if (isinstance(node, ast.Call) and ast.unparse(node.func) in ("Fraction", "fractions.Fraction")
                and len(node.args) == 1 and not node.keywords):
            arg = node.args[0].operand if isinstance(node.args[0], ast.UnaryOp) else node.args[0]
            if not (isinstance(arg, ast.Constant) and type(arg.value) in (int, str)):
                found.append(inner)
        found += fractions_of_variables(node, inner)
    return found


class TestFloatsRejected:
    """A float time or parameter raises TypeError, as a float length does; nothing rounds it."""

    def test_make_chart(self):
        t = TriangleLengths(3, 4, 5)
        with pytest.raises(TypeError, match="^floats are not accepted"):
            families.make_chart([(0.0, (3, 4, 5)), (1.0, (3, 4, 5))])
        with pytest.raises(TypeError, match="^floats are not accepted"):
            families.make_chart([(0, t), (0.5, t), (1, t)])
        with pytest.raises(TypeError, match="^floats are not accepted"):
            family(graph(["u", "v"], [("e", "u", "v")]), {"u": t, "v": t}, {"e": [(0, t), (1.0, t)]})
        assert families.make_chart([(0, (3, 4, 5)), ("1", t)]) == ((F0, t), (F1, t))

    def test_path_value_and_reparam(self):
        chart = families.make_chart([(0, (3, 4, 5)), (F(1, 2), (4, 4, 5)), (1, (5, 4, 5))])
        pm = PLMap(graph(["u", "v"], [("e", "u", "v")]), {}, {"e": tuple((t, v.astuple()) for t, v in chart)})
        for t in (0.25, 0.0, 1.0):
            for call in (lambda: families.path_value(chart, t), lambda: families.chart_eval(chart, t),
                         lambda: pm.eval_edge("e", t)):
                with pytest.raises(TypeError, match="^floats are not accepted"):
                    call()
        for a, b in ((0, 0.5), (0.5, 1), (1.0, F(0))):
            for reparam in (families.path_reparam, families.chart_reparam):
                with pytest.raises(TypeError, match="^floats are not accepted"):
                    reparam(chart, a, b)
        assert families.path_value(chart, F(1, 4)) == (F(7, 2), F(4), F(5))
        assert families.path_reparam(chart, 0, "1/2") == ((F0, (F(3), F(4), F(5))), (F1, (F(4), F(4), F(5))))

    def test_graph_map_points(self):
        g = graph(["u", "v"], [("e", "u", "v")])
        point = graph(["p"], [])
        ends, floated = {"u": ("vertex", "u"), "v": ("vertex", "v")}, {"e": ("segment", "e", 0, 1.0)}
        cut = subdivide_edge_map(g, "e", F(1, 4))
        for call in (lambda: families.canonical_point(g, "e", 0.5),
                     lambda: subdivide_edge_map(g, "e", 0.25),
                     lambda: families.graph_map(point, g, {"p": ("edge", "e", 0.5)}, {}),
                     lambda: families.graph_map(g, g, ends, {"e": ("segment", "e", 0.0, 1)}),
                     lambda: families.validate_graph_map(families.GraphMap(point, g, {"p": ("edge", "e", 0.5)}, {})),
                     lambda: families.validate_graph_map(families.GraphMap(g, g, ends, floated)),
                     lambda: map_point(cut, ("edge", "e.a", 0.5))):
            with pytest.raises(TypeError, match="^floats are not accepted"):
                call()
        assert families.canonical_point(g, "e", "1/2") == ("edge", "e", F(1, 2))
        assert subdivide_edge_map(g, "e", "1/4").edge_image == cut.edge_image
        assert map_point(cut, ("edge", "e.a", "1/2")) == ("edge", "e", F(1, 8))

    def test_invariants_and_written_lengths(self):
        t = TriangleLengths(3, 4, 5)
        half = families.InvariantAssignment("half", lambda t: (float(t.x) / 2,))
        for call in (lambda: half(t), lambda: trigeo.format_lengths((0.5, 1, 1))):
            with pytest.raises(TypeError, match="^floats are not accepted"):
                call()
        assert families.InvariantAssignment("half", lambda t: (t.x / 2, 1))(t) == (F(3, 2), F(1))
        assert trigeo.format_lengths((F(1, 2), 1, "3/4")) == ["1/2", "1", "3/4"]

    def test_no_fraction_of_a_variable_outside_the_gates(self):
        """``Fraction(x)`` would round a float ``x``; in src/ only the float gates may call it."""
        gates = {"trigeo.py:_frac", "trigeo.py:RationalReader._entry"}
        found = [f"{path.name}:{scope}" for path in sorted(Path(trigeo.__file__).parent.glob("*.py"))
                 for scope in fractions_of_variables(ast.parse(path.read_text(encoding="utf-8")))]
        assert found and set(found) <= gates, found
        probe = "def f(v):\n    return Fraction(v), Fraction(1), Fraction('1/2'), Fraction(-3), Fraction(v, 2)\n"
        assert fractions_of_variables(ast.parse(probe)) == ["f"]
        assert fractions_of_variables(ast.parse("class C:\n    def g(self):\n        return Fraction(0.5)\n")) == ["C.g"]


class TestReparametrisation:
    def test_chart_reparam(self):
        for chart in CHARTS:
            for a, b in reparam_ends(chart):
                assert outcome(families.chart_reparam, chart, a, b) == outcome(oracle_chart_reparam, chart, a, b)

    def test_pullback_plmap_along_subdivisions_and_covers(self):
        maps = []
        for fam in FAMILIES:
            for eid in sorted(fam.base.edges):
                for t in (F(1, 2), F(1, 8), F(5, 7)):
                    maps.append((subdivide_edge_map(fam.base, eid, t), fam))
        mob = fixture_mobius()
        maps.append((double_cover_of_circle(mob), mob))
        for m, fam in maps:
            for pm in (families.classify_to_N(fam), oracle_classify_to_N(fam)):
                assert typed_plmap(families.pullback_plmap(m, pm)) == typed_plmap(oracle_pullback_plmap(m, pm))
            assert typed_family(families.pullback_family(m, fam)) == typed_family(oracle_pullback_family(m, fam))

    def test_germ_normal_forms_and_leg_candidates(self):
        for d in DEFORMATIONS:
            for depth in range(deform.MAX_GERM_DEPTH + 1):
                nf = deform.germ_normal_form(d, depth)
                for gid, chart in nf.family.charts.items():
                    assert all(type(v) is TriangleLengths for _, v in chart)
            nf = deform.germ_normal_form(d, 0)
            for gid, chart in nf.family.charts.items():
                for pin in PERMS:
                    for other in (chart, families.chart_act("(AB)", chart)):
                        g = nf.family.glue_from[gid]
                        assert deform._leg_candidates(chart, g, other, g, pin) == oracle_leg_candidates(
                            chart, g, other, g, pin)


class TestMergeWalk:
    def test_classify_to_N(self):
        for fam in FAMILIES + [d.family for d in DEFORMATIONS]:
            assert typed_plmap(families.classify_to_N(fam)) == typed_plmap(oracle_classify_to_N(fam))
            assert families.is_scalene_everywhere(fam) == oracle_is_scalene_everywhere(fam)

    def test_plmaps_equal(self):
        maps = []
        for fam in FAMILIES[:20]:
            maps.append(families.classify_to_N(fam))
            maps.append(families.classify_to_N(twist_family(fam, "(AC)")))
            if fam.is_presented_oriented():
                maps.append(families.classify_to_M(fam))
        for m1 in maps:
            for m2 in maps:
                assert families.plmaps_equal(m1, m2) == oracle_plmaps_equal(m1, m2)

    def test_chart_candidates(self):
        charts = CHARTS[:60]
        for f_chart in charts:
            for g_chart in charts + [families.chart_act(g, f_chart) for g in PERMS]:
                assert families._chart_candidates(f_chart, g_chart) == oracle_chart_candidates(f_chart, g_chart)

    @pytest.mark.parametrize("name", sorted(INVARIANTS))
    def test_check_coarse_factorization(self, name):
        beta = INVARIANTS[name]
        for k in range(0, len(FAMILIES), 5):
            fams = FAMILIES[k:k + 5]
            new, old = families.check_coarse_factorization(beta, fams), oracle_check_coarse_factorization(beta, fams)
            assert typed((new.status, new.witness)) == typed((old.status, old.witness))


    def test_mismatch_witness(self):
        # S3-invariant on integer triples only: natural at every breakpoint of an
        # integer chart, not at its crossings, so the verdict is a mismatch
        beta = families.InvariantAssignment(
            "x-off-integers", lambda t: (0,) if all(v.denominator == 1 for v in t.astuple()) else (t.x,))
        fams = [one_edge_family(((F0, TriangleLengths(6, 3, 5)), (F1, TriangleLengths(4, 6, 4))))]
        new, old = families.check_coarse_factorization(beta, fams), oracle_check_coarse_factorization(beta, fams)
        assert (new.status, new.witness) == ("mismatch", (0, "e", F(1, 2), (F(5),), (F(9, 2),)))
        assert typed((new.status, new.witness)) == typed((old.status, old.witness))


# -- hypothesis charts ----------------------------------------------------------------

# triples that make coordinates cross: (5, 4, 3) -> (3, 4, 5) crosses all three
# pairs at once, (3, 2, 2) -> (1, 2, 2) crosses two pairs at the same time
CROSSING_POOL = [(5, 4, 3), (3, 4, 5), (3, 2, 2), (1, 2, 2), (2, 2, 2), (4, 3, 5), (2, 3, 4), (4, 3, 2)]


@st.composite
def triples(draw):
    if draw(st.booleans()):
        return TriangleLengths(*draw(st.sampled_from(CROSSING_POOL)))
    q = draw(st.sampled_from([1, 2, 3, 5, 12]))
    a, b = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    c = draw(st.integers(abs(a - b) + 1, a + b - 1))
    x, y, z = draw(st.permutations([F(a, q), F(b, q), F(c, q)]))
    return TriangleLengths(x, y, z)


@st.composite
def charts(draw):
    inner = sorted(set(draw(st.lists(st.sampled_from([F(k, 12) for k in range(1, 12)] + [F(1, 7), F(5, 9)]),
                                     max_size=4))))
    times = [F0] + inner + [F1]
    return tuple((t, draw(triples())) for t in times)


@st.composite
def chart_pairs(draw):
    """Two charts; the second often the first relabelled and refined, sometimes redrawn at one point."""
    f_chart = draw(charts())
    if draw(st.booleans()):
        return f_chart, draw(charts())
    tau = draw(st.sampled_from(PERMS))
    extra = set(draw(st.lists(st.sampled_from([F(k, 24) for k in range(1, 24, 2)]), max_size=3)))
    g_times = sorted(set(chart_breaks(f_chart)) | extra)
    g_chart = tuple((t, TriangleLengths(*act_tuple(tau, oracle_chart_eval_tuple(f_chart, t)))) for t in g_times)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(g_chart) - 1))
        g_chart = g_chart[:k] + ((g_chart[k][0], draw(triples())),) + g_chart[k + 1:]
    return (f_chart, g_chart) if draw(st.booleans()) else (g_chart, f_chart)


def one_edge_family(chart):
    return family(graph(["u", "v"], [("e", "u", "v")]), {"u": chart[0][1], "v": chart[-1][1]}, {"e": chart})


parameters = st.one_of(st.sampled_from([F0, F1, F(1, 2), F(-1, 4), F(5, 4), F(-3), F(3)]),
                       st.fractions(min_value=-2, max_value=3, max_denominator=24))


class TestHypothesisCharts:
    @HYPOTHESIS
    @given(charts(), st.lists(parameters, min_size=1, max_size=6))
    def test_evaluator(self, chart, ts):
        pm = families.classify_to_M(one_edge_family(chart))
        for t in ts + chart_breaks(chart):
            assert outcome(families.path_value, chart, t) == outcome(oracle_chart_eval_tuple, chart, t)
            assert outcome(families.chart_eval, chart, t) == outcome(oracle_chart_eval, chart, t)
            if F0 <= t <= F1:
                assert typed(pm.eval_edge("e", t)) == typed(oracle_eval_edge(pm, "e", t))
            else:
                assert error_type(pm.eval_edge, "e", t) is error_type(oracle_eval_edge, pm, "e", t) is FamilyError

    @HYPOTHESIS
    @given(charts(), st.data())
    def test_reparam(self, chart, data):
        breaks = chart_breaks(chart)
        ends = st.one_of(st.sampled_from(breaks), parameters)
        a, b = data.draw(ends), data.draw(ends)
        assert outcome(families.chart_reparam, chart, a, b) == outcome(oracle_chart_reparam, chart, a, b)
        if a != b and F0 <= min(a, b) and max(a, b) <= F1:
            # the same cut of the chart's PL maps, along a graph map onto its edge
            fam = one_edge_family(chart)
            m = _segment_map(fam.base, a, b)
            for pm in (families.classify_to_M(fam), families.classify_to_N(fam)):
                assert typed_plmap(families.pullback_plmap(m, pm)) == typed_plmap(oracle_pullback_plmap(m, pm))

    @HYPOTHESIS
    @given(chart_pairs())
    def test_merge_walk(self, pair):
        f_chart, g_chart = pair
        assert families._chart_candidates(f_chart, g_chart) == oracle_chart_candidates(f_chart, g_chart)
        joint = sorted(set(chart_breaks(f_chart)) | set(chart_breaks(g_chart)))
        walked = list(families.path_merge(f_chart, g_chart))
        assert typed(walked) == typed([(t, oracle_chart_eval_tuple(f_chart, t), oracle_chart_eval_tuple(g_chart, t))
                                       for t in joint])
        f, g = one_edge_family(f_chart), one_edge_family(g_chart)
        nf, ng = families.classify_to_N(f), families.classify_to_N(g)
        assert typed_plmap(nf) == typed_plmap(oracle_classify_to_N(f))
        assert families.is_scalene_everywhere(f) == oracle_is_scalene_everywhere(f)
        for m1, m2 in ((nf, ng), (nf, nf), (families.classify_to_M(f), families.classify_to_M(g))):
            assert families.plmaps_equal(m1, m2) == oracle_plmaps_equal(m1, m2)

    @settings(HYPOTHESIS, max_examples=60)
    @given(chart_pairs(), st.sampled_from(sorted(INVARIANTS)))
    def test_coarse_factorization(self, pair, name):
        fams = [one_edge_family(chart) for chart in pair]
        new = families.check_coarse_factorization(INVARIANTS[name], fams)
        old = oracle_check_coarse_factorization(INVARIANTS[name], fams)
        assert typed((new.status, new.witness)) == typed((old.status, old.witness))

    def test_two_pairs_cross_at_the_same_time(self):
        chart = ((F0, TriangleLengths(3, 2, 2)), (F1, TriangleLengths(1, 2, 2)))
        n = families.classify_to_N(one_edge_family(chart))
        assert n.breakpoints("e") == [F0, F(1, 2), F1]
        assert typed_plmap(n) == typed_plmap(oracle_classify_to_N(one_edge_family(chart)))
        chart = ((F0, TriangleLengths(5, 4, 3)), (F(1, 3), TriangleLengths(3, 4, 5)), (F1, TriangleLengths(5, 4, 3)))
        n = families.classify_to_N(one_edge_family(chart))
        assert n.breakpoints("e") == [F0, F(1, 6), F(1, 3), F(2, 3), F1]
        assert typed_plmap(n) == typed_plmap(oracle_classify_to_N(one_edge_family(chart)))


# -- the integer segment kernel on raw segments ------------------------------------------

BIG = 10 ** 6
coordinates = st.one_of(st.integers(-40, 40), st.fractions(min_value=-40, max_value=40, max_denominator=BIG))
inside = st.fractions(min_value=0, max_value=1, max_denominator=BIG).filter(lambda s: 0 < s < 1)


@st.composite
def raw_segments(draw):
    """(p0, p1) with t0 < t1 and coordinate points, free or in the cone, touching or meeting all at once.

    A touching segment has one pair equal at one end only; a meeting one
    has all three coordinates equal at one time inside the segment.
    """
    t0, t1 = sorted(draw(st.lists(st.fractions(min_value=-2, max_value=3, max_denominator=BIG),
                                  min_size=2, max_size=2, unique=True)))
    kind = draw(st.sampled_from(["free", "touch", "meet", "cone"]))
    if kind == "cone":
        return (t0, draw(triples())), (t1, draw(triples()))
    a, b = (list(draw(st.tuples(coordinates, coordinates, coordinates))) for _ in range(2))
    if kind == "touch":
        p, q = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
        a[q] = a[p]
    elif kind == "meet":
        lam, c = draw(inside), draw(coordinates)
        b = [ai + (c - ai) / lam for ai in a]
    a, b = tuple(a), tuple(b)
    return ((t0, a), (t1, b)) if draw(st.booleans()) else ((t0, b), (t1, a))


class TestSegmentKernel:
    """Crossings and interpolation on integers against the Fraction code they replaced."""

    def check(self, p0, p1, ts=()):
        a, b = families._int_point(p0[1]), families._int_point(p1[1])
        crossings = families._segment_crossings(p0[0], a, p1[0], b)
        assert typed(crossings) == typed(oracle_segment(p0, p1))
        assert bool(families._sign_changes(a, b)) == bool(oracle_crossings(p0, p1))
        for t in [*ts, *(t for t, _ in crossings)]:
            assert typed(families._lerp(p0, p1, t)) == typed(oracle_path_lerp(p0, p1, t))
        return crossings

    @settings(HYPOTHESIS, max_examples=500)
    @given(raw_segments(), inside)
    def test_raw_segments(self, segment, s):
        p0, p1 = segment
        self.check(p0, p1, [p0[0] + (p1[0] - p0[0]) * s])

    def test_touching_ties_and_three_way_meetings(self):
        assert self.check((F0, (3, 4, 4)), (F1, (3, 5, 4)), [F(1, 3)]) == []
        assert families._sign_changes(families._int_point((3, 4, 4)), families._int_point((3, 5, 4))) == []
        meet = self.check((F(1, 4), (5, 4, 3)), (F(3, 4), (3, 4, 5)), [F(1, 3)])
        assert meet == [(F(1, 2), (F(4), F(4), F(4)))]
        assert self.check((F0, (F(-1, 3), 2, -2)), (F(1, 3), (2, -1, F(-5, 999_983))), [F(1, 7)])
        assert self.check((F(-1, BIG), (F(1, BIG), F(2, BIG - 1), 0)), (F(1, BIG + 3), (0, 0, F(1, BIG))))


def _segment_map(base, a, b):
    """The map from a one-edge graph onto ``base``'s edge e, running from a to b."""
    dom = graph(["s0", "s1"], [("s", "s0", "s1")])
    return families.graph_map(dom, base, {"s0": families.canonical_point(base, "e", a),
                                          "s1": families.canonical_point(base, "e", b)},
                              {"s": ("segment", "e", a, b)})


def test_corpus_is_not_trivial():
    """The seeded corpus reaches crossings, reversed cuts and interpolated walk points.

    It also reaches segments where a coordinate pair touches, equal at one
    end only, and three-way coincidences, where all three coordinates are
    equal; the corpus has these at breakpoints, and the raw segments of
    ``TestSegmentKernel`` draw them inside a segment.
    """
    crossings = sum(len(oracle_sort_crossings(c)) for c in CHARTS)
    interpolated = sum(
        1 for f in CHARTS[:30] for g in CHARTS[:30]
        if set(chart_breaks(f)) != set(chart_breaks(g)))
    touching = sum(
        1 for c in CHARTS for (_, u), (_, v) in zip(c, c[1:])
        if any((u.astuple()[p] == u.astuple()[q]) != (v.astuple()[p] == v.astuple()[q])
               for p, q in ((0, 1), (0, 2), (1, 2))))
    meetings = sum(1 for c in CHARTS for _, v in c if len(set(v.astuple())) == 1)
    assert crossings > 20 and interpolated > 100 and touching > 10 and meetings > 0
