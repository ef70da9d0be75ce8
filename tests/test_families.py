from fractions import Fraction

import pytest

from tristack.families import (
    INVARIANTS,
    DifferentBase,
    FamilyError,
    FiberNotInM,
    GlueInconsistent,
    IllTypedMap,
    NotOriented,
    are_isomorphic,
    check_coarse_factorization,
    classify_to_M,
    classify_to_N,
    compose_graph_maps,
    constant_family,
    double_cover_of_circle,
    edge_transport,
    family,
    family_from_json,
    family_to_json,
    fixture_mobius,
    fixture_remark25,
    graph,
    graph_map,
    identity_graph_map,
    is_orientable,
    orient,
    plmaps_equal,
    point_family,
    pullback_family,
    pullback_plmap,
    subdivide_edge_map,
    twist_family,
    validate_family,
)
from tristack.trigeo import PERMS, TriangleLengths, act, compose, inverse

F = Fraction
PATH = graph(["p", "q"], [("e", "p", "q")])


def path_family(points, glue_from="e", glue_to="e"):
    """Single-edge family through the given (t, triple) chart."""
    chart = tuple((F(t), TriangleLengths(*v)) for t, v in points)
    return family(
        PATH,
        {
            "p": act(glue_from, chart[0][1]),
            "q": act(glue_to, chart[-1][1]),
        },
        {"e": chart},
        glue_from={"e": glue_from},
        glue_to={"e": glue_to},
    )


class TestValidateFamily:
    def test_constant_family_valid(self):
        fam = constant_family(PATH, (3, 4, 5))
        assert validate_family(fam) is fam

    def test_degenerate_breakpoint_rejected(self):
        raw = family_to_json(constant_family(PATH, (3, 4, 5)))
        raw["edges"][0]["chart"][1]["lengths"] = ["1", "1", "2"]
        with pytest.raises(FiberNotInM):
            family_from_json(raw)

    def test_loop_glued_against_scalene_fiber(self):
        # (AB).(3,4,5) = (3,5,4) cannot transport the constant chart to the fiber
        loop = graph(["v"], [("l", "v", "v")])
        t = TriangleLengths(3, 4, 5)
        with pytest.raises(GlueInconsistent):
            family(
                loop,
                {"v": t},
                {"l": ((F(0), t), (F(1), t))},
                glue_from={"l": "e"},
                glue_to={"l": "(AB)"},
            )

    @pytest.mark.parametrize("label", ["(XY)", "", ["e"], {"e": 1}, None, 0])
    @pytest.mark.parametrize("end", ["glue_from", "glue_to"])
    def test_glue_that_is_no_label_is_a_family_error(self, label, end):
        # one message for a label of any kind, unhashable ones included, on either end
        t = TriangleLengths(3, 4, 5)
        glue = {"glue_from": {"e": "e"}, "glue_to": {"e": "e"}}
        glue[end] = {"e": label}
        with pytest.raises(FamilyError, match=r"^edge e glue .* is not a permutation label$") as err:
            family(PATH, {"p": t, "q": t}, {"e": ((F(0), t), (F(1), t))}, **glue)
        assert type(err.value) is FamilyError and str(err.value) == f"edge e glue {label} is not a permutation label"

    def test_json_round_trip(self):
        fam = fixture_mobius()
        again = family_from_json(family_to_json(fam))
        assert again == fam


class TestPullback:
    def test_identity_pullback_is_equal(self):
        fam = fixture_mobius()
        assert pullback_family(identity_graph_map(fam.base), fam) == fam

    def test_pullback_to_point_is_constant(self):
        fam, _ = fixture_remark25()
        pt = graph(["y"], [])
        m = graph_map(pt, fam.base, {"y": ("vertex", "1/2")}, {})
        pulled = pullback_family(m, fam)
        assert pulled.vertex_lengths["y"] == fam.vertex_lengths["1/2"]

    def test_pullback_to_interior_point(self):
        fam, _ = fixture_remark25()
        pt = graph(["y"], [])
        m = graph_map(pt, fam.base, {"y": ("edge", "edge-1", F(1, 2))}, {})
        pulled = pullback_family(m, fam)
        assert pulled.vertex_lengths["y"].astuple() == (1, F(9, 10), F(11, 10))

    def test_double_cover_of_mobius_is_orientable(self):
        mob = fixture_mobius()
        assert not is_orientable(mob)
        cover = double_cover_of_circle(mob)
        pulled = pullback_family(cover, mob)
        assert is_orientable(pulled)

    def test_composition_of_pullbacks(self):
        fam, _ = fixture_remark25()
        sub = subdivide_edge_map(fam.base, "edge-1", F(1, 2))
        sub2 = subdivide_edge_map(sub.dom, "edge-2", F(1, 3))
        composite = compose_graph_maps(sub, sub2)
        once = pullback_family(composite, fam)
        twice = pullback_family(sub2, pullback_family(sub, fam))
        assert are_isomorphic(once, twice)

    def test_wrong_codomain_rejected(self):
        fam = constant_family(PATH, (3, 4, 5))
        other = graph(["a"], [])
        with pytest.raises(IllTypedMap):
            pullback_family(identity_graph_map(other), fam)


class TestClassifyToM:
    def test_constant_family(self):
        fam = constant_family(PATH, (3, 4, 5))
        m = classify_to_M(fam)
        assert m.vertex_values["p"] == (3, 4, 5)
        assert m.eval_edge("e", F(1, 3)) == (3, 4, 5)

    def test_chart_is_the_map(self):
        fam = path_family([(0, (1, F(4, 5), F(6, 5))), (1, (1, 1, 1))])
        m = classify_to_M(fam)
        assert m.eval_edge("e", F(1, 2)) == (1, F(9, 10), F(11, 10))

    def test_gates_on_presented_orientation(self):
        with pytest.raises(NotOriented):
            classify_to_M(fixture_mobius())

    def test_naturality_under_pullback(self):
        fam, _ = fixture_remark25()
        sub = subdivide_edge_map(fam.base, "edge-2", F(1, 4))
        assert plmaps_equal(
            classify_to_M(pullback_family(sub, fam)),
            pullback_plmap(sub, classify_to_M(fam)),
        )


class TestClassifyToN:
    def test_twisted_copy_has_identical_map(self):
        fam, _ = fixture_remark25()
        for sigma in PERMS:
            assert plmaps_equal(classify_to_N(fam), classify_to_N(twist_family(fam, sigma)))

    def test_remark25_pair_has_equal_maps(self):
        f, g = fixture_remark25()
        assert plmaps_equal(classify_to_N(f), classify_to_N(g))

    def test_crossing_inserts_breakpoint(self):
        fam = path_family([(0, (1, F(4, 5), F(6, 5))), (1, (1, F(6, 5), F(4, 5)))])
        n = classify_to_N(fam)
        assert F(1, 2) in n.breakpoints("e")
        assert n.eval_edge("e", F(1, 2)) == (1, 1, 1)
        assert n.eval_edge("e", F(0)) == (F(4, 5), 1, F(6, 5))

    def test_naturality_under_pullback(self):
        mob = fixture_mobius()
        cover = double_cover_of_circle(mob)
        assert plmaps_equal(
            classify_to_N(pullback_family(cover, mob)),
            pullback_plmap(cover, classify_to_N(mob)),
        )

    def test_factors_through_M_when_oriented(self):
        fam, _ = fixture_remark25()
        m = classify_to_M(fam)
        n = classify_to_N(fam)
        for e in fam.base.edges:
            for t in n.breakpoints(e):
                assert n.eval_edge(e, t) == tuple(sorted(m.eval_edge(e, t)))


class TestOrientability:
    def test_trivial_glue_orientable(self):
        fam, _ = fixture_remark25()
        o = is_orientable(fam)
        assert o and all(g == "e" for g in o.edge_recharts.values())

    def test_mobius_obstruction(self):
        o = is_orientable(fixture_mobius())
        assert not o
        assert o.monodromy == "(AB)"
        assert set(e for e, _ in o.obstruction_cycle) == {"e0", "e1"}

    def test_orient_produces_trivial_glue(self):
        mob = fixture_mobius()
        cover = double_cover_of_circle(mob)
        pulled = pullback_family(cover, mob)
        oriented, o = orient(pulled)
        assert oriented.is_presented_oriented()
        assert are_isomorphic(pulled, oriented)
        classify_to_M(oriented)

    def test_monodromy_matches_edge_transports(self):
        mob = fixture_mobius()
        total = "e"
        for eid in ("e0", "e1"):
            total = compose(edge_transport(mob, eid), total)
        assert total == "(AB)"

    def test_recharting_preserves_quotient_map(self):
        mob = fixture_mobius()
        pulled = pullback_family(double_cover_of_circle(mob), mob)
        oriented, _ = orient(pulled)
        assert plmaps_equal(classify_to_N(pulled), classify_to_N(oriented))
        # and on the oriented presentation the quotient map factors pointwise
        m = classify_to_M(oriented)
        n = classify_to_N(oriented)
        for e in oriented.base.edges:
            for t in n.breakpoints(e):
                assert n.eval_edge(e, t) == tuple(sorted(m.eval_edge(e, t)))


class TestAreIsomorphic:
    def test_reflexive_identity_witness(self):
        fam, _ = fixture_remark25()
        r = are_isomorphic(fam, fam)
        assert r and all(tau == "e" for tau in r.assignment.values())

    def test_remark25_absent_with_vertex_clash(self):
        f, g = fixture_remark25()
        r = are_isomorphic(f, g)
        assert not r
        ob = r.obstruction
        assert ob.vertex == "1/2"
        forced = {ob.left_edge: ob.left_forced, ob.right_edge: ob.right_forced}
        assert forced == {"edge-1": ("e",), "edge-2": ("(AB)",)}

    def test_twisted_copy_found_with_constant_assignment(self):
        _, g = fixture_remark25()
        for sigma in PERMS:
            r = are_isomorphic(g, twist_family(g, sigma))
            assert r and set(r.assignment.values()) == {sigma}

    def test_symmetry_and_transitivity_witnesses(self):
        _, g = fixture_remark25()
        g1 = twist_family(g, "(ABC)")
        g2 = twist_family(g, "(AC)")
        r01 = are_isomorphic(g, g1)
        r10 = are_isomorphic(g1, g)
        assert r01 and r10
        for e in g.base.edges:
            assert r10.assignment[e] == inverse(r01.assignment[e])
        r12 = are_isomorphic(g1, g2)
        r02 = are_isomorphic(g, g2)
        assert r12 and r02
        for e in g.base.edges:
            assert r02.assignment[e] == compose(r12.assignment[e], r01.assignment[e])

    def test_isomorphism_implies_equal_quotient_maps(self):
        _, g = fixture_remark25()
        twisted = twist_family(g, "(BC)")
        assert are_isomorphic(g, twisted)
        assert plmaps_equal(classify_to_N(g), classify_to_N(twisted))

    def test_scalene_everywhere_has_at_most_one_solution(self):
        fam = path_family([(0, (2, 3, 4)), (1, (3, 4, 5))])
        for sigma in PERMS:
            sols = are_isomorphic(fam, twist_family(fam, sigma), find_all=True)
            assert len(sols) == 1

    def test_different_base_rejected(self):
        fam = constant_family(PATH, (3, 4, 5))
        other = constant_family(graph(["p", "q"], [("e2", "p", "q")]), (3, 4, 5))
        with pytest.raises(DifferentBase):
            are_isomorphic(fam, other)

    def test_equilateral_loop_has_many_solutions(self):
        loop = graph(["v"], [("l", "v", "v")])
        t = TriangleLengths(2, 2, 2)
        fam = family(loop, {"v": t}, {"l": ((F(0), t), (F(1), t))})
        sols = are_isomorphic(fam, fam, find_all=True)
        assert len(sols) == 6


class TestScaleneNaturalPresentation:
    def scalene_loop(self):
        # a closed scalene path twisted by a nontrivial seam, still orientable
        base = graph(["v0", "v1"], [("e0", "v0", "v1"), ("e1", "v1", "v0")])
        a = TriangleLengths(2, 3, 4)
        b = TriangleLengths(2, 3, F(9, 2))
        sigma = "(ABC)"
        return family(
            base,
            {"v0": a, "v1": b},
            {
                "e0": ((F(0), a), (F(1), b)),
                "e1": ((F(0), act(inverse(sigma), b)), (F(1), act(inverse(sigma), a))),
            },
            glue_from={"e0": "e", "e1": sigma},
            glue_to={"e0": "e", "e1": sigma},
        )

    def test_presentation_is_sorted_oriented_and_isomorphic(self):
        from tristack.families import scalene_natural_presentation

        fam = self.scalene_loop()
        nat = scalene_natural_presentation(fam)
        assert nat.is_presented_oriented()
        assert are_isomorphic(fam, nat)
        # the oriented classifier of the natural presentation is the
        # quotient map: strictly sorted fibers classify scalene families
        assert plmaps_equal(classify_to_M(nat), classify_to_N(fam))
        for chart in nat.charts.values():
            for _, v in chart:
                x, y, z = v.astuple()
                assert x < y < z

    def test_scalene_families_are_always_orientable(self):
        assert is_orientable(self.scalene_loop())

    def test_isosceles_crossing_rejected(self):
        from tristack.families import NotScalene, scalene_natural_presentation

        fam, _ = fixture_remark25()
        with pytest.raises(NotScalene):
            scalene_natural_presentation(fam)


class TestFixtures:
    def test_remark25_breakpoint_values(self):
        f, g = fixture_remark25()
        nf, ng = classify_to_N(f), classify_to_N(g)
        for nm in (nf, ng):
            assert nm.vertex_values["0"] == (F(4, 5), 1, F(6, 5))
            assert nm.vertex_values["1/2"] == (1, 1, 1)
            assert nm.vertex_values["1"] == (F(4, 5), 1, F(6, 5))

    def test_mobius_quotient_map_closes(self):
        n = classify_to_N(fixture_mobius())
        assert n.eval_edge("e0", F(0)) == n.eval_edge("e1", F(1))


class TestCorpusInvariants:
    """Corpus-level laws spot-checked across generated families."""

    def corpus(self, n=8):
        from tristack import corpus as gen

        return gen.family_corpus(seed=17, n=n)

    def test_quotient_map_natural_under_subdivision(self):
        for fam in self.corpus():
            if not fam.base.edges:
                continue
            eid = sorted(fam.base.edges)[0]
            sub = subdivide_edge_map(fam.base, eid, F(1, 3))
            assert plmaps_equal(
                classify_to_N(pullback_family(sub, fam)),
                pullback_plmap(sub, classify_to_N(fam)),
            )

    def test_oriented_classifier_natural_under_subdivision(self):
        for fam in self.corpus():
            if not is_orientable(fam) or not fam.base.edges:
                continue
            oriented, _ = orient(fam)
            eid = sorted(oriented.base.edges)[0]
            sub = subdivide_edge_map(oriented.base, eid, F(1, 2))
            assert plmaps_equal(
                classify_to_M(pullback_family(sub, oriented)),
                pullback_plmap(sub, classify_to_M(oriented)),
            )

    def test_isomorphism_laws_on_corpus(self):
        for fam in self.corpus():
            r = are_isomorphic(fam, fam)
            assert r and all(t == "e" for t in r.assignment.values())
            twisted = twist_family(fam, "(ACB)")
            fwd = are_isomorphic(fam, twisted)
            bwd = are_isomorphic(twisted, fam)
            assert fwd and bwd
            for e in fam.base.edges:
                assert bwd.assignment[e] == inverse(fwd.assignment[e])
            assert plmaps_equal(classify_to_N(fam), classify_to_N(twisted))

    def test_orientability_matches_cycle_monodromy(self):
        from tristack.trigeo import compose as comp

        for fam in self.corpus(12):
            o = is_orientable(fam)
            if o.orientable:
                oriented, _ = orient(fam)
                assert oriented.is_presented_oriented()
            else:
                mono = "e"
                for eid, d in o.obstruction_cycle:
                    p = edge_transport(fam, eid)
                    if d == "backward":
                        p = inverse(p)
                    mono = comp(p, mono)
                assert mono == o.monodromy != "e"


class TestCoarseFactorization:
    def corpus(self):
        f, g = fixture_remark25()
        return [f, g, twist_family(g, "(AB)"), fixture_mobius(), point_family((2, 3, 4))]

    def test_symmetric_invariants_factor(self):
        for name in ("perimeter", "spread", "heron"):
            v = check_coarse_factorization(INVARIANTS[name], self.corpus())
            assert v, (name, v)

    def test_y_coordinate_fails(self):
        v = check_coarse_factorization(INVARIANTS["ycoord"], self.corpus())
        assert not v
        assert v.status in ("not-natural", "mismatch")
        assert v.witness is not None

    def test_heron_value_on_right_triangle(self):
        # 3-4-5 has area 6, so the rational invariant 16*area^2 = 576
        assert INVARIANTS["heron"](TriangleLengths(3, 4, 5)) == (576,)
