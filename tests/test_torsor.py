import pytest

from tristack.families import are_isomorphic, classify_to_M, is_orientable, orient
from tristack.families import double_cover_of_circle, fixture_mobius, fixture_remark25, pullback_family
from tristack.torsor import (
    CocycleFails,
    Face,
    FaceCocycleFails,
    GlueData,
    InvalidPair,
    NotEquivariant,
    NotTransitionCompatible,
    SimplicialBase,
    TorsorCocycle,
    closed_star,
    Edge,
    family_to_torsor_pair,
    find_gauge_isomorphism,
    gauge_as_sheet_maps,
    gauge_transform,
    glue_data_from_json,
    glue_data_to_json,
    glue_descent,
    group_s3,
    group_z2,
    group_z3,
    is_trivial,
    pair_from_json,
    pair_gauge_from_family_iso,
    pair_to_json,
    restrict_torsor,
    star_cover,
    torsor_from_json,
    torsor_morphism_check,
    torsor_to_json,
    torsor_pair_to_family,
    validate_glue_data,
    validate_torsor,
)
from tristack.records import Verdict
from tristack import trigeo


def triangle_complex():
    return SimplicialBase(
        ["u", "v", "w"],
        [Edge("euv", "u", "v"), Edge("evw", "v", "w"), Edge("ewu", "w", "u")],
        [Face("f", (("euv", 1), ("evw", 1), ("ewu", 1)))],
    )


def circle_complex():
    return SimplicialBase(["a0", "a1"], [Edge("e0", "a0", "a1"), Edge("e1", "a1", "a0")])


def interval_subdivided():
    return SimplicialBase(
        ["a", "b", "m"], [Edge("e1", "a", "m"), Edge("e2", "m", "b")]
    )


class TestGroups:
    def test_s3_matches_vertex_transport_order(self):
        s3 = group_s3()
        for a in trigeo.PERMS:
            for b in trigeo.PERMS:
                assert s3.mul(a, b) == trigeo.compose(b, a)

    def test_path_product_is_left_to_right(self):
        s3 = group_s3()
        assert s3.path_product(["(AB)", "(BC)"]) == trigeo.compose("(BC)", "(AB)")

    def test_builtin_groups_are_groups(self):
        for g in (group_s3(), group_z2(), group_z3()):
            assert g.mul(g.identity, g.elements[-1]) == g.elements[-1]
            for a in g.elements:
                assert g.mul(a, g.inverse(a)) == g.identity


class TestValidateTorsor:
    def test_identity_transitions_valid(self):
        base = triangle_complex()
        t = TorsorCocycle(base, group_s3(), {e: "e" for e in base.edges})
        assert validate_torsor(t).ok

    def test_involution_face_fails(self):
        base = triangle_complex()
        t = TorsorCocycle(base, group_s3(), {e: "(AB)" for e in base.edges})
        v = validate_torsor(t)
        assert not v.ok and v.witness[0] == "f"

    def test_three_cycle_face_passes(self):
        base = triangle_complex()
        t = TorsorCocycle(base, group_s3(), {e: "(ABC)" for e in base.edges})
        assert validate_torsor(t).ok

    def test_z3_face(self):
        base = triangle_complex()
        t = TorsorCocycle(base, group_z3(), {e: "r" for e in base.edges})
        assert validate_torsor(t).ok


class TestTriviality:
    def test_tree_base_always_trivial(self):
        base = interval_subdivided()
        t = TorsorCocycle(base, group_s3(), {"e1": "(ABC)", "e2": "(AB)"})
        triv = is_trivial(t)
        assert triv
        gauged = gauge_transform(t, triv.gauge)
        assert set(gauged.transitions.values()) == {"e"}

    def test_circle_with_twist_obstructed(self):
        base = circle_complex()
        t = TorsorCocycle(base, group_s3(), {"e0": "e", "e1": "(AB)"})
        triv = is_trivial(t)
        assert not triv
        assert triv.monodromy == "(AB)"
        assert {e for e, _ in triv.obstruction_cycle} == {"e0", "e1"}

    def test_gauged_circle_trivial(self):
        base = circle_complex()
        t = TorsorCocycle(base, group_s3(), {"e0": "(ABC)", "e1": "(ACB)"})
        # monodromy (ABC) then (ACB) is trivial although no transition is
        triv = is_trivial(t)
        assert triv
        assert set(gauge_transform(t, triv.gauge).transitions.values()) == {"e"}

    def test_face_validation_gates(self):
        base = triangle_complex()
        t = TorsorCocycle(base, group_s3(), {e: "(AB)" for e in base.edges})
        with pytest.raises(FaceCocycleFails):
            is_trivial(t)


class TestMorphisms:
    def test_identity_morphism(self):
        base = circle_complex()
        t = TorsorCocycle(base, group_s3(), {"e0": "e", "e1": "(AB)"})
        ident = {v: {s: s for s in trigeo.PERMS} for v in base.vertices}
        assert torsor_morphism_check(t, t, ident).ok

    def test_gauge_morphism_is_isomorphism(self):
        base = circle_complex()
        t = TorsorCocycle(base, group_s3(), {"e0": "(ABC)", "e1": "(ACB)"})
        gauge = {"a0": "(AB)", "a1": "(BC)"}
        t2 = gauge_transform(t, gauge)
        maps = gauge_as_sheet_maps(t, gauge)
        assert torsor_morphism_check(t, t2, maps).ok

    def test_non_equivariant_rejected(self):
        base = circle_complex()
        t = TorsorCocycle(base, group_s3(), {"e0": "e", "e1": "e"})
        bad = {v: {s: "e" for s in trigeo.PERMS} for v in base.vertices}
        with pytest.raises(NotEquivariant):
            torsor_morphism_check(t, t, bad)

    def test_transition_incompatible_rejected(self):
        base = circle_complex()
        t1 = TorsorCocycle(base, group_s3(), {"e0": "e", "e1": "e"})
        t2 = TorsorCocycle(base, group_s3(), {"e0": "e", "e1": "(AB)"})
        ident = {v: {s: s for s in trigeo.PERMS} for v in base.vertices}
        with pytest.raises(NotTransitionCompatible):
            torsor_morphism_check(t1, t2, ident)


class TestGlueDescent:
    def test_interval_from_two_stars(self):
        base = interval_subdivided()
        pieces = (closed_star(base, "a"), closed_star(base, "b"))
        assert pieces[0] == frozenset({"a", "e1", "m"})
        data = GlueData(base, group_s3(), pieces, {(0, 1): {"m": "(ABC)"}})
        torsor, witnesses = glue_descent(data)
        assert torsor.transitions["e1"] == "e"
        assert torsor.transitions["e2"] == "(ABC)"
        assert set(witnesses) == {0, 1}

    def test_circle_from_two_arcs_monodromy(self):
        base = circle_complex()
        arcs = (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"}))
        g, h = "(ABC)", "(AB)"
        data = GlueData(base, group_s3(), arcs, {(0, 1): {"a0": g, "a1": h}})
        torsor, _ = glue_descent(data)
        triv = is_trivial(torsor)
        s3 = group_s3()
        expected = s3.mul(h, s3.inverse(g))
        assert (not triv and triv.monodromy == expected) or (triv and expected == "e")

    def test_value_outside_the_group_rejected(self):
        base = circle_complex()
        arcs = (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"}))
        for value in ("zz", ["e"], None):
            data = GlueData(base, group_s3(), arcs, {(0, 1): {"a0": value, "a1": "(AB)"}})
            assert validate_glue_data(data) == Verdict(False, "transition not a group element", (0, 1, "a0"))
            with pytest.raises(CocycleFails):
                glue_descent(data)

    def test_cocycle_failure_rejected(self):
        base = triangle_complex()
        pieces = star_cover(base)
        # all three stars are the whole complex; constant tables that break
        # the triple condition mul(a01, a12) == a02
        cells = dict.fromkeys(base.cells())
        data = GlueData(
            base,
            group_z2(),
            pieces,
            {
                (0, 1): {c: "s" for c in cells},
                (0, 2): {c: "e" for c in cells},
                (1, 2): {c: "s" for c in cells},
            },
        )
        glue_descent(data)  # mul(s, s) = e == a02: consistent
        bad = GlueData(
            base,
            group_z2(),
            pieces,
            {
                (0, 1): {c: "s" for c in cells},
                (0, 2): {c: "s" for c in cells},
                (1, 2): {c: "s" for c in cells},
            },
        )
        with pytest.raises(CocycleFails):
            glue_descent(bad)

    def test_non_constant_along_edge_rejected(self):
        base = circle_complex()
        arcs = (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1", "a0"}))
        data = GlueData(
            base, group_s3(), (base.cells(), base.cells()),
            {(0, 1): {**{c: "e" for c in base.cells()}, "a0": "(AB)"}},
        )
        with pytest.raises(CocycleFails):
            glue_descent(data)

    def test_star_restrictions_are_gauge_trivial(self):
        base = triangle_complex()
        pieces = star_cover(base)
        cells = base.cells()
        data = GlueData(
            base,
            group_z3(),
            pieces,
            {
                (0, 1): {c: "r" for c in cells},
                (0, 2): {c: "r2" for c in cells},
                (1, 2): {c: "r" for c in cells},
            },
        )
        torsor, witnesses = glue_descent(data)
        for idx, cells_i in enumerate(pieces):
            sub = restrict_torsor(torsor, cells_i)
            gauged = gauge_transform(sub, witnesses[idx])
            assert all(v == "e" for v in gauged.transitions.values())

    def test_json_round_trip(self):
        base = circle_complex()
        arcs = (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"}))
        data = GlueData(base, group_s3(), arcs, {(0, 1): {"a0": "e", "a1": "(AB)"}})
        again = glue_data_from_json(glue_data_to_json(data))
        assert again.transitions == data.transitions
        assert again.pieces == data.pieces


class TestFamilyCorrespondence:
    def test_oriented_family_gives_trivial_torsor(self):
        fam, _ = fixture_remark25()
        pair = family_to_torsor_pair(fam)
        assert is_trivial(pair.torsor)
        assert set(pair.torsor.transitions.values()) == {"e"}
        # the equivariant map restricted to the reference sheet is the
        # classifying map of the oriented presentation
        m = classify_to_M(fam)
        for v in fam.base.vertices:
            assert pair.sheet_point(v, "e").astuple() == m.vertex_values[v]
        for g in trigeo.PERMS:
            # right action by g moves the point by the inverse relabeling
            got = pair.sheet_point("0", g)
            assert got == trigeo.act(trigeo.inverse(g), pair.vertex_refs["0"])

    def test_mobius_pair_has_twisted_monodromy(self):
        pair = family_to_torsor_pair(fixture_mobius())
        triv = is_trivial(pair.torsor)
        assert not triv and triv.monodromy == "(AB)"

    def test_triviality_matches_orientability(self):
        mob = fixture_mobius()
        pulled = pullback_family(double_cover_of_circle(mob), mob)
        for fam in (mob, pulled, fixture_remark25()[0]):
            assert bool(is_trivial(family_to_torsor_pair(fam).torsor)) == bool(is_orientable(fam))

    def test_round_trip_is_isomorphic(self):
        for fam in (fixture_mobius(), fixture_remark25()[0], fixture_remark25()[1]):
            back = torsor_pair_to_family(family_to_torsor_pair(fam))
            assert are_isomorphic(fam, back)

    def test_remark25_pairs_not_isomorphic(self):
        f, g = fixture_remark25()
        pf, pg = family_to_torsor_pair(f), family_to_torsor_pair(g)
        assert is_trivial(pf.torsor) and is_trivial(pg.torsor)
        assert not are_isomorphic(torsor_pair_to_family(pf), torsor_pair_to_family(pg))

    def test_isomorphic_families_give_gauge_isomorphic_pairs(self):
        from tristack.families import twist_family

        _, g = fixture_remark25()
        twisted = twist_family(g, "(ABC)")
        r = are_isomorphic(g, twisted)
        assert r
        p1, p2 = family_to_torsor_pair(g), family_to_torsor_pair(twisted)
        gauge = pair_gauge_from_family_iso(p1, p2, r.vertex_perms)
        maps = gauge_as_sheet_maps(p1.torsor, gauge)
        assert torsor_morphism_check(p1.torsor, p2.torsor, maps).ok

    def test_pair_json_round_trip(self):
        pair = family_to_torsor_pair(fixture_mobius())
        again = pair_from_json(pair_to_json(pair))
        assert again.vertex_refs == pair.vertex_refs
        assert again.torsor.transitions == pair.torsor.transitions

    def test_corrupted_equivariance_rejected(self):
        pair = family_to_torsor_pair(fixture_mobius())
        raw = pair_to_json(pair)
        raw["equivariant"]["v0"]["(AB)"] = raw["equivariant"]["v0"]["e"]
        with pytest.raises(InvalidPair):
            pair_from_json(raw)

    def test_orient_then_pair_stays_isomorphic(self):
        mob = fixture_mobius()
        pulled = pullback_family(double_cover_of_circle(mob), mob)
        oriented, _ = orient(pulled)
        assert are_isomorphic(
            torsor_pair_to_family(family_to_torsor_pair(pulled)),
            oriented,
        )


class TestGaugeIsomorphism:
    def test_finds_gauge_between_conjugate_cocycles(self):
        base = circle_complex()
        t1 = TorsorCocycle(base, group_s3(), {"e0": "e", "e1": "(AB)"})
        gauge = {"a0": "(ABC)", "a1": "(AC)"}
        t2 = gauge_transform(t1, gauge)
        found = find_gauge_isomorphism(t1, t2)
        assert found is not None
        assert gauge_transform(t1, found).transitions == t2.transitions

    def test_distinguishes_monodromy_classes(self):
        base = circle_complex()
        t1 = TorsorCocycle(base, group_s3(), {"e0": "e", "e1": "(AB)"})
        t2 = TorsorCocycle(base, group_s3(), {"e0": "e", "e1": "e"})
        assert find_gauge_isomorphism(t1, t2) is None

    def test_torsor_json_round_trip(self):
        base = triangle_complex()
        t = TorsorCocycle(base, group_z3(), {e: "r" for e in base.edges})
        again = torsor_from_json(torsor_to_json(t))
        assert again.transitions == t.transitions
        assert validate_torsor(again).ok
