import pytest

from tristack import grothendieck
from tristack.corpus import (
    elements_fibration,
    identity_endofunctor,
    site_chain,
    site_three_atoms,
    site_two_point_space,
    z2_category,
)
from tristack.descent import (
    CocycleFails,
    DescentDatum,
    FiniteSite,
    SiteError,
    Transport,
    all_effectiveness_witnesses,
    check_cocycle,
    comparison_datum,
    datum_from_json,
    datum_to_json,
    is_effective,
    site_from_json,
    site_to_json,
    stack_verdict,
    validate_site,
)
from tristack.fincat import PullbackSquare, category_to_json, interval_category, is_cartesian, lifts, slice_category
from tristack.grothendieck import (
    InvalidCleavage,
    default_cleavage,
    extract_pseudofunctor,
    strict_pseudofunctor,
    total_category,
)


def slice_transport(site):
    _, proj = slice_category(site.base, "X")
    return Transport(proj)


def z2_bundle_transport(site):
    """Total category of the constant Z/2-groupoid pseudo-functor over the base."""
    fib = z2_category()
    fibers = {x: fib for x in site.base.objects}
    pullbacks = {m: identity_endofunctor(fib) for m in site.base.morphisms}
    psf = strict_pseudofunctor(site.base, fibers, pullbacks)
    _, proj = total_category(psf)
    return Transport(proj)


def presheaf_transport(site, values, restrictions):
    _, proj = elements_fibration(site.base, values, restrictions)
    return Transport(proj)


def truncated_presheaf(site):
    """Matching pieces over u1, u2 with no global section over X."""
    values = {"X": [], "u1": ["a"], "u2": ["b"], "0": ["c"]}
    restrictions = {}
    for f in site.base.morphisms:
        a, b = site.base.src(f), site.base.tgt(f)
        restrictions[f] = {e: (e if a == b else {"u1": "a", "u2": "b", "0": "c"}[a]) for e in values[b]}
    return values, restrictions


def doubled_global_presheaf(site):
    """Two distinct globals with identical restrictions everywhere below."""
    values = {"X": ["e1", "e2"], "u1": ["c"], "u2": ["c"], "0": ["c"]}
    restrictions = {}
    for f in site.base.morphisms:
        a, b = site.base.src(f), site.base.tgt(f)
        if a == b:
            restrictions[f] = {e: e for e in values[b]}
        else:
            restrictions[f] = {e: "c" for e in values[b]}
    return values, restrictions


class TestValidateSite:
    def test_two_point_space_site_is_valid(self):
        assert validate_site(site_two_point_space()).ok

    def test_chain_site_is_valid(self):
        assert validate_site(site_chain(3)).ok

    def test_three_atom_site_is_valid(self):
        assert validate_site(site_three_atoms()).ok

    def test_missing_iso_singletons_fail_t1(self):
        good = site_two_point_space()
        coverings = {
            x: [f for f in fams if list(f) != [good.base.identity[x]]]
            for x, fams in good.coverings.items()
        }
        v = validate_site(FiniteSite(good.base, coverings))
        assert not v.ok and "T1" in v.reason

    def test_deleted_pulled_back_family_fails_t2(self):
        good = site_two_point_space()
        # the cover {u1<=X, u2<=X} pulls back along u1<=X to {id_u1, 0<=u1}
        coverings = {x: list(fams) for x, fams in good.coverings.items()}
        coverings["u1"] = [f for f in coverings["u1"] if set(f) != {"id_u1", "0<=u1"}]
        v = validate_site(FiniteSite(good.base, coverings))
        assert not v.ok and v.reason.startswith("T2")

    def test_json_round_trip(self):
        site = site_two_point_space()
        again = site_from_json(site_to_json(site))
        assert validate_site(again).ok
        assert again.coverings == site.coverings

    def test_missing_pullback_is_reported(self):
        from tristack.descent import MissingPullback
        from tristack.fincat import poset_category

        # cospan without a meet: the T2 check cannot restrict the covering
        base = poset_category([("a", "z"), ("b", "z")])
        coverings = {
            "z": [("a<=z", "b<=z"), ("id_z",)],
            "a": [("id_a",)],
            "b": [("id_b",)],
        }
        with pytest.raises(MissingPullback):
            validate_site(FiniteSite(base, coverings))


class TestPullbackTable:
    """``site_from_json`` checks each given square, naming the entry and the field."""

    @staticmethod
    def load(square, site=None):
        raw = site_to_json(site or site_two_point_space())
        raw["pullbacks"] = [{"f": "id_X", "g": "id_X", "apex": "X", "toLeft": "id_X", "toRight": "id_X"}, square]
        return site_from_json(raw)

    @pytest.mark.parametrize(
        "square, message",
        [
            ({"f": "u1<=X", "g": "u2<=X", "apex": "u1", "toLeft": "id_u1", "toRight": "id_u1"},
             "pullbacks[1].toRight: 'id_u1' is not an arrow u1 -> u2"),
            ({"f": "u1<=X", "g": "u2<=X", "apex": "0", "toLeft": "0<=u2", "toRight": "0<=u2"},
             "pullbacks[1].toLeft: '0<=u2' is not an arrow 0 -> u1"),
            ({"f": "u1<=X", "g": "u2<=X", "apex": "Y", "toLeft": "0<=u1", "toRight": "0<=u2"},
             "pullbacks[1].apex: 'Y' is not an object"),
            ({"f": "nope", "g": "u2<=X", "apex": "0", "toLeft": "0<=u1", "toRight": "0<=u2"},
             "pullbacks[1].f: 'nope' is not an arrow"),
            ({"f": "u1<=X", "g": ["u2<=X"], "apex": "0", "toLeft": "0<=u1", "toRight": "0<=u2"},
             "pullbacks[1].g: ['u2<=X'] is not an arrow"),
            ({"f": "u1<=X", "g": "0<=u2", "apex": "0", "toLeft": "0<=u1", "toRight": "id_0"},
             "pullbacks[1].g: '0<=u2' does not end where f does (X)"),
            ({"f": "u1<=X", "apex": "0", "toLeft": "0<=u1", "toRight": "0<=u2"},
             "pullbacks[1]: missing 'g'"),
            ({"f": "id_X", "g": "id_X", "apex": "u1", "toLeft": "u1<=X", "toRight": "u1<=X"},
             "pullbacks[1]: the square is not a pullback"),
            ("square", "pullbacks[1]: expected an object"),
        ],
    )
    def test_bad_square_names_entry_and_field(self, square, message):
        with pytest.raises(SiteError) as err:
            self.load(square)
        assert str(err.value) == message

    def test_square_that_does_not_commute(self):
        from tristack.fincat import group_category

        base = group_category(["e", "s"], {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"})
        raw = {"base": category_to_json(base), "coverings": {"*": [["id_*"]]},
               "pullbacks": [{"f": "id_*", "g": "id_*", "apex": "*", "toLeft": "id_*", "toRight": "g:s"}]}
        with pytest.raises(SiteError, match=r"^pullbacks\[0\]: the square does not commute$"):
            site_from_json(raw)
        raw["pullbacks"][0]["toLeft"] = "g:s"  # (s, s) commutes and is universal
        assert site_from_json(raw)._chosen == {("id_*", "id_*"): PullbackSquare("*", "g:s", "g:s")}

    def test_table_must_be_a_list(self):
        raw = site_to_json(site_two_point_space())
        raw["pullbacks"] = {"f": "id_X"}
        with pytest.raises(SiteError, match="pullbacks: expected a list of squares"):
            site_from_json(raw)

    def test_written_squares_read_back(self):
        site = site_three_atoms()
        assert validate_site(site).ok
        again = site_from_json(site_to_json(site))
        assert again._chosen == site._chosen and len(again._chosen) > 10


class TestComparisonDatum:
    def test_slice_fibration_has_identity_transitions(self):
        site = site_two_point_space()
        tr = slice_transport(site)
        fam = ("u1<=X", "u2<=X")
        e = next(iter(tr.fiber("X").objects))
        d = comparison_datum(site, tr, e, "X", fam)
        for (j, i), m in d.transitions.items():
            owner = next(f for f in tr.psf.fibers.values() if m in f.morphisms)
            assert owner.is_identity(m)

    def test_total_category_comparison_satisfies_cocycle(self):
        site = site_three_atoms()
        tr = z2_bundle_transport(site)
        fam = ("u1<=X", "u2<=X", "u3<=X")
        e = next(iter(tr.fiber("X").objects))
        d = comparison_datum(site, tr, e, "X", fam)
        assert check_cocycle(site, tr, d).ok

    def test_identity_covering_gives_trivial_datum(self):
        site = site_two_point_space()
        tr = slice_transport(site)
        e = sorted(tr.fiber("X").objects)[0]
        d = comparison_datum(site, tr, e, "X", ("id_X",))
        assert d.objects["id_X"] == tr.restrict_obj("id_X", e)
        fib = tr.fiber("X")
        assert all(fib.is_iso(m) for m in d.transitions.values())
        assert check_cocycle(site, tr, d).ok


class TestCheckCocycle:
    def test_involution_violates_triple_condition(self):
        site = site_three_atoms()
        tr = z2_bundle_transport(site)
        fam = ("u1<=X", "u2<=X", "u3<=X")
        star = {iota: sorted(tr.fiber(site.base.src(iota)).objects)[0] for iota in fam}
        s_mor = next(m for m in tr.fiber("0").morphisms if not tr.fiber("0").is_identity(m))
        ident = tr.fiber("0").identity[sorted(tr.fiber("0").objects)[0]]
        d = DescentDatum(
            "X",
            fam,
            star,
            {
                (fam[1], fam[0]): ident,
                (fam[2], fam[0]): ident,
                (fam[2], fam[1]): s_mor,
            },
        )
        v = check_cocycle(site, tr, d)
        assert not v.ok
        assert len(v.witness) == 3

    def test_all_identity_transitions_pass(self):
        site = site_three_atoms()
        tr = z2_bundle_transport(site)
        fam = ("u1<=X", "u2<=X", "u3<=X")
        star = {iota: sorted(tr.fiber(site.base.src(iota)).objects)[0] for iota in fam}
        ident = tr.fiber("0").identity[sorted(tr.fiber("0").objects)[0]]
        d = DescentDatum(
            "X", fam, star,
            {(j, i): ident for i in fam for j in fam if i < j},
        )
        assert check_cocycle(site, tr, d).ok

    def test_singleton_covering_vacuous(self):
        site = site_two_point_space()
        tr = slice_transport(site)
        e = sorted(tr.fiber("u1").objects)[0]
        d = DescentDatum("u1", ("id_u1",), {"id_u1": e}, {})
        assert check_cocycle(site, tr, d).ok


class TestIsEffective:
    def test_comparison_datum_recovers_object(self):
        site = site_two_point_space()
        tr = slice_transport(site)
        fam = ("u1<=X", "u2<=X")
        e = sorted(tr.fiber("X").objects)[0]
        d = comparison_datum(site, tr, e, "X", fam)
        got = is_effective(site, tr, d)
        assert got is not None
        obj, alphas = got
        assert obj == e
        assert set(alphas) == set(fam)

    def test_truncated_fiber_gives_absent(self):
        site = site_two_point_space()
        tr = presheaf_transport(site, *truncated_presheaf(site))
        fam = ("u1<=X", "u2<=X")
        d = DescentDatum("X", fam, {"u1<=X": "a@u1", "u2<=X": "b@u2"}, {})
        assert check_cocycle(site, tr, d).ok
        assert is_effective(site, tr, d) is None

    def test_cocycle_failure_is_gated(self):
        site = site_three_atoms()
        tr = z2_bundle_transport(site)
        fam = ("u1<=X", "u2<=X", "u3<=X")
        star = {iota: sorted(tr.fiber(site.base.src(iota)).objects)[0] for iota in fam}
        s_mor = next(m for m in tr.fiber("0").morphisms if not tr.fiber("0").is_identity(m))
        ident = tr.fiber("0").identity[sorted(tr.fiber("0").objects)[0]]
        d = DescentDatum(
            "X", fam, star,
            {(fam[1], fam[0]): ident, (fam[2], fam[0]): ident, (fam[2], fam[1]): s_mor},
        )
        with pytest.raises(CocycleFails):
            is_effective(site, tr, d)

    def test_witnesses_unique_up_to_isomorphism(self):
        site = site_two_point_space()
        tr = z2_bundle_transport(site)
        fam = ("u1<=X", "u2<=X")
        e = sorted(tr.fiber("X").objects)[0]
        d = comparison_datum(site, tr, e, "X", fam)
        witnesses = all_effectiveness_witnesses(site, tr, d)
        assert witnesses
        fib_x = tr.fiber("X")
        for obj, _ in witnesses:
            assert any(fib_x.is_iso(m) for m in fib_x.hom(obj, e))


class TestStackVerdict:
    def test_slice_fibration_is_a_stack(self):
        site = site_two_point_space()
        assert stack_verdict(site, slice_transport(site)).status == "stack"

    def test_z2_bundles_form_a_stack(self):
        site = site_two_point_space()
        assert stack_verdict(site, z2_bundle_transport(site)).status == "stack"

    def test_doubled_global_is_not_a_prestack(self):
        site = site_two_point_space()
        tr = presheaf_transport(site, *doubled_global_presheaf(site))
        v = stack_verdict(site, tr)
        assert v.status == "neither"

    def test_truncated_fiber_is_prestack_only(self):
        site = site_two_point_space()
        tr = presheaf_transport(site, *truncated_presheaf(site))
        v = stack_verdict(site, tr)
        assert v.status == "prestack-only"


class TestCleavageIndependence:
    """Changing the cleavage must not change any verdict."""

    def twisted_transport(self, site):
        from tristack.fincat import is_cartesian, lifts
        from tristack.grothendieck import default_cleavage

        fib = z2_category()
        fibers = {x: fib for x in site.base.objects}
        pullbacks = {m: identity_endofunctor(fib) for m in site.base.morphisms}
        psf = strict_pseudofunctor(site.base, fibers, pullbacks)
        _, proj = total_category(psf)
        cleav = default_cleavage(proj)
        flipped = 0
        for key in sorted(cleav):
            f, target = key
            others = [
                m
                for m in lifts(proj, f, target)
                if m != cleav[key] and is_cartesian(proj, m)
            ]
            if others and flipped < 3:
                cleav[key] = others[0]
                flipped += 1
        assert flipped
        return Transport(proj, cleav)

    def test_comparison_cocycle_survives_cleavage_change(self):
        site = site_three_atoms()
        tr = self.twisted_transport(site)
        fam = ("u1<=X", "u2<=X", "u3<=X")
        e = sorted(tr.fiber("X").objects)[0]
        d = comparison_datum(site, tr, e, "X", fam)
        assert check_cocycle(site, tr, d).ok
        assert is_effective(site, tr, d) is not None

    def test_stack_verdict_survives_cleavage_change(self):
        site = site_two_point_space()
        assert stack_verdict(site, self.twisted_transport(site)).status == "stack"


class TestTransportCleavage:
    """A transport proves its cleavage cartesian once: the least cleavage through
    ``is_fibered``, which picks only cartesian lifts; a given one through ``check_cleavage``."""

    def interval_bundles(self, site):
        fibers = {x: interval_category() for x in site.base.objects}
        pullbacks = {m: identity_endofunctor(fibers[site.base.src(m)]) for m in site.base.morphisms}
        return total_category(strict_pseudofunctor(site.base, fibers, pullbacks))[1]

    def counted_checks(self, monkeypatch):
        calls = []
        check = grothendieck.check_cleavage
        monkeypatch.setattr(grothendieck, "check_cleavage", lambda *args: calls.append(args) or check(*args))
        return calls

    def test_least_cleavage_is_not_checked_again(self, monkeypatch):
        calls = self.counted_checks(monkeypatch)
        site = site_two_point_space()
        for proj in (self.interval_bundles(site), slice_category(site.base, "X")[1]):
            tr = Transport(proj)
            assert tr.psf == extract_pseudofunctor(proj, default_cleavage(proj))
        assert len(calls) == 2  # the two explicit extractions above, none from Transport

    def test_given_cleavage_with_a_lift_that_is_not_cartesian(self, monkeypatch):
        calls = self.counted_checks(monkeypatch)
        proj = self.interval_bundles(site_two_point_space())
        cleavage = default_cleavage(proj)
        key, lift = next(
            (key, m) for key in sorted(cleavage) for m in lifts(proj, *key) if not is_cartesian(proj, m)
        )
        with pytest.raises(InvalidCleavage) as err:
            Transport(proj, {**cleavage, key: lift})
        assert err.value.args == (key,) and len(calls) == 1


class TestDatumCompletion:
    def test_missing_opposite_is_derived(self):
        site = site_two_point_space()
        tr = z2_bundle_transport(site)
        fam = ("u1<=X", "u2<=X")
        star = {iota: sorted(tr.fiber(site.base.src(iota)).objects)[0] for iota in fam}
        s_mor = next(m for m in tr.fiber("0").morphisms if not tr.fiber("0").is_identity(m))
        d = DescentDatum("X", fam, star, {(fam[1], fam[0]): s_mor})
        assert check_cocycle(site, tr, d).ok

    def test_json_round_trip(self):
        d = DescentDatum("X", ("a", "b"), {"a": "e1", "b": "e2"}, {("b", "a"): "m"})
        assert datum_from_json(datum_to_json(d)) == d
