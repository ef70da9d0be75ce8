import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tristack
from tristack import corpus, descent, families, grothendieck, torsor
from tristack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_right_triangle(self, capsys):
        code, out = run(capsys, "classify", "3/1", "4/1", "5/1")
        assert code == 0
        assert out.strip() == "in M; scalene; stabilizer {e}; N-representative (3,4,5)"

    def test_degenerate_exits_one(self, capsys):
        code, out = run(capsys, "classify", "1", "1", "2")
        assert code == 1 and "not in M" in out

    def test_bad_rational_exits_two(self, capsys):
        code, out = run(capsys, "classify", "1.5", "2", "3")
        assert code == 2 and "input error" in out

    def test_isosceles(self, capsys):
        code, out = run(capsys, "classify", "2", "2", "3")
        assert code == 0 and "isosceles" in out and "(BC)" in out


class TestDemos:
    def test_remark25(self, capsys):
        code, out = run(capsys, "demo-remark25")
        assert code == 0
        assert "same N-map: yes; isomorphic: no" in out
        assert "edge-1 forces e, edge-2 forces (AB), vertex 1/2 clash" in out

    def test_mobius(self, capsys):
        code, out = run(capsys, "demo-mobius")
        assert code == 0
        assert "orientable: no; monodromy: (AB)" in out


class TestFamilyIso:
    def test_self_iso(self, tmp_path, capsys):
        fam, _ = families.fixture_remark25()
        p = tmp_path / "f.json"
        families.save_family(fam, p)
        code, out = run(capsys, "family-iso", str(p), str(p))
        assert code == 0 and "isomorphic: yes" in out

    def test_remark25_pair(self, tmp_path, capsys):
        f, g = families.fixture_remark25()
        pf, pg = tmp_path / "f.json", tmp_path / "g.json"
        families.save_family(f, pf)
        families.save_family(g, pg)
        code, out = run(capsys, "family-iso", str(pf), str(pg))
        assert code == 1 and "isomorphic: no" in out

    def test_missing_file(self, capsys):
        code, out = run(capsys, "family-iso", "nope.json", "nope.json")
        assert code == 2 and "no such file" in out


class TestInternalError:
    def test_crash_exits_three_without_traceback(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "m.json"
        families.save_family(families.fixture_mobius(), p)

        def crash(fam):
            raise RuntimeError("kernel\nfailed")

        monkeypatch.setattr(families, "is_orientable", crash)
        code = main(["--json", str(tmp_path / "r.json"), "orientable", str(p)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: kernel failed\n"
        assert not (tmp_path / "r.json").exists()


class TestOrientable:
    def test_mobius_family_file(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        families.save_family(families.fixture_mobius(), p)
        code, out = run(capsys, "orientable", str(p))
        assert code == 1 and "monodromy: (AB)" in out

    def test_oriented_family_file(self, tmp_path, capsys):
        p = tmp_path / "f.json"
        families.save_family(families.fixture_remark25()[0], p)
        code, out = run(capsys, "orientable", str(p))
        assert code == 0 and "orientable: yes" in out


class TestSiteAndStack:
    def test_site_check(self, tmp_path, capsys):
        site = corpus.site_two_point_space()
        p = tmp_path / "site.json"
        with open(p, "w") as fh:
            json.dump(descent.site_to_json(site), fh)
        code, out = run(capsys, "site-check", str(p))
        assert code == 0

    def test_site_check_invalid(self, tmp_path, capsys):
        site = corpus.site_two_point_space()
        raw = descent.site_to_json(site)
        raw["coverings"]["X"] = [f for f in raw["coverings"]["X"] if f != ["id_X"]]
        p = tmp_path / "bad.json"
        with open(p, "w") as fh:
            json.dump(raw, fh)
        code, out = run(capsys, "site-check", str(p))
        assert code == 1 and "T1" in out

    def test_stack_check_slice(self, tmp_path, capsys):
        site = corpus.site_two_point_space()
        p = tmp_path / "in.json"
        with open(p, "w") as fh:
            json.dump(
                {"site": descent.site_to_json(site), "fibered": {"kind": "slice", "object": "X"}},
                fh,
            )
        code, out = run(capsys, "stack-check", str(p))
        assert code == 0 and "stack" in out

    def test_four_point_space(self, tmp_path, capsys):
        """The discrete 4-point space: 16 opens and 65,535 covering families, 64,594 of the whole space."""
        site = descent.site_to_json(corpus.site_discrete_space(4))
        p, q = tmp_path / "site.json", tmp_path / "stack.json"
        p.write_text(json.dumps(site))
        q.write_text(json.dumps({"site": site, "fibered": {"kind": "slice", "object": "u1234"}}))
        code, out = run(capsys, "site-check", str(p))
        assert (code, out) == (0, "site axioms T1-T3 hold\n")
        code, out = run(capsys, "stack-check", str(q))
        assert (code, out) == (0, "verdict: stack\n")

    def test_a_repeated_arrow_is_listed_once(self, tmp_path, capsys):
        """A family that lists an arrow twice is the family with it once, valid or not."""
        raw = descent.site_to_json(corpus.site_two_point_space())
        outs = []
        for extra in ([], ["u1<=X"]):
            for fam in (["u1<=X", "u2<=X"] + extra, ["0<=u1", "0<=u1"] + extra):
                for repeat in (False, True):
                    changed = json.loads(json.dumps(raw))
                    x = "X" if fam[0].endswith("X") else "u1"
                    changed["coverings"][x] = [f for f in changed["coverings"][x] if sorted(f) != sorted(set(fam))]
                    changed["coverings"][x].append(fam if repeat else sorted(set(fam)))
                    p = tmp_path / "site.json"
                    p.write_text(json.dumps(changed))
                    outs.append(run(capsys, "site-check", str(p)))
        assert outs[0::2] == outs[1::2]
        assert {code for code, _ in outs} == {0, 1}

    def test_stack_check_total_kind(self, tmp_path, capsys):
        from tristack.grothendieck import pseudofunctor_to_json, strict_pseudofunctor

        site = corpus.site_two_point_space()
        fib = corpus.z2_category()
        fibers = {x: fib for x in site.base.objects}
        pullbacks = {m: corpus.identity_endofunctor(fib) for m in site.base.morphisms}
        psf = strict_pseudofunctor(site.base, fibers, pullbacks)
        p = tmp_path / "in.json"
        with open(p, "w") as fh:
            json.dump(
                {
                    "site": descent.site_to_json(site),
                    "fibered": {"kind": "total", "pseudofunctor": pseudofunctor_to_json(psf)},
                },
                fh,
            )
        code, out = run(capsys, "stack-check", str(p))
        assert code == 0 and "stack" in out

    def test_stack_check_prestack_only(self, tmp_path, capsys):
        site = corpus.site_two_point_space()
        values = {"X": [], "u1": ["a"], "u2": ["b"], "0": ["c"]}
        restrictions = {}
        for f in site.base.morphisms:
            a, b = site.base.src(f), site.base.tgt(f)
            restrictions[f] = {
                e: (e if a == b else {"u1": "a", "u2": "b", "0": "c"}[a]) for e in values[b]
            }
        p = tmp_path / "in.json"
        with open(p, "w") as fh:
            json.dump(
                {
                    "site": descent.site_to_json(site),
                    "fibered": {"kind": "elements", "values": values, "restrictions": restrictions},
                },
                fh,
            )
        code, out = run(capsys, "stack-check", str(p))
        assert code == 1 and "prestack-only" in out

    def _site_without_meet(self, tmp_path):
        """Covering {a<=x, b<=x} of x, but a and b have no meet for T2 to pull back to."""
        from tristack.fincat import category_to_json, poset_category

        raw = {
            "base": category_to_json(poset_category([("a", "x"), ("b", "x")])),
            "coverings": {"x": [["a<=x", "b<=x"], ["id_x"]], "a": [["id_a"]], "b": [["id_b"]]},
        }
        p = tmp_path / "site.json"
        p.write_text(json.dumps(raw))
        return raw, p

    def test_site_check_missing_pullback_fails_t2(self, tmp_path, capsys):
        _, p = self._site_without_meet(tmp_path)
        report = tmp_path / "r.json"
        code = main(["--json", str(report), "site-check", str(p)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert "T2 fails: no pullback" in captured.out
        assert json.loads(report.read_text())["report"] == {
            "valid": False,
            "reason": "T2 fails: no pullback",
            "witness": ["x", ["a<=x", "b<=x"], "a<=x", "b<=x"],
        }

    def test_stack_check_missing_pullback_is_malformed_input(self, tmp_path, capsys):
        raw, _ = self._site_without_meet(tmp_path)
        p = tmp_path / "in.json"
        p.write_text(json.dumps({"site": raw, "fibered": {"kind": "slice", "object": "x"}}))
        code = main(["stack-check", str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert "site axioms fail: T2 fails: no pullback" in captured.out

    def _two_point_with_square(self, tmp_path, square):
        raw = descent.site_to_json(corpus.site_two_point_space())
        raw["pullbacks"] = [square]
        site, stack = tmp_path / "site.json", tmp_path / "in.json"
        site.write_text(json.dumps(raw))
        stack.write_text(json.dumps({"site": raw, "fibered": {"kind": "slice", "object": "X"}}))
        return site, stack

    def test_ill_typed_square_is_malformed_input(self, tmp_path, capsys):
        """The square apex u1, legs id_u1 and id_u1 over (u1<=X, u2<=X): its right leg misses u2."""
        square = {"f": "u1<=X", "g": "u2<=X", "apex": "u1", "toLeft": "id_u1", "toRight": "id_u1"}
        site, stack = self._two_point_with_square(tmp_path, square)
        for argv in (["site-check", str(site)], ["stack-check", str(stack)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.err == ""
            assert "pullbacks[0].toRight: 'id_u1' is not an arrow u1 -> u2" in captured.out

    def test_commuting_square_that_is_no_pullback_is_malformed_input(self, tmp_path, capsys):
        """Apex u1 with both legs u1<=X commutes over (id_X, id_X), but X does not factor through it."""
        square = {"f": "id_X", "g": "id_X", "apex": "u1", "toLeft": "u1<=X", "toRight": "u1<=X"}
        site, stack = self._two_point_with_square(tmp_path, square)
        for argv in (["site-check", str(site)], ["stack-check", str(stack)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.err == ""
            assert "pullbacks[0]: the square is not a pullback" in captured.out

    def test_given_pullback_table_is_accepted(self, tmp_path, capsys):
        """A validated site writes its chosen squares; reading them back keeps the verdicts."""
        site = corpus.site_two_point_space()
        assert descent.validate_site(site).ok
        raw = descent.site_to_json(site)
        assert raw["pullbacks"]
        p = tmp_path / "in.json"
        p.write_text(json.dumps({"site": raw, "fibered": {"kind": "slice", "object": "X"}}))
        assert main(["stack-check", str(p)]) == 0
        assert "verdict: stack" in capsys.readouterr().out


class TestMalformedCoverings:
    """A covering table of the wrong shape, or naming no arrow, is malformed input, not a verdict."""

    CASES = [
        pytest.param({"X": "id_X"}, "coverings.X: expected a list of families", id="string"),
        pytest.param({"X": ["id_X"]}, "coverings.X[0]: expected a list of arrows", id="flat"),
        pytest.param({"X": [["nope"]]}, "coverings.X[0][0]: 'nope' is not an arrow", id="unknown-arrow"),
        pytest.param({"X": [["id_X", 5]]}, "coverings.X[0][1]: 5 is not an arrow", id="number"),
        pytest.param([["id_X"]], "coverings: expected an object", id="list"),
        pytest.param(None, "missing 'coverings'", id="missing"),
    ]

    @pytest.mark.parametrize("coverings, message", CASES)
    def test_exits_two_naming_the_field(self, tmp_path, capsys, coverings, message):
        raw = descent.site_to_json(corpus.site_two_point_space())
        if coverings is None:
            del raw["coverings"]
        else:
            raw["coverings"] = coverings
        site, stack = tmp_path / "site.json", tmp_path / "in.json"
        site.write_text(json.dumps(raw))
        stack.write_text(json.dumps({"site": raw, "fibered": {"kind": "slice", "object": "X"}}))
        for argv in (["site-check", str(site)], ["stack-check", str(stack)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.err == ""
            assert message in captured.out and "Traceback" not in captured.out

    def test_site_not_an_object_exits_two(self, tmp_path, capsys):
        p = tmp_path / "in.json"
        p.write_text(json.dumps({"site": [1], "fibered": {"kind": "slice", "object": "X"}}))
        code = main(["stack-check", str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert "site: expected an object" in captured.out

    def test_arrow_into_the_wrong_object_stays_a_verdict(self, tmp_path, capsys):
        raw = descent.site_to_json(corpus.site_two_point_space())
        raw["coverings"]["X"].append(["id_u1"])
        p = tmp_path / "site.json"
        p.write_text(json.dumps(raw))
        code, out = run(capsys, "site-check", str(p))
        assert code == 1 and "covering arrow has wrong target" in out


class TestGrothRoundtrip:
    def test_twisted_cocycle_file(self, tmp_path, capsys):
        p = corpus.cocycle_pseudofunctor("Z2", "Z2", {("g:s", "g:s"): "g:s"})
        path = tmp_path / "psf.json"
        with open(path, "w") as fh:
            json.dump(grothendieck.pseudofunctor_to_json(p), fh)
        code, out = run(capsys, "groth-roundtrip", str(path))
        assert code == 0
        assert "canonical lifts cartesian: yes" in out
        assert "fiberwise round-trip: yes" in out

    def test_invalid_pseudofunctor_exits_one(self, tmp_path, capsys):
        bad = corpus.cocycle_pseudofunctor("Z3", "Z2", {("r:r", "r:r"): "g:s"})
        path = tmp_path / "bad.json"
        with open(path, "w") as fh:
            json.dump(grothendieck.pseudofunctor_to_json(bad), fh)
        code, out = run(capsys, "groth-roundtrip", str(path))
        assert code == 1 and "invalid" in out


class TestDescentGlue:
    def glue_file(self, tmp_path, data):
        p = tmp_path / "glue.json"
        with open(p, "w") as fh:
            json.dump(torsor.glue_data_to_json(data), fh)
        return p

    def test_circle_glue(self, tmp_path, capsys):
        base = corpus.circle_base(2)
        arcs = (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"}))
        data = torsor.GlueData(
            base, torsor.group_s3(), arcs, {(0, 1): {"a0": "(ABC)", "a1": "(AB)"}}
        )
        code, out = run(capsys, "descent-glue", str(self.glue_file(tmp_path, data)))
        assert code == 0 and "monodromy" in out

    def test_cocycle_failure(self, tmp_path, capsys):
        base = corpus.triangle_base()
        pieces = torsor.star_cover(base)
        cells = base.cells()
        data = torsor.GlueData(
            base,
            torsor.group_z2(),
            pieces,
            {
                (0, 1): {c: "s" for c in cells},
                (0, 2): {c: "s" for c in cells},
                (1, 2): {c: "s" for c in cells},
            },
        )
        code, out = run(capsys, "descent-glue", str(self.glue_file(tmp_path, data)))
        assert code == 1 and "rejected" in out


class TestCoarseCheck:
    def test_perimeter_factors(self, capsys):
        code, out = run(capsys, "coarse-check", "perimeter", "--corpus-size", "6")
        assert code == 0 and "factors" in out

    def test_ycoord_fails(self, capsys):
        code, out = run(capsys, "coarse-check", "ycoord", "--corpus-size", "6")
        assert code == 1

    def test_unknown_invariant(self, capsys):
        code, out = run(capsys, "coarse-check", "volume")
        assert code == 2


class TestInputContract:
    """Malformed input exits 2 with one message, never 3 or a traceback."""

    FILE_COMMANDS = [
        ["site-check", "{f}"],
        ["stack-check", "{f}"],
        ["groth-roundtrip", "{f}"],
        ["descent-glue", "{f}"],
        ["family-iso", "{f}", "{f}"],
        ["orientable", "{f}"],
        ["coarse-check", "perimeter", "--families", "{f}"],
    ]

    @pytest.mark.parametrize("top", ["5", "[1]", '"x"', "null"])
    @pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
    def test_top_level_not_an_object_exits_two(self, tmp_path, capsys, argv, top):
        p = tmp_path / "in.json"
        p.write_text(top + "\n")
        code = main([a.format(f=p) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert "expected a JSON object at the top level" in captured.out
        assert "Traceback" not in captured.out + captured.err and captured.err == ""

    def test_fibered_not_an_object_exits_two(self, tmp_path, capsys):
        p = tmp_path / "in.json"
        p.write_text(json.dumps({"site": descent.site_to_json(corpus.site_two_point_space()), "fibered": 3}))
        code, out = run(capsys, "stack-check", str(p))
        assert code == 2 and "fibered: expected a JSON object" in out

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_corpus_size_below_one_exits_two(self, capsys, size):
        code, out = run(capsys, "coarse-check", "perimeter", "--corpus-size", size)
        assert code == 2 and "--corpus-size must be >= 1" in out

    def assert_malformed(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.rstrip().endswith(message)
        assert "Traceback" not in captured.out + captured.err and captured.err == ""

    @staticmethod
    def family_breakages():
        def vertex_without_id(raw):
            del raw["vertices"][0]["id"]

        def edge_without_chart(raw):
            del raw["edges"][0]["chart"]

        def point_without_time(raw):
            del raw["edges"][0]["chart"][1]["t"]

        return [
            (vertex_without_id, "vertices[0]: missing 'id'"),
            (edge_without_chart, "edges[0]: missing 'chart'"),
            (point_without_time, "edges[0].chart[1]: missing 't'"),
            (lambda raw: raw.pop("edges"), "missing 'edges'"),
            (lambda raw: raw.update(vertices="x"), "vertices: expected a list"),
            (lambda raw: raw["vertices"].__setitem__(0, 5), "vertices[0]: expected an object"),
            (lambda raw: raw["edges"][0].update(chart={}), "edges[0].chart: expected a list"),
            (lambda raw: raw["vertices"][0].update(id=["v"]), "vertices[0].id: expected a string"),
        ]

    @pytest.mark.parametrize("command", ["orientable", "family-iso", "coarse-check"])
    def test_family_fields_are_named(self, tmp_path, capsys, command):
        for breakage, message in self.family_breakages():
            raw = families.family_to_json(families.fixture_remark25()[0])
            breakage(raw)
            p = tmp_path / "f.json"
            p.write_text(json.dumps(raw))
            argv = {"orientable": [str(p)], "family-iso": [str(p), str(p)],
                    "coarse-check": ["perimeter", "--families", str(p)]}[command]
            self.assert_malformed(capsys, [command, *argv], f"{p}: {message}")

    @pytest.mark.parametrize("broken, message", [
        (lambda cat: {k: v for k, v in cat.items() if k != "compose"}, "missing 'compose'"),
        (lambda cat: {k: v for k, v in cat.items() if k != "objects"}, "missing 'objects'"),
        (lambda cat: 5, "expected an object"),
        (lambda cat: [cat["objects"], cat["morphisms"], cat["identities"], cat["compose"]], "expected an object"),
    ], ids=["no-compose", "no-objects", "number", "list"])
    def test_category_fields_are_named(self, tmp_path, capsys, broken, message):
        p = tmp_path / "in.json"
        site = descent.site_to_json(corpus.site_two_point_space())
        p.write_text(json.dumps({**site, "base": broken(site["base"])}))
        self.assert_malformed(capsys, ["site-check", str(p)], f"{p}: {message}")
        psf = grothendieck.pseudofunctor_to_json(corpus.cocycle_pseudofunctor("Z2", "Z2", {}))
        p.write_text(json.dumps({**psf, "base": broken(psf["base"])}))
        self.assert_malformed(capsys, ["groth-roundtrip", str(p)], f"{p}: {message}")
        fibers = {S: broken(cat) for S, cat in psf["fibers"].items()}
        p.write_text(json.dumps({**psf, "fibers": fibers}))
        self.assert_malformed(capsys, ["groth-roundtrip", str(p)], f"{p}: {message}")


    def test_category_entries_are_named(self, tmp_path, capsys):
        site = descent.site_to_json(corpus.site_two_point_space())
        cases = [
            (lambda cat: cat.update(morphisms=["a", "b"]), "morphisms[0]: expected an object"),
            (lambda cat: cat["morphisms"][1].pop("src"), "morphisms[1]: missing 'src'"),
            (lambda cat: cat["compose"].__setitem__(0, ["a"]), "compose[0]: expected [g, f, gf]"),
            (lambda cat: cat.update(identities=[]), "identities: expected an object"),
            (lambda cat: cat.update(objects=5), "objects: expected a list"),
            (lambda cat: cat["objects"].__setitem__(0, 1), "objects[0]: expected a string"),
            (lambda cat: cat["identities"].pop("X"), "identities: missing 'X'"),
            (lambda cat: cat["identities"].update(X="X<=X"), "identities.X: 'X<=X' is not an arrow X -> X"),
            (lambda cat: cat["identities"].update(X="u1<=X"), "identities.X: 'u1<=X' is not an arrow X -> X"),
        ]
        for breakage, message in cases:
            raw = json.loads(json.dumps(site))
            breakage(raw["base"])
            p = tmp_path / "site.json"
            p.write_text(json.dumps(raw))
            self.assert_malformed(capsys, ["site-check", str(p)], f"{p}: {message}")
            p.write_text(json.dumps({"site": raw, "fibered": {"kind": "slice", "object": "X"}}))
            self.assert_malformed(capsys, ["stack-check", str(p)], f"{p}: site: {message}")

    def test_descriptor_fields_are_named(self, tmp_path, capsys):
        site = corpus.site_two_point_space()
        values = {x: ["a"] for x in site.base.objects}
        restrictions = {f: {"a": "a"} for f in site.base.morphisms}
        f0 = sorted(site.base.morphisms)[0]
        cases = [
            ({"kind": "elements", "values": values}, "fibered: missing 'restrictions'"),
            ({"kind": "elements", "restrictions": restrictions}, "fibered: missing 'values'"),
            ({"kind": "elements", "values": values, "restrictions": []}, "fibered.restrictions: expected an object"),
            ({"kind": "elements", "values": {}, "restrictions": restrictions}, "fibered.values: missing '0'"),
            ({"kind": "elements", "values": values, "restrictions": {**restrictions, f0: {}}},
             f"fibered.restrictions.{f0}: missing 'a'"),
            ({"kind": "slice"}, "fibered: missing 'object'"),
            ({"kind": "total"}, "fibered: missing 'pseudofunctor'"),
        ]
        p = tmp_path / "in.json"
        for fibered, message in cases:
            p.write_text(json.dumps({"site": descent.site_to_json(site), "fibered": fibered}))
            self.assert_malformed(capsys, ["stack-check", str(p)], f"{p}: {message}")

    @staticmethod
    def glue_breakages():
        return [
            (lambda raw: raw.pop("base"), "missing 'base'"),
            (lambda raw: raw.pop("group"), "missing 'group'"),
            (lambda raw: raw.pop("pieces"), "missing 'pieces'"),
            (lambda raw: raw.pop("transitions"), "missing 'transitions'"),
            (lambda raw: raw["base"]["edges"][0].pop("from"), "base.edges[0]: missing 'from'"),
            (lambda raw: raw.update(group="Q8"), "group: 'Q8' is not one of S3, Z2, Z3"),
            (lambda raw: raw.update(group={"elements": ["e"]}), "group: missing 'mul'"),
            (lambda raw: raw.update(pieces=[5]), "pieces[0]: expected a list of cells"),
            (lambda raw: raw["pieces"][0].__setitem__(0, ["a0"]), "pieces[0][0]: expected a string"),
            (lambda raw: raw["transitions"][0].pop("cells"), "transitions[0]: missing 'cells'"),
            (lambda raw: raw["transitions"][0].update(cells=5), "transitions[0].cells: expected an object"),
        ]

    def test_glue_fields_are_named(self, tmp_path, capsys):
        data = torsor.GlueData(
            corpus.circle_base(2), torsor.group_s3(),
            (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"})),
            {(0, 1): {"a0": "(ABC)", "a1": "(AB)"}},
        )
        p = tmp_path / "g.json"
        for breakage, message in self.glue_breakages():
            raw = torsor.glue_data_to_json(data)
            breakage(raw)
            p.write_text(json.dumps(raw))
            self.assert_malformed(capsys, ["descent-glue", str(p)], f"{p}: {message}")

    def test_pseudofunctor_fields_are_named(self, tmp_path, capsys):
        psf = grothendieck.pseudofunctor_to_json(corpus.cocycle_pseudofunctor("Z2", "Z2", {}))
        f0 = next(iter(psf["pullbacks"]))
        cases = [(lambda raw, key=key: raw.pop(key), f"missing {key!r}")
                 for key in ("base", "fibers", "pullbacks", "alpha", "epsilon")]
        cases += [
            (lambda raw: raw.update(fibers={}), "fibers: missing '*'"),
            (lambda raw: raw["pullbacks"][f0].pop("onObjects"), f"pullbacks.{f0}: missing 'onObjects'"),
            (lambda raw: raw["alpha"][0].pop("components"), "alpha[0]: missing 'components'"),
        ]
        p = tmp_path / "psf.json"
        for breakage, message in cases:
            raw = json.loads(json.dumps(psf))
            breakage(raw)
            p.write_text(json.dumps(raw))
            self.assert_malformed(capsys, ["groth-roundtrip", str(p)], f"{p}: {message}")

    def test_pair_and_deformation_loaders_name_the_field(self):
        from tristack import deform

        pair = torsor.pair_to_json(torsor.family_to_torsor_pair(families.fixture_mobius()))
        v = next(iter(pair["equivariant"]))
        for breakage, message in [
            (lambda raw: raw.pop("equivariant"), "missing 'equivariant'"),
            (lambda raw: raw["equivariant"][v].pop("(AB)"), f"equivariant.{v}: missing '(AB)'"),
            (lambda raw: raw.update(charts=[]), "charts: expected an object"),
            (lambda raw: raw.pop("glueTo"), "missing 'glueTo'"),
            (lambda raw: raw.pop("base"), "missing 'base'"),
        ]:
            raw = json.loads(json.dumps(pair))
            breakage(raw)
            with pytest.raises(torsor.TorsorError) as err:
                torsor.pair_from_json(raw)
            assert str(err.value) == message
        d = deform.deformation_to_json(corpus.deformation_corpus(seed=1, n=1)[0])
        for key in ("triangle", "basepoint"):
            raw = {k: v for k, v in d.items() if k != key}
            with pytest.raises(families.FamilyError, match=f"^missing '{key}'$"):
                deform.deformation_from_json(raw)

    @staticmethod
    def circle_glue():
        return torsor.GlueData(
            corpus.circle_base(2), torsor.group_s3(),
            (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"})),
            {(0, 1): {"a0": "(ABC)", "a1": "(AB)"}},
        )

    def test_glue_value_outside_the_group_is_a_verdict(self, tmp_path, capsys):
        raw = torsor.glue_data_to_json(self.circle_glue())
        raw["transitions"][0]["cells"]["a0"] = "zz"
        p = tmp_path / "g.json"
        p.write_text(json.dumps(raw))
        code, out = run(capsys, "descent-glue", str(p))
        assert code == 1
        assert out.strip() == "rejected: cocycle fails at (('transition not a group element', 0, 1, 'a0'),)"

    def test_star_cover_table_outside_the_group_is_a_verdict(self, tmp_path, capsys):
        base = corpus.circle_base(3)
        glued = torsor.TorsorCocycle(base, torsor.group_s3(), dict.fromkeys(base.edges, "e"))
        raw = torsor.glue_data_to_json(corpus.glue_data_from_torsor(glued))
        table = raw["transitions"][-1]
        table["cells"] = dict.fromkeys(table["cells"], "zz")
        p = tmp_path / "g.json"
        p.write_text(json.dumps(raw))
        code, out = run(capsys, "--json", str(tmp_path / "r.json"), "descent-glue", str(p))
        assert code == 1 and "transition not a group element" in out
        report = json.loads((tmp_path / "r.json").read_text())["report"]
        cell = next(iter(table["cells"]))
        assert report["witness"] == [["transition not a group element", table["i"], table["j"], cell]]

    @pytest.mark.parametrize("path", [("pullbacks", "g:s", "onMorphisms", "g:s"), ("alpha", 0, "components", "*")])
    def test_pseudofunctor_entry_that_is_no_id_is_a_verdict(self, tmp_path, capsys, path):
        raw = grothendieck.pseudofunctor_to_json(corpus.cocycle_pseudofunctor("Z2", "Z2", {}))
        table = raw
        for key in path[:-1]:
            table = table[key]
        table[path[-1]] = [table[path[-1]]]
        p = tmp_path / "psf.json"
        p.write_text(json.dumps(raw))
        code, out = run(capsys, "groth-roundtrip", str(p))
        assert code == 1 and out.startswith("pseudo-functor invalid: ")

    def test_overlong_number_exits_two(self, capsys):
        self.assert_malformed(capsys, ["classify", "1", "1", "9" * 5000], "has too many digits")


class TestPlotData:
    def test_csv_header_and_regions(self, capsys):
        code, out = run(capsys, "plot-data", "--denominator", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,z,region"
        regions = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert regions == {"outside", "boundary", "M", "N", "N'"}
        # the equilateral slice point is the sorted non-strict representative
        assert "2/3,2/3,2/3,N" in lines
        # the scaled right triangle is sorted and strict
        assert "1/2,2/3,5/6,N'" in lines

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "plot.csv"
        code, out = run(capsys, "plot-data", "--denominator", "3", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("x,y,z,region\n")


def glue_with_several_failing_cells():
    """Glue data over a 4-cycle whose two pieces are the whole base, (AB) on every edge and
    e on every vertex: every edge fails, and the first one named must not depend on hashing."""
    base = corpus.circle_base(4)
    cells = frozenset(base.cells())
    table = {c: "(AB)" if c in base.edges else "e" for c in sorted(cells)}
    return torsor.GlueData(base, torsor.group_s3(), (cells, cells), {(0, 1): table})


class TestMachineReports:
    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1, _ = run(capsys, "--json", str(p1), "classify", "3", "4", "5")
        with open(p1) as fh:
            echoed = json.load(fh)["command"]
        code2, _ = run(capsys, "--json", str(p2), *echoed)
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_echo_drops_exactly_the_json_tokens(self, tmp_path, capsys):
        """A report path that is also an input stays in the echo; only the --json tokens go."""
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        for p in (f, g):
            p.write_text(json.dumps(families.family_to_json(families.fixture_remark25()[0])))
        run(capsys, "--json", str(g), "family-iso", str(f), str(g))
        assert json.loads(g.read_text())["command"] == ["family-iso", str(f), str(g)]
        run(capsys, "--seed", "3", "--json=" + str(f), "--json", str(g), "demo-mobius")
        assert json.loads(g.read_text())["command"] == ["--seed", "3", "demo-mobius"]

    def test_joined_and_spaced_json_give_the_same_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(capsys, f"--json={p1}", "demo-mobius")[0] == run(capsys, "--json", str(p2), "demo-mobius")[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["--seed", "3", "--json", "{r}", "coarse-check", "--corpus-size=4", "spread"],
        ["--json={r}", "plot-data", "--out", "{csv}", "--denominator", "3"],
        ["--json", "{r}", "classify", "--", "3", "4", "-5"],
    ])
    def test_the_echoed_command_reproduces_the_report(self, tmp_path, capsys, argv):
        first, again, csv = tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "slice.csv"
        code = run(capsys, *(a.format(r=first, csv=csv) for a in argv))[0]
        echoed = json.loads(first.read_text())["command"]
        assert run(capsys, "--json", str(again), *echoed)[0] == code
        assert first.read_bytes() == again.read_bytes()

    def test_an_abbreviated_json_writes_nothing(self, tmp_path, capsys):
        code, out = run(capsys, "--js", str(tmp_path / "r3.json"), "demo-mobius")
        assert code == 2 and out.startswith("input error: unknown option --js ")
        assert list(tmp_path.iterdir()) == []

    def test_reports_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Every subcommand in its own process under two string hash seeds: the same
        --json bytes.  An in-process rerun shares one seed, so it cannot see this."""
        site = descent.site_to_json(corpus.site_three_atoms())
        circle = torsor.GlueData(
            corpus.circle_base(2), torsor.group_s3(),
            (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"})),
            {(0, 1): {"a0": "(ABC)", "a1": "(AB)"}},
        )
        inputs = {
            "family": families.family_to_json(families.fixture_remark25()[0]),
            "glue": torsor.glue_data_to_json(circle),
            "cells": torsor.glue_data_to_json(glue_with_several_failing_cells()),
            "psf": grothendieck.pseudofunctor_to_json(corpus.cocycle_pseudofunctor("Z2", "Z2", {})),
            "site": site,
            "stack": {"site": site, "fibered": {"kind": "slice", "object": "X"}},
        }
        paths = {}
        for name, raw in inputs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(raw))
        for argv in [argv for argv, _ in SUBCOMMAND_LAYERS] + [["descent-glue", "{cells}"]]:
            args = [a.format(**paths) for a in argv]
            reports = []
            for seed in ("1", "2"):
                out = tmp_path / f"report-{seed}.json"
                proc = subprocess.run(
                    [sys.executable, "-m", "tristack", "--json", str(out), *args],
                    env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True, text=True,
                )
                assert proc.returncode in (0, 1), proc.stderr
                reports.append(out.read_bytes())
            assert reports[0] == reports[1], argv

    def test_report_contents(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        run(capsys, "--json", str(p), "demo-remark25")
        with open(p) as fh:
            payload = json.load(fh)
        assert payload["exit"] == 0
        assert payload["report"]["sameNMap"] is True
        assert payload["report"]["isomorphic"] is False


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tristack", "classify", "2", "2", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "equilateral" in proc.stdout


def test_cli_import_leaves_the_test_generators_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tristack.cli; print('tristack.corpus' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Each subcommand imports only the layers it calls: the modules of the
# package that one run leaves in sys.modules, beside the CLI and the record base.
TRIGEO = {"tristack.trigeo"}
FAMILY = TRIGEO | {"tristack.families"}
GLUE = FAMILY | {"tristack.groups", "tristack.torsor"}
CATEGORY = {"tristack.fincat", "tristack.grothendieck"}
SITE = CATEGORY | {"tristack.descent"}

SUBCOMMAND_LAYERS = [
    (["classify", "3", "4", "5"], TRIGEO),
    (["plot-data", "--denominator", "3"], TRIGEO),
    (["family-iso", "{family}", "{family}"], FAMILY),
    (["orientable", "{family}"], FAMILY),
    (["coarse-check", "perimeter", "--families", "{family}"], FAMILY),
    (["coarse-check", "perimeter", "--corpus-size", "3"], FAMILY | SITE | {"tristack.corpus", "tristack.groups"}),
    (["demo-remark25"], FAMILY),
    (["demo-mobius"], FAMILY),
    (["descent-glue", "{glue}"], GLUE),
    (["groth-roundtrip", "{psf}"], CATEGORY),
    (["site-check", "{site}"], SITE),
    (["stack-check", "{stack}"], SITE),
]

LOADED = """
import json, sys
from tristack.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "stdlib": [m for m in ("argparse", "dataclasses", "shutil") if m in sys.modules],
                  "modules": sorted(m for m in sys.modules if m.startswith("tristack"))}))
"""


@pytest.mark.parametrize("argv, layers", SUBCOMMAND_LAYERS,
                         ids=[argv[0] + ("-corpus" if "--corpus-size" in argv else "") for argv, _ in SUBCOMMAND_LAYERS])
def test_each_subcommand_imports_only_its_layers(tmp_path, argv, layers):
    site = descent.site_to_json(corpus.site_two_point_space())
    circle = torsor.GlueData(
        corpus.circle_base(2), torsor.group_s3(),
        (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"})),
        {(0, 1): {"a0": "(ABC)", "a1": "(AB)"}},
    )
    inputs = {
        "family": families.family_to_json(families.fixture_remark25()[0]),
        "glue": torsor.glue_data_to_json(circle),
        "psf": grothendieck.pseudofunctor_to_json(corpus.cocycle_pseudofunctor("Z2", "Z2", {})),
        "site": site,
        "stack": {"site": site, "fibered": {"kind": "slice", "object": "X"}},
    }
    paths = {}
    for name, raw in inputs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(raw))
    # -S: the site hooks of an installed interpreter may load shutil themselves
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED, *(a.format(**paths) for a in argv)],
        env=dict(os.environ, PYTHONPATH=str(Path(tristack.__file__).parents[1])),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["code"] in (0, 1)
    assert set(loaded["modules"]) == {"tristack", "tristack.cli", "tristack.records"} | layers
    assert loaded["stdlib"] == []
