import json
import subprocess
import sys


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


class TestMachineReports:
    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1, _ = run(capsys, "--json", str(p1), "classify", "3", "4", "5")
        with open(p1) as fh:
            echoed = json.load(fh)["command"]
        code2, _ = run(capsys, "--json", str(p2), *echoed)
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()

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
