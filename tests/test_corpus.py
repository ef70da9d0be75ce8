import random
import subprocess
import sys

from tristack import corpus, trigeo
from tristack.deform import validate_deformation
from tristack.descent import validate_site
from tristack.families import validate_family
from tristack.fincat import (
    fiber,
    functor_hom_over,
    is_fibered,
    is_groupoid,
    is_groupoid_fibration,
    slice_category,
    validate_functor,
)
from tristack.grothendieck import validate_pseudofunctor
from tristack.torsor import validate_torsor


class TestCategoryCorpus:
    def test_stock_groups_leave_the_family_machinery_out(self):
        code = "import sys; from tristack import corpus; corpus.z2_category(); corpus.z3_category(); " \
               "print(sorted(m for m in ('tristack.families', 'tristack.torsor') if m in sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_fibered_corpus_is_fibered_and_valid(self):
        funs = corpus.fibered_corpus(seed=5, n=40)
        for fun in funs:
            assert validate_functor(fun).ok
            assert is_fibered(fun).ok

    def test_corpus_has_both_groupoid_and_non_groupoid_instances(self):
        funs = corpus.fibered_corpus(seed=5, n=60)
        verdicts = {is_groupoid_fibration(f).ok for f in funs}
        assert verdicts == {True, False}

    def test_embedding_hom_counts_on_zoo(self):
        for name, cat in sorted(corpus.small_category_zoo().items()):
            if len(cat.morphisms) > 8:
                continue
            slices = {x: slice_category(cat, x)[1] for x in cat.objects}
            for x in cat.objects:
                for y in cat.objects:
                    over = functor_hom_over(cat, slices[x], slices[y])
                    assert len(over) == len(cat.hom(x, y)), (name, x, y)

    def test_pseudofunctor_corpus_valid(self):
        for p in corpus.pseudofunctor_corpus(seed=5, n=10):
            assert validate_pseudofunctor(p).ok

    def test_random_posets_are_categories(self):
        rng = random.Random(11)
        for _ in range(10):
            cat = corpus.random_poset(rng)
            assert len(cat.objects) <= 5
            assert is_groupoid(fiber(corpus.identity_endofunctor(cat), cat.objects[0]))


    def test_stock_groups_keep_their_ids_and_tables(self):
        from tristack.fincat import group_category

        z2 = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
        els = ["e", "r", "r2"]
        z3 = {(a, b): els[(els.index(a) + els.index(b)) % 3] for a in els for b in els}
        for got, want in (
            (corpus.z2_category(), group_category(["e", "s"], z2)),
            (corpus.z3_category(), group_category(els, z3, name="r")),
        ):
            assert list(got.morphisms.values()) == list(want.morphisms.values())
            assert list(got.table.items()) == list(want.table.items())
            assert got.identity == want.identity
        assert list(corpus.z3_category().morphisms) == ["id_*", "r:r", "r:r2"]


class TestSiteCorpus:
    def test_stock_sites_valid(self):
        for site in (corpus.site_two_point_space(), corpus.site_chain(3), corpus.site_three_atoms()):
            assert validate_site(site).ok


class TestTorsorCorpus:
    def test_bases_and_random_torsors(self):
        rng = random.Random(3)
        for base in corpus.simplicial_base_corpus(seed=3, n=20):
            for grp_name in ("Z2", "Z3", "S3"):
                from tristack.torsor import BUILTIN_GROUPS

                t = corpus.random_torsor(rng, base, BUILTIN_GROUPS[grp_name]())
                assert validate_torsor(t).ok


class TestFamilyCorpus:
    def test_families_validate(self):
        for fam in corpus.family_corpus(seed=9, n=20):
            assert validate_family(fam) is fam

    def test_random_triples_are_interior(self):
        rng = random.Random(13)
        for _ in range(200):
            t = corpus.random_interior_triple(rng)
            assert trigeo.in_M(t.astuple())


class TestDeformationCorpus:
    def test_deformations_validate(self):
        defs = corpus.deformation_corpus(seed=9, n=20)
        for d in defs:
            assert validate_deformation(d).ok
            assert trigeo.act(d.marking, d.triangle) == d.family.vertex_lengths["x0"]
        kinds = {trigeo.triangle_type(d.triangle) for d in defs}
        assert "isosceles" in kinds
