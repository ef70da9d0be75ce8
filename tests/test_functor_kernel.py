"""Differential tests of the functor search against brute-force oracles.

The oracles below are the three recursive backtracking searches the
library used before ``fincat.functors``: the functors over a base
(``functor_hom_over``), the first isomorphism of categories
(``find_category_isomorphism``) and every functor between two categories
(``corpus.all_functors``).  The same functors must come out in the same
order, with the same dict order in their object and arrow maps, on the
category zoo, seeded random posets, every slice pair, categories of
elements and hypothesis posets.
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tristack import corpus, descent
from tristack.fincat import (
    FinCat,
    Functor,
    Morphism,
    _object_profile,
    categories_isomorphic,
    discrete_category,
    fiber,
    find_category_isomorphism,
    functor_hom_over,
    poset_category,
    slice_category,
    validate_functor,
)
from tristack.grothendieck import extract_pseudofunctor, strict_pseudofunctor, total_category

# -- oracles ----------------------------------------------------------------------


def oracle_functor_hom_over(c: FinCat, f1: Functor, f2: Functor) -> list[Functor]:
    """All functors H with P2∘H = P1, found by backtracking search."""
    d1, d2 = f1.dom, f2.dom
    obj_candidates = {
        o: sorted(o2 for o2 in d2.objects if f2.obj_map[o2] == f1.obj_map[o])
        for o in d1.objects
    }
    results = []
    objs = sorted(d1.objects)
    non_identity = sorted(m for m in d1.morphisms if not d1.is_identity(m))

    def assign_morphisms(obj_map):
        mor_map = {d1.identity[o]: d2.identity[obj_map[o]] for o in objs}

        def backtrack(i):
            if i == len(non_identity):
                cand = Functor(d1, d2, dict(obj_map), dict(mor_map))
                if validate_functor(cand).ok:
                    results.append(cand)
                return
            m = non_identity[i]
            mm = d1.morphisms[m]
            for m2 in sorted(d2.hom(obj_map[mm.src], obj_map[mm.tgt])):
                if f2.mor_map[m2] != f1.mor_map[m]:
                    continue
                mor_map[m] = m2
                backtrack(i + 1)
                del mor_map[m]

        backtrack(0)

    for combo in itertools.product(*(obj_candidates[o] for o in objs)):
        assign_morphisms(dict(zip(objs, combo)))
    return results


def oracle_find_category_isomorphism(c: FinCat, d: FinCat) -> Functor | None:
    """Exhaustive search for an isomorphism of categories c -> d."""
    if len(c.objects) != len(d.objects) or len(c.morphisms) != len(d.morphisms):
        return None
    cp = {o: _object_profile(c, o) for o in c.objects}
    dp = {o: _object_profile(d, o) for o in d.objects}
    if sorted(cp.values()) != sorted(dp.values()):
        return None
    objs = sorted(c.objects)

    def extend_morphisms(obj_map):
        nonid = sorted(m for m in c.morphisms if not c.is_identity(m))
        mor_map = {c.identity[o]: d.identity[obj_map[o]] for o in objs}
        used = set(mor_map.values())

        def backtrack(i):
            if i == len(nonid):
                cand = Functor(c, d, dict(obj_map), dict(mor_map))
                return cand if validate_functor(cand).ok else None
            m = c.morphisms[nonid[i]]
            for m2 in sorted(d.hom(obj_map[m.src], obj_map[m.tgt])):
                if m2 in used or d.is_identity(m2):
                    continue
                mor_map[nonid[i]] = m2
                used.add(m2)
                got = backtrack(i + 1)
                if got is not None:
                    return got
                used.discard(m2)
                del mor_map[nonid[i]]
            return None

        return backtrack(0)

    for combo in itertools.permutations(sorted(d.objects)):
        obj_map = dict(zip(objs, combo))
        if any(cp[o] != dp[obj_map[o]] for o in objs):
            continue
        got = extend_morphisms(obj_map)
        if got is not None:
            return got
    return None


def oracle_all_functors(dom: FinCat, cod: FinCat, limit=None):
    """Every functor dom -> cod by backtracking (small categories only)."""
    objs = sorted(dom.objects)
    results = []
    non_identity = sorted(m for m in dom.morphisms if not dom.is_identity(m))

    def with_objects(obj_map):
        mor_map = {dom.identity[o]: cod.identity[obj_map[o]] for o in objs}

        def backtrack(i):
            if limit is not None and len(results) >= limit:
                return
            if i == len(non_identity):
                cand = Functor(dom, cod, dict(obj_map), dict(mor_map))
                if validate_functor(cand).ok:
                    results.append(cand)
                return
            m = dom.morphisms[non_identity[i]]
            for m2 in sorted(cod.hom(obj_map[m.src], obj_map[m.tgt])):
                mor_map[non_identity[i]] = m2
                backtrack(i + 1)
                del mor_map[non_identity[i]]

        backtrack(0)

    for combo in itertools.product(sorted(cod.objects), repeat=len(objs)):
        if limit is not None and len(results) >= limit:
            break
        with_objects(dict(zip(objs, combo)))
    return results


# -- comparisons ------------------------------------------------------------------


def key(fun):
    """Object and arrow maps with their dict order; None stays None."""
    if fun is None:
        return None
    return list(fun.obj_map.items()), list(fun.mor_map.items())


def keys(funs):
    return [key(f) for f in funs]


def assert_all_functors_agree(dom, cod):
    got = corpus.all_functors(dom, cod)
    assert keys(got) == keys(oracle_all_functors(dom, cod))
    for f in got:
        assert f.dom is dom and f.cod is cod


def assert_isomorphism_agrees(c, d):
    got = find_category_isomorphism(c, d)
    assert key(got) == key(oracle_find_category_isomorphism(c, d))
    assert categories_isomorphic(c, d) == (got is not None)


def assert_hom_over_agrees(c, f1, f2):
    assert keys(functor_hom_over(c, f1, f2)) == keys(oracle_functor_hom_over(c, f1, f2))


def relabelled(c: FinCat, rng: random.Random) -> FinCat:
    """A copy of c under fresh, shuffled object and arrow ids."""
    objs = list(c.objects)
    mors = list(c.morphisms)
    obj_name = dict(zip(objs, (f"x{k}" for k in rng.sample(range(10 * len(objs)), len(objs)))))
    mor_name = dict(zip(mors, (f"m{k}" for k in rng.sample(range(10 * len(mors)), len(mors)))))
    return FinCat(
        [obj_name[o] for o in objs],
        [Morphism(mor_name[m.id], obj_name[m.src], obj_name[m.tgt]) for m in c.morphisms.values()],
        {obj_name[o]: mor_name[i] for o, i in c.identity.items()},
        {(mor_name[g], mor_name[f]): mor_name[gf] for (g, f), gf in c.table.items()},
    )


def zoo():
    cats = dict(corpus.small_category_zoo())
    cats["empty"] = discrete_category([])
    cats["discrete3"] = discrete_category(["u", "v", "w"])
    return cats


def slices(c):
    return {x: slice_category(c, x)[1] for x in c.objects}


# -- tests ------------------------------------------------------------------------

HYPOTHESIS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def posets(draw, max_objects=4):
    n = draw(st.integers(1, max_objects))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return poset_category(pairs, objects=names)


class TestAgainstOracles:
    def test_zoo_pairs(self):
        cats = zoo()
        for a, b in itertools.product(sorted(cats), repeat=2):
            assert_all_functors_agree(cats[a], cats[b])
            assert_isomorphism_agrees(cats[a], cats[b])

    def test_zoo_against_relabelled_copies(self):
        rng = random.Random(7)
        for name, c in sorted(zoo().items()):
            for _ in range(3):
                d = relabelled(c, rng)
                assert_isomorphism_agrees(c, d)
                assert_isomorphism_agrees(d, c)
                assert find_category_isomorphism(c, d) is not None

    def test_seeded_random_posets(self):
        rng = random.Random(17)
        cats = [corpus.random_poset(rng, max_objects=4) for _ in range(8)]
        for c, d in itertools.product(cats, repeat=2):
            assert_all_functors_agree(c, d)
            assert_isomorphism_agrees(c, d)
        for c in cats:
            assert_isomorphism_agrees(c, relabelled(c, rng))

    def test_all_slice_pairs(self):
        rng = random.Random(23)
        cats = list(zoo().values()) + [corpus.random_poset(rng, max_objects=5) for _ in range(6)]
        for c in cats:
            projs = slices(c)
            for x, y in itertools.product(c.objects, repeat=2):
                assert_hom_over_agrees(c, projs[x], projs[y])

    def test_categories_of_elements(self):
        rng = random.Random(29)
        for _ in range(6):
            base = corpus.random_poset(rng, max_objects=4)
            projs = []
            for _ in range(3):
                summands = [rng.choice(base.objects) for _ in range(rng.randint(1, 2))]
                projs.append(corpus.elements_fibration(base, *corpus.sum_of_representables(base, summands))[1])
            for p1, p2 in itertools.product(projs, repeat=2):
                assert_hom_over_agrees(base, p1, p2)
                assert_isomorphism_agrees(p1.dom, p2.dom)

    def test_total_categories_and_roundtrip_fibers(self):
        rng = random.Random(31)
        for p in corpus.pseudofunctor_corpus(seed=3, n=8):
            total, proj = total_category(p)
            assert_isomorphism_agrees(total, relabelled(total, rng))
            # the questions grothendieck.roundtrip_check asks
            _, again = total_category(extract_pseudofunctor(proj))
            for s in p.base.objects:
                assert_isomorphism_agrees(fiber(proj, s), fiber(again, s))

    @HYPOTHESIS
    @given(posets(), posets())
    def test_hypothesis_posets(self, c, d):
        assert_all_functors_agree(c, d)
        assert_isomorphism_agrees(c, d)
        projs = slices(c)
        for x, y in itertools.product(c.objects, repeat=2):
            assert_hom_over_agrees(c, projs[x], projs[y])

    def test_limit(self):
        cats = zoo()
        for a, b in (("chain3", "diamond"), ("parallel", "parallel"), ("z3", "z3"), ("empty", "z2")):
            dom, cod = cats[a], cats[b]
            for limit in (0, 1, 2, 5, 1000, None):
                assert keys(corpus.all_functors(dom, cod, limit)) == keys(oracle_all_functors(dom, cod, limit))

    def test_no_non_identity_arrows(self):
        d3 = discrete_category(["u", "v", "w"])
        empty = discrete_category([])
        assert len(corpus.all_functors(d3, d3)) == 27
        assert len(corpus.all_functors(empty, d3)) == 1
        assert corpus.all_functors(d3, empty) == []
        assert key(find_category_isomorphism(d3, d3)) == ([("u", "u"), ("v", "v"), ("w", "w")],
                                                        [("id_u", "id_u"), ("id_v", "id_v"), ("id_w", "id_w")])


class TestNoRecursion:
    def test_twelve_hundred_parallel_arrows(self):
        arrows = [f"f{i:04d}" for i in range(1200)]
        morphisms = [Morphism("id_a", "a", "a"), Morphism("id_b", "b", "b")]
        morphisms += [Morphism(f, "a", "b") for f in arrows]
        table = {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b"}
        for f in arrows:
            table[(f, "id_a")] = f
            table[("id_b", f)] = f
        c = FinCat(["a", "b"], morphisms, {"a": "id_a", "b": "id_b"}, table, check=False)
        assert categories_isomorphic(c, c)
        iso = find_category_isomorphism(c, c)
        assert all(iso.mor_map[m] == m for m in c.morphisms)


class TestOneLayer:
    def test_corpus_names_are_the_fincat_ones(self):
        from tristack import fincat

        assert corpus.identity_endofunctor is fincat.identity_functor
        assert corpus.elements_fibration is fincat.elements_fibration


class TestEffectiveness:
    def test_first_witness_is_is_effective(self):
        cases = []
        for site in (corpus.site_two_point_space(), corpus.site_chain(3), corpus.site_three_atoms()):
            base = site.base
            top = "X" if "X" in base.objects else base.objects[-1]
            cases.append((site, slice_category(base, top)[1]))
            cases.append((site, corpus.elements_fibration(base, *corpus.constant_presheaf(base, ["a", "b"]))[1]))
            fib = corpus.z2_category()
            psf = strict_pseudofunctor(base, {x: fib for x in base.objects},
                                       {m: corpus.identity_endofunctor(fib) for m in base.morphisms})
            cases.append((site, total_category(psf)[1]))
        checked = 0
        for site, proj in cases:
            transport = descent.Transport(proj)
            for x in site.base.objects:
                for fam in site.families(x):
                    for datum in descent._all_descent_data(site, transport, x, fam):
                        if not descent.check_cocycle(site, transport, datum).ok:
                            continue
                        every = descent.all_effectiveness_witnesses(site, transport, datum)
                        first = descent.is_effective(site, transport, datum)
                        assert first == (every[0] if every else None)
                        checked += 1
        assert checked > 100
