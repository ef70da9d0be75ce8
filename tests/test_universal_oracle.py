"""Universal arrows through factorization tables, against the counts they replaced.

The oracles below are the library's searches from before one
factorization table served every universal property, kept verbatim:
``is_cartesian`` and ``_factors_uniquely`` counted the arrows that factor
each cone, ``grothendieck._unique_factor`` and ``descent._mediating``
scanned a hom-set for the one arrow with the wanted composites, and
``check_cleavage`` walked ``_cleavage_domain``.  The table form asks the
same question as a bijection, h' ↦ (f'∘h', F(h')) onto the cones, which
equals the count only when F(f'∘h') = F(f')∘F(h'); so every functor here
is a validated one.  Equal means the same booleans, the same chosen
squares, lifts and pseudo-functors, and the same error types and
arguments.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tristack import corpus, descent, fincat
from tristack.descent import FiniteSite, MissingPullback, Transport
from tristack.fincat import (
    FibrationVerdict,
    FinCat,
    Functor,
    PullbackSquare,
    _cones,
    _lift_problems,
    elements_fibration,
    fiber,
    group_category,
    identity_functor,
    is_cartesian,
    lifts,
    poset_category,
    slice_category,
    validate_functor,
)
from tristack.grothendieck import (
    InvalidCleavage,
    PseudoFunctor,
    check_cleavage,
    extract_pseudofunctor,
    strict_pseudofunctor,
    total_category,
)

HYPOTHESIS = settings(max_examples=25, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow])

# -- oracles ----------------------------------------------------------------------


def oracle_is_cartesian(fun: Functor, f_prime: str) -> bool:
    d, c = fun.dom, fun.cod
    fp = d.morphisms[f_prime]
    f = fun.mor_map[f_prime]
    for g_prime in d.into_obj(fp.tgt):
        g = fun.mor_map[g_prime]
        z, z_prime = c.src(g), d.src(g_prime)
        for h in c.hom(z, c.src(f)):
            if c.compose(f, h) != g:
                continue
            count = 0
            for h_prime in d.hom(z_prime, fp.src):
                if fun.mor_map[h_prime] == h and d.compose(f_prime, h_prime) == g_prime:
                    count += 1
                    if count > 1:
                        return False
            if count != 1:
                return False
    return True


def oracle_is_fibered(fun: Functor) -> FibrationVerdict:
    cleavage = {}
    for f, y_prime in _lift_problems(fun):
        chosen = None
        for cand in lifts(fun, f, y_prime):
            if oracle_is_cartesian(fun, cand):
                chosen = cand
                break
        if chosen is None:
            return FibrationVerdict("neither", False, witness=(f, y_prime))
        cleavage[(f, y_prime)] = chosen
    return FibrationVerdict("fibered", True, lifts=cleavage)


def oracle_unique_iso_between_lifts(fun: Functor, f_prime: str, f_second: str, over: str) -> bool:
    d = fun.dom
    id_over = fun.cod.identity[over]
    found = 0
    for alpha in d.hom(d.src(f_second), d.src(f_prime)):
        if fun.mor_map[alpha] != id_over:
            continue
        if d.compose(f_prime, alpha) != f_second:
            continue
        if not d.is_iso(alpha):
            continue
        found += 1
        if found > 1:
            return False
    return found == 1


def oracle_factors_uniquely(c: FinCat, p: str, left: str, right: str, cones) -> bool:
    """Whether every cone factors through (p, left, right) by exactly one arrow."""
    for w, l2, r2 in cones:
        count = 0
        for m in c.hom(w, p):
            if c.compose(left, m) == l2 and c.compose(right, m) == r2:
                count += 1
        if count != 1:
            return False
    return True


def oracle_is_pullback(c: FinCat, f: str, g: str, sq: PullbackSquare) -> bool:
    arrows = c.morphisms
    p, left, right = sq.apex, sq.to_left, sq.to_right
    if p not in c.objects or not all(isinstance(a, str) and a in arrows for a in (f, g, left, right)):
        return False
    if c.tgt(f) != c.tgt(g) or (c.src(left), c.tgt(left), c.src(right), c.tgt(right)) != (p, c.src(f), p, c.src(g)):
        return False
    if c.compose(f, left) != c.compose(g, right):
        return False
    return oracle_factors_uniquely(c, p, left, right, _cones(c, f, g))


def oracle_pullback(c: FinCat, f: str, g: str) -> PullbackSquare | None:
    if c.tgt(f) != c.tgt(g):
        raise fincat.IllTypedComposite((f, g))
    cones = _cones(c, f, g)
    for p, left, right in sorted(cones):
        if oracle_factors_uniquely(c, p, left, right, cones):
            return PullbackSquare(p, left, right)
    return None


def oracle_check_cleavage(fun: Functor, cleavage: dict):
    for (f, s_prime), lift in cleavage.items():
        m = fun.dom.morphisms.get(lift)
        if m is None or m.tgt != s_prime or fun.mor_map[lift] != f:
            raise InvalidCleavage((f, s_prime))
        if not oracle_is_cartesian(fun, lift):
            raise InvalidCleavage((f, s_prime))
    for f, s_prime in oracle_cleavage_domain(fun):
        if (f, s_prime) not in cleavage:
            raise InvalidCleavage((f, s_prime))


def oracle_cleavage_domain(fun: Functor):
    for f in fun.cod.morphisms:
        for o in fun.dom.objects:
            if fun.obj_map[o] == fun.cod.tgt(f):
                yield f, o


def oracle_unique_factor(fun: Functor, through: str, over: str, target_mor: str) -> str:
    """The unique h' over ``over`` with through∘h' = target_mor."""
    d = fun.dom
    found = None
    for h in d.hom(d.src(target_mor), d.src(through)):
        if fun.mor_map[h] == over and d.compose(through, h) == target_mor:
            if found is not None:
                raise RuntimeError("internal: factorization not unique through a cartesian lift")
            found = h
    if found is None:
        raise RuntimeError("internal: no factorization through a cartesian lift")
    return found


def oracle_extract_pseudofunctor(fun: Functor, cleavage: dict | None = None) -> PseudoFunctor:
    if cleavage is None:
        verdict = oracle_is_fibered(fun)
        if not verdict.ok:
            raise InvalidCleavage(f"not fibered at {verdict.witness}")
        cleavage = dict(verdict.lifts)
    else:
        oracle_check_cleavage(fun, cleavage)
    base = fun.cod
    fibers = {S: fiber(fun, S) for S in base.objects}
    pullbacks = {}
    for f in sorted(base.morphisms):
        T, S = base.src(f), base.tgt(f)
        id_t = base.identity[T]
        obj_map = {s: fun.dom.src(cleavage[(f, s)]) for s in fibers[S].objects}
        mor_map = {}
        for u in fibers[S].morphisms:
            s1, s2 = fibers[S].src(u), fibers[S].tgt(u)
            target = fun.dom.compose(u, cleavage[(f, s1)])
            mor_map[u] = oracle_unique_factor(fun, cleavage[(f, s2)], id_t, target)
        pullbacks[f] = Functor(fibers[S], fibers[T], obj_map, mor_map)

    epsilon = {
        S: {s: cleavage[(base.identity[S], s)] for s in fibers[S].objects}
        for S in base.objects
    }

    alpha = {}
    for f in base.morphisms:
        for g in base.morphisms:
            if not base.composable(g, f):
                continue
            gf = base.compose(g, f)
            comp = {}
            for s in fibers[base.tgt(g)].objects:
                via_pair = fun.dom.compose(cleavage[(g, s)], cleavage[(f, pullbacks[g].obj_map[s])])
                comp[s] = oracle_unique_factor(fun, cleavage[(gf, s)], base.identity[base.src(f)], via_pair)
            alpha[(f, g)] = comp
    return PseudoFunctor(base, fibers, pullbacks, epsilon, alpha)


def oracle_mediating(base: FinCat, w: str, sq: PullbackSquare, leg_a: str, want_a: str, leg_b: str, want_b: str) -> str:
    found = None
    for m in base.hom(w, sq.apex):
        if base.compose(leg_a, m) == want_a and base.compose(leg_b, m) == want_b:
            if found is not None:
                raise MissingPullback(("non-unique mediating morphism", sq.apex))
            found = m
    if found is None:
        raise MissingPullback(("no mediating morphism", sq.apex))
    return found


def oracle_triple_overlap(site: FiniteSite, i: str, j: str, k: str):
    base = site.base
    _, leg_i, leg_j = descent._pair_legs(site, i, j)
    top = site.chosen_pullback(base.compose(i, leg_i), k)
    w, a, b = top.apex, top.to_left, top.to_right
    c_i, c_j = base.compose(leg_i, a), base.compose(leg_j, a)

    def into(p, q, c_p, c_q):
        sq, lp, lq = descent._pair_legs(site, p, q)
        return oracle_mediating(base, w, sq, lp, c_p, lq, c_q), lp, lq

    return (w, ((a, leg_i, leg_j), into(i, k, c_i, b), into(k, j, b, c_j)))


def oracle_full_faithfulness(site: FiniteSite, transport: Transport):
    """The first witness of the faithful/full half of the old ``stack_verdict``, or None."""
    base = site.base
    for x in sorted(base.objects):
        fib_x = transport.fiber(x)
        sieves = set()
        for fam in site.families(x):
            sieve = frozenset(base.compose(iota, k) for iota in fam for k in base.into_obj(base.src(iota)))
            if sieve in sieves:
                continue
            sieves.add(sieve)
            cov = descent._Covering(site, transport, x, fam)
            for e1 in sorted(fib_x.objects):
                c1 = cov.comparison(e1)
                for e2 in sorted(fib_x.objects):
                    images = [
                        tuple(sorted((iota, transport.restrict_mor(iota, u)) for iota in fam))
                        for u in fib_x.hom(e1, e2)
                    ]
                    if len(set(images)) != len(images):
                        return (x, fam, e1, e2, "not faithful")
                    keyed = {tuple(sorted(m.items())) for m in cov.morphisms(c1, cov.comparison(e2))}
                    if set(images) != keyed:
                        return (x, fam, e1, e2, "not full")
    return None


# -- inputs -------------------------------------------------------------------------


def outcome(fn, *args):
    """What a call did: ("returned", its value) or (error type, error arguments)."""
    try:
        return ("returned", fn(*args))
    except Exception as err:
        return (type(err), err.args)


def symmetric_group(n):
    perms = list(itertools.permutations(range(n)))
    name = {p: f"p{i}" for i, p in enumerate(perms)}
    mul = {(name[a], name[b]): name[tuple(a[b[i]] for i in range(n))] for a in perms for b in perms}
    return group_category(list(name.values()), mul, name="s")


def category_pool():
    """The zoo, S3, seeded posets and total categories."""
    rng = random.Random(7)
    cats = list(corpus.small_category_zoo().values()) + [symmetric_group(3)]
    cats += [corpus.random_poset(rng, max_objects=5) for _ in range(12)]
    cats += [total_category(p)[0] for p in corpus.pseudofunctor_corpus(seed=0, n=6)]
    return cats


def functors_into(c: FinCat, rng: random.Random):
    """Identity, slice projections, a category of elements, and the first few
    functors into c from the interval and from the parallel pair."""
    out = [identity_functor(c)] + [slice_category(c, x)[1] for x in c.objects]
    summands = [rng.choice(c.objects) for _ in range(rng.randint(1, 3))]
    out.append(elements_fibration(c, *corpus.sum_of_representables(c, summands))[1])
    for dom in (fincat.interval_category(), corpus.parallel_pair_category()):
        out += corpus.all_functors(dom, c, limit=3)
    return out


def functor_pool():
    rng = random.Random(3)
    funs = [fun for c in category_pool() for fun in functors_into(c, rng)]
    funs += [total_category(p)[1] for p in corpus.pseudofunctor_corpus(seed=0, n=6)]
    funs += corpus.fibered_corpus(seed=1)
    assert all(validate_functor(fun).ok for fun in funs)
    return funs


FUNCTORS = functor_pool()


@st.composite
def posets(draw, max_objects=4):
    n = draw(st.integers(1, max_objects))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return poset_category(pairs, objects=names)


def mixed_cleavage(fun: Functor, rng: random.Random) -> dict:
    return {key: rng.choice([m for m in lifts(fun, *key) if oracle_is_cartesian(fun, m)])
            for key in _lift_problems(fun)}


# -- the comparisons -------------------------------------------------------------------


def assert_lifts_agree(fun: Functor):
    for m in fun.dom.morphisms:
        assert is_cartesian(fun, m) == oracle_is_cartesian(fun, m), m
    verdict = fincat.is_fibered(fun)
    assert verdict == oracle_is_fibered(fun)
    for f, y_prime in _lift_problems(fun):
        ls = lifts(fun, f, y_prime)
        over = fun.cod.src(f)
        for fp, fs in itertools.product(ls, repeat=2):
            assert fincat._unique_iso_between_lifts(fun, fp, fs, over) == oracle_unique_iso_between_lifts(fun, fp, fs, over)
    return verdict


def assert_extractions_agree(fun: Functor, rng: random.Random):
    assert outcome(extract_pseudofunctor, fun) == outcome(oracle_extract_pseudofunctor, fun)
    if not fincat.is_fibered(fun).ok:
        return
    cleavage = mixed_cleavage(fun, rng)
    assert extract_pseudofunctor(fun, cleavage) == oracle_extract_pseudofunctor(fun, cleavage)
    # a lift that is not cartesian, and a problem left out
    for key, lift in cleavage.items():
        others = [m for m in lifts(fun, *key) if not oracle_is_cartesian(fun, m)]
        if others:
            bad = {**cleavage, key: others[0]}
            assert outcome(check_cleavage, fun, bad) == outcome(oracle_check_cleavage, fun, bad)
            assert outcome(extract_pseudofunctor, fun, bad)[0] is InvalidCleavage
            break
    missing = dict(itertools.islice(cleavage.items(), len(cleavage) - 1))
    assert outcome(check_cleavage, fun, missing) == outcome(oracle_check_cleavage, fun, missing)


def assert_pullbacks_agree(c: FinCat):
    """Every cospan's chosen square and every candidate's verdict; the counts of
    cospans with and without a pullback."""
    found = missing = 0
    for f, g in itertools.product(c.morphisms, repeat=2):
        if c.tgt(f) != c.tgt(g):
            assert outcome(fincat.pullback, c, f, g) == outcome(oracle_pullback, c, f, g)
            continue
        sq = fincat.pullback(c, f, g)
        assert sq == oracle_pullback(c, f, g)
        found, missing = found + (sq is not None), missing + (sq is None)
        for p, left, right in _cones(c, f, g):
            cand = PullbackSquare(p, left, right)
            assert fincat.is_pullback(c, f, g, cand) == oracle_is_pullback(c, f, g, cand)
        for cand in (PullbackSquare(c.src(f), c.identity[c.src(f)], c.identity[c.src(f)]), PullbackSquare("nowhere", f, g)):
            assert fincat.is_pullback(c, f, g, cand) == oracle_is_pullback(c, f, g, cand)
    return found, missing


def assert_triple_overlaps_agree(site: FiniteSite):
    old_site = FiniteSite(site.base, site.coverings)
    for x in site.base.objects:
        for fam in site.families(x):
            for i, j, k in itertools.product(fam, repeat=3):
                assert outcome(site.triple_overlap, i, j, k) == outcome(oracle_triple_overlap, old_site, i, j, k)


def sites():
    return [corpus.site_two_point_space(), corpus.site_chain(3), corpus.site_chain(4), corpus.site_three_atoms()]


class TestCartesianLifts:
    def test_functor_pool(self):
        statuses = {assert_lifts_agree(fun).status for fun in FUNCTORS}
        assert statuses == {"fibered", "neither"}

    def test_extraction_along_default_and_mixed_cleavages(self):
        rng = random.Random(4)
        for fun in FUNCTORS:
            assert_extractions_agree(fun, rng)

    @HYPOTHESIS
    @given(posets(), st.randoms(use_true_random=False))
    def test_hypothesis_posets(self, c, rng):
        for fun in functors_into(c, rng):
            assert_lifts_agree(fun)
            assert_extractions_agree(fun, rng)


class TestPullbackSquares:
    def test_category_pool(self):
        found = [assert_pullbacks_agree(c) for c in category_pool()]
        # cospans with and without a pullback both occur
        assert sum(n for n, _ in found) > 100 and sum(m for _, m in found) > 10

    @HYPOTHESIS
    @given(posets(max_objects=5))
    def test_hypothesis_posets(self, c):
        assert_pullbacks_agree(c)


class TestMediatingArrows:
    def test_corpus_sites(self):
        for site in sites():
            assert_triple_overlaps_agree(site)

    @pytest.mark.parametrize("legs, error", [
        (("e", "e"), "non-unique mediating morphism"),
        (("e", "id_a"), "no mediating morphism"),
    ])
    def test_squares_that_are_no_pullbacks(self, legs, error):
        """An idempotent e with i∘e = i: chosen as legs of i's overlap with itself,
        (e, e) sends id_a and e to one cone and (e, id_a) misses the cone (id_a, e)."""
        c = fincat.build_category(["a", "x"], [("e", "a", "a"), ("i", "a", "x")], {("e", "e"): "e", ("i", "e"): "i"})
        chosen = {("i", "i"): PullbackSquare("a", *legs)}
        new, old = (FiniteSite(c, {"x": [["i"]]}, chosen) for _ in range(2))
        assert outcome(new.triple_overlap, "i", "i", "i") == outcome(oracle_triple_overlap, old, "i", "i", "i")
        assert outcome(new.triple_overlap, "i", "i", "i") == (MissingPullback, ((error, "a"),))


class TestFullFaithfulness:
    def test_stack_verdicts_keep_their_witnesses(self):
        witnesses = set()
        for site in sites()[:2]:
            for kind, proj in fibrations(site).items():
                transport = Transport(proj)
                verdict = descent.stack_verdict(site, transport)
                old = oracle_full_faithfulness(site, transport)
                assert (verdict.witness if verdict.status == "neither" else None) == old, kind
                if old:
                    witnesses.add(old[-1])
        assert witnesses == {"not faithful", "not full"}


def fibrations(site: FiniteSite) -> dict:
    """Slices, constant presheaves, and two whose restrictions to the pieces
    forget: Z2 over the top and a point below (not faithful), and two
    points over the top that restrict to one point below (not full)."""
    base = site.base
    top = base.objects[-1] if "X" not in base.objects else "X"
    out = {"slice": slice_category(base, top)[1]}
    for k in (1, 2):
        out[f"const-{k}"] = elements_fibration(base, *corpus.constant_presheaf(base, [f"c{n}" for n in range(k)]))[1]
    z2, point = corpus.z2_category(), fincat.discrete_category(["*"])
    fibers = {x: (z2 if x == top else point) for x in base.objects}
    pullbacks = {
        m: identity_functor(fibers[base.src(m)]) if base.src(m) == base.tgt(m) else
        Functor(fibers[base.tgt(m)], fibers[base.src(m)], {o: "*" for o in fibers[base.tgt(m)].objects},
                {a: "id_*" for a in fibers[base.tgt(m)].morphisms})
        for m in base.morphisms
    }
    out["forget-z2"] = total_category(strict_pseudofunctor(base, fibers, pullbacks))[1]
    values = {x: (["e1", "e2"] if x == top else ["c"]) for x in base.objects}
    restrictions = {m: dict.fromkeys(values[base.tgt(m)], "c") for m in base.morphisms}
    restrictions.update({base.identity[x]: {e: e for e in values[x]} for x in base.objects})
    out["doubled"] = elements_fibration(base, values, restrictions)[1]
    return out
