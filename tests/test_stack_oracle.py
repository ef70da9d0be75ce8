"""Differential tests of the pruned category-half checks against the exhaustive ones.

The oracles at the end of this file are the library's exhaustive checks
from before the pruned ones replaced them, kept verbatim apart from their
names: the category axioms (totality over every pair of arrows,
associativity over every triple), the site axioms (T3 over the full
product of sub-coverings) and the descent searches (every object tuple
and every transition product, filtered afterwards).  The pruned checks
must give the same verdicts, the same witnesses (for a raised error: its
type and arguments) and the same yield order, on the category zoo,
random posets, S3, S4, the transformation monoid of a 3-set and total
categories, each also with one composite re-pointed, missing, ill-typed
or breaking an identity law; on every corpus site, its variants less one
covering family, and hypothesis poset sites and sites of opens; and on
the slice, constant-presheaf, Z2, Z3 and interval-fiber transports over
the corpus sites, with Z3 also along a seeded mix of cartesian lifts.
The stack verdict, which checks one family per sieve, is also compared
on sites over bases that are not posets (groups, posets times a group, a
parallel pair, the opposite of small finite sets), where one sieve has
several families.  Light's generating set and test are compared with the
pairwise closure and the per-triple check they replaced.  The literal
site scans and stack loop that the sieve table now decides without are
kept verbatim too (``literal_validate_site``, ``literal_stack_verdict``),
and both decisions must match them on spaces of opens, on sieve-determined
tables and tables one family short of that, on the non-poset bases and on
a site whose chosen squares were not checked.  The oracles
run only where they take milliseconds (no chain-6, sites of at most four
objects, constant presheaves with at most three elements); S5 meets only
the generating-set oracle.
"""

import functools
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tristack import corpus, descent, fincat
from tristack.descent import (
    CocycleFails,
    DescentDatum,
    FiniteSite,
    MissingPullback,
    MissingTransition,
    StackVerdict,
    Transport,
    jointly_covering_site,
)
from tristack.fincat import (
    FinCat,
    IdentityLawViolation,
    IllTypedComposite,
    Morphism,
    NonAssociative,
    PullbackSquare,
    Verdict,
    elements_fibration,
    group_category,
    identity_functor,
    is_cartesian,
    lifts,
    poset_category,
    slice_category,
)
from tristack.grothendieck import default_cleavage, strict_pseudofunctor, total_category

HYPOTHESIS = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def reason_of(result):
    """The reason or status a returned verdict names, or the type of the raised error."""
    if result[0] != "returned":
        return result[0]
    found = re.search(r"(?:reason|status)='([^':]*)", result[1])
    return found.group(1) if found else None


def outcome(fn, *args):
    """What a call did: ("returned", repr of its value) or (error type, error arguments)."""
    try:
        return ("returned", repr(fn(*args)))
    except Exception as err:
        return (type(err), err.args)


# -- categories -----------------------------------------------------------------------


def unchecked(c: FinCat, table=None) -> FinCat:
    return FinCat(c.objects, c.morphisms.values(), c.identity, c.table if table is None else table, check=False)


def symmetric_group(n):
    perms = list(itertools.permutations(range(n)))
    name = {p: f"p{i}" for i, p in enumerate(perms)}
    mul = {(name[a], name[b]): name[tuple(a[b[i]] for i in range(n))] for a in perms for b in perms}
    return group_category(list(name.values()), mul, name="s")


def transformation_monoid(n):
    """All maps of an n-set to itself under composition: a monoid needing several generators."""
    maps = list(itertools.product(range(n), repeat=n))
    ident = tuple(range(n))

    def mid(a):
        return "id_*" if a == ident else "t:" + "".join(map(str, a))

    table = {(mid(a), mid(b)): mid(tuple(a[b[i]] for i in range(n))) for a in maps for b in maps}
    return FinCat(["*"], [Morphism(mid(a), "*", "*") for a in maps], {"*": "id_*"}, table)


def category_pool():
    rng = random.Random(7)
    cats = list(corpus.small_category_zoo().values())
    cats += [symmetric_group(3), symmetric_group(4), transformation_monoid(3)]
    cats += [corpus.random_poset(rng, max_objects=6) for _ in range(30)]
    cats += [total_category(p)[0] for p in corpus.pseudofunctor_corpus(seed=0, n=12)]
    return cats


POOL = category_pool()
# categories with composites of two non-identities to re-point
TANGLED = [c for c in POOL if any(not c.is_identity(g) and not c.is_identity(f) for g, f in c.table)]
PARALLEL = [(c, f) for c in POOL for f in sorted(c.morphisms) if len(c.hom(c.src(f), c.tgt(f))) > 1]


def assert_same_axiom_verdict(c: FinCat):
    assert outcome(fincat._check_axioms, c) == outcome(oracle_check_axioms, c)


def repointed(c: FinCat, key, image) -> FinCat:
    table = dict(c.table)
    table[key] = image
    return unchecked(c, table)


class TestCategoryAxioms:
    def test_valid_categories(self):
        for c in POOL:
            assert outcome(fincat._check_axioms, unchecked(c)) == ("returned", "None")
            assert_same_axiom_verdict(unchecked(c))

    def test_every_repointed_composite_of_s3(self):
        """Each composite of two non-identities of S3 re-pointed at every other element."""
        s3 = symmetric_group(3)
        kinds = set()
        for (g, f), gf in sorted(s3.table.items()):
            if s3.is_identity(g) or s3.is_identity(f):
                continue
            for other in sorted(s3.morphisms):
                if other != gf:
                    c = repointed(s3, (g, f), other)
                    assert_same_axiom_verdict(c)
                    kinds.add(outcome(oracle_check_axioms, c)[0])
        assert NonAssociative in kinds

    @HYPOTHESIS
    @given(st.data())
    def test_one_associativity_fault(self, data):
        c = data.draw(st.sampled_from(TANGLED))
        spots = sorted(k for k in c.table if not c.is_identity(k[0]) and not c.is_identity(k[1]))
        key = data.draw(st.sampled_from(spots))
        gf = c.morphisms[c.table[key]]
        image = data.draw(st.sampled_from(sorted(c.hom(gf.src, gf.tgt))))
        assert_same_axiom_verdict(repointed(c, key, image))

    def test_repointed_composites_of_the_transformation_monoid(self):
        """Seeded composites of two non-identities of T3 (several generators) re-pointed at another map."""
        t3 = transformation_monoid(3)
        rng = random.Random(11)
        spots = [k for k in sorted(t3.table) if not t3.is_identity(k[0]) and not t3.is_identity(k[1])]
        kinds = set()
        for g, f in rng.sample(spots, 24):
            c = repointed(t3, (g, f), rng.choice(sorted(set(t3.morphisms) - {t3.table[(g, f)]})))
            assert_same_axiom_verdict(c)
            kinds.add(outcome(oracle_check_axioms, c)[0])
        assert NonAssociative in kinds

    @HYPOTHESIS
    @given(st.data())
    def test_missing_composite(self, data):
        c = data.draw(st.sampled_from(POOL))
        table = dict(c.table)
        del table[data.draw(st.sampled_from(sorted(table)))]
        c = unchecked(c, table)
        assert outcome(oracle_check_axioms, c)[0] is IllTypedComposite
        assert_same_axiom_verdict(c)

    @HYPOTHESIS
    @given(st.data())
    def test_ill_typed_composite(self, data):
        c = data.draw(st.sampled_from(POOL))
        if data.draw(st.booleans()):  # a composable pair pointed at an arrow of the wrong type
            key = data.draw(st.sampled_from(sorted(c.table)))
            gf = c.morphisms[c.table[key]]
            wrong = sorted(m.id for m in c.morphisms.values() if (m.src, m.tgt) != (gf.src, gf.tgt))
            assume(wrong)
            c = repointed(c, key, data.draw(st.sampled_from(wrong)))
        else:  # an entry for a pair that does not compose
            pairs = sorted((g, f) for g in c.morphisms for f in c.morphisms if not c.composable(g, f))
            assume(pairs)
            c = repointed(c, data.draw(st.sampled_from(pairs)), data.draw(st.sampled_from(sorted(c.morphisms))))
        assert outcome(oracle_check_axioms, c)[0] is IllTypedComposite
        assert_same_axiom_verdict(c)

    @HYPOTHESIS
    @given(st.data())
    def test_broken_identity_law(self, data):
        c, f = data.draw(st.sampled_from(PARALLEL))
        others = sorted(m for m in c.hom(c.src(f), c.tgt(f)) if m != f)
        key = (f, c.identity[c.src(f)]) if data.draw(st.booleans()) else (c.identity[c.tgt(f)], f)
        c = repointed(c, key, data.draw(st.sampled_from(others)))
        assert outcome(oracle_check_axioms, c)[0] is IdentityLawViolation
        assert_same_axiom_verdict(c)


def rows_of(c: FinCat) -> dict:
    """rows[h][f] = h∘f, as ``_check_axioms`` hands them to Light's test."""
    rows = {m: {} for m in c.morphisms}
    for (g, f), gf in c.table.items():
        rows[g][f] = gf
    return rows


def reaches_light(c: FinCat) -> bool:
    """Whether the table is typed, total and keeps the identity laws, so Light's test runs."""
    try:
        oracle_check_axioms(c)
    except (IllTypedComposite, IdentityLawViolation):
        return False
    except NonAssociative:
        pass
    return True


def repointed_variants():
    """Every composite of two non-identities of S3 re-pointed at each other arrow, and 24
    seeded ones of S4 and of the transformation monoid of a 3-set."""
    rng = random.Random(13)
    out = []
    for c in (symmetric_group(3), symmetric_group(4), transformation_monoid(3)):
        spots = [(k, other) for k, gf in sorted(c.table.items()) if not c.is_identity(k[0]) and not c.is_identity(k[1])
                 for other in sorted(c.morphisms) if other != gf]
        out += [repointed(c, k, other) for k, other in (spots if len(c.morphisms) == 6 else rng.sample(spots, 24))]
    return out


class TestLightsGenerators:
    """The closure by left composition with the generators and the column-wise check
    against the pairwise closure and the per-triple check they replaced."""

    def test_categories(self):
        for c in POOL + [symmetric_group(5)]:
            gens, ok = oracle_generators_associate(c)
            assert fincat._generators(c, rows_of(c)) == gens
            assert fincat._generators_associate(c, rows_of(c)) is ok is True

    def test_repointed_variants(self):
        """Every variant that reaches Light's test fails it both ways.  Such a table is not
        associative, so which arrows a set generates depends on the bracketing, and the two
        closures may pick different generators; either set still finds the fault."""
        reached = [c for c in repointed_variants() if reaches_light(c)]
        assert len(reached) > 100
        for c in reached:
            assert oracle_generators_associate(c)[1] is False
            assert fincat._generators_associate(c, rows_of(c)) is False


# -- sites ------------------------------------------------------------------------------


def corpus_sites():
    return {
        "two-point": corpus.site_two_point_space(),
        "chain-3": corpus.site_chain(3),
        "chain-4": corpus.site_chain(4),
        "chain-5": corpus.site_chain(5),
        "three-atoms": corpus.site_three_atoms(),
    }


def fresh(site: FiniteSite, coverings=None) -> FiniteSite:
    """The same site with an empty pullback memo, so both checks choose their own."""
    return FiniteSite(site.base, site.coverings if coverings is None else coverings)


def assert_same_site_verdict(site: FiniteSite):
    old = outcome(oracle_validate_site, fresh(site))
    new = outcome(descent.validate_site, fresh(site))
    assert new == outcome(literal_validate_site, fresh(site))
    if old[0] is MissingPullback:
        # the pruned check names the whole T2 instance (x, family, f, iota)
        assert new[0] is MissingPullback and new[1][0][2:] == old[1][0]
    else:
        assert new == old
    return old


@st.composite
def poset_sites(draw, max_objects=4):
    """Jointly covering sites on hypothesis posets: the listed families of each object cover it."""
    n = draw(st.integers(1, max_objects))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    base = poset_category(pairs, objects=names)
    with_singletons = draw(st.booleans())
    covers = {}
    for x in base.objects:
        arrows = sorted(base.into_obj(x))
        fams = [fam for r in range(1, len(arrows) + 1) for fam in itertools.combinations(arrows, r)]
        chosen = set(draw(st.lists(st.sampled_from(fams), unique=True)))
        if with_singletons:
            chosen.add((base.identity[x],))
        covers[x] = chosen.__contains__
    return jointly_covering_site(base, covers)


@st.composite
def opens_sites(draw, max_points=3, max_opens=5):
    """Sites of opens: random point sets ordered by inclusion, covered by unions."""
    points = range(max_points)
    opens = draw(st.lists(st.frozensets(st.sampled_from(points)), min_size=1, max_size=max_opens, unique=True))
    name = {u: "u" + "".join(map(str, sorted(u))) for u in opens}
    base = poset_category([(name[u], name[v]) for u in opens for v in opens if u < v], objects=list(name.values()))
    by_name = {name[u]: u for u in opens}

    def pred(x):
        return lambda fam: frozenset().union(*(by_name[base.src(i)] for i in fam)) == by_name[x]

    return jointly_covering_site(base, {x: pred(x) for x in base.objects})


class TestSiteAxioms:
    def test_corpus_sites(self):
        for site in corpus_sites().values():
            assert assert_same_site_verdict(site) == ("returned", repr(Verdict(True)))

    def test_one_family_removed(self):
        """Every corpus site less one covering family fails T1, T2 or T3 the same way."""
        reasons = set()
        for name, site in corpus_sites().items():
            if name == "chain-5":
                continue
            for x, fams in site.coverings.items():
                for fam in fams:
                    coverings = dict(site.coverings)
                    coverings[x] = [f for f in fams if f != fam]
                    old = assert_same_site_verdict(fresh(site, coverings))
                    reasons.add(reason_of(old))
        assert {"T1 fails", "T2 fails", "T3 fails"} <= reasons

    def test_t3_witness_is_the_first_prefix_of_its_union(self):
        """The first failing union of this chain site is reached by two choices; the first one is named."""
        site = corpus.site_chain(3)
        coverings = {
            "o0": [["id_o0"]],
            "o1": [["id_o1"], ["id_o1", "o0<=o1"]],
            "o2": [["id_o2"], ["id_o2", "o1<=o2"]],
        }
        old = assert_same_site_verdict(fresh(site, coverings))
        assert reason_of(old) == "T3 fails"
        assert descent.validate_site(fresh(site, coverings)).witness == (
            "o2", ("id_o2", "o1<=o2"), (("id_o2",), ("id_o1", "o0<=o1"))
        )

    def test_missing_pullback_names_the_t2_instance(self):
        base = poset_category([("a", "x"), ("b", "x")])
        site = FiniteSite(base, {"x": [["a<=x", "b<=x"], ["id_x"]], "a": [["id_a"]], "b": [["id_b"]]})
        assert outcome(descent.validate_site, site) == (MissingPullback, (("x", ("a<=x", "b<=x"), "a<=x", "b<=x"),))
        assert_same_site_verdict(site)

    @HYPOTHESIS
    @given(poset_sites())
    def test_hypothesis_poset_sites(self, site):
        assert_same_site_verdict(site)

    @HYPOTHESIS
    @given(opens_sites())
    def test_hypothesis_opens_sites(self, site):
        assert_same_site_verdict(site)


# -- descent -----------------------------------------------------------------------------


def constant_total(base, group):
    psf = strict_pseudofunctor(base, dict.fromkeys(base.objects, group), {m: identity_functor(group) for m in base.morphisms})
    return total_category(psf)[1]


def presheaf(base, values, restrict):
    """Elements fibration of a presheaf on a poset given by a restriction rule."""
    restrictions = {}
    for f in base.morphisms:
        a, b = base.src(f), base.tgt(f)
        restrictions[f] = {e: (e if a == b else restrict(a, e)) for e in values[b]}
    return elements_fibration(base, values, restrictions)[1]


def fibrations(name, site):
    """Slice, constant-presheaf (k <= 3), Z2/Z3 and interval-fiber projections, plus the two-point fixtures."""
    base = site.base
    top = "X" if "X" in base.objects else base.objects[-1]
    out = {"slice": slice_category(base, top)[1]}
    for k in (1, 2, 3):
        out[f"const-{k}"] = elements_fibration(base, *corpus.constant_presheaf(base, [f"c{i}" for i in range(k)]))[1]
    out["z2"] = constant_total(base, corpus.z2_category())
    out["z3"] = constant_total(base, corpus.z3_category())
    out["interval"] = constant_total(base, fincat.interval_category())  # fiber arrows that are not isos
    if name == "two-point":
        values = {"X": [], "u1": ["a"], "u2": ["b"], "0": ["c"]}
        out["truncated"] = presheaf(base, values, lambda a, e: {"u1": "a", "u2": "b", "0": "c"}[a])
        values = {"X": ["e1", "e2"], "u1": ["c"], "u2": ["c"], "0": ["c"]}
        out["doubled"] = presheaf(base, values, lambda a, e: "c")
    return out


def transports(name, site):
    """Transports of ``fibrations`` along their least cleavage, plus Z3 bundles along
    a seeded mix of cartesian lifts, whose coherences differ from piece to piece."""
    out = {kind: Transport(proj) for kind, proj in fibrations(name, site).items()}
    proj = constant_total(site.base, corpus.z3_category())
    rng = random.Random(5)
    cleavage = {key: rng.choice([m for m in lifts(proj, *key) if is_cartesian(proj, m)])
                for key in sorted(default_cleavage(proj))}
    out["z3-mixed"] = Transport(proj, cleavage)
    return out


# the exhaustive searches take a tenth of a second or more on these
SLOW = {("two-point", "z3"), ("two-point", "z3-mixed"), ("three-atoms", "const-2"), ("three-atoms", "const-3"),
        ("three-atoms", "z2"), ("three-atoms", "z3"), ("three-atoms", "z3-mixed"), ("three-atoms", "interval")}


def descent_cases():
    sites = corpus_sites()
    for name in ("two-point", "chain-3", "three-atoms"):
        for kind, transport in transports(name, sites[name]).items():
            if (name, kind) not in SLOW:
                yield f"{name}/{kind}", sites[name], transport


CASES = list(descent_cases())


@functools.cache
def shaped_data(label):
    """(x, family, every descent-shaped datum over it in product order) for one case."""
    _, site, transport = next(case for case in CASES if case[0] == label)
    return [
        (x, fam, list(oracle_all_descent_data(site, transport, x, fam)))
        for x in site.base.objects
        for fam in site.families(x)
    ]


def some_shaped_data(label, most=15):
    """Every shaped datum of a case, or at most ``most`` of them, evenly spaced."""
    data = [d for _, _, ds in shaped_data(label) for d in ds]
    return data[:: -(-len(data) // most)]


def cocycle_data(label):
    _, site, transport = next(case for case in CASES if case[0] == label)
    return [
        (x, fam, [d for d in data if oracle_check_cocycle(site, transport, d).ok])
        for x, fam, data in shaped_data(label)
    ]


def as_data(data):
    return [(d.x, d.family, list(d.objects.items()), list(d.transitions.items())) for d in data]


def nudged(site, transport, d: DescentDatum, rng) -> DescentDatum:
    """The datum with one transition moved to a random arrow of its overlap fiber, or dropped."""
    transitions = dict(d.transitions)
    if not transitions:
        return d
    key = rng.choice(sorted(transitions))
    sq, _, _ = oracle_pair_legs(site, key[1], key[0])
    arrows = sorted(transport.fiber(sq.apex).morphisms)
    if rng.random() < 0.2:
        del transitions[key]
    else:
        transitions[key] = rng.choice(arrows)
    return DescentDatum(d.x, d.family, dict(d.objects), transitions)


class TestDescent:
    def test_stack_verdicts(self):
        statuses = set()
        for label, site, transport in CASES:
            old = outcome(oracle_stack_verdict, site, transport)
            assert outcome(descent.stack_verdict, site, transport) == old, label
            assert outcome(literal_stack_verdict, site, transport) == old, label
            statuses.add(reason_of(old))
        assert statuses == {"stack", "prestack-only", "neither"}

    def test_descent_data_in_product_order(self):
        checked = 0
        for label, site, transport in CASES:
            for x, fam, kept in cocycle_data(label):
                assert as_data(descent._all_descent_data(site, transport, x, fam)) == as_data(kept), label
                checked += len(kept)
        assert checked > 300

    def test_cocycle_verdicts(self):
        rng = random.Random(3)
        failures = set()
        for label, site, transport in CASES:
            for d in some_shaped_data(label):
                for datum in (d, nudged(site, transport, d, rng)):
                    old = outcome(oracle_check_cocycle, site, transport, datum)
                    assert outcome(descent.check_cocycle, site, transport, datum) == old, label
                    failures.add(reason_of(old))
        assert {"cocycle fails", "transition has wrong endpoints"} <= failures

    def test_effectiveness_witnesses(self):
        for label, site, transport in CASES:
            for d in some_shaped_data(label):
                old = outcome(oracle_all_effectiveness_witnesses, site, transport, d)
                assert outcome(descent.all_effectiveness_witnesses, site, transport, d) == old, label
                assert outcome(descent.is_effective, site, transport, d) == outcome(
                    oracle_is_effective, site, transport, d
                )

    def test_comparison_data_and_their_morphisms(self):
        for label, site, transport in CASES:
            for x in site.base.objects:
                objs = sorted(transport.fiber(x).objects)
                for fam in site.families(x):
                    old = {e: oracle_comparison_datum(site, transport, e, x, fam) for e in objs}
                    new = {e: descent.comparison_datum(site, transport, e, x, fam) for e in objs}
                    assert as_data(new.values()) == as_data(old.values()), label
                    for e1, e2 in itertools.product(objs, repeat=2):
                        assert repr(descent.datum_morphisms(site, transport, new[e1], new[e2])) == repr(
                            oracle_datum_morphisms(site, transport, old[e1], old[e2])
                        ), label

    def test_morphisms_between_descent_data(self):
        for label, site, transport in CASES:
            for _, _, data in cocycle_data(label):
                for d1, d2 in itertools.product(data[:2], repeat=2):
                    assert repr(descent.datum_morphisms(site, transport, d1, d2)) == repr(
                        oracle_datum_morphisms(site, transport, d1, d2)
                    ), label

    @settings(HYPOTHESIS, max_examples=10)
    @given(opens_sites(max_opens=4), st.data())
    def test_hypothesis_stack_verdicts(self, site, data):
        """Sub-constant presheaves on sites of opens: fewer sections over larger opens."""
        assume(outcome(oracle_validate_site, fresh(site)) == ("returned", repr(Verdict(True))))
        base = site.base
        values = {}
        for x in sorted(base.objects, key=lambda o: -len(base.into_obj(o))):  # larger opens first
            above = set().union(*(values[b] for b in values if base.hom(x, b)))
            values[x] = sorted(above | set(data.draw(st.lists(st.sampled_from("abc"), max_size=2))))
        proj = presheaf(base, values, lambda a, e: e)
        transport = Transport(proj)
        assert outcome(descent.stack_verdict, site, transport) == outcome(oracle_stack_verdict, site, transport)
        assert outcome(literal_stack_verdict, site, transport) == outcome(oracle_stack_verdict, site, transport)
        for x in base.objects:
            for fam in site.families(x):
                kept = [d for d in oracle_all_descent_data(site, transport, x, fam)
                        if oracle_check_cocycle(site, transport, d).ok]
                assert as_data(descent._all_descent_data(site, transport, x, fam)) == as_data(kept)


# -- descent per sieve, on bases that are not posets -----------------------------------------
#
# ``stack_verdict`` checks only the first family of each sieve.  On a poset
# base with unions for coverings most sieves have one family, so here the
# bases are a cyclic group G, meet-closed posets times G, a parallel pair
# times G and the opposite of the finite sets of size at most 3.  A family
# (m, g) and its relabelling (m, g') generate one sieve; the two arrows of
# the parallel pair have one source but different sieves; and in the last
# base the covering arrow p1 -> p0 is not monic (it is the map from the
# empty set to a point).  The fibrations are presheaves whose restrictions
# collapse or move the elements a, b, c, so that some verdicts fail.


def cofinite_sets(most=3):
    """Opposite of the finite sets 0..most: an arrow pn -> pm is a map m -> n, as its tuple of values."""

    def mid(n, m, values):
        return f"id_p{n}" if n == m and values == tuple(range(n)) else f"p{n}>p{m}:" + "".join(map(str, values))

    arrows = [(n, m, t) for n in range(most + 1) for m in range(most + 1) for t in itertools.product(range(n), repeat=m)]
    table = {
        (mid(m, k, g), mid(n, m, f)): mid(n, k, tuple(f[i] for i in g))
        for m, k, g in arrows
        for n, m_, f in arrows
        if m_ == m
    }
    objects = [f"p{n}" for n in range(most + 1)]
    return FinCat(objects, [Morphism(mid(*a), f"p{a[0]}", f"p{a[1]}") for a in arrows],
                  {o: f"id_{o}" for o in objects}, table)


def times_group(base: FinCat, group: FinCat):
    """base × group, with each arrow's (base arrow, group arrow); an arrow with the
    group's identity keeps its base id."""
    unit = group.identity["*"]
    parts = {m if g == unit else f"{m}|{g}": (m, g) for m in base.morphisms for g in group.morphisms}
    name = {v: k for k, v in parts.items()}
    table = {
        (name[(m1, g1)], name[(m2, g2)]): name[(base.compose(m1, m2), group.compose(g1, g2))]
        for m1, g1 in parts.values()
        for m2, g2 in parts.values()
        if base.composable(m1, m2)
    }
    morphisms = [Morphism(k, base.src(m), base.tgt(m)) for k, (m, _) in parts.items()]
    return FinCat(base.objects, morphisms, base.identity, table), parts


def point_category():
    return poset_category([], objects=["pt"])


@functools.cache
def non_poset_base(name):
    """(base, its arrows as (factor arrow, group arrow), the factor, the group, the arrows allowed in families)."""
    kind, group_name = name.split(" x ")
    group = {"1": group_category(["e"], {("e", "e"): "e"}), "Z2": corpus.z2_category(), "Z3": corpus.z3_category()}[
        group_name
    ]
    factor = {
        "point": point_category,
        "chain-3": lambda: corpus.site_chain(3).base,
        "two-point": lambda: corpus.site_two_point_space().base,
        "parallel": corpus.parallel_pair_category,
        "cofinite": cofinite_sets,
    }[kind]()
    base, parts = times_group(factor, group)
    if kind == "cofinite":  # over p0 only, from p1 or p0, so that every overlap has its pullback
        allowed = {a for a in base.morphisms if base.tgt(a) == "p0" and base.src(a) in ("p0", "p1")}
    else:
        allowed = set(base.morphisms)
    return base, parts, factor, group, allowed


NON_POSET_BASES = ["point x Z2", "point x Z3", "chain-3 x Z2", "two-point x Z2", "two-point x Z3", "parallel x Z2",
                   "cofinite x 1"]
IDENTITY = {"a": "a", "b": "b", "c": "c"}
# commuting (group generator's action, collapse below) pairs on the elements
ACTIONS = {
    "Z2": [({"a": "b", "b": "a", "c": "c"}, {"a": "c", "b": "c", "c": "c"}),
           ({"a": "b", "b": "a", "c": "c"}, IDENTITY),
           (IDENTITY, {"a": "a", "b": "a", "c": "c"}),
           (IDENTITY, IDENTITY)],
    "Z3": [({"a": "b", "b": "c", "c": "a"}, IDENTITY),
           (IDENTITY, {"a": "a", "b": "a", "c": "c"})],
    "1": [(IDENTITY, {"a": "c", "b": "c", "c": "c"}),
          (IDENTITY, {"a": "a", "b": "a", "c": "c"}),
          (IDENTITY, IDENTITY)],
}


def group_action(group: FinCat, step: dict) -> dict:
    """Each arrow of a cyclic group to the power of ``step`` its power of the first generator is."""
    gen = max(group.morphisms, key=lambda g: not group.is_identity(g))
    act, g, perm = {}, group.identity["*"], dict(IDENTITY)
    while g not in act:
        act[g] = perm
        g, perm = group.compose(gen, g), {e: step[perm[e]] for e in perm}
    return act


def non_poset_case(pick, name=None):
    """A site on a non-poset base (``name``, or one picked) and a presheaf over it;
    ``pick`` chooses from a list."""
    name = name or pick(NON_POSET_BASES)
    base, parts, factor, group, allowed = non_poset_base(name)
    step, collapse = pick(ACTIONS[name.split(" x ")[1]])
    act = group_action(group, step)
    hom = {(m.src, m.tgt) for m in base.morphisms.values()}
    below = {o: {s for s in base.objects if (s, o) in hom and (o, s) not in hom} for o in base.objects}
    move = {}  # down the last factor arrow of each hom-set the elements collapse
    for a, (m, _) in parts.items():
        last = max(factor.hom(factor.src(m), factor.tgt(m))) == m
        move[a] = collapse if last and base.src(a) in below[base.tgt(a)] else IDENTITY
    # values closed under the action, holding what moves down to them
    orbits = sorted({frozenset(act[g][e] for g in act) for e in "abc"}, key=sorted)
    values = {}
    for o in sorted(base.objects, key=lambda o: (-len(below[o]), o)):
        if o in values:
            continue
        need = {
            move[a][e] for a, m in base.morphisms.items() if m.src == o and o in below[m.tgt] for e in values[m.tgt]
        }
        for orbit in orbits:
            if pick([False, True]):
                need |= orbit
        for same in base.objects:
            if (same, o) in hom and (o, same) in hom:
                values[same] = sorted(need)
    restrictions = {a: {e: act[g][move[a][e]] for e in values[base.tgt(a)]} for a, (_, g) in parts.items()}
    proj = elements_fibration(base, values, restrictions)[1]
    coverings, name_of = {}, {v: k for k, v in parts.items()}
    for x in base.objects:
        arrows = sorted(a for a in base.into_obj(x) if a in allowed)
        fams = []
        for _ in range(pick([0, 1, 2]) if arrows else 0):
            fams.append([pick(arrows) for _ in range(pick([1, 2, 3]))])
            if pick([False, True]):  # the same factor arrows with other group parts: the same sieve
                fams.append([name_of[(parts[a][0], pick(sorted(group.morphisms)))] for a in fams[-1]])
        # keep the families whose overlaps exist (the parallel arrows have none)
        coverings[x] = [fam for fam in fams if all(fincat.pullback(base, i, j) for i in fam for j in fam)]
    return FiniteSite(base, coverings), Transport(proj)


def sieve_of(base: FinCat, fam) -> frozenset:
    return frozenset(base.compose(i, k) for i in fam for k in base.into_obj(base.src(i)))


def sieve_sizes(site: FiniteSite, x) -> Counter:
    """How many of the families of x generate each sieve."""
    return Counter(sieve_of(site.base, fam) for fam in site.families(x))


class TestSievesOnNonPosetBases:
    @settings(HYPOTHESIS, derandomize=True)
    @given(st.data())
    def test_hypothesis_non_poset_sites(self, data):
        site, transport = non_poset_case(lambda xs: data.draw(st.sampled_from(xs)))
        assert outcome(descent.stack_verdict, site, transport) == outcome(oracle_stack_verdict, site, transport)
        assert outcome(literal_stack_verdict, site, transport) == outcome(oracle_stack_verdict, site, transport)
        assert outcome(descent.validate_site, fresh(site)) == outcome(literal_validate_site, fresh(site))

    def test_the_cases_share_sieves_and_fail(self):
        """Seeded cases of the same builder: every verdict and witness agree with the oracle,
        both failing verdicts occur, and some fail on a family whose sieve has another family."""
        rng = random.Random(12)
        statuses, shared_failures, covering_arrows = set(), 0, set()
        for name in NON_POSET_BASES * 4:
            site, transport = non_poset_case(rng.choice, name)
            new = outcome(descent.stack_verdict, site, transport)
            assert new == outcome(oracle_stack_verdict, site, transport)
            assert new == outcome(literal_stack_verdict, site, transport)
            statuses.add(reason_of(new))
            verdict = descent.stack_verdict(site, transport)
            if verdict.witness:
                x, fam = verdict.witness[:2]
                shared_failures += sieve_sizes(site, x)[sieve_of(site.base, fam)] > 1
            covering_arrows |= {i for fams in site.coverings.values() for fam in fams for i in fam}
        assert statuses == {"stack", "prestack-only", "neither"}
        assert shared_failures >= 2
        assert "p1>p0:" in covering_arrows  # the map from the empty set, not monic

    def test_one_source_two_sieves(self):
        """The parallel arrows f, g: a -> b share a source, not a sieve, so {g} is checked after {f}."""
        base = corpus.parallel_pair_category()
        values = {"a": ["a", "b"], "b": ["a", "b"]}
        same, collapse = {"a": "a", "b": "b"}, {"a": "a", "b": "a"}
        restrictions = {"id_a": same, "id_b": same, "f": same, "g": collapse}
        transport = Transport(elements_fibration(base, values, restrictions)[1])
        site = FiniteSite(base, {"b": [["f"], ["g"]]})
        verdict = outcome(descent.stack_verdict, site, transport)
        assert verdict == outcome(oracle_stack_verdict, site, transport)
        assert verdict[1] == repr(StackVerdict("neither", ("b", ("g",), "a@b", "b@b", "not full")))

    def test_the_empty_set_map_is_not_monic(self):
        """Its kernel pair is p2.  Through p3, with two of its projections as legs, every
        cone factors, but cones from p2 twice (the third coordinate is free): no pullback."""
        base = non_poset_base("cofinite x 1")[0]
        p = "p1>p0:"
        assert base.compose(p, "p2>p1:0") == base.compose(p, "p2>p1:1")
        assert fincat.pullback(base, p, p) == PullbackSquare("p2", "p2>p1:0", "p2>p1:1")
        assert not fincat.is_pullback(base, p, p, PullbackSquare("p3", "p3>p1:0", "p3>p1:1"))
        square = {"f": p, "g": p, "apex": "p3", "toLeft": "p3>p1:0", "toRight": "p3>p1:1"}
        raw = {"base": fincat.category_to_json(base), "coverings": {}, "pullbacks": [square]}
        with pytest.raises(descent.SiteError, match=r"^pullbacks\[0\]: the square is not a pullback$"):
            descent.site_from_json(raw)


# -- sites decided by sieve ----------------------------------------------------------------
#
# ``validate_site`` and ``stack_verdict`` read the site's sieve table and fall
# back to the literal scans kept verbatim at the end of this file.  Both must
# agree with those scans on sieve-determined tables (every family whose sieve
# covers is listed) and on tables that are not, on spaces of opens, on the
# non-poset bases above and on a site whose chosen squares are not checked.


def all_sieves(base: FinCat, x) -> list:
    """Every sieve on x: the sets of arrows into x closed under precomposition."""
    arrows = sorted(base.into_obj(x))
    subsets = (frozenset(sub) for r in range(len(arrows) + 1) for sub in itertools.combinations(arrows, r))
    return [s for s in subsets if all(base.compose(a, k) in s for a in s for k in base.into_obj(base.src(a)))]


def sieve_site(base: FinCat, covering_sieves: dict) -> FiniteSite:
    """The sieve-determined site listing, over each x, every family (the empty one
    included) whose sieve is in ``covering_sieves[x]``."""
    coverings = {}
    for x in base.objects:
        arrows = sorted(base.into_obj(x))
        fams = (fam for r in range(len(arrows) + 1) for fam in itertools.combinations(arrows, r))
        coverings[x] = [fam for fam in fams if sieve_of(base, fam) in covering_sieves[x]]
    return FiniteSite(base, coverings)


def pulled(base: FinCat, f, sieve) -> frozenset:
    return frozenset(k for k in base.into_obj(base.src(f)) if base.compose(f, k) in sieve)


def closed_sieves(base: FinCat, sieves: dict, top: bool, upward: bool, stable: bool) -> dict:
    """The covering sieves with, as asked, every maximal sieve, every sieve above a
    covering one, and every pullback of a covering sieve added."""
    out = {x: set(ss) for x, ss in sieves.items()}
    for x in base.objects:
        if top:
            out[x].add(frozenset(base.into_obj(x)))
    changed = True
    while changed and (upward or stable):
        changed = False
        for x in base.objects:
            new = set()
            if upward:
                new |= {t for t in all_sieves(base, x) if any(s <= t for s in out[x])}
            for y in base.objects if stable else ():
                new |= {pulled(base, f, s) for s in out[y] for f in base.into_obj(y) if base.src(f) == x}
            if not new <= out[x]:
                out[x] |= new
                changed = True
    return out


def sieve_bases():
    """Small bases whose objects have at most eight arrows into them."""
    named = {
        "two-point": corpus.site_two_point_space().base,
        "three-atoms": corpus.site_three_atoms().base,
        "chain-3": corpus.site_chain(3).base,
        "no-meet": poset_category([("a", "x"), ("b", "x")]),
    }
    named.update((name, non_poset_base(name)[0]) for name in ("point x Z2", "point x Z3", "chain-3 x Z2"))
    return named


SIEVE_BASES = sieve_bases()


def sieve_table(pick, name=None):
    """A sieve-determined site on one of ``SIEVE_BASES``; ``pick`` chooses from a list."""
    base = SIEVE_BASES[name or pick(sorted(SIEVE_BASES))]
    sieves = {x: {s for s in all_sieves(base, x) if pick([False, False, True])} for x in base.objects}
    flags = [pick([False, True, True]) for _ in range(3)]
    return sieve_site(base, closed_sieves(base, sieves, *flags))


def less_one_family(site: FiniteSite, pick):
    """The site less one listed family, and whether that family was the only one of its
    sieve (only then is the table still sieve-determined)."""
    x = pick(sorted(x for x, fams in site.coverings.items() if fams))
    fam = pick(site.coverings[x])
    coverings = dict(site.coverings)
    coverings[x] = [f for f in coverings[x] if f != fam]
    return FiniteSite(site.base, coverings), sieve_sizes(site, x)[sieve_of(site.base, fam)] == 1


def assert_same_as_literal(site: FiniteSite):
    """Both checks of a site agree with the literal scans, errors and their arguments included."""
    new = outcome(descent.validate_site, fresh(site))
    assert new == outcome(literal_validate_site, fresh(site))
    return new


def opens_of(n, rule=lambda u: True):
    return [u for r in range(n + 1) for u in itertools.combinations(range(1, n + 1), r) if rule(u)]


def spaces():
    """The discrete 2- and 3-point spaces and a 3-point space whose opens with 3 hold 1."""
    return {
        "discrete-2": corpus.site_discrete_space(2),
        "discrete-3": corpus.site_discrete_space(3),
        "not-discrete-3": corpus.site_of_opens(opens_of(3, lambda u: 3 not in u or 1 in u)),
    }


def compiled_coverings(monkeypatch):
    """The (x, family) of every covering ``stack_verdict`` compiles, in order."""
    seen = []

    class Recording(descent._Covering):
        def __init__(self, site, transport, x, family):
            seen.append((x, tuple(family)))
            super().__init__(site, transport, x, family)

    monkeypatch.setattr(descent, "_Covering", Recording)
    return seen


class TestSitesBySieve:
    def test_spaces(self):
        for name, site in spaces().items():
            assert site.sieves() and all(s.determined() for s in site.sieves().values()), name
            assert assert_same_as_literal(site) == ("returned", repr(Verdict(True))), name
            for kind, transport in transports(name, site).items():
                if name == "discrete-2" or kind in ("slice", "const-1", "const-2"):
                    new = outcome(descent.stack_verdict, site, transport)
                    assert new == outcome(literal_stack_verdict, site, transport), (name, kind)
        assert_same_site_verdict(spaces()["discrete-2"])

    def test_spaces_less_one_family(self):
        """Every family of the 2-point space and a seeded sample of the others left out in turn."""
        rng = random.Random(17)
        reasons = set()
        for name, site in spaces().items():
            listed = [(x, fam) for x, fams in sorted(site.coverings.items()) for fam in fams]
            for x, fam in listed if name == "discrete-2" else rng.sample(listed, 10):
                coverings = dict(site.coverings)
                coverings[x] = [f for f in coverings[x] if f != fam]
                reasons.add(reason_of(assert_same_as_literal(FiniteSite(site.base, coverings))))
        assert {"T1 fails", "T2 fails", "T3 fails"} <= reasons

    @HYPOTHESIS
    @given(st.data())
    def test_hypothesis_sieve_determined_tables(self, data):
        def pick(xs):
            return data.draw(st.sampled_from(xs))

        site = sieve_table(pick)
        assert all(s.determined() for s in site.sieves().values())
        assert_same_as_literal(site)
        if any(site.coverings.values()):
            less, alone = less_one_family(site, pick)
            assert all(s.determined() for s in less.sieves().values()) == alone
            assert_same_as_literal(less)

    def test_seeded_sieve_tables(self):
        """Seeded tables reach every verdict; the sieve table decides every valid one, and on
        those the stack verdict agrees too."""
        rng = random.Random(23)
        reasons, valid, decided = Counter(), 0, 0
        for name in sorted(SIEVE_BASES) * 12:
            site = sieve_table(rng.choice, name)
            new = assert_same_as_literal(site)
            reasons[reason_of(new)] += 1
            if new == ("returned", repr(Verdict(True))):
                valid += 1
                decided += descent._sieves_decide_site(fresh(site))
                proj = elements_fibration(site.base, *corpus.constant_presheaf(site.base, ["a", "b"]))[1]
                transport = Transport(proj)
                assert outcome(descent.stack_verdict, site, transport) == outcome(
                    literal_stack_verdict, site, transport
                ), name
            if site.coverings and any(site.coverings.values()):
                reasons[reason_of(assert_same_as_literal(less_one_family(site, rng.choice)[0]))] += 1
        assert {None, "T1 fails", "T2 fails", "T3 fails", MissingPullback} <= set(reasons)
        assert decided == valid > 10

    def test_a_topology_that_is_not_upward_closed(self):
        """J(X) = {max, ⟨0<=X⟩} on the opens of the two-point space passes T1, T2 and T3 on
        its inclusion-minimal families, but {id_X, u1<=X} with {0<=X} chosen for id_X
        composes to ⟨u1<=X⟩, which does not cover: T3 fails."""
        base = corpus.site_two_point_space().base
        covering = {
            "X": {frozenset(base.into_obj("X")), frozenset({"0<=X"})},
            "u1": {frozenset({"0<=u1", "id_u1"}), frozenset({"0<=u1"})},
            "u2": {frozenset({"0<=u2", "id_u2"}), frozenset({"0<=u2"})},
            "0": {frozenset({"id_0"})},
        }
        site = sieve_site(base, covering)
        assert not descent._sieves_decide_site(fresh(site))
        verdict = descent.validate_site(fresh(site))
        assert verdict.reason == "T3 fails: composed family not a covering"
        assert assert_same_site_verdict(site) == ("returned", repr(verdict))

    def test_an_idempotent_has_no_kernel_pair(self):
        """{id, e} with e∘e = e: the table is sieve-determined and T1-T3 hold on sieves, but
        e is not monic and (e, e) has no pullback, so T2 cannot be checked."""
        table = {("id_*", "id_*"): "id_*", ("id_*", "e"): "e", ("e", "id_*"): "e", ("e", "e"): "e"}
        base = FinCat(["*"], [Morphism("id_*", "*", "*"), Morphism("e", "*", "*")], {"*": "id_*"}, table)
        site = FiniteSite(base, {"*": [["id_*"], ["e", "id_*"]]})
        assert all(s.determined() for s in site.sieves().values())
        assert assert_same_as_literal(site) == (MissingPullback, (("*", ("e", "id_*"), "e", "e"),))

    def test_squares_chosen_in_python_are_not_trusted(self, monkeypatch):
        """A commuting square that is not a pullback, chosen for (u1<=X, id_X): the site takes
        the literal scans, which find T2 failing, and descent checks every sieve's first family."""
        site = corpus.site_two_point_space()
        square = PullbackSquare("0", "0<=u1", "0<=X")
        assert not fincat.is_pullback(site.base, "u1<=X", "id_X", square)
        built = FiniteSite(site.base, site.coverings, {("u1<=X", "id_X"): square})
        assert not built.genuine_pullbacks
        assert outcome(descent.validate_site, built) == outcome(
            literal_validate_site, FiniteSite(site.base, site.coverings, {("u1<=X", "id_X"): square})
        ) == ("returned", repr(Verdict(False, "T2 fails: pulled-back family not a covering",
                                       ("X", ("0<=X", "id_X"), "u1<=X"))))
        transport = Transport(slice_category(site.base, "X")[1])
        seen = compiled_coverings(monkeypatch)
        new = outcome(descent.stack_verdict, built, transport)
        firsts = list(seen)
        assert new == outcome(literal_stack_verdict, built, transport)
        assert firsts == seen[len(firsts):] and ("X", ("0<=X", "id_X")) in firsts

    def test_pullbacks_chosen_in_python_are_trusted(self):
        """Genuine squares given in Python, as a file would give them, open the sieve path."""
        site = corpus.site_two_point_space()
        descent.validate_site(site)
        assert site._chosen
        built = FiniteSite(site.base, site.coverings, site._chosen)
        assert built.genuine_pullbacks and descent._sieves_decide_site(built)

    def test_a_family_into_another_object(self):
        """A family at X holding an arrow into u1 has no sieve on X, so the site has no sieve
        table and the stack verdict runs the literal loop, error and all."""
        site = corpus.site_two_point_space()
        for fam in [("0<=u1",), ("0<=X", "0<=u1")]:
            bad = FiniteSite(site.base, {**site.coverings, "X": site.coverings["X"] + [fam]})
            assert bad.sieves() is None
            for transport in transports("two-point", site).values():
                assert outcome(descent.stack_verdict, bad, transport) == outcome(
                    literal_stack_verdict, bad, transport
                )

    def test_a_broken_composition_table_is_not_read_as_a_stray_family(self):
        """Unchecked, u1<=X ∘ 0<=u1 entered as 0<=u1 (an arrow into u1): every family ends at
        its object, so building the table fails loudly instead of answering None."""
        site = corpus.site_two_point_space()
        base = unchecked(site.base, {**site.base.table, ("u1<=X", "0<=u1"): "0<=u1"})
        with pytest.raises(KeyError):
            FiniteSite(base, site.coverings).sieves()

    def test_stack_checks_the_least_family_of_each_sieve_not_maximal(self, monkeypatch):
        """On the three atoms, only the sieve of the three atoms is not maximal, and its first
        family (0<=X, u1<=X, u2<=X, u3<=X) is checked as (u1<=X, u2<=X, u3<=X)."""
        site = descent.site_from_json(descent.site_to_json(corpus.site_three_atoms()))
        assert site.genuine_pullbacks and descent.validate_site(site).ok
        proj = elements_fibration(site.base, *corpus.constant_presheaf(site.base, ["a", "b", "c"]))[1]
        seen = compiled_coverings(monkeypatch)
        assert descent.stack_verdict(site, Transport(proj)) == StackVerdict("stack")
        assert seen == [("X", ("u1<=X", "u2<=X", "u3<=X"))]

    def test_a_failing_stack_verdict_reruns_the_literal_loop(self, monkeypatch):
        """The least families find the fault first; the first family of each sieve names it."""
        site = corpus.site_two_point_space()
        transport = transports("two-point", site)["truncated"]
        seen = compiled_coverings(monkeypatch)
        new = outcome(descent.stack_verdict, site, transport)
        assert new == outcome(oracle_stack_verdict, site, transport)
        assert reason_of(new) == "prestack-only"
        assert seen[0] == ("X", ("u1<=X", "u2<=X")) and ("X", ("0<=X", "u1<=X", "u2<=X")) in seen


# -- oracles: the exhaustive checks, verbatim -----------------------------------------------


def oracle_check_axioms(c: FinCat):
    for obj in c.objects:
        if obj not in c.identity or c.identity[obj] not in c.morphisms:
            raise MissingIdentity(obj)
        i = c.morphisms[c.identity[obj]]
        if i.src != obj or i.tgt != obj:
            raise MissingIdentity(obj)
    for m in c.morphisms.values():
        if m.src not in c.objects or m.tgt not in c.objects:
            raise IllTypedComposite((m.id, "endpoint not an object"))
    mor_ids = list(c.morphisms)
    for (g, f), gf in c.table.items():
        if g not in c.morphisms or f not in c.morphisms or gf not in c.morphisms:
            raise IllTypedComposite((g, f))
        if c.tgt(f) != c.src(g):
            raise IllTypedComposite((g, f))
        if c.src(gf) != c.src(f) or c.tgt(gf) != c.tgt(g):
            raise IllTypedComposite((g, f))
    for g in mor_ids:
        for f in mor_ids:
            if c.composable(g, f) and (g, f) not in c.table:
                raise IllTypedComposite((g, f))
    for f in mor_ids:
        if c.table[(f, c.identity[c.src(f)])] != f:
            raise IdentityLawViolation((f, c.identity[c.src(f)]))
        if c.table[(c.identity[c.tgt(f)], f)] != f:
            raise IdentityLawViolation((c.identity[c.tgt(f)], f))
    for h in mor_ids:
        for g in mor_ids:
            if not c.composable(h, g):
                continue
            hg = c.table[(h, g)]
            for f in mor_ids:
                if not c.composable(g, f):
                    continue
                if c.table[(h, c.table[(g, f)])] != c.table[(hg, f)]:
                    raise NonAssociative((h, g, f))



def oracle_generators_associate(c: FinCat):
    """The greedy generating set by the pairwise closure, and Light's test on it triple by triple."""
    table = c.table
    src = {m: mor.src for m, mor in c.morphisms.items()}
    tgt = {m: mor.tgt for m, mor in c.morphisms.items()}
    reached = {c.identity[o] for o in c.objects}
    closed, gens = [], []
    for m in c.morphisms:
        if m in reached:
            continue
        gens.append(m)
        reached.add(m)
        todo = [m]
        while todo:  # keep ``closed`` closed under composition, one new arrow at a time
            a = todo.pop()
            closed.append(a)
            for b in closed:
                for ab in (table[(a, b)] if src[a] == tgt[b] else None,
                           table[(b, a)] if src[b] == tgt[a] else None):
                    if ab is not None and ab not in reached:
                        reached.add(ab)
                        todo.append(ab)
    for g in gens:
        for h in c._by_src[tgt[g]]:
            hg = table[(h, g)]
            for f in c._by_tgt[src[g]]:
                if table[(h, table[(g, f)])] != table[(hg, f)]:
                    return gens, False
    return gens, True



def oracle_validate_site(site: FiniteSite) -> Verdict:
    """Covering axioms T1-T3, checked exhaustively with witnesses."""
    base = site.base
    for x, fams in site.coverings.items():
        if x not in base.objects:
            return Verdict(False, "covering of unknown object", (x,))
        for fam in fams:
            for iota in fam:
                if iota not in base.morphisms or base.tgt(iota) != x:
                    return Verdict(False, "covering arrow has wrong target", (x, iota))
            if len(set(fam)) != len(fam):
                return Verdict(False, "covering family repeats an arrow", (x, fam))

    # (T1) isomorphism singletons
    for m in base.morphisms:
        if base.is_iso(m) and not site.has_family(base.tgt(m), (m,)):
            return Verdict(False, "T1 fails: isomorphism singleton missing", (m,))

    # (T2) stability under the chosen pullbacks
    for x in base.objects:
        for fam in site.families(x):
            for f in base.into_obj(x):
                pulled = []
                for iota in fam:
                    sq = site.chosen_pullback(f, iota)
                    pulled.append(sq.to_left)
                if not site.has_family(base.src(f), pulled):
                    return Verdict(False, "T2 fails: pulled-back family not a covering", (x, fam, f))

    # (T3) composition of coverings
    for x in base.objects:
        for fam in site.families(x):
            per_piece = [site.families(base.src(iota)) for iota in fam]
            for choice in itertools.product(*per_piece):
                composed = []
                for iota, sub in zip(fam, choice):
                    composed.extend(base.compose(iota, phi) for phi in sub)
                if not site.has_family(x, composed):
                    return Verdict(False, "T3 fails: composed family not a covering", (x, fam, choice))
    return Verdict(True)



def oracle_pair_legs(site: FiniteSite, p: str, q: str):
    """Chosen overlap square for covering arrows p, q with legs in slot order."""
    a, b = sorted((p, q))
    sq = site.chosen_pullback(a, b)
    if p == q:
        return sq, sq.to_left, sq.to_right
    if p == a:
        return sq, sq.to_left, sq.to_right
    return sq, sq.to_right, sq.to_left


def oracle_complete_datum(site: FiniteSite, transport: Transport, d: DescentDatum) -> DescentDatum:
    """Fill derivable transitions: diagonals and inverses."""
    fam = d.family
    transitions = dict(d.transitions)
    for i in fam:
        if (i, i) in transitions:
            continue
        sq, l1, l2 = oracle_pair_legs(site, i, i)
        if l1 != l2:
            raise MissingTransition((i, i))
        fib = transport.fiber(sq.apex)
        e_restr = transport.restrict_obj(l1, d.objects[i])
        transitions[(i, i)] = fib.identity[e_restr]
    for i in fam:
        for j in fam:
            if i == j or (j, i) in transitions:
                continue
            sq, leg_i, leg_j = oracle_pair_legs(site, i, j)
            fib = transport.fiber(sq.apex)
            if (i, j) in transitions:
                inv = fib.inverse(transitions[(i, j)])
                if inv is None:
                    raise MissingTransition((j, i))
                transitions[(j, i)] = inv
                continue
            # matching-family shorthand: equal restrictions glue by identity
            src = transport.restrict_obj(leg_i, d.objects[i])
            tgt = transport.restrict_obj(leg_j, d.objects[j])
            if src != tgt:
                raise MissingTransition((j, i))
            transitions[(j, i)] = fib.identity[src]
    return DescentDatum(d.x, fam, dict(d.objects), transitions)


def oracle_check_transition_typing(site, transport, d: DescentDatum) -> Verdict:
    for (j, i), mor in d.transitions.items():
        sq, leg_i, leg_j = oracle_pair_legs(site, i, j)
        fib = transport.fiber(sq.apex)
        if mor not in fib.morphisms:
            return Verdict(False, "transition not a fiber morphism over the overlap", (j, i))
        want_src = transport.restrict_obj(leg_i, d.objects[i])
        want_tgt = transport.restrict_obj(leg_j, d.objects[j])
        if fib.src(mor) != want_src or fib.tgt(mor) != want_tgt:
            return Verdict(False, "transition has wrong endpoints", (j, i))
        if not fib.is_iso(mor):
            return Verdict(False, "transition not an isomorphism", (j, i))
    return Verdict(True)


def oracle_mediating(site: FiniteSite, base: FinCat, w: str, sq: PullbackSquare,
               leg_a: str, want_a: str, leg_b: str, want_b: str) -> str:
    found = None
    for m in base.hom(w, sq.apex):
        if base.compose(leg_a, m) == want_a and base.compose(leg_b, m) == want_b:
            if found is not None:
                raise MissingPullback(("non-unique mediating morphism", sq.apex))
            found = m
    if found is None:
        raise MissingPullback(("no mediating morphism", sq.apex))
    return found


def oracle_triple_transport(site: FiniteSite, transport: Transport, d: DescentDatum, i, j, k):
    """Transitions of the triple (i, j, k) transported to a common overlap.

    Builds the triple overlap as (overlap of i and j) x_X (piece k),
    produces the mediating maps into the three pairwise overlaps, and
    conjugates each transition by the cleavage coherence so all three
    become morphisms between reference restrictions over the same apex.
    Returns (fiber over apex, A_ij, A_ik, A_kj) where A_pq is the
    transported p -> q transition.
    """
    base = site.base
    sq_ij, leg_i, leg_j = oracle_pair_legs(site, i, j)
    m_ij = base.compose(i, leg_i)
    sq_top = site.chosen_pullback(m_ij, k)
    w = sq_top.apex
    a, b = sq_top.to_left, sq_top.to_right

    c1 = base.compose(leg_i, a)
    c2 = base.compose(leg_j, a)
    c3 = b
    fib_w = transport.fiber(w)

    def transported(is_base_pair, iota_p, iota_q, c_p, c_q):
        sq, lp, lq = oracle_pair_legs(site, iota_p, iota_q)
        u = a if is_base_pair else oracle_mediating(site, base, w, sq, lp, c_p, lq, c_q)
        coh_p = transport.coherence(u, lp, d.objects[iota_p])
        coh_q = transport.coherence(u, lq, d.objects[iota_q])
        moved = transport.restrict_mor(u, d.transitions[(iota_q, iota_p)])
        return fib_w.compose(coh_q, fib_w.compose(moved, fib_w.inverse(coh_p)))

    a_ij = transported(True, i, j, c1, c2)
    a_ik = transported(False, i, k, c1, c3)
    a_kj = transported(False, k, j, c3, c2)
    return fib_w, a_ij, a_ik, a_kj


def oracle_check_cocycle(site: FiniteSite, transport: Transport, d: DescentDatum) -> Verdict:
    """Cocycle condition over every ordered triple, repeats included."""
    d = oracle_complete_datum(site, transport, d)
    typing = oracle_check_transition_typing(site, transport, d)
    if not typing.ok:
        return typing
    for i in d.family:
        sq, l1, l2 = oracle_pair_legs(site, i, i)
        if l1 == l2:
            fib = transport.fiber(sq.apex)
            if not fib.is_identity(d.transitions[(i, i)]):
                return Verdict(False, "diagonal transition not the identity", (i,))
    for i, j, k in itertools.product(d.family, repeat=3):
        fib_w, a_ij, a_ik, a_kj = oracle_triple_transport(site, transport, d, i, j, k)
        if fib_w.compose(a_kj, a_ik) != a_ij:
            return Verdict(False, "cocycle fails", (i, j, k))
    return Verdict(True)


def oracle_comparison_datum(site: FiniteSite, transport: Transport, e: str, x: str, family) -> DescentDatum:
    """Canonical descent datum of a global object over a covering.

    The transitions are the composites of the two cleavage coherence
    isomorphisms through the common restriction to the overlap.
    """
    family = tuple(sorted(family))
    objects = {iota: transport.restrict_obj(iota, e) for iota in family}
    transitions = {}
    for i in family:
        for j in family:
            sq, leg_i, leg_j = oracle_pair_legs(site, i, j)
            fib = transport.fiber(sq.apex)
            coh_i = transport.coherence(leg_i, i, e)
            coh_j = transport.coherence(leg_j, j, e)
            transitions[(j, i)] = fib.compose(fib.inverse(coh_j), coh_i)
    return DescentDatum(x, family, objects, transitions)


def oracle_effectiveness_witnesses(site, transport, d):
    """Every (object e over x, per-piece isomorphisms) inducing the datum, in search order.

    A witness satisfies the defining equation transition(j,i) =
    (a_j restricted) ∘ (canonical comparison of e) ∘ (a_i restricted)^-1
    over every ordered pair.
    """
    cocycle = oracle_check_cocycle(site, transport, d)
    if not cocycle.ok:
        raise CocycleFails(cocycle.witness)
    d = oracle_complete_datum(site, transport, d)
    fib_x = transport.fiber(d.x)
    for e in sorted(fib_x.objects):
        cmp_datum = oracle_comparison_datum(site, transport, e, d.x, d.family)
        iso_choices = []
        for iota in d.family:
            fib_u = transport.fiber(site.base.src(iota))
            e_restr = transport.restrict_obj(iota, e)
            iso_choices.append(
                [m for m in sorted(fib_u.hom(e_restr, d.objects[iota])) if fib_u.is_iso(m)]
            )
        for combo in itertools.product(*iso_choices):
            alphas = dict(zip(d.family, combo))
            if oracle_witnesses_effectiveness(site, transport, d, cmp_datum, alphas):
                yield e, alphas


def oracle_is_effective(site: FiniteSite, transport: Transport, d: DescentDatum):
    """Search for a global object inducing the datum; first witness or None."""
    return next(oracle_effectiveness_witnesses(site, transport, d), None)


def oracle_witnesses_effectiveness(site, transport, d, cmp_datum, alphas) -> bool:
    for i in d.family:
        for j in d.family:
            sq, leg_i, leg_j = oracle_pair_legs(site, i, j)
            fib = transport.fiber(sq.apex)
            ai = transport.restrict_mor(leg_i, alphas[i])
            aj = transport.restrict_mor(leg_j, alphas[j])
            beta = cmp_datum.transitions[(j, i)]
            rhs = fib.compose(aj, fib.compose(beta, fib.inverse(ai)))
            if d.transitions[(j, i)] != rhs:
                return False
    return True


def oracle_all_effectiveness_witnesses(site, transport, d):
    """Every (object, isomorphism family) witnessing effectiveness."""
    return list(oracle_effectiveness_witnesses(site, transport, d))


# -- descent-datum morphisms and the stack verdict ----------------------------


def oracle_datum_morphisms(site, transport, d1: DescentDatum, d2: DescentDatum):
    """All families (f_i) over the pieces commuting with both transition sets."""
    d1 = oracle_complete_datum(site, transport, d1)
    d2 = oracle_complete_datum(site, transport, d2)
    fam = d1.family
    choices = []
    for iota in fam:
        fib_u = transport.fiber(site.base.src(iota))
        choices.append(sorted(fib_u.hom(d1.objects[iota], d2.objects[iota])))
    out = []
    for combo in itertools.product(*choices):
        fs = dict(zip(fam, combo))
        ok = True
        for i in fam:
            for j in fam:
                sq, leg_i, leg_j = oracle_pair_legs(site, i, j)
                fib = transport.fiber(sq.apex)
                lhs = fib.compose(transport.restrict_mor(leg_j, fs[j]), d1.transitions[(j, i)])
                rhs = fib.compose(d2.transitions[(j, i)], transport.restrict_mor(leg_i, fs[i]))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(fs)
    return out


def oracle_all_descent_data(site, transport, x, family):
    """Every descent-shaped datum over the covering (transitions isos, diagonal id)."""
    family = tuple(sorted(family))
    object_choices = [sorted(transport.fiber(site.base.src(iota)).objects) for iota in family]
    for objs in itertools.product(*object_choices):
        objects = dict(zip(family, objs))
        pair_list = [(i, j) for idx, i in enumerate(family) for j in family[idx + 1:]]
        diag_needed = []
        for i in family:
            sq, l1, l2 = oracle_pair_legs(site, i, i)
            if l1 != l2:
                diag_needed.append(i)
        iso_choices = []
        for i, j in pair_list:
            sq, leg_i, leg_j = oracle_pair_legs(site, i, j)
            fib = transport.fiber(sq.apex)
            src = transport.restrict_obj(leg_i, objects[i])
            tgt = transport.restrict_obj(leg_j, objects[j])
            iso_choices.append([m for m in sorted(fib.hom(src, tgt)) if fib.is_iso(m)])
        for i in diag_needed:
            sq, l1, l2 = oracle_pair_legs(site, i, i)
            fib = transport.fiber(sq.apex)
            src = transport.restrict_obj(l1, objects[i])
            tgt = transport.restrict_obj(l2, objects[i])
            iso_choices.append([m for m in sorted(fib.hom(src, tgt)) if fib.is_iso(m)])
        for combo in itertools.product(*iso_choices):
            transitions = {}
            for (i, j), m in zip(pair_list, combo[: len(pair_list)]):
                transitions[(j, i)] = m
            for i, m in zip(diag_needed, combo[len(pair_list):]):
                transitions[(i, i)] = m
            yield DescentDatum(x, family, objects, transitions)


def oracle_stack_verdict(site: FiniteSite, transport: Transport) -> StackVerdict:
    """Comparison-functor verdict over every covering of the site.

    Prestack: for all global pairs the map into descent-datum morphisms
    is bijective.  Stack: additionally every datum passing the cocycle
    check is effective.
    """
    base = site.base
    for x in sorted(base.objects):
        fib_x = transport.fiber(x)
        for fam in site.families(x):
            for e1 in sorted(fib_x.objects):
                c1 = oracle_comparison_datum(site, transport, e1, x, fam)
                for e2 in sorted(fib_x.objects):
                    globals_ = sorted(fib_x.hom(e1, e2))
                    c2 = oracle_comparison_datum(site, transport, e2, x, fam)
                    images = []
                    for u in globals_:
                        images.append(tuple(sorted(
                            (iota, transport.restrict_mor(iota, u)) for iota in fam
                        )))
                    if len(set(images)) != len(images):
                        return StackVerdict("neither", (x, fam, e1, e2, "not faithful"))
                    morphisms = oracle_datum_morphisms(site, transport, c1, c2)
                    keyed = {tuple(sorted(m.items())) for m in morphisms}
                    if set(images) != keyed:
                        return StackVerdict("neither", (x, fam, e1, e2, "not full"))
    for x in sorted(base.objects):
        for fam in site.families(x):
            for datum in oracle_all_descent_data(site, transport, x, fam):
                if not oracle_check_cocycle(site, transport, datum).ok:
                    continue
                if oracle_is_effective(site, transport, datum) is None:
                    return StackVerdict("prestack-only", (x, fam, datum.objects))
    return StackVerdict("stack")


# -- the literal scans the sieve table replaces, verbatim -----------------------------------


def literal_validate_site(site: FiniteSite) -> Verdict:
    """Covering axioms T1-T3 with the first failing instance as witness.

    A pullback that T2 needs and the base lacks raises MissingPullback
    with the instance (x, family, f, iota).
    """
    base = site.base
    for x, fams in site.coverings.items():
        if x not in base.objects:
            return Verdict(False, "covering of unknown object", (x,))
        for fam in fams:
            for iota in fam:
                if iota not in base.morphisms or base.tgt(iota) != x:
                    return Verdict(False, "covering arrow has wrong target", (x, iota))
            if len(set(fam)) != len(fam):
                return Verdict(False, "covering family repeats an arrow", (x, fam))

    # (T1) isomorphism singletons
    for m in base.morphisms:
        if base.is_iso(m) and not site.has_family(base.tgt(m), (m,)):
            return Verdict(False, "T1 fails: isomorphism singleton missing", (m,))

    # (T2) stability under the chosen pullbacks
    for x in base.objects:
        for fam in site.families(x):
            for f in base.into_obj(x):
                pulled = []
                for iota in fam:
                    try:
                        sq = site.chosen_pullback(f, iota)
                    except MissingPullback:
                        raise MissingPullback((x, fam, f, iota)) from None
                    pulled.append(sq.to_left)
                if not site.has_family(base.src(f), pulled):
                    return Verdict(False, "T2 fails: pulled-back family not a covering", (x, fam, f))

    # (T3) composition of coverings.  Whether a choice of one covering per
    # piece composes to a covering depends only on the union of the
    # composites, so the pieces are folded in one at a time and each
    # distinct partial union keeps only its lexicographically first prefix.
    # Two prefixes with one union extend alike, so the first failing choice
    # of the full product survives, and it comes first among the survivors.
    for x in base.objects:
        for fam in site.families(x):
            unions = {frozenset(): ()}
            for iota in fam:
                subs = [
                    (sub, frozenset(base.compose(iota, phi) for phi in sub))
                    for sub in site.families(base.src(iota))
                ]
                grown = {}
                for union, prefix in unions.items():
                    for sub, composed in subs:
                        key = union | composed
                        if key not in grown:
                            grown[key] = prefix + (sub,)
                unions = grown
            for union, choice in unions.items():
                if not site.has_family(x, union):
                    return Verdict(False, "T3 fails: composed family not a covering", (x, fam, choice))
    return Verdict(True)


def literal_stack_verdict(site: FiniteSite, transport: Transport) -> StackVerdict:
    """Comparison-functor verdict over every covering of a site that passed ``validate_site``.

    Prestack: for all global pairs the map into descent-datum morphisms
    is bijective.  Stack: additionally every datum passing the cocycle
    check is effective.

    Descent along a family depends only on the sieve it generates (with
    genuine pullbacks, which ``validate_site`` and ``site_from_json``
    ensure), so two families with one sieve pass or fail together.  Only
    the first family of each sieve over x is compiled and checked, once
    for both halves; a later one could fail only where its first already
    has, so the first failing family and its witness are unchanged.
    """
    base = site.base
    coverings = []
    for x in sorted(base.objects):
        fib_x = transport.fiber(x)
        sieves = set()
        for fam in site.families(x):
            sieve = frozenset(base.compose(iota, k) for iota in fam for k in base.into_obj(base.src(iota)))
            if sieve in sieves:
                continue
            sieves.add(sieve)
            cov = descent._Covering(site, transport, x, fam)
            coverings.append(cov)
            for e1 in sorted(fib_x.objects):
                c1 = cov.comparison(e1)
                for e2 in sorted(fib_x.objects):
                    homs = fib_x.hom(e1, e2)
                    table = fincat.factorization_table(
                        homs, [tuple(transport.restrict_mor(iota, u) for iota in fam) for u in homs]
                    )
                    if table is None:
                        return StackVerdict("neither", (x, fam, e1, e2, "not faithful"))
                    if table.keys() != {tuple(m.values()) for m in cov.morphisms(c1, cov.comparison(e2))}:
                        return StackVerdict("neither", (x, fam, e1, e2, "not full"))
    for cov in coverings:
        for datum in cov.descent_data():
            if next(cov.effectiveness_witnesses(descent.complete_datum(site, transport, datum)), None) is None:
                return StackVerdict("prestack-only", (cov.x, cov.family, datum.objects))
    return StackVerdict("stack")
