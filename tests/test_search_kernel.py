"""The assign-and-check search kernel and the functor search built on it.

``fincat._assignments`` is compared with ``filter`` over
``itertools.product`` on prefix-closed predicates: the same survivors in
the same order, and no rejected prefix ever extended.  ``fincat.functors``
checks each composite where the last of its three arrows is assigned and
never runs ``validate_functor`` itself, so every functor it yields is
checked here against the full definition, and against the brute-force
list of functors on group categories.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tristack import corpus, groups
from tristack.fincat import (
    Functor,
    _assignments,
    functors,
    group_category,
    poset_category,
    validate_functor,
)

HYPOTHESIS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# -- the kernel against filter over the product ----------------------------------


@st.composite
def searches(draw):
    """Per-slot candidate lists (some empty) and a set of rejected prefixes.

    The predicate on a full tuple is "no prefix of it is rejected", which
    is prefix-closed; rejections are drawn at every depth.
    """
    width = draw(st.integers(0, 4))
    lists = [draw(st.lists(st.integers(0, 3), max_size=3)) for _ in range(width)]
    rejected = set()
    for depth in range(1, width + 1):
        for prefix in itertools.product(*lists[:depth]):
            if draw(st.booleans()):
                rejected.add(prefix)
    return width, lists, rejected


def by_product(width, lists, rejected):
    def keeps(t):
        return not any(t[:k] in rejected for k in range(1, width + 1))

    return list(filter(keeps, itertools.product(*lists)))


class TestAssignments:
    @HYPOTHESIS
    @given(searches())
    def test_same_survivors_in_product_order(self, search):
        width, lists, rejected = search
        asked, accepted = [], {()}

        def choices(values):
            asked.append(tuple(values))
            return lists[len(values)]

        def accept(values):
            prefix = tuple(values)
            assert prefix[:-1] in accepted  # a rejected prefix is never extended
            if prefix in rejected:
                return False
            accepted.add(prefix)
            return True

        got = list(_assignments(width, choices, accept))
        assert got == by_product(width, lists, rejected)
        assert all(prefix in accepted for prefix in asked)

    def test_width_zero_yields_the_empty_assignment(self):
        assert list(_assignments(0, lambda values: [1, 2], lambda values: False)) == [()]

    def test_an_empty_slot_ends_every_branch(self):
        lists = [[0, 1], [], [0]]
        assert list(_assignments(3, lambda values: lists[len(values)], lambda values: True)) == []

    def test_candidates_may_depend_on_the_prefix(self):
        # strictly increasing triples from range(5): the candidates after a
        # prefix start above its last value
        def choices(values):
            return range(values[-1] + 1 if values else 0, 5)

        got = list(_assignments(3, choices, lambda values: True))
        assert got == list(itertools.combinations(range(5), 3))

    def test_deep_search_does_not_recurse(self):
        width = 5000
        assert list(_assignments(width, lambda values: [len(values)], lambda values: True)) == [tuple(range(width))]


# -- every functor the search yields is a functor --------------------------------


def brute_force_functors(dom, cod, injective=False):
    """Every arrow assignment of dom into cod that ``validate_functor`` accepts."""
    objs = sorted(dom.objects)
    slots = [dom.identity[o] for o in objs]
    slots += sorted(m for m in dom.morphisms if not dom.is_identity(m))
    found = []
    for images in itertools.product(sorted(cod.morphisms), repeat=len(slots)):
        if not all(cod.is_identity(images[d]) for d in range(len(objs))):
            continue
        if injective and len(set(images)) != len(images):
            continue
        cand = Functor(dom, cod, {o: cod.src(images[d]) for d, o in enumerate(objs)}, dict(zip(slots, images)))
        if validate_functor(cand).ok:
            found.append(cand)
    return found


def maps(funs):
    return [(f.obj_map, f.mor_map) for f in funs]


def all_of(dom, cod, injective=False):
    return list(functors(dom, cod, dict.fromkeys(dom.objects, cod.objects), injective=injective))


def assert_functors(funs, injective=False):
    for f in funs:
        assert validate_functor(f).ok
        if injective:
            assert len(set(f.mor_map.values())) == len(f.mor_map)


def s3_category():
    grp = groups.group_s3()
    # the stock table reads "a then b"; group_category wants a∘b
    return group_category(grp.elements, {(a, b): grp.mul(b, a) for a in grp.elements for b in grp.elements}, "s")


@st.composite
def posets(draw, max_objects=4):
    n = draw(st.integers(1, max_objects))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return poset_category(pairs, objects=names)


class TestEveryYieldIsAFunctor:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(posets(), posets(), st.booleans())
    def test_hypothesis_posets(self, c, d, injective):
        got = all_of(c, d, injective)
        assert_functors(got, injective)
        if len(d.morphisms) ** len(c.morphisms) <= 5000:
            assert maps(got) == maps(brute_force_functors(c, d, injective))

    def test_group_categories(self):
        s3, z3 = s3_category(), corpus.z3_category()
        # homomorphisms S3 -> S3, S3 -> Z3, Z3 -> S3 and Z3 -> Z3
        for dom, cod, count in ((s3, s3, 10), (s3, z3, 1), (z3, s3, 3), (z3, z3, 3)):
            got = all_of(dom, cod)
            assert len(got) == count
            assert_functors(got)
            assert maps(got) == maps(brute_force_functors(dom, cod))

    def test_injective_group_categories(self):
        s3, z3 = s3_category(), corpus.z3_category()
        # automorphisms of S3 and of Z3, and the two embeddings of Z3 in S3
        for dom, cod, count in ((s3, s3, 6), (z3, z3, 2), (z3, s3, 2), (s3, z3, 0)):
            got = all_of(dom, cod, injective=True)
            assert len(got) == count
            assert_functors(got, injective=True)
            assert maps(got) == maps(brute_force_functors(dom, cod, injective=True))
