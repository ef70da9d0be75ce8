"""Differential and count tests of the exact triple fast paths.

``trigeo._interior`` decides the cone on integers, ``trigeo.act`` skips
the constructor's check, ``families._chart_candidates`` walks the two
charts' breakpoints once, and every loader reads rationals through one
memoised ``trigeo.RationalReader``.  Each is checked against the plain
``Fraction`` definition it replaces; the count tests pin that a load
checks every parsed triple once and parses every distinct text once.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tristack import corpus, deform, families, torsor, trigeo
from tristack.cli import main
from tristack.families import FamilyError, _chart_candidates, graph, make_chart, path_value
from tristack.trigeo import PERMS, NotInM, RationalReader, TriangleLengths, act, act_tuple, compose, inverse

F = Fraction
HYPOTHESIS = settings(max_examples=300, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow])


def fraction_interior(x, y, z):
    """The cone M as first written, on Fraction arithmetic."""
    return x > 0 and y > 0 and z > 0 and x + y > z and x + z > y and y + z > x


# large primes keep denominators coprime, so cross-multiplying cannot cancel
PRIMES = (2, 3, 7, 1_000_003, 998_244_353, 2**61 - 1, 10**30 + 57)
numerators = st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40))
denominators = st.one_of(st.sampled_from(PRIMES), st.integers(1, 10**40))
rationals = st.builds(Fraction, numerators, denominators)


@st.composite
def boundary_triples(draw):
    """Degenerate triples: one length the sum or the difference of the others."""
    x, y = draw(rationals), draw(rationals)
    z = draw(st.sampled_from((x + y, x - y, y - x, F(0), -x)))
    return draw(st.permutations((x, y, z)))


@st.composite
def interior_triples(draw):
    x = draw(st.builds(Fraction, st.integers(1, 10**20), st.sampled_from(PRIMES)))
    y = draw(st.builds(Fraction, st.integers(1, 10**20), st.sampled_from(PRIMES)))
    lam = draw(st.builds(Fraction, st.integers(1, 10**6 - 1), st.just(10**6)))
    lo, hi = abs(x - y), x + y
    return TriangleLengths(x, y, lo + lam * (hi - lo))


def outcome(make, *args):
    """What a constructor does with args: the point it builds, or the type and args of its NotInM."""
    try:
        return make(*args)
    except NotInM as err:
        return type(err), err.args


def assert_cone_paths(t):
    """Every path that decides the cone agrees with the Fraction definition on t.

    ``_interior`` on the numerators and denominators, ``in_M``, the checked
    constructor and the file reader, which runs the cone test on its memoised
    integers and builds the point without the constructor.
    """
    inside = fraction_interior(*t)
    assert trigeo._interior(*(n for v in t for n in (v.numerator, v.denominator))) == inside
    assert trigeo.in_M(t) == inside
    built = outcome(TriangleLengths, *t)
    read = outcome(RationalReader(FamilyError).lengths, [str(v) for v in t], "w")
    if inside:
        assert type(built) is type(read) is TriangleLengths
        assert built.astuple() == read.astuple() == t and hash(built) == hash(read) and repr(built) == repr(read)
    else:
        assert built == read == (NotInM, (f"({t[0]}, {t[1]}, {t[2]}) is not an interior triangle triple",))


class TestIntegerCone:
    @HYPOTHESIS
    @given(st.tuples(rationals, rationals, rationals))
    def test_random_triples(self, t):
        assert_cone_paths(t)

    @HYPOTHESIS
    @given(boundary_triples())
    def test_boundary_triples(self, t):
        assert_cone_paths(tuple(t))

    @HYPOTHESIS
    @given(interior_triples())
    def test_interior_triples_and_nudges(self, t):
        x, y, z = t.astuple()
        assert fraction_interior(x, y, z)
        assert_cone_paths((x, y, z))
        eps = F(1, 10**50 + 7)
        for nudged in ((x + y, y, z), (x, x + z - eps, z), (x, y, x + y + eps), (-x, y, z)):
            assert_cone_paths(nudged)

    def test_edge_cases(self):
        for t in [(0, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (-1, -1, -1), (F(1, 2), F(1, 3), F(5, 6)),
                  (F(1, 2), F(1, 3), F(5, 6) - F(1, 10**40)), (F(10**30 + 57, 7), F(1, 2**61 - 1), F(10**30 + 57, 7))]:
            assert_cone_paths(tuple(F(v) for v in t))


class TestActWithoutRecheck:
    @HYPOTHESIS
    @given(interior_triples())
    def test_matches_validated_constructor(self, t):
        for g in PERMS:
            fast, checked = act(g, t), TriangleLengths(*act_tuple(g, t.astuple()))
            assert type(fast) is TriangleLengths
            assert fast == checked and hash(fast) == hash(checked) and repr(fast) == repr(checked)
            assert fast.astuple() == checked.astuple()
            assert all(type(v) is Fraction for v in fast.astuple())
            assert not fast < checked and not checked < fast
            for h in PERMS:
                assert act(g, act(h, t)) == act(compose(g, h), t)

    def test_act_never_checks_the_cone(self, monkeypatch):
        t = TriangleLengths(3, 4, 5)
        calls = []
        monkeypatch.setattr(trigeo, "_interior", lambda *a: calls.append(a) or True)
        assert [act(g, t).astuple() for g in PERMS] == [act_tuple(g, (F(3), F(4), F(5))) for g in PERMS]
        assert calls == []


def brute_candidates(f_chart, g_chart):
    ts = sorted({t for t, _ in f_chart} | {t for t, _ in g_chart})
    return [tau for tau in PERMS
            if all(act_tuple(tau, path_value(f_chart, t)) == path_value(g_chart, t) for t in ts)]


@st.composite
def chart_pairs(draw):
    """Two charts over different breakpoints; g is often f relabelled by some tau.

    g's breakpoints are f's plus extra points inside f's segments, where g
    takes f's interpolated value, so the two agree under tau unless one of
    g's values is redrawn.
    """
    fibers = [TriangleLengths(3, 4, 5), TriangleLengths(2, 2, 3), TriangleLengths(1, 1, 1),
              TriangleLengths(4, 5, 6), TriangleLengths(5, 4, 3)]
    inner = sorted(set(draw(st.lists(st.sampled_from([F(k, 12) for k in range(1, 12)]), max_size=4))))
    f_chart = tuple([(F(0), draw(st.sampled_from(fibers)))] + [(t, draw(st.sampled_from(fibers))) for t in inner]
                    + [(F(1), draw(st.sampled_from(fibers)))])
    tau = draw(st.sampled_from(PERMS))
    extra = set(draw(st.lists(st.sampled_from([F(k, 24) for k in range(1, 24, 2)]), max_size=3)))
    g_times = sorted({t for t, _ in f_chart} | extra)
    g_chart = tuple((t, TriangleLengths(*act_tuple(tau, path_value(f_chart, t)))) for t in g_times)
    if draw(st.booleans()):
        # break agreement at one breakpoint of g
        k = draw(st.integers(0, len(g_chart) - 1))
        g_chart = g_chart[:k] + ((g_chart[k][0], draw(st.sampled_from(fibers))),) + g_chart[k + 1:]
    return (f_chart, g_chart) if draw(st.booleans()) else (g_chart, f_chart)


class TestChartCandidatesMergeWalk:
    @HYPOTHESIS
    @given(chart_pairs())
    def test_matches_evaluation_at_every_joint_breakpoint(self, pair):
        f_chart, g_chart = pair
        assert _chart_candidates(f_chart, g_chart) == brute_candidates(f_chart, g_chart)

    def test_interpolated_point_decides(self):
        # g has an extra breakpoint at 1/2 off f's segment: only there do they differ
        f_chart = ((F(0), TriangleLengths(3, 4, 5)), (F(1), TriangleLengths(3, 4, 5)))
        g_chart = ((F(0), TriangleLengths(3, 4, 5)), (F(1, 2), TriangleLengths(3, 5, 4)), (F(1), TriangleLengths(3, 4, 5)))
        assert _chart_candidates(f_chart, g_chart) == brute_candidates(f_chart, g_chart) == []
        assert _chart_candidates(f_chart, f_chart) == ["e"]


class TestRationalReader:
    def test_accepts_ints_and_p_over_q(self):
        read = RationalReader(FamilyError)
        assert [read.rational(v, "w") for v in (3, -2, "7", "+7", "-3/6", "0", "10/4")] == [
            F(3), F(-2), F(7), F(7), F(-1, 2), F(0), F(5, 2)]

    @pytest.mark.parametrize("value", [0.5, 1.0, True, None, [1], "0.5", "5e-1", "1e3", ".5", "1/", "/2",
                                       "1/-2", " 1", "1 ", "1\n", "0x10", "inf", "nan", "1_0", ""])
    def test_rejects_everything_else(self, value):
        with pytest.raises(FamilyError, match="^edge e3: "):
            RationalReader(FamilyError).rational(value, "edge e3")

    def test_zero_denominator_names_the_text(self):
        with pytest.raises(FamilyError, match=r"^vertex p: '1/0' divides by zero$"):
            RationalReader(FamilyError).rational("1/0", "vertex p")

    def test_float_key_cannot_hit_an_int_memo(self):
        read = RationalReader(FamilyError)
        read.rational("1", "w")
        read.rational(1, "w")
        with pytest.raises(FamilyError):
            read.rational(1.0, "w")

    def test_lengths_shape_and_cone(self):
        read = RationalReader(FamilyError)
        assert read.lengths(["3", 4, "5/1"], "w") == TriangleLengths(3, 4, 5)
        with pytest.raises(FamilyError, match="not a triple"):
            read.lengths(["3", "4"], "w")
        with pytest.raises(NotInM):
            read.lengths(["1", "1", "2"], "w")

    def test_parse_lengths_rejects_decimals(self):
        with pytest.raises(ValueError, match="not a rational"):
            trigeo.parse_lengths("0.5", "1/2", "1/2")


# -- the reader's one-frame kernel against the definitions it inlines ----------------


@st.composite
def spelled(draw, q):
    """One ASCII spelling of the rational q: its own text, an unreduced p/q, a signed one, or a JSON int."""
    k = draw(st.integers(1, 4))
    forms = [str(q), f"{q.numerator * k}/{q.denominator * k}"]
    if q >= 0:
        forms.append(f"+{q}")
    if q.denominator == 1:
        forms.append(q.numerator)
    return draw(st.sampled_from(forms))


small = st.builds(Fraction, st.integers(-12, 40), st.integers(1, 12))


@st.composite
def length_texts(draw):
    """Three spelled lengths, often on the boundary of M or close to it."""
    x, y = draw(small), draw(small)
    z = draw(st.one_of(small, st.sampled_from((x + y, abs(x - y), x + y - F(1, 12), F(0)))))
    return [draw(spelled(v)) for v in draw(st.permutations((x, y, z)))]


@st.composite
def chart_texts(draw):
    """Chart points with spelled times: rising from 0 to 1, or disordered, repeated or with wrong ends."""
    inner = sorted(set(draw(st.lists(st.builds(Fraction, st.integers(1, 11), st.just(12)), max_size=3))))
    times = [F(0), *inner, F(1)]
    if draw(st.booleans()):
        times = draw(st.lists(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(-1), F(2)]), max_size=4))
    inside = st.sampled_from([(F(3), F(4), F(5)), (F(1, 2), F(1, 2), F(1, 2)), (F(7, 12), F(2, 3), F(1))])

    def lengths():
        # mostly interior, so that the time checks decide
        if draw(st.integers(0, 7)):
            return [draw(spelled(v)) for v in draw(st.permutations(draw(inside)))]
        return draw(length_texts())

    return [{"t": draw(spelled(t)), "lengths": lengths()} for t in times]


def kernel_outcome(make, *args):
    """What a reader or a constructor does with args: the value it builds, or the type of what it raises."""
    try:
        return make(*args)
    except Exception as err:  # the comparison is of the exception type
        return type(err)


class TestReaderKernel:
    @HYPOTHESIS
    @given(length_texts())
    def test_lengths_is_the_checked_constructor(self, texts):
        read = RationalReader(FamilyError)
        want = kernel_outcome(TriangleLengths, *(Fraction(v) for v in texts))
        # the first read parses every text; the second finds each in the memo
        for got in (kernel_outcome(read.lengths, texts, "w"), kernel_outcome(read.lengths, texts, "w")):
            assert got == want
            if type(want) is TriangleLengths:
                assert type(got) is TriangleLengths and got.astuple() == want.astuple()
                assert all(type(v) is Fraction for v in got) and hash(got) == hash(want) and repr(got) == repr(want)

    @HYPOTHESIS
    @given(chart_texts())
    def test_chart_is_make_chart(self, points):
        read = RationalReader(FamilyError)
        want = kernel_outcome(make_chart, [(Fraction(pt["t"]), [Fraction(v) for v in pt["lengths"]]) for pt in points])
        for got in (kernel_outcome(read.chart, points, "w"), kernel_outcome(read.chart, points, "w")):
            assert got == want
            if type(want) is tuple:
                assert [(type(t), type(v)) for t, v in got] == [(Fraction, TriangleLengths)] * len(want)

    def test_chart_time_faults_come_after_every_point(self):
        read = RationalReader(FamilyError)
        bad_order = [{"t": "1/2", "lengths": ["3", "4", "5"]}, {"t": "0", "lengths": ["1", "1", "2"]}]
        with pytest.raises(NotInM):
            read.chart(bad_order, "w")
        with pytest.raises(FamilyError, match="^chart must start at 0 and end at 1$"):
            read.chart([], "w")
        with pytest.raises(FamilyError, match="^chart times must increase strictly$"):
            read.chart([{"t": t, "lengths": [3, 4, 5]} for t in (0, "1/2", "2/4", 1)], "w")

    def test_a_place_is_joined_only_in_the_message(self):
        read = RationalReader(FamilyError)
        assert read.lengths(["3", "4", "5"], ("vertex", "v1")) == TriangleLengths(3, 4, 5)
        with pytest.raises(FamilyError, match=r"^edge e3: '1/0' divides by zero$"):
            read.chart([{"t": 0, "lengths": ["3", "4", "1/0"]}], ("edge", "e3"))
        with pytest.raises(FamilyError, match=r"^vertex v1: \['3', '4'\] is not a triple of lengths$"):
            read.lengths(["3", "4"], ("vertex", "v1"))


FLOAT_FAMILY = {"vertices": [{"id": "p", "lengths": [0.5, "0.5", "5e-1"]}], "edges": []}


class TestLoadersRejectInexactText:
    def test_family_vertex(self):
        with pytest.raises(FamilyError, match=r"^vertex p: 0\.5 is not an integer"):
            families.family_from_json(FLOAT_FAMILY)
        raw = {"vertices": [{"id": "p", "lengths": ["1/2", "0.5", "1/2"]}], "edges": []}
        with pytest.raises(FamilyError, match=r"^vertex p: '0\.5' is not a rational p/q$"):
            families.family_from_json(raw)

    def test_family_chart_time(self):
        raw = families.family_to_json(families.fixture_mobius())
        eid = raw["edges"][0]["id"]
        raw["edges"][0]["chart"][1]["t"] = "5e-1"
        with pytest.raises(FamilyError, match=f"^edge {eid}: '5e-1'"):
            families.family_from_json(raw)

    def test_torsor_pair(self):
        pair = torsor.family_to_torsor_pair(families.fixture_mobius())
        raw = torsor.pair_to_json(pair)
        assert torsor.pair_to_json(torsor.pair_from_json(json.loads(json.dumps(raw)))) == raw
        v = next(iter(raw["equivariant"]))
        raw["equivariant"][v]["(AB)"][0] = 1.0
        with pytest.raises(FamilyError, match=rf"^vertex {v} sheet \(AB\): 1\.0"):
            torsor.pair_from_json(raw)

    def test_deformation_triangle(self):
        d = corpus.deformation_corpus(seed=1, n=1)[0]
        raw = deform.deformation_to_json(d)
        assert deform.deformation_from_json(json.loads(json.dumps(raw))) == d
        raw["triangle"][2] = "1/0"
        with pytest.raises(FamilyError, match="^triangle: '1/0' divides by zero$"):
            deform.deformation_from_json(raw)

    def test_cli_exits_two_naming_vertex_and_text(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(FLOAT_FAMILY))
        assert main(["orientable", str(p)]) == 2
        assert "vertex p: 0.5 is not an integer" in capsys.readouterr().out
        p.write_text(json.dumps({"vertices": [{"id": "p", "lengths": ["1/0", "1", "1"]}], "edges": []}))
        assert main(["orientable", str(p)]) == 2
        assert "vertex p: '1/0' divides by zero" in capsys.readouterr().out


# -- count guard --------------------------------------------------------------------


def random_path_family(n, seed=7):
    """A path family with random glue and a breakpoint on every other edge."""
    rng = random.Random(seed)
    vertices = [f"v{i:04d}" for i in range(n + 1)]
    base = graph(vertices, [(f"e{i:04d}", vertices[i], vertices[i + 1]) for i in range(n)])
    fiber = {v: corpus.random_interior_triple(rng) for v in vertices}
    gf = {eid: rng.choice(PERMS) for eid in base.edges}
    gt = {eid: rng.choice(PERMS) for eid in base.edges}
    charts = {}
    for i, (eid, e) in enumerate(base.edges.items()):
        mid = ((F(rng.randint(1, 7), 8), corpus.random_interior_triple(rng)),) if i % 2 == 0 else ()
        charts[eid] = ((F(0), act(inverse(gf[eid]), fiber[e.frm])),) + mid + ((F(1), act(inverse(gt[eid]), fiber[e.to])),)
    return families.family(base, fiber, charts, gf, gt)


class TestLoadCounts:
    def test_one_cone_check_per_triple_and_one_parse_per_text(self, monkeypatch):
        raw = json.loads(json.dumps(families.family_to_json(random_path_family(2000))))
        triples = [v["lengths"] for v in raw["vertices"]] + [pt["lengths"] for e in raw["edges"] for pt in e["chart"]]
        texts = {s for t in triples for s in t} | {pt["t"] for e in raw["edges"] for pt in e["chart"]}
        assert len(triples) == 2001 + 3000 + 2000

        # the reader runs the cone test inline, once per lengths call; the
        # checked constructor's _interior must not run again on any point
        reads, checks, parses = [], [], Counter()
        read_lengths, interior, from_text = RationalReader.lengths, trigeo._interior, trigeo.rational_from_text

        def counting_lengths(self, values, where):
            reads.append(values)
            return read_lengths(self, values, where)

        def counting_interior(*t):
            checks.append(t)
            return interior(*t)

        def counting_from_text(text, where, error):
            parses[text] += 1
            return from_text(text, where, error)

        monkeypatch.setattr(RationalReader, "lengths", counting_lengths)
        monkeypatch.setattr(trigeo, "_interior", counting_interior)
        monkeypatch.setattr(trigeo, "rational_from_text", counting_from_text)
        fam = families.family_from_json(raw)
        assert reads == triples and checks == []
        assert set(parses) == texts and max(parses.values()) == 1
        assert families.family_to_json(fam) == raw
