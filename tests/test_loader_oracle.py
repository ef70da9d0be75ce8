"""The family loader against the loader it replaced.

``oracle_family_from_json`` is ``families.family_from_json`` as it was
before the memoised rational reader, the integer cone test and the
object-free glue check: ``Fraction`` on every text, the constructor's
check on every triple, and glue compared through validated permuted
triples.  On valid files the two must give equal families (same dict
order, same fibers); on corrupted files the same first error, by type and
arguments.  Inexact text (floats, decimals) is outside this comparison:
the old loader accepted it and the new one rejects it.  Those faults, and
the others the old loader met with bare Python errors, are pinned on
their own (``TestValueFaults``).

``oracle_pair_from_json`` is ``torsor.pair_from_json`` as it was before
``RationalReader.chart``: every chart point read one by one, then
``make_chart``.  It is compared the same way, on valid and changed
``charts`` entries (inexact text included: both readers reject it).
"""

import json
import math
import random
from fractions import Fraction

import pytest

from tristack import corpus, families, torsor
from tristack.families import (
    BaseGraph,
    Edge,
    FamilyError,
    FiberNotInM,
    GlueInconsistent,
    PLFamily,
    make_chart,
)
from tristack.records import read
from tristack.trigeo import PERMS, NotInM, RationalReader, TriangleLengths, act, act_tuple


def _checked_lengths(sx, sy, sz):
    x, y, z = Fraction(sx), Fraction(sy), Fraction(sz)
    if not (x > 0 and y > 0 and z > 0 and x + y > z and x + z > y and y + z > x):
        raise NotInM(f"({x}, {y}, {z}) is not an interior triangle triple")
    return TriangleLengths(x, y, z)


def _act(g, t):
    return _checked_lengths(*act_tuple(g, t.astuple()))


def oracle_family_from_json(raw):
    vertices = [v["id"] for v in raw["vertices"]]
    edges = [Edge(e["id"], e["from"], e["to"]) for e in raw["edges"]]
    base = BaseGraph(vertices, edges)
    vl, charts = {}, {}
    for v in raw["vertices"]:
        try:
            vl[v["id"]] = _checked_lengths(*v["lengths"])
        except NotInM as err:
            raise FiberNotInM((v["id"], v["lengths"])) from err
    for e in raw["edges"]:
        try:
            charts[e["id"]] = make_chart(
                [(Fraction(pt["t"]), _checked_lengths(*pt["lengths"])) for pt in e["chart"]]
            )
        except NotInM as err:
            raise FiberNotInM((e["id"], e["chart"])) from err
    gf = {e["id"]: e.get("glueFrom", "e") for e in raw["edges"]}
    gt = {e["id"]: e.get("glueTo", "e") for e in raw["edges"]}
    for eid, e in base.edges.items():
        for g in (gf[eid], gt[eid]):
            if g not in PERMS:
                raise FamilyError(f"edge {eid} glue {g} is not a permutation label")
        if _act(gf[eid], charts[eid][0][1]) != vl[e.frm]:
            raise GlueInconsistent(e.frm)
        if _act(gt[eid], charts[eid][-1][1]) != vl[e.to]:
            raise GlueInconsistent(e.to)
    return PLFamily(base, vl, charts, gf, gt)


def outcome(load, raw):
    try:
        fam = load(json.loads(json.dumps(raw)))
    except Exception as err:  # the comparison is of whatever is raised first
        return ("raised", type(err), err.args)
    return ("loaded", fam, list(fam.vertex_lengths), list(fam.charts),
            [repr(t) for t in fam.vertex_lengths.values()])


def assert_same_outcome(raw):
    new, old = outcome(families.family_from_json, raw), outcome(oracle_family_from_json, raw)
    assert new == old
    return new[0]


def corpus_files():
    fams = corpus.family_corpus(seed=11, n=40)
    fams += [d.family for d in corpus.deformation_corpus(seed=4, n=10)]
    return [families.family_to_json(f) for f in fams]


def _degenerate(triple):
    x, y = Fraction(triple[0]), Fraction(triple[1])
    return [str(x), str(y), str(x + y)]


KINDS = ["fiber", "point", "order", "start", "end", "glue", "label", "endpoint", "two",
         "twice", "int-ends", "spelled-ends", "int-end"]
# valid files with their end times written another way: these must still load
RESPELLINGS = {"int-ends", "spelled-ends"}


def corrupt(rng, raw):
    """One random corruption of a valid family file, in place; returns its kind."""
    kind = rng.choice(KINDS)
    e = rng.choice(raw["edges"]) if raw["edges"] else None
    if kind == "fiber" or e is None:
        kind = "fiber"
        v = rng.choice(raw["vertices"])
        v["lengths"] = _degenerate(v["lengths"])
    elif kind == "point":
        pt = rng.choice(e["chart"])
        pt["lengths"] = _degenerate(pt["lengths"])
    elif kind == "order":
        e["chart"].insert(1, dict(e["chart"][rng.randrange(len(e["chart"]) - 1)]))
    elif kind == "start":
        e["chart"][0]["t"] = "1/3"
    elif kind == "end":
        e["chart"][-1]["t"] = rng.choice(["2", "-1", "3/4", "1/2"])
    elif kind == "glue":
        key = rng.choice(["glueFrom", "glueTo"])
        e[key] = rng.choice([g for g in PERMS if g != e[key]])
    elif kind == "label":
        e[rng.choice(["glueFrom", "glueTo"])] = "(XY)"
    elif kind == "endpoint":
        e["to"] = "nowhere"
    elif kind == "twice":
        # one inner time written two ways
        e["chart"][1:-1] = [dict(e["chart"][0], t="1/2"), dict(e["chart"][0], t="2/4")]
    elif kind == "int-ends":
        e["chart"][0]["t"], e["chart"][-1]["t"] = 0, 1
    elif kind == "spelled-ends":
        e["chart"][0]["t"], e["chart"][-1]["t"] = "0/7", "4/4"
    elif kind == "int-end":
        e["chart"][-1]["t"] = 2
    else:
        # a bad chart on a later edge and a bad fiber: the fiber is read first
        raw["edges"][-1]["chart"][0]["lengths"] = _degenerate(raw["edges"][-1]["chart"][0]["lengths"])
        v = rng.choice(raw["vertices"])
        v["lengths"] = _degenerate(v["lengths"])
    return kind


class TestLoaderOracle:
    def test_seeded_corpus_loads_equal(self):
        for raw in corpus_files():
            assert assert_same_outcome(raw) == "loaded"

    def test_corrupted_files_raise_the_same_first_error(self):
        rng = random.Random(2)
        files = corpus_files()
        kinds = {}
        for _ in range(400):
            raw = json.loads(json.dumps(rng.choice(files)))
            kind = corrupt(rng, raw)
            status = assert_same_outcome(raw)
            kinds.setdefault(kind, set()).add(status)
        # every kind was tried; each respelling loaded every time, and each
        # other corruption made at least one file fail
        assert set(kinds) == set(KINDS)
        assert all(kinds[kind] == {"loaded"} for kind in RESPELLINGS)
        assert all("raised" in statuses for kind, statuses in kinds.items() if kind not in RESPELLINGS)


# -- value faults, pinned without the oracle ----------------------------------------------
# The kinds PAIR_KINDS has and KINDS lacks, each put on a vertex fiber and on
# a chart point.  The oracle read floats and decimal text, and failed on the
# rest with bare Python errors, so these outcomes are pinned directly: a
# FamilyError that names the vertex or edge and the value.  JSON-integer
# lengths must load, equal to the oracle's family.

VALUE_KINDS = ["float", "bool", "decimal", "zero", "two", "non-list", "ints"]
BAD_VALUES = {"float": [0.5, 1.0, 0.0, -2.0], "bool": [True, False], "decimal": ["0.5", "1e0", " 1", "3.", "1_0"],
              "zero": ["1/0", "0/0", "-3/0"]}
BAD_TRIPLES = {"two": lambda t: t[:2], "non-list": lambda t: "/".join(t)}


def integral(raw):
    """The file with every length multiplied by one integer: still valid, every length an integer text."""
    triples = [v["lengths"] for v in raw["vertices"]] + [pt["lengths"] for e in raw["edges"] for pt in e["chart"]]
    scale = math.lcm(*(Fraction(s).denominator for t in triples for s in t))
    for t in triples:
        t[:] = [str(Fraction(s) * scale) for s in t]
    return raw


def put_value(rng, raw, kind, on):
    """Puts a ``kind`` value on one vertex fiber or one chart point; returns the place and the value."""
    if on == "vertex":
        v = rng.choice(raw["vertices"])
        holder, place = v, f"vertex {v['id']}"
    else:
        e = rng.choice(raw["edges"])
        holder, place = rng.choice(e["chart"]), f"edge {e['id']}"
    if kind == "ints":
        holder["lengths"] = [int(s) for s in holder["lengths"]]
        return place, None
    if kind in BAD_TRIPLES:
        holder["lengths"] = value = BAD_TRIPLES[kind](holder["lengths"])
        return place, value
    value = rng.choice(BAD_VALUES[kind])
    if on == "point" and rng.random() < 0.5:
        holder["t"] = value
    else:
        holder["lengths"][rng.randrange(3)] = value
    return place, value


class TestValueFaults:
    def test_value_faults_name_their_place_and_value(self):
        rng = random.Random(5)
        files = [raw for raw in corpus_files() if raw["edges"]]
        seen = set()
        for _ in range(300):
            kind, on = rng.choice(VALUE_KINDS), rng.choice(["vertex", "point"])
            raw = json.loads(json.dumps(rng.choice(files)))
            place, value = put_value(rng, integral(raw) if kind == "ints" else raw, kind, on)
            if kind == "ints":
                assert assert_same_outcome(raw) == "loaded"
            else:
                with pytest.raises(FamilyError) as err:
                    families.family_from_json(raw)
                assert type(err.value) is FamilyError
                assert str(err.value).startswith(f"{place}: {value!r} "), (str(err.value), place, value)
            seen.add((kind, on))
        assert seen == {(kind, on) for kind in VALUE_KINDS for on in ("vertex", "point")}


# -- the torsor-pair loader -------------------------------------------------------------


def oracle_pair_from_json(raw):
    """``torsor.pair_from_json`` before ``RationalReader.chart``: ``make_chart`` over points read one by one."""
    cocycle = torsor.torsor_from_json(raw)
    return read(raw, torsor.PAIR, lambda raw: oracle_pair_from_records(raw, cocycle), torsor.TorsorError)


def oracle_pair_from_records(raw, cocycle):
    rd = RationalReader(FamilyError)

    def lengths(values, where):
        if not isinstance(values, (list, tuple)) or len(values) != 3:
            raise FamilyError(f"{where}: {values!r} is not a triple of lengths")
        return TriangleLengths(rd.rational(values[0], where), rd.rational(values[1], where),
                               rd.rational(values[2], where))

    refs = {}
    for v, table in raw["equivariant"].items():
        ref = lengths(table["e"], f"vertex {v} sheet e")
        for s in PERMS:
            if lengths(table[s], f"vertex {v} sheet {s}") != act(torsor.perm_inverse(s), ref):
                raise torsor.InvalidPair(("equivariance fails", v, s))
        refs[v] = ref
    charts = {}
    for e, pts in raw["charts"].items():
        where = f"edge {e}"
        charts[e] = make_chart([(rd.rational(pt["t"], where), lengths(pt["lengths"], where)) for pt in pts])
    pair = torsor.TorsorPair(cocycle, refs, charts, dict(raw["glueFrom"]), dict(raw["glueTo"]))
    return torsor.validate_pair(pair)


def pair_outcome(load, raw):
    try:
        pair = load(json.loads(json.dumps(raw)))
    except Exception as err:  # the comparison is of whatever is raised first
        return ("raised", type(err), err.args)
    # the base has no equality of its own, so the pair is compared as its file
    return ("loaded", torsor.pair_to_json(pair), pair.charts, list(pair.charts),
            [[(repr(t), repr(v)) for t, v in chart] for chart in pair.charts.values()])


def pair_files():
    fams = corpus.family_corpus(seed=5, n=30) + [families.fixture_mobius()]
    return [torsor.pair_to_json(torsor.family_to_torsor_pair(f)) for f in fams]


PAIR_KINDS = ["point", "order", "start", "end", "twice", "int-ends", "spelled-ends", "float", "decimal",
              "shape", "empty", "missing", "zero"]


def corrupt_pair_chart(rng, raw):
    """One random change to one ``charts`` entry of a valid pair file, in place; returns its kind."""
    kind = rng.choice(PAIR_KINDS)
    pts = raw["charts"][rng.choice(sorted(raw["charts"]))]
    pt = rng.choice(pts)
    if kind == "point":
        pt["lengths"] = _degenerate(pt["lengths"])
    elif kind == "order":
        pts.insert(1, dict(pts[rng.randrange(len(pts) - 1)]))
    elif kind == "start":
        pts[0]["t"] = "1/3"
    elif kind == "end":
        pts[-1]["t"] = rng.choice(["2", "-1", "3/4", "1/2", 2])
    elif kind == "twice":
        pts[1:-1] = [dict(pts[0], t="1/2"), dict(pts[0], t="2/4")]
    elif kind == "int-ends":
        pts[0]["t"], pts[-1]["t"] = 0, 1
    elif kind == "spelled-ends":
        pts[0]["t"], pts[-1]["t"] = "0/7", "4/4"
    elif kind == "float":
        pt["t"] = rng.choice([0.5, 0.0, True])
    elif kind == "decimal":
        pt["t"] = rng.choice(["0.5", "1e0", " 1"])
    elif kind == "shape":
        pt["lengths"] = pt["lengths"][:2]
    elif kind == "empty":
        pts.clear()
    elif kind == "missing":
        del pt[rng.choice(["t", "lengths"])]
    else:
        pt["lengths"][rng.randrange(3)] = "1/0"
    return kind


class TestPairLoaderOracle:
    def test_pair_files_load_equal(self):
        for raw in pair_files():
            new, old = pair_outcome(torsor.pair_from_json, raw), pair_outcome(oracle_pair_from_json, raw)
            assert new == old and new[0] == "loaded"

    def test_changed_charts_raise_the_same_first_error(self):
        rng = random.Random(3)
        files = [raw for raw in pair_files() if raw["charts"]]
        kinds = {}
        for _ in range(300):
            raw = json.loads(json.dumps(rng.choice(files)))
            kind = corrupt_pair_chart(rng, raw)
            new, old = pair_outcome(torsor.pair_from_json, raw), pair_outcome(oracle_pair_from_json, raw)
            assert new == old
            kinds.setdefault(kind, set()).add(new[0])
        assert set(kinds) == set(PAIR_KINDS)
        assert all(kinds[kind] == {"loaded"} for kind in RESPELLINGS)
        assert all(kinds[kind] == {"raised"} for kind in set(PAIR_KINDS) - RESPELLINGS)
