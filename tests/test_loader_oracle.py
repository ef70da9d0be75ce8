"""The family loader against the loader it replaced.

``oracle_family_from_json`` is ``families.family_from_json`` as it was
before the memoised rational reader, the integer cone test and the
object-free glue check: ``Fraction`` on every text, the constructor's
check on every triple, and glue compared through validated permuted
triples.  On valid files the two must give equal families (same dict
order, same fibers); on corrupted files the same first error, by type and
arguments.  Inexact text (floats, decimals) is outside this comparison:
the old loader accepted it and the new one rejects it.
"""

import json
import random
from fractions import Fraction

from tristack import corpus, families
from tristack.families import (
    BaseGraph,
    Edge,
    FamilyError,
    FiberNotInM,
    GlueInconsistent,
    PLFamily,
    make_chart,
)
from tristack.trigeo import PERMS, NotInM, TriangleLengths, act_tuple


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


def corrupt(rng, raw):
    """One random corruption of a valid family file, in place."""
    kind = rng.choice(["fiber", "point", "order", "start", "end", "glue", "label", "endpoint", "two"])
    e = rng.choice(raw["edges"]) if raw["edges"] else None
    if kind == "fiber" or e is None:
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
        e["chart"][-1]["t"] = rng.choice(["2", "-1", "3/4"])
    elif kind == "glue":
        key = rng.choice(["glueFrom", "glueTo"])
        e[key] = rng.choice([g for g in PERMS if g != e[key]])
    elif kind == "label":
        e[rng.choice(["glueFrom", "glueTo"])] = "(XY)"
    elif kind == "endpoint":
        e["to"] = "nowhere"
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
        # every corruption was tried and each one made at least one file fail
        assert set(kinds) == {"fiber", "point", "order", "start", "end", "glue", "label", "endpoint", "two"}
        assert all("raised" in statuses for statuses in kinds.values())
