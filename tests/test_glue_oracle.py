"""Glue validation and descent against the all-pairs versions they replace.

``torsor.validate_glue_data`` visits only the piece pairs that share a
cell or carry a transition table, and ``torsor.glue_descent`` returns each
piece's gauge without re-checking it.  The versions below visit every pair and
restrict the glued torsor to every piece; both must give the same verdict
and first witness (lexicographic pair order), the same glued torsor and the
same per-piece gauges in the same dict order (sorted vertices).
"""

import itertools
import random

import pytest

from tristack import corpus, torsor
from tristack.fincat import Verdict
from tristack.torsor import CocycleFails, GlueData, gauge_transform, restrict_torsor, validate_torsor

SEED = 20220517


def oracle_is_subcomplex(base, cells):
    for c in cells:
        if c in base.edges:
            e = base.edges[c]
            if e.frm not in cells or e.to not in cells:
                return False
        elif c in base.faces:
            if any(eid not in cells for eid, _ in base.faces[c].boundary):
                return False
        elif c not in base.vertices:
            return False
    return True


def oracle_validate_glue_data(g):
    base, grp = g.base, g.group
    covered = set()
    for idx, cells in enumerate(g.pieces):
        if not oracle_is_subcomplex(base, cells):
            return Verdict(False, "piece is not a closed subcomplex", (idx,))
        covered |= cells
    if covered != base.cells():
        return Verdict(False, "pieces do not cover the base", tuple(sorted(base.cells() - covered)))
    for i in range(len(g.pieces)):
        for j in range(i + 1, len(g.pieces)):
            overlap = g.pieces[i] & g.pieces[j]
            table = g.transitions.get((i, j), {})
            if set(table) != overlap:
                return Verdict(False, "transition table does not match the overlap", (i, j))
            for e in sorted(overlap):
                if e in base.edges:
                    ed = base.edges[e]
                    if table[e] != table[ed.frm] or table[e] != table[ed.to]:
                        return Verdict(False, "transition not constant along an edge", (i, j, e))
                elif e in base.faces:
                    for eid, _ in base.faces[e].boundary:
                        if table[e] != table[eid]:
                            return Verdict(False, "transition not constant along a face", (i, j, e))
    for i, j, k in itertools.combinations(range(len(g.pieces)), 3):
        for cell in sorted(g.pieces[i] & g.pieces[j] & g.pieces[k]):
            if grp.mul(g.alpha(j, i, cell), g.alpha(k, j, cell)) != g.alpha(k, i, cell):
                return Verdict(False, "cocycle fails on a triple overlap", (i, j, k, cell))
    return Verdict(True)


def oracle_glue_descent(g):
    v = oracle_validate_glue_data(g)
    if not v.ok:
        raise CocycleFails((v.reason,) + (v.witness or ()))
    base, grp = g.base, g.group
    home = {}
    for idx, cells in enumerate(g.pieces):
        for cell in cells:
            home.setdefault(cell, idx)
    transitions = {}
    for eid, e in base.edges.items():
        p = home[eid]
        transitions[eid] = grp.mul(g.alpha(p, home[e.frm], e.frm), g.alpha(home[e.to], p, e.to))
    glued = torsor.TorsorCocycle(base, grp, transitions)
    face_check = validate_torsor(glued)
    if not face_check.ok:
        raise CocycleFails(face_check.witness)
    witnesses = {}
    for idx, cells in enumerate(g.pieces):
        gauge = {v2: g.alpha(idx, home[v2], v2) for v2 in base.vertices if v2 in cells}
        gauged = gauge_transform(restrict_torsor(glued, cells), gauge)
        if any(val != grp.identity for val in gauged.transitions.values()):
            raise CocycleFails(("glued torsor does not restrict to the trivial piece", idx))
        witnesses[idx] = gauge
    return glued, witnesses


def outcome(fn, data):
    try:
        glued, witnesses = fn(data)
    except CocycleFails as err:
        return ("fails", err.args)
    return ("glued", glued.transitions, [(idx, list(gauge.items())) for idx, gauge in witnesses.items()])


def corruptions(rng, data):
    """Glue data with one or two faults: wrong entries, missing or stray cells and tables, odd keys."""
    n = len(data.pieces)
    tables = sorted(data.transitions)
    elements = data.group.elements

    def with_tables(transitions):
        return GlueData(data.base, data.group, data.pieces, transitions)

    out = []
    for _ in range(6):
        transitions = {k: dict(t) for k, t in data.transitions.items()}
        for _ in range(rng.choice((1, 2))):
            how = rng.randrange(7)
            if how <= 1 and tables:  # an entry moved to another element
                table = transitions.get(rng.choice(tables))
                if table:
                    cell = rng.choice(sorted(table))
                    table[cell] = rng.choice([x for x in elements if x != table[cell]] or elements)
            elif how == 2 and tables:  # a cell left out of a table
                table = transitions.get(rng.choice(tables))
                if table:
                    del table[rng.choice(sorted(table))]
            elif how == 3 and tables:  # a whole table left out
                transitions.pop(rng.choice(tables), None)
            elif how == 4 and n >= 2:  # a table on a pair that may share nothing
                i, j = sorted(rng.sample(range(n), 2))
                cell = rng.choice(sorted(data.base.cells()))
                transitions.setdefault((i, j), {})[cell] = rng.choice(elements)
            elif how == 5:  # keys the pair loop never looks up
                transitions[rng.choice([(1, 0), (0, n + 3), ("a", "b"), (-1, 0), (0, 0)])] = {"x": elements[0]}
            elif how == 6 and n >= 2:  # an empty table on a pair sharing nothing
                i, j = sorted(rng.sample(range(n), 2))
                transitions.setdefault((i, j), {})
        out.append(with_tables(transitions))
    pieces = list(data.pieces)
    k = rng.randrange(n)
    pieces[k] = frozenset(sorted(pieces[k])[1:])  # a piece loses a cell
    out.append(GlueData(data.base, data.group, tuple(pieces), data.transitions))
    return out


def glue_cases():
    rng = random.Random(SEED)
    groups = [torsor.group_z2(), torsor.group_z3(), torsor.group_s3()]
    for base in corpus.simplicial_base_corpus(seed=SEED, n=20):
        for grp in groups:
            data = corpus.glue_data_from_torsor(corpus.random_torsor(rng, base, grp, star_presentable=True))
            yield data
            yield from corruptions(rng, data)


CASES = list(glue_cases())


def test_cases_cover_every_verdict():
    reasons = {oracle_validate_glue_data(d).reason for d in CASES}
    assert {None, "transition table does not match the overlap", "piece is not a closed subcomplex",
            "cocycle fails on a triple overlap", "transition not constant along an edge"} <= reasons


@pytest.mark.parametrize("idx", range(0, len(CASES), 7))
def test_same_verdict_witness_torsor_and_gauge_order(idx):
    for data in CASES[idx:idx + 7]:
        assert torsor.validate_glue_data(data) == oracle_validate_glue_data(data)
        assert outcome(torsor.glue_descent, data) == outcome(oracle_glue_descent, data)


def test_first_witness_is_the_least_pair():
    # the stars of a0 and a4 share nothing, but (0, 4) carries a table; the
    # stars of a1 and a3 share a2, which (1, 3)'s table misses
    base = corpus.path_base(4)
    pieces = tuple(torsor.closed_star(base, v) for v in base.vertices)
    data = corpus.glue_data_from_torsor(torsor.TorsorCocycle(base, torsor.group_z2(), dict.fromkeys(base.edges, "e")))
    transitions = {k: dict(t) for k, t in data.transitions.items()}
    transitions[(0, 4)] = {"a0": "e"}
    transitions[(1, 3)] = {"e1": "e"}
    bad = GlueData(base, data.group, pieces, transitions)
    assert torsor.validate_glue_data(bad) == oracle_validate_glue_data(bad)
    assert torsor.validate_glue_data(bad).witness == (0, 4)
    del transitions[(0, 4)]
    assert torsor.validate_glue_data(bad).witness == (1, 3)


def test_gauges_list_vertices_sorted():
    base = corpus.path_base(6)
    grp = torsor.group_s3()
    data = corpus.glue_data_from_torsor(corpus.random_torsor(random.Random(3), base, grp, star_presentable=True))
    _, witnesses = torsor.glue_descent(data)
    for idx, gauge in witnesses.items():
        assert list(gauge) == sorted(v for v in data.pieces[idx] if v in base.vertices)


def test_gauges_trivialise_their_pieces():
    """glue_descent returns its gauges unchecked; each must carry the glued torsor to the trivial one."""
    glued = 0
    for data in CASES:
        if not torsor.validate_glue_data(data).ok:
            continue
        result, witnesses = torsor.glue_descent(data)
        grp = data.group
        for idx, gauge in witnesses.items():
            for e in (data.base.edges[c] for c in data.pieces[idx] if c in data.base.edges):
                moved = grp.mul(grp.inverse(gauge[e.frm]), grp.mul(result.transitions[e.id], gauge[e.to]))
                assert moved == grp.identity
        glued += 1
    assert glued >= 60


def oracle_closed_star(base, v):
    cells = {v}
    for e in base.edges.values():
        if v in (e.frm, e.to):
            cells |= {e.id, e.frm, e.to}
    for f in base.faces.values():
        verts = base.face_vertices(f.id)
        if v in verts:
            cells.add(f.id)
            for eid, _ in f.boundary:
                e = base.edges[eid]
                cells |= {eid, e.frm, e.to}
    return frozenset(cells)


def oracle_glue_data_from_torsor(t):
    """Star pieces by scanning the whole base per vertex, overlaps of every piece pair."""
    base, grp = t.base, t.group
    pieces = tuple(oracle_closed_star(base, v) for v in base.vertices)
    gauges = [torsor.is_trivial(restrict_torsor(t, cells)).gauge for cells in pieces]
    transitions = {}
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            overlap = pieces[i] & pieces[j]
            if not overlap:
                continue
            table = {}
            for cell in overlap:
                v = corpus._vertex_of_cell(base, cell)
                table[cell] = grp.mul(grp.inverse(gauges[i][v]), gauges[j][v])
            transitions[(i, j)] = table
    return GlueData(base, grp, pieces, transitions)


def test_indexed_stars_and_overlaps_match_the_scans():
    """``closed_star`` reads per-vertex incidences and ``glue_data_from_torsor`` intersects only
    pieces that share a cell; pieces, tables and their dict order stay as the scans give them."""
    rng = random.Random(SEED)
    for base in corpus.simplicial_base_corpus(seed=SEED, n=20) + [corpus.path_base(40)]:
        assert torsor.star_cover(base) == tuple(oracle_closed_star(base, v) for v in base.vertices)
        for grp in (torsor.group_z2(), torsor.group_s3()):
            t = corpus.random_torsor(rng, base, grp, star_presentable=True)
            new, old = corpus.glue_data_from_torsor(t), oracle_glue_data_from_torsor(t)
            assert new.pieces == old.pieces
            assert [(k, list(v.items())) for k, v in new.transitions.items()] == [
                (k, list(v.items())) for k, v in old.transitions.items()
            ]


def test_restriction_matches_the_base_scan():
    rng = random.Random(SEED)
    for base in corpus.simplicial_base_corpus(seed=SEED, n=20):
        t = corpus.random_torsor(rng, base, torsor.group_s3(), star_presentable=True)
        for cells in torsor.star_cover(base):
            sub = restrict_torsor(t, cells)
            assert sub.base.vertices == tuple(v for v in base.vertices if v in cells)
            assert list(sub.base.edges) == [e for e in base.edges if e in cells]
            assert list(sub.base.faces) == [f for f in base.faces if f in cells]
            assert list(sub.transitions.items()) == [(e, t.transitions[e]) for e in base.edges if e in cells]
