"""Discrete principal bundles over simplicial 2-complexes.

A bundle is a transition cocycle: one group element per oriented edge
(the reverse crossing uses the inverse), with the face condition closing
every 2-cell.  Fibers are free transitive right G-sets presented as the
group itself; triviality is decided by spanning-forest gauge fixing and
cycle monodromy.

Group elements multiply in path order (``groups`` pins the convention),
so the face condition for a triangle u -> v -> w -> u reads
mul(mul(g_uv, g_vw), g_wu) == e.
"""

from __future__ import annotations

import itertools

from . import trigeo
# the stock groups stay importable from here as well
from .groups import BUILTIN_GROUPS, Group, group_from_table, group_s3, group_z2, group_z3
from .families import (
    BaseGraph,
    Edge,
    FamilyError,
    PLFamily,
    cycle_through,
    edge_transport,
    validate_family,
)
from .records import Record, Verdict, read, setfield
from .trigeo import PERMS, TriangleLengths, act, inverse as perm_inverse


class TorsorError(ValueError):
    pass


class FaceCocycleFails(TorsorError):
    pass


class CocycleFails(TorsorError):
    pass


class NotEquivariant(TorsorError):
    pass


class NotTransitionCompatible(TorsorError):
    pass


class InvalidPair(TorsorError):
    pass




# -- simplicial bases ------------------------------------------------------------


class Face(Record):
    __slots__ = ("id", "boundary")

    def __init__(self, id: str, boundary: tuple):
        setfield(self, "id", id)
        setfield(self, "boundary", boundary)  # ((edge id, +1 | -1), ...) of length 3, chained head to tail


class SimplicialBase:
    """Vertices, oriented edges, and triangular 2-cells given by edge paths."""

    def __init__(self, vertices, edges, faces=()):
        self.vertices = tuple(sorted(vertices))
        self.edges = {e.id: e for e in sorted(edges, key=lambda e: e.id)}
        self.faces = {f.id: f for f in sorted(faces, key=lambda f: f.id)}
        ids = list(self.vertices) + list(self.edges) + list(self.faces)
        if len(set(ids)) != len(ids):
            raise TorsorError("cell ids must be globally unique")
        self.vertex_set = frozenset(self.vertices)
        for e in self.edges.values():
            if e.frm not in self.vertex_set or e.to not in self.vertex_set:
                raise TorsorError(f"edge {e.id} has unknown endpoint")
        for f in self.faces.values():
            if len(f.boundary) != 3:
                raise TorsorError(f"face {f.id} is not a triangle")
            walk = self.face_vertices(f.id)
            if walk is None:
                raise TorsorError(f"face {f.id} boundary does not close")
        self._incidences = None  # vertex -> (edges, faces) at it, built by ``closed_star``

    def ends(self, eid, direction):
        e = self.edges[eid]
        return (e.frm, e.to) if direction > 0 else (e.to, e.frm)

    def face_vertices(self, fid):
        f = self.faces[fid]
        starts, stops = [], []
        for eid, d in f.boundary:
            if eid not in self.edges or d not in (1, -1):
                return None
            a, b = self.ends(eid, d)
            starts.append(a)
            stops.append(b)
        for i in range(3):
            if stops[i] != starts[(i + 1) % 3]:
                return None
        return tuple(starts)

    def graph(self) -> BaseGraph:
        return BaseGraph(self.vertices, list(self.edges.values()))

    def cells(self):
        return set(self.vertices) | set(self.edges) | set(self.faces)


def complex_from_graph(g: BaseGraph) -> SimplicialBase:
    return SimplicialBase(g.vertices, list(g.edges.values()), ())


def closed_star(base: SimplicialBase, v: str) -> frozenset:
    if base._incidences is None:  # edges and faces at each vertex, in id order, indexed once
        at = {u: ([], []) for u in base.vertices}
        for e in base.edges.values():
            for u in {e.frm, e.to}:
                at[u][0].append(e.id)
        for f in base.faces.values():
            for u in set(base.face_vertices(f.id)):
                at[u][1].append(f.id)
        base._incidences = at
    edges_at, faces_at = base._incidences[v]
    cells = {v}
    for eid in edges_at:
        e = base.edges[eid]
        cells |= {eid, e.frm, e.to}
    for fid in faces_at:
        cells.add(fid)
        for eid, _ in base.faces[fid].boundary:
            e = base.edges[eid]
            cells |= {eid, e.frm, e.to}
    return frozenset(cells)


def is_subcomplex(base: SimplicialBase, cells: frozenset) -> bool:
    for c in cells:
        if c in base.edges:
            e = base.edges[c]
            if e.frm not in cells or e.to not in cells:
                return False
        elif c in base.faces:
            if any(eid not in cells for eid, _ in base.faces[c].boundary):
                return False
        elif c not in base.vertex_set:
            return False
    return True


# -- torsor cocycles --------------------------------------------------------------


class TorsorCocycle(Record):
    __slots__ = ("base", "group", "transitions")

    def __init__(self, base: SimplicialBase, group: Group, transitions: dict):
        setfield(self, "base", base)
        setfield(self, "group", group)
        setfield(self, "transitions", transitions)  # edge id -> element (for the edge's own orientation)

    def element(self, eid, direction=1):
        g = self.transitions[eid]
        return g if direction > 0 else self.group.inverse(g)


def validate_torsor(t: TorsorCocycle) -> Verdict:
    for eid in t.base.edges:
        g = t.transitions.get(eid)
        if g not in t.group.elements:
            return Verdict(False, "transition missing or not a group element", (eid,))
    for fid, f in t.base.faces.items():
        prod = t.group.path_product(t.element(eid, d) for eid, d in f.boundary)
        if prod != t.group.identity:
            return Verdict(False, "face cocycle fails", (fid, prod))
    return Verdict(True)


class Triviality(Record):
    __slots__ = ("trivial", "gauge", "obstruction_cycle", "monodromy")

    def __init__(self, trivial: bool, gauge: dict | None = None,
                 obstruction_cycle: tuple | None = None, monodromy: str | None = None):
        setfield(self, "trivial", trivial)
        setfield(self, "gauge", gauge)  # vertex -> element
        setfield(self, "obstruction_cycle", obstruction_cycle)
        setfield(self, "monodromy", monodromy)

    def __bool__(self):
        return self.trivial


def is_trivial(t: TorsorCocycle) -> Triviality:
    """Spanning-forest section; trivial iff every independent cycle closes.

    The returned gauge turns every transition into the identity; a failing
    torsor instead reports the cycle of the least open edge and its path
    product.
    """
    v = validate_torsor(t)
    if not v.ok:
        raise FaceCocycleFails(v.witness)
    g = t.base.graph()
    grp = t.group

    def push(eid, end, phi):
        # want gauged transition identity: mul(inv(phi_u), mul(elem, phi_other)) = e
        return grp.mul(grp.inverse(t.element(eid, 1 if end == "from" else -1)), phi)

    gauge, parent = {}, {}
    for root in g.vertices:
        if root not in gauge:
            labels, tree = g.spread(root, grp.identity, push)
            gauge.update(labels)
            parent.update(tree)
    eid = min(g.open_edges(gauge, push), default=None)
    if eid is not None:
        cycle = cycle_through(parent, g.edges[eid])
        return Triviality(False, obstruction_cycle=tuple(cycle), monodromy=cycle_monodromy(t, cycle))
    return Triviality(True, gauge=gauge)


def cycle_monodromy(t: TorsorCocycle, cycle) -> str:
    return t.group.path_product(
        t.element(eid, 1 if d == "forward" else -1) for eid, d in cycle
    )


def gauge_transform(t: TorsorCocycle, gauge: dict) -> TorsorCocycle:
    """Relabel sheets per vertex: new transition is inv(phi_u) . t_e . phi_w."""
    out = {}
    for eid, e in t.base.edges.items():
        out[eid] = t.group.mul(
            t.group.inverse(gauge[e.frm]), t.group.mul(t.transitions[eid], gauge[e.to])
        )
    return TorsorCocycle(t.base, t.group, out)


def find_gauge_isomorphism(t1: TorsorCocycle, t2: TorsorCocycle) -> dict | None:
    """Per-vertex elements carrying t1 to t2, least by element order.

    Components are independent, so the least gauge takes each component's
    least root value.
    """
    if t1.base.cells() != t2.base.cells() or t1.group.elements != t2.group.elements:
        return None
    g = t1.base.graph()
    grp = t1.group

    def push(eid, end, phi):
        d = 1 if end == "from" else -1
        # want: t2 element == inv(phi_u) . t1 element . phi_other
        return grp.mul(grp.inverse(t1.element(eid, d)), grp.mul(phi, t2.element(eid, d)))

    gauge = {}
    for root in g.vertices:
        if root in gauge:
            continue
        labels = next(g.labellings(root, grp.elements, push), None)
        if labels is None:
            return None
        gauge.update(labels)
    return gauge


def restrict_torsor(t: TorsorCocycle, cells: frozenset) -> TorsorCocycle:
    if not is_subcomplex(t.base, cells):
        raise TorsorError("restriction target is not a subcomplex")
    base = t.base
    sub = SimplicialBase(
        [c for c in cells if c in base.vertex_set],
        [base.edges[c] for c in cells if c in base.edges],
        [base.faces[c] for c in cells if c in base.faces],
    )
    return TorsorCocycle(sub, t.group, {e: t.transitions[e] for e in sub.edges})


# -- torsor morphisms --------------------------------------------------------------


def torsor_morphism_check(t1: TorsorCocycle, t2: TorsorCocycle, sheet_maps: dict) -> Verdict:
    """Certify a sheet mapping as an isomorphism and exhibit its inverse.

    ``sheet_maps[v]`` maps sheet labels (group elements) over v in t1 to
    sheets over v in t2.  Equivariance for the structure action and
    compatibility with transitions are required of the input; bijectivity
    then always follows, with inverse given by the inverse translation.
    """
    grp = t1.group
    for v in t1.base.vertices:
        phi = sheet_maps.get(v)
        if phi is None or set(phi) != set(grp.elements):
            raise NotEquivariant((v, "sheet map does not cover the fiber"))
        for g in grp.elements:
            for s in grp.elements:
                if phi[grp.mul(g, s)] != grp.mul(g, phi[s]):
                    raise NotEquivariant((v, g, s))
    for eid, e in t1.base.edges.items():
        for s in grp.elements:
            lhs = sheet_maps[e.to][grp.mul(s, t1.transitions[eid])]
            rhs = grp.mul(sheet_maps[e.frm][s], t2.transitions[eid])
            if lhs != rhs:
                raise NotTransitionCompatible((eid, s))
    inverse_maps = {}
    for v in t1.base.vertices:
        phi = sheet_maps[v]
        if len(set(phi.values())) != len(grp.elements):
            raise NotEquivariant((v, "not bijective"))  # unreachable for equivariant data
        inverse_maps[v] = {out: s for s, out in phi.items()}
    return Verdict(True, "isomorphism", tuple(sorted(inverse_maps)))


def gauge_as_sheet_maps(t: TorsorCocycle, gauge: dict) -> dict:
    """The right-translation sheet maps of a per-vertex gauge."""
    grp = t.group
    return {
        v: {s: grp.mul(s, gauge[v]) for s in grp.elements}
        for v in t.base.vertices
    }


# -- descent gluing -----------------------------------------------------------------


class GlueData(Record):
    """Per-piece trivial torsors plus identifications on overlaps.

    ``pieces`` are closed subcomplexes covering the base; the piece
    torsors are trivial, so the only data is ``transitions[(i, j)]`` for
    i < j: one group element per overlap cell, read as the identification
    of piece i sheets with piece j sheets over that cell.
    """

    __slots__ = ("base", "group", "pieces", "transitions")

    def __init__(self, base: SimplicialBase, group: Group, pieces: tuple, transitions: dict):
        setfield(self, "base", base)
        setfield(self, "group", group)
        setfield(self, "pieces", pieces)
        setfield(self, "transitions", transitions)

    def alpha(self, j: int, i: int, cell) -> str:
        """Identification piece i -> piece j over the cell."""
        if i == j:
            return self.group.identity
        if i < j:
            return self.transitions[(i, j)][cell]
        return self.group.inverse(self.transitions[(j, i)][cell])


def validate_glue_data(g: GlueData) -> Verdict:
    base, grp = g.base, g.group
    covered = set()
    for idx, cells in enumerate(g.pieces):
        if not is_subcomplex(base, cells):
            return Verdict(False, "piece is not a closed subcomplex", (idx,))
        covered |= cells
    if covered != base.cells():
        return Verdict(False, "pieces do not cover the base", tuple(sorted(base.cells() - covered)))
    # only pairs i < j that share a cell or carry a table can fail, and only
    # triples that share a cell; each taken in lexicographic order
    owners = _pieces_by_cell(g.pieces).values()
    n = len(g.pieces)
    pairs = {p for idxs in owners for p in itertools.combinations(idxs, 2)}
    tabled = (k for k in g.transitions if isinstance(k, tuple) and len(k) == 2)
    pairs.update((int(i), int(j)) for i, j in tabled if i in range(n) and j in range(n) and i < j)
    for i, j in sorted(pairs):
        overlap = g.pieces[i] & g.pieces[j]
        table = g.transitions.get((i, j), {})
        if set(table) != overlap:
            return Verdict(False, "transition table does not match the overlap", (i, j))
        for e, x in table.items():
            if x not in grp.elements:
                return Verdict(False, "transition not a group element", (i, j, e))
        for e in sorted(overlap):
            if e in base.edges:
                ed = base.edges[e]
                if table[e] != table[ed.frm] or table[e] != table[ed.to]:
                    return Verdict(False, "transition not constant along an edge", (i, j, e))
            elif e in base.faces:
                for eid, _ in base.faces[e].boundary:
                    if table[e] != table[eid]:
                        return Verdict(False, "transition not constant along a face", (i, j, e))
    triples = {t for idxs in owners for t in itertools.combinations(idxs, 3)}
    for i, j, k in sorted(triples):
        triple = g.pieces[i] & g.pieces[j] & g.pieces[k]
        for cell in sorted(triple):
            lhs = grp.mul(g.alpha(j, i, cell), g.alpha(k, j, cell))
            if lhs != g.alpha(k, i, cell):
                return Verdict(False, "cocycle fails on a triple overlap", (i, j, k, cell))
    return Verdict(True)


def _pieces_by_cell(pieces) -> dict:
    """cell -> ascending indices of the pieces containing it."""
    owners = {}
    for idx, cells in enumerate(pieces):
        for cell in cells:
            owners.setdefault(cell, []).append(idx)
    return owners


def glue_descent(g: GlueData):
    """Glue per-piece trivial torsors into a global cocycle.

    Returns the torsor together with the per-piece effectiveness witness:
    a gauge on each piece carrying the glued restriction back to the
    trivial piece.  Raises CocycleFails when the overlap data does not
    satisfy the descent conditions.
    """
    v = validate_glue_data(g)
    if not v.ok:
        raise CocycleFails((v.reason,) + (v.witness or ()))
    base, grp = g.base, g.group
    home = {cell: owners[0] for cell, owners in _pieces_by_cell(g.pieces).items()}

    transitions = {}
    for eid, e in base.edges.items():
        p = home[eid]
        transitions[eid] = grp.mul(
            g.alpha(p, home[e.frm], e.frm), g.alpha(home[e.to], p, e.to)
        )
    torsor = TorsorCocycle(base, grp, transitions)
    face_check = validate_torsor(torsor)
    if not face_check.ok:
        raise CocycleFails(face_check.witness)

    # The gauge alpha(idx, home[v], v) trivialises the glued torsor on piece
    # idx, so it needs no check.  Take an edge e: u -> v of the piece and
    # p = home[e].  The cocycle condition holds for any three pieces sharing
    # a cell: validated for distinct ones, and for repeats by alpha(i, i) = 1
    # and alpha(i, j) = alpha(j, i)^-1.  At u (pieces idx, home[u], p) and at
    # v (p, home[v], idx) it reduces gauge[u]^-1 · transitions[e] · gauge[v]
    # to alpha(p, idx, u) · alpha(idx, p, v), and the (idx, p) table is
    # constant along e, so the product is alpha(p, p, e) = 1.
    witnesses = {
        idx: {v: g.alpha(idx, home[v], v) for v in sorted(base.vertex_set & cells)}
        for idx, cells in enumerate(g.pieces)
    }
    return torsor, witnesses


def star_cover(base: SimplicialBase):
    return tuple(closed_star(base, v) for v in base.vertices)


# -- the family correspondence -------------------------------------------------------


class TorsorPair(Record):
    """An S3 cocycle with an equivariant map to the triangle cone.

    Sheets over a vertex are the six vertex orderings of the fiber, the
    reference sheet being the stored vertex triple; the sheet labeled s
    is sent to act(inverse(s), reference).  Edge data carries the PL
    homotopy (one chart, permuted per sheet) with the end identifications
    that relate chart labels to the vertex references.
    """

    __slots__ = ("torsor", "vertex_refs", "charts", "glue_from", "glue_to")

    def __init__(self, torsor: TorsorCocycle, vertex_refs: dict, charts: dict, glue_from: dict, glue_to: dict):
        setfield(self, "torsor", torsor)
        setfield(self, "vertex_refs", vertex_refs)  # vertex -> TriangleLengths
        setfield(self, "charts", charts)  # edge -> chart
        setfield(self, "glue_from", glue_from)  # edge -> Perm
        setfield(self, "glue_to", glue_to)  # edge -> Perm

    def sheet_point(self, v: str, sheet: str) -> TriangleLengths:
        return act(perm_inverse(sheet), self.vertex_refs[v])


def validate_pair(p: TorsorPair) -> TorsorPair:
    if p.torsor.group.name != "S3":
        raise InvalidPair("pair torsors use the vertex-permutation group")
    if p.torsor.base.faces:
        raise InvalidPair("pair bases are graphs")
    v = validate_torsor(p.torsor)
    if not v.ok:
        raise InvalidPair(v.witness)
    for eid, e in p.torsor.base.edges.items():
        chart, gf, gt = p.charts.get(eid), p.glue_from.get(eid), p.glue_to.get(eid)
        if not chart or gf not in PERMS or gt not in PERMS or not {e.frm, e.to} <= p.vertex_refs.keys():
            raise InvalidPair(("edge lacks a chart, end permutations or vertex sheet tables", eid))
        if act(gf, chart[0][1]) != p.vertex_refs[e.frm]:
            raise InvalidPair(("chart start does not reach the vertex reference", eid))
        if act(gt, chart[-1][1]) != p.vertex_refs[e.to]:
            raise InvalidPair(("chart end does not reach the vertex reference", eid))
        want = trigeo.compose(gt, perm_inverse(gf))
        if p.torsor.transitions[eid] != want:
            raise InvalidPair(("transition disagrees with the chart identifications", eid))
    return p


def family_to_torsor_pair(fam: PLFamily) -> TorsorPair:
    """The orientation torsor with its tautological equivariant map."""
    fam = validate_family(fam)
    base = complex_from_graph(fam.base)
    transitions = {eid: edge_transport(fam, eid) for eid in fam.base.edges}
    pair = TorsorPair(
        TorsorCocycle(base, group_s3(), transitions),
        dict(fam.vertex_lengths),
        dict(fam.charts),
        dict(fam.glue_from),
        dict(fam.glue_to),
    )
    return validate_pair(pair)


def torsor_pair_to_family(p: TorsorPair) -> PLFamily:
    """Read the family back off along the reference sheet at every vertex."""
    validate_pair(p)
    return validate_family(
        PLFamily(
            p.torsor.base.graph(),
            dict(p.vertex_refs),
            dict(p.charts),
            dict(p.glue_from),
            dict(p.glue_to),
        )
    )


def pair_gauge_from_family_iso(p1: TorsorPair, p2: TorsorPair, vertex_perms: dict) -> dict:
    """Torsor gauge induced by a family isomorphism's vertex permutations."""
    grp = p1.torsor.group
    gauge = {v: vertex_perms[v] for v in p1.torsor.base.vertices}
    transformed = gauge_transform(p1.torsor, gauge)
    if transformed.transitions != p2.torsor.transitions:
        raise InvalidPair("vertex permutations do not gauge the torsors")
    return gauge


# -- files ------------------------------------------------------------------------------


def complex_to_json(base: SimplicialBase) -> dict:
    return {
        "vertices": list(base.vertices),
        "edges": [{"id": e.id, "from": e.frm, "to": e.to} for e in base.edges.values()],
        "faces": [
            {"id": f.id, "boundary": [[eid, d] for eid, d in f.boundary]}
            for f in base.faces.values()
        ],
    }


def complex_from_json(raw: dict) -> SimplicialBase:
    return SimplicialBase(
        raw["vertices"],
        [Edge(e["id"], e["from"], e["to"]) for e in raw["edges"]],
        [Face(f["id"], tuple((eid, d) for eid, d in f["boundary"])) for f in raw.get("faces", ())],
    )


def group_to_json(g: Group):
    if g.name in BUILTIN_GROUPS:
        return g.name
    return {
        "elements": list(g.elements),
        "mul": sorted([a, b, g.table[(a, b)]] for a in g.elements for b in g.elements),
    }


def group_from_json(raw) -> Group:
    if isinstance(raw, str):
        return BUILTIN_GROUPS[raw]()
    table = {(a, b): ab for a, b, ab in raw["mul"]}
    return group_from_table("custom", raw["elements"], table)


def torsor_to_json(t: TorsorCocycle) -> dict:
    return {
        "base": complex_to_json(t.base),
        "group": group_to_json(t.group),
        "transitions": dict(sorted(t.transitions.items())),
    }


# a torsor file; the pair and glue-data files extend it
TORSOR = {
    "base": {
        "vertices": [str],
        "edges": [{"id": str, "from": str, "to": str}],
        "faces?": [{"id": str, "boundary": [("[edge, direction]", str, None)]}],
    },
    "group": (frozenset(BUILTIN_GROUPS), {"elements": [str], "mul": [("[a, b, ab]", str, str, str)]}),
    "transitions": {str: None},
}


def torsor_from_json(raw: dict) -> TorsorCocycle:
    return read(raw, TORSOR, _torsor_from_records, TorsorError)


def _torsor_from_records(raw: dict) -> TorsorCocycle:
    return TorsorCocycle(complex_from_json(raw["base"]), group_from_json(raw["group"]), dict(raw["transitions"]))


def pair_to_json(p: TorsorPair) -> dict:
    data = torsor_to_json(p.torsor)
    data["equivariant"] = {
        v: {s: trigeo.format_lengths(p.sheet_point(v, s)) for s in PERMS}
        for v in p.torsor.base.vertices
    }
    data["charts"] = {
        e: [{"t": str(t), "lengths": trigeo.format_lengths(v)} for t, v in chart]
        for e, chart in sorted(p.charts.items())
    }
    data["glueFrom"] = dict(sorted(p.glue_from.items()))
    data["glueTo"] = dict(sorted(p.glue_to.items()))
    return data


PAIR = {
    **TORSOR,
    "equivariant": {str: dict.fromkeys(PERMS)},
    "charts": {str: [{"t": None, "lengths": None}]},
    "glueFrom": {str: str},
    "glueTo": {str: str},
}


def pair_from_json(raw: dict) -> TorsorPair:
    torsor = torsor_from_json(raw)
    return read(raw, PAIR, lambda raw: _pair_from_records(raw, torsor), TorsorError)


def _pair_from_records(raw: dict, torsor: TorsorCocycle) -> TorsorPair:
    read = trigeo.RationalReader(FamilyError)
    refs = {}
    for v, table in raw["equivariant"].items():
        ref = read.lengths(table["e"], f"vertex {v} sheet e")
        for s in PERMS:
            got = read.lengths(table[s], f"vertex {v} sheet {s}")
            if got != act(perm_inverse(s), ref):
                raise InvalidPair(("equivariance fails", v, s))
        refs[v] = ref
    charts = {}
    for e, pts in raw["charts"].items():
        charts[e] = read.chart(pts, f"edge {e}")
    pair = TorsorPair(torsor, refs, charts, dict(raw["glueFrom"]), dict(raw["glueTo"]))
    return validate_pair(pair)


def glue_data_to_json(g: GlueData) -> dict:
    return {
        "base": complex_to_json(g.base),
        "group": group_to_json(g.group),
        "pieces": [sorted(cells) for cells in g.pieces],
        "transitions": [
            {"i": i, "j": j, "cells": dict(sorted(table.items()))}
            for (i, j), table in sorted(g.transitions.items())
        ],
    }


GLUE_DATA = {
    **TORSOR,
    "pieces": [["a list of cells", str]],
    "transitions": [{"i": int, "j": int, "cells": {str: None}}],
}


def glue_data_from_json(raw: dict) -> GlueData:
    return read(raw, GLUE_DATA, _glue_data_from_records, TorsorError)


def _glue_data_from_records(raw: dict) -> GlueData:
    return GlueData(
        complex_from_json(raw["base"]),
        group_from_json(raw["group"]),
        tuple(frozenset(cells) for cells in raw["pieces"]),
        {(e["i"], e["j"]): dict(e["cells"]) for e in raw["transitions"]},
    )
