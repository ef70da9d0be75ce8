"""Deformation germs of a fixed triangle over pointed graph bases.

A deformation is a family on the closed star of the basepoint plus a
marking: a vertex permutation identifying the fixed triangle with the
basepoint fiber.  Germs never shrink below one star; "restrict to a
smaller neighborhood" is realized by cutting each incident edge-end at a
dyadic radius and rescaling, and equivalence quantifies over these
radii up to the fixed depth.  Comparisons cut the star's leaves free:
a germ only sees the basepoint's side of each incident edge.
"""

from __future__ import annotations

from fractions import Fraction

from .families import (
    BaseGraph,
    DifferentBase,
    FAMILY,
    Edge,
    FamilyError,
    GraphMap,
    PLFamily,
    _chart_candidates,
    chart_reparam,
    compose_graph_maps,
    family_from_json,
    family_to_json,
    graph_map,
    path_reparam,
    pullback_family,
    twist_family,
    validate_family,
)
from .records import Record, Verdict, read, setfield
from .trigeo import PERMS, RationalReader, TriangleLengths, act, compose, inverse


class DeformError(ValueError):
    pass


class MarkingNotIsometry(DeformError):
    pass


class FamilyInvalid(DeformError):
    pass


class IllTypedMap(DeformError):
    pass


MAX_GERM_DEPTH = 2


class Deformation(Record):
    __slots__ = ("triangle", "family", "basepoint", "marking")

    def __init__(self, triangle: TriangleLengths, family: PLFamily, basepoint: str, marking: str):
        setfield(self, "triangle", triangle)
        setfield(self, "family", family)
        setfield(self, "basepoint", basepoint)
        setfield(self, "marking", marking)  # Perm identifying the triangle with the basepoint fiber


def validate_deformation(d: Deformation) -> Verdict:
    """Marked-fiber exactness plus star-shape of the carrier family."""
    try:
        validate_family(d.family)
    except Exception as err:
        return Verdict(False, "family invalid", (str(err),))
    if d.basepoint not in d.family.base.vertices:
        return Verdict(False, "basepoint missing", (d.basepoint,))
    for eid, e in d.family.base.edges.items():
        if d.basepoint not in (e.frm, e.to):
            return Verdict(False, "family exceeds the closed star", (eid,))
    if d.marking not in PERMS:
        return Verdict(False, "marking not a permutation", (d.marking,))
    if act(d.marking, d.triangle) != d.family.vertex_lengths[d.basepoint]:
        return Verdict(False, "marking is not an isometry onto the basepoint fiber",
                       (d.marking, d.triangle.astuple()))
    return Verdict(True)


def deformation(triangle, fam: PLFamily, basepoint: str, marking: str = "e") -> Deformation:
    t = triangle if isinstance(triangle, TriangleLengths) else TriangleLengths(*triangle)
    d = Deformation(t, fam, basepoint, marking)
    v = validate_deformation(d)
    if not v.ok:
        if v.reason.startswith("marking"):
            raise MarkingNotIsometry(v.witness)
        raise FamilyInvalid((v.reason,) + (v.witness or ()))
    return d


# -- germ normal forms -----------------------------------------------------------


def _germ_edge_id(base: BaseGraph, basepoint: str, eid: str, end: str) -> str:
    e = base.edges[eid]
    if end == "from" and e.frm == basepoint and e.to != basepoint:
        return eid
    return f"{eid}.{end}"


def germ_normal_form(d: Deformation, depth: int = 0) -> Deformation:
    """Cut every incident edge-end at radius 2^-depth and rescale to unit edges.

    The result lives on the canonical star: center "o" and one free leaf
    per incident edge-end, each germ edge oriented outward.  Edge ids are
    stable under restriction, so normal forms of a deformation and of its
    own restriction are directly comparable.
    """
    base = d.family.base
    h = Fraction(1, 2 ** depth)
    vertices = ["o"]
    edges = []
    charts = {}
    gf, gt = {}, {}
    for eid, end in sorted(base.incident_ends(d.basepoint)):
        gid = _germ_edge_id(base, d.basepoint, eid, end)
        leaf = f"leaf.{gid}"
        vertices.append(leaf)
        edges.append(Edge(gid, "o", leaf))
        chart = d.family.charts[eid]
        if end == "from":
            charts[gid] = chart_reparam(chart, Fraction(0), h)
            gf[gid] = d.family.glue_from[eid]
        else:
            charts[gid] = chart_reparam(chart, Fraction(1), 1 - h)
            gf[gid] = d.family.glue_to[eid]
        gt[gid] = "e"
    star = BaseGraph(vertices, edges)
    vl = {"o": d.family.vertex_lengths[d.basepoint]}
    for e in edges:
        vl[e.to] = charts[e.id][-1][1]
    fam = validate_family(PLFamily(star, vl, charts, gf, gt))
    return Deformation(d.triangle, fam, "o", d.marking)


def restrict_deformation(d: Deformation, depth: int = 1) -> Deformation:
    """The same germ presented on the sub-star of radius 2^-depth."""
    return germ_normal_form(d, depth)


class GermEquivalence(Record):
    __slots__ = ("found", "center", "legs")

    def __init__(self, found: bool, center: str | None = None, legs: dict | None = None):
        setfield(self, "found", found)
        setfield(self, "center", center)  # induced permutation at the basepoint
        setfield(self, "legs", legs)  # germ edge -> (tau, radius exponents)

    def __bool__(self):
        return self.found


def _leg_candidates(chart1, glue1, chart2, glue2, pin):
    """Witnesses (tau, k1, k2) matching the two leg germs with center perm pin.

    Legs are cut at dyadic radii up to the fixed depth independently on
    both sides; the transported center permutation glue2 ∘ tau ∘ glue1^-1
    must hit the pinned value.
    """
    radii = [Fraction(1, 2 ** k) for k in range(MAX_GERM_DEPTH + 1)]
    cuts1 = [path_reparam(chart1, 0, h) for h in radii]
    cuts2 = [path_reparam(chart2, 0, h) for h in radii]
    for k1, cut1 in enumerate(cuts1):
        for k2, cut2 in enumerate(cuts2):
            for tau in _chart_candidates(cut1, cut2):
                if compose(glue2, compose(tau, inverse(glue1))) == pin:
                    return (tau, k1, k2)
    return None


def are_equivalent(d1: Deformation, d2: Deformation) -> GermEquivalence:
    """Equivalence of germs: an identification over common sub-stars.

    The legs of a star couple only through the basepoint, so the search
    decomposes: every leg must admit a permutation matching the two leg
    germs (cut at dyadic radii up to the fixed depth) whose transport to
    the basepoint is the permutation pinned by the two markings.
    """
    if d1.triangle != d2.triangle:
        raise DeformError("deformations mark different triangles")
    nf1 = germ_normal_form(d1, 0)
    nf2 = germ_normal_form(d2, 0)
    if sorted(nf1.family.base.edges) != sorted(nf2.family.base.edges):
        raise DifferentBase("germs have different incident edge-ends")
    pin = compose(d2.marking, inverse(d1.marking))
    if act(pin, nf1.family.vertex_lengths["o"]) != nf2.family.vertex_lengths["o"]:
        return GermEquivalence(False)
    legs = {}
    for gid in sorted(nf1.family.base.edges):
        got = _leg_candidates(
            nf1.family.charts[gid],
            nf1.family.glue_from[gid],
            nf2.family.charts[gid],
            nf2.family.glue_from[gid],
            pin,
        )
        if got is None:
            return GermEquivalence(False)
        legs[gid] = got
    return GermEquivalence(True, center=pin, legs=legs)


def twist_deformation(d: Deformation, sigma: str) -> Deformation:
    """Equivalent copy: family twisted globally, marking adjusted to match."""
    return Deformation(
        d.triangle, twist_family(d.family, sigma), d.basepoint, compose(sigma, d.marking)
    )


# -- pullback ----------------------------------------------------------------------


def closed_star_inclusion(base: BaseGraph, v: str) -> GraphMap:
    """The closed star of v as a subgraph, with its inclusion map."""
    ends = base.incident_ends(v)
    eids = sorted({eid for eid, _ in ends})
    vertices = {v}
    for eid in eids:
        e = base.edges[eid]
        vertices |= {e.frm, e.to}
    sub = BaseGraph(sorted(vertices), [base.edges[eid] for eid in eids])
    return graph_map(
        sub,
        base,
        {u: ("vertex", u) for u in sub.vertices},
        {eid: ("segment", eid, 0, 1) for eid in eids},
    )


def _flip_edge_outward(fam: PLFamily, eid: str, new_id: str, basepoint: str) -> tuple:
    """Leg data (Edge, chart, center glue) oriented away from the basepoint.

    The far end becomes a fresh leaf so legs sharing a far vertex come apart.
    """
    e = fam.base.edges[eid]
    leaf = f"leaf.{new_id}"
    if e.frm == basepoint:
        return Edge(new_id, basepoint, leaf), fam.charts[eid], fam.glue_from[eid]
    chart = chart_reparam(fam.charts[eid], Fraction(1), Fraction(0))
    return Edge(new_id, basepoint, leaf), chart, fam.glue_to[eid]


def pullback_deformation(g: GraphMap, d: Deformation, basepoint: str) -> Deformation:
    """Pull the germ back along a pointed map into the deformation's base.

    ``g`` maps some graph into the star carrying ``d``; the result lives
    on the closed star of ``basepoint`` in the domain of ``g``, with legs
    reoriented outward and renamed after the legs of ``d`` they map into,
    so germ comparisons line up without extra bookkeeping.
    """
    if g.cod != d.family.base:
        raise IllTypedMap("map does not land in the deformation's carrier")
    if basepoint not in g.dom.vertices:
        raise IllTypedMap(f"basepoint {basepoint} not in the domain")
    if g.vertex_image[basepoint] != ("vertex", d.basepoint):
        raise IllTypedMap("map is not pointed")
    incl = closed_star_inclusion(g.dom, basepoint)
    restricted = compose_graph_maps(g, incl)
    fam = pullback_family(restricted, d.family)

    edges, charts, gf, gt, vl = [], {}, {}, {}, {basepoint: fam.vertex_lengths[basepoint]}
    used = set()
    for eid in sorted(fam.base.edges):
        img = restricted.edge_image[eid]
        e = fam.base.edges[eid]
        if img[0] == "segment":
            _, ce, a, b = img
            side = a if e.frm == basepoint else b
            end = "from" if side == 0 else "to"
            target = _germ_edge_id(d.family.base, d.basepoint, ce, end)
        else:
            target = eid
        if e.frm == e.to:
            # loops normalize to two germ legs later; keep the mapped name
            new_id = target if target not in used else f"{target}#{eid}"
            used.add(new_id)
            edges.append(Edge(new_id, basepoint, basepoint))
            charts[new_id] = fam.charts[eid]
            gf[new_id], gt[new_id] = fam.glue_from[eid], fam.glue_to[eid]
            continue
        new_id = target if target not in used else f"{target}#{eid}"
        used.add(new_id)
        edge, chart, center_glue = _flip_edge_outward(fam, eid, new_id, basepoint)
        edges.append(edge)
        charts[new_id] = chart
        gf[new_id] = center_glue
        gt[new_id] = "e"
        vl[edge.to] = chart[-1][1]
    base = BaseGraph(sorted(vl), edges)
    out = validate_family(PLFamily(base, vl, charts, gf, gt))
    return deformation(d.triangle, out, basepoint, d.marking)


# -- files --------------------------------------------------------------------------


def deformation_to_json(d: Deformation) -> dict:
    data = family_to_json(d.family)
    data["basepoint"] = d.basepoint
    data["triangle"] = [str(v) for v in d.triangle.astuple()]
    data["marking"] = d.marking
    return data


DEFORMATION = {**FAMILY, "triangle": None, "basepoint": str, "marking?": str}


def deformation_from_json(raw: dict) -> Deformation:
    fam = family_from_json(raw)
    return read(raw, DEFORMATION, lambda raw: _deformation_from_records(raw, fam), FamilyError)


def _deformation_from_records(raw: dict, fam: PLFamily) -> Deformation:
    t = RationalReader(FamilyError).lengths(raw["triangle"], "triangle")
    return deformation(t, fam, raw["basepoint"], raw.get("marking", "e"))
