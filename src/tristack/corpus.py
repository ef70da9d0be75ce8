"""Seeded generators and stock instances for tests and the acceptance suite.

Everything here is deterministic given the seed.  The category-side
corpus leans on constructions that are functorial by design (slices,
posets, categories of elements of sums of representables, group
2-cocycles) so that generated instances are valid without per-instance
repair.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import trigeo
from .fincat import (
    FinCat,
    build_category,
    compose_functors,
    discrete_category,
    elements_fibration,
    functors,
    group_category,
    identity_functor,
    interval_category,
    poset_category,
    slice_category,
)

PERMS_POOL = trigeo.PERMS
from .grothendieck import PseudoFunctor, strict_pseudofunctor
from .descent import FiniteSite, jointly_covering_site
from .groups import group_z2, group_z3


# -- stock groups as one-object categories ------------------------------------
# the stock tables read "a then b"; both groups are abelian, so that is also a∘b


def z2_category():
    grp = group_z2()
    return group_category(grp.elements, grp.table)


def z3_category():
    grp = group_z3()
    return group_category(grp.elements, grp.table, name="r")


# older name, still imported by the tests and the benchmark
identity_endofunctor = identity_functor


# -- poset-of-opens sites ------------------------------------------------------


def opens_two_point_space():
    """Opens of the discrete 2-point space as a poset with point sets."""
    points = {"0": frozenset(), "u1": frozenset({1}), "u2": frozenset({2}), "X": frozenset({1, 2})}
    base = poset_category([("0", "u1"), ("0", "u2"), ("u1", "X"), ("u2", "X")])
    return base, points


def site_two_point_space() -> FiniteSite:
    base, points = opens_two_point_space()

    def cover_pred(x):
        def pred(fam):
            got = frozenset()
            for iota in fam:
                got |= points[base.src(iota)]
            return got == points[x]
        return pred

    return jointly_covering_site(base, {x: cover_pred(x) for x in base.objects})


def site_chain(n: int = 3) -> FiniteSite:
    """Chain poset o0 < o1 < ... ; a family covers x iff it contains id_x."""
    names = [f"o{i}" for i in range(n)]
    base = poset_category(list(zip(names, names[1:])), objects=names)

    def pred_for(x):
        def pred(fam):
            return any(base.src(iota) == x for iota in fam)
        return pred

    return jointly_covering_site(base, {x: pred_for(x) for x in base.objects})


def site_three_atoms() -> FiniteSite:
    """Opens 0 < u1, u2, u3 < X: a 3-piece cover with bottom overlaps."""
    base = poset_category(
        [("0", "u1"), ("0", "u2"), ("0", "u3"), ("u1", "X"), ("u2", "X"), ("u3", "X")]
    )
    points = {
        "0": frozenset(),
        "u1": frozenset({1}),
        "u2": frozenset({2}),
        "u3": frozenset({3}),
        "X": frozenset({1, 2, 3}),
    }

    def pred_for(x):
        def pred(fam):
            got = frozenset()
            for iota in fam:
                got |= points[base.src(iota)]
            return got == points[x]
        return pred

    return jointly_covering_site(base, {x: pred_for(x) for x in base.objects})


def site_of_opens(opens) -> FiniteSite:
    """Opens of a finite space (point sets of single digits) ordered by inclusion,
    where a family covers U when its pieces make up U.  The empty open is
    named "0" and any other "u" and its points, e.g. "u13"."""
    points = {("u" + "".join(map(str, sorted(u))) if u else "0"): frozenset(u) for u in opens}
    base = poset_category([(a, b) for a in points for b in points if points[a] < points[b]], objects=sorted(points))

    def pred_for(x):
        return lambda fam: frozenset().union(*(points[base.src(iota)] for iota in fam)) == points[x]

    return jointly_covering_site(base, {x: pred_for(x) for x in base.objects})


def site_discrete_space(n: int) -> FiniteSite:
    """Every subset of the points 1..n is open: 2^n objects, 3^n arrows."""
    return site_of_opens(itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
    ))


# -- discrete fibrations from presheaves --------------------------------------


def representable_presheaf(base: FinCat, x: str):
    """values/restrictions tables of Hom(-, x)."""
    values = {a: base.hom(a, x) for a in base.objects}
    restrictions = {
        f: {e: base.compose(e, f) for e in values[base.tgt(f)]} for f in base.morphisms
    }
    return values, restrictions


def sum_of_representables(base: FinCat, objects):
    """Disjoint union of representables: always a strictly functorial presheaf."""
    values = {a: [] for a in base.objects}
    restrictions = {f: {} for f in base.morphisms}
    for idx, x in enumerate(objects):
        v, r = representable_presheaf(base, x)
        for a in base.objects:
            values[a].extend(f"{idx}:{e}" for e in v[a])
        for f in base.morphisms:
            for e, img in r[f].items():
                restrictions[f][f"{idx}:{e}"] = f"{idx}:{img}"
    return values, restrictions


def constant_presheaf(base: FinCat, elements):
    values = {a: list(elements) for a in base.objects}
    restrictions = {f: {e: e for e in elements} for f in base.morphisms}
    return values, restrictions


# -- category zoo and random posets --------------------------------------------


def parallel_pair_category():
    return build_category(["a", "b"], [("f", "a", "b"), ("g", "a", "b")])


def small_category_zoo():
    return {
        "interval": interval_category(),
        "discrete1": discrete_category(["*"]),
        "discrete2": discrete_category(["p", "q"]),
        "chain3": poset_category([("x", "y"), ("y", "z")]),
        "diamond": poset_category([("0", "l"), ("0", "r"), ("l", "1"), ("r", "1")]),
        "z2": z2_category(),
        "z3": z3_category(),
        "parallel": parallel_pair_category(),
    }


def random_poset(rng: random.Random, max_objects=5):
    n = rng.randint(2, max_objects)
    names = [f"o{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                pairs.append((names[i], names[j]))
    return poset_category(pairs, objects=names)


def all_functors(dom: FinCat, cod: FinCat, limit=None):
    """Every functor dom -> cod, the first ``limit`` of them if given."""
    return list(itertools.islice(functors(dom, cod, dict.fromkeys(dom.objects, cod.objects)), limit))


# -- pseudo-functor corpus -------------------------------------------------------


def chain_pseudofunctor(rng: random.Random, length=3, fiber_pool=None):
    """Strict pseudo-functor over a chain poset with seeded step functors."""
    names = [f"o{i}" for i in range(length)]
    base = poset_category(list(zip(names, names[1:])), objects=names)
    pool = fiber_pool or [
        discrete_category(["*"]),
        discrete_category(["p", "q"]),
        interval_category(),
        z2_category(),
    ]
    fibers = {name: rng.choice(pool) for name in names}
    steps = {}
    for i in range(length - 1):
        cands = all_functors(fibers[names[i + 1]], fibers[names[i]])
        steps[i] = rng.choice(cands)
    pullbacks = {}
    for m in base.morphisms.values():
        if base.is_identity(m.id):
            pullbacks[m.id] = identity_functor(fibers[m.src])
            continue
        i, j = names.index(m.src), names.index(m.tgt)
        fun = identity_functor(fibers[names[j]])
        for k in range(j - 1, i - 1, -1):
            fun = compose_functors(steps[k], fun)
        pullbacks[m.id] = fun
    return strict_pseudofunctor(base, fibers, pullbacks)


def cocycle_pseudofunctor(base_group: str, fiber_group: str, twist: dict):
    """Identity-pullback pseudo-functor over a one-object group base.

    ``twist`` sends pairs of base arrow ids to fiber arrow ids; use it for
    the nontrivial group 2-cocycles.  The caller should validate: not
    every assignment closes.
    """
    base = {"Z2": z2_category, "Z3": z3_category}[base_group]()
    fib = {"Z2": z2_category, "Z3": z3_category}[fiber_group]()
    fibers = {base.objects[0]: fib}
    pullbacks = {m: identity_functor(fib) for m in base.morphisms}
    p = strict_pseudofunctor(base, fibers, pullbacks)
    alpha = dict(p.alpha)
    star = fib.objects[0]
    for pair, val in twist.items():
        alpha[pair] = {star: val}
    return PseudoFunctor(base, fibers, pullbacks, p.epsilon, alpha)


def pseudofunctor_corpus(seed=0, n=12):
    from .grothendieck import validate_pseudofunctor

    rng = random.Random(seed)
    out = []
    out.append(cocycle_pseudofunctor("Z2", "Z2", {}))
    out.append(cocycle_pseudofunctor("Z2", "Z2", {("g:s", "g:s"): "g:s"}))
    out.append(cocycle_pseudofunctor("Z3", "Z3", {}))
    # the nontrivial Z/3 cocycle: c(r^a, r^b) = r when a + b >= 3
    z3 = z3_category()
    pow_of = {"id_*": 0, "r:r": 1, "r:r2": 2}
    twist = {
        (f, g): ("r:r" if pow_of[f] + pow_of[g] >= 3 else "id_*")
        for f in z3.morphisms
        for g in z3.morphisms
    }
    out.append(cocycle_pseudofunctor("Z3", "Z3", twist))
    while len(out) < n:
        out.append(chain_pseudofunctor(rng, length=rng.randint(2, 3)))
    for p in out:
        v = validate_pseudofunctor(p)
        if not v.ok:
            raise RuntimeError(f"corpus generator produced an invalid pseudo-functor: {v.reason}")
    return out


# -- fibered-category corpus -------------------------------------------------------


def fibered_corpus(seed=0, n=100, max_base_objects=5, max_morphisms=25):
    """Fibered functors: slices, element categories, totals, identities."""
    from .grothendieck import total_category

    rng = random.Random(seed)
    out = []

    def keep(fun):
        if len(fun.cod.objects) <= max_base_objects and len(fun.dom.morphisms) <= max_morphisms:
            out.append(fun)

    for name, cat in sorted(small_category_zoo().items()):
        keep(identity_functor(cat))
        for x in cat.objects:
            _, proj = slice_category(cat, x)
            keep(proj)
    for p in pseudofunctor_corpus(seed, n=10):
        _, proj = total_category(p)
        keep(proj)
    while len(out) < n:
        base = random_poset(rng, max_base_objects)
        choice = rng.random()
        if choice < 0.4:
            x = rng.choice(base.objects)
            _, proj = slice_category(base, x)
            keep(proj)
        elif choice < 0.8:
            summands = [rng.choice(base.objects) for _ in range(rng.randint(1, 3))]
            values, restrictions = sum_of_representables(base, summands)
            _, proj = elements_fibration(base, values, restrictions)
            keep(proj)
        else:
            keep(identity_functor(base))
    return out


# -- torsor glue corpus ---------------------------------------------------------------


def _complex(vertices, edges, faces=()):
    from .torsor import Edge as CEdge, Face, SimplicialBase

    return SimplicialBase(
        vertices,
        [CEdge(*e) for e in edges],
        [Face(fid, tuple(boundary)) for fid, boundary in faces],
    )


def circle_base(k: int):
    vertices = [f"a{i}" for i in range(k)]
    edges = [(f"e{i}", f"a{i}", f"a{(i + 1) % k}") for i in range(k)]
    return _complex(vertices, edges)


def path_base(k: int):
    vertices = [f"a{i}" for i in range(k + 1)]
    edges = [(f"e{i}", f"a{i}", f"a{i + 1}") for i in range(k)]
    return _complex(vertices, edges)


def triangle_base():
    return _complex(
        ["u", "v", "w"],
        [("euv", "u", "v"), ("evw", "v", "w"), ("ewu", "w", "u")],
        [("f", (("euv", 1), ("evw", 1), ("ewu", 1)))],
    )


def two_triangle_base():
    return _complex(
        ["u", "v", "w", "x"],
        [
            ("euv", "u", "v"),
            ("evw", "v", "w"),
            ("ewu", "w", "u"),
            ("evx", "v", "x"),
            ("exw", "x", "w"),
        ],
        [
            ("f1", (("euv", 1), ("evw", 1), ("ewu", 1))),
            ("f2", (("evx", 1), ("exw", 1), ("evw", -1))),
        ],
    )


def random_graph_base(rng: random.Random, max_vertices=6):
    n = rng.randint(3, max_vertices)
    vertices = [f"a{i}" for i in range(n)]
    edges = [(f"t{i}", vertices[rng.randint(0, i)], vertices[i + 1]) for i in range(n - 1)]
    extra = rng.randint(0, 2)
    eid = 0
    seen = {tuple(sorted((e[1], e[2]))) for e in edges}
    while extra and eid < 10:
        eid += 1
        a, b = rng.sample(vertices, 2)
        if tuple(sorted((a, b))) in seen:
            continue
        seen.add(tuple(sorted((a, b))))
        edges.append((f"x{eid}", a, b))
        extra -= 1
    return _complex(vertices, edges)


def simplicial_base_corpus(seed=0, n=20):
    rng = random.Random(seed)
    out = [
        circle_base(2),
        circle_base(3),
        circle_base(4),
        circle_base(5),
        path_base(1),
        path_base(3),
        triangle_base(),
        two_triangle_base(),
    ]
    while len(out) < n:
        out.append(random_graph_base(rng))
    return out


def glue_data_from_torsor(torsor):
    """Star-cover glue data presenting an existing torsor.

    Requires every closed-star restriction to be trivial (true for
    simple-graph bases and for face-closed complexes); derives the
    overlap identifications from the per-piece trivializing gauges.
    """
    from .torsor import GlueData, _pieces_by_cell, is_trivial, restrict_torsor, star_cover

    base, grp = torsor.base, torsor.group
    pieces = star_cover(base)
    gauges = []
    for cells in pieces:
        triv = is_trivial(restrict_torsor(torsor, cells))
        if not triv:
            raise ValueError("a star restriction is not trivial; no glue presentation")
        gauges.append(triv.gauge)
    # only pieces that share a cell overlap
    meeting = {(i, j) for owners in _pieces_by_cell(pieces).values() for i in owners for j in owners if i < j}
    transitions = {}
    for i, j in sorted(meeting):
        table = {}
        for cell in pieces[i] & pieces[j]:
            v = _vertex_of_cell(base, cell)
            table[cell] = grp.mul(grp.inverse(gauges[i][v]), gauges[j][v])
        transitions[(i, j)] = table
    return GlueData(base, grp, pieces, transitions)


def _vertex_of_cell(base, cell):
    if cell in base.vertex_set:
        return cell
    if cell in base.edges:
        return base.edges[cell].frm
    return base.face_vertices(cell)[0]


def random_torsor(rng: random.Random, base, group, star_presentable=False):
    """Face-compatible random transitions.

    With ``star_presentable`` (or whenever the base has faces, loops or
    multi-edges, so closed stars contain cycles) the result is a gauge
    transform of the trivial torsor, guaranteeing trivial star
    restrictions; otherwise transitions are free random elements.
    """
    from .torsor import TorsorCocycle, gauge_transform, validate_torsor

    seen_pairs = set()
    tricky = bool(base.faces)
    for e in base.edges.values():
        pair = tuple(sorted((e.frm, e.to)))
        if e.frm == e.to or pair in seen_pairs:
            tricky = True
        seen_pairs.add(pair)
    if tricky or star_presentable:
        trivial = TorsorCocycle(base, group, {e: group.identity for e in base.edges})
        gauge = {v: rng.choice(group.elements) for v in base.vertices}
        t = gauge_transform(trivial, gauge)
    else:
        t = TorsorCocycle(
            base, group, {e: rng.choice(group.elements) for e in base.edges}
        )
    if not validate_torsor(t).ok:
        raise RuntimeError("random torsor generator broke the face condition")
    return t


# -- family corpus ----------------------------------------------------------------------


def random_interior_triple(rng: random.Random):
    def f(lo, hi, q=12):
        return Fraction(rng.randint(int(lo * q), int(hi * q)), q)

    x = f(Fraction(1, 2), 3)
    y = f(Fraction(1, 2), 3)
    lam = Fraction(rng.randint(1, 11), 12)
    lo, hi = abs(x - y), x + y
    return trigeo.TriangleLengths(x, y, lo + lam * (hi - lo))


def _random_chart_between(rng, start, end):
    k = rng.randint(0, 2)
    times = sorted(rng.sample([Fraction(i, 8) for i in range(1, 8)], k))
    pts = [(Fraction(0), start)]
    for t in times:
        pts.append((t, random_interior_triple(rng)))
    pts.append((Fraction(1), end))
    return tuple(pts)


def family_graph_pool():
    from .families import graph

    return [
        graph(["p", "q"], [("e0", "p", "q")]),
        graph(["p", "q", "r"], [("e0", "p", "q"), ("e1", "q", "r")]),
        graph(["v0", "v1"], [("e0", "v0", "v1"), ("e1", "v1", "v0")]),
        graph(["c"], [("loop", "c", "c")]),
        graph(["c", "p", "q"], [("e0", "c", "p"), ("e1", "c", "q"), ("e2", "q", "c")]),
    ]


def random_family(rng: random.Random, base=None):
    from .families import PLFamily, validate_family
    from .trigeo import act, inverse

    base = base or rng.choice(family_graph_pool())
    vl = {v: random_interior_triple(rng) for v in base.vertices}
    charts, gf, gt = {}, {}, {}
    for eid, e in base.edges.items():
        gf[eid] = rng.choice(PERMS_POOL)
        gt[eid] = rng.choice(PERMS_POOL)
        start = act(inverse(gf[eid]), vl[e.frm])
        end = act(inverse(gt[eid]), vl[e.to])
        charts[eid] = _random_chart_between(rng, start, end)
    return validate_family(PLFamily(base, vl, charts, gf, gt))


def family_corpus(seed=0, n=20):
    from .families import constant_family, fixture_mobius, fixture_remark25, graph, twist_family

    rng = random.Random(seed)
    f, g = fixture_remark25()
    out = [
        f,
        g,
        fixture_mobius(),
        twist_family(g, "(ABC)"),
        constant_family(graph(["p", "q"], [("e0", "p", "q")]), (3, 4, 5)),
    ]
    while len(out) < n:
        out.append(random_family(rng))
    return out


# -- deformation corpus --------------------------------------------------------------


def star_graph(legs: int, loop=False):
    from .families import graph

    vertices = ["x0"] + [f"v{i}" for i in range(legs)]
    edges = []
    for i in range(legs):
        if i % 2 == 0:
            edges.append((f"s{i}", "x0", f"v{i}"))
        else:
            edges.append((f"s{i}", f"v{i}", "x0"))
    if loop:
        edges.append(("loop", "x0", "x0"))
    return graph(vertices, edges)


def random_deformation(rng: random.Random, triangle=None, legs=None, loop=False):
    from .deform import deformation
    from .families import PLFamily, validate_family
    from .trigeo import act, inverse

    t = triangle or random_interior_triple(rng)
    marking = rng.choice(PERMS_POOL)
    base = star_graph(legs if legs is not None else rng.randint(1, 3), loop=loop)
    center = act(marking, t)
    vl = {"x0": center}
    charts, gf, gt = {}, {}, {}
    for eid, e in base.edges.items():
        gf[eid] = rng.choice(PERMS_POOL)
        gt[eid] = rng.choice(PERMS_POOL)
        if e.frm == "x0" and e.to != "x0":
            start = act(inverse(gf[eid]), center)
            far = random_interior_triple(rng)
            vl[e.to] = far
            end = act(inverse(gt[eid]), far)
        elif e.to == "x0" and e.frm != "x0":
            far = random_interior_triple(rng)
            vl[e.frm] = far
            start = act(inverse(gf[eid]), far)
            end = act(inverse(gt[eid]), center)
        else:
            start = act(inverse(gf[eid]), center)
            end = act(inverse(gt[eid]), center)
        charts[eid] = _random_chart_between(rng, start, end)
    fam = validate_family(PLFamily(base, vl, charts, gf, gt))
    return deformation(t, fam, "x0", marking)


def deformation_corpus(seed=0, n=20):
    rng = random.Random(seed)
    out = [
        random_deformation(rng, triangle=trigeo.TriangleLengths(2, 2, 3), legs=2),
        random_deformation(rng, triangle=trigeo.TriangleLengths(2, 2, 2), legs=1),
        random_deformation(rng, legs=0),
        random_deformation(rng, legs=1, loop=True),
    ]
    while len(out) < n:
        out.append(random_deformation(rng))
    return out
