"""Pseudo-functors on a finite base and the total-category construction.

Both directions of the correspondence between pseudo-functors and
fibered categories are implemented on explicit finite data: the total
category of a pseudo-functor (with its projection and canonical
cartesian lifts) and the extraction of a pseudo-functor from a fibered
functor along a chosen cleavage.  Coherence data (the unit isomorphisms
per object and the composition isomorphisms per composable pair) is
stored componentwise and checked, never assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fincat import (
    FinCat,
    Functor,
    Morphism,
    Verdict,
    categories_isomorphic,
    category_to_json,
    compose_functors,
    fiber,
    functor_from_json,
    functor_to_json,
    identity_functor,
    is_cartesian,
    is_fibered,
    validate_category,
    validate_functor,
)


class InvalidPseudoFunctor(ValueError):
    pass


class InvalidCleavage(ValueError):
    pass


@dataclass(frozen=True)
class PseudoFunctor:
    """Fiberwise data over a finite base category.

    ``fibers[S]`` is the category over the base object S;
    ``pullbacks[f]`` for a base arrow f: T -> S is the functor
    fibers[S] -> fibers[T]; ``epsilon[S][s]`` is the component at s of
    the unit isomorphism id_S* => Id; ``alpha[(f, g)][s]`` the component
    at s of f*∘g* => (g∘f)*, stored for every composable pair, identity
    pairs included.
    """

    base: FinCat
    fibers: dict
    pullbacks: dict
    epsilon: dict
    alpha: dict

    def fiber_of_arrow_src(self, f: str) -> FinCat:
        return self.fibers[self.base.src(f)]

    def composable_pairs(self):
        """Pairs (f, g) with tgt(f) == src(g), so g∘f is defined."""
        for f in sorted(self.base.morphisms):
            for g in sorted(self.base.morphisms):
                if self.base.composable(g, f):
                    yield (f, g)


def _is_natural(fib_src: FinCat, fib_tgt: FinCat, fun1: Functor, fun2: Functor, components: dict):
    """components[s]: fun1(s) -> fun2(s) natural in s, all isos required."""
    for s in fib_src.objects:
        comp = components.get(s)
        if comp is None or comp not in fib_tgt.morphisms:
            return Verdict(False, "missing component", (s,))
        mor = fib_tgt.morphisms[comp]
        if mor.src != fun1.obj_map[s] or mor.tgt != fun2.obj_map[s]:
            return Verdict(False, "component has wrong endpoints", (s,))
        if not fib_tgt.is_iso(comp):
            return Verdict(False, "component not an isomorphism", (s,))
    for u in fib_src.morphisms:
        a, b = fib_src.src(u), fib_src.tgt(u)
        lhs = fib_tgt.compose(components[b], fun1.mor_map[u])
        rhs = fib_tgt.compose(fun2.mor_map[u], components[a])
        if lhs != rhs:
            return Verdict(False, "naturality square fails", (u,))
    return Verdict(True)


def validate_pseudofunctor(p: PseudoFunctor) -> Verdict:
    """All coherence axioms, exhaustively; names the first failure."""
    base = p.base
    for s in base.objects:
        if s not in p.fibers:
            return Verdict(False, "missing fiber", (s,))
    for f in base.morphisms:
        fun = p.pullbacks.get(f)
        if fun is None:
            return Verdict(False, "missing pullback functor", (f,))
        src_fib, tgt_fib = p.fibers[base.tgt(f)], p.fibers[base.src(f)]
        if fun.dom is not src_fib and fun.dom != src_fib:
            return Verdict(False, "pullback functor has wrong domain", (f,))
        v = validate_functor(fun, tgt_fib, src_fib)
        if not v.ok:
            return Verdict(False, f"pullback functor invalid: {v.reason}", (f,) + (v.witness or ()))

    for s in base.objects:
        fib = p.fibers[s]
        v = _is_natural(fib, fib, p.pullbacks[base.identity[s]], identity_functor(fib), p.epsilon.get(s, {}))
        if not v.ok:
            return Verdict(False, f"epsilon at {s}: {v.reason}", (s,) + (v.witness or ()))

    for f, g in p.composable_pairs():
        comp = p.alpha.get((f, g))
        if comp is None:
            return Verdict(False, "missing alpha table", (f, g))
        gf = base.compose(g, f)
        src_fib = p.fibers[base.tgt(g)]
        tgt_fib = p.fibers[base.src(f)]
        composite_fun = compose_functors(p.pullbacks[f], p.pullbacks[g])
        v = _is_natural(src_fib, tgt_fib, composite_fun, p.pullbacks[gf], comp)
        if not v.ok:
            return Verdict(False, f"alpha at ({f},{g}): {v.reason}", (f, g) + (v.witness or ()))

    # unit laws: alpha_{id,g} = epsilon ∘ g*  and  alpha_{f,id} = f* ∘ epsilon
    for g in base.morphisms:
        t, s = base.src(g), base.tgt(g)
        id_t = base.identity[t]
        want = {s_obj: p.epsilon[t][p.pullbacks[g].obj_map[s_obj]] for s_obj in p.fibers[s].objects}
        if p.alpha[(id_t, g)] != want:
            return Verdict(False, "unit law alpha(id, g) fails", (g,))
        id_s = base.identity[s]
        want = {s_obj: p.pullbacks[g].mor_map[p.epsilon[s][s_obj]] for s_obj in p.fibers[s].objects}
        if p.alpha[(g, id_s)] != want:
            return Verdict(False, "unit law alpha(f, id) fails", (g,))

    # coherence square over every composable triple
    for f in sorted(base.morphisms):
        for g in sorted(base.morphisms):
            if not base.composable(g, f):
                continue
            for h in sorted(base.morphisms):
                if not base.composable(h, g):
                    continue
                gf = base.compose(g, f)
                hg = base.compose(h, g)
                fib_q = p.fibers[p.base.src(f)]
                f_star = p.pullbacks[f]
                for s in p.fibers[base.tgt(h)].objects:
                    lhs = fib_q.compose(p.alpha[(gf, h)][s], p.alpha[(f, g)][p.pullbacks[h].obj_map[s]])
                    rhs = fib_q.compose(p.alpha[(f, hg)][s], f_star.mor_map[p.alpha[(g, h)][s]])
                    if lhs != rhs:
                        return Verdict(False, "coherence square fails", (f, g, h, s))
    return Verdict(True)


def strict_pseudofunctor(base: FinCat, fibers: dict, pullbacks: dict) -> PseudoFunctor:
    """Identity epsilon/alpha tables; valid iff the assignment is strictly functorial."""
    epsilon = {s: {o: fibers[s].identity[o] for o in fibers[s].objects} for s in base.objects}
    alpha = {}
    for f in base.morphisms:
        for g in base.morphisms:
            if base.composable(g, f):
                fib_q = fibers[base.src(f)]
                comp = compose_functors(pullbacks[f], pullbacks[g]).obj_map
                alpha[(f, g)] = {s: fib_q.identity[comp[s]] for s in fibers[base.tgt(g)].objects}
    return PseudoFunctor(base, fibers, pullbacks, epsilon, alpha)


# -- total category ----------------------------------------------------------


def _obj_id(s, S):
    return f"{s}@{S}"


def _mor_id(u, f, s):
    return f"{u}|{f}|{s}"


def total_category(p: PseudoFunctor):
    """The fibered category a pseudo-functor presents, with its projection.

    Objects are pairs (fiber object, base object); a morphism into (s, S)
    over f: T -> S is a fiber morphism u: t -> f*(s).  Composition
    follows the transport formula: the fiber part of (v,g)∘(u,f) is
    alpha∘f*(v)∘u.  The result is revalidated as a category, projected,
    and the canonical lifts (id, f) are certified cartesian.
    """
    v = validate_pseudofunctor(p)
    if not v.ok:
        raise InvalidPseudoFunctor(f"{v.reason} at {v.witness}")
    base = p.base
    objects = []
    obj_map = {}
    for S in base.objects:
        for s in p.fibers[S].objects:
            oid = _obj_id(s, S)
            objects.append(oid)
            obj_map[oid] = S

    morphisms = []
    mor_map = {}
    mor_data = {}
    for f in sorted(base.morphisms):
        T, S = base.src(f), base.tgt(f)
        fib_t = p.fibers[T]
        for s in p.fibers[S].objects:
            target_of_u = p.pullbacks[f].obj_map[s]
            for t in fib_t.objects:
                for u in fib_t.hom(t, target_of_u):
                    mid = _mor_id(u, f, s)
                    morphisms.append(Morphism(mid, _obj_id(t, T), _obj_id(s, S)))
                    mor_map[mid] = f
                    mor_data[mid] = (u, f, s)

    identity = {}
    for S in base.objects:
        fib = p.fibers[S]
        for s in fib.objects:
            eps_inv = fib.inverse(p.epsilon[S][s])
            identity[_obj_id(s, S)] = _mor_id(eps_inv, base.identity[S], s)

    table = {}
    by_obj = {}
    for m in morphisms:
        by_obj.setdefault(m.src, []).append(m.id)
    for m2 in morphisms:  # (u, f): (q,Q) -> (t,T)
        u, f, t_obj = mor_data[m2.id]
        Q = base.src(f)
        fib_q = p.fibers[Q]
        for m1_id in by_obj.get(m2.tgt, ()):  # (v, g): (t,T) -> (s,S)
            v_mor, g, s_obj = mor_data[m1_id]
            gf = base.compose(g, f)
            w = fib_q.compose(p.alpha[(f, g)][s_obj], fib_q.compose(p.pullbacks[f].mor_map[v_mor], u))
            table[(m1_id, m2.id)] = _mor_id(w, gf, s_obj)

    total = FinCat(objects, morphisms, identity, table)
    projection = Functor(total, base, obj_map, mor_map)
    fv = validate_functor(projection)
    if not fv.ok:
        raise RuntimeError(f"internal: total projection invalid ({fv.reason})")
    fib_verdict = is_fibered(projection)
    if not fib_verdict.ok:
        raise RuntimeError(f"internal: total category not fibered at {fib_verdict.witness}")
    return total, projection


def canonical_lift(p: PseudoFunctor, f: str, s: str) -> str:
    """The lift (id, f): (f*s, T) -> (s, S) used in the construction."""
    t = p.pullbacks[f].obj_map[s]
    return _mor_id(p.fibers[p.base.src(f)].identity[t], f, s)


def canonical_lifts_are_cartesian(p: PseudoFunctor, projection: Functor) -> bool:
    for f in p.base.morphisms:
        for s in p.fibers[p.base.tgt(f)].objects:
            if not is_cartesian(projection, canonical_lift(p, f, s)):
                return False
    return True


# -- extraction along a cleavage ---------------------------------------------


def default_cleavage(fun: Functor) -> dict:
    """Lexicographically least cartesian lift per (arrow, object over target)."""
    verdict = is_fibered(fun)
    if not verdict.ok:
        raise InvalidCleavage(f"not fibered at {verdict.witness}")
    return dict(verdict.lifts)


def check_cleavage(fun: Functor, cleavage: dict):
    for (f, s_prime), lift in cleavage.items():
        m = fun.dom.morphisms.get(lift)
        if m is None or m.tgt != s_prime or fun.mor_map[lift] != f:
            raise InvalidCleavage((f, s_prime))
        if not is_cartesian(fun, lift):
            raise InvalidCleavage((f, s_prime))
    for f, s_prime in _cleavage_domain(fun):
        if (f, s_prime) not in cleavage:
            raise InvalidCleavage((f, s_prime))


def _cleavage_domain(fun: Functor):
    for f in fun.cod.morphisms:
        for o in fun.dom.objects:
            if fun.obj_map[o] == fun.cod.tgt(f):
                yield f, o


def _unique_factor(fun: Functor, through: str, over: str, target_mor: str) -> str:
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


def extract_pseudofunctor(fun: Functor, cleavage: dict | None = None) -> PseudoFunctor:
    """Pseudo-functor of a fibered functor along a cleavage.

    Fibers are the literal fibers; each pullback functor sends an object
    over S to the source of its chosen cartesian lift and factors fiber
    morphisms uniquely through the lifts; the unit and composition
    isomorphisms are the induced unique mediating fiber morphisms.
    """
    if cleavage is None:
        cleavage = default_cleavage(fun)
    else:
        check_cleavage(fun, cleavage)
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
            mor_map[u] = _unique_factor(fun, cleavage[(f, s2)], id_t, target)
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
                comp[s] = _unique_factor(fun, cleavage[(gf, s)], base.identity[base.src(f)], via_pair)
            alpha[(f, g)] = comp
    return PseudoFunctor(base, fibers, pullbacks, epsilon, alpha)


def roundtrip_check(fun: Functor, cleavage: dict | None = None) -> bool:
    """Fibers survive extract-then-total up to isomorphism of categories."""
    p = extract_pseudofunctor(fun, cleavage)
    _, projection = total_category(p)
    for S in fun.cod.objects:
        if not categories_isomorphic(fiber(fun, S), fiber(projection, S)):
            return False
    return True


# -- file format --------------------------------------------------------------


def pseudofunctor_to_json(p: PseudoFunctor) -> dict:
    return {
        "base": category_to_json(p.base),
        "fibers": {S: category_to_json(p.fibers[S]) for S in p.base.objects},
        "pullbacks": {f: functor_to_json(p.pullbacks[f]) for f in sorted(p.pullbacks)},
        "epsilon": {S: dict(sorted(p.epsilon[S].items())) for S in p.base.objects},
        "alpha": [
            {"f": f, "g": g, "components": dict(sorted(comp.items()))}
            for (f, g), comp in sorted(p.alpha.items())
        ],
    }


def pseudofunctor_from_json(raw: dict) -> PseudoFunctor:
    base = validate_category(raw["base"])
    fibers = {S: validate_category(raw["fibers"][S]) for S in base.objects}
    pullbacks = {
        f: functor_from_json(raw["pullbacks"][f], fibers[base.tgt(f)], fibers[base.src(f)])
        for f in raw["pullbacks"]
    }
    alpha = {(entry["f"], entry["g"]): dict(entry["components"]) for entry in raw["alpha"]}
    epsilon = {S: dict(raw["epsilon"][S]) for S in raw["epsilon"]}
    return PseudoFunctor(base, fibers, pullbacks, epsilon, alpha)


def load_pseudofunctor(path) -> PseudoFunctor:
    with open(path, encoding="utf-8") as fh:
        return pseudofunctor_from_json(json.load(fh))
