"""Finite Grothendieck sites, descent data, and stack verdicts.

A site here is a finite category with chosen pullbacks and explicitly
listed covering families; the three covering axioms are verified, not
assumed.  Descent data for a fibered functor are expressed through a
fixed cleavage: restrictions are the cleavage's pullback functors, and
every comparison of restrictions along different routes goes through the
cleavage's coherence isomorphisms, transported to a common triple
overlap.  Changing the chosen pullbacks or the cleavage changes descent
data only up to canonical isomorphism, so both choices are pinned.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .fincat import (
    FinCat,
    Functor,
    PullbackSquare,
    Verdict,
    category_to_json,
    pullback,
    validate_category,
)
from .grothendieck import PseudoFunctor, default_cleavage, extract_pseudofunctor


class SiteError(ValueError):
    pass


class MissingPullback(SiteError):
    pass


class MissingTransition(SiteError):
    pass


class CocycleFails(SiteError):
    pass


def _canonical_family(fam):
    """Families are finite sets of arrows: sorted, duplicates collapsed."""
    return tuple(sorted(set(fam)))


class FiniteSite:
    """Base category, covering table, and a deterministic pullback choice."""

    def __init__(self, base: FinCat, coverings: dict, pullback_choice: dict | None = None):
        self.base = base
        self.coverings = {
            x: sorted({_canonical_family(fam) for fam in fams}) for x, fams in coverings.items()
        }
        self._chosen = dict(pullback_choice or {})

    def families(self, x: str):
        return list(self.coverings.get(x, ()))

    def has_family(self, x: str, fam) -> bool:
        return _canonical_family(fam) in self.coverings.get(x, ())

    def chosen_pullback(self, f: str, g: str) -> PullbackSquare:
        key = (f, g)
        if key not in self._chosen:
            sq = pullback(self.base, f, g)
            if sq is None:
                raise MissingPullback((f, g))
            self._chosen[key] = sq
        return self._chosen[key]


def validate_site(site: FiniteSite) -> Verdict:
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


def jointly_covering_site(base: FinCat, union_covers: dict) -> FiniteSite:
    """Site whose coverings over x are all families listed by the predicate table.

    ``union_covers[x]`` is a function (or container) deciding which subsets
    of arrows into x are covering; used by the corpus builders for poset
    sites where joint covering is set-theoretic union.
    """
    coverings = {}
    for x in base.objects:
        arrows = sorted(base.into_obj(x))
        fams = []
        for r in range(1, len(arrows) + 1):
            for combo in itertools.combinations(arrows, r):
                if union_covers[x](combo):
                    fams.append(tuple(combo))
        coverings[x] = fams
    return FiniteSite(base, coverings)


# -- cleavage transport -------------------------------------------------------


class Transport:
    """Restriction machinery of a fibered functor along a fixed cleavage."""

    def __init__(self, fun: Functor, cleavage: dict | None = None):
        self.fun = fun
        self.cleavage = cleavage if cleavage is not None else default_cleavage(fun)
        self.psf: PseudoFunctor = extract_pseudofunctor(fun, self.cleavage)

    def fiber(self, x: str) -> FinCat:
        return self.psf.fibers[x]

    def restrict_obj(self, f: str, e: str) -> str:
        """e|_(source of f) for e over the target of f."""
        return self.psf.pullbacks[f].obj_map[e]

    def restrict_mor(self, f: str, u: str) -> str:
        return self.psf.pullbacks[f].mor_map[u]

    def coherence(self, f: str, g: str, s: str) -> str:
        """Component at s of f*∘g* => (g∘f)*."""
        return self.psf.alpha[(f, g)][s]


@dataclass(frozen=True)
class DescentDatum:
    """Objects over the pieces of a covering plus transition isomorphisms.

    ``transitions[(j, i)]`` is the morphism (restriction of the i-th
    object) -> (restriction of the j-th object) in the fiber over the
    chosen overlap of pieces i and j; keys are covering-arrow ids.
    Diagonal entries may be omitted when the overlap square has equal
    projections, and one of each opposite pair may be omitted (derived as
    the inverse).
    """

    x: str
    family: tuple
    objects: dict
    transitions: dict


def _pair_legs(site: FiniteSite, p: str, q: str):
    """Chosen overlap square for covering arrows p, q with legs in slot order."""
    a, b = sorted((p, q))
    sq = site.chosen_pullback(a, b)
    if p == q:
        return sq, sq.to_left, sq.to_right
    if p == a:
        return sq, sq.to_left, sq.to_right
    return sq, sq.to_right, sq.to_left


def complete_datum(site: FiniteSite, transport: Transport, d: DescentDatum) -> DescentDatum:
    """Fill derivable transitions: diagonals and inverses."""
    fam = d.family
    transitions = dict(d.transitions)
    for i in fam:
        if (i, i) in transitions:
            continue
        sq, l1, l2 = _pair_legs(site, i, i)
        if l1 != l2:
            raise MissingTransition((i, i))
        fib = transport.fiber(sq.apex)
        e_restr = transport.restrict_obj(l1, d.objects[i])
        transitions[(i, i)] = fib.identity[e_restr]
    for i in fam:
        for j in fam:
            if i == j or (j, i) in transitions:
                continue
            sq, leg_i, leg_j = _pair_legs(site, i, j)
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


def _check_transition_typing(site, transport, d: DescentDatum) -> Verdict:
    for (j, i), mor in d.transitions.items():
        sq, leg_i, leg_j = _pair_legs(site, i, j)
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


def _mediating(site: FiniteSite, base: FinCat, w: str, sq: PullbackSquare,
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


def _triple_transport(site: FiniteSite, transport: Transport, d: DescentDatum, i, j, k):
    """Transitions of the triple (i, j, k) transported to a common overlap.

    Builds the triple overlap as (overlap of i and j) x_X (piece k),
    produces the mediating maps into the three pairwise overlaps, and
    conjugates each transition by the cleavage coherence so all three
    become morphisms between reference restrictions over the same apex.
    Returns (fiber over apex, A_ij, A_ik, A_kj) where A_pq is the
    transported p -> q transition.
    """
    base = site.base
    sq_ij, leg_i, leg_j = _pair_legs(site, i, j)
    m_ij = base.compose(i, leg_i)
    sq_top = site.chosen_pullback(m_ij, k)
    w = sq_top.apex
    a, b = sq_top.to_left, sq_top.to_right

    c1 = base.compose(leg_i, a)
    c2 = base.compose(leg_j, a)
    c3 = b
    fib_w = transport.fiber(w)

    def transported(is_base_pair, iota_p, iota_q, c_p, c_q):
        sq, lp, lq = _pair_legs(site, iota_p, iota_q)
        u = a if is_base_pair else _mediating(site, base, w, sq, lp, c_p, lq, c_q)
        coh_p = transport.coherence(u, lp, d.objects[iota_p])
        coh_q = transport.coherence(u, lq, d.objects[iota_q])
        moved = transport.restrict_mor(u, d.transitions[(iota_q, iota_p)])
        return fib_w.compose(coh_q, fib_w.compose(moved, fib_w.inverse(coh_p)))

    a_ij = transported(True, i, j, c1, c2)
    a_ik = transported(False, i, k, c1, c3)
    a_kj = transported(False, k, j, c3, c2)
    return fib_w, a_ij, a_ik, a_kj


def check_cocycle(site: FiniteSite, transport: Transport, d: DescentDatum) -> Verdict:
    """Cocycle condition over every ordered triple, repeats included."""
    d = complete_datum(site, transport, d)
    typing = _check_transition_typing(site, transport, d)
    if not typing.ok:
        return typing
    for i in d.family:
        sq, l1, l2 = _pair_legs(site, i, i)
        if l1 == l2:
            fib = transport.fiber(sq.apex)
            if not fib.is_identity(d.transitions[(i, i)]):
                return Verdict(False, "diagonal transition not the identity", (i,))
    for i, j, k in itertools.product(d.family, repeat=3):
        fib_w, a_ij, a_ik, a_kj = _triple_transport(site, transport, d, i, j, k)
        if fib_w.compose(a_kj, a_ik) != a_ij:
            return Verdict(False, "cocycle fails", (i, j, k))
    return Verdict(True)


def comparison_datum(site: FiniteSite, transport: Transport, e: str, x: str, family) -> DescentDatum:
    """Canonical descent datum of a global object over a covering.

    The transitions are the composites of the two cleavage coherence
    isomorphisms through the common restriction to the overlap.
    """
    family = tuple(sorted(family))
    objects = {iota: transport.restrict_obj(iota, e) for iota in family}
    transitions = {}
    for i in family:
        for j in family:
            sq, leg_i, leg_j = _pair_legs(site, i, j)
            fib = transport.fiber(sq.apex)
            coh_i = transport.coherence(leg_i, i, e)
            coh_j = transport.coherence(leg_j, j, e)
            transitions[(j, i)] = fib.compose(fib.inverse(coh_j), coh_i)
    return DescentDatum(x, family, objects, transitions)


def _effectiveness_witnesses(site, transport, d):
    """Every (object e over x, per-piece isomorphisms) inducing the datum, in search order.

    A witness satisfies the defining equation transition(j,i) =
    (a_j restricted) ∘ (canonical comparison of e) ∘ (a_i restricted)^-1
    over every ordered pair.
    """
    cocycle = check_cocycle(site, transport, d)
    if not cocycle.ok:
        raise CocycleFails(cocycle.witness)
    d = complete_datum(site, transport, d)
    fib_x = transport.fiber(d.x)
    for e in sorted(fib_x.objects):
        cmp_datum = comparison_datum(site, transport, e, d.x, d.family)
        iso_choices = []
        for iota in d.family:
            fib_u = transport.fiber(site.base.src(iota))
            e_restr = transport.restrict_obj(iota, e)
            iso_choices.append(
                [m for m in sorted(fib_u.hom(e_restr, d.objects[iota])) if fib_u.is_iso(m)]
            )
        for combo in itertools.product(*iso_choices):
            alphas = dict(zip(d.family, combo))
            if _witnesses_effectiveness(site, transport, d, cmp_datum, alphas):
                yield e, alphas


def is_effective(site: FiniteSite, transport: Transport, d: DescentDatum):
    """Search for a global object inducing the datum; first witness or None."""
    return next(_effectiveness_witnesses(site, transport, d), None)


def _witnesses_effectiveness(site, transport, d, cmp_datum, alphas) -> bool:
    for i in d.family:
        for j in d.family:
            sq, leg_i, leg_j = _pair_legs(site, i, j)
            fib = transport.fiber(sq.apex)
            ai = transport.restrict_mor(leg_i, alphas[i])
            aj = transport.restrict_mor(leg_j, alphas[j])
            beta = cmp_datum.transitions[(j, i)]
            rhs = fib.compose(aj, fib.compose(beta, fib.inverse(ai)))
            if d.transitions[(j, i)] != rhs:
                return False
    return True


def all_effectiveness_witnesses(site, transport, d):
    """Every (object, isomorphism family) witnessing effectiveness."""
    return list(_effectiveness_witnesses(site, transport, d))


# -- descent-datum morphisms and the stack verdict ----------------------------


def datum_morphisms(site, transport, d1: DescentDatum, d2: DescentDatum):
    """All families (f_i) over the pieces commuting with both transition sets."""
    d1 = complete_datum(site, transport, d1)
    d2 = complete_datum(site, transport, d2)
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
                sq, leg_i, leg_j = _pair_legs(site, i, j)
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


def _all_descent_data(site, transport, x, family):
    """Every descent-shaped datum over the covering (transitions isos, diagonal id)."""
    family = tuple(sorted(family))
    object_choices = [sorted(transport.fiber(site.base.src(iota)).objects) for iota in family]
    for objs in itertools.product(*object_choices):
        objects = dict(zip(family, objs))
        pair_list = [(i, j) for idx, i in enumerate(family) for j in family[idx + 1:]]
        diag_needed = []
        for i in family:
            sq, l1, l2 = _pair_legs(site, i, i)
            if l1 != l2:
                diag_needed.append(i)
        iso_choices = []
        for i, j in pair_list:
            sq, leg_i, leg_j = _pair_legs(site, i, j)
            fib = transport.fiber(sq.apex)
            src = transport.restrict_obj(leg_i, objects[i])
            tgt = transport.restrict_obj(leg_j, objects[j])
            iso_choices.append([m for m in sorted(fib.hom(src, tgt)) if fib.is_iso(m)])
        for i in diag_needed:
            sq, l1, l2 = _pair_legs(site, i, i)
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


@dataclass(frozen=True)
class StackVerdict:
    status: str  # stack | prestack-only | neither
    witness: tuple | None = None

    def __bool__(self):
        return self.status == "stack"


def stack_verdict(site: FiniteSite, transport: Transport) -> StackVerdict:
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
                c1 = comparison_datum(site, transport, e1, x, fam)
                for e2 in sorted(fib_x.objects):
                    globals_ = sorted(fib_x.hom(e1, e2))
                    c2 = comparison_datum(site, transport, e2, x, fam)
                    images = []
                    for u in globals_:
                        images.append(tuple(sorted(
                            (iota, transport.restrict_mor(iota, u)) for iota in fam
                        )))
                    if len(set(images)) != len(images):
                        return StackVerdict("neither", (x, fam, e1, e2, "not faithful"))
                    morphisms = datum_morphisms(site, transport, c1, c2)
                    keyed = {tuple(sorted(m.items())) for m in morphisms}
                    if set(images) != keyed:
                        return StackVerdict("neither", (x, fam, e1, e2, "not full"))
    for x in sorted(base.objects):
        for fam in site.families(x):
            for datum in _all_descent_data(site, transport, x, fam):
                if not check_cocycle(site, transport, datum).ok:
                    continue
                if is_effective(site, transport, datum) is None:
                    return StackVerdict("prestack-only", (x, fam, datum.objects))
    return StackVerdict("stack")


# -- files ---------------------------------------------------------------------


def site_to_json(site: FiniteSite) -> dict:
    return {
        "base": category_to_json(site.base),
        "coverings": {x: [list(f) for f in fams] for x, fams in sorted(site.coverings.items())},
        "pullbacks": [
            {"f": f, "g": g, "apex": sq.apex, "toLeft": sq.to_left, "toRight": sq.to_right}
            for (f, g), sq in sorted(site._chosen.items())
        ],
    }


def site_from_json(raw: dict) -> FiniteSite:
    base = validate_category(raw["base"])
    chosen = {
        (e["f"], e["g"]): PullbackSquare(e["apex"], e["toLeft"], e["toRight"])
        for e in raw.get("pullbacks", ())
    }
    return FiniteSite(base, raw["coverings"], chosen)


def datum_from_json(raw: dict) -> DescentDatum:
    transitions = {(e["j"], e["i"]): e["mor"] for e in raw.get("transitions", ())}
    return DescentDatum(raw["object"], tuple(sorted(raw["covering"])), dict(raw["objects"]), transitions)


def datum_to_json(d: DescentDatum) -> dict:
    return {
        "object": d.x,
        "covering": list(d.family),
        "objects": dict(sorted(d.objects.items())),
        "transitions": [
            {"j": j, "i": i, "mor": m} for (j, i), m in sorted(d.transitions.items())
        ],
    }


def load_site(path) -> FiniteSite:
    with open(path, encoding="utf-8") as fh:
        return site_from_json(json.load(fh))
