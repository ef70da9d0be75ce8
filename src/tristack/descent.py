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

import functools
import itertools
import math
import operator

from .fincat import (
    FinCat,
    Functor,
    PullbackSquare,
    Verdict,
    _assignments,
    category_to_json,
    factorization_table,
    is_pullback,
    pullback,
    square_images,
    validate_category,
)
from .grothendieck import PseudoFunctor, extract_pseudofunctor
from .records import Record, setfield, walk


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
        self._listed = {x: set(fams) for x, fams in self.coverings.items()}
        self._given = dict(pullback_choice or {})
        self._chosen = dict(self._given)
        self._genuine = None
        self._tables = {}
        self._triples = {}
        self._sieves = None

    def families(self, x: str):
        return list(self.coverings.get(x, ()))

    def has_family(self, x: str, fam) -> bool:
        return _canonical_family(fam) in self._listed.get(x, ())

    @property
    def genuine_pullbacks(self) -> bool:
        """Whether every square of ``pullback_choice`` is a pullback, checked on first use.

        The squares ``chosen_pullback`` adds are computed by ``fincat.pullback``.
        """
        if self._genuine is None:
            self._genuine = all(is_pullback(self.base, f, g, sq) for (f, g), sq in self._given.items())
        return self._genuine

    def sieves(self) -> dict | None:
        """The sieve table ``{x: _Sieves}`` of every object, built on first use and kept.

        None when a listed family holds an arrow that does not end at its object.
        """
        if self._sieves is None:
            base = self.base
            typed = all(set().union(*self.coverings.get(x, ())) <= set(base.into_obj(x)) for x in base.objects)
            self._sieves = {x: _Sieves(base, x, self.families(x)) for x in base.objects} if typed else {}
        return self._sieves or None

    def chosen_pullback(self, f: str, g: str) -> PullbackSquare:
        key = (f, g)
        if key not in self._chosen:
            sq = pullback(self.base, f, g)
            if sq is None:
                raise MissingPullback((f, g))
            self._chosen[key] = sq
        return self._chosen[key]

    def triple_overlap(self, i: str, j: str, k: str):
        """Common overlap of covering arrows i, j, k into one object, kept once built.

        It is (overlap of i and j) x (piece k) under the chosen pullbacks.
        Returns its apex and, for the pairs (i, j), (i, k), (k, j) in turn,
        the arrow from it into the pair's overlap together with the
        pair's legs in slot order.  Those arrows are looked up in the
        factorization table of the pair's chosen square, built once.
        """
        if (i, j, k) not in self._triples:
            base = self.base
            _, leg_i, leg_j = _pair_legs(self, i, j)
            top = self.chosen_pullback(base.compose(i, leg_i), k)
            w, a, b = top.apex, top.to_left, top.to_right
            c_i, c_j = base.compose(leg_i, a), base.compose(leg_j, a)

            def into(p, q, c_p, c_q):
                sq, lp, lq = _pair_legs(self, p, q)
                key = (p, q) if p <= q else (q, p)
                if key not in self._tables:
                    self._tables[key] = factorization_table(*square_images(base, sq.apex, sq.to_left, sq.to_right))
                table = self._tables[key]
                if table is None:
                    raise MissingPullback(("non-unique mediating morphism", sq.apex))
                m = table.get((c_p, c_q) if p <= q else (c_q, c_p))
                if m is None:
                    raise MissingPullback(("no mediating morphism", sq.apex))
                return m, lp, lq

            self._triples[(i, j, k)] = (w, ((a, leg_i, leg_j), into(i, k, c_i, b), into(k, j, b, c_j)))
        return self._triples[(i, j, k)]


class _Sieves:
    """The sieves on one object x of a site, as bit masks over the arrows into x.

    ``principal[a]`` is the sieve ⟨a⟩ that an arrow a into x generates, and
    ``through[a]`` pairs, for each arrow k into the source of a, the bit of
    a∘k here with the bit of k in the sieves on that source.  ``covering``
    maps each covering sieve S, a sieve some listed family generates, to
    the first such family; its keys are J(x), in the order of those
    families.  ``listed`` counts the listed families.
    """

    def __init__(self, base: FinCat, x: str, families):
        self.arrows = base.into_obj(x)
        self.bit = {a: 1 << n for n, a in enumerate(self.arrows)}
        self.through = {
            a: [(self.bit[base.compose(a, k)], 1 << n) for n, k in enumerate(base.into_obj(base.src(a)))]
            for a in self.arrows
        }
        self.principal = {a: _union(c for c, _ in pairs) for a, pairs in self.through.items()}
        self.above = dict.fromkeys(self.arrows, 0)  # above[a]: the arrows b with a in ⟨b⟩
        for b, sieve in self.principal.items():
            for a in self.arrows:
                if sieve & self.bit[a]:
                    self.above[a] |= self.bit[b]
        self.full = (1 << len(self.arrows)) - 1
        self.covering = {}
        for fam in families:
            self.covering.setdefault(self.sieve(fam), fam)
        self.listed = len(families)

    def sieve(self, fam) -> int:
        return _union(map(self.principal.__getitem__, fam))

    def pull(self, f: str, sieve: int) -> int:
        """f*S: the arrows k into the source of f with f∘k in S."""
        return sum(b for c, b in self.through[f] if c & sieve)

    def push(self, iota: str, sieve: int) -> int:
        """ι∘S: the composites with ι of the arrows of a sieve S on the source of ι."""
        return _union(c for c, b in self.through[iota] if b & sieve)

    def classes(self, sieve: int) -> set:
        """The maximal classes of the factorization preorder on S (a <= b iff a = b∘k).

        A subset of S generates S exactly when it meets each of them.
        """
        out = set()
        for a in self.arrows:
            up = self.above[a] & sieve
            if self.bit[a] & sieve and not up & ~self.principal[a]:
                out.add(up)
        return out

    def determined(self) -> bool:
        """Whether a family is listed exactly when its sieve is in J(x).

        S has Π_C (2^|C| - 1) · 2^(|S| - Σ|C|) generating families, C over its
        maximal classes, so the table lists all of them exactly when these
        numbers add up to the number of listed families.
        """
        total = 0
        for sieve in self.covering:
            sizes = [c.bit_count() for c in self.classes(sieve)]
            total += math.prod((1 << n) - 1 for n in sizes) << (sieve.bit_count() - sum(sizes))
        return total == self.listed

    def least(self, fam, sieve: int) -> tuple:
        """The least subfamily of fam that generates S: its first arrow in each maximal class."""
        keep = {next(a for a in fam if self.bit[a] & c) for c in self.classes(sieve)}
        return tuple(a for a in fam if a in keep)

    def minimal_sieves(self) -> list:
        """The inclusion-minimal covering sieves."""
        return [s for s in self.covering if not any(t != s and t & s == t for t in self.covering)]

    def minimal_families(self):
        """The inclusion-minimal listed families of a sieve-determined table whose
        J(x) is upward closed: one arrow from each maximal class of a covering
        sieve, such that leaving out any one arrow leaves no covering sieve."""
        for sieve in self.covering:
            per_class = [[a for a in self.arrows if self.bit[a] & c] for c in self.classes(sieve)]
            for fam in itertools.product(*per_class):
                if not any(self.sieve(fam[:n] + fam[n + 1:]) in self.covering for n in range(len(fam))):
                    yield fam


def _union(masks) -> int:
    return functools.reduce(operator.or_, masks, 0)


def _pullbacks_exist(site: FiniteSite, table: dict) -> bool:
    """Whether every arrow into x has a pullback along every arrow of a covering
    sieve of x (the pullbacks T2 needs, and each overlap descent reads).

    An isomorphism has a pullback along every arrow, and (f, g) has one
    exactly when (g, f) has, so each pair of other arrows is tried once.
    """
    base = site.base
    for s in table.values():
        covered = _union(s.covering)
        others = [a for a in s.arrows if not base.is_iso(a)]
        for f in others:
            for iota in others:
                if s.bit[iota] & covered and (f <= iota or not s.bit[f] & covered):
                    try:
                        site.chosen_pullback(f, iota)
                    except MissingPullback:
                        return False
    return True


def _sieves_decide_site(site: FiniteSite) -> bool:
    """Whether the sieve table proves T2 and T3 of a site with well-typed
    families that passed T1, so that max(x) = ⟨id_x⟩ is in J(x), the
    covering sieves of x.

    It can when (a) the table is sieve-determined, (b) the chosen squares
    are genuine pullbacks and (c) every pullback T2 needs exists.  Then:
    - T2 holds iff f*S is in J(src f) for every S in J(x) and f into x, as
      a family pulled back along genuine pullbacks generates f* of its sieve;
    - T3 makes J upward closed (cover by {id_x} ∪ R, and let id_x choose
      a family of S ⊆ R), and once it is, T3 holds iff it holds on the
      inclusion-minimal families, each piece choosing among the
      inclusion-minimal covering sieves of its source, since the composite
      sieve grows with the family and with each choice.
    False sends ``validate_site`` to its literal scans.
    """
    table = site.sieves()
    if not table or not site.genuine_pullbacks or not all(s.determined() for s in table.values()):
        return False
    base = site.base
    for s in table.values():
        for f in s.arrows:
            pulled = table[base.src(f)].covering
            if not all(s.pull(f, sieve) in pulled for sieve in s.covering):
                return False
        if not all(sieve | p in s.covering for sieve in s.covering for p in s.principal.values()):
            return False
    minimal = {x: s.minimal_sieves() for x, s in table.items()}
    for s in table.values():
        for fam in s.minimal_families():
            # only the distinct partial unions, as in the literal T3 fold
            unions = {0}
            for iota in fam:
                pushed = {s.push(iota, sieve) for sieve in minimal[base.src(iota)]}
                unions = {u | p for u in unions for p in pushed}
            if not all(u in s.covering for u in unions):
                return False
    return _pullbacks_exist(site, table)


def validate_site(site: FiniteSite) -> Verdict:
    """Covering axioms T1-T3 with the first failing instance as witness.

    After T1, the sieve table decides a site that ``_sieves_decide_site``
    can prove valid; any other runs the literal scans, which name the first
    failing instance.  A pullback that T2 needs and the base lacks raises
    MissingPullback with the instance (x, family, f, iota).
    """
    base = site.base
    for x, fams in site.coverings.items():
        if x not in base.objects:
            return Verdict(False, "covering of unknown object", (x,))
        for fam in fams:
            for iota in fam:
                if iota not in base.morphisms or base.tgt(iota) != x:
                    return Verdict(False, "covering arrow has wrong target", (x, iota))

    # (T1) isomorphism singletons
    for m in base.morphisms:
        if base.is_iso(m) and not site.has_family(base.tgt(m), (m,)):
            return Verdict(False, "T1 fails: isomorphism singleton missing", (m,))
    if _sieves_decide_site(site):
        return Verdict(True)

    # (T2) stability under the chosen pullbacks
    for x in base.objects:
        for fam in site.families(x):
            for f in base.into_obj(x):
                pulled = []
                for iota in fam:
                    try:
                        sq = site.chosen_pullback(f, iota)
                    except MissingPullback:
                        raise MissingPullback((x, fam, f, iota)) from None
                    pulled.append(sq.to_left)
                if not site.has_family(base.src(f), pulled):
                    return Verdict(False, "T2 fails: pulled-back family not a covering", (x, fam, f))

    # (T3) composition of coverings.  Whether a choice of one covering per
    # piece composes to a covering depends only on the union of the
    # composites, so the pieces are folded in one at a time and each
    # distinct partial union keeps only its lexicographically first prefix.
    # Two prefixes with one union extend alike, so the first failing choice
    # of the full product survives, and it comes first among the survivors.
    for x in base.objects:
        for fam in site.families(x):
            unions = {frozenset(): ()}
            for iota in fam:
                subs = [
                    (sub, frozenset(base.compose(iota, phi) for phi in sub))
                    for sub in site.families(base.src(iota))
                ]
                grown = {}
                for union, prefix in unions.items():
                    for sub, composed in subs:
                        key = union | composed
                        if key not in grown:
                            grown[key] = prefix + (sub,)
                unions = grown
            for union, choice in unions.items():
                if not site.has_family(x, union):
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
        arrows = base.into_obj(x)
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
        self.psf: PseudoFunctor = extract_pseudofunctor(fun, cleavage)

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


class DescentDatum(Record):
    """Objects over the pieces of a covering plus transition isomorphisms.

    ``transitions[(j, i)]`` is the morphism (restriction of the i-th
    object) -> (restriction of the j-th object) in the fiber over the
    chosen overlap of pieces i and j; keys are covering-arrow ids.
    Diagonal entries may be omitted when the overlap square has equal
    projections, and one of each opposite pair may be omitted (derived as
    the inverse).
    """

    __slots__ = ("x", "family", "objects", "transitions")

    def __init__(self, x: str, family: tuple, objects: dict, transitions: dict):
        setfield(self, "x", x)
        setfield(self, "family", family)
        setfield(self, "objects", objects)
        setfield(self, "transitions", transitions)


def _pair_legs(site: FiniteSite, p: str, q: str):
    """Chosen overlap square for covering arrows p, q with legs in slot order."""
    a, b = sorted((p, q))
    sq = site.chosen_pullback(a, b)
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


def _isos(fib: FinCat, src: str, tgt: str) -> list:
    """The isomorphisms src -> tgt of a fiber, in id order."""
    return [m for m in fib.hom(src, tgt) if fib.is_iso(m)]


class _Covering:
    """One covering (x, family) compiled for every datum checked over it.

    ``pairs[(i, j)]`` holds the chosen overlap of pieces i and j as (its
    fiber, the leg to i, the leg to j).  The cleavage tables a triple's
    cocycle condition reads (over the triple overlaps the site keeps) and
    the comparison datum of each object over x are built on first use and
    kept.  ``last[d]`` lists the ordered piece pairs whose later piece is
    the d-th, the pair conditions a per-piece search can decide there.
    """

    def __init__(self, site: FiniteSite, transport: Transport, x: str, family):
        self.site, self.transport, self.x = site, transport, x
        self.family = tuple(family)
        self.pieces = [transport.fiber(site.base.src(iota)) for iota in self.family]
        self.pairs = {}
        for i in self.family:
            for j in self.family:
                sq, leg_i, leg_j = _pair_legs(site, i, j)
                self.pairs[(i, j)] = (transport.fiber(sq.apex), leg_i, leg_j)
        fam = self.family
        self.last = [
            [(i, j) for i in fam[: d + 1] for j in fam[: d + 1] if fam[d] in (i, j)]
            for d in range(len(fam))
        ]
        self._isos, self._triples, self._comparisons = {}, {}, {}

    def comparison(self, e: str) -> DescentDatum:
        """The canonical descent datum of the object e over x."""
        if e not in self._comparisons:
            tr = self.transport
            objects = {iota: tr.restrict_obj(iota, e) for iota in self.family}
            transitions = {}
            for (i, j), (fib, leg_i, leg_j) in self.pairs.items():
                coh_i, coh_j = tr.coherence(leg_i, i, e), tr.coherence(leg_j, j, e)
                transitions[(j, i)] = fib.compose(fib.inverse(coh_j), coh_i)
            self._comparisons[e] = DescentDatum(self.x, self.family, objects, transitions)
        return self._comparisons[e]

    def cocycle_holds(self, objects: dict, transitions: dict, i, j, k) -> bool:
        """Cocycle condition on the triple (i, j, k) of a completed datum.

        Each of the three transitions is moved to the triple overlap and
        conjugated by the cleavage coherences, so all three become
        morphisms between reference restrictions over the same apex.
        """
        if (i, j, k) not in self._triples:
            w, into = self.site.triple_overlap(i, j, k)
            psf = self.transport.psf
            tables = [
                (psf.alpha[(u, lp)], psf.alpha[(u, lq)], psf.pullbacks[u].mor_map) for u, lp, lq in into
            ]
            self._triples[(i, j, k)] = (psf.fibers[w], tables)
        fib_w, tables = self._triples[(i, j, k)]
        moved = []
        for (coh_p, coh_q, restrict), (p, q) in zip(tables, ((i, j), (i, k), (k, j))):
            m = fib_w.compose(restrict[transitions[(q, p)]], fib_w.inverse(coh_p[objects[p]]))
            moved.append(fib_w.compose(coh_q[objects[q]], m))
        a_ij, a_ik, a_kj = moved
        return fib_w.compose(a_kj, a_ik) == a_ij

    def transition_isos(self, i, j, obj_i: str, obj_j: str) -> list:
        """The values a transition (j, i) can take between the restrictions of
        obj_i and obj_j: the isomorphisms over the overlap of i and j, in id order."""
        key = (i, j, obj_i, obj_j)
        if key not in self._isos:
            fib, leg_i, leg_j = self.pairs[(i, j)]
            tr = self.transport
            self._isos[key] = _isos(fib, tr.restrict_obj(leg_i, obj_i), tr.restrict_obj(leg_j, obj_j))
        return self._isos[key]

    def descent_data(self):
        """Every descent datum over the covering, in the order of the full product.

        The slots are an object per piece, then a transition per pair of
        pieces i < j, then one per piece whose overlap with itself has two
        different legs (the other diagonals are identities).  A pair whose
        transition has no isomorphism to take prunes as soon as its later
        object is chosen, and each cocycle triple runs as soon as the last
        of its three transitions is.
        """
        fam, n, tr = self.family, len(self.family), self.transport
        index = {iota: d for d, iota in enumerate(fam)}
        pairs = [(i, j) for d, i in enumerate(fam) for j in fam[d + 1:]]
        pairs += [(i, i) for i in fam if self.pairs[(i, i)][1] != self.pairs[(i, i)][2]]
        slot_of = {(i, i): index[i] for i in fam}
        for d, (i, j) in enumerate(pairs, n):
            slot_of[(i, j)] = slot_of[(j, i)] = d
        pairs_at = [[(i, j) for i, j in pairs if index[j] == d] for d in range(n)]
        triples_at = [[] for _ in range(n + len(pairs))]
        for i, j, k in itertools.product(fam, repeat=3):
            triples_at[max(slot_of[(j, i)], slot_of[(k, i)], slot_of[(j, k)])].append((i, j, k))
        objects, transitions = {}, {}

        def choices(values):
            d = len(values)
            if d < n:
                return sorted(self.pieces[d].objects)
            i, j = pairs[d - n]
            return self.transition_isos(i, j, objects[i], objects[j])

        def accept(values):
            d, m = len(values) - 1, values[-1]
            if d < n:
                i = fam[d]
                objects[i] = m
                if slot_of[(i, i)] == d:
                    fib, leg, _ = self.pairs[(i, i)]
                    transitions[(i, i)] = fib.identity[tr.restrict_obj(leg, m)]
                if not all(self.transition_isos(p, q, objects[p], objects[q]) for p, q in pairs_at[d]):
                    return False
            else:
                i, j = pairs[d - n]
                transitions[(j, i)] = m
                if i != j:
                    transitions[(i, j)] = self.pairs[(i, j)][0].inverse(m)
            return all(self.cocycle_holds(objects, transitions, *t) for t in triples_at[d])

        for values in _assignments(n + len(pairs), choices, accept):
            given = {(j, i): m for (i, j), m in zip(pairs, values[n:])}
            yield DescentDatum(self.x, fam, dict(zip(fam, values)), given)

    def effectiveness_witnesses(self, d: DescentDatum):
        """Every (object e over x, isomorphisms e|piece -> d's object) inducing the
        completed datum d, in the order of the full product.

        A witness satisfies transition(j, i) = (a_j restricted) ∘ (e's
        comparison transition) ∘ (a_i restricted)^-1 over every ordered
        pair; each pair is checked once both of its pieces are assigned.
        """
        fam, tr = self.family, self.transport
        fib_x = tr.fiber(self.x)

        def choices(values):
            if not values:
                return sorted(fib_x.objects)
            iota = fam[len(values) - 1]
            return _isos(self.pieces[len(values) - 1], tr.restrict_obj(iota, values[0]), d.objects[iota])

        def accept(values):
            if len(values) == 1:
                return True
            beta = self.comparison(values[0]).transitions
            alphas = dict(zip(fam, values[1:]))
            for i, j in self.last[len(values) - 2]:
                fib, leg_i, leg_j = self.pairs[(i, j)]
                ai = tr.restrict_mor(leg_i, alphas[i])
                aj = tr.restrict_mor(leg_j, alphas[j])
                if d.transitions[(j, i)] != fib.compose(aj, fib.compose(beta[(j, i)], fib.inverse(ai))):
                    return False
            return True

        for values in _assignments(1 + len(fam), choices, accept):
            yield values[0], dict(zip(fam, values[1:]))

    def morphisms(self, d1: DescentDatum, d2: DescentDatum):
        """Every family (f_i) of piece morphisms commuting with the transitions of
        the completed data d1 and d2, in the order of the full product."""
        fam, tr = self.family, self.transport

        def choices(values):
            iota = fam[len(values)]
            return self.pieces[len(values)].hom(d1.objects[iota], d2.objects[iota])

        def accept(values):
            fs = dict(zip(fam, values))
            for i, j in self.last[len(values) - 1]:
                fib, leg_i, leg_j = self.pairs[(i, j)]
                lhs = fib.compose(tr.restrict_mor(leg_j, fs[j]), d1.transitions[(j, i)])
                rhs = fib.compose(d2.transitions[(j, i)], tr.restrict_mor(leg_i, fs[i]))
                if lhs != rhs:
                    return False
            return True

        for values in _assignments(len(fam), choices, accept):
            yield dict(zip(fam, values))


def check_cocycle(site: FiniteSite, transport: Transport, d: DescentDatum) -> Verdict:
    """Cocycle condition over every ordered triple, repeats included."""
    d = complete_datum(site, transport, d)
    typing = _check_transition_typing(site, transport, d)
    if not typing.ok:
        return typing
    cov = _Covering(site, transport, d.x, d.family)
    for i in d.family:
        fib, l1, l2 = cov.pairs[(i, i)]
        if l1 == l2 and not fib.is_identity(d.transitions[(i, i)]):
            return Verdict(False, "diagonal transition not the identity", (i,))
    for i, j, k in itertools.product(d.family, repeat=3):
        if not cov.cocycle_holds(d.objects, d.transitions, i, j, k):
            return Verdict(False, "cocycle fails", (i, j, k))
    return Verdict(True)


def comparison_datum(site: FiniteSite, transport: Transport, e: str, x: str, family) -> DescentDatum:
    """Canonical descent datum of a global object over a covering.

    The transitions are the composites of the two cleavage coherence
    isomorphisms through the common restriction to the overlap.
    """
    return _Covering(site, transport, x, sorted(family)).comparison(e)


def _effectiveness_witnesses(site, transport, d):
    """Every (object e over x, per-piece isomorphisms) inducing the datum, in search order."""
    cocycle = check_cocycle(site, transport, d)
    if not cocycle.ok:
        raise CocycleFails(cocycle.witness)
    d = complete_datum(site, transport, d)
    yield from _Covering(site, transport, d.x, d.family).effectiveness_witnesses(d)


def is_effective(site: FiniteSite, transport: Transport, d: DescentDatum):
    """Search for a global object inducing the datum; first witness or None."""
    return next(_effectiveness_witnesses(site, transport, d), None)


def all_effectiveness_witnesses(site, transport, d):
    """Every (object, isomorphism family) witnessing effectiveness."""
    return list(_effectiveness_witnesses(site, transport, d))


# -- descent-datum morphisms and the stack verdict ----------------------------


def datum_morphisms(site, transport, d1: DescentDatum, d2: DescentDatum):
    """All families (f_i) over the pieces commuting with both transition sets."""
    d1 = complete_datum(site, transport, d1)
    d2 = complete_datum(site, transport, d2)
    return list(_Covering(site, transport, d1.x, d1.family).morphisms(d1, d2))


def _all_descent_data(site, transport, x, family):
    """Every descent datum over the covering: transitions isos, cocycle condition met."""
    return _Covering(site, transport, x, sorted(family)).descent_data()


class StackVerdict(Record):
    __slots__ = ("status", "witness")

    def __init__(self, status: str, witness: tuple | None = None):
        setfield(self, "status", status)  # stack | prestack-only | neither
        setfield(self, "witness", witness)

    def __bool__(self):
        return self.status == "stack"


def _descent_fault(site: FiniteSite, transport: Transport, coverings) -> StackVerdict | None:
    """The verdict of the first covering (x, family) along which descent fails, or None.

    The comparison functor is checked to be fully faithful along every
    covering first, and then every descent datum to be effective.
    """
    compiled = []
    for x, fam in coverings:
        fib_x = transport.fiber(x)
        cov = _Covering(site, transport, x, fam)
        compiled.append(cov)
        for e1 in sorted(fib_x.objects):
            c1 = cov.comparison(e1)
            for e2 in sorted(fib_x.objects):
                homs = fib_x.hom(e1, e2)
                table = factorization_table(
                    homs, [tuple(transport.restrict_mor(iota, u) for iota in fam) for u in homs]
                )
                if table is None:
                    return StackVerdict("neither", (x, fam, e1, e2, "not faithful"))
                if table.keys() != {tuple(m.values()) for m in cov.morphisms(c1, cov.comparison(e2))}:
                    return StackVerdict("neither", (x, fam, e1, e2, "not full"))
    for cov in compiled:
        for datum in cov.descent_data():
            if next(cov.effectiveness_witnesses(complete_datum(site, transport, datum)), None) is None:
                return StackVerdict("prestack-only", (cov.x, cov.family, datum.objects))
    return None


def stack_verdict(site: FiniteSite, transport: Transport) -> StackVerdict:
    """Comparison-functor verdict over every covering of a site that passed ``validate_site``.

    Prestack: for all global pairs the map into descent-datum morphisms
    is bijective.  Stack: additionally every datum passing the cocycle
    check is effective.

    Descent along a family depends only on the sieve it generates when
    the chosen squares are genuine pullbacks, so the sieve table decides
    "stack" on a site whose squares are genuine and exist (conditions (b)
    and (c) of ``_sieves_decide_site``).  A maximal sieve is generated by
    {id_x}, along which descent is an equivalence, so it is skipped; every
    other sieve is checked along the least subfamily of its first family
    that still generates it.  Otherwise, or when that finds a fault, only
    the first family of each sieve over x is compiled and checked, once
    for both halves; a later one could fail only where its first already
    has, so the first failing family and its witness are unchanged.
    """
    table = site.sieves()
    if table and site.genuine_pullbacks and _pullbacks_exist(site, table):
        least = [
            (x, s.least(fam, sieve)) for x, s in sorted(table.items()) for sieve, fam in s.covering.items()
            if sieve != s.full
        ]
        if _descent_fault(site, transport, least) is None:
            return StackVerdict("stack")
    base, firsts = site.base, []
    for x in sorted(base.objects):
        sieves = set()
        for fam in site.families(x):
            sieve = frozenset(base.compose(iota, k) for iota in fam for k in base.into_obj(base.src(iota)))
            if sieve not in sieves:
                sieves.add(sieve)
                firsts.append((x, fam))
    fault = _descent_fault(site, transport, firsts)
    return StackVerdict("stack") if fault is None else fault


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


def _given_squares(base: FinCat, entries) -> dict:
    """The chosen squares of a site file, each checked to be a pullback.

    Descent along a covering is computed through these squares, so one
    that is ill-typed, does not commute or is not universal makes the
    file malformed; the error names the entry and its field.
    """
    chosen = {}
    for n, e in enumerate(entries):
        at = f"pullbacks[{n}]"
        f, g, apex = e["f"], e["g"], e["apex"]
        for key in ("f", "g"):
            if not isinstance(e[key], str) or e[key] not in base.morphisms:
                raise SiteError(f"{at}.{key}: {e[key]!r} is not an arrow")
        if base.tgt(f) != base.tgt(g):
            raise SiteError(f"{at}.g: {g!r} does not end where f does ({base.tgt(f)})")
        if not isinstance(apex, str) or apex not in base.objects:
            raise SiteError(f"{at}.apex: {apex!r} is not an object")
        for key, end in (("toLeft", base.src(f)), ("toRight", base.src(g))):
            leg = e[key]
            if not isinstance(leg, str) or leg not in base.hom(apex, end):
                raise SiteError(f"{at}.{key}: {leg!r} is not an arrow {apex} -> {end}")
        sq = PullbackSquare(apex, e["toLeft"], e["toRight"])
        if base.compose(f, sq.to_left) != base.compose(g, sq.to_right):
            raise SiteError(f"{at}: the square does not commute")
        if not is_pullback(base, f, g, sq):
            raise SiteError(f"{at}: the square is not a pullback")
        chosen[(f, g)] = sq
    return chosen


def _given_coverings(base: FinCat, coverings: dict) -> dict:
    """The covering table of a site file, each entry checked to name an arrow.

    An arrow into the wrong object breaks a site axiom, which ``validate_site`` reports.
    """
    for x, fams in coverings.items():
        for n, fam in enumerate(fams):
            for k, iota in enumerate(fam):
                if not isinstance(iota, str) or iota not in base.morphisms:
                    raise SiteError(f"coverings.{x}[{n}][{k}]: {iota!r} is not an arrow")
    return coverings


# checked up front, as its squares are; the base is read against ``CATEGORY``
SITE = {
    "base": None,
    "coverings": {str: ["a list of families", ["a list of arrows", None]]},
    "pullbacks?": ["a list of squares", dict.fromkeys(("f", "g", "apex", "toLeft", "toRight"))],
}


def site_from_json(raw: dict) -> FiniteSite:
    walk(raw, SITE, SiteError)
    base = validate_category(raw["base"])
    return FiniteSite(base, _given_coverings(base, raw["coverings"]), _given_squares(base, raw.get("pullbacks", [])))


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

