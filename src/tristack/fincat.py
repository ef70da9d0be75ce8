"""Finite categories and functors with exhaustively decidable predicates.

A ``FinCat`` is explicit data: object ids, morphism ids with source and
target, an identity table and a total composition table defined on
exactly the composable pairs.  Morphism equality is identity of ids, so
every structural predicate below (cartesianness, fibration verdicts,
universal properties) is decided by brute-force enumeration.  Instances
are immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass


class CategoryError(ValueError):
    pass


class MissingIdentity(CategoryError):
    pass


class IdentityLawViolation(CategoryError):
    pass


class NonAssociative(CategoryError):
    pass


class IllTypedComposite(CategoryError):
    pass


class UnknownObject(CategoryError):
    pass


class NotFibered(CategoryError):
    pass


@dataclass(frozen=True)
class Morphism:
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome plus the first witness when negative."""

    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


class FinCat:
    """A finite category; use ``validate_category`` to build checked instances."""

    def __init__(self, objects, morphisms, identity, compose_table, check=True):
        self.objects = tuple(sorted(objects))
        self.morphisms = {m.id: m for m in sorted(morphisms, key=lambda m: m.id)}
        self.identity = dict(identity)
        self.table = dict(compose_table)
        self._by_src = {}
        self._by_tgt = {}
        for m in self.morphisms.values():
            self._by_src.setdefault(m.src, []).append(m.id)
            self._by_tgt.setdefault(m.tgt, []).append(m.id)
        self._iso_cache = {}
        if check:
            _check_axioms(self)

    # -- raw structure ----------------------------------------------------
    def src(self, m: str) -> str:
        return self.morphisms[m].src

    def tgt(self, m: str) -> str:
        return self.morphisms[m].tgt

    def id_of(self, obj: str) -> str:
        return self.identity[obj]

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.src(m)) == m and self.src(m) == self.tgt(m)

    def compose(self, g: str, f: str) -> str:
        """g∘f, defined exactly when tgt(f) == src(g)."""
        try:
            return self.table[(g, f)]
        except KeyError:
            raise IllTypedComposite((g, f)) from None

    def composable(self, g: str, f: str) -> bool:
        return self.tgt(f) == self.src(g)

    def hom(self, a: str, b: str) -> list[str]:
        return [m for m in self._by_src.get(a, ()) if self.tgt(m) == b]

    def from_obj(self, a: str) -> list[str]:
        return list(self._by_src.get(a, ()))

    def into_obj(self, b: str) -> list[str]:
        return list(self._by_tgt.get(b, ()))

    def inverse(self, m: str) -> str | None:
        if m not in self._iso_cache:
            mor = self.morphisms[m]
            inv = None
            for c in self.hom(mor.tgt, mor.src):
                if (
                    self.compose(c, m) == self.identity[mor.src]
                    and self.compose(m, c) == self.identity[mor.tgt]
                ):
                    inv = c
                    break
            self._iso_cache[m] = inv
        return self._iso_cache[m]

    def is_iso(self, m: str) -> bool:
        return self.inverse(m) is not None

    def __eq__(self, other):
        return (
            isinstance(other, FinCat)
            and self.objects == other.objects
            and set(self.morphisms) == set(other.morphisms)
            and all(self.morphisms[k] == other.morphisms[k] for k in self.morphisms)
            and self.identity == other.identity
            and self.table == other.table
        )

    def __repr__(self):
        return f"FinCat({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


def _check_axioms(c: FinCat):
    for obj in c.objects:
        if obj not in c.identity or c.identity[obj] not in c.morphisms:
            raise MissingIdentity(obj)
        i = c.morphisms[c.identity[obj]]
        if i.src != obj or i.tgt != obj:
            raise MissingIdentity(obj)
    for m in c.morphisms.values():
        if m.src not in c.objects or m.tgt not in c.objects:
            raise IllTypedComposite((m.id, "endpoint not an object"))
    mor_ids = list(c.morphisms)
    for (g, f), gf in c.table.items():
        if g not in c.morphisms or f not in c.morphisms or gf not in c.morphisms:
            raise IllTypedComposite((g, f))
        if c.tgt(f) != c.src(g):
            raise IllTypedComposite((g, f))
        if c.src(gf) != c.src(f) or c.tgt(gf) != c.tgt(g):
            raise IllTypedComposite((g, f))
    for g in mor_ids:
        for f in mor_ids:
            if c.composable(g, f) and (g, f) not in c.table:
                raise IllTypedComposite((g, f))
    for f in mor_ids:
        if c.table[(f, c.identity[c.src(f)])] != f:
            raise IdentityLawViolation((f, c.identity[c.src(f)]))
        if c.table[(c.identity[c.tgt(f)], f)] != f:
            raise IdentityLawViolation((c.identity[c.tgt(f)], f))
    for h in mor_ids:
        for g in mor_ids:
            if not c.composable(h, g):
                continue
            hg = c.table[(h, g)]
            for f in mor_ids:
                if not c.composable(g, f):
                    continue
                if c.table[(h, c.table[(g, f)])] != c.table[(hg, f)]:
                    raise NonAssociative((h, g, f))


def validate_category(raw) -> FinCat:
    """Build a FinCat from raw description, naming the first broken axiom.

    ``raw`` is either the JSON-shaped dict (objects / morphisms /
    identities / compose) or a tuple (objects, morphisms, identity,
    compose_table).
    """
    if isinstance(raw, FinCat):
        return FinCat(raw.objects, raw.morphisms.values(), raw.identity, raw.table)
    if isinstance(raw, dict):
        morphisms = [Morphism(m["id"], m["src"], m["tgt"]) for m in raw["morphisms"]]
        table = {(g, f): gf for g, f, gf in raw["compose"]}
        return FinCat(raw["objects"], morphisms, raw["identities"], table)
    objects, morphisms, identity, table = raw
    morphisms = [m if isinstance(m, Morphism) else Morphism(*m) for m in morphisms]
    return FinCat(objects, morphisms, identity, table)


def category_to_json(c: FinCat) -> dict:
    return {
        "objects": list(c.objects),
        "morphisms": [{"id": m.id, "src": m.src, "tgt": m.tgt} for m in c.morphisms.values()],
        "identities": dict(sorted(c.identity.items())),
        "compose": sorted([g, f, gf] for (g, f), gf in c.table.items()),
    }


# -- convenient builders ---------------------------------------------------


def build_category(objects, arrows, relations=None):
    """Small-category builder for hand-written instances.

    ``arrows``: non-identity generators (id, src, tgt); ``relations``:
    composite table entries (g, f) -> result for generator pairs, with
    identities handled automatically.  The composition table must close;
    this builder only accepts data where all composites of generators are
    again listed arrows (enough for posets, groups and the small shapes
    used in tests).
    """
    relations = dict(relations or {})
    objects = list(objects)
    morphisms = [Morphism(f"id_{o}", o, o) for o in objects]
    morphisms += [Morphism(*a) for a in arrows]
    identity = {o: f"id_{o}" for o in objects}
    ids = {m.id: m for m in morphisms}
    table = {}
    for g in ids.values():
        for f in ids.values():
            if f.tgt != g.src:
                continue
            if f.id == identity[f.src]:
                table[(g.id, f.id)] = g.id
            elif g.id == identity[g.tgt]:
                table[(g.id, f.id)] = f.id
            elif (g.id, f.id) in relations:
                table[(g.id, f.id)] = relations[(g.id, f.id)]
            else:
                raise IllTypedComposite((g.id, f.id))
    return FinCat(objects, morphisms, identity, table)


def poset_category(order_pairs, objects=None):
    """Thin category from a reflexive-transitive relation; morphism a->b is 'a<=b'."""
    pairs = set(order_pairs)
    objects = sorted(objects or {p for pair in pairs for p in pair})
    for o in objects:
        pairs.add((o, o))
    # transitive closure, so callers may hand in a skeleton
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(pairs), repeat=2):
            if b == c and (a, d) not in pairs:
                pairs.add((a, d))
                changed = True
    def mid(a, b):
        return f"id_{a}" if a == b else f"{a}<={b}"
    morphisms = [Morphism(mid(a, b), a, b) for a, b in sorted(pairs)]
    identity = {o: f"id_{o}" for o in objects}
    table = {}
    for a, b in pairs:
        for c, d in pairs:
            if b == c:
                table[(mid(b, d), mid(a, b))] = mid(a, d)
    return FinCat(objects, morphisms, identity, table)


def interval_category():
    """Objects a, b and a single non-invertible arrow u: a -> b."""
    return build_category(["a", "b"], [("u", "a", "b")])


def group_category(elements, mul, name="g"):
    """One-object category from a group multiplication table; mul[(g,h)] = g∘h."""
    obj = "*"
    identity_el = next(e for e in elements if all(mul[(e, x)] == x == mul[(x, e)] for x in elements))
    def mid(e):
        return f"id_{obj}" if e == identity_el else f"{name}:{e}"
    morphisms = [Morphism(mid(e), obj, obj) for e in elements]
    table = {(mid(a), mid(b)): mid(mul[(a, b)]) for a in elements for b in elements}
    return FinCat([obj], morphisms, {obj: f"id_{obj}"}, table)


def discrete_category(objects):
    return build_category(objects, [])


# -- functors ---------------------------------------------------------------


@dataclass(frozen=True)
class Functor:
    """Functor data between explicit finite categories."""

    dom: FinCat
    cod: FinCat
    obj_map: dict
    mor_map: dict

    def on_obj(self, o: str) -> str:
        return self.obj_map[o]

    def on_mor(self, m: str) -> str:
        return self.mor_map[m]


def identity_functor(c: FinCat) -> Functor:
    return Functor(c, c, {o: o for o in c.objects}, {m: m for m in c.morphisms})


def compose_functors(g: Functor, f: Functor) -> Functor:
    return Functor(
        f.dom,
        g.cod,
        {o: g.obj_map[f.obj_map[o]] for o in f.dom.objects},
        {m: g.mor_map[f.mor_map[m]] for m in f.dom.morphisms},
    )


def validate_functor(fun: Functor, cod: FinCat | None = None, dom: FinCat | None = None) -> Verdict:
    """Functor axioms, checked exhaustively; false with the first violated pair."""
    d = dom or fun.dom
    c = cod or fun.cod
    for o in d.objects:
        if fun.obj_map.get(o) not in c.objects:
            return Verdict(False, "object image missing", (o,))
    for m in d.morphisms.values():
        fm = fun.mor_map.get(m.id)
        if fm not in c.morphisms:
            return Verdict(False, "morphism image missing", (m.id,))
        img = c.morphisms[fm]
        if img.src != fun.obj_map[m.src] or img.tgt != fun.obj_map[m.tgt]:
            return Verdict(False, "endpoints not preserved", (m.id,))
    for o in d.objects:
        if fun.mor_map[d.identity[o]] != c.identity[fun.obj_map[o]]:
            return Verdict(False, "identity not preserved", (o,))
    for (g, f), gf in d.table.items():
        if c.compose(fun.mor_map[g], fun.mor_map[f]) != fun.mor_map[gf]:
            return Verdict(False, "composition not preserved", (g, f))
    return Verdict(True)


def functors(dom: FinCat, cod: FinCat, obj_choices: dict, mor_ok=None, injective=False):
    """Every functor dom -> cod, in lexicographic order of its assignments.

    The objects of ``dom`` are assigned in sorted order, each to the
    images ``obj_choices[o]`` in the order given; then its non-identity
    arrows in sorted id order, each to the sorted arrows of its hom-set in
    ``cod`` for which ``mor_ok(arrow, image)`` holds.  With ``injective``
    no image is used twice.  Complete assignments that ``validate_functor``
    accepts are yielded.  The search keeps one iterator of images per
    assigned slot on an explicit stack, so its depth costs no recursion.
    """
    objs = sorted(dom.objects)
    # an object is assigned through its identity, so all slots are arrows
    # and an object image is taken exactly when its identity is
    slots = [dom.identity[o] for o in objs]
    slots += sorted(m for m in dom.morphisms if not dom.is_identity(m))
    # ``taken`` holds the images in use; it is read only when ``injective``
    # keeps them distinct
    obj_map, mor_map, taken, stack = {}, {}, set(), []

    def images(depth):
        if depth < len(objs):
            cands = [cod.identity[x] for x in obj_choices[objs[depth]]]
        else:
            m = dom.morphisms[slots[depth]]
            cands = [
                m2
                for m2 in sorted(cod.hom(obj_map[m.src], obj_map[m.tgt]))
                if mor_ok is None or mor_ok(m.id, m2)
            ]
        return iter([m2 for m2 in cands if not (injective and m2 in taken)])

    while True:
        if len(stack) == len(slots):
            cand = Functor(dom, cod, dict(obj_map), dict(mor_map))
            if validate_functor(cand).ok:
                yield cand
        else:
            stack.append(images(len(stack)))
        while stack:  # next image for the deepest slot that has one left
            depth = len(stack) - 1
            taken.discard(mor_map.pop(slots[depth], None))
            image = next(stack[-1], None)
            if image is not None:
                mor_map[slots[depth]] = image
                taken.add(image)
                if depth < len(objs):
                    obj_map[objs[depth]] = cod.src(image)
                break
            stack.pop()
        else:
            return


def functor_to_json(fun: Functor) -> dict:
    return {"onObjects": dict(sorted(fun.obj_map.items())), "onMorphisms": dict(sorted(fun.mor_map.items()))}


def functor_from_json(raw: dict, dom: FinCat, cod: FinCat) -> Functor:
    return Functor(dom, cod, dict(raw["onObjects"]), dict(raw["onMorphisms"]))


# -- fibers and fibration predicates ----------------------------------------


def fiber(fun: Functor, x: str) -> FinCat:
    """Subcategory of the domain over x: objects over x, morphisms over id_x."""
    if x not in fun.cod.objects:
        raise UnknownObject(x)
    idx = fun.cod.identity[x]
    objs = [o for o in fun.dom.objects if fun.obj_map[o] == x]
    mors = [m for m in fun.dom.morphisms.values() if fun.mor_map[m.id] == idx]
    identity = {o: fun.dom.identity[o] for o in objs}
    table = {
        (g.id, f.id): fun.dom.table[(g.id, f.id)]
        for g in mors
        for f in mors
        if f.tgt == g.src
    }
    return FinCat(objs, mors, identity, table)


def is_groupoid(c: FinCat) -> bool:
    return all(c.is_iso(m) for m in c.morphisms)


def lifts(fun: Functor, f: str, y_prime: str) -> list[str]:
    """Morphisms of the domain over f with target y_prime, in id order."""
    return sorted(
        m
        for m in fun.dom.into_obj(y_prime)
        if fun.mor_map[m] == f
    )


def is_cartesian(fun: Functor, f_prime: str) -> bool:
    """Unique-factorization test for a single morphism of the domain.

    For every g' into the same target and every base morphism h with
    F(f')∘h = F(g'), exactly one lift h' of h must satisfy f'∘h' = g'.
    """
    d, c = fun.dom, fun.cod
    fp = d.morphisms[f_prime]
    f = fun.mor_map[f_prime]
    for g_prime in d.into_obj(fp.tgt):
        g = fun.mor_map[g_prime]
        z, z_prime = c.src(g), d.src(g_prime)
        for h in c.hom(z, c.src(f)):
            if c.compose(f, h) != g:
                continue
            count = 0
            for h_prime in d.hom(z_prime, fp.src):
                if fun.mor_map[h_prime] == h and d.compose(f_prime, h_prime) == g_prime:
                    count += 1
                    if count > 1:
                        return False
            if count != 1:
                return False
    return True


@dataclass(frozen=True)
class FibrationVerdict:
    """Outcome of a fibration check.

    ``status`` is one of fibered / groupoid-fibration / neither.  A
    positive verdict carries a chosen lift per (base morphism, target
    object over its target); a negative one carries the failing pair.
    ``ok`` records whether the property the producing call asked about
    holds.
    """

    status: str
    ok: bool
    lifts: dict | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def _lift_problems(fun: Functor):
    for f in sorted(fun.cod.morphisms):
        y = fun.cod.tgt(f)
        for y_prime in sorted(fun.dom.objects):
            if fun.obj_map[y_prime] == y:
                yield f, y_prime


def is_fibered(fun: Functor) -> FibrationVerdict:
    """Cartesian-lift existence for every (f, Y'); the table is a cleavage."""
    cleavage = {}
    for f, y_prime in _lift_problems(fun):
        chosen = None
        for cand in lifts(fun, f, y_prime):
            if is_cartesian(fun, cand):
                chosen = cand
                break
        if chosen is None:
            return FibrationVerdict("neither", False, witness=(f, y_prime))
        cleavage[(f, y_prime)] = chosen
    return FibrationVerdict("fibered", True, lifts=cleavage)


def _unique_iso_between_lifts(fun: Functor, f_prime: str, f_second: str, over: str) -> bool:
    """Exactly one isomorphism alpha over id with f'∘alpha = f''."""
    d = fun.dom
    id_over = fun.cod.identity[over]
    found = 0
    for alpha in d.hom(d.src(f_second), d.src(f_prime)):
        if fun.mor_map[alpha] != id_over:
            continue
        if d.compose(f_prime, alpha) != f_second:
            continue
        if not d.is_iso(alpha):
            continue
        found += 1
        if found > 1:
            return False
    return found == 1


def is_groupoid_fibration(fun: Functor) -> FibrationVerdict:
    """Lift existence plus uniqueness up to a unique isomorphism over the identity.

    Implemented literally: for every pair of lifts (f', f'') of the same
    (f, Y') there must be exactly one isomorphism alpha over id with
    f'∘alpha = f''.  When the functor is fibered the outcome is
    cross-validated against the all-fibers-are-groupoids criterion.
    """
    chosen = {}
    failure = None
    for f, y_prime in _lift_problems(fun):
        ls = lifts(fun, f, y_prime)
        if not ls:
            failure = (f, y_prime, "no lift")
            break
        over = fun.cod.src(f)
        ok_pairs = all(
            _unique_iso_between_lifts(fun, fp, fs, over) for fp in ls for fs in ls
        )
        if not ok_pairs:
            failure = (f, y_prime, "lift not unique up to unique iso")
            break
        chosen[(f, y_prime)] = ls[0]

    fib = is_fibered(fun)
    if fib.ok:
        by_fibers = all(is_groupoid(fiber(fun, x)) for x in fun.cod.objects)
        if by_fibers != (failure is None):
            raise RuntimeError("internal: direct check disagrees with the fiber criterion")
    if failure is None:
        return FibrationVerdict("groupoid-fibration", True, lifts=chosen)
    return FibrationVerdict("fibered" if fib.ok else "neither", False, witness=failure)


def cartesian_subcategory(fun: Functor):
    """The wide subcategory of cartesian morphisms, with its inclusion.

    Requires a fibered input; the result always passes the groupoid
    fibration check (composites and isomorphisms stay cartesian).
    """
    if not is_fibered(fun).ok:
        raise NotFibered("cartesian subcategory requires a fibered functor")
    d = fun.dom
    keep = {m for m in d.morphisms if is_cartesian(fun, m)}
    mors = [d.morphisms[m] for m in sorted(keep)]
    table = {
        (g, f): d.table[(g, f)]
        for (g, f) in d.table
        if g in keep and f in keep
    }
    for (g, f), gf in table.items():
        if gf not in keep:
            raise RuntimeError("internal: cartesian morphisms failed to close under composition")
    sub = FinCat(d.objects, mors, d.identity, table)
    inclusion = Functor(sub, d, {o: o for o in sub.objects}, {m: m for m in sub.morphisms})
    return sub, inclusion


def restrict_to_subcategory(fun: Functor, sub: FinCat) -> Functor:
    return Functor(
        sub,
        fun.cod,
        {o: fun.obj_map[o] for o in sub.objects},
        {m: fun.mor_map[m] for m in sub.morphisms},
    )


# -- slices, functors over a base, pullbacks --------------------------------


def slice_category(c: FinCat, x: str):
    """The slice over x with its domain projection.

    Objects are the morphisms into x; a morphism a -> b is a commuting
    triangle, recorded as 'h:a=>b'.  The projection forgets the structure
    map: on objects it takes sources, on triangles the underlying h.
    """
    if x not in c.objects:
        raise UnknownObject(x)
    objs = sorted(c.into_obj(x))
    def tid(h, a, b):
        return f"{h}:{a}=>{b}"
    morphisms = []
    obj_map = {}
    mor_map = {}
    for a in objs:
        obj_map[a] = c.src(a)
    for a in objs:
        for b in objs:
            for h in c.hom(c.src(a), c.src(b)):
                if c.compose(b, h) == a:
                    morphisms.append(Morphism(tid(h, a, b), a, b))
                    mor_map[tid(h, a, b)] = h
    identity = {a: tid(c.identity[c.src(a)], a, a) for a in objs}
    table = {}
    for m1 in morphisms:
        for m2 in morphisms:
            if m2.tgt != m1.src:
                continue
            h1 = mor_map[m1.id]
            h2 = mor_map[m2.id]
            table[(m1.id, m2.id)] = tid(c.compose(h1, h2), m2.src, m1.tgt)
    sl = FinCat(objs, morphisms, identity, table)
    proj = Functor(sl, c, obj_map, mor_map)
    return sl, proj


def elements_fibration(base: FinCat, values: dict, restrictions: dict):
    """Category of elements of an explicit presheaf, with its projection.

    ``values[x]`` lists element ids over x; ``restrictions[f]`` maps
    elements over tgt(f) to elements over src(f).  Functoriality of the
    presheaf is the caller's contract and surfaces as a category error if
    broken.
    """
    objects = []
    obj_map = {}
    for x in base.objects:
        for e in values[x]:
            oid = f"{e}@{x}"
            objects.append(oid)
            obj_map[oid] = x
    morphisms = []
    mor_map = {}
    identity = {}
    for f in sorted(base.morphisms):
        a, b = base.src(f), base.tgt(f)
        for e in values[b]:
            src = f"{restrictions[f][e]}@{a}"
            tgt = f"{e}@{b}"
            mid = f"{f}[{e}]"
            morphisms.append(Morphism(mid, src, tgt))
            mor_map[mid] = f
            if base.is_identity(f):
                identity[tgt] = mid
    table = {}
    by_tgt = {}
    for m in morphisms:
        by_tgt.setdefault(m.tgt, []).append(m)
    for m1 in morphisms:  # m1: over g, into e@c
        g = mor_map[m1.id]
        e = m1.id.split("[", 1)[1][:-1]
        for m2 in by_tgt.get(m1.src, ()):
            f = mor_map[m2.id]
            gf = base.compose(g, f)
            table[(m1.id, m2.id)] = f"{gf}[{e}]"
    cat = FinCat(objects, morphisms, identity, table)
    return cat, Functor(cat, base, obj_map, mor_map)


def functor_hom_over(c: FinCat, f1: Functor, f2: Functor) -> list[Functor]:
    """All functors H with P2∘H = P1."""
    d1, d2 = f1.dom, f2.dom
    obj_choices = {
        o: sorted(o2 for o2 in d2.objects if f2.obj_map[o2] == f1.obj_map[o])
        for o in d1.objects
    }
    return list(functors(d1, d2, obj_choices, lambda m, m2: f2.mor_map[m2] == f1.mor_map[m]))


@dataclass(frozen=True)
class PullbackSquare:
    apex: str
    to_left: str   # projection onto the source of f
    to_right: str  # projection onto the source of g


def pullback(c: FinCat, f: str, g: str) -> PullbackSquare | None:
    """Chosen pullback of the cospan (f, g), or None when no cone is universal.

    Ties between isomorphic apexes are broken by lexicographically least
    (apex, left leg, right leg), which keeps downstream cleavages
    deterministic.
    """
    if c.tgt(f) != c.tgt(g):
        raise IllTypedComposite((f, g))
    cones = []
    for p in c.objects:
        for left in c.hom(p, c.src(f)):
            for right in c.hom(p, c.src(g)):
                if c.compose(f, left) == c.compose(g, right):
                    cones.append((p, left, right))
    for p, left, right in sorted(cones):
        universal = True
        for w, l2, r2 in cones:
            count = 0
            for m in c.hom(w, p):
                if c.compose(left, m) == l2 and c.compose(right, m) == r2:
                    count += 1
            if count != 1:
                universal = False
                break
        if universal:
            return PullbackSquare(p, left, right)
    return None


# -- category isomorphism ----------------------------------------------------


def _object_profile(c: FinCat, o: str):
    outs = sorted(len(c.hom(o, b)) for b in c.objects)
    ins = sorted(len(c.hom(a, o)) for a in c.objects)
    return (len(c.hom(o, o)), tuple(outs), tuple(ins))


def find_category_isomorphism(c: FinCat, d: FinCat) -> Functor | None:
    """Exhaustive search for an isomorphism of categories c -> d."""
    if len(c.objects) != len(d.objects) or len(c.morphisms) != len(d.morphisms):
        return None
    cp = {o: _object_profile(c, o) for o in c.objects}
    dp = {o: _object_profile(d, o) for o in d.objects}
    if sorted(cp.values()) != sorted(dp.values()):
        return None
    # a functor injective on objects and arrows between equal counts is bijective
    obj_choices = {o: [o2 for o2 in d.objects if dp[o2] == cp[o]] for o in c.objects}
    return next(functors(c, d, obj_choices, injective=True), None)


def categories_isomorphic(c: FinCat, d: FinCat) -> bool:
    return find_category_isomorphism(c, d) is not None


def load_category(path) -> FinCat:
    with open(path, encoding="utf-8") as fh:
        return validate_category(json.load(fh))


def save_category(c: FinCat, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(category_to_json(c), fh, indent=1, sort_keys=True)
