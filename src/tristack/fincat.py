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
from operator import itemgetter

from .records import Record, Verdict, read, setfield


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


class Morphism(Record):
    __slots__ = ("id", "src", "tgt")

    def __init__(self, id: str, src: str, tgt: str):
        setfield(self, "id", id)
        setfield(self, "src", src)
        setfield(self, "tgt", tgt)


class FinCat:
    """A finite category; use ``validate_category`` to build checked instances."""

    def __init__(self, objects, morphisms, identity, compose_table, check=True):
        self.objects = tuple(sorted(objects))
        self.morphisms = {m.id: m for m in sorted(morphisms, key=lambda m: m.id)}
        self.identity = dict(identity)
        self.table = dict(compose_table)
        self._by_src = {}
        self._by_tgt = {}
        self._hom = {}
        for m in self.morphisms.values():
            self._by_src.setdefault(m.src, []).append(m.id)
            self._by_tgt.setdefault(m.tgt, []).append(m.id)
            self._hom.setdefault((m.src, m.tgt), []).append(m.id)
        self._iso_cache = {}
        if check:
            _check_axioms(self)

    # -- raw structure ----------------------------------------------------
    def src(self, m: str) -> str:
        return self.morphisms[m].src

    def tgt(self, m: str) -> str:
        return self.morphisms[m].tgt

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
        """The arrows a -> b, in id order (a fresh list)."""
        return list(self._hom.get((a, b), ()))

    def into_obj(self, b: str) -> list[str]:
        """The arrows into b, in id order (a fresh list)."""
        return list(self._by_tgt.get(b, ()))

    def inverse(self, m: str) -> str | None:
        if m not in self._iso_cache:
            a, b = self.src(m), self.tgt(m)
            left_inverses = (c for c in self.hom(b, a) if self.compose(c, m) == self.identity[a])
            self._iso_cache[m] = next((c for c in left_inverses if self.compose(m, c) == self.identity[b]), None)
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
        if obj not in c.identity:
            raise MissingIdentity(f"identities: missing {obj!r}")
        i = c.morphisms.get(c.identity[obj])
        if i is None or i.src != obj or i.tgt != obj:
            raise MissingIdentity(f"identities.{obj}: {c.identity[obj]!r} is not an arrow {obj} -> {obj}")
    for m in c.morphisms.values():
        if m.src not in c.objects or m.tgt not in c.objects:
            raise IllTypedComposite((m.id, "endpoint not an object"))
    mors = c.morphisms
    # rows[h][f] = h∘f, filled while the entries are typed
    rows = {m: {} for m in mors}
    for (g, f), gf in c.table.items():
        mg, mf, mgf = mors.get(g), mors.get(f), mors.get(gf)
        if mg is None or mf is None or mgf is None:
            raise IllTypedComposite((g, f))
        if mf.tgt != mg.src or mgf.src != mf.src or mgf.tgt != mg.tgt:
            raise IllTypedComposite((g, f))
        rows[g][f] = gf
    # every entry is a distinct composable pair, so the table is total
    # exactly when it has as many entries as there are such pairs
    pairs = sum(len(c._by_tgt.get(o, ())) * len(c._by_src.get(o, ())) for o in c.objects)
    if len(c.table) != pairs:
        _first_axiom_fault(c)
    ident = c.identity
    for f, mf in mors.items():
        if rows[f][ident[mf.src]] != f:
            raise IdentityLawViolation((f, ident[mf.src]))
        if rows[ident[mf.tgt]][f] != f:
            raise IdentityLawViolation((ident[mf.tgt], f))
    if not _generators_associate(c, rows):
        _first_axiom_fault(c)


def _generators(c: FinCat, rows: dict) -> list:
    """A greedy generating set in id order: an arrow becomes a generator when
    the composites of the earlier ones miss it.

    The generated subcategory is kept closed under left composition with
    the generators.  A new generator m adds m∘r for each reached r into
    its source; every word in the generators is then reached, because the
    part applied before its first m was reached before m.
    """
    mors = c.morphisms
    reached = set(c.identity.values())
    gens, gens_from = [], {}
    for m in mors:
        if m in reached:
            continue
        gens.append(m)
        gens_from.setdefault(mors[m].src, []).append(m)
        row = rows[m]
        todo = [row[r] for r in c._by_tgt[mors[m].src] if r in reached]
        while todo:
            a = todo.pop()
            if a not in reached:
                reached.add(a)
                todo += [rows[g][a] for g in gens_from.get(mors[a].tgt, ())]
    return gens


def _generators_associate(c: FinCat, rows: dict) -> bool:
    """Light's associativity test on the greedy generating set.

    Call g good when (h∘g)∘f = h∘(g∘f) for every composable h and f.  If
    a and b are good then so is a∘b: both sides reduce to h∘(a∘(b∘f))
    using only the goodness of a and b, never associativity of the table.
    Identities are good by the identity laws, so once every arrow is a
    composite of identities and generators all arrows are good.  For a
    generator g and each h after it, the column of f into the source of g
    is compared at once: row (h∘g) at f against row h at g∘f.
    """
    for g in _generators(c, rows):
        mg = c.morphisms[g]
        into = c._by_tgt[mg.src]
        row_g = rows[g]
        at_f, at_gf = itemgetter(*into), itemgetter(*[row_g[f] for f in into])
        for h in c._by_src[mg.tgt]:
            row_h = rows[h]
            if at_f(rows[row_h[g]]) != at_gf(row_h):
                return False
    return True


def _first_axiom_fault(c: FinCat):
    """The exhaustive totality and associativity scans, for their first witness.

    Run only once a fast test has failed, so one of them raises: the
    count test fails only on a missing pair, Light's test only on a
    non-associative triple, and the identity laws sit between them.
    """
    mor_ids = list(c.morphisms)
    for g in mor_ids:
        for f in mor_ids:
            if c.composable(g, f) and (g, f) not in c.table:
                raise IllTypedComposite((g, f))
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
    raise RuntimeError("internal: a fast axiom test failed where the exhaustive scan passes")


# the category file; a category inside a site or pseudo-functor file is
# read against it on its own, so its paths start at the category
CATEGORY = {
    "objects": [str],
    "morphisms": [{"id": str, "src": str, "tgt": str}],
    "identities": {str: str},
    "compose": [("[g, f, gf]", str, str, str)],
}


def validate_category(raw) -> FinCat:
    """Build a FinCat from raw description, naming the first broken axiom.

    ``raw`` is either the JSON-shaped dict of ``CATEGORY`` or a tuple
    (objects, morphisms, identity, compose_table).
    """
    if isinstance(raw, FinCat):
        return FinCat(raw.objects, raw.morphisms.values(), raw.identity, raw.table)
    if isinstance(raw, tuple):
        objects, morphisms, identity, table = raw
        morphisms = [m if isinstance(m, Morphism) else Morphism(*m) for m in morphisms]
        return FinCat(objects, morphisms, identity, table)
    return read(raw, CATEGORY, _category_from_json, CategoryError)


def _category_from_json(raw: dict) -> FinCat:
    morphisms = [Morphism(m["id"], m["src"], m["tgt"]) for m in raw["morphisms"]]
    table = {(g, f): gf for g, f, gf in raw["compose"]}
    return FinCat(raw["objects"], morphisms, raw["identities"], table)


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


class Functor(Record):
    """Functor data between explicit finite categories."""

    __slots__ = ("dom", "cod", "obj_map", "mor_map")

    def __init__(self, dom: FinCat, cod: FinCat, obj_map: dict, mor_map: dict):
        setfield(self, "dom", dom)
        setfield(self, "cod", cod)
        setfield(self, "obj_map", obj_map)
        setfield(self, "mor_map", mor_map)

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
        if not isinstance(fm, str) or fm not in c.morphisms:
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


def _assignments(width: int, choices, accept):
    """Every assignment of ``width`` slots that ``accept`` passes, in product order.

    ``choices(values)`` lists the candidates of the next slot after the
    assigned prefix ``values``; ``accept(values)`` runs the constraints
    whose last slot is the one just assigned.  One candidate iterator per
    assigned slot sits on an explicit stack, so the depth costs no
    recursion, a rejected prefix is never extended, and the survivors come
    in the lexicographic order of the full product they were filtered from.
    """
    values, stack = [], []
    while True:
        if len(values) == width:
            yield tuple(values)
        else:
            stack.append(iter(choices(values)))
        while stack:  # next accepted candidate for the deepest slot that has one left
            del values[len(stack) - 1:]
            for v in stack[-1]:
                values.append(v)
                if accept(values):
                    break
                values.pop()
            else:
                stack.pop()
                continue
            break
        else:
            return


def functors(dom: FinCat, cod: FinCat, obj_choices: dict, mor_ok=None, injective=False):
    """Every functor dom -> cod, in lexicographic order of its assignments.

    The objects of ``dom`` are assigned in sorted order, each to the
    images ``obj_choices[o]`` in the order given; then its non-identity
    arrows in sorted id order, each to the arrows of its hom-set in
    ``cod`` (id order) for which ``mor_ok(arrow, image)`` holds.  With
    ``injective`` no image is used twice.  An object is assigned through
    its identity, so every slot is an arrow, and each composite g∘f of
    ``dom`` is checked once the last of g, f and g∘f is assigned: every
    complete assignment is a functor.
    """
    objs = sorted(dom.objects)
    slots = [dom.identity[o] for o in objs]
    slots += sorted(m for m in dom.morphisms if not dom.is_identity(m))
    slot_of = {m: d for d, m in enumerate(slots)}
    ends = [(slot_of[dom.identity[dom.src(m)]], slot_of[dom.identity[dom.tgt(m)]]) for m in slots]
    composites_at = [[] for _ in slots]
    for (g, f), gf in dom.table.items():
        at = (slot_of[g], slot_of[f], slot_of[gf])
        composites_at[max(at)].append(at)

    def choices(values):
        d = len(values)
        if d < len(objs):
            cands = [cod.identity[x] for x in obj_choices[objs[d]]]
        else:
            a, b = ends[d]
            cands = cod.hom(cod.src(values[a]), cod.src(values[b]))
            if mor_ok is not None:
                cands = [m2 for m2 in cands if mor_ok(slots[d], m2)]
        if injective:
            taken = set(values)
            cands = [m2 for m2 in cands if m2 not in taken]
        return cands

    def accept(values):
        return all(cod.compose(values[g], values[f]) == values[gf] for g, f, gf in composites_at[len(values) - 1])

    for values in _assignments(len(slots), choices, accept):
        obj_map = {o: cod.src(values[d]) for d, o in enumerate(objs)}
        yield Functor(dom, cod, obj_map, dict(zip(slots, values)))


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
    return [m for m in fun.dom.into_obj(y_prime) if fun.mor_map[m] == f]


def factorization_table(arrows: list, images) -> dict | None:
    """The factorization table ``{image: arrow}`` of a candidate universal arrow.

    ``arrows`` are the arrows into the candidate's source and ``images``
    yields, in their order, the cone each induces; None when two induce one.
    The candidate is universal exactly when the keys are the cones it must factor.
    """
    table = dict(zip(images, arrows))
    return table if len(table) == len(arrows) else None


def _universal(arrows: list, images, cones: set) -> bool:
    # every image is a cone, so unequal counts reject before any table is built
    if len(arrows) != len(cones):
        return False
    table = factorization_table(arrows, images)
    return table is not None and table.keys() == cones


def lift_images(fun: Functor, f_prime: str):
    """The arrows h' into the source of f' and, lazily, their images (f'∘h', F(h'))."""
    d = fun.dom
    into = d._by_tgt[d.morphisms[f_prime].src]
    return into, ((d.table[(f_prime, h)], fun.mor_map[h]) for h in into)


def is_cartesian(fun: Functor, f_prime: str) -> bool:
    """Unique-factorization test for a single morphism of the domain.

    For every g' into the same target and every base morphism h with
    F(f')∘h = F(g'), exactly one lift h' of h must satisfy f'∘h' = g'.
    F(f'∘h') = F(f')∘F(h') makes each image (f'∘h', F(h')) such a pair.
    """
    d, c, mor_map = fun.dom, fun.cod, fun.mor_map
    f = mor_map[f_prime]
    x = c.morphisms[f].src
    cones = {
        (g_prime, h)
        for g_prime in d._by_tgt[d.morphisms[f_prime].tgt]
        for h in c._hom.get((c.morphisms[mor_map[g_prime]].src, x), ())
        if c.table[(f, h)] == mor_map[g_prime]
    }
    return _universal(*lift_images(fun, f_prime), cones)


class FibrationVerdict(Record):
    """Outcome of a fibration check.

    ``status`` is one of fibered / groupoid-fibration / neither.  A
    positive verdict carries a chosen lift per (base morphism, target
    object over its target); a negative one carries the failing pair.
    ``ok`` records whether the property the producing call asked about
    holds.
    """

    __slots__ = ("status", "ok", "lifts", "witness")

    def __init__(self, status: str, ok: bool, lifts: dict | None = None, witness: tuple | None = None):
        setfield(self, "status", status)
        setfield(self, "ok", ok)
        setfield(self, "lifts", lifts)
        setfield(self, "witness", witness)

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
    objs = c.into_obj(x)
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


class PullbackSquare(Record):
    __slots__ = ("apex", "to_left", "to_right")

    def __init__(self, apex: str, to_left: str, to_right: str):
        setfield(self, "apex", apex)
        setfield(self, "to_left", to_left)  # projection onto the source of f
        setfield(self, "to_right", to_right)  # projection onto the source of g


def _cones(c: FinCat, f: str, g: str) -> list:
    """Every commuting cone (apex, left, right) over the cospan (f, g)."""
    hom, table, mors = c._hom, c.table, c.morphisms
    return [
        (p, left, right)
        for p in c.objects
        for left in hom.get((p, mors[f].src), ())
        for right in hom.get((p, mors[g].src), ())
        if table[(f, left)] == table[(g, right)]
    ]


def square_images(c: FinCat, apex: str, leg_a: str, leg_b: str):
    """The arrows m into a square's apex and, lazily, their images (leg_a∘m, leg_b∘m)."""
    into = c._by_tgt[apex]
    return into, ((c.table[(leg_a, m)], c.table[(leg_b, m)]) for m in into)


def is_pullback(c: FinCat, f: str, g: str, sq: PullbackSquare) -> bool:
    """Whether sq is a pullback of the cospan (f, g).

    Its legs must be arrows apex -> src(f) and apex -> src(g), the square
    must commute, and every commuting cone must factor through it by
    exactly one arrow.
    """
    arrows = c.morphisms
    p, left, right = sq.apex, sq.to_left, sq.to_right
    if p not in c.objects or not all(isinstance(a, str) and a in arrows for a in (f, g, left, right)):
        return False
    if c.tgt(f) != c.tgt(g) or (c.src(left), c.tgt(left), c.src(right), c.tgt(right)) != (p, c.src(f), p, c.src(g)):
        return False
    if c.compose(f, left) != c.compose(g, right):
        return False
    return _universal(*square_images(c, p, left, right), {(l2, r2) for _, l2, r2 in _cones(c, f, g)})


def pullback(c: FinCat, f: str, g: str) -> PullbackSquare | None:
    """Chosen pullback of the cospan (f, g), or None when no cone is universal.

    Ties between isomorphic apexes are broken by lexicographically least
    (apex, left leg, right leg), which keeps downstream cleavages
    deterministic.  Each candidate is a commuting cone, so only
    ``is_pullback``'s universality test is left to run on it.
    """
    if c.tgt(f) != c.tgt(g):
        raise IllTypedComposite((f, g))
    cones = _cones(c, f, g)
    cone_legs = {(left, right) for _, left, right in cones}
    for p, left, right in sorted(cones):
        if _universal(*square_images(c, p, left, right), cone_legs):
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
