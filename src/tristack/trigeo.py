"""Exact geometry of the triangle edge-length cone and its S3 symmetry.

Edge-length convention, fixed once for the whole package: a labeled
triangle with vertices A, B, C is stored as the triple (x, y, z) with

    x = d(A, B),   y = d(A, C),   z = d(B, C).

The open cone M is the set of triples satisfying the three strict
triangle inequalities with positive entries; its boundary (degenerate
segments) is rejected by the ``TriangleLengths`` constructor.  All
arithmetic is over ``fractions.Fraction``; floats are forbidden in this
module and everything built on it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .records import OrderedRecord, Record, setfield


class NotInM(ValueError):
    """Triple violates a triangle inequality or positivity."""


class NotIsosceles(ValueError):
    """Operation needs a repeated edge length."""


def _frac(v) -> Fraction:
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise TypeError("floats are not accepted; use Fraction or 'p/q' strings")
    return Fraction(v)


# The six vertex-label permutations, in the package's canonical order.
# PERM_ACTION[g] gives the position table of the induced action on
# length triples: act(g, t)[i] = t[PERM_ACTION[g][i]].  The three
# transpositions are pinned by the edge-length convention above
# (swapping A and B fixes x = d(A,B) and exchanges y = d(A,C) with
# z = d(B,C), and so on); the 3-cycles follow by composition.
PERMS = ("e", "(AB)", "(AC)", "(BC)", "(ABC)", "(ACB)")

PERM_ACTION = {
    "e": (0, 1, 2),
    "(AB)": (0, 2, 1),
    "(AC)": (2, 1, 0),
    "(BC)": (1, 0, 2),
    "(ABC)": (1, 2, 0),
    "(ACB)": (2, 0, 1),
}

TRANSPOSITIONS = ("(AB)", "(AC)", "(BC)")


def act_tuple(g: str, t):
    """Apply the vertex permutation g to a raw length triple."""
    p = PERM_ACTION[g]
    return (t[p[0]], t[p[1]], t[p[2]])


def _build_tables():
    compose = {}
    inverse = {}
    probe = (0, 1, 2)
    by_result = {act_tuple(k, probe): k for k in PERMS}
    for g in PERMS:
        for h in PERMS:
            compose[(g, h)] = by_result[act_tuple(g, act_tuple(h, probe))]
    for g in PERMS:
        inverse[g] = next(h for h in PERMS if compose[(g, h)] == "e")
    return compose, inverse


_COMPOSE, _INVERSE = _build_tables()


def compose(g: str, h: str) -> str:
    """g after h: act(compose(g, h), t) == act(g, act(h, t))."""
    return _COMPOSE[(g, h)]


def inverse(g: str) -> str:
    return _INVERSE[g]


def perm_order(g: str) -> int:
    n, acc = 1, g
    while acc != "e":
        acc = compose(g, acc)
        n += 1
    return n


def in_M(t) -> bool:
    """Strict triangle inequalities and positivity for a raw triple."""
    x, y, z = (_frac(v) for v in t)
    return _interior(x.numerator, x.denominator, y.numerator, y.denominator, z.numerator, z.denominator)


def _interior(a: int, p: int, b: int, q: int, c: int, r: int) -> bool:
    """Whether a/p, b/q, c/r (denominators > 0) lie in the open cone M."""
    # On integers, over the common denominator p*q*r > 0.  Positivity needs
    # no test of its own: adding two strict inequalities gives 2a > 0, etc.
    a, b, c = a * q * r, b * p * r, c * p * q
    return a + b > c and a + c > b and b + c > a


class TriangleLengths(OrderedRecord):
    """A point of the open cone M; the constructor rejects the boundary."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Fraction, y: Fraction, z: Fraction):
        x, y, z = _frac(x), _frac(y), _frac(z)
        setfield(self, "x", x)
        setfield(self, "y", y)
        setfield(self, "z", z)
        if not _interior(x.numerator, x.denominator, y.numerator, y.denominator, z.numerator, z.denominator):
            raise NotInM(f"({x}, {y}, {z}) is not an interior triangle triple")

    @classmethod
    def _trusted(cls, x: Fraction, y: Fraction, z: Fraction) -> TriangleLengths:
        """The point (x, y, z) without the cone check, for triples known to lie in M."""
        out = _new(cls)
        _set_x(out, x)
        _set_y(out, y)
        _set_z(out, z)
        return out

    def astuple(self):
        return (self.x, self.y, self.z)

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def __repr__(self):
        return f"TriangleLengths({self.x}, {self.y}, {self.z})"


class NPoint(OrderedRecord):
    """A sorted triple 0 < x <= y <= z with x + y > z: a point of N."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Fraction, y: Fraction, z: Fraction):
        x, y, z = _frac(x), _frac(y), _frac(z)
        setfield(self, "x", x)
        setfield(self, "y", y)
        setfield(self, "z", z)
        if not (0 < x <= y <= z and x + y > z):
            raise NotInM(f"({x}, {y}, {z}) is not a sorted interior triple")

    def astuple(self):
        return (self.x, self.y, self.z)


def lengths(x, y, z) -> TriangleLengths:
    return TriangleLengths(_frac(x), _frac(y), _frac(z))


def act(g: str, t: TriangleLengths) -> TriangleLengths:
    """Left action of S3 on M by vertex relabeling: act(g∘h) = act(g)∘act(h).

    M is S3-invariant, so the permuted triple skips the constructor's check.
    """
    p = PERM_ACTION[g]
    s = (t.x, t.y, t.z)
    return TriangleLengths._trusted(s[p[0]], s[p[1]], s[p[2]])


def to_N(t: TriangleLengths) -> NPoint:
    """The S3-orbit representative of t: coordinates in ascending order."""
    return NPoint(*sorted(t.astuple()))


def stabilizer(t: TriangleLengths) -> tuple[str, ...]:
    return tuple(g for g in PERMS if act(g, t) == t)


def orbit(t: TriangleLengths) -> tuple[TriangleLengths, ...]:
    return tuple(sorted({act(g, t) for g in PERMS}))


def triangle_type(t: TriangleLengths) -> str:
    n = len(stabilizer(t))
    if n == 6:
        return "equilateral"
    if n == 2:
        return "isosceles"
    return "scalene"


def in_N_prime(t) -> bool:
    """Strictly sorted after reordering: the scalene region admits one."""
    if not in_M(t):
        return False
    a, b, c = sorted(_frac(v) for v in t)
    return a < b < c


def normalize_perimeter(t: TriangleLengths) -> TriangleLengths:
    """Scale to the perimeter-2 slice; invariant of the similarity class."""
    s = t.x + t.y + t.z
    return TriangleLengths(2 * t.x / s, 2 * t.y / s, 2 * t.z / s)


class SqrtFrac(Record):
    """The positive square root of a positive rational, kept symbolic."""

    __slots__ = ("radicand",)

    def __init__(self, radicand: Fraction):
        radicand = _frac(radicand)
        setfield(self, "radicand", radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")

    @property
    def square(self) -> Fraction:
        return self.radicand

    def __repr__(self):
        return f"sqrt({self.radicand})"


def realize_vertices(t: TriangleLengths):
    """Plant the labeled triangle in the plane with A at the origin.

    A = (0,0), B = (x,0) and C in the open upper half plane; the three
    pairwise distances reproduce (x, y, z) exactly.  C's ordinate is the
    exact square root of a rational, so all *squared* distances stay in Q.
    """
    x, y, z = t.astuple()
    cx = (x * x + y * y - z * z) / (2 * x)
    r = y * y - cx * cx
    # r = (Heron expression)/x^2 > 0 exactly because t is interior to M.
    return ((Fraction(0), Fraction(0)), (x, Fraction(0)), (cx, SqrtFrac(r)))


def squared_distance(p, q) -> Fraction:
    """Squared distance between realize_vertices-style points."""

    def coord_diff_sq(a, b):
        if isinstance(a, SqrtFrac) or isinstance(b, SqrtFrac):
            ar = a.square if isinstance(a, SqrtFrac) else None
            br = b.square if isinstance(b, SqrtFrac) else None
            if ar is not None and br is not None:
                if ar != br:
                    raise ValueError("cannot subtract distinct surds exactly")
                return Fraction(0)
            if ar is not None and b == 0:
                return ar
            if br is not None and a == 0:
                return br
            raise ValueError("mixed surd/rational difference is irrational")
        return (_frac(a) - _frac(b)) ** 2

    return coord_diff_sq(p[0], q[0]) + coord_diff_sq(p[1], q[1])


def isosceles_coordinate(t: TriangleLengths) -> Fraction:
    """Cosine of the apex angle between the two equal legs.

    A strictly decreasing rational chart of the apex-angle interval
    (0, pi): base -> 0 gives values near 1, base -> 2*leg gives values
    near -1, and the equilateral triangle sits at 1/2.
    """
    x, y, z = t.astuple()
    if x == y:
        leg, base = x, z
    elif y == z:
        leg, base = y, x
    elif x == z:
        leg, base = x, y
    else:
        raise NotIsosceles(f"({x}, {y}, {z}) has three distinct edge lengths")
    return (2 * leg * leg - base * base) / (2 * leg * leg)


# The one accepted text form of an exact rational: an integer or p/q.
RATIONAL_SHAPE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# a point without __init__: the slots' own setters skip the refusing __setattr__
_new = object.__new__
_set_x, _set_y, _set_z = TriangleLengths.x.__set__, TriangleLengths.y.__set__, TriangleLengths.z.__set__


def _place(where) -> str:
    """A fault's place: a text, or a (noun, id) pair joined only once something raises."""
    return where if type(where) is str else f"{where[0]} {where[1]}"


def rational_from_text(text: str, where, error) -> Fraction:
    """The rational an integer or 'p/q' text names; anything else raises ``error``."""
    if not RATIONAL_SHAPE.fullmatch(text):
        raise error(f"{_place(where)}: {text!r} is not a rational p/q")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than the interpreter converts
        raise error(f"{_place(where)}: {text[:16]}... has too many digits") from None
    if den == 0:
        raise error(f"{_place(where)}: {text!r} divides by zero")
    return Fraction(num, den)


class RationalReader:
    """Reads exact rationals, length triples and charts from JSON values for one load.

    Accepted are ints and strings of ``RATIONAL_SHAPE``; floats, bools,
    decimal and exponent strings raise ``error`` naming ``where`` (a text,
    or a (noun, id) pair joined only then) and the value.  Each text is
    parsed once per load and memoised with its numerator and denominator;
    make a new reader for every load.  A triple takes one frame: three memo
    lookups, the cone test on integers, the point set through its slots.
    ``_entry`` is the one slow path: first-seen texts, JSON ints, faults.
    """

    def __init__(self, error):
        self.error = error
        self._memo = {}  # text -> (Fraction, numerator, denominator)

    def _entry(self, value, where) -> tuple:
        """(q, numerator, denominator) of the rational ``value`` names."""
        if type(value) is str:
            entry = self._memo.get(value)
            if entry is None:
                q = rational_from_text(value, where, self.error)
                entry = self._memo[value] = (q, q.numerator, q.denominator)
            return entry
        if type(value) is int:
            return Fraction(value), value, 1
        raise self.error(f"{_place(where)}: {value!r} is not an integer or a 'p/q' string")

    def rational(self, value, where) -> Fraction:
        return self._entry(value, where)[0]

    def lengths(self, values, where) -> TriangleLengths:
        """A triple of lengths; raises NotInM when it is not interior to M."""
        if not isinstance(values, (list, tuple)) or len(values) != 3:
            raise self.error(f"{_place(where)}: {values!r} is not a triple of lengths")
        (u, v, w), memo = values, self._memo
        try:  # only texts are memo keys, so a float or a bool never hits an entry
            (x, a, p), (y, b, q), (z, c, r) = memo[u], memo[v], memo[w]
        except (KeyError, TypeError):
            (x, a, p), (y, b, q), (z, c, r) = self._entry(u, where), self._entry(v, where), self._entry(w, where)
        a, b, c = a * q * r, b * p * r, c * p * q  # _interior's test, inline
        if not (a + b > c and a + c > b and b + c > a):
            raise NotInM(f"({x}, {y}, {z}) is not an interior triangle triple")
        out = _new(TriangleLengths)
        _set_x(out, x)
        _set_y(out, y)
        _set_z(out, z)
        return out

    def chart(self, points, where) -> tuple:
        """The chart of JSON points ``{"t": time, "lengths": triple}``; reads them all, then checks the times."""
        memo, lengths, out = self._memo, self.lengths, []
        n0, d0, rising = -1, 0, True  # (n0, d0) is the last time read; any first time rises past -1/0
        for pt in points:
            t = pt["t"]
            try:
                q, n, d = memo[t]
            except (KeyError, TypeError):
                q, n, d = self._entry(t, where)
            out.append((q, lengths(pt["lengths"], where)))
            rising = rising and n0 * d < n * d0
            n0, d0 = n, d
        if not out or out[0][0] or n0 != d0:  # a Fraction is 1 exactly when n == d
            raise self.error("chart must start at 0 and end at 1")
        if not rising:
            raise self.error("chart times must increase strictly")
        return tuple(out)


def parse_lengths(sx: str, sy: str, sz: str) -> TriangleLengths:
    """Parse 'p/q' or integer strings; floats and decimals are rejected."""
    return RationalReader(ValueError).lengths((sx, sy, sz), "lengths")


def format_lengths(t) -> list[str]:
    tup = t.astuple() if hasattr(t, "astuple") else t
    return [str(_frac(v)) for v in tup]
