"""The record base against the frozen dataclasses it replaced.

The 28 record classes were ``@dataclass(frozen=True)`` classes (two with
``order=True``).  Their definitions are kept below as the oracle: field
declarations, ``__post_init__`` checks and special methods verbatim, the
other methods left out (the records keep them unchanged and nothing here
calls them).  On hypothesis-drawn field values (nested records, dicts,
tuples, ``None`` defaults left out) each record must agree with its
dataclass on ``repr``, ``==`` and ``!=`` (also against another class
with the same fields, a tuple and ``None``), ``hash`` or its
``TypeError``, the orderings, ``bool``, ``vars``, the positional and
keyword constructors and their ``TypeError`` on a missing or extra
argument, the ``NotInM``/``ValueError`` of the old ``__post_init__``
checks, and refused assignment and deletion.

Left out on purpose: the records have no ``__dataclass_fields__`` or
``__match_args__``, take no weak references and have no writable
instance ``__dict__``; nothing in the package or its benchmark uses them.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristack import deform, descent, families, fincat, grothendieck, groups, records, torsor, trigeo
from tristack.trigeo import NotInM, _frac, in_M

# -- trigeo ----------------------------------------------------------------

@dataclass(frozen=True, order=True)
class TriangleLengths:
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y", _frac(self.y))
        object.__setattr__(self, "z", _frac(self.z))
        if not in_M((self.x, self.y, self.z)):
            raise NotInM(f"({self.x}, {self.y}, {self.z}) is not an interior triangle triple")

    def astuple(self):
        return (self.x, self.y, self.z)

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def __repr__(self):
        return f"TriangleLengths({self.x}, {self.y}, {self.z})"


@dataclass(frozen=True, order=True)
class NPoint:
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y", _frac(self.y))
        object.__setattr__(self, "z", _frac(self.z))
        if not (0 < self.x <= self.y <= self.z and self.x + self.y > self.z):
            raise NotInM(f"({self.x}, {self.y}, {self.z}) is not a sorted interior triple")

    def astuple(self):
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class SqrtFrac:
    radicand: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radicand", _frac(self.radicand))
        if self.radicand <= 0:
            raise ValueError("radicand must be positive")

    def __repr__(self):
        return f"sqrt({self.radicand})"


# -- groups ----------------------------------------------------------------

@dataclass(frozen=True)
class Group:
    name: str
    elements: tuple
    table: dict        # (a, b) -> "a then b"
    identity: str
    inv: dict


# -- fincat ----------------------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class Functor:
    dom: FinCat
    cod: FinCat
    obj_map: dict
    mor_map: dict


@dataclass(frozen=True)
class FibrationVerdict:
    status: str
    ok: bool
    lifts: dict | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class PullbackSquare:
    apex: str
    to_left: str   # projection onto the source of f
    to_right: str  # projection onto the source of g


# -- grothendieck ----------------------------------------------------------

@dataclass(frozen=True)
class PseudoFunctor:
    base: FinCat
    fibers: dict
    pullbacks: dict
    epsilon: dict
    alpha: dict


# -- descent ---------------------------------------------------------------

@dataclass(frozen=True)
class DescentDatum:
    x: str
    family: tuple
    objects: dict
    transitions: dict


@dataclass(frozen=True)
class StackVerdict:
    status: str  # stack | prestack-only | neither
    witness: tuple | None = None

    def __bool__(self):
        return self.status == "stack"


# -- families --------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    id: str
    frm: str
    to: str


@dataclass(frozen=True)
class PLFamily:
    base: BaseGraph
    vertex_lengths: dict          # vertex -> TriangleLengths
    charts: dict                  # edge id -> chart
    glue_from: dict               # edge id -> Perm
    glue_to: dict                 # edge id -> Perm


@dataclass(frozen=True)
class GraphMap:
    dom: BaseGraph
    cod: BaseGraph
    vertex_image: dict
    edge_image: dict


@dataclass(frozen=True)
class PLMap:
    base: BaseGraph
    vertex_values: dict
    samples: dict


@dataclass(frozen=True)
class Orientation:
    orientable: bool
    vertex_gauge: dict | None = None        # vertex -> Perm
    edge_recharts: dict | None = None       # edge -> Perm
    obstruction_cycle: tuple | None = None  # ((edge, direction), ...)
    monodromy: str | None = None

    def __bool__(self):
        return self.orientable


@dataclass(frozen=True)
class Infeasibility:
    vertex: str
    left_edge: str
    left_forced: tuple
    right_edge: str
    right_forced: tuple


@dataclass(frozen=True)
class IsoResult:
    found: bool
    assignment: dict | None = None     # edge -> Perm
    vertex_perms: dict | None = None   # vertex -> Perm
    obstruction: Infeasibility | None = None

    def __bool__(self):
        return self.found


@dataclass(frozen=True)
class InvariantAssignment:
    name: str
    fn: object  # TriangleLengths -> tuple[Fraction, ...]

    def __call__(self, t: TriangleLengths):
        return tuple(Fraction(v) for v in self.fn(t))


@dataclass(frozen=True)
class CoarseVerdict:
    status: str  # factors | not-natural | mismatch
    witness: tuple | None = None

    def __bool__(self):
        return self.status == "factors"


# -- torsor ----------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    id: str
    boundary: tuple  # ((edge id, +1 | -1), ...) of length 3, chained head to tail


@dataclass(frozen=True)
class TorsorCocycle:
    base: SimplicialBase
    group: Group
    transitions: dict  # edge id -> element (for the edge's own orientation)


@dataclass(frozen=True)
class Triviality:
    trivial: bool
    gauge: dict | None = None              # vertex -> element
    obstruction_cycle: tuple | None = None
    monodromy: str | None = None

    def __bool__(self):
        return self.trivial


@dataclass(frozen=True)
class GlueData:
    base: SimplicialBase
    group: Group
    pieces: tuple
    transitions: dict


@dataclass(frozen=True)
class TorsorPair:
    torsor: TorsorCocycle
    vertex_refs: dict   # vertex -> TriangleLengths
    charts: dict        # edge -> chart
    glue_from: dict     # edge -> Perm
    glue_to: dict       # edge -> Perm


# -- deform ----------------------------------------------------------------

@dataclass(frozen=True)
class Deformation:
    triangle: TriangleLengths
    family: PLFamily
    basepoint: str
    marking: str  # Perm identifying the triangle with the basepoint fiber


@dataclass(frozen=True)
class GermEquivalence:
    found: bool
    center: str | None = None   # induced permutation at the basepoint
    legs: dict | None = None    # germ edge -> (tau, radius exponents)

    def __bool__(self):
        return self.found


# -- pairing ------------------------------------------------------------------------

MODULES = {
    trigeo: ("TriangleLengths", "NPoint", "SqrtFrac"),
    groups: ("Group",),
    fincat: ("Morphism", "Verdict", "Functor", "FibrationVerdict", "PullbackSquare"),
    grothendieck: ("PseudoFunctor",),
    descent: ("DescentDatum", "StackVerdict"),
    families: ("Edge", "PLFamily", "GraphMap", "PLMap", "Orientation", "Infeasibility", "IsoResult",
               "InvariantAssignment", "CoarseVerdict"),
    torsor: ("Face", "TorsorCocycle", "Triviality", "GlueData", "TorsorPair"),
    deform: ("Deformation", "GermEquivalence"),
}
PAIRS = {name: (getattr(module, name), globals()[name]) for module, names in MODULES.items() for name in names}
NEW, OLD = 0, 1
ORDERED = ("TriangleLengths", "NPoint")
CHECKED = ("TriangleLengths", "NPoint", "SqrtFrac")  # constructors that validate their fields


def fields(name):
    return [f.name for f in dataclasses.fields(PAIRS[name][OLD])]


def required(name):
    return sum(f.default is dataclasses.MISSING for f in dataclasses.fields(PAIRS[name][OLD]))


def twin(name):
    """Another class with as many fields, built from the same values for the cross-class checks."""
    others = [n for n in PAIRS if n != name and len(fields(n)) == len(fields(name))]
    return others[0] if others else None


# Field values are drawn as specs and built once per side, so a nested
# record is a new record inside a new one and a dataclass inside a dataclass.
NESTABLE = [n for n in PAIRS if n not in CHECKED]
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from(["a", "b", "(AB)"]),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


def _specs(children):
    return st.one_of(
        st.lists(children, max_size=3).map(lambda xs: ("tuple", xs)),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), children, max_size=2).map(lambda d: ("dict", d)),
        st.sampled_from(NESTABLE).flatmap(
            lambda n: st.lists(children, min_size=required(n), max_size=len(fields(n))).map(
                lambda xs: ("record", n, xs))
        ),
    )


SPECS = st.recursive(LEAVES, _specs, max_leaves=6)
LENGTHS = st.one_of(
    st.integers(-1, 6), st.fractions(min_value=-1, max_value=6, max_denominator=4),
    st.sampled_from(["1/2", "3", "x", 0.5]),
)


def build(spec, side):
    if isinstance(spec, tuple) and spec and spec[0] in ("tuple", "dict", "record"):
        if spec[0] == "tuple":
            return tuple(build(s, side) for s in spec[1])
        if spec[0] == "dict":
            return {k: build(s, side) for k, s in spec[1].items()}
        return PAIRS[spec[1]][side](*(build(s, side) for s in spec[2]))
    return spec


@st.composite
def arguments(draw, name):
    """The values for one constructor call: every required field, and some defaulted ones."""
    values = LENGTHS if name in CHECKED else SPECS
    return draw(st.lists(values, min_size=required(name), max_size=len(fields(name))))


def outcome(thunk):
    """The value of ``thunk()``, or the type and message of what it raised.

    Refused assignment raised ``FrozenInstanceError``, a subclass of the
    ``AttributeError`` that records raise.
    """
    try:
        return "value", thunk()
    except dataclasses.FrozenInstanceError as err:
        return "raised", "AttributeError", str(err)
    except Exception as err:
        return "raised", type(err).__name__, str(err)


def construct(name, specs, side, keywords=False):
    args = [build(s, side) for s in specs]
    cls = PAIRS[name][side]
    if keywords:
        return outcome(lambda: cls(**dict(zip(fields(name), args))))
    return outcome(lambda: cls(*args))


def both(name, specs, keywords=False):
    """(record, dataclass) built from one spec, or the common error both raise."""
    new, old = construct(name, specs, NEW, keywords), construct(name, specs, OLD, keywords)
    if new[0] == "raised" or old[0] == "raised":
        assert new == old
        return None
    return new[1], old[1]


def same(op):
    """``op`` gives the same value, or raises the same error, on both sides."""
    assert outcome(lambda: op(NEW)) == outcome(lambda: op(OLD))


# -- the checks -------------------------------------------------------------------------


def test_every_dataclass_has_a_record_with_its_fields():
    assert len(PAIRS) == 28
    for name, (new, old) in PAIRS.items():
        assert issubclass(new, records.Record) and not dataclasses.is_dataclass(new)
        assert new.__slots__ == tuple(fields(name)), name
        assert issubclass(new, records.OrderedRecord) == (name in ORDERED), name
    assert fincat.Verdict is records.Verdict


@pytest.mark.parametrize("name", list(PAIRS))
@settings(max_examples=25)
@given(data=st.data())
def test_record_agrees_with_its_dataclass(name, data):
    a = data.draw(arguments(name), label="a")
    b = data.draw(st.one_of(st.just(a), arguments(name)), label="b")
    pair, by_keyword = both(name, a), both(name, a, keywords=True)
    assert (pair is None) == (by_keyword is None)
    if pair is None:
        return
    assert by_keyword == pair
    sides = {NEW: pair[NEW], OLD: pair[OLD]}
    again = {NEW: construct(name, a, NEW)[1], OLD: construct(name, a, OLD)[1]}
    other = both(name, b)
    assert repr(pair[NEW]) == repr(pair[OLD])
    same(lambda s: sides[s] == again[s])
    same(lambda s: sides[s] != again[s])
    same(lambda s: hash(sides[s]))
    same(lambda s: hash(sides[s]) == hash(again[s]))
    same(lambda s: bool(sides[s]))
    same(lambda s: repr(vars(sides[s])))
    if other is not None:
        same(lambda s: sides[s] == other[s])
        same(lambda s: sides[s] != other[s])
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            same(lambda s: getattr(sides[s], op)(other[s]))
            same(lambda s: sorted([sides[s], other[s]]) == [sides[s], other[s]])
    values = tuple(getattr(pair[NEW], f) for f in fields(name))
    assert pair[NEW] != values and pair[NEW] != pair[OLD]
    for foreign in ({NEW: values, OLD: values}, {NEW: None, OLD: None}, {NEW: pair[OLD], OLD: pair[NEW]}):
        same(lambda s: sides[s] == foreign[s])
        same(lambda s: foreign[s] == sides[s])
        same(lambda s: sides[s] != foreign[s])
        same(lambda s: sides[s] < foreign[s])
    kin = twin(name)
    if kin is not None:
        cousin = both(kin, a) if kin not in CHECKED else None
        if cousin is not None:
            same(lambda s: sides[s] == cousin[s])
    for field in fields(name):
        same(lambda s: setattr(sides[s], field, 1))
        same(lambda s: delattr(sides[s], field))
    same(lambda s: setattr(sides[s], "bogus", 1))
    assert values == tuple(getattr(pair[NEW], f) for f in fields(name))
    if all(v is None or isinstance(v, (bool, int, str, Fraction)) for v in values):
        assert copy.deepcopy(pair[NEW]) == pair[NEW]
        assert pickle.loads(pickle.dumps(pair[NEW])) == pair[NEW]


@pytest.mark.parametrize("name", list(PAIRS))
def test_constructor_errors_match(name):
    n = len(fields(name))
    for args in ([], ["a"] * (required(name) - 1), ["a"] * (n + 1)):
        if len(args) < required(name) or len(args) > n:
            same(lambda s: PAIRS[name][s](*args))
    same(lambda s: PAIRS[name][s](*["1"] * n, bogus=1))
    same(lambda s: PAIRS[name][s](**{f: "1" for f in fields(name)[1:]}))


@settings(max_examples=200)
@given(a=st.lists(LENGTHS, min_size=3, max_size=3), b=st.lists(LENGTHS, min_size=3, max_size=3))
def test_orderings_and_validation_of_the_triples(a, b):
    for name in ORDERED:
        pa, pb = both(name, a), both(name, b)
        if pa is None or pb is None:
            continue
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            same(lambda s: getattr(pa[s], op)(pb[s]))
        same(lambda s: pa[s] < tuple(pa[s].astuple()))
        same(lambda s: tuple(pa[s].astuple()) >= pa[s])
        same(lambda s: sorted([pb[s], pa[s]]) == sorted([pa[s], pb[s]]))
        same(lambda s: list(pa[s]) if name == "TriangleLengths" else pa[s].astuple())
    t = both("TriangleLengths", [3, 4, 5])
    n = both("NPoint", [3, 4, 5])
    same(lambda s: t[s] < n[s])
    same(lambda s: t[s] == n[s])
