"""Finite groups by multiplication table: the structure groups of torsors.

Composition convention, pinned once: ``Group.mul(a, b)`` means "apply a,
then b" along a directed path, so a path crossing edges with elements
g1, g2, ... has product mul(mul(g1, g2), ...).  For the built-in S3 this
makes path products agree with the vertex-label transport of triangle
families: mul(a, b) == compose(b, a) in the function-composition order
of the geometry module.  This module imports only ``trigeo``, so the
stock groups load without the family machinery.
"""

from __future__ import annotations

from . import trigeo
from .records import Record, setfield
from .trigeo import PERMS


class GroupError(ValueError):
    pass


class Group(Record):
    __slots__ = ("name", "elements", "table", "identity", "inv")

    def __init__(self, name: str, elements: tuple, table: dict, identity: str, inv: dict):
        setfield(self, "name", name)
        setfield(self, "elements", elements)
        setfield(self, "table", table)  # (a, b) -> "a then b"
        setfield(self, "identity", identity)
        setfield(self, "inv", inv)

    def mul(self, a, b):
        return self.table[(a, b)]

    def inverse(self, a):
        return self.inv[a]

    def path_product(self, elems):
        out = self.identity
        for g in elems:
            out = self.mul(out, g)
        return out


def group_from_table(name, elements, table) -> Group:
    elements = tuple(elements)
    identity = None
    for e in elements:
        if all(table[(e, x)] == x == table[(x, e)] for x in elements):
            identity = e
            break
    if identity is None:
        raise GroupError("table has no identity element")
    for a in elements:
        for b in elements:
            if table[(a, b)] not in elements:
                raise GroupError("table not closed")
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    raise GroupError(f"table not associative at {(a, b, c)}")
    inv = {}
    for a in elements:
        inv[a] = next(b for b in elements if table[(a, b)] == identity == table[(b, a)])
    return Group(name, elements, dict(table), identity, inv)


def group_s3() -> Group:
    # mul(a, b) = "a then b" = compose(b, a) in vertex-relabeling order
    table = {(a, b): trigeo.compose(b, a) for a in PERMS for b in PERMS}
    return group_from_table("S3", PERMS, table)


def group_z2() -> Group:
    els = ("e", "s")
    table = {(a, b): ("e" if a == b else "s") for a in els for b in els}
    return group_from_table("Z2", els, table)


def group_z3() -> Group:
    els = ("e", "r", "r2")
    idx = {"e": 0, "r": 1, "r2": 2}
    table = {(a, b): els[(idx[a] + idx[b]) % 3] for a in els for b in els}
    return group_from_table("Z3", els, table)


BUILTIN_GROUPS = {"S3": group_s3, "Z2": group_z2, "Z3": group_z3}
