"""The schema walker against the hand-written shape checks it replaced.

Below are the checks as they were, verbatim but for imports: ``json_field`` and
``json_records``, the category, pseudo-functor, torsor and ``stack-check``
descriptor checkers, the shape parts of the site loader, and the loaders
whose ``except`` blocks checked the family, deformation, torsor pair and
glue data.  On one-field mutations of files the writers emit:

- the old and the new loader fail on the same files;
- where the old loader named a path, the new one names the same path,
  byte for byte;
- where it did not (a bare ``TypeError``, ``KeyError`` or
  ``AttributeError``, an identity entry named by its object alone, or a
  fault of the content), the new one says the same or names the broken
  field itself.

The walker also accepts every file the writers emit over the seeded
corpus, so an over-strict schema cannot put a wrong path in place of a
true error.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from input_files import FILES, mutation
from tristack import cli, corpus, deform, descent, families, fincat, grothendieck, torsor
from tristack.cli import InputError
from tristack.deform import deformation
from tristack.descent import FiniteSite, SiteError, is_pullback
from tristack.families import FamilyError, _family_from_records
from tristack.fincat import CategoryError, FinCat, MissingIdentity, Morphism, PullbackSquare
from tristack.grothendieck import InvalidPseudoFunctor, PseudoFunctor, functor_from_json
from tristack.groups import BUILTIN_GROUPS
from tristack.records import walk
from tristack.torsor import (
    PERMS,
    GlueData,
    TorsorCocycle,
    TorsorError,
    _pair_from_records,
    complex_from_json,
    group_from_json,
)
from tristack.trigeo import RationalReader

# -- the old checks, verbatim ---------------------------------------------------------------


def json_field(raw: dict, key: str, kind: type, error: type, at: str = ""):
    """``raw[key]``, checked to be there and a JSON list, object or string (``kind``).

    ``at`` is the path of ``raw`` itself, e.g. ``"edges[0]"``; the
    ``error`` raised names the path of the missing or ill-kinded value.
    """
    if key not in raw:
        raise error(f"{at}: missing {key!r}" if at else f"missing {key!r}")
    value = raw[key]
    if not isinstance(value, kind):
        raise error(f"{at}.{key}: expected {_KINDS[kind]}" if at else f"{key}: expected {_KINDS[kind]}")
    return value


def json_records(raw: dict, key: str, fields, error: type, at: str = "") -> list:
    """``raw[key]`` checked to be a list of objects that each have ``fields``."""
    items = json_field(raw, key, list, error, at)
    path = f"{at}.{key}" if at else key
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise error(f"{path}[{n}]: expected an object")
        for field in fields:
            if field not in item:
                raise error(f"{path}[{n}]: missing {field!r}")
    return items


_KINDS = {list: "a list", dict: "an object", str: "a string"}


def validate_category(raw) -> FinCat:
    """Build a FinCat from raw description, naming the first broken axiom.

    ``raw`` is either the JSON-shaped dict (objects / morphisms /
    identities / compose) or a tuple (objects, morphisms, identity,
    compose_table).
    """
    if isinstance(raw, FinCat):
        return FinCat(raw.objects, raw.morphisms.values(), raw.identity, raw.table)
    if isinstance(raw, dict):
        for key in ("objects", "morphisms", "identities", "compose"):
            if key not in raw:
                raise CategoryError(f"missing {key!r}")
        try:
            morphisms = [Morphism(m["id"], m["src"], m["tgt"]) for m in raw["morphisms"]]
            table = {(g, f): gf for g, f, gf in raw["compose"]}
            return FinCat(raw["objects"], morphisms, raw["identities"], table)
        except (KeyError, TypeError, ValueError):
            # the shape is checked only once reading fails, so that its
            # error names the first bad entry; a broken axiom passes through
            _check_category_shape(raw)
            raise
    if not isinstance(raw, tuple):
        raise CategoryError("expected an object")
    objects, morphisms, identity, table = raw
    morphisms = [m if isinstance(m, Morphism) else Morphism(*m) for m in morphisms]
    return FinCat(objects, morphisms, identity, table)


def _check_category_shape(raw: dict):
    json_field(raw, "objects", list, CategoryError)
    json_records(raw, "morphisms", ("id", "src", "tgt"), CategoryError)
    json_field(raw, "identities", dict, CategoryError)
    for n, entry in enumerate(json_field(raw, "compose", list, CategoryError)):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise CategoryError(f"compose[{n}]: expected [g, f, gf]")


def pseudofunctor_from_json(raw: dict) -> PseudoFunctor:
    try:
        return _pseudofunctor_from_records(raw)
    except (AttributeError, KeyError, TypeError, ValueError):
        _check_pseudofunctor_shape(raw)
        raise


def _check_pseudofunctor_shape(raw: dict):
    """Name the first missing or ill-kinded entry, once reading has failed."""
    if "base" not in raw:
        raise InvalidPseudoFunctor("missing 'base'")
    base = validate_category(raw["base"])
    fibers = json_field(raw, "fibers", dict, InvalidPseudoFunctor)
    for S in base.objects:
        if S not in fibers:
            raise InvalidPseudoFunctor(f"fibers: missing {S!r}")
        validate_category(fibers[S])
    pullbacks = json_field(raw, "pullbacks", dict, InvalidPseudoFunctor)
    for f, fun in pullbacks.items():
        if f not in base.morphisms:
            raise InvalidPseudoFunctor(f"pullbacks: {f!r} is not an arrow of the base")
        json_field(pullbacks, f, dict, InvalidPseudoFunctor, "pullbacks")
        json_field(fun, "onObjects", dict, InvalidPseudoFunctor, f"pullbacks.{f}")
        json_field(fun, "onMorphisms", dict, InvalidPseudoFunctor, f"pullbacks.{f}")
    for n, entry in enumerate(json_records(raw, "alpha", ("f", "g", "components"), InvalidPseudoFunctor)):
        json_field(entry, "components", dict, InvalidPseudoFunctor, f"alpha[{n}]")
    epsilon = json_field(raw, "epsilon", dict, InvalidPseudoFunctor)
    for S in epsilon:
        json_field(epsilon, S, dict, InvalidPseudoFunctor, "epsilon")


def _pseudofunctor_from_records(raw: dict) -> PseudoFunctor:
    base = validate_category(raw["base"])
    fibers = {S: validate_category(raw["fibers"][S]) for S in base.objects}
    pullbacks = {
        f: functor_from_json(raw["pullbacks"][f], fibers[base.tgt(f)], fibers[base.src(f)])
        for f in raw["pullbacks"]
    }
    alpha = {(entry["f"], entry["g"]): dict(entry["components"]) for entry in raw["alpha"]}
    epsilon = {S: dict(raw["epsilon"][S]) for S in raw["epsilon"]}
    return PseudoFunctor(base, fibers, pullbacks, epsilon, alpha)


def _given_squares(base: FinCat, entries) -> dict:
    """The chosen squares of a site file, each checked to be a pullback.

    Descent along a covering is computed through these squares, so one
    that is ill-typed, does not commute or is not universal makes the
    file malformed; the error names the entry and its field.
    """
    if not isinstance(entries, list):
        raise SiteError("pullbacks: expected a list of squares")
    chosen = {}
    for n, e in enumerate(entries):
        at = f"pullbacks[{n}]"
        if not isinstance(e, dict):
            raise SiteError(f"{at}: expected an object")
        for key in ("f", "g", "apex", "toLeft", "toRight"):
            if key not in e:
                raise SiteError(f"{at}: missing {key!r}")
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


def _given_coverings(base: FinCat, coverings) -> dict:
    """The covering table of a site file, each entry checked to name an arrow.

    Only the shape and the arrow ids are checked here: an arrow into the
    wrong object breaks a site axiom, which ``validate_site`` reports.
    """
    if not isinstance(coverings, dict):
        raise SiteError("coverings: expected an object")
    for x, fams in coverings.items():
        if not isinstance(fams, list):
            raise SiteError(f"coverings.{x}: expected a list of families")
        for n, fam in enumerate(fams):
            if not isinstance(fam, list):
                raise SiteError(f"coverings.{x}[{n}]: expected a list of arrows")
            for k, iota in enumerate(fam):
                if not isinstance(iota, str) or iota not in base.morphisms:
                    raise SiteError(f"coverings.{x}[{n}][{k}]: {iota!r} is not an arrow")
    return coverings


def site_from_json(raw: dict) -> FiniteSite:
    if not isinstance(raw, dict):
        raise SiteError("expected an object")
    for key in ("base", "coverings"):
        if key not in raw:
            raise SiteError(f"missing {key!r}")
    base = validate_category(raw["base"])
    coverings = _given_coverings(base, raw["coverings"])
    return FiniteSite(base, coverings, _given_squares(base, raw.get("pullbacks", [])))


def family_from_json(raw: dict) -> families.PLFamily:
    try:
        return _family_from_records(raw)
    except (KeyError, TypeError, FamilyError):
        # reading checks no shape up front (that costs a tenth of a large
        # family's load); once it fails, name the first missing key or
        # entry of the wrong kind, if there is one, instead of its error
        json_records(raw, "vertices", ("id", "lengths"), FamilyError)
        for n, e in enumerate(json_records(raw, "edges", ("id", "from", "to", "chart"), FamilyError)):
            json_records(e, "chart", ("t", "lengths"), FamilyError, f"edges[{n}]")
        raise


def deformation_from_json(raw: dict) -> deform.Deformation:
    fam = family_from_json(raw)
    try:
        t = RationalReader(FamilyError).lengths(raw["triangle"], "triangle")
        return deformation(t, fam, raw["basepoint"], raw.get("marking", "e"))
    except KeyError:
        json_field(raw, "triangle", list, FamilyError)
        json_field(raw, "basepoint", str, FamilyError)
        raise


def torsor_from_json(raw: dict) -> TorsorCocycle:
    try:
        return TorsorCocycle(
            complex_from_json(raw["base"]),
            group_from_json(raw["group"]),
            dict(raw["transitions"]),
        )
    except (KeyError, TypeError, ValueError):
        _check_torsor_shape(raw, dict)
        raise


def _check_torsor_shape(raw: dict, transitions: type):
    """Name the first missing or ill-kinded entry of a torsor, pair or glue file.

    Called once reading has failed, so well-formed files pay nothing;
    ``transitions`` is the JSON kind the file keeps them in.
    """
    base = json_field(raw, "base", dict, TorsorError)
    json_field(base, "vertices", list, TorsorError, "base")
    json_records(base, "edges", ("id", "from", "to"), TorsorError, "base")
    if "faces" in base:
        json_records(base, "faces", ("id", "boundary"), TorsorError, "base")
    if "group" not in raw:
        raise TorsorError("missing 'group'")
    group = raw["group"]
    if isinstance(group, str):
        if group not in BUILTIN_GROUPS:
            raise TorsorError(f"group: {group!r} is not one of {', '.join(sorted(BUILTIN_GROUPS))}")
    else:
        json_field(raw, "group", dict, TorsorError)
        json_field(group, "elements", list, TorsorError, "group")
        json_field(group, "mul", list, TorsorError, "group")
    json_field(raw, "transitions", transitions, TorsorError)


def pair_from_json(raw: dict) -> torsor.TorsorPair:
    torsor = torsor_from_json(raw)
    try:
        return _pair_from_records(raw, torsor)
    except (AttributeError, KeyError, TypeError, ValueError):
        equivariant = json_field(raw, "equivariant", dict, TorsorError)
        for v, table in equivariant.items():
            json_field(equivariant, v, dict, TorsorError, "equivariant")
            for s in PERMS:
                if s not in table:
                    raise TorsorError(f"equivariant.{v}: missing {s!r}")
        charts = json_field(raw, "charts", dict, TorsorError)
        for e in charts:
            json_records(charts, e, ("t", "lengths"), TorsorError, "charts")
        json_field(raw, "glueFrom", dict, TorsorError)
        json_field(raw, "glueTo", dict, TorsorError)
        raise


def glue_data_from_json(raw: dict) -> GlueData:
    try:
        return GlueData(
            complex_from_json(raw["base"]),
            group_from_json(raw["group"]),
            tuple(frozenset(cells) for cells in raw["pieces"]),
            {(e["i"], e["j"]): dict(e["cells"]) for e in raw["transitions"]},
        )
    except (KeyError, TypeError, ValueError):
        _check_torsor_shape(raw, list)
        for n, cells in enumerate(json_field(raw, "pieces", list, TorsorError)):
            if not isinstance(cells, list):
                raise TorsorError(f"pieces[{n}]: expected a list of cells")
        for n, e in enumerate(json_records(raw, "transitions", ("i", "j", "cells"), TorsorError)):
            json_field(e, "cells", dict, TorsorError, f"transitions[{n}]")
        raise


def _transport_from_descriptor(site, desc, path):
    from tristack import descent, fincat

    if not isinstance(desc, dict):
        raise InputError(f"{path}: fibered: expected a JSON object, got {type(desc).__name__}")
    kind = desc.get("kind")
    try:
        if kind == "slice":
            _, proj = fincat.slice_category(site.base, desc["object"])
            return descent.Transport(proj)
        if kind == "elements":
            restrictions = {f: dict(t) for f, t in desc["restrictions"].items()}
            _, proj = fincat.elements_fibration(site.base, desc["values"], restrictions)
            return descent.Transport(proj)
        if kind == "total":
            p = pseudofunctor_from_json(desc["pseudofunctor"])
            _, proj = grothendieck.total_category(p)
            return descent.Transport(proj)
    except InputError:
        raise
    except Exception as err:
        _check_descriptor_shape(site.base, desc, kind, path)
        raise InputError(f"{path}: fibered category descriptor invalid: {err}")
    raise InputError(f"{path}: unknown fibered kind {kind!r}")


_DESCRIPTOR_FIELDS = {"slice": {"object": str}, "elements": {"values": dict, "restrictions": dict},
                      "total": {"pseudofunctor": dict}}


def _check_descriptor_shape(base, desc, kind, path):
    """Name the first missing or ill-kinded entry of a descriptor that failed to load."""

    def bad(message):
        return InputError(f"{path}: {message}")

    for key, kind_of in _DESCRIPTOR_FIELDS[kind].items():
        json_field(desc, key, kind_of, bad, "fibered")
    if kind == "elements":
        values, restrictions = desc["values"], desc["restrictions"]
        for x in base.objects:
            if not all(isinstance(e, str) for e in json_field(values, x, list, bad, "fibered.values")):
                raise bad(f"fibered.values.{x}: expected a list of element ids")
        for f in sorted(base.morphisms):
            table = json_field(restrictions, f, dict, bad, "fibered.restrictions")
            for e in values[base.tgt(f)]:
                if e not in table:
                    raise bad(f"fibered.restrictions.{f}: missing {e!r}")


# -- the comparison ----------------------------------------------------------------------------

# format -> (old loader, new loader, new schema)
LOADERS = {
    "category": (validate_category, fincat.validate_category, fincat.CATEGORY),
    "site": (site_from_json, descent.site_from_json, descent.SITE),
    "pseudofunctor": (pseudofunctor_from_json, grothendieck.pseudofunctor_from_json, grothendieck.PSEUDOFUNCTOR),
    "family": (family_from_json, families.family_from_json, families.FAMILY),
    "deformation": (deformation_from_json, deform.deformation_from_json, deform.DEFORMATION),
    "torsor": (torsor_from_json, torsor.torsor_from_json, torsor.TORSOR),
    "pair": (pair_from_json, torsor.pair_from_json, torsor.PAIR),
    "glue": (glue_data_from_json, torsor.glue_data_from_json, torsor.GLUE_DATA),
}

BARE = (AttributeError, KeyError, TypeError)


def failure(load, *args):
    """The error a load raised, or None."""
    try:
        load(*args)
    except Exception as err:
        return err
    return None


def path_text(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


def names_the_field(message: str, path, how: str) -> bool:
    """Whether ``message`` names the broken field: its path, the list it was deleted from, or its key missing.

    A category inside a site or pseudo-functor is read on its own, so the
    path may start at any enclosing document.
    """
    field, key = (path[:-1], path[-1]) if how == "delete" else (path, None)
    tails = [message] + [message[i + 2:] for i in range(len(message)) if message.startswith(": ", i)]
    for k in range(len(field) + 1):
        where = path_text(field[k:])
        expect = (f"{where}: " if where else "") + (f"missing {key!r}" if isinstance(key, str) else "")
        if expect and any(tail.startswith(expect) for tail in tails):
            return True
    return False


def is_path_message(err) -> bool:
    """An error whose message names a path, as the old checks wrote them."""
    text = str(err)
    head = text.split(" ", 1)[0]
    return not isinstance(err, (*BARE, MissingIdentity)) and (
        text.startswith(("missing '", "expected ")) or (head.endswith(":") and head[0] not in "'\"({[")
    )


def assert_same_or_better(old, new, path, how):
    assert (old is None) == (new is None), (old, new)
    if old is None:
        return
    if is_path_message(old):
        assert str(new) == str(old)
    else:
        assert str(new) == str(old) or names_the_field(str(new), path, how) or (
            isinstance(old, MissingIdentity) and str(new).startswith("identities")
        ), (old, new)


@settings(max_examples=300)
@given(data=st.data())
def test_mutations_keep_every_path_message(data):
    fmt = data.draw(st.sampled_from(sorted(LOADERS)))
    old_load, new_load, _ = LOADERS[fmt]
    doc, path, how = data.draw(mutation(FILES[fmt]))
    assert_same_or_better(failure(old_load, doc), failure(new_load, doc), path, how)


@settings(max_examples=100)
@given(data=st.data())
def test_descriptor_mutations_keep_every_path_message(data):
    stack = data.draw(st.sampled_from(FILES["stack"]))
    site = descent.site_from_json(stack["site"])
    desc, path, how = data.draw(mutation([stack["fibered"]]))
    old = failure(_transport_from_descriptor, site, desc, "s.json")
    new = failure(cli._transport_from_descriptor, site, desc, "s.json")
    old, new = (err and InputError(str(err).removeprefix("s.json: ")) for err in (old, new))
    assert_same_or_better(old, new, ("fibered", *path), how)


@functools.cache
def writer_files():
    """format -> every file the writers emit over the seeded corpus used here."""
    out = {fmt: list(docs) for fmt, docs in FILES.items() if fmt != "stack"}
    for seed in range(3):
        out["pseudofunctor"] += [grothendieck.pseudofunctor_to_json(p)
                                 for p in corpus.pseudofunctor_corpus(seed=seed, n=6)]
        out["family"] += [families.family_to_json(f) for f in corpus.family_corpus(seed=seed, n=6)]
        out["deformation"] += [deform.deformation_to_json(d) for d in corpus.deformation_corpus(seed=seed, n=4)]
    for base in corpus.simplicial_base_corpus(seed=0, n=6):
        t = corpus.random_torsor(random.Random(0), base, torsor.group_z3(), star_presentable=True)
        out["torsor"].append(torsor.torsor_to_json(t))
        out["glue"].append(torsor.glue_data_to_json(corpus.glue_data_from_torsor(t)))
    out["category"] += [fincat.category_to_json(p.fibers[S]) for p in corpus.pseudofunctor_corpus(seed=1, n=6)
                        for S in p.base.objects]
    return out


@pytest.mark.parametrize("fmt", sorted(LOADERS))
def test_the_walker_accepts_every_written_file(fmt):
    schema = LOADERS[fmt][2]
    for doc in writer_files()[fmt]:
        walk(doc, schema, AssertionError)
        LOADERS[fmt][1](doc)


def test_the_walker_accepts_every_written_descriptor():
    for stack in FILES["stack"]:
        walk(stack["fibered"], cli.DESCRIPTORS[stack["fibered"]["kind"]], AssertionError, "fibered")
        walk(stack["site"], descent.SITE, AssertionError)
