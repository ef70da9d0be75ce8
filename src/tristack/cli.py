"""Batch command line: validate files, run verdicts, execute the fixtures.

Every subcommand is a thin adapter over the library; its verdict is the
library call's verdict.  Exit codes: 0 for success or a positive
verdict, 1 for a well-formed negative verdict (so shell pipelines can
branch on mathematical outcomes), 2 for parse or validation problems
with the inputs or the command line, 3 for an internal error (a crash is
never a verdict).  ``--json`` writes a machine report whose content depends
only on the echoed command: ``argv`` less exactly the ``--json`` tokens.
The command line is one table, ``COMMANDS``, read by ``parse_args``.

Each subcommand imports the layers it calls, so a process pays start-up
only for its own half: ``classify`` loads ``trigeo`` alone, the family
subcommands never load the category modules, and ``descent-glue`` loads
no category module.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace


class InputError(Exception):
    pass


def _load_json(path):
    """The JSON object in the file; every input file holds one at its top level."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except json.JSONDecodeError as err:
        raise InputError(f"{path}:{err.lineno}:{err.colno}: {err.msg}")
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text (byte {err.object[err.start]:#04x} at offset {err.start})")
    if not isinstance(raw, dict):
        raise InputError(f"{path}: expected a JSON object at the top level, got {type(raw).__name__}")
    return raw


def _read_file(path, loader):
    """``loader`` applied to the JSON object in the file; what it raises is an input error."""
    raw = _load_json(path)
    try:
        return loader(raw)
    except Exception as err:
        raise InputError(f"{path}: {err}")


# -- subcommand implementations (report dict, exit code) -------------------------


def cmd_classify(args):
    from . import trigeo

    # 'p/q' or integer strings only; decimal notation would smuggle floats in
    triple = tuple(trigeo.rational_from_text(v, "length", InputError) for v in (args.x, args.y, args.z))
    if not trigeo.in_M(triple):
        return {"inM": False, "triple": [str(v) for v in triple]}, 1, "not in M: degenerate or impossible edge lengths"
    t = trigeo.TriangleLengths(*triple)
    stab = trigeo.stabilizer(t)
    npoint = trigeo.to_N(t)
    kind = trigeo.triangle_type(t)
    report = {
        "inM": True,
        "type": kind,
        "stabilizer": list(stab),
        "nRepresentative": [str(v) for v in npoint.astuple()],
        "perimeter2": [str(v) for v in trigeo.normalize_perimeter(t).astuple()],
    }
    text = (
        f"in M; {kind}; stabilizer {{{','.join(stab)}}}; "
        f"N-representative ({','.join(str(v) for v in npoint.astuple())})"
    )
    return report, 0, text


def _site_axioms(site):
    """The verdict on T1-T3; a pullback that T2 needs and the base lacks fails T2."""
    from . import descent
    from .records import Verdict

    try:
        return descent.validate_site(site)
    except descent.MissingPullback as err:
        return Verdict(False, "T2 fails: no pullback", err.args[0])


def cmd_site_check(args):
    from . import descent

    site = _read_file(args.site, descent.site_from_json)
    v = _site_axioms(site)
    if v.ok:
        return {"valid": True}, 0, "site axioms T1-T3 hold"
    return (
        {"valid": False, "reason": v.reason, "witness": _plain(v.witness)},
        1,
        f"site invalid: {v.reason} at {v.witness}",
    )


# the ``fibered`` entry of a ``stack-check`` file, by kind
DESCRIPTORS = {
    "slice": {"object": str},
    "elements": {"values": {str: [None]}, "restrictions": {str: {str: None}}},
    "total": {"pseudofunctor": {str: None}},
}


def _transport_from_descriptor(site, desc, path):
    from . import descent, fincat, grothendieck
    from .records import walk

    def bad(message):
        return InputError(f"{path}: {message}")

    if not isinstance(desc, dict):
        raise bad(f"fibered: expected a JSON object, got {type(desc).__name__}")
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
            p = grothendieck.pseudofunctor_from_json(desc["pseudofunctor"])
            _, proj = grothendieck.total_category(p)
            return descent.Transport(proj)
    except Exception as err:
        walk(desc, DESCRIPTORS[kind], bad, "fibered")
        if kind == "elements":
            _check_presheaf_keys(site.base, desc["values"], desc["restrictions"], bad)
        raise bad(f"fibered category descriptor invalid: {err}")
    raise bad(f"unknown fibered kind {kind!r}")


def _check_presheaf_keys(base, values, restrictions, bad):
    """Name the first object or arrow of the base that a presheaf leaves out, or a bad element id."""
    for x in base.objects:
        if x not in values:
            raise bad(f"fibered.values: missing {x!r}")
        if not all(isinstance(e, str) for e in values[x]):
            raise bad(f"fibered.values.{x}: expected a list of element ids")
    for f in sorted(base.morphisms):
        if f not in restrictions:
            raise bad(f"fibered.restrictions: missing {f!r}")
        for e in values[base.tgt(f)]:
            if e not in restrictions[f]:
                raise bad(f"fibered.restrictions.{f}: missing {e!r}")


def cmd_stack_check(args):
    from . import descent

    raw = _load_json(args.input)
    if "site" not in raw or "fibered" not in raw:
        raise InputError(f"{args.input}: expected keys 'site' and 'fibered'")
    try:
        site = descent.site_from_json(raw["site"])
    except Exception as err:
        raise InputError(f"{args.input}: site: {err}")
    sv = _site_axioms(site)
    if not sv.ok:
        raise InputError(f"{args.input}: site axioms fail: {sv.reason} at {sv.witness}")
    transport = _transport_from_descriptor(site, raw["fibered"], args.input)
    verdict = descent.stack_verdict(site, transport)
    report = {"status": verdict.status, "witness": _plain(verdict.witness)}
    code = 0 if verdict.status == "stack" else 1
    return report, code, f"verdict: {verdict.status}" + (
        f" (witness {verdict.witness})" if verdict.witness else ""
    )


def cmd_groth_roundtrip(args):
    from . import grothendieck

    p = _read_file(args.pseudofunctor, grothendieck.pseudofunctor_from_json)
    v = grothendieck.validate_pseudofunctor(p)
    if not v.ok:
        return (
            {"valid": False, "reason": v.reason, "witness": _plain(v.witness)},
            1,
            f"pseudo-functor invalid: {v.reason} at {v.witness}",
        )
    total, proj = grothendieck.total_category(p)
    lifts_ok = grothendieck.canonical_lifts_are_cartesian(p, proj)
    rt = grothendieck.roundtrip_check(proj)
    report = {
        "valid": True,
        "totalObjects": len(total.objects),
        "totalMorphisms": len(total.morphisms),
        "canonicalLiftsCartesian": lifts_ok,
        "roundtrip": rt,
    }
    ok = lifts_ok and rt
    lines = [
        f"total category: {len(total.objects)} objects, {len(total.morphisms)} morphisms",
        f"canonical lifts cartesian: {'yes' if lifts_ok else 'no'}",
        f"fiberwise round-trip: {'yes' if rt else 'no'}",
    ]
    return report, 0 if ok else 1, "\n".join(lines)


def cmd_descent_glue(args):
    from . import torsor

    data = _read_file(args.glue, torsor.glue_data_from_json)
    try:
        glued, witnesses = torsor.glue_descent(data)
    except torsor.CocycleFails as err:
        return (
            {"glued": False, "reason": "cocycle fails", "witness": _plain(err.args)},
            1,
            f"rejected: cocycle fails at {err.args}",
        )
    triv = torsor.is_trivial(glued)
    report = {
        "glued": True,
        "transitions": dict(sorted(glued.transitions.items())),
        "pieces": len(witnesses),
        "trivial": bool(triv),
        "monodromy": triv.monodromy if not triv else glued.group.identity,
    }
    text = (
        f"glued torsor over {len(glued.base.edges)} edges; "
        f"{len(witnesses)} star restrictions re-trivialized; "
        + ("globally trivial" if triv else f"monodromy {triv.monodromy}")
    )
    return report, 0, text


def cmd_family_iso(args):
    from . import families

    f = _read_file(args.first, families.family_from_json)
    g = _read_file(args.second, families.family_from_json)
    try:
        r = families.are_isomorphic(f, g)
    except families.DifferentBase as err:
        raise InputError(f"families live over different bases: {err}")
    if r.found:
        report = {"isomorphic": True, "assignment": dict(sorted(r.assignment.items()))}
        lines = ["isomorphic: yes"] + [
            f"  {e}: {tau}" for e, tau in sorted(r.assignment.items())
        ]
        return report, 0, "\n".join(lines)
    report = {"isomorphic": False, "witness": _obstruction_dict(r.obstruction)}
    text = "isomorphic: no"
    if r.obstruction:
        text += "\nwitness: " + _obstruction_text(r.obstruction)
    return report, 1, text


def _obstruction_text(ob):
    def forces(forced):
        return f"forces {forced[0]}" if len(forced) == 1 else f"allows {{{', '.join(forced)}}}"

    return (
        f"{ob.left_edge} {forces(ob.left_forced)}, "
        f"{ob.right_edge} {forces(ob.right_forced)}, vertex {ob.vertex} clash"
    )


def _obstruction_dict(ob):
    if ob is None:
        return None
    return {
        "vertex": ob.vertex,
        "leftEdge": ob.left_edge,
        "leftForced": list(ob.left_forced),
        "rightEdge": ob.right_edge,
        "rightForced": list(ob.right_forced),
    }


def cmd_orientable(args):
    from . import families

    fam = _read_file(args.family, families.family_from_json)
    o = families.is_orientable(fam)
    if o.orientable:
        report = {
            "orientable": True,
            "vertexGauge": dict(sorted(o.vertex_gauge.items())),
            "edgeRecharts": dict(sorted(o.edge_recharts.items())),
        }
        return report, 0, "orientable: yes"
    report = {
        "orientable": False,
        "cycle": [list(step) for step in o.obstruction_cycle],
        "monodromy": o.monodromy,
    }
    cyc = " ".join(f"{e}({d})" for e, d in o.obstruction_cycle)
    return report, 1, f"orientable: no\nobstruction cycle: {cyc}\nmonodromy: {o.monodromy}"


def cmd_coarse_check(args):
    from . import families

    if args.invariant not in families.INVARIANTS:
        raise InputError(
            f"unknown invariant {args.invariant!r}; choose from {sorted(families.INVARIANTS)}"
        )
    beta = families.INVARIANTS[args.invariant]
    if args.families:
        fams = [_read_file(p, families.family_from_json) for p in args.families]
    elif args.corpus_size < 1:
        raise InputError("--corpus-size must be >= 1")
    else:
        from . import corpus  # test generators, kept off the import path of every other subcommand

        fams = corpus.family_corpus(seed=args.seed, n=args.corpus_size)
    verdict = families.check_coarse_factorization(beta, fams)
    report = {"invariant": args.invariant, "status": verdict.status, "witness": _plain(verdict.witness)}
    if verdict.status == "factors":
        return report, 0, f"{args.invariant}: factors through the quotient"
    return report, 1, f"{args.invariant}: {verdict.status} (witness {verdict.witness})"


def cmd_demo_remark25(args):
    from . import families

    f, g = families.fixture_remark25()
    same = families.plmaps_equal(families.classify_to_N(f), families.classify_to_N(g))
    r = families.are_isomorphic(f, g)
    lines = [
        f"same N-map: {'yes' if same else 'no'}; isomorphic: {'yes' if r.found else 'no'}",
    ]
    report = {
        "sameNMap": same,
        "isomorphic": r.found,
        "witness": _obstruction_dict(r.obstruction),
    }
    if not r.found and r.obstruction:
        lines.append("witness: " + _obstruction_text(r.obstruction))
    ok = same and not r.found
    return report, 0 if ok else 1, "\n".join(lines)


def cmd_demo_mobius(args):
    from . import families

    fam = families.fixture_mobius()
    o = families.is_orientable(fam)
    n = families.classify_to_N(fam)
    closes = n.eval_edge("e0", Fraction(0)) == n.eval_edge("e1", Fraction(1))
    try:
        families.classify_to_M(fam)
        gated = False
    except families.NotOriented:
        gated = True
    report = {
        "orientable": o.orientable,
        "monodromy": o.monodromy,
        "quotientMapCloses": closes,
        "orientedClassifierGated": gated,
    }
    lines = [
        f"orientable: {'yes' if o.orientable else 'no'}; monodromy: {o.monodromy}",
        f"N-map closes around the circle: {'yes' if closes else 'no'}",
        f"oriented classifying map gated: {'yes' if gated else 'no'}",
    ]
    ok = (not o.orientable) and closes and gated
    return report, 0 if ok else 1, "\n".join(lines)


def cmd_plot_data(args):
    from . import trigeo

    d = args.denominator
    if d < 1:
        raise InputError("--denominator must be >= 1")
    rows = []
    for a in range(0, 2 * d + 1):
        for b in range(0, 2 * d + 1 - a):
            c = 2 * d - a - b
            x, y, z = Fraction(a, d), Fraction(b, d), Fraction(c, d)
            if trigeo.in_M((x, y, z)):
                srt = sorted((x, y, z))
                if srt[0] < srt[1] < srt[2]:
                    region = "N'" if (x, y, z) == tuple(srt) else "M"
                elif (x, y, z) == tuple(srt):
                    region = "N"
                else:
                    region = "M"
            elif min(x, y, z) >= 0 and x + y >= z and x + z >= y and y + z >= x:
                region = "boundary"
            else:
                region = "outside"
            rows.append(f"{x},{y},{z},{region}")
    csv = "x,y,z,region\n" + "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        text = f"wrote {len(rows)} rows to {args.out}"
    else:
        text = csv.rstrip("\n")
    report = {"rows": len(rows), "denominator": d}
    return report, 0, text


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- driver ------------------------------------------------------------------------


class ShowHelp(Exception):
    """``-h`` or ``--help``: the exception's text is the help, and the exit is 0."""


# option -> (dest, type, default, nargs); nargs "*" takes zero or more values
GLOBAL = {"--json": ("json", str, None, None), "--seed": ("seed", int, 0, None)}

# subcommand -> (handler, positional names, options, help)
COMMANDS = {
    "classify": (cmd_classify, ("x", "y", "z"), {}, "classify an edge-length triple"),
    "site-check": (cmd_site_check, ("site",), {}, "verify the covering axioms of a site file"),
    "stack-check": (cmd_stack_check, ("input",), {}, "stack / prestack verdict for a fibered category over a site"),
    "groth-roundtrip": (cmd_groth_roundtrip, ("pseudofunctor",), {},
                        "total category and round-trip checks for a pseudo-functor file"),
    "descent-glue": (cmd_descent_glue, ("glue",), {}, "glue per-piece trivial torsors along overlap data"),
    "family-iso": (cmd_family_iso, ("first", "second"), {}, "decide isomorphism of two families over the same base"),
    "orientable": (cmd_orientable, ("family",), {}, "orientation trivialization or obstruction cycle"),
    "coarse-check": (cmd_coarse_check, ("invariant",),
                     {"--families": ("families", str, None, "*"), "--corpus-size": ("corpus_size", int, 12, None)},
                     "does a fiberwise invariant factor through the quotient?"),
    "demo-remark25": (cmd_demo_remark25, (), {}, "equal quotient maps without an isomorphism"),
    "demo-mobius": (cmd_demo_mobius, (), {}, "the non-orientable circle family"),
    "plot-data": (cmd_plot_data, (),
                  {"--denominator": ("denominator", int, 12, None), "--out": ("out", str, None, None)},
                  "CSV sampling of the perimeter-2 slice"),
}

HELP = """usage: tristack [--json PATH] [--seed N] COMMAND ...   (tristack COMMAND --help for its arguments)

verdicts for finite descent machinery and exact triangle families

  --json PATH        write a machine-readable report
  --seed N           seed for generated corpora
"""

# a negative number (-5, -.5) is an argument, not an option
NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _help(command):
    if command is None:
        return HELP + "".join(f"\n  {name:<19}{spec[3]}" for name, spec in COMMANDS.items())
    _, names, options, text = COMMANDS[command]
    words = [f"[{flag} {'N' if kind is int else '[PATH ...]' if nargs else 'PATH'}]"
             for flag, (_, kind, _, nargs) in options.items()]
    return f"usage: tristack {' '.join([command, *words, *names])}\n\n{text}"


def _is_argument(token, options):
    """Whether ``token`` is a value: no leading '-', '-' alone, a negative number, or spaced but no option."""
    return token[:1] != "-" or token == "-" or (
        token.partition("=")[0] not in options and (" " in token or NEGATIVE.match(token) is not None))


def parse_args(argv):
    """The namespace the handlers read, and the command to echo: ``argv`` less the ``--json`` tokens.

    Options are spelled in full and take ``--opt VALUE`` or ``--opt=VALUE``;
    the last one given wins.  After ``--`` every token is positional.
    """
    args = SimpleNamespace(command=None, **{dest: default for dest, _, default, _ in GLOBAL.values()})
    options, names, where = GLOBAL, (), ""
    dropped, given, after_positional, only_values, i = set(), 0, -1, False, 0
    while i < len(argv):
        token, start, i = argv[i], i, i + 1
        if only_values or _is_argument(token, options):
            if args.command is None:
                if token not in COMMANDS:
                    raise InputError(f"unknown command {token!r}; choose from {', '.join(COMMANDS)}")
                args.fn, names, options, _ = COMMANDS[token]
                args.command, where = token, f"{token}: "
                vars(args).update({dest: default for dest, _, default, _ in options.values()})
            elif given == len(names):
                raise InputError(f"{where}unexpected argument {token!r}")
            else:
                setattr(args, names[given], token)
                given, after_positional = given + 1, i
        elif token == "--":
            # a '--' that ends argv is accepted only right after a positional
            if args.command is None or (i == len(argv) and after_positional != start):
                raise InputError(f"{where}unexpected '--'")
            only_values = True
        elif token in ("-h", "--help"):
            raise ShowHelp(_help(args.command))
        else:
            flag, inline, value = token.partition("=")
            if flag not in options:
                known = f"options, spelled in full: {', '.join(options)}" if options else "no options"
                raise InputError(f"{where}unknown option {flag} ({known})")
            dest, kind, _, nargs = options[flag]
            end = i
            while not inline and end < len(argv) and (nargs or end == i) and _is_argument(argv[end], options):
                end += 1
            values, i = [value] if inline else argv[i:end], end
            if not (values or nargs):
                raise InputError(f"{where}{flag} expects a value")
            try:
                values = [kind(v) for v in values]
            except ValueError:
                raise InputError(f"{where}{flag}: invalid {kind.__name__} value {values[0]!r}")
            setattr(args, dest, values if nargs else values[0])
            if dest == "json":
                dropped.update(range(start, i))
    if args.command is None:
        raise InputError(f"expected a command: {', '.join(COMMANDS)}")
    if given < len(names):
        raise InputError(f"{where}missing {', '.join(names[given:])}")
    return args, [token for k, token in enumerate(argv) if k not in dropped]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args, echoed = parse_args(argv)
        report, code, text = args.fn(args)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump({"command": echoed, "exit": code, "report": report}, fh, indent=1, sort_keys=True)
                fh.write("\n")
    except ShowHelp as shown:
        print(shown)
        return 0
    except InputError as err:
        print(f"input error: {err}")
        return 2
    except OSError as err:  # a path given on the command line that cannot be read or written
        print(f"input error: {err.filename}: {err.strerror}")
        return 2
    except Exception as err:
        detail = " ".join(f"{type(err).__name__}: {err}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
