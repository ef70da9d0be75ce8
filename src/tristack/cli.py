"""Batch command line: validate files, run verdicts, execute the fixtures.

Every subcommand is a thin adapter over the library; its verdict is the
library call's verdict.  Exit codes: 0 for success or a positive
verdict, 1 for a well-formed negative verdict (so shell pipelines can
branch on mathematical outcomes), 2 for parse or validation problems
with the inputs, 3 for an internal error (a crash is never a verdict).
``--json`` writes a machine report whose content depends only on the
subcommand arguments, never on the report path.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import descent, families, fincat, grothendieck, torsor, trigeo


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except json.JSONDecodeError as err:
        raise InputError(f"{path}:{err.lineno}:{err.colno}: {err.msg}")


# -- subcommand implementations (report dict, exit code) -------------------------


def cmd_classify(args):
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


def cmd_site_check(args):
    site = _site_from_file(args.site)
    v = descent.validate_site(site)
    if v.ok:
        return {"valid": True}, 0, "site axioms T1-T3 hold"
    return (
        {"valid": False, "reason": v.reason, "witness": _plain(v.witness)},
        1,
        f"site invalid: {v.reason} at {v.witness}",
    )


def _site_from_file(path):
    raw = _load_json(path)
    try:
        return descent.site_from_json(raw)
    except Exception as err:
        raise InputError(f"{path}: {err}")


def _transport_from_descriptor(site, desc, path):
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
    except InputError:
        raise
    except Exception as err:
        raise InputError(f"{path}: fibered category descriptor invalid: {err}")
    raise InputError(f"{path}: unknown fibered kind {kind!r}")


def cmd_stack_check(args):
    raw = _load_json(args.input)
    if "site" not in raw or "fibered" not in raw:
        raise InputError(f"{args.input}: expected keys 'site' and 'fibered'")
    try:
        site = descent.site_from_json(raw["site"])
    except Exception as err:
        raise InputError(f"{args.input}: site: {err}")
    sv = descent.validate_site(site)
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
    raw = _load_json(args.pseudofunctor)
    try:
        p = grothendieck.pseudofunctor_from_json(raw)
    except Exception as err:
        raise InputError(f"{args.pseudofunctor}: {err}")
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
    raw = _load_json(args.glue)
    try:
        data = torsor.glue_data_from_json(raw)
    except Exception as err:
        raise InputError(f"{args.glue}: {err}")
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


def _family_from_file(path):
    try:
        return families.family_from_json(_load_json(path))
    except InputError:
        raise
    except Exception as err:
        raise InputError(f"{path}: {err}")


def cmd_family_iso(args):
    f = _family_from_file(args.first)
    g = _family_from_file(args.second)
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
    fam = _family_from_file(args.family)
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
    if args.invariant not in families.INVARIANTS:
        raise InputError(
            f"unknown invariant {args.invariant!r}; choose from {sorted(families.INVARIANTS)}"
        )
    beta = families.INVARIANTS[args.invariant]
    if args.families:
        fams = [_family_from_file(p) for p in args.families]
    else:
        from . import corpus  # test generators, kept off the import path of every other subcommand

        fams = corpus.family_corpus(seed=args.seed, n=args.corpus_size)
    verdict = families.check_coarse_factorization(beta, fams)
    report = {"invariant": args.invariant, "status": verdict.status, "witness": _plain(verdict.witness)}
    if verdict.status == "factors":
        return report, 0, f"{args.invariant}: factors through the quotient"
    return report, 1, f"{args.invariant}: {verdict.status} (witness {verdict.witness})"


def cmd_demo_remark25(args):
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tristack",
        description="verdicts for finite descent machinery and exact triangle families",
    )
    parser.add_argument("--json", metavar="PATH", help="write a machine-readable report")
    parser.add_argument("--seed", type=int, default=0, help="seed for generated corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an edge-length triple")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("site-check", help="verify the covering axioms of a site file")
    p.add_argument("site")
    p.set_defaults(fn=cmd_site_check)

    p = sub.add_parser("stack-check", help="stack / prestack verdict for a fibered category over a site")
    p.add_argument("input")
    p.set_defaults(fn=cmd_stack_check)

    p = sub.add_parser("groth-roundtrip", help="total category and round-trip checks for a pseudo-functor file")
    p.add_argument("pseudofunctor")
    p.set_defaults(fn=cmd_groth_roundtrip)

    p = sub.add_parser("descent-glue", help="glue per-piece trivial torsors along overlap data")
    p.add_argument("glue")
    p.set_defaults(fn=cmd_descent_glue)

    p = sub.add_parser("family-iso", help="decide isomorphism of two families over the same base")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_family_iso)

    p = sub.add_parser("orientable", help="orientation trivialization or obstruction cycle")
    p.add_argument("family")
    p.set_defaults(fn=cmd_orientable)

    p = sub.add_parser("coarse-check", help="does a fiberwise invariant factor through the quotient?")
    p.add_argument("invariant")
    p.add_argument("--families", nargs="*", default=None, metavar="FILE")
    p.add_argument("--corpus-size", type=int, default=12)
    p.set_defaults(fn=cmd_coarse_check)

    p = sub.add_parser("demo-remark25", help="equal quotient maps without an isomorphism")
    p.set_defaults(fn=cmd_demo_remark25)

    p = sub.add_parser("demo-mobius", help="the non-orientable circle family")
    p.set_defaults(fn=cmd_demo_mobius)

    p = sub.add_parser("plot-data", help="CSV sampling of the perimeter-2 slice")
    p.add_argument("--denominator", type=int, default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    echoed = [a for a in argv if a != "--json" and (args.json is None or a != args.json)]
    try:
        report, code, text = args.fn(args)
    except InputError as err:
        print(f"input error: {err}")
        return 2
    except Exception as err:
        detail = " ".join(f"{type(err).__name__}: {err}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
    print(text)
    if args.json:
        payload = {"command": echoed, "exit": code, "report": report}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
