"""The command table's parser against the argparse parser it replaced.

Below is ``build_parser`` as it was, verbatim but for imports.  On command
lines drawn from the token alphabet of ``input_files``, without
abbreviations and without ``-h``:

- where argparse accepts, ``parse_args`` gives every dest the same value,
  and the same handler;
- where argparse exits, ``parse_args`` raises ``InputError``.

One difference is argparse's own fault: Python 3.11's argparse strips a
``--`` from a single value, so a second ``--`` taken as a positional, or
``--json=--``, becomes ``[]``.  The new parser keeps the ``--``; the
comparison reads the oracle's ``[]`` in a single-valued dest as ``"--"``.

Abbreviations, which argparse accepted, are refused and named, and the help
comes from the same table.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from input_files import SUBCOMMANDS, argv_tokens, command_lines
from tristack.cli import (
    COMMANDS,
    InputError,
    cmd_classify,
    cmd_coarse_check,
    cmd_demo_mobius,
    cmd_demo_remark25,
    cmd_descent_glue,
    cmd_family_iso,
    cmd_groth_roundtrip,
    cmd_orientable,
    cmd_plot_data,
    cmd_site_check,
    cmd_stack_check,
    main,
    parse_args,
)

# -- the old parser, verbatim ------------------------------------------------------------


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


# -- the comparison ----------------------------------------------------------------------------


def oracle(argv):
    """argparse's dests, with the handler by name, or None where it exits."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            ns = build_parser().parse_args(argv)
    except SystemExit:
        return None
    dests = {k: "--" if v == [] and k != "families" else v for k, v in vars(ns).items()}
    return {**dests, "fn": ns.fn.__name__}


def table(argv):
    try:
        ns, _ = parse_args(argv)
    except InputError:
        return None
    return {**vars(ns), "fn": ns.fn.__name__}


TOKENS = argv_tokens(abbreviations=False, help=False)
LINES = command_lines(TOKENS).map(lambda line: line[1]) | st.lists(st.sampled_from(TOKENS), max_size=8)


@settings(max_examples=1500, deadline=None)
@given(argv=LINES)
def test_same_dests_or_both_refuse(argv):
    assert table(argv) == oracle(argv)


@pytest.mark.parametrize("argv", [
    ["classify", "--", "-1/2", "4", "5"], ["classify", "-5", "-.5", "-x y"], ["classify", "1", "2", "3", "--"],
    ["coarse-check", "--families", "a", "b", "--", "perimeter"], ["coarse-check", "x", "--families"],
    ["coarse-check", "--corpus-size=3", "x", "--corpus-size", "-4"], ["--json=r.json", "--json", "s", "demo-mobius"],
    ["--seed=-3", "plot-data", "--out=-x", "--denominator", " 7"], ["family-iso", "--", "a", "--"],
])
def test_same_dests_on_the_edges_of_the_grammar(argv):
    assert table(argv) == oracle(argv) is not None


@pytest.mark.parametrize("argv", [
    ["demo-mobius", "--"], ["plot-data", "--denominator", "3", "--"], ["coarse-check", "x", "--families", "a", "--"],
    ["--", "classify", "1", "2", "3"], ["classify", "1", "2", "-1/2"], ["plot-data", "--out", "-x"],
    ["coarse-check", "--families", "a", "perimeter"], ["classify", "1", "2", "3", "--json", "r"],
])
def test_both_refuse_on_the_edges_of_the_grammar(argv):
    assert table(argv) is oracle(argv) is None


@pytest.mark.parametrize("argv, option", [
    (["plot-data", "--den", "3"], "--den"),
    (["--js", "r.json", "demo-mobius"], "--js"),
    (["--se", "3", "demo-mobius"], "--se"),
    (["coarse-check", "perimeter", "--corpus", "3"], "--corpus"),
    (["coarse-check", "perimeter", "--fam=f.json"], "--fam"),
])
def test_abbreviations_are_refused_and_named(capsys, argv, option):
    assert oracle(argv) is not None
    with pytest.raises(InputError, match=f"unknown option {option} "):
        parse_args(argv)
    assert main(argv) == 2
    assert capsys.readouterr().out.startswith("input error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["plot-data", "--help"], ["--json", "r.json", "classify", "-h"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tristack")


def test_help_lists_every_subcommand_and_option(capsys):
    main(["--help"])
    top = capsys.readouterr().out
    old = build_parser()._subparsers._group_actions[0]
    helps = {action.dest: action.help for action in old._choices_actions}
    assert list(helps) == SUBCOMMANDS == list(COMMANDS)
    for command, text in helps.items():
        assert f"  {command} " in top and top.count(text) == 1, command
    assert "--json PATH" in top and "--seed N" in top
    main(["plot-data", "--help"])
    plot = capsys.readouterr().out
    assert "--denominator N" in plot and "--out PATH" in plot and helps["plot-data"] in plot
