"""The exit-code contract, fuzzed: every input gets a verdict or a named fault.

``main`` runs on arbitrary JSON documents and on one-field mutations of
files the writers emit (``input_files``), ``classify`` on arbitrary
argument text, and every subcommand on arbitrary command lines.  Every run exits 0 or 1 with a verdict, or 2 with one
``input error`` line on stdout and nothing on stderr; it never prints
``internal error`` (exit 3).  Below ``main``, each loader meets the same
mutations and raises nothing but its own error, so a malformed file never
reaches the user as a bare ``TypeError`` or ``KeyError`` message.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from input_files import FILES, argv_tokens, command_lines, json_documents, mutations
from tristack import deform, descent, families, fincat, grothendieck, torsor
from tristack.cli import main

# subcommand -> (file format, arguments with the file as {f})
FILE_COMMANDS = {
    "site-check": ("site", ["site-check", "{f}"]),
    "stack-check": ("stack", ["stack-check", "{f}"]),
    "groth-roundtrip": ("pseudofunctor", ["groth-roundtrip", "{f}"]),
    "descent-glue": ("glue", ["descent-glue", "{f}"]),
    "family-iso": ("family", ["family-iso", "{f}", "{f}"]),
    "orientable": ("family", ["orientable", "{f}"]),
    "coarse-check": ("family", ["coarse-check", "perimeter", "--families", "{f}"]),
}

# format -> (loader, the error it raises)
LOADERS = {
    "category": (fincat.validate_category, fincat.CategoryError),
    "site": (descent.site_from_json, ValueError),  # a site's base raises CategoryError
    "pseudofunctor": (grothendieck.pseudofunctor_from_json, ValueError),
    "family": (families.family_from_json, families.FamilyError),
    "deformation": (deform.deformation_from_json, ValueError),
    "torsor": (torsor.torsor_from_json, ValueError),
    "pair": (torsor.pair_from_json, ValueError),
    "glue": (torsor.glue_data_from_json, ValueError),
}


@pytest.fixture(scope="module")
def infile(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.json"


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, out, err)
    assert "internal error" not in out + err, err
    if code == 2:
        assert err == "" and out.startswith("input error: ") and out.count("\n") == 1, (out, err)


def assert_input_error(argv, *names):
    """``main(argv)`` exits 2 with one input error line that contains every name."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code == 2 and err == "" and out.startswith("input error: ") and out.count("\n") == 1, (code, out, err)
    assert all(name in out for name in names), out


def run_file_command(infile, command, doc):
    infile.write_text(json.dumps(doc))
    assert_contract([a.format(f=infile) for a in FILE_COMMANDS[command][1]])


@settings(max_examples=150)
@given(command=st.sampled_from(sorted(FILE_COMMANDS)), doc=json_documents)
def test_arbitrary_documents(infile, command, doc):
    run_file_command(infile, command, doc)


@settings(max_examples=300)
@given(data=st.data())
def test_one_field_mutations(infile, data):
    command = data.draw(st.sampled_from(sorted(FILE_COMMANDS)))
    run_file_command(infile, command, data.draw(mutations(FILES[FILE_COMMANDS[command][0]])))


rational_text = st.text(st.sampled_from("0123456789/+-. e"), max_size=8) | st.text(max_size=4)


@settings(max_examples=150)
@given(args=st.lists(rational_text, min_size=3, max_size=3))
def test_classify_arbitrary_text(args):
    assert_contract(["classify", "--", *args])


@settings(max_examples=300, deadline=None)
@given(line=command_lines(argv_tokens()))
def test_arbitrary_command_lines(infile, line):
    """Options in any spelling and order, abbreviated, repeated or misplaced, and stray
    arguments: a usage error is one input error line.  The input file is a valid file of
    the subcommand's format; reports and CSV files go next to it."""
    command, argv = line
    if command in FILE_COMMANDS:
        infile.write_text(json.dumps(FILES[FILE_COMMANDS[command][0]][0]))
    cwd = os.getcwd()
    os.chdir(infile.parent)
    try:
        assert_contract([a.format(f=infile) for a in argv])
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@pytest.mark.parametrize("data", [b"\xff\xfe{}", b'{"vertices": "\xe9"}', b"\x80"])
def test_undecodable_files_are_input_errors(tmp_path, command, data):
    """A file whose bytes are not UTF-8 is malformed input named by its path, not a crash."""
    infile = tmp_path / "bad.json"
    infile.write_bytes(data)
    assert_input_error([a.format(f=infile) for a in FILE_COMMANDS[command][1]], str(infile), "not UTF-8")


@pytest.mark.parametrize("args", [["\u0663", "\u0664", "\u0665"], ["3", "4", "\uff15"]])
def test_classify_takes_ascii_digits_only(args):
    """Arabic-Indic and full-width digits would name the 3-4-5 triangle to ``int``."""
    assert_input_error(["classify", *args], "is not a rational p/q")


def test_family_file_takes_ascii_digits_only(tmp_path):
    infile = tmp_path / "fam.json"
    infile.write_text(json.dumps({"vertices": [{"id": "p", "lengths": ["\u0663/\u0664", "1", "1"]}],
                                  "edges": []}), encoding="utf-8")
    assert_input_error(["orientable", str(infile)], "vertex p", "is not a rational p/q")


@pytest.mark.parametrize("argv", [
    ["classify", "1"], ["classify", "1", "2", "3", "4"], [], ["volume"], ["--seed", "x", "demo-mobius"],
    ["plot-data", "--den", "3"], ["plot-data", "--denominator"], ["demo-mobius", "--json", "r.json"],
    ["--json", "no/such/dir/r.json", "demo-mobius"],
])
def test_usage_errors_exit_two(capsys, argv):
    """What argparse answered with a usage message on stderr and SystemExit is an input error."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("input error: ") and out.count("\n") == 1, (out, err)


@settings(max_examples=300)
@given(data=st.data())
def test_loaders_raise_their_own_error(data):
    fmt = data.draw(st.sampled_from(sorted(LOADERS)))
    load, error = LOADERS[fmt]
    try:
        load(data.draw(mutations(FILES[fmt])))
    except error:
        pass
