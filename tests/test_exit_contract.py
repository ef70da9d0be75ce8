"""The exit-code contract, fuzzed: every input gets a verdict or a named fault.

``main`` runs on arbitrary JSON documents and on one-field mutations of
files the writers emit (``input_files``), and ``classify`` on arbitrary
argument text.  Every run exits 0 or 1 with a verdict, or 2 with one
``input error`` line on stdout and nothing on stderr; it never prints
``internal error`` (exit 3).  Below ``main``, each loader meets the same
mutations and raises nothing but its own error, so a malformed file never
reaches the user as a bare ``TypeError`` or ``KeyError`` message.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from input_files import FILES, json_documents, mutations
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


@settings(max_examples=300)
@given(data=st.data())
def test_loaders_raise_their_own_error(data):
    fmt = data.draw(st.sampled_from(sorted(LOADERS)))
    load, error = LOADERS[fmt]
    try:
        load(data.draw(mutations(FILES[fmt])))
    except error:
        pass
