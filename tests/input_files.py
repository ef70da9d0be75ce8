"""Valid input files of every format, and hypothesis strategies that break them.

Every file comes from the library's own writers over the seeded corpus.
``mutations`` breaks one field of such a file: it deletes a key or a list
entry, puts a value of another JSON kind in its place, or puts a
non-string where a string was.  ``json_documents`` draws arbitrary JSON
with keys and words taken from the corpus files, so that some of it gets
past the first lookups of a loader.
"""

import copy
import random

from hypothesis import strategies as st

from tristack import corpus, deform, descent, families, fincat, grothendieck, torsor


def _circle_glue():
    return torsor.GlueData(
        corpus.circle_base(2), torsor.group_s3(),
        (frozenset({"a0", "a1", "e0"}), frozenset({"a0", "a1", "e1"})),
        {(0, 1): {"a0": "(ABC)", "a1": "(AB)"}},
    )


def _torsors():
    rng = random.Random(3)
    bases = [corpus.circle_base(3), corpus.triangle_base(), corpus.two_triangle_base()]
    return [corpus.random_torsor(rng, base, torsor.group_s3(), star_presentable=True) for base in bases]


def _files() -> dict:
    """format -> valid documents of that format."""
    sites = [corpus.site_two_point_space(), corpus.site_chain(3), corpus.site_three_atoms()]
    site_docs = [descent.site_to_json(s) for s in sites]
    values, restrictions = corpus.constant_presheaf(sites[2].base, ["c0", "c1"])
    chain_psf = corpus.chain_pseudofunctor(random.Random(1), length=3)
    fams = [*families.fixture_remark25(), families.fixture_mobius(), *corpus.family_corpus(seed=0, n=3)]
    torsors = _torsors()
    return {
        "category": [fincat.category_to_json(c) for c in corpus.small_category_zoo().values()],
        "site": site_docs,
        "stack": [
            {"site": site_docs[0], "fibered": {"kind": "slice", "object": "X"}},
            {"site": site_docs[2], "fibered": {"kind": "elements", "values": values, "restrictions": restrictions}},
            {"site": site_docs[1],
             "fibered": {"kind": "total", "pseudofunctor": grothendieck.pseudofunctor_to_json(chain_psf)}},
        ],
        "pseudofunctor": [grothendieck.pseudofunctor_to_json(p) for p in corpus.pseudofunctor_corpus(seed=0, n=5)],
        "family": [families.family_to_json(f) for f in fams],
        "deformation": [deform.deformation_to_json(d) for d in corpus.deformation_corpus(seed=1, n=2)],
        "torsor": [torsor.torsor_to_json(t) for t in torsors],
        "pair": [torsor.pair_to_json(torsor.family_to_torsor_pair(f)) for f in fams[2:4]],
        "glue": [torsor.glue_data_to_json(_circle_glue())]
        + [torsor.glue_data_to_json(corpus.glue_data_from_torsor(t)) for t in torsors],
    }


FILES = _files()


def paths(doc, at=()):
    """The path of every value inside ``doc``, itself first."""
    yield at
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, at + (key,))
    elif isinstance(doc, list):
        for n, value in enumerate(doc):
            yield from paths(value, at + (n,))


KINDS = [None, True, 0, "x", [], {}]


@st.composite
def mutation(draw, docs):
    """One of ``docs`` broken in one field (a fresh copy), with that field's path and the breakage."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(list(paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    how = draw(st.sampled_from(["delete", "kind", "id"]))
    if how == "delete":
        del parent[path[-1]]
    elif how == "id" and isinstance(value, str):
        parent[path[-1]] = draw(st.sampled_from([1, [value], {value: value}]))
    else:
        how = "kind"
        parent[path[-1]] = draw(st.sampled_from([k for k in KINDS if type(k) is not type(value)]))
    return doc, path, how


def mutations(docs):
    """One of ``docs`` broken in one field."""
    return mutation(docs).map(lambda drawn: drawn[0])


def _words():
    words = set()
    for docs in FILES.values():
        for doc in docs:
            for path in paths(doc):
                words.update(k for k in path if isinstance(k, str))
    return sorted(words | {"slice", "elements", "total", "S3", "Z2", "e", "(AB)", "1/2", "1"})


WORDS = _words()

json_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(WORDS) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), children, max_size=5),
    max_leaves=16,
)


# -- command lines ------------------------------------------------------------------

SUBCOMMANDS = [
    "classify", "site-check", "stack-check", "groth-roundtrip", "descent-glue", "family-iso",
    "orientable", "coarse-check", "demo-remark25", "demo-mobius", "plot-data",
]
OPTIONS = ["--json", "--seed", "--families", "--corpus-size", "--denominator", "--out"]
ABBREVIATIONS = ["--js", "--se", "--fam", "--corpus", "--den", "--o"]
# arguments, {f} standing for an input file; words with a space or a leading '-'
# test where an argument ends and an option begins
ARGUMENTS = ["perimeter", "ycoord", "x", "3/4", "a b", "-a b", "", "-", "-5", "-.5", "0", "1", "3", "12", "{f}"]


def argv_tokens(abbreviations=True, help=True):
    """The token alphabet of arbitrary command lines: every spelling of every option, and markers."""
    spelled = OPTIONS + (ABBREVIATIONS if abbreviations else [])
    joined = [f"{o}={v}" for o in spelled for v in ("3", "-2", "x", "", "--", "{f}")]
    return SUBCOMMANDS + spelled + joined + ["--", "-x"] + ARGUMENTS + (["-h", "--help"] if help else [])


# a valid argument list per subcommand, {f} standing for its input file
VALID_ARGUMENTS = {
    "classify": ["3", "4", "5"], "site-check": ["{f}"], "stack-check": ["{f}"], "groth-roundtrip": ["{f}"],
    "descent-glue": ["{f}"], "family-iso": ["{f}", "{f}"], "orientable": ["{f}"],
    "coarse-check": ["perimeter", "--corpus-size", "3"], "demo-remark25": [], "demo-mobius": [],
    "plot-data": ["--denominator", "3"],
}


@st.composite
def command_lines(draw, tokens, most=4):
    """(subcommand, argv): its valid arguments with up to ``most`` tokens put in anywhere."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    argv = [command, *VALID_ARGUMENTS[command]]
    for _ in range(draw(st.integers(0, most))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(tokens)))
    return command, argv
