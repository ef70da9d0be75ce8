"""Every per-layer metric the traced run reports, with unit and direction.

``<module>.<function>.ms`` is self time per pass of the question list,
``.calls`` and ``.failed`` count calls and raised calls per pass, and
``<module>.<function>.ms.<ladder>-<size>`` is self time on one rung of a
ladder. A layer a workload never calls reports 0 there. The counts in
``COMPUTED`` are derived from the inputs, not measured.
"""

FUNCTIONS = (
    "trigeo.classify",
    "fincat.validate_category",
    "fincat.is_fibered",
    "fincat.is_groupoid_fibration",
    "grothendieck.total_category",
    "grothendieck.roundtrip_check",
    "descent.validate_site",
    "descent.transport",
    "descent.stack_verdict",
    "families.family_from_json",
    "families.are_isomorphic.pos",
    "families.are_isomorphic.neg",
    "families.is_orientable",
    "families.classify_to_N",
    "families.check_coarse_factorization",
    "torsor.is_trivial",
    "torsor.find_gauge_isomorphism",
    "torsor.validate_glue_data",
    "torsor.glue_descent",
    "deform.are_equivalent",
    "deform.germ_normal_form",
)

RUNGS = (
    [f"fincat.validate_category.ms.sym-{n}" for n in (3, 4, 5)]
    + [f"descent.stack_verdict.ms.chain-{n}" for n in (3, 4, 5, 6)]
    + [f"descent.stack_verdict.ms.const-{k}" for k in range(1, 7)]
    + [f"descent.stack_verdict.ms.z3-chain-{n}" for n in (3, 4)]
    + [f"families.are_isomorphic.ms.pos-path-{n}" for n in (125, 250, 500, 1000, 2000)]
    + [f"families.are_isomorphic.ms.neg-cycle-{n}" for n in (8, 16, 32)]
    + [f"families.is_orientable.ms.{shape}-{n}" for shape in ("path", "rand") for n in (250, 500, 1000, 2000)]
    + [f"torsor.find_gauge_isomorphism.ms.nosol-{k}" for k in range(1, 6)]
    + [f"torsor.glue_descent.ms.path-{n}" for n in (25, 50, 100, 200)]
)

COMPUTED = {
    "fincat.assoc_triples": "count",
    "grothendieck.total_morphisms": "count",
    "descent.covering_families": "count",
    "descent.distinct_sieves": "count",
    "descent.sieve_share": "ratio",
    "torsor.glue_piece_triples": "count",
}

CLI_SUBCOMMANDS = (
    "classify", "demo-remark25", "demo-mobius", "family-iso", "orientable", "site-check",
    "stack-check", "groth-roundtrip", "descent-glue", "coarse-check", "plot-data",
)


def registry():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for fn in FUNCTIONS:
        out += [(f"{fn}.ms", "ms", "lower"), (f"{fn}.calls", "count", "lower"),
                (f"{fn}.failed", "count", "lower")]
    out += [(name, "ms", "lower") for name in RUNGS]
    out += [(name, unit, "lower") for name, unit in COMPUTED.items()]
    out += [("cli.interpreter_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    out += [(f"cli.{sub}.ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    out.append(("trace.overhead_pct", "%", "lower"))
    return out
