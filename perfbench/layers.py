"""What the traced run wraps, and how its spans become per-layer metrics.

Every per-layer metric is reported on every workload.  A layer that a
workload does not exercise reads 0 there, which is itself the prediction
(no GF work on `lattice`, no lattice work on the curve workloads).
"""


def _count_survivors(tracer, result):
    tracer.counts["discform.survivors"] += len(result)


#: (module, attribute, span or counter name, kind, result hook)
TARGETS = [
    ("charfive.intmat", "lll_gram", "intmat.lll_gram", "span", None),
    ("charfive.intmat", "ldl_positive", "intmat.ldl_positive", "span", None),
    ("charfive.intmat", "enumerate_quadratic", "intmat.enumerate_quadratic", "span", None),
    ("charfive.intmat", "fraction_inverse", "intmat.fraction_inverse", "span", None),
    ("charfive.intmat", "mat_mul", "intmat.mat_mul", "span", None),
    ("charfive.intmat", "hermite_with_transform", "intmat.hnf", "span", None),
    ("charfive.intmat", "smith_normal_form", "intmat.snf", "span", None),
    ("charfive.intmat", "det_bareiss", "intmat.bareiss", "span", None),
    ("charfive.lattice", "overlattice_from_generators",
     "lattice.overlattice_from_generators", "span", None),
    ("charfive.lattice", "short_vectors_of_norm", "lattice.short_vectors_of_norm", "span", None),
    ("charfive.lattice", "coset_vectors_of_norm", "lattice.coset_vectors_of_norm", "span", None),
    ("charfive.lattice", "root_type_orthogonal_to",
     "lattice.root_type_orthogonal_to", "span", None),
    ("charfive.lattice", "e_set", "lattice.e_set", "span", None),
    ("charfive.discform", "admissible_subgroups", "discform.admissible_subgroups", "span",
     _count_survivors),
    ("charfive.discform", "classify_isotropic_subgroups", "discform.classify", "span", None),
    ("charfive.discform", "_subgroup_invariants", "discform.subgroup_invariants", "span", None),
    ("charfive.discform", "max_isotropic_dimension",
     "discform.max_isotropic_dimension", "span", None),
    ("charfive.discform", "verify_q_consistency", "discform.verify_q_consistency", "span", None),
    ("charfive.discform", "canonical_key", "discform.canonical_key", "span", None),
    ("charfive.ffpoly", "GF.mul", "ffpoly.gf_mul", "count", None),
    ("charfive.ffpoly", "GF.inv", "ffpoly.gf_inv", "count", None),
    ("charfive.ffpoly", "GF.__init__", "ffpoly.gf_new", "span", None),
    ("charfive.ffpoly", "roots_in_extension", "ffpoly.roots_in_extension", "span", None),
    ("charfive.ffpoly", "roots_in_field", "ffpoly.roots_in_field", "span", None),
    ("charfive.curvecheck", "local_intersection_multiplicity", "curvecheck.fulton", "span", None),
    ("charfive.curvecheck", "verify_A4", "curvecheck.verify_A4", "span", None),
    ("charfive.curvecheck", "singular_points", "curvecheck.singular_points", "span", None),
    ("charfive.curvecheck", "wall_invariant", "curvecheck.wall_invariant", "span", None),
    ("charfive.cli", "run", "cli.run", "span", None),
]

#: degrees of the seeded GF microbenchmark
MUL_DEGREES = (1, 2, 4, 6, 8, 10)
INV_DEGREES = (1, 2, 6, 10)

_HNF_SNF = ("intmat.hnf", "intmat.snf", "intmat.bareiss")

#: metric -> (unit, better, span names summed, summary field)
SPAN_METRICS = {}
for _name in ("lll_gram", "ldl_positive", "enumerate_quadratic", "fraction_inverse",
              "mat_mul"):
    SPAN_METRICS[f"intmat.{_name}.self_s"] = ("s", "lower", (f"intmat.{_name}",), "self_s")
    SPAN_METRICS[f"intmat.{_name}.calls"] = ("count", "lower", (f"intmat.{_name}",), "calls")
SPAN_METRICS.update({
    "intmat.hnf_snf.self_s": ("s", "lower", _HNF_SNF, "self_s"),
    "intmat.hnf_snf.calls": ("count", "lower", _HNF_SNF, "calls"),
    "lattice.overlattice_from_generators.self_s":
        ("s", "lower", ("lattice.overlattice_from_generators",), "self_s"),
    "lattice.overlattice_from_generators.calls":
        ("count", "lower", ("lattice.overlattice_from_generators",), "calls"),
    "lattice.short_vectors_of_norm.s": ("s", "lower", ("lattice.short_vectors_of_norm",), "s"),
    "lattice.coset_vectors_of_norm.s": ("s", "lower", ("lattice.coset_vectors_of_norm",), "s"),
    "lattice.root_type_orthogonal_to.s":
        ("s", "lower", ("lattice.root_type_orthogonal_to",), "s"),
    "lattice.e_set.s": ("s", "lower", ("lattice.e_set",), "s"),
    "discform.admissible_subgroups.s": ("s", "lower", ("discform.admissible_subgroups",), "s"),
    "discform.classify.sweep_self_s": ("s", "lower", ("discform.classify",), "self_s"),
    "discform.subgroup_invariants.calls":
        ("count", "lower", ("discform.subgroup_invariants",), "calls"),
    "discform.subgroup_invariants.s": ("s", "lower", ("discform.subgroup_invariants",), "s"),
    "discform.max_isotropic_dimension.s":
        ("s", "lower", ("discform.max_isotropic_dimension",), "s"),
    "discform.verify_q_consistency.s": ("s", "lower", ("discform.verify_q_consistency",), "s"),
    "discform.canonical_key.calls": ("count", "lower", ("discform.canonical_key",), "calls"),
    "discform.canonical_key.s": ("s", "lower", ("discform.canonical_key",), "s"),
    "ffpoly.roots_in_extension.calls": ("count", "lower", ("ffpoly.roots_in_extension",), "calls"),
    "ffpoly.roots_in_extension.s": ("s", "lower", ("ffpoly.roots_in_extension",), "s"),
    "ffpoly.roots_in_field.self_s": ("s", "lower", ("ffpoly.roots_in_field",), "self_s"),
    "ffpoly.gf_new.calls": ("count", "lower", ("ffpoly.gf_new",), "calls"),
    "ffpoly.gf_new.s": ("s", "lower", ("ffpoly.gf_new",), "s"),
    "curvecheck.fulton.calls": ("count", "lower", ("curvecheck.fulton",), "calls"),
    "curvecheck.fulton.self_s": ("s", "lower", ("curvecheck.fulton",), "self_s"),
    "curvecheck.verify_A4.s": ("s", "lower", ("curvecheck.verify_A4",), "s"),
    "curvecheck.singular_points.s": ("s", "lower", ("curvecheck.singular_points",), "s"),
    "curvecheck.wall_invariant.s": ("s", "lower", ("curvecheck.wall_invariant",), "s"),
    "cli.run.self_s": ("s", "lower", ("cli.run",), "self_s"),
})

#: metric -> (unit, better); filled from counters, the microbenchmark,
#: the curve outputs and the untraced/traced pair.
OTHER_METRICS = {
    "ffpoly.gf_mul.calls": ("count", "lower"),
    "ffpoly.gf_inv.calls": ("count", "lower"),
    **{f"ffpoly.gf_mul_ns.k{k}": ("ns", "lower") for k in MUL_DEGREES},
    **{f"ffpoly.gf_inv_ns.k{k}": ("ns", "lower") for k in INV_DEGREES},
    "curvecheck.polar.useful_ratio": ("ratio", "higher"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

PER_LAYER = {name: spec[:2] for name, spec in SPAN_METRICS.items()}
PER_LAYER.update(OTHER_METRICS)


def span_metrics(summary):
    """Per-layer values derived from a Tracer summary."""
    out = {}
    for metric, (_unit, _better, names, field) in SPAN_METRICS.items():
        start = 0 if field == "calls" else 0.0
        out[metric] = sum((summary.get(n, {}).get(field, start) for n in names), start)
    return out
