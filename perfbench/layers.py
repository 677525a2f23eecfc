"""Per-layer metrics of a traced pass, and the self-test of the tracing.

A layer is a module under `src/trivalent/`.  Spans are named
`<module>.<function>`; a `.calls` metric counts a span's calls, `.self_s` is
its self time in seconds (span duration minus the time of the spans it
called).  The other metrics count work or useful outcomes at a layer
boundary.
"""
from __future__ import annotations

import numpy as np

# Names that modules import from another module: the traced run must patch
# these bindings too, and checks that it did.
LOOKUP_SITES = (
    "trivalent.reflexive.count_elimination",
    "trivalent.ehrhart.count_points",
    "trivalent.scissors.iter_lattice_points",
    "trivalent.scissors.determinant",
    "trivalent.scissors.max_epsilon",
    "trivalent.scissors.resolve_site",
    "trivalent.scissors.weight_delta",
    "trivalent.scissors.apply_nni",
    "trivalent.weighted.apply_nni",
    "trivalent.cli.quasi_polynomial",
)

# Spans each workload is there to exercise.  A traced pass in which one of
# them records no call means a name escaped wrapping (or the workload stopped
# reaching the layer), and the run is refused rather than read as free.
# catalog.* is called during set-up.
EXPECTED_SPANS = {
    "cubic-qp": (
        "counting.count_elimination", "counting.count_points", "ehrhart.quasi_polynomial",
    ),
    "census-7": (
        "counting.count_elimination", "counting.count_tree_dp", "counting.count_points",
        "ehrhart.quasi_polynomial", "ehrhart.semi_reflexive_check", "reflexive.h_star",
        "reflexive.reflexivity_check", "reflexive.vertex_enumeration",
        "exactlin.solve_square", "cli.computed_tree_table", "catalog.connected_13_classes",
    ),
    "scissors-k4t4": (
        "scissors.build_decomposition", "scissors.verify_decomposition",
        "exactlin.determinant", "counting.iter_lattice_points", "weighted.resolve_site",
        "weighted.weight_delta", "nni.apply_nni", "nni.graph_sequence",
        "polytope.inequality_system",
    ),
    "nni-pairs": (
        "nni.tree_sequence", "nni.graph_sequence", "nni.canonical_caterpillar_sequence",
        "nni.apply_nni", "nni.replay", "weighted.resolve_site", "weighted.weight_delta",
        "weighted.replay_weighted", "graphs.same_labeled_graph", "catalog.connected_13_classes",
    ),
}

# Spans that must record no call: these workloads do no elimination counting.
FORBIDDEN_SPANS = {
    "scissors-k4t4": ("counting.count_elimination",),
    "nni-pairs": ("counting.count_elimination",),
}

CALLS = "count"
SECONDS = "s"
RATIO = "ratio"

# (metric name, unit), in the order they are reported
METRICS = (
    ("counting.count_elimination.calls", CALLS),
    ("counting.count_elimination.self_s", SECONDS),
    ("counting.count_elimination.k33_t23.self_s", SECONDS),
    ("counting.count_elimination.prism_t23.self_s", SECONDS),
    ("counting.count_tree_dp.calls", CALLS),
    ("counting.count_tree_dp.self_s", SECONDS),
    ("counting.iter_lattice_points.points", CALLS),
    ("counting.iter_lattice_points.self_s", SECONDS),
    ("ehrhart.quasi_polynomial.calls", CALLS),
    ("ehrhart.quasi_polynomial.self_s", SECONDS),
    ("ehrhart.counts_per_qp", RATIO),
    ("ehrhart.verlinde_count.self_s", SECONDS),
    ("reflexive.h_star.self_s", SECONDS),
    ("reflexive.reflexivity_check.self_s", SECONDS),
    ("reflexive.vertex_enumeration.calls", CALLS),
    ("reflexive.vertex_enumeration.self_s", SECONDS),
    ("exactlin.solve_square.calls", CALLS),
    ("exactlin.solve_square.self_s", SECONDS),
    ("exactlin.solve_square.nonsingular_ratio", RATIO),
    ("exactlin.determinant.calls", CALLS),
    ("exactlin.determinant.self_s", SECONDS),
    ("exactlin.max_epsilon.calls", CALLS),
    ("scissors.build_decomposition.self_s", SECONDS),
    ("scissors.build.pieces", CALLS),
    ("scissors.build.distinct_matrices", CALLS),
    ("scissors.verify_decomposition.self_s", SECONDS),
    ("scissors.verify.points", CALLS),
    ("scissors.verify.pieces_hit", CALLS),
    ("scissors.verify.pieces_hit_ratio", RATIO),
    ("nni.tree_sequence.calls", CALLS),
    ("nni.tree_sequence.self_s", SECONDS),
    ("nni.graph_sequence.calls", CALLS),
    ("nni.graph_sequence.self_s", SECONDS),
    ("nni.canonical_caterpillar_sequence.calls", CALLS),
    ("nni.canonicalizations_per_tree", RATIO),
    ("nni.apply_nni.calls", CALLS),
    ("nni.apply_nni.self_s", SECONDS),
    ("nni.replay.self_s", SECONDS),
    ("weighted.resolve_site.calls", CALLS),
    ("weighted.resolve_site.self_s", SECONDS),
    ("weighted.weight_delta.calls", CALLS),
    ("weighted.weight_delta.self_s", SECONDS),
    ("weighted.replay_weighted.self_s", SECONDS),
    ("graphs.Graph.instances", CALLS),
    ("graphs.same_labeled_graph.self_s", SECONDS),
    ("catalog.connected_13_classes.s", SECONDS),
    ("catalog.classes", CALLS),
    ("polytope.inequality_system.calls", CALLS),
    ("polytope.contains.calls", CALLS),
    ("trace_overhead_ratio", RATIO),
)

LABELED_ELIMINATIONS = {
    "counting.count_elimination.k33_t23.self_s": ("k33", 23),
    "counting.count_elimination.prism_t23.self_s": ("prism", 23),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pieces_hit(decomposition, dilations) -> int:
    """Pieces that claim at least one lattice point of the given source dilates."""
    from trivalent.counting import iter_lattice_points
    from trivalent.polytope import inequality_system
    from trivalent.scissors import WEAK

    m = len(decomposition.edge_order)
    system = inequality_system(decomposition.source)
    pts = np.array(
        [p for t in dilations for p in iter_lattice_points(system, t)], dtype=np.int64
    ).reshape(-1, m)
    hit = 0
    for piece in decomposition.pieces:
        mask = np.ones(len(pts), dtype=bool)
        for vec, sense in piece.constraints:
            values = pts @ np.array(vec, dtype=np.int64)
            mask &= values >= 0 if sense == WEAK else values < 0
        hit += bool(mask.any())
    return hit


def layer_metrics(tracer, setup_stats, workload, overhead: float) -> dict:
    """Every metric of METRICS for one traced pass (tracer) and its set-up."""
    setup_totals, setup_kept = setup_stats
    kept = tracer.kept
    v: dict[str, float] = {}
    for name, unit in METRICS:
        if name.endswith(".calls"):
            v[name] = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            v[name] = tracer.self_s(name[: -len(".self_s")])

    labels = workload.labels
    for name, (label, t) in LABELED_ELIMINATIONS.items():
        v[name] = sum(
            s for gid, tt, kind, s in kept["counting.count_elimination"]
            if labels.get(gid) == label and tt == t and kind == "membership"
        )
    v["counting.iter_lattice_points.points"] = tracer.yields["counting.iter_lattice_points"]
    v["ehrhart.counts_per_qp"] = _ratio(
        tracer.edges[("ehrhart.quasi_polynomial", "counting.count_points")],
        tracer.calls("ehrhart.quasi_polynomial"),
    )
    solves = kept["exactlin.solve_square"]
    v["exactlin.solve_square.nonsingular_ratio"] = _ratio(sum(solves), len(solves))

    builds = kept["scissors.build_decomposition"]
    v["scissors.build.pieces"] = sum(len(d.pieces) for d in builds)
    v["scissors.build.distinct_matrices"] = sum(len({p.matrix for p in d.pieces}) for d in builds)
    verifications = kept["scissors.verify_decomposition"]
    v["scissors.verify.points"] = sum(c.points for _, r in verifications for c in r.dilations)
    hit = sum(pieces_hit(d, [c.t for c in r.dilations]) for d, r in verifications)
    v["scissors.verify.pieces_hit"] = hit
    v["scissors.verify.pieces_hit_ratio"] = _ratio(
        hit, sum(len(d.pieces) for d, _ in verifications)
    )

    trees = kept["nni.canonical_caterpillar_sequence"]
    v["nni.canonicalizations_per_tree"] = _ratio(len(trees), len(set(trees)))
    v["graphs.Graph.instances"] = tracer.graph_instances
    v["catalog.connected_13_classes.s"] = setup_totals.get(
        "catalog.connected_13_classes", [0, 0.0, 0.0]
    )[1]
    v["catalog.classes"] = sum(setup_kept["catalog.connected_13_classes"])
    v["trace_overhead_ratio"] = overhead
    return {name: {"value": v[name], "unit": unit} for name, unit in METRICS}


def self_test(workload: str, tracer, setup_stats, unwrapped, lookup_sites) -> list[str]:
    """Problems with the tracing of this run; empty when it can be trusted."""
    setup_totals, _ = setup_stats
    problems = [f"{site} was not wrapped" for site, ok in lookup_sites.items() if not ok]
    problems += [f"{site} still calls the original" for site in unwrapped]
    for span in EXPECTED_SPANS[workload]:
        calls = tracer.calls(span) or setup_totals.get(span, [0])[0]
        if calls == 0:
            problems.append(f"{span} recorded no call on {workload}")
    for span in FORBIDDEN_SPANS.get(workload, ()):
        if tracer.calls(span):
            problems.append(f"{span} recorded {tracer.calls(span)} calls on {workload}")
    if workload == "nni-pairs" and tracer.graph_instances == 0:
        problems.append("graphs.Graph.__init__ counted no construction on nni-pairs")
    return problems


def print_span_table(tracer, rows: int = 20) -> None:
    """The spans with the most self time, for a reader of the run's output."""
    ranked = sorted(tracer.stats.items(), key=lambda kv: kv[1][2], reverse=True)
    print(f"{'span':<44}{'calls':>10}{'total_s':>12}{'self_s':>12}")
    for name, (calls, total, self_s) in ranked[:rows]:
        print(f"{name:<44}{calls:>10}{total:>12.4f}{self_s:>12.4f}")
