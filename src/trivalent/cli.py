"""Command-line interface.

Graph arguments accept either a path to a text-format graph file or one of
the built-in names (claw, theta, dumbbell, k4, t4, lollipop, ...).  Output is
JSON with sorted keys except where a graph itself is printed (text format, so
it can be piped back in).  Exit codes: 0 success, 1 a mathematical check
failed or the requested object does not exist, 2 usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog
from .counting import count_points
from .ehrhart import (
    quasi_polynomial,
    semi_reflexive_check,
    verlinde_count,
    volume_check,
    zagier_polynomial,
)
from .exactlin import determinant
from .graphs import (
    Graph,
    GraphError,
    classify_edges,
    degree_sequence,
    format_graph,
    parse_graph,
    validate_13,
)
from .nni import MoveSequence, Trail, graph_sequence, replay
from .reflexive import h_star, reflexivity_check, vertex_enumeration
from .scissors import build_decomposition, verify_decomposition
from .weighted import apply_weighted_nni, as_weighting, case_of, resolve_site

NAMED_GRAPHS = {
    "claw": catalog.claw,
    "theta": catalog.theta,
    "dumbbell": catalog.dumbbell,
    "k4": catalog.k4,
    "t4": catalog.t4,
    "lollipop": catalog.lollipop,
    "tree5": catalog.tree_two_internal,
    "tree7": catalog.tree_three_internal,
    "caterpillar9": catalog.tree_caterpillar_four,
    "spider9": catalog.tree_spider_four,
}


class UsageError(Exception):
    pass


def load_graph(spec: str) -> Graph:
    path = Path(spec)
    if path.is_file():
        try:
            return parse_graph(path.read_text())
        except GraphError as exc:
            raise UsageError(f"{spec}: {exc}") from exc
    if spec in NAMED_GRAPHS:
        return NAMED_GRAPHS[spec]()
    raise UsageError(
        f"{spec!r} is neither a readable file nor a built-in graph name "
        f"({', '.join(sorted(NAMED_GRAPHS))})"
    )


def parse_dilation(text: str) -> Fraction:
    """A nonnegative rational dilation written as an integer or p/q."""
    try:
        t = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"dilation {text!r} is not a rational number p/q") from exc
    if t < 0:
        raise UsageError(f"dilation {text!r} is negative")
    return t


def check_t_max(t_max: int) -> int:
    """The largest dilation a check covers; a negative one would cover none."""
    if t_max < 0:
        raise UsageError(f"--t-max {t_max} is negative, so no dilation would be checked")
    return t_max


def parse_trail(text: str) -> Trail:
    """A move trail written as five comma-separated integers a,u,e,v,b."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 5:
        raise UsageError(f"--trail {text!r} is not five integers a,u,e,v,b")
    return Trail(*values)


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_pair(x: Fraction) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# -- graph ---------------------------------------------------------------


def cmd_graph_validate(args) -> int:
    g = load_graph(args.graph)
    try:
        validate_13(g)
    except GraphError as exc:
        emit({"valid": False, "error": str(exc)})
        return 1
    ext, internal = classify_edges(g)
    emit(
        {
            "valid": True,
            "degree_sequence": list(degree_sequence(g)),
            "external_edges": list(ext),
            "internal_edges": list(internal),
        }
    )
    return 0


def cmd_graph_info(args) -> int:
    g = load_graph(args.graph)
    ext, internal = classify_edges(g)
    emit(
        {
            "vertices": len(g.vertex_ids),
            "edges": [[e, u, v] for e, u, v in g.edge_list],
            "degree_sequence": list(degree_sequence(g)),
            "external_edges": list(ext),
            "internal_edges": list(internal),
            "connected": g.is_connected(),
            "tree": g.is_tree(),
            "cycle_rank": g.cycle_rank(),
        }
    )
    return 0


# -- nni -------------------------------------------------------------------


def cmd_nni_sequence(args) -> int:
    g1 = load_graph(args.source)
    g2 = load_graph(args.target)
    seq = graph_sequence(g1, g2, restrict_to_spanning_trees=args.restrict)
    if args.output:
        Path(args.output).write_text(seq.to_json() + "\n")
    emit({**seq.to_jsonable(), "length": len(seq.moves)})
    return 0


def cmd_nni_replay(args) -> int:
    g = load_graph(args.graph)
    seq = MoveSequence.from_json(Path(args.sequence).read_text())
    out = replay(g, seq)
    if seq.relabel:
        out = out.rename_edges(seq.relabel_map)
    sys.stdout.write(format_graph(out))
    return 0


# -- weighted moves ---------------------------------------------------------


def parse_weights(g: Graph, text: str) -> dict[int, Fraction]:
    """Weights written as 'id=p/q,...' pairs or one p/q per edge in id order."""
    try:
        if "=" in text:
            values = {}
            for item in text.split(","):
                key, _, val = item.partition("=")
                values[int(key)] = Fraction(val)
        else:
            values = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--weights {text!r} is not a list of rational numbers p/q") from exc
    return as_weighting(g, values)


def cmd_wnni_apply(args) -> int:
    g = load_graph(args.graph)
    w = parse_weights(g, args.weights)
    trail = parse_trail(args.trail)
    site = resolve_site(g, trail)
    case = case_of(site, w)
    out_graph, out_w = apply_weighted_nni(g, w, trail)
    emit(
        {
            "case": case,
            "pivot": trail.e,
            "weights": {str(e): frac_str(x) for e, x in sorted(out_w.items())},
            "graph": format_graph(out_graph),
        }
    )
    return 0


# -- ehrhart -----------------------------------------------------------------


def cmd_ehrhart_count(args) -> int:
    g = load_graph(args.graph)
    t = parse_dilation(args.t)
    if args.method == "tree-dp" and not g.is_tree():
        raise UsageError(f"--method tree-dp needs a tree, and {args.graph!r} is not one")
    count = count_points(g, t, method=args.method)
    emit({"t": frac_str(t), "count": count, "method": args.method})
    return 0


def cmd_ehrhart_qp(args) -> int:
    g = load_graph(args.graph)
    qp = quasi_polynomial(g)
    emit(qp.to_jsonable())
    return 0


def cmd_ehrhart_verlinde(args) -> int:
    payload = {
        "n": args.n,
        "t": args.t,
        "count": verlinde_count(args.n, args.t),
    }
    if args.with_polynomial:
        payload["polynomial"] = [frac_pair(c) for c in zagier_polynomial(args.n)]
    emit(payload)
    return 0


def cmd_ehrhart_volume(args) -> int:
    g = load_graph(args.graph)
    report = volume_check(g)
    emit(
        {
            "vertices": report.vertices,
            "expected_leading": frac_pair(report.expected_leading),
            "leading": [frac_pair(c) for c in report.leading],
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 1


def cmd_ehrhart_semireflexive(args) -> int:
    g = load_graph(args.graph)
    report = semi_reflexive_check(g, [parse_dilation(s) for s in args.samples])
    emit(
        {
            "samples": [
                {"s": frac_str(s), "count": a, "count_at_floor": b}
                for s, a, b in report.samples
            ],
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 1


# -- scissors ------------------------------------------------------------------


def _decomposition_payload(d) -> dict:
    return {
        **d.moves.to_jsonable(),
        "edge_order": list(d.edge_order),
        "pieces": [
            {
                "constraints": [
                    {"normal": list(vec), "sense": sense}
                    for vec, sense in piece.constraints
                ],
                "matrix": [list(row) for row in piece.matrix],
                "determinant": determinant(piece.matrix),
            }
            for piece in d.pieces
        ],
    }


def _build(args):
    g1 = load_graph(args.source)
    g2 = load_graph(args.target)
    seq = graph_sequence(g1, g2, restrict_to_spanning_trees=args.restrict)
    return build_decomposition(g1, seq)


def cmd_scissors_build(args) -> int:
    emit(_decomposition_payload(_build(args)))
    return 0


def cmd_scissors_verify(args) -> int:
    t_max = check_t_max(args.t_max)
    d = _build(args)
    report = verify_decomposition(d, range(t_max + 1))
    emit(
        {
            "pieces": len(d.pieces),
            "determinants": list(report.determinants),
            "dilations": [
                {
                    "t": c.t,
                    "points": c.points,
                    "unique_cover": c.unique_cover,
                    "matches_replay": c.matches_replay,
                    "image_is_target": c.image_is_target,
                }
                for c in report.dilations
            ],
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 1


# -- reflexive -------------------------------------------------------------------


def cmd_reflexive_check(args) -> int:
    g = load_graph(args.graph)
    report = reflexivity_check(g, t_max=check_t_max(args.t_max))
    emit(
        {
            "counts": [
                {"t": c.t, "closed": c.closed, "interior_next": c.interior_next}
                for c in report.counts
            ],
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 1


def cmd_reflexive_hstar(args) -> int:
    g = load_graph(args.graph)
    vec = h_star(g)
    emit(
        {
            "coefficients": list(vec.coefficients),
            "palindromic": vec.palindromic,
            "nonnegative": vec.nonnegative,
            "normalized_volume": vec.normalized_volume,
        }
    )
    return 0 if (vec.palindromic and vec.nonnegative) else 1


def cmd_reflexive_vertices(args) -> int:
    g = load_graph(args.graph)
    vertices = vertex_enumeration(g)
    emit(
        {
            "count": len(vertices),
            "vertices": [[frac_str(x) for x in v] for v in vertices],
        }
    )
    return 0


# -- coefficient table ------------------------------------------------------------


def computed_tree_table(max_edges: int) -> dict:
    out = {}
    for m, trees in sorted(catalog.TABLE_TREES.items()):
        if m > max_edges:
            continue
        qps = [quasi_polynomial(t) for t in trees]
        if any(qp.constituents != qps[0].constituents for qp in qps[1:]):
            raise GraphError(f"trees with {m} edges disagree on the polynomial")
        qp = qps[0]
        if qp.period > 2:
            raise GraphError(f"unexpected period {qp.period} for {m} edges")
        even = qp.constituents[0 % qp.period]
        odd = qp.constituents[1 % qp.period]
        out[str(m)] = {
            "even": [frac_pair(c) for c in even],
            "odd": [frac_pair(c) for c in odd],
        }
    return out


def bundled_tree_table() -> dict:
    from importlib.resources import files

    return json.loads(files("trivalent").joinpath("data/tree_table.json").read_text())


def cmd_tree_table(args) -> int:
    table = computed_tree_table(args.max_edges)
    emit(table)
    if args.check:
        reference = {
            m: row for m, row in bundled_tree_table().items() if int(m) <= args.max_edges
        }
        if table != reference:
            print("computed table deviates from the bundled reference", file=sys.stderr)
            return 1
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trivalent",
        description="Lattice polytopes of graphs with all degrees in {1, 3}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="inspect graphs").add_subparsers(
        dest="action", required=True
    )
    p = graph.add_parser("validate", help="check the degree-{1,3} property")
    p.add_argument("graph")
    p.set_defaults(func=cmd_graph_validate)
    p = graph.add_parser("info", help="edges, degrees, external/internal split")
    p.add_argument("graph")
    p.set_defaults(func=cmd_graph_info)

    nni = sub.add_parser("nni", help="move sequences").add_subparsers(
        dest="action", required=True
    )
    p = nni.add_parser("sequence", help="construct moves from source to target")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument(
        "--restrict",
        action="store_true",
        help="keep pivots on the deterministic spanning trees",
    )
    p.add_argument("--output", help="also write the sequence as JSON to this file")
    p.set_defaults(func=cmd_nni_sequence)
    p = nni.add_parser("replay", help="apply a JSON move sequence to a graph")
    p.add_argument("graph")
    p.add_argument("sequence", help="path to a sequence JSON file")
    p.set_defaults(func=cmd_nni_replay)

    wnni = sub.add_parser("wnni", help="weighted moves").add_subparsers(
        dest="action", required=True
    )
    p = wnni.add_parser("apply", help="transport a weighting across one move")
    p.add_argument("graph")
    p.add_argument("--weights", required=True, help="'1=1,2=0,...' or '1,0,...'")
    p.add_argument("--trail", required=True, help="a,u,e,v,b")
    p.set_defaults(func=cmd_wnni_apply)

    ehr = sub.add_parser("ehrhart", help="lattice-point counting").add_subparsers(
        dest="action", required=True
    )
    p = ehr.add_parser("count", help="count lattice points of the t-th dilate")
    p.add_argument("graph")
    p.add_argument("-t", required=True, help="dilation, integer or fraction p/q")
    p.add_argument(
        "--method",
        choices=("auto", "tree-dp", "elimination", "backtracking"),
        default="auto",
    )
    p.set_defaults(func=cmd_ehrhart_count)
    p = ehr.add_parser("qp", help="exact counting quasi-polynomial")
    p.add_argument("graph")
    p.set_defaults(func=cmd_ehrhart_qp)
    p = ehr.add_parser("verlinde", help="trigonometric count for cubic graphs")
    p.add_argument("-n", type=int, required=True, help="number of vertices (even)")
    p.add_argument("-t", type=int, required=True, help="odd dilation")
    p.add_argument("--with-polynomial", action="store_true")
    p.set_defaults(func=cmd_ehrhart_verlinde)
    p = ehr.add_parser("volume", help="leading coefficient vs. Bernoulli prediction")
    p.add_argument("graph")
    p.set_defaults(func=cmd_ehrhart_volume)
    p = ehr.add_parser("semireflexive", help="L(s) == L(floor(s)) at rational s")
    p.add_argument("graph")
    p.add_argument(
        "-s",
        dest="samples",
        action="append",
        required=True,
        help="rational dilation, repeatable",
    )
    p.set_defaults(func=cmd_ehrhart_semireflexive)

    sci = sub.add_parser("scissors", help="piecewise-unimodular decompositions")
    scisub = sci.add_subparsers(dest="action", required=True)
    p = scisub.add_parser("build", help="decomposition along a constructed sequence")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--restrict", action="store_true")
    p.set_defaults(func=cmd_scissors_build)
    p = scisub.add_parser("verify", help="lattice-point verification up to t-max")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--restrict", action="store_true")
    p.add_argument("--t-max", type=int, default=4)
    p.set_defaults(func=cmd_scissors_verify)

    refl = sub.add_parser("reflexive", help="the shifted fourfold dilate").add_subparsers(
        dest="action", required=True
    )
    p = refl.add_parser("check", help="interior/closed count comparison")
    p.add_argument("graph")
    p.add_argument("--t-max", type=int, default=3)
    p.set_defaults(func=cmd_reflexive_check)
    p = refl.add_parser("hstar", help="h* vector from exact counts")
    p.add_argument("graph")
    p.set_defaults(func=cmd_reflexive_hstar)
    p = refl.add_parser("vertices", help="vertex enumeration (at most 7 edges)")
    p.add_argument("graph")
    p.set_defaults(func=cmd_reflexive_vertices)

    p = sub.add_parser(
        "tree-table",
        help="coefficient table of the standard trees (3 to 9 edges)",
    )
    p.add_argument("--max-edges", type=int, default=9, choices=(3, 5, 7, 9))
    p.add_argument(
        "--check",
        action="store_true",
        help="compare against the bundled reference table",
    )
    p.set_defaults(func=cmd_tree_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the same code as a count past the int64 ceiling: the input is valid
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # GraphError subclasses ValueError: failed mathematical precondition
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, GraphError) else 2


if __name__ == "__main__":
    sys.exit(main())
