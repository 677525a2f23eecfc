"""Lattice polytopes of graphs with all vertex degrees in {1, 3}.

Move sequences between graphs with equal degree sequences, the
piecewise-unimodular weight transport they induce, exact lattice-point
counting (quasi-polynomials, trigonometric counts, volumes), half-open
unimodular decompositions, and the reflexivity suite for the shifted
fourfold dilate.
"""
from .catalog import (
    TABLE_TREES,
    claw,
    connected_13_classes,
    dumbbell,
    k4,
    lollipop,
    t4,
    theta,
)
from .counting import (
    count_backtracking,
    count_elimination,
    count_points,
    count_tree_dp,
    iter_lattice_points,
)
from .ehrhart import (
    QuasiPolynomial,
    quasi_polynomial,
    semi_reflexive_check,
    verlinde_count,
    volume_check,
    zagier_polynomial,
)
from .graphs import (
    Graph,
    GraphError,
    classify_edges,
    degree_sequence,
    format_graph,
    make_graph,
    parse_graph,
    same_labeled_graph,
    spanning_tree,
    validate_13,
)
from .nni import (
    MoveSequence,
    NniError,
    Trail,
    apply_nni,
    graph_sequence,
    legal_trails,
    replay,
    reverse_sequence,
    tree_sequence,
)
from .polytope import InequalitySystem, contains, inequality_system
from .reflexive import HStarVector, h_star, reflexivity_check, vertex_enumeration
from .scissors import (
    Decomposition,
    Piece,
    build_decomposition,
    evaluate_piecewise,
    verify_decomposition,
)
from .weighted import (
    NniSite,
    apply_weighted_nni,
    as_weighting,
    case_matrix,
    case_of,
    replay_weighted,
    resolve_site,
    site_hyperplanes,
    weight_delta,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "Graph",
    "GraphError",
    "HStarVector",
    "InequalitySystem",
    "MoveSequence",
    "NniError",
    "NniSite",
    "Piece",
    "QuasiPolynomial",
    "TABLE_TREES",
    "Trail",
    "apply_nni",
    "apply_weighted_nni",
    "as_weighting",
    "build_decomposition",
    "case_matrix",
    "case_of",
    "claw",
    "classify_edges",
    "connected_13_classes",
    "contains",
    "count_backtracking",
    "count_elimination",
    "count_points",
    "count_tree_dp",
    "degree_sequence",
    "dumbbell",
    "evaluate_piecewise",
    "format_graph",
    "graph_sequence",
    "h_star",
    "inequality_system",
    "iter_lattice_points",
    "k4",
    "legal_trails",
    "lollipop",
    "make_graph",
    "parse_graph",
    "quasi_polynomial",
    "reflexivity_check",
    "replay",
    "replay_weighted",
    "resolve_site",
    "reverse_sequence",
    "same_labeled_graph",
    "semi_reflexive_check",
    "site_hyperplanes",
    "spanning_tree",
    "t4",
    "theta",
    "tree_sequence",
    "validate_13",
    "verify_decomposition",
    "verlinde_count",
    "vertex_enumeration",
    "volume_check",
    "weight_delta",
    "zagier_polynomial",
]
