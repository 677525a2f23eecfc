"""Connect graphs with equal degree data by sequences of NNI moves.

Run:  python3 demos/nni_walk.py
"""
from trivalent.catalog import (
    dumbbell,
    k4,
    t4,
    theta,
    tree_caterpillar_four,
    tree_spider_four,
)
from trivalent.graphs import format_graph, same_labeled_graph, spanning_tree
from trivalent.nni import graph_sequence, replay, tree_sequence


def describe(seq):
    for mv in seq.moves:
        print(f"  slide {mv.a} ({mv.u} -> {mv.v}) and {mv.b} ({mv.v} -> {mv.u}) across {mv.e}")
    if seq.relabel:
        print(f"  then relabel {dict(seq.relabel)}")


if __name__ == "__main__":
    print("spider to caterpillar (both trees, nine edges):")
    a, b = tree_spider_four(), tree_caterpillar_four()
    seq = tree_sequence(a, b)
    describe(seq)
    assert same_labeled_graph(replay(a, seq.moves), b)
    print(f"  {len(seq.moves)} moves, replay verified\n")

    print("theta to dumbbell:")
    seq = graph_sequence(theta(), dumbbell())
    describe(seq)
    print()

    print("theta to dumbbell, pivots restricted to spanning trees "
          f"({sorted(spanning_tree(theta()))} and {sorted(spanning_tree(dumbbell()))}):")
    seq = graph_sequence(theta(), dumbbell(), restrict_to_spanning_trees=True)
    describe(seq)
    print()

    print("K4 to T4 (cycle rank 2, two cut recursions):")
    seq = graph_sequence(k4(), t4())
    describe(seq)
    image = replay(k4(), seq.moves).rename_edges(seq.relabel_map)
    assert same_labeled_graph(image, t4())
    print(f"  {len(seq.moves)} moves, replay verified; final graph:")
    print("\n".join("  " + line for line in format_graph(image).splitlines()))
