"""Experiment C6 — Section 3.3: collection primitives.

The cost of the head collection edges — ``*`` (implicit grouping),
``{}`` (grouping with duplicate elimination) and ``[crit]`` (grouping +
ordering) — on collections of growing size and duplicate ratio, through
rule variants that only differ in the edge kind.
"""

import pytest

from repro.core.trees import Tree, tree
from repro.yatl.parser import parse_program

EDGES = {"star": "*->", "group": "{}->", "order": "[V]->"}


def collection_program(edge):
    return parse_program(
        f"""
        program Collect
        rule R:
          Out(P) : list {edge} item -> V
        <=
          P : bag *-> x -> V
        end
        """
    )


def bag_of(values):
    return tree("bag", *[tree("x", Tree(v)) for v in values])


def test_sec33_edge_semantics():
    values = [3, 1, 3, 2, 1]
    star = collection_program(EDGES["star"]).run([bag_of(values)])
    group = collection_program(EDGES["group"]).run([bag_of(values)])
    order = collection_program(EDGES["order"]).run([bag_of(values)])

    def items(result):
        return [c.children[0].label for c in result.trees_of("Out")[0].children]

    # the binding set keeps one binding per distinct value
    assert items(star) == [3, 1, 2]
    assert items(group) == [3, 1, 2]
    assert items(order) == [1, 2, 3]  # ordered by the criterion


@pytest.mark.parametrize("edge", sorted(EDGES))
@pytest.mark.parametrize("size", [10, 100, 1000])
def test_sec33_collection_cost(benchmark, edge, size):
    program = collection_program(EDGES[edge])
    data = bag_of([i % (size // 2 or 1) for i in range(size)])
    result = benchmark(program.run, [data])
    assert result.trees_of("Out")[0].children


@pytest.mark.parametrize("duplicates", [1, 4, 16])
def test_sec33_duplicate_ratio(benchmark, duplicates):
    """Grouping cost under growing duplication (1000 occurrences)."""
    program = collection_program(EDGES["order"])
    values = [i // duplicates for i in range(1000)]
    result = benchmark(program.run, [bag_of(values)])
    assert len(result.trees_of("Out")[0].children) == len(set(values))
