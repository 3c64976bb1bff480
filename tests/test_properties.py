"""Cross-module property-based tests (hypothesis)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parse_pattern_tree, render_pattern_tree
from repro.core.instantiation import tree_is_instance, tree_to_pattern
from repro.core.labels import Symbol
from repro.core.models import yat_model
from repro.core.patterns import (
    PNode,
    edge_one,
    var,
)
from repro.core.trees import Tree
from repro.yatl.ast import BodyPattern, HeadPattern, Rule
from repro.yatl.bindings import Binding
from repro.yatl.matching import MatchContext, match_child
from repro.yatl.program import Program

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

symbol_names = st.sampled_from(["a", "b", "c", "rec", "item", "node"])
atoms = st.one_of(
    st.integers(-100, 100),
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5),
    st.booleans(),
)
labels = st.one_of(atoms, symbol_names.map(Symbol))


def ground_trees(max_leaves=12):
    return st.recursive(
        labels.map(Tree),
        lambda kids: st.builds(
            Tree, symbol_names.map(Symbol), st.lists(kids, max_size=4)
        ),
        max_leaves=max_leaves,
    )


def matrices():
    """Rectangular matrices for the transpose property."""
    return st.integers(1, 4).flatmap(
        lambda rows: st.integers(1, 4).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(0, 99), min_size=rows, max_size=rows),
                min_size=cols,
                max_size=cols,
            )
        )
    )


def matrix_tree(columns):
    return Tree(
        Symbol("matrix"),
        [
            Tree(Symbol(f"col{c}"),
                 [Tree(Symbol(f"row{r}"), (Tree(value),))
                  for r, value in enumerate(col)])
            for c, col in enumerate(columns)
        ],
    )


# ---------------------------------------------------------------------------
# Model properties
# ---------------------------------------------------------------------------


@given(ground_trees())
@settings(max_examples=60)
def test_every_ground_tree_is_a_yat_instance(node):
    model = yat_model()
    assert tree_is_instance(node, model.pattern("Yat"), model=model)


@given(ground_trees())
@settings(max_examples=60)
def test_ground_pattern_of_tree_matches_tree(node):
    """tree_to_pattern produces a pattern the tree instantiates."""
    pattern = tree_to_pattern(node)
    assert tree_is_instance(node, pattern)


@given(ground_trees())
@settings(max_examples=60)
def test_instantiation_reflexive_on_ground_patterns(node):
    pattern = tree_to_pattern(node)
    from repro.core.instantiation import is_instance

    assert is_instance(pattern, pattern)


# ---------------------------------------------------------------------------
# Syntax properties
# ---------------------------------------------------------------------------


@given(ground_trees())
@settings(max_examples=60)
def test_pattern_render_parse_round_trip(node):
    pattern = tree_to_pattern(node)
    rendered = render_pattern_tree(pattern)
    assert parse_pattern_tree(rendered) == pattern


# ---------------------------------------------------------------------------
# Matching properties
# ---------------------------------------------------------------------------


@given(ground_trees())
@settings(max_examples=60)
def test_ground_pattern_matches_its_own_tree(node):
    pattern = tree_to_pattern(node)
    envs = match_child(pattern, node, Binding.EMPTY, MatchContext())
    assert envs == [Binding.EMPTY]


@given(ground_trees())
@settings(max_examples=60)
def test_abstracted_pattern_binds_the_abstracted_label(node):
    """Replacing the first leaf label by a variable yields a pattern
    that matches and recovers the label."""
    state = {"done": False, "value": None}

    def abstract(current: Tree):
        if not state["done"] and current.is_leaf and not isinstance(
            current.label, Symbol
        ):
            state["done"] = True
            state["value"] = current.label
            return var("Hole")
        return PNode(
            current.label,
            [edge_one(abstract(c)) for c in current.children
             if isinstance(c, Tree)],
        )

    pattern = abstract(node)
    envs = match_child(pattern, node, Binding.EMPTY, MatchContext())
    if state["done"]:
        assert envs and all(e["Hole"] == state["value"] for e in envs)
    else:
        assert envs == [Binding.EMPTY]


# ---------------------------------------------------------------------------
# Program properties
# ---------------------------------------------------------------------------


def _identity_program():
    from repro.core.patterns import NameTerm
    from repro.core.variables import PatternVar

    return Program(
        "Identity",
        [
            Rule(
                "Copy",
                HeadPattern(
                    NameTerm("Out", [PatternVar("P")]), parse_pattern_tree("^P")
                ),
                [BodyPattern("P", parse_pattern_tree("^X"))],
            )
        ],
    )


@given(st.lists(ground_trees(max_leaves=8), min_size=1, max_size=4))
@settings(max_examples=40)
def test_identity_program_copies_input(trees_):
    program = _identity_program()
    result = program.run(trees_)
    outputs = result.trees_of("Out")
    assert sorted(map(str, outputs)) == sorted(map(str, set(trees_)))


@given(matrices())
@settings(max_examples=40)
def test_transpose_is_an_involution(columns):
    from repro.library.programs import matrix_transpose_program

    program = matrix_transpose_program()
    original = matrix_tree(columns)
    once = program.run([original]).trees_of("New")[0]
    twice = program.run([once]).trees_of("New")[0]
    assert twice == original


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=12))
@settings(max_examples=40)
def test_group_edges_produce_distinct_children(pairs):
    """A {} edge never emits two structurally equal children."""
    from repro.yatl.construction import Constructor
    from repro.yatl.skolem import SkolemTable

    head = parse_pattern_tree("s {}-> pair < -> a -> A, -> b -> B >")
    group = []
    for a, b in pairs:
        group.append(Binding.EMPTY.bind("A", a).bind("B", b))
    out = Constructor(SkolemTable()).construct(head, group)
    assert len(set(out.children)) == len(out.children)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
@settings(max_examples=40)
def test_order_edges_sort_children(values):
    from repro.yatl.construction import Constructor
    from repro.yatl.skolem import SkolemTable

    head = parse_pattern_tree("l [K]-> v -> K")
    group = [Binding.EMPTY.bind("K", v) for v in values]
    out = Constructor(SkolemTable()).construct(head, group)
    keys = [c.children[0].label for c in out.children]
    assert keys == sorted(set(values))


@given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4),
                min_size=1, max_size=10))
@settings(max_examples=40)
def test_skolem_ids_functional(names):
    from repro.yatl.skolem import SkolemTable

    table = SkolemTable()
    first = [table.id_for("Psup", (n,)) for n in names]
    second = [table.id_for("Psup", (n,)) for n in names]
    assert first == second
    assert len(set(first)) == len(set(names))


# ---------------------------------------------------------------------------
# Substrate properties
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 10 ** 6),
                          st.text(alphabet=string.ascii_letters + " ,.'",
                                  max_size=12)),
                max_size=10))
@settings(max_examples=40)
def test_csv_round_trip(rows):
    from repro.relational import Column, Table, TableSchema, dump_csv, load_csv

    schema = TableSchema("t", [Column("i", "int"), Column("s", "string")])
    table = Table(schema)
    for i, s in rows:
        table.insert(i, s)
    assert load_csv(schema, dump_csv(table)).rows() == table.rows()


def _sgml_trees():
    texts = st.text(
        alphabet=string.ascii_letters + string.digits + " _&<>",
        min_size=1, max_size=8,
    ).map(str.strip).filter(bool)
    from repro.sgml import Element

    return st.recursive(
        st.builds(lambda t: Element("leaf", [t]), texts),
        lambda kids: st.builds(
            lambda cs: Element("node", cs), st.lists(kids, min_size=1, max_size=3)
        ),
        max_leaves=8,
    )


@given(_sgml_trees())
@settings(max_examples=40)
def test_sgml_write_parse_round_trip(document):
    from repro.sgml import parse_sgml, write_sgml

    assert parse_sgml(write_sgml(document)) == document


@given(ground_trees(max_leaves=8))
@settings(max_examples=40)
def test_odmg_import_export_inverse_on_random_graphs(node):
    """Any ground tree fed through the identity program keeps the
    dereference machinery consistent (no dangling placeholders)."""
    program = _identity_program()
    result = program.run([node])
    for _, output in result.store:
        for ref in output.references():
            assert not ref.target.startswith("!deref!")
