"""Patterns: nodes, edges, traversal, renaming."""

import pytest

from repro.core.patterns import (
    GROUP,
    INDEX,
    ONE,
    ORDER,
    STAR,
    NameTerm,
    PEdge,
    PNameLeaf,
    PNode,
    Pattern,
    PRefLeaf,
    PVarLeaf,
    collect_name_terms,
    collect_variables,
    edge_group,
    edge_index,
    edge_one,
    edge_order,
    edge_star,
    is_ground,
    name_leaf,
    pnode,
    pvar,
    ref_leaf,
    ref_var,
    rename_variables,
    var,
    walk,
    walk_edges,
)
from repro.core.variables import STRING, Var
from repro.errors import ModelError


class TestNameTerm:
    def test_plain(self):
        term = NameTerm("Psup")
        assert str(term) == "Psup" and term.args == ()

    def test_parameterized(self):
        term = NameTerm("Psup", [Var("SN")])
        assert str(term) == "Psup(SN)"

    def test_constant_args(self):
        term = NameTerm("HtmlPage", ["Psup", 3])
        assert str(term) == 'HtmlPage("Psup", 3)'
        assert term.variables() == []

    def test_lowercase_functor_rejected(self):
        with pytest.raises(ModelError):
            NameTerm("psup")

    def test_equality(self):
        assert NameTerm("P", [Var("X")]) == NameTerm("P", [Var("X")])
        assert NameTerm("P", [Var("X")]) != NameTerm("P", [Var("Y")])


class TestEdges:
    def test_kinds(self):
        assert edge_one(var("X")).kind == ONE
        assert edge_star(var("X")).kind == STAR
        assert edge_group(var("X")).kind == GROUP
        assert edge_order(var("X"), "SN").kind == ORDER
        assert edge_index(var("X"), "I").kind == INDEX

    def test_indicators(self):
        assert edge_one(var("X")).indicator() == "->"
        assert edge_star(var("X")).indicator() == "*->"
        assert edge_group(var("X")).indicator() == "{}->"
        assert edge_order(var("X"), "SN", "C").indicator() == "[SN,C]->"
        assert edge_index(var("X"), "I").indicator() == "(I)->"

    def test_order_requires_criteria(self):
        with pytest.raises(ModelError):
            PEdge(ORDER, var("X"))

    def test_index_requires_var(self):
        with pytest.raises(ModelError):
            PEdge(INDEX, var("X"))

    def test_criteria_only_on_order(self):
        with pytest.raises(ModelError):
            PEdge(ONE, var("X"), criteria=(Var("SN"),))

    def test_with_target(self):
        edge = edge_order(var("X"), "SN")
        swapped = edge.with_target(var("Y"))
        assert swapped.kind == ORDER and swapped.criteria == (Var("SN"),)


class TestBuilders:
    def test_pnode_wraps_plain_children(self):
        node = pnode("class", pnode("supplier"))
        assert node.edges[0].kind == ONE

    def test_var_leaf(self):
        leaf = var("SN", STRING)
        assert isinstance(leaf.label, Var)
        assert leaf.label.domain is STRING

    def test_pvar(self):
        leaf = pvar("P2", "Ptype")
        assert isinstance(leaf, PVarLeaf)
        assert leaf.var.domain_pattern == "Ptype"

    def test_name_and_ref_leaves(self):
        assert isinstance(name_leaf("Psup", "SN"), PNameLeaf)
        assert isinstance(ref_leaf("Psup", "SN"), PRefLeaf)
        assert isinstance(ref_var("Pobj"), PRefLeaf)

    def test_invalid_label_rejected(self):
        with pytest.raises(ModelError):
            PNode(None)


class TestTraversal:
    def _sample(self):
        return pnode(
            "class",
            edge_one(
                pnode(
                    Var("Classname"),
                    edge_star(pnode(Var("Att"), edge_one(name_leaf("Ptype")))),
                    edge_one(ref_leaf("Psup", "SN")),
                    edge_one(pvar("P2", "Ptype")),
                )
            ),
        )

    def test_walk_counts(self):
        nodes = list(walk(self._sample()))
        assert len(nodes) == 6

    def test_walk_edges(self):
        assert len(list(walk_edges(self._sample()))) == 5

    def test_collect_variables(self):
        names = {v.name for v in collect_variables(self._sample())}
        assert names == {"Classname", "Att", "SN", "P2"}

    def test_collect_variables_sees_criteria_and_index(self):
        node = pnode("list", edge_order(ref_leaf("Psup", "SN"), "C"))
        names = {v.name for v in collect_variables(node)}
        assert names == {"C", "SN"}
        node = pnode("m", edge_index(var("X"), "I"))
        assert {v.name for v in collect_variables(node)} == {"I", "X"}

    def test_collect_name_terms(self):
        terms = collect_name_terms(self._sample())
        assert (NameTerm("Ptype"), False) in terms
        assert (NameTerm("Psup", [Var("SN")]), True) in terms


class TestGround:
    def test_constant_tree_is_ground(self):
        assert is_ground(pnode("class", pnode("car", pnode("name"))))

    def test_variables_break_groundness(self):
        assert not is_ground(var("X"))

    def test_star_edges_break_groundness(self):
        assert not is_ground(pnode("a", edge_star(pnode("b"))))

    def test_plain_refs_allowed_in_ground(self):
        assert is_ground(pnode("a", edge_one(ref_leaf("S1"))))

    def test_parameterized_refs_not_ground(self):
        assert not is_ground(pnode("a", edge_one(ref_leaf("S1", "X"))))


class TestPattern:
    def test_union(self):
        pattern = Pattern("Ptype", [var("Y"), pnode("set")])
        assert pattern.is_union

    def test_requires_alternatives(self):
        with pytest.raises(ModelError):
            Pattern("P", [])

    def test_lowercase_rejected(self):
        with pytest.raises(ModelError):
            Pattern("ptype", [var("Y")])

    def test_referenced_names(self):
        pattern = Pattern(
            "P",
            [pnode("a", edge_one(name_leaf("Q")), edge_one(ref_leaf("R")),
                   edge_one(pvar("X", "S")))],
        )
        assert pattern.referenced_names() == {"Q", "R", "S"}


class TestRename:
    def test_renames_everywhere(self):
        node = pnode(
            Var("X"),
            edge_order(ref_leaf("Psup", "SN"), "SN"),
            edge_index(pvar("P2", "Ptype"), "I"),
            edge_one(name_leaf("Pcar", Var("X"))),
        )
        renamed = rename_variables(
            node, {"X": "X1", "SN": "SN1", "P2": "P21", "I": "I1"}
        )
        names = {v.name for v in collect_variables(renamed)}
        assert names == {"X1", "SN1", "P21", "I1"}

    def test_unmapped_kept(self):
        node = var("Y")
        assert rename_variables(node, {"X": "Z"}) == node

    def test_domains_preserved(self):
        node = var("Y", STRING)
        renamed = rename_variables(node, {"Y": "Z"})
        assert renamed.label.domain is STRING
