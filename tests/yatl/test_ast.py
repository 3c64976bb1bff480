"""AST helpers: expressions, body-reference normalization, rule analysis."""

import pytest

from repro.core.labels import Symbol
from repro.core.patterns import (
    NameTerm,
    edge_one,
    edge_star,
    pnode,
    pvar,
    ref_leaf,
    var,
)
from repro.core.variables import PatternVar, Var
from repro.errors import ModelError
from repro.yatl.ast import (
    BodyPattern,
    FunctionCall,
    HeadPattern,
    Predicate,
    Rule,
    bind_body_refs,
    make_expr,
    render_expr,
)


class TestExpressions:
    def test_make_expr_passthrough(self):
        assert make_expr(Var("X")) == Var("X")
        assert make_expr(PatternVar("P")) == PatternVar("P")
        assert make_expr("literal") == "literal"
        assert make_expr(5) == 5

    def test_make_expr_rejects_junk(self):
        with pytest.raises(ModelError):
            make_expr([1, 2])

    def test_render_expr(self):
        assert render_expr(Var("X")) == "X"
        assert render_expr("text") == '"text"'
        assert render_expr(Symbol("car")) == "car"


class TestBindBodyRefs:
    def test_rewrites_matching_targets(self):
        tree = pnode("set", edge_star(ref_leaf("Psup")))
        rewritten = bind_body_refs(tree, {"Psup"})
        leaf = rewritten.edges[0].target
        assert isinstance(leaf.target, PatternVar)

    def test_leaves_parameterized_refs(self):
        tree = pnode("set", edge_star(ref_leaf("Psup", "SN")))
        rewritten = bind_body_refs(tree, {"Psup"})
        leaf = rewritten.edges[0].target
        assert isinstance(leaf.target, NameTerm)  # args => a Skolem ref

    def test_leaves_unknown_targets(self):
        tree = pnode("set", edge_star(ref_leaf("Other")))
        rewritten = bind_body_refs(tree, {"Psup"})
        assert rewritten == tree

    def test_shares_structure_when_unchanged(self):
        tree = pnode("a", edge_one(pnode("b")))
        assert bind_body_refs(tree, {"Psup"}) is tree


class TestRuleAnalysis:
    def _rule(self):
        return Rule(
            "R",
            HeadPattern(
                NameTerm("Pcar", [PatternVar("Pbr")]),
                pnode("car", edge_one(ref_leaf("Psup", "SN"))),
            ),
            [
                BodyPattern("Pbr", pnode("brochure", edge_star(pvar("Sub")))),
                BodyPattern("Sub", pnode("supplier", edge_one(var("SN")))),
            ],
            [Predicate(Var("Year"), ">", 1975)],
            [FunctionCall(Var("C"), "city", [Var("Add")])],
        )

    def test_variables_collects_everything(self):
        names = {v.name for v in self._rule().variables()}
        assert names == {"Pbr", "Sub", "SN", "Year", "C", "Add"}

    def test_head_skolems(self):
        skolems = self._rule().head_skolems()
        assert (NameTerm("Pcar", [PatternVar("Pbr")]), False) in skolems
        assert (NameTerm("Psup", [Var("SN")]), True) in skolems

    def test_root_body_patterns(self):
        rule = self._rule()
        roots = rule.root_body_patterns()
        assert [bp.name.name for bp in roots] == ["Pbr"]  # Sub is dependent

    def test_fallback_flag(self):
        fallback = Rule("E", None, [BodyPattern("P", pvar("Any"))])
        assert fallback.is_fallback and fallback.head_functor is None

    def test_empty_body_rejected(self):
        with pytest.raises(ModelError):
            Rule("Bad", None, [])

    def test_rule_equality(self):
        assert self._rule() == self._rule()
        other = self._rule()
        other.predicates = []
        assert self._rule() != other


class TestStructures:
    def test_body_pattern_str(self):
        bp = BodyPattern("Pbr", pnode("brochure"))
        assert "Pbr" in str(bp) and "brochure" in str(bp)

    def test_predicate_validation(self):
        with pytest.raises(ModelError):
            Predicate(Var("X"), "~", 1)

    def test_function_call_str(self):
        call = FunctionCall(Var("C"), "city", [Var("Add")])
        assert str(call) == "C is city(Add)"
        boolean = FunctionCall(None, "sameaddress", [Var("A"), "x"])
        assert str(boolean) == 'sameaddress(A, "x")'
