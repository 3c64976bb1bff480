"""Body pattern matching: star edges, index edges, joins, references."""

import pytest

from repro.core import parse_pattern_tree
from repro.core.models import car_schema_model
from repro.core.trees import DataStore, Ref, atom, tree
from repro.errors import EvaluationError
from repro.yatl.ast import BodyPattern, Rule, HeadPattern
from repro.yatl.program import Program
from repro.yatl.bindings import Binding
from repro.yatl.matching import MatchContext, match_body, match_child


def bindings_of(pattern_text, node, store=None, model=None, known=()):
    pattern = parse_pattern_tree(pattern_text, known_names=known)
    ctx = MatchContext(store=store, model=model)
    return match_child(pattern, node, Binding.EMPTY, ctx)


class TestMatchChild:
    def test_constant_labels(self):
        assert bindings_of("class -> car", tree("class", tree("car")))
        assert not bindings_of("class -> car", tree("class", tree("boat")))

    def test_variable_binds_label(self):
        [env] = bindings_of("name -> SN", tree("name", atom("VW")))
        assert env["SN"] == "VW"

    def test_variable_domain_filters(self):
        assert bindings_of("model -> Y:int", tree("model", atom(1995)))
        assert not bindings_of("model -> Y:int", tree("model", atom("x")))

    def test_shared_variable_must_agree(self):
        node = tree("pair", tree("a", atom(1)), tree("b", atom(1)))
        assert bindings_of("pair < -> a -> X, -> b -> X >", node)
        node2 = tree("pair", tree("a", atom(1)), tree("b", atom(2)))
        assert not bindings_of("pair < -> a -> X, -> b -> X >", node2)

    def test_leaf_pattern_requires_leaf_data(self):
        assert not bindings_of("X", tree("a", tree("b")))
        assert bindings_of("X", tree("a"))

    def test_full_coverage_required(self):
        node = tree("a", tree("b"), tree("extra"))
        assert not bindings_of("a -> b", node)

    def test_pattern_variable_binds_subtree(self):
        node = tree("a", tree("b", tree("c")))
        [env] = bindings_of("a -> ^P", node)
        assert env["P"] == tree("b", tree("c"))

    def test_typed_pattern_variable_checks_model(self, golf_store):
        model = car_schema_model()
        golf = golf_store.get("c1")
        assert bindings_of("^P : Pcar", golf, store=golf_store, model=model)
        assert not bindings_of(
            "^P : Psup", golf, store=golf_store, model=model
        )


class TestStarEdges:
    def test_one_binding_per_child(self):
        node = tree("s", tree("x", atom(1)), tree("x", atom(2)), tree("x", atom(3)))
        envs = bindings_of("s *-> x -> V", node)
        assert [e["V"] for e in envs] == [1, 2, 3]

    def test_empty_run_passes_through(self):
        envs = bindings_of("s *-> x -> V", tree("s"))
        assert len(envs) == 1 and "V" not in envs[0]

    def test_all_children_must_match(self):
        node = tree("s", tree("x", atom(1)), tree("y", atom(2)))
        assert not bindings_of("s *-> x -> V", node)

    def test_two_star_edges_cross_product(self):
        node = tree(
            "s",
            tree("x", atom(1)), tree("x", atom(2)),
            tree("y", atom(10)), tree("y", atom(20)),
        )
        envs = bindings_of("s < *-> x -> V, *-> y -> W >", node)
        pairs = {(e["V"], e["W"]) for e in envs}
        assert pairs == {(1, 10), (1, 20), (2, 10), (2, 20)}

    def test_star_then_one(self):
        node = tree("s", tree("x", atom(1)), tree("last"))
        envs = bindings_of("s < *-> x -> V, -> last >", node)
        assert [e["V"] for e in envs] == [1]

    def test_duplicate_bindings_deduped(self):
        node = tree("s", tree("x", atom(1)), tree("x", atom(1)))
        envs = bindings_of("s *-> x -> V", node)
        assert len(envs) == 1  # the set-of-bindings semantics of phase 1


class TestIndexEdges:
    def test_binds_positions(self):
        node = tree("m", tree("a"), tree("b"), tree("c"))
        envs = bindings_of("m (I)-> X", node)
        assert [(e["I"], str(e["X"])) for e in envs] == [
            (1, "a"), (2, "b"), (3, "c"),
        ]

    def test_shared_index_selects_diagonal(self):
        matrix = tree(
            "m",
            tree("c1", tree("r1", atom(11)), tree("r2", atom(21))),
            tree("c2", tree("r1", atom(12)), tree("r2", atom(22))),
        )
        envs = bindings_of("m (I)-> X (I)-> Y -> V", matrix)
        assert sorted(e["V"] for e in envs) == [11, 22]


class TestReferences:
    @staticmethod
    def _ref_pattern():
        # a binding reference &P (pattern-variable target), as a rule
        # body containing a pattern named P would produce it
        from repro.core.patterns import edge_star, pnode, ref_var

        return pnode("set", edge_star(ref_var("P")))

    def test_ref_leaf_binds_referenced_tree(self, golf_store):
        node = tree("set", Ref("s1"))
        ctx = MatchContext(store=golf_store)
        envs = match_child(self._ref_pattern(), node, Binding.EMPTY, ctx)
        assert envs and envs[0]["P"] == golf_store.get("s1")

    def test_ref_leaf_requires_ref_node(self, golf_store):
        node = tree("set", tree("plain"))
        ctx = MatchContext(store=golf_store)
        assert not match_child(self._ref_pattern(), node, Binding.EMPTY, ctx)

    def test_dangling_ref_fails_var_binding(self):
        node = tree("set", Ref("missing"))
        ctx = MatchContext(store=DataStore())
        assert not match_child(self._ref_pattern(), node, Binding.EMPTY, ctx)

    def test_named_ref_is_type_check_only(self, golf_store):
        # `&Psup` with no body pattern named Psup: a model check, no binding
        model = car_schema_model()
        node = tree("set", Ref("s1"))
        envs = bindings_of("set *-> &Psup", node, store=golf_store, model=model)
        assert envs and "Psup" not in envs[0]


class TestMatchBody:
    def _rule(self, *body, name="R"):
        return Rule(
            name,
            HeadPattern("Out", parse_pattern_tree("out")),
            [BodyPattern(n, parse_pattern_tree(t)) for n, t in body],
        )

    def test_root_ranges_over_inputs(self, brochure_b1, brochure_b2):
        rule = self._rule(("Pbr", "brochure < -> number -> Num, -> title -> T, "
                           "-> model -> Y, -> desc -> D, -> spplrs *-> "
                           "supplier < -> name -> SN, -> address -> A > >"))
        envs = match_body(rule, [brochure_b1, brochure_b2], MatchContext())
        # Figure 3: 1 binding from b1, 2 from b2
        assert len(envs) == 3
        assert {e["SN"] for e in envs} == {"VW center", "VW2"}

    def test_join_through_shared_variable(self):
        rule = self._rule(
            ("A", "a -> k -> K"),
            ("B", "b -> k -> K"),
        )
        inputs = [
            tree("a", tree("k", atom(1))),
            tree("a", tree("k", atom(2))),
            tree("b", tree("k", atom(2))),
            tree("b", tree("k", atom(3))),
        ]
        envs = match_body(rule, inputs, MatchContext())
        assert len(envs) == 1 and envs[0]["K"] == 2

    def test_dependent_pattern_follows_reference(self, golf_store):
        rule = self._rule(
            ("Pref", "holder -> set *-> &Pobj"),
            ("Pobj", "class -> Classname:symbol < *-> Att:symbol -> ^V >"),
        )
        holder = tree("holder", tree("set", Ref("s1")))
        envs = match_body(rule, [holder], MatchContext(store=golf_store))
        assert envs and all(str(e["Classname"]) == "supplier" for e in envs)

    def test_dependency_left_unbound_does_not_match(self):
        # B is bound only under A's `*` edge: an input with an empty
        # collection binds nothing for B, so it does not match, whatever
        # else is offered with it (each demand application offers one).
        rule = self._rule(("A", "a *-> ^B"), ("B", "b"))
        assert match_body(rule, [tree("a")], MatchContext()) == []
        program = Program("P", [rule])
        assert len(program.run([tree("a")]).unconverted) == 1
        result = program.run([tree("a", tree("b")), tree("a")])
        assert len(result.store) == 1
        assert result.unconverted == [tree("a")]
        # so does a dependent of the pattern that was never matched
        chain = self._rule(("A", "a *-> ^B"), ("B", "b -> ^C"), ("C", "c"))
        assert match_body(chain, [tree("a")], MatchContext()) == []

    def test_unresolvable_dependency_raises(self):
        # No root pattern: A and B each wait for the other's leaf, so no
        # input can ever bind them.
        rule = self._rule(("A", "a -> ^B"), ("B", "b -> ^A"))
        with pytest.raises(EvaluationError, match="never bound"):
            match_body(rule, [tree("a", tree("b"))], MatchContext())

    def test_ref_candidate_matched_directly(self, golf_store):
        # a rule over reference inputs (Web6's shape: the &Pobj target
        # names the second body pattern, making it a binding reference)
        rule = self._rule(
            ("Pref", "&Pobj"),
            ("Pobj", "class -> Classname:symbol < *-> Att:symbol -> ^V >"),
        )
        envs = match_body(rule, [Ref("s1")], MatchContext(store=golf_store))
        assert envs and envs[0]["Pobj"] == golf_store.get("s1")
