"""Unit tests for the symbolic machinery behind customization."""

import pytest

from repro.core import parse_pattern_tree
from repro.core.patterns import (
    PVarLeaf,
)
from repro.core.variables import Var
from repro.yatl.customize import Renamer, SymEnv, SymRef, _Specializer, open_holes


@pytest.fixture
def specializer(web_program):
    return _Specializer(web_program, None, Renamer(set()))


class TestSymEnv:
    def test_bind_and_conflict(self):
        env = SymEnv().bind("X", 1)
        assert env.get("X") == 1
        assert env.bind("X", 2) is None
        assert env.bind("X", 1) is env

    def test_star_marking(self):
        env = SymEnv().bind("X", 1)
        starred = env.starred()
        assert starred.star and not env.star
        assert starred.get("X") == 1

    def test_symref_equality(self):
        assert SymRef("Psup") == SymRef("Psup")
        assert SymRef("Psup", (Var("SN"),)) != SymRef("Psup")


class TestOpenHoles:
    def test_name_leaves_become_typed_holes(self):
        tree = parse_pattern_tree("class -> Att -> Ptype", known_names={"Ptype"})
        opened = open_holes(tree, Renamer(set()))
        leaf = opened.edges[0].target.edges[0].target
        assert isinstance(leaf, PVarLeaf)
        assert leaf.var.domain_pattern == "Ptype"

    def test_fresh_names_unique(self):
        tree = parse_pattern_tree(
            "pair < -> a -> Ptype, -> b -> Ptype >", known_names={"Ptype"}
        )
        opened = open_holes(tree, Renamer(set()))
        names = {
            edge.target.edges[0].target.var.name for edge in opened.edges
        }
        assert len(names) == 2

    def test_other_nodes_untouched(self):
        tree = parse_pattern_tree("class -> car -> S1:string")
        assert open_holes(tree, Renamer(set())) == tree


class TestSymMatch:
    def test_constant_against_constant(self, specializer):
        envs = specializer.sym_match(
            parse_pattern_tree("class -> car"),
            parse_pattern_tree("class -> car"),
            SymEnv(),
        )
        assert len(envs) == 1

    def test_variable_binds_instance_constant(self, specializer):
        envs = specializer.sym_match(
            parse_pattern_tree("class -> C:symbol"),
            parse_pattern_tree("class -> car"),
            SymEnv(),
        )
        [env] = envs
        assert str(env.get("C")) == "car"

    def test_variable_binds_instance_variable(self, specializer):
        envs = specializer.sym_match(
            parse_pattern_tree("name -> V"),
            parse_pattern_tree("name -> S1:string"),
            SymEnv(),
        )
        [env] = envs
        value = env.get("V")
        assert isinstance(value, Var) and value.name == "S1"

    def test_instance_more_general_fails(self, specializer):
        # a constant cannot be instantiated by a variable
        envs = specializer.sym_match(
            parse_pattern_tree("class -> car"),
            parse_pattern_tree("class -> C:symbol"),
            SymEnv(),
        )
        assert envs == []

    def test_star_against_concrete_children(self, specializer):
        rule_side = parse_pattern_tree("obj < *-> Att:symbol -> V >")
        instance = parse_pattern_tree(
            "obj < -> name -> X, -> desc -> Y >"
        )
        envs = specializer.sym_match(rule_side, instance, SymEnv())
        assert len(envs) == 2
        assert not any(env.star for env in envs)

    def test_star_against_star_marks_iteration(self, specializer):
        rule_side = parse_pattern_tree("obj < *-> ^P >")
        instance = parse_pattern_tree("obj < *-> item -> V >")
        envs = specializer.sym_match(rule_side, instance, SymEnv())
        assert len(envs) == 1 and envs[0].star

    def test_ref_leaf_binds_symref(self, specializer):
        rule_side = parse_pattern_tree("set *-> &P", known_names=set())
        # make the rule-side & target a pattern variable explicitly
        from repro.core.patterns import edge_star, pnode, ref_var

        rule_side = pnode("set", edge_star(ref_var("P")))
        instance = parse_pattern_tree("set *-> &Psup(SN)")
        envs = specializer.sym_match(rule_side, instance, SymEnv())
        [env] = envs
        value = env.get("P")
        assert isinstance(value, SymRef)
        assert value.functor == "Psup" and value.args == (Var("SN"),)

    def test_empty_star_run(self, specializer):
        rule_side = parse_pattern_tree("obj < *-> ^P >")
        instance = parse_pattern_tree("obj")
        envs = specializer.sym_match(rule_side, instance, SymEnv())
        assert len(envs) == 1


class TestApplicable:
    def test_most_specific_rule_chosen(self, web_program, car_schema):
        specializer = _Specializer(web_program, car_schema, Renamer(set()))
        subject = open_holes(
            car_schema.pattern("Pcar").alternatives[0], specializer.renamer
        )
        candidates = specializer.applicable(subject)
        assert candidates and candidates[0][0].name == "Web1"

    def test_functor_filtering(self, web_program, car_schema):
        specializer = _Specializer(web_program, car_schema, Renamer(set()))
        atomic = parse_pattern_tree("S1:string")
        candidates = specializer.applicable(atomic, functor="HtmlElement")
        assert candidates and candidates[0][0].name == "Web2"
        assert not specializer.applicable(atomic, functor="HtmlPage")

    def test_collection_dispatch(self, web_program):
        specializer = _Specializer(web_program, None, Renamer(set()))
        ordered = parse_pattern_tree("list < *-> S1:string >")
        unordered = parse_pattern_tree("set < *-> S1:string >")
        assert specializer.applicable(ordered, "HtmlElement")[0][0].name == "Web5"
        assert specializer.applicable(unordered, "HtmlElement")[0][0].name == "Web4"
