"""Instantiation: the Figure 2 tower and the edge/variable rules."""

import pytest
from hypothesis import given

from repro.core.instantiation import (
    InstantiationContext,
    check_instance,
    is_instance,
    model_is_instance,
    pattern_to_tree,
    tree_is_instance,
    tree_to_pattern,
)
from repro.core.models import (
    Model,
    car_schema_model,
    html_model,
    odmg_model,
    relational_model,
    sgml_model,
    yat_model,
)
from repro.core.patterns import (
    Pattern,
    edge_one,
    edge_star,
    name_leaf,
    pnode,
    pvar,
    ref_leaf,
    var,
)
from repro.core.trees import Ref, atom, tree
from repro.core.variables import ANY, ATOMIC, STRING
from repro.errors import InstantiationError

from .test_trees import trees


class TestFigure2Tower:
    """The paper's Figure 2: Golf ⊑ Car Schema ⊑ ODMG ⊑ Yat."""

    def test_odmg_instance_of_yat(self):
        assert odmg_model().is_instance_of(yat_model())

    def test_car_schema_instance_of_odmg(self):
        assert car_schema_model().is_instance_of(odmg_model())

    def test_car_schema_instance_of_yat(self):
        assert car_schema_model().is_instance_of(yat_model())

    def test_yat_not_instance_of_odmg(self):
        assert not yat_model().is_instance_of(odmg_model())

    def test_odmg_not_instance_of_car_schema(self):
        assert not odmg_model().is_instance_of(car_schema_model())

    def test_other_builtins_instances_of_yat(self):
        for factory in (relational_model, sgml_model, html_model):
            assert factory().is_instance_of(yat_model())

    def test_golf_data_instance_of_all_levels(self, golf_store):
        golf = golf_store.get("c1")
        car = car_schema_model()
        assert tree_is_instance(golf, car.pattern("Pcar"), model=car,
                                store=golf_store)
        odmg = odmg_model()
        assert tree_is_instance(golf, odmg.pattern("Pclass"), model=odmg,
                                store=golf_store)
        yat = yat_model()
        assert tree_is_instance(golf, yat.pattern("Yat"), model=yat)

    def test_wrong_data_rejected_by_car_schema(self, golf_store):
        car = car_schema_model()
        bad = tree("class", tree("car", tree("name", atom("Golf"))))  # missing attrs
        assert not tree_is_instance(bad, car.pattern("Pcar"), model=car)


class TestVariableInstantiation:
    def test_constant_in_domain(self):
        assert is_instance(pnode("car"), var("L"))

    def test_constant_outside_domain(self):
        assert not is_instance(pnode("car"), var("Y", ATOMIC))

    def test_variable_by_smaller_domain(self):
        assert is_instance(var("S", STRING), var("Y", ATOMIC))

    def test_variable_by_larger_domain_rejected(self):
        assert not is_instance(var("Y", ATOMIC), var("S", STRING))

    def test_variable_cannot_instantiate_constant(self):
        assert not is_instance(var("X"), pnode("car"))

    def test_lenient_mode_accepts_intersection(self):
        ctx = InstantiationContext(lenient=True)
        assert is_instance(var("X"), var("S", STRING), ctx)
        assert is_instance(var("X", ANY), pnode("car"), ctx)


class TestEdgeInstantiation:
    def test_plain_by_plain_only(self):
        source = pnode("a", edge_one(pnode("b")))
        assert is_instance(pnode("a", edge_one(pnode("b"))), source)
        assert not is_instance(pnode("a", edge_star(pnode("b"))), source)

    def test_star_by_sequence(self):
        source = pnode("a", edge_star(var("X")))
        assert is_instance(pnode("a"), source)  # zero occurrences
        assert is_instance(pnode("a", edge_one(pnode("b")), edge_one(pnode("c"))),
                           source)
        assert is_instance(pnode("a", edge_star(pnode("b"))), source)

    def test_star_children_must_all_match(self):
        source = pnode("a", edge_star(pnode("b")))
        assert not is_instance(
            pnode("a", edge_one(pnode("b")), edge_one(pnode("c"))), source
        )

    def test_mixed_edges(self):
        source = pnode("a", edge_one(pnode("first")), edge_star(var("X")))
        assert is_instance(
            pnode("a", edge_one(pnode("first")), edge_one(pnode("x"))), source
        )
        assert not is_instance(pnode("a", edge_one(pnode("x"))), source)


class TestNamesAndReferences:
    def test_name_leaf_dereferences(self):
        model = Model("M", [Pattern("Ptype", [var("Y", ATOMIC)])])
        ctx = InstantiationContext(source_model=model)
        assert is_instance(var("S", STRING), name_leaf("Ptype"), ctx)
        assert not is_instance(pnode("set"), name_leaf("Ptype"), ctx)

    def test_unresolvable_name_is_wildcard(self):
        assert is_instance(pnode("anything"), name_leaf("Unknown"))

    def test_recursive_patterns_coinductive(self):
        # Plist: list *-> Plist | atomic — self-recursive; check a
        # two-level instance pattern against it.
        model = Model(
            "M",
            [Pattern("Plist", [pnode("list", edge_star(name_leaf("Plist"))),
                               var("Y", ATOMIC)])],
        )
        ctx = InstantiationContext(source_model=model)
        instance = pnode("list", edge_star(pnode("list", edge_star(var("S", STRING)))))
        assert is_instance(instance, model.pattern("Plist"), ctx)

    def test_mutually_recursive_references(self):
        # Pcar <-> Psup cyclic references accept themselves.
        car = car_schema_model()
        assert model_is_instance(car, car)

    def test_ref_leaf_matches_ref(self, golf_store):
        car = car_schema_model()
        ctx = InstantiationContext(source_model=car, store=golf_store)
        assert is_instance(Ref("s1"), ref_leaf("Psup"), ctx)

    def test_ref_checks_referenced_tree_with_store(self):
        car = car_schema_model()
        store_bad = __import__("repro.core.trees", fromlist=["DataStore"]).DataStore(
            {"s1": tree("class", tree("boat", tree("name", atom("x"))))}
        )
        ctx = InstantiationContext(source_model=car, store=store_bad)
        assert not is_instance(Ref("s1"), ref_leaf("Psup"), ctx)

    def test_ref_cannot_instantiate_node(self):
        assert not is_instance(Ref("s1"), pnode("a"))

    def test_pattern_var_with_domain(self):
        model = Model("M", [Pattern("Ptype", [var("Y", ATOMIC)])])
        ctx = InstantiationContext(source_model=model)
        assert is_instance(var("S", STRING), pvar("P2", "Ptype"), ctx)
        assert is_instance(pnode("x"), pvar("Data"), ctx)  # untyped: anything


class TestGroundConversion:
    @given(trees())
    def test_tree_pattern_round_trip(self, node):
        assert pattern_to_tree(tree_to_pattern(node)) == node

    def test_ref_round_trip(self):
        node = tree("a", Ref("s1"))
        assert pattern_to_tree(tree_to_pattern(node)) == node

    def test_non_ground_conversion_rejected(self):
        with pytest.raises(InstantiationError):
            pattern_to_tree(var("X"))
        with pytest.raises(InstantiationError):
            pattern_to_tree(pnode("a", edge_star(pnode("b"))))

    @given(trees())
    def test_every_tree_instance_of_yat(self, node):
        yat = yat_model()
        assert tree_is_instance(node, yat.pattern("Yat"), model=yat)


class TestCheckInstance:
    def test_raises_with_description(self):
        with pytest.raises(InstantiationError):
            check_instance(pnode("set"), var("Y", ATOMIC))

    def test_passes_silently(self):
        check_instance(pnode("car"), var("L"))
