"""External functions: the standard library and the type filter."""

import pytest

from repro.core.labels import Symbol
from repro.core.trees import Ref, atom, tree
from repro.errors import FunctionError, UnconvertedDataError
from repro.yatl.functions import (
    FunctionRegistry,
    evaluate_comparison,
    fn_att_label,
    fn_city,
    fn_concat,
    fn_data_to_string,
    fn_exception,
    fn_length,
    fn_sameaddress,
    fn_zip,
    standard_registry,
)


class TestCityZip:
    def test_paper_address(self):
        assert fn_city("Bd Lenoir, Paris 75005") == "Paris"
        assert fn_zip("Bd Lenoir, Paris 75005") == 75005

    def test_city_without_comma(self):
        assert fn_city("Paris 75005") == "Paris"

    def test_multiword_city(self):
        assert fn_city("1 rue X, Saint Denis 93200") == "Saint Denis"

    def test_zip_missing_raises(self):
        with pytest.raises(FunctionError):
            fn_zip("no digits here")

    def test_city_missing_raises(self):
        with pytest.raises(FunctionError):
            fn_city("12345")


class TestSameAddress:
    def test_matching(self):
        assert fn_sameaddress("Bd Lenoir, Paris 75005", "Paris", "Bd Lenoir")

    def test_case_and_punctuation_insensitive(self):
        assert fn_sameaddress("BD LENOIR PARIS", "paris", "bd. lenoir")

    def test_non_matching(self):
        assert not fn_sameaddress("Bd Leblanc, Lyon", "Paris", "Bd Lenoir")


class TestDataToString:
    def test_atoms(self):
        assert fn_data_to_string("Golf") == "Golf"
        assert fn_data_to_string(1995) == "1995"
        assert fn_data_to_string(True) == "true"
        assert fn_data_to_string(Symbol("car")) == "car"

    def test_leaf_tree_unwrapped(self):
        assert fn_data_to_string(atom("Golf")) == "Golf"

    def test_internal_tree_rejected(self):
        with pytest.raises(FunctionError):
            fn_data_to_string(tree("a", tree("b")))

    def test_ref(self):
        assert fn_data_to_string(Ref("s1")) == "&s1"


class TestMisc:
    def test_exception_raises(self):
        with pytest.raises(UnconvertedDataError):
            fn_exception(atom("x"))

    def test_concat(self):
        assert fn_concat("a", 1, Symbol("b")) == "a1b"

    def test_length(self):
        assert fn_length("abc") == 3
        assert fn_length(tree("a", tree("b"), tree("c"))) == 2
        with pytest.raises(FunctionError):
            fn_length(5)

    def test_att_label(self):
        assert fn_att_label(Symbol("name")) == "name: "
        assert fn_att_label("desc") == "desc: "
        with pytest.raises(FunctionError):
            fn_att_label(5)


class TestRegistry:
    def test_standard_names(self):
        registry = standard_registry()
        for name in ["city", "zip", "sameaddress", "data_to_string",
                     "exception", "att_label"]:
            assert registry.has(name)

    def test_unknown_raises(self):
        with pytest.raises(FunctionError):
            standard_registry().get("nope")

    def test_type_filter(self):
        registry = standard_registry()
        city = registry.get("city")
        assert city.accepts(["Bd Lenoir, Paris"])
        assert not city.accepts([42])  # int where string expected
        assert not city.accepts(["a", "b"])  # arity mismatch

    def test_trees_pass_type_filter(self):
        fn = standard_registry().get("data_to_string")
        assert fn.accepts([tree("a")])

    def test_child_registry_layering(self):
        base = standard_registry()
        child = base.child()
        child.register("local", lambda: 1)
        assert child.has("local") and child.has("city")
        assert not base.has("local")

    def test_register_override(self):
        registry = FunctionRegistry()
        registry.register("f", lambda: 1)
        registry.register("f", lambda: 2)
        assert registry.get("f")() == 2


class TestComparison:
    def test_equality_any_values(self):
        assert evaluate_comparison(tree("a"), "=", tree("a"))
        assert evaluate_comparison("x", "!=", "y")

    def test_numeric_order(self):
        assert evaluate_comparison(1995, ">", 1975)
        assert evaluate_comparison(1, "<=", 1)
        assert not evaluate_comparison(1, ">", 2)

    def test_string_order(self):
        assert evaluate_comparison("a", "<", "b")

    def test_symbol_order_by_name(self):
        assert evaluate_comparison(Symbol("a"), "<", Symbol("b"))

    def test_mixed_kinds_filtered(self):
        # order comparison across kinds: the binding is filtered (False)
        assert not evaluate_comparison("1995", ">", 1975)
        assert not evaluate_comparison(True, "<", 2)

    def test_unknown_operator(self):
        with pytest.raises(FunctionError):
            evaluate_comparison(1, "~", 2)
