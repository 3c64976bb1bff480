"""The JSON wrapper."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trees import DataStore, Ref, atom, tree
from repro.errors import WrapperError
from repro.wrappers import JsonExportWrapper, JsonImportWrapper


def json_values():
    return st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-1000, 1000),
            st.text(max_size=8),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(
                st.text(alphabet="abcdef_", min_size=1, max_size=5),
                children,
                max_size=4,
            ),
        ),
        max_leaves=10,
    )


class TestImport:
    def test_object_shape(self):
        store = JsonImportWrapper().to_store('{"name": "Golf", "year": 1995}')
        node = store.get("j1")
        assert str(node.label) == "document"
        obj = node.children[0]
        assert str(obj.label) == "object"
        assert str(obj.children[0].label) == "name"
        assert obj.children[0].children[0].label == "Golf"

    def test_array_and_null(self):
        store = JsonImportWrapper().to_store('[1, null, [2]]')
        # a top-level array is a single document
        node = store.get("j1").children[0]
        assert str(node.label) == "array"
        assert str(node.children[1].label) == "null"

    def test_multiple_documents(self):
        store = JsonImportWrapper().to_store([{"a": 1}, {"b": 2}])
        assert store.names() == ["j1", "j2"]

    def test_convertible_by_rules(self):
        from repro.yatl.parser import parse_program

        program = parse_program(
            """
            program FromJson
            rule R:
              Out(N) : renamed -> N
            <=
              P : document -> object -> name -> N
            end
            """
        )
        store = JsonImportWrapper().to_store('{"name": "Golf"}')
        result = program.run(store)
        assert result.trees_of("Out") == [tree("renamed", atom("Golf"))]


class TestExport:
    def test_round_trip_object(self):
        source = {"name": "Golf", "tags": ["fast", "red"], "year": 1995,
                  "used": False, "extra": None}
        store = JsonImportWrapper().to_store([source])
        text = JsonExportWrapper().from_store(store)
        assert json.loads(text) == source

    @given(json_values())
    @settings(max_examples=50)
    def test_round_trip_random(self, value):
        store = JsonImportWrapper().to_store([value])
        text = JsonExportWrapper().from_store(store)
        assert json.loads(text) == value

    def test_unresolved_reference_rejected(self):
        store = DataStore({"x": tree("document", tree("object", tree("r", Ref("ghost"))))})
        with pytest.raises(WrapperError):
            JsonExportWrapper().from_store(store)

    def test_generic_tree_export(self):
        # a tree that did not come from JSON: best-effort object encoding
        node = tree("class", tree("car", tree("name", atom("Golf")),
                                  tree("desc", atom("nice"))))
        value = JsonExportWrapper().tree_to_value(node)
        assert value == {"class": {"car": {"name": "Golf", "desc": "nice"}}}

    def test_repeated_keys_become_arrays(self):
        node = tree("object", tree("x", atom(1)), tree("x", atom(2)))
        value = JsonExportWrapper().tree_to_value(node)
        assert value == {"x": [1, 2]}
