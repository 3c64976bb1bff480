"""Ground trees, references and data stores."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.labels import Symbol
from repro.core.trees import DataStore, Ref, Tree, atom, render_tree, tree
from repro.errors import DanglingReferenceError


# A strategy for small ground trees (no refs).
def trees(max_depth=3):
    labels = st.one_of(
        st.integers(-5, 5),
        st.text(min_size=1, max_size=4),
        st.builds(Symbol, st.sampled_from(["a", "b", "c"])),
    )
    return st.recursive(
        st.builds(Tree, labels),
        lambda children: st.builds(
            Tree, labels, st.lists(children, max_size=3)
        ),
        max_leaves=8,
    )


class TestTree:
    def test_leaf(self):
        leaf = atom("Golf")
        assert leaf.is_leaf
        assert leaf.label == "Golf"

    def test_tree_builder_symbols(self):
        node = tree("class", tree("car"))
        assert node.label is Symbol("class")
        assert node.children[0].label is Symbol("car")

    def test_tree_builder_wraps_constants(self):
        node = tree("name", "Golf")
        assert node.children[0] == Tree("Golf")

    def test_invalid_label_rejected(self):
        with pytest.raises(TypeError):
            Tree(None)

    def test_invalid_child_rejected(self):
        with pytest.raises(TypeError):
            Tree(Symbol("a"), ["not a tree"])

    def test_immutable(self):
        node = tree("a")
        with pytest.raises(AttributeError):
            node.label = Symbol("b")

    def test_structural_equality_and_hash(self):
        a = tree("car", tree("name", "Golf"))
        b = tree("car", tree("name", "Golf"))
        assert a == b and hash(a) == hash(b)
        assert a != tree("car", tree("name", "Polo"))

    def test_equality_distinguishes_order(self):
        assert tree("a", tree("x"), tree("y")) != tree("a", tree("y"), tree("x"))

    def test_size_and_depth(self, brochure_b1):
        # brochure + 5 field nodes + 4 atom leaves + supplier + name/addr + 2 atoms
        assert brochure_b1.size() == 15
        # brochure / spplrs / supplier / name / atom
        assert brochure_b1.depth() == 5

    def test_size_counts_refs(self):
        assert tree("a", Ref("x")).size() == 2

    def test_find(self, brochure_b1):
        found = brochure_b1.find(Symbol("title"))
        assert found is not None
        assert found.children[0].label == "Golf"
        assert brochure_b1.find(Symbol("nope")) is None

    def test_find_all_preorder(self):
        node = tree("r", tree("x", tree("x")), tree("x"))
        assert len(node.find_all(Symbol("x"))) == 3

    def test_references(self):
        node = tree("a", Ref("s1"), tree("b", Ref("s2")))
        assert [r.target for r in node.references()] == ["s1", "s2"]

    def test_subtrees_preorder(self):
        node = tree("a", tree("b", tree("c")), tree("d"))
        labels = [str(t.label) for t in node.subtrees()]
        assert labels == ["a", "b", "c", "d"]

    def test_map_refs_identity_shares_structure(self):
        node = tree("a", tree("b"))
        assert node.map_refs(lambda r: r) is node

    def test_map_refs_replaces(self):
        node = tree("a", Ref("x"))
        replaced = node.map_refs(lambda r: tree("spliced"))
        assert replaced == tree("a", tree("spliced"))

    @given(trees())
    def test_size_at_least_depth(self, node):
        assert node.size() >= node.depth()

    @given(trees())
    def test_equality_is_hash_consistent(self, node):
        clone = Tree(node.label, node.children)
        assert clone == node and hash(clone) == hash(node)


class TestRef:
    def test_basics(self):
        ref = Ref("s1")
        assert ref.target == "s1"
        assert str(ref) == "&s1"
        assert ref == Ref("s1") and ref != Ref("s2")

    def test_empty_target_rejected(self):
        with pytest.raises(TypeError):
            Ref("")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Ref("x").target = "y"


class TestPickling:
    def test_tree_and_ref_roundtrip(self):
        node = tree(
            "brochure", tree("title", "Golf"), Ref("s1"),
            Tree(5, (Tree("x"),)),
        )
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node
        assert isinstance(clone.children[1], Ref)


class TestDataStore:
    def test_add_get(self):
        store = DataStore()
        store.add("b1", tree("brochure"))
        assert store.get("b1") == tree("brochure")
        assert "b1" in store and len(store) == 1

    def test_get_missing_raises(self):
        with pytest.raises(DanglingReferenceError):
            DataStore().get("nope")

    def test_only_trees(self):
        store = DataStore()
        with pytest.raises(TypeError):
            store.add("x", Ref("y"))

    def test_insertion_order_preserved(self):
        store = DataStore()
        for name in ["z", "a", "m"]:
            store.add(name, tree(name))
        assert store.names() == ["z", "a", "m"]

    def test_dangling_detection(self):
        store = DataStore({"a": tree("x", Ref("missing"))})
        assert store.dangling_references() == ["missing"]
        with pytest.raises(DanglingReferenceError):
            store.check()

    def test_check_ok_when_complete(self):
        store = DataStore({"a": tree("x", Ref("b")), "b": tree("y")})
        store.check()

    def test_materialize_splices(self):
        store = DataStore({"a": tree("x", Ref("b")), "b": tree("y", "z")})
        assert store.materialize("a") == tree("x", tree("y", "z"))

    def test_materialize_cycle_keeps_ref(self):
        store = DataStore(
            {"a": tree("x", Ref("b")), "b": tree("y", Ref("a"))}
        )
        materialized = store.materialize("a")
        # the cycle back to "a" stays a reference
        inner = materialized.children[0]
        assert inner.children[0] == Ref("a")

    def test_materialize_self_cycle(self):
        store = DataStore({"a": tree("x", Ref("a"))})
        assert store.materialize("a") == tree("x", Ref("a"))

    def test_copy_independent(self):
        store = DataStore({"a": tree("x")})
        clone = store.copy()
        clone.add("b", tree("y"))
        assert "b" not in store

    def test_equality(self):
        assert DataStore({"a": tree("x")}) == DataStore({"a": tree("x")})
        assert DataStore({"a": tree("x")}) != DataStore({"a": tree("y")})


class TestRenderTree:
    def test_single_chain_one_line(self):
        assert render_tree(tree("class", tree("car"))) == "class -> car"

    def test_multi_children_bracketed(self):
        text = render_tree(tree("a", tree("b"), tree("c")))
        assert "<" in text and "b" in text and "c" in text

    def test_ref_rendered(self):
        assert render_tree(Ref("s1")) == "&s1"

    def test_string_atoms_quoted(self):
        assert '"Golf"' in render_tree(tree("name", "Golf"))
