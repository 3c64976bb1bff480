"""Columnar arena: lossless round trips, interning, and the wrappers'
zero-copy import paths (PR 10 property tests)."""

import random

import pytest

from repro.core.arena import (
    Arena,
    ArenaStore,
    InternTable,
    K_BOOL,
    K_FLOAT,
    K_INT,
    K_SYMBOL,
    label_alias_ids,
    label_kind,
)
from repro.core.trees import DataStore, Ref, Tree
from repro.core.labels import Symbol


ATOMS = [
    Symbol("supplier"),
    Symbol("name"),
    "VW center",
    "",
    0,
    1,
    -7,
    1975,
    0.0,
    1.0,
    3.25,
    True,
    False,
]


def random_tree(rng, depth=3):
    label = rng.choice(ATOMS)
    if depth == 0 or rng.random() < 0.35:
        return Tree(label)
    children = []
    for _ in range(rng.randrange(0, 4)):
        if rng.random() < 0.1:
            children.append(Ref(f"s{rng.randrange(5)}"))
        else:
            children.append(random_tree(rng, depth - 1))
    return Tree(label, children)


def random_forest(rng, count=30):
    return [random_tree(rng) for _ in range(count)]


class TestRoundTrip:
    def test_random_forests_round_trip_identically(self):
        rng = random.Random(10)
        for _ in range(10):
            forest = random_forest(rng)
            arena = Arena.from_trees(forest)
            assert arena.to_trees() == forest

    def test_round_trip_is_hash_stable(self):
        rng = random.Random(11)
        forest = random_forest(rng)
        decoded = Arena.from_trees(forest).to_trees()
        for original, copy in zip(forest, decoded):
            assert hash(original) == hash(copy)

    def test_all_atom_types_keep_their_exact_type(self):
        forest = [Tree(Symbol("root"), [Tree(atom) for atom in ATOMS])]
        (decoded,) = Arena.from_trees(forest).to_trees()
        for leaf, atom in zip(decoded.children, ATOMS):
            assert leaf.label == atom
            assert type(leaf.label) is type(atom)

    def test_numeric_conflation_survives_round_trip(self):
        # 1 == 1.0 == True in Python; the kind byte keeps them apart.
        forest = [Tree(1), Tree(1.0), Tree(True), Tree(0), Tree(False)]
        decoded = Arena.from_trees(forest).to_trees()
        assert [type(t.label) for t in decoded] == [int, float, bool, int, bool]

    def test_refs_round_trip(self):
        forest = [Tree(Symbol("car"), [Ref("s1"), Tree(Symbol("x")), Ref("s2")])]
        (decoded,) = Arena.from_trees(forest).to_trees()
        assert decoded == forest[0]
        assert isinstance(decoded.children[0], Ref)
        assert decoded.children[0].target == "s1"

    def test_bare_ref_root_round_trips(self):
        arena = Arena.from_trees([Ref("elsewhere")])
        assert arena.to_trees() == [Ref("elsewhere")]

    def test_shared_subtrees_decode_equal(self):
        shared = Tree(Symbol("address"), [Tree("Paris")])
        forest = [
            Tree(Symbol("a"), [shared, shared]),
            Tree(Symbol("b"), [shared]),
        ]
        decoded = Arena.from_trees(forest).to_trees()
        assert decoded == forest

    def test_shuffled_children_keep_their_order(self):
        # Encoding must preserve child order exactly: a tree and its
        # shuffled sibling round-trip to themselves, not to each other.
        rng = random.Random(12)
        children = [Tree(atom) for atom in ATOMS]
        shuffled = list(children)
        rng.shuffle(shuffled)
        forest = [
            Tree(Symbol("orig"), children),
            Tree(Symbol("shuf"), shuffled),
        ]
        first, second = Arena.from_trees(forest).to_trees()
        assert [c.label for c in first.children] == [c.label for c in children]
        assert [c.label for c in second.children] == [c.label for c in shuffled]

    def test_deep_tree_round_trips(self):
        node = Tree(Symbol("leaf"))
        for _ in range(300):
            node = Tree(Symbol("n"), [node])
        assert Arena.from_trees([node]).to_trees() == [node]


class TestInternTable:
    def test_kind_distinguishes_equal_values(self):
        table = InternTable()
        ids = {
            table.intern(K_INT, 1),
            table.intern(K_FLOAT, 1.0),
            table.intern(K_BOOL, True),
        }
        assert len(ids) == 3

    def test_label_alias_ids_cover_numeric_equality(self):
        table = InternTable()
        one = label_alias_ids(table, 1)
        assert table.intern(K_FLOAT, 1.0) in one
        assert table.intern(K_BOOL, True) in one
        assert label_alias_ids(table, True) == one
        assert label_alias_ids(table, 1.0) == one
        assert len(label_alias_ids(table, Symbol("x"))) == 1
        assert len(label_alias_ids(table, 2.5)) == 1

    def test_leaf_cache_returns_same_object(self):
        table = InternTable()
        assert table.leaf_for(Symbol("a")) is table.leaf_for(Symbol("a"))

    def test_label_kind_orders_bool_before_int(self):
        assert label_kind(True) == K_BOOL
        assert label_kind(1) == K_INT
        assert label_kind(Symbol("s")) == K_SYMBOL


class TestArenaStore:
    def _store(self, rng):
        forest = random_forest(rng, 20)
        data = DataStore()
        for index, node in enumerate(forest):
            data.add(f"d{index + 1}", node)
        return data, ArenaStore.from_data_store(data)

    def test_duck_types_data_store_reads(self):
        rng = random.Random(20)
        data, store = self._store(rng)
        assert store.names() == data.names()
        assert list(store) == list(data)
        assert store.get("d3") == data.get("d3")
        assert "d1" in store and "nope" not in store

    def test_materialization_is_cached(self):
        rng = random.Random(21)
        _, store = self._store(rng)
        assert store.get("d1") is store.get("d1")
        assert store.index_of_tree(store.get("d5")) == 4

    def test_to_data_store_round_trips(self):
        rng = random.Random(23)
        data, store = self._store(rng)
        back = store.to_data_store()
        assert list(back) == list(data)

    def test_append_only(self):
        store = ArenaStore()
        store.add("d1", Tree(Symbol("a")))
        with pytest.raises(Exception):
            store.add("d1", Tree(Symbol("b")))


class TestWrapperZeroCopy:
    def test_sgml_arena_import_equals_tree_import(self):
        from repro.sgml.parser import parse_sgml_many
        from repro.workloads import brochure_sgml
        from repro.wrappers.sgml import SgmlImportWrapper

        docs = parse_sgml_many(brochure_sgml(4, distinct_suppliers=2))
        wrapper = SgmlImportWrapper()
        tree_store = wrapper.to_store(docs)
        arena_store = wrapper.to_arena_store(docs)
        assert isinstance(arena_store, ArenaStore)
        assert arena_store.names() == tree_store.names()
        assert list(arena_store) == list(tree_store)

    def test_sgml_arena_import_respects_coercion_flag(self):
        from repro.sgml.parser import parse_sgml_many
        from repro.wrappers.sgml import SgmlImportWrapper

        docs = parse_sgml_many("<model> 1975 </model>")
        wrapper = SgmlImportWrapper(coerce_numbers=False)
        assert list(wrapper.to_arena_store(docs)) == list(wrapper.to_store(docs))

    def test_relational_arena_import_equals_tree_import(self):
        from repro.relational import Database, dealer_schema
        from repro.wrappers.relational import RelationalImportWrapper

        db = Database(dealer_schema())
        db.insert("suppliers", 1, "VW center", "Paris", "Bd Lenoir", "01")
        db.insert("suppliers", 2, "VW2", "Lyon", "Bd Leblanc", "02")
        db.insert("cars", 10, "1")
        wrapper = RelationalImportWrapper()
        tree_store = wrapper.to_store(db)
        arena_store = wrapper.to_arena_store(db)
        assert arena_store.names() == tree_store.names()
        assert list(arena_store) == list(tree_store)

    def test_relational_arena_import_drops_nulls(self):
        from repro.relational import Column, TableSchema
        from repro.relational.database import Database
        from repro.relational.schema import DatabaseSchema
        from repro.wrappers.relational import RelationalImportWrapper

        schema = DatabaseSchema(
            "s", [TableSchema("t", [Column("a", "int"),
                                    Column("b", "string", nullable=True)])]
        )
        db = Database(schema)
        db.insert("t", 1, None)
        wrapper = RelationalImportWrapper()
        assert list(wrapper.to_arena_store(db)) == list(wrapper.to_store(db))
        row = wrapper.to_arena_store(db).get("t").children[0]
        assert len(row.children) == 1
