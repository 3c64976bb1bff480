"""Object database substrate: types, schemas, store."""

import pytest

from repro.errors import SchemaError
from repro.objectdb import (
    BOOL,
    INT,
    STRING,
    ClassDef,
    ObjectSchema,
    ObjectStore,
    Oid,
    bag_of,
    car_dealer_schema,
    list_of,
    ref,
    set_of,
    tuple_of,
)


class TestTypes:
    def test_atomic_accepts(self):
        assert STRING.accepts("x") and not STRING.accepts(1)
        assert INT.accepts(3) and not INT.accepts(True)
        assert BOOL.accepts(False)

    def test_renders(self):
        assert set_of(STRING).render() == "set<string>"
        assert ref("car").render() == "ref<car>"
        assert tuple_of(x=INT, y=INT).render() == "tuple<x: int, y: int>"

    def test_collection_flags(self):
        assert list_of(INT).ordered and not set_of(INT).ordered
        assert set_of(INT).distinct and not bag_of(INT).distinct

    def test_equality(self):
        assert set_of(STRING) == set_of(STRING)
        assert set_of(STRING) != bag_of(STRING)

    def test_tuple_duplicate_fields(self):
        from repro.objectdb.types import TupleType

        with pytest.raises(SchemaError):
            TupleType([("a", INT), ("a", STRING)])


class TestSchema:
    def test_car_dealer_schema(self):
        schema = car_dealer_schema()
        assert set(schema.class_names()) == {"car", "supplier"}
        assert schema.cls("car").attribute_type("suppliers") == set_of(
            ref("supplier")
        )

    def test_missing_class(self):
        with pytest.raises(SchemaError):
            car_dealer_schema().cls("boat")

    def test_reference_integrity(self):
        schema = ObjectSchema(
            "broken", [ClassDef("a", [("r", ref("missing"))])]
        )
        with pytest.raises(SchemaError):
            schema.check_references()

    def test_duplicate_class_rejected(self):
        schema = ObjectSchema("s", [ClassDef("a", [("x", INT)])])
        with pytest.raises(SchemaError):
            schema.add(ClassDef("a", [("y", INT)]))


class TestStore:
    @pytest.fixture
    def store(self):
        return ObjectStore(car_dealer_schema())

    def test_create_and_extent(self, store):
        sup = store.create("supplier", {"name": "VW", "city": "P", "zip": "1"})
        assert store.get(sup.oid) is sup
        assert [o.oid for o in store.extent("supplier")] == [sup.oid]
        assert store.extent("car") == []

    def test_missing_attribute_rejected(self, store):
        with pytest.raises(SchemaError):
            store.create("supplier", {"name": "VW"})

    def test_unknown_attribute_rejected(self, store):
        with pytest.raises(SchemaError):
            store.create(
                "supplier",
                {"name": "VW", "city": "P", "zip": "1", "extra": 1},
            )

    def test_type_validation(self, store):
        with pytest.raises(SchemaError):
            store.create("supplier", {"name": 42, "city": "P", "zip": "1"})

    def test_reference_validation(self, store):
        sup = store.create("supplier", {"name": "VW", "city": "P", "zip": "1"})
        car = store.create(
            "car", {"name": "Golf", "desc": "d", "suppliers": [sup.oid]}
        )
        assert car.get("suppliers") == [sup.oid]

    def test_dangling_reference_rejected(self, store):
        with pytest.raises(SchemaError):
            store.create(
                "car", {"name": "Golf", "desc": "d", "suppliers": [Oid("ghost")]}
            )

    def test_wrong_class_reference_rejected(self, store):
        car1 = None
        sup = store.create("supplier", {"name": "VW", "city": "P", "zip": "1"})
        car1 = store.create(
            "car", {"name": "Golf", "desc": "d", "suppliers": [sup.oid]}
        )
        with pytest.raises(SchemaError):
            store.create(
                "car", {"name": "Polo", "desc": "d", "suppliers": [car1.oid]}
            )

    def test_set_distinctness(self, store):
        sup = store.create("supplier", {"name": "VW", "city": "P", "zip": "1"})
        with pytest.raises(SchemaError):
            store.create(
                "car",
                {"name": "Golf", "desc": "d", "suppliers": [sup.oid, sup.oid]},
            )

    def test_deferred_references_for_cycles(self):
        from repro.objectdb.types import set_of, ref, STRING

        schema = ObjectSchema(
            "cyclic",
            [
                ClassDef("car", [("name", STRING),
                                 ("suppliers", set_of(ref("supplier")))]),
                ClassDef("supplier", [("name", STRING),
                                      ("sells", set_of(ref("car")))]),
            ],
        )
        store = ObjectStore(schema)
        car_oid, sup_oid = Oid("c1"), Oid("s1")
        store.create("car", {"name": "Golf", "suppliers": [sup_oid]},
                     oid=car_oid, defer_ref_check=True)
        store.create("supplier", {"name": "VW", "sells": [car_oid]},
                     oid=sup_oid, defer_ref_check=True)
        store.check_references()

    def test_deferred_check_catches_dangling(self, store):
        store.create(
            "car",
            {"name": "Golf", "desc": "d", "suppliers": [Oid("ghost")]},
            defer_ref_check=True,
        )
        with pytest.raises(SchemaError):
            store.check_references()

    def test_duplicate_oid_rejected(self, store):
        store.create("supplier", {"name": "a", "city": "b", "zip": "c"},
                     oid=Oid("x"))
        with pytest.raises(SchemaError):
            store.create("supplier", {"name": "d", "city": "e", "zip": "f"},
                         oid=Oid("x"))

    def test_tuple_values(self):
        schema = ObjectSchema(
            "t",
            [ClassDef("point", [("pos", tuple_of(x=INT, y=INT))])],
        )
        store = ObjectStore(schema)
        instance = store.create("point", {"pos": {"x": 1, "y": 2}})
        assert instance.get("pos") == {"x": 1, "y": 2}
        with pytest.raises(SchemaError):
            store.create("point", {"pos": {"x": 1}})
