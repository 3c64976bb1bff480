"""Relational substrate: schemas, tables, queries, CSV."""

import pytest

from repro.errors import SchemaError
from repro.relational import (
    Column,
    Database,
    Table,
    TableSchema,
    dealer_schema,
    dump_csv,
    load_csv,
)


@pytest.fixture
def suppliers_schema():
    return dealer_schema().table("suppliers")


@pytest.fixture
def suppliers(suppliers_schema):
    table = Table(suppliers_schema)
    table.insert(1, "VW center", "Paris", "Bd Lenoir", "01")
    table.insert(2, "VW2", "Lyon", "Bd Leblanc", "02")
    return table


class TestColumn:
    def test_types_enforced(self):
        column = Column("sid", "int")
        assert column.accepts(3) and not column.accepts("3")

    def test_nullable(self):
        assert Column("x", "string", nullable=True).accepts(None)
        assert not Column("x", "string").accepts(None)

    def test_bad_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "blob")

    def test_name_case(self):
        with pytest.raises(SchemaError):
            Column("Sid", "int")


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", "int"), Column("a", "int")])

    def test_key_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", "int")], key="b")

    def test_validate_row(self, suppliers_schema):
        row = suppliers_schema.validate_row((1, "x", "y", "z", "t"))
        assert row == (1, "x", "y", "z", "t")
        with pytest.raises(SchemaError):
            suppliers_schema.validate_row((1, "x"))
        with pytest.raises(SchemaError):
            suppliers_schema.validate_row(("one", "x", "y", "z", "t"))


class TestTable:
    def test_insert_and_iterate(self, suppliers):
        assert len(suppliers) == 2
        assert [r[1] for r in suppliers] == ["VW center", "VW2"]

    def test_key_lookup(self, suppliers):
        assert suppliers.get(2)[1] == "VW2"
        assert suppliers.get(99) is None

    def test_duplicate_key_rejected(self, suppliers):
        with pytest.raises(SchemaError):
            suppliers.insert(1, "dup", "x", "y", "z")

    def test_insert_dict(self, suppliers_schema):
        table = Table(suppliers_schema)
        table.insert_dict(
            {"sid": 1, "name": "a", "city": "b", "address": "c", "tel": "d"}
        )
        assert table.rows() == [(1, "a", "b", "c", "d")]

    def test_insert_dict_missing_column(self, suppliers_schema):
        with pytest.raises(SchemaError):
            Table(suppliers_schema).insert_dict({"sid": 1})

    def test_insert_dict_unknown_column(self, suppliers_schema):
        with pytest.raises(SchemaError):
            Table(suppliers_schema).insert_dict(
                {"sid": 1, "name": "a", "city": "b", "address": "c",
                 "tel": "d", "extra": 1}
            )

    def test_select(self, suppliers):
        filtered = suppliers.select(lambda r: r["city"] == "Lyon")
        assert len(filtered) == 1 and filtered.rows()[0][0] == 2

    def test_project(self, suppliers):
        projected = suppliers.project(["name", "city"])
        assert projected.rows() == [("VW center", "Paris"), ("VW2", "Lyon")]

    def test_join(self, suppliers):
        sales_schema = dealer_schema().table("sales")
        sales = Table(sales_schema)
        sales.insert(1, 10, 1995, 3)
        sales.insert(2, 11, 1996, 5)
        sales.insert(9, 12, 1997, 1)
        matches = suppliers.join(sales, on=[("sid", "sid")])
        assert len(matches) == 2
        assert {m[0]["name"] for m in matches} == {"VW center", "VW2"}


class TestDatabase:
    def test_tables_from_schema(self):
        database = Database(dealer_schema())
        assert set(database.table_names()) == {"suppliers", "cars", "sales"}

    def test_insert_shortcut(self):
        database = Database(dealer_schema())
        database.insert("cars", 1, "42")
        assert len(database.table("cars")) == 1

    def test_unknown_table(self):
        with pytest.raises(SchemaError):
            Database(dealer_schema()).table("nope")


class TestCsv:
    def test_round_trip(self, suppliers):
        text = dump_csv(suppliers)
        reloaded = load_csv(suppliers.schema, text)
        assert reloaded.rows() == suppliers.rows()

    def test_header_order_independent(self, suppliers_schema):
        text = "name,sid,city,address,tel\nVW,1,Paris,Bd,01\n"
        table = load_csv(suppliers_schema, text)
        assert table.rows() == [(1, "VW", "Paris", "Bd", "01")]

    def test_type_coercion(self):
        schema = TableSchema(
            "t", [Column("i", "int"), Column("f", "float"), Column("b", "bool")]
        )
        table = load_csv(schema, "i,f,b\n3,1.5,true\n")
        assert table.rows() == [(3, 1.5, True)]

    def test_bad_value_rejected(self):
        schema = TableSchema("t", [Column("i", "int")])
        with pytest.raises(SchemaError):
            load_csv(schema, "i\nnotanint\n")

    def test_missing_column_rejected(self, suppliers_schema):
        with pytest.raises(SchemaError):
            load_csv(suppliers_schema, "sid\n1\n")

    def test_headerless(self):
        schema = TableSchema("t", [Column("i", "int"), Column("s", "string")])
        table = load_csv(schema, "1,a\n2,b\n", header=False)
        assert table.rows() == [(1, "a"), (2, "b")]
