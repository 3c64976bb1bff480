"""Wrappers: substrates ↔ YAT trees, round trips, model conformance."""

import pytest

from repro.core import tree_is_instance
from repro.core.models import odmg_model, relational_model, sgml_model
from repro.core.trees import DataStore, Ref, atom, tree
from repro.errors import WrapperError
from repro.objectdb import ObjectStore, car_dealer_schema
from repro.relational import Database, dealer_schema
from repro.sgml import brochure_dtd, element
from repro.wrappers import (
    HtmlExportWrapper,
    OdmgExportWrapper,
    OdmgImportWrapper,
    RelationalExportWrapper,
    RelationalImportWrapper,
    SgmlExportWrapper,
    SgmlImportWrapper,
)


@pytest.fixture
def database():
    db = Database(dealer_schema())
    db.insert("suppliers", 1, "VW center", "Paris", "Bd Lenoir", "01")
    db.insert("suppliers", 2, "VW2", "Lyon", "Bd Leblanc", "02")
    db.insert("cars", 10, "1")
    return db


@pytest.fixture
def objects():
    store = ObjectStore(car_dealer_schema())
    sup = store.create("supplier", {"name": "VW", "city": "Paris", "zip": "75005"})
    store.create("car", {"name": "Golf", "desc": "nice", "suppliers": [sup.oid]})
    return store


class TestRelationalWrapper:
    def test_import_shape(self, database):
        store = RelationalImportWrapper().to_store(database)
        suppliers = store.get("suppliers")
        assert len(suppliers.children) == 2
        first_row = suppliers.children[0]
        assert str(first_row.label) == "row"
        assert str(first_row.children[0].label) == "sid"

    def test_import_conforms_to_relational_model(self, database):
        store = RelationalImportWrapper().to_store(database)
        model = relational_model()
        for _, node in store:
            assert tree_is_instance(node, model.pattern("Ptable"), model=model)

    def test_round_trip(self, database):
        store = RelationalImportWrapper().to_store(database)
        back = RelationalExportWrapper(dealer_schema()).from_store(store)
        for name in database.table_names():
            assert back.table(name).rows() == database.table(name).rows()

    def test_export_rejects_malformed(self):
        store = DataStore({"suppliers": tree("suppliers", tree("notarow"))})
        with pytest.raises(WrapperError):
            RelationalExportWrapper(dealer_schema()).from_store(store)

    def test_export_rejects_unknown_table(self):
        store = DataStore({"x": tree("unknown_table")})
        with pytest.raises(WrapperError):
            RelationalExportWrapper(dealer_schema()).from_store(store)

    def test_nulls_dropped_on_import(self):
        from repro.relational import Column, TableSchema
        from repro.relational.database import Database as Db
        from repro.relational.schema import DatabaseSchema

        schema = DatabaseSchema(
            "s", [TableSchema("t", [Column("a", "int"),
                                    Column("b", "string", nullable=True)])]
        )
        db = Db(schema)
        db.insert("t", 1, None)
        store = RelationalImportWrapper().to_store(db)
        row = store.get("t").children[0]
        assert len(row.children) == 1  # the null column is absent


class TestSgmlWrapper:
    def test_import_coerces_numbers(self):
        doc = element("brochure", element("model", "1995"))
        node = SgmlImportWrapper().element_to_tree(doc)
        assert node.children[0].children[0].label == 1995

    def test_import_without_coercion(self):
        doc = element("model", "1995")
        node = SgmlImportWrapper(coerce_numbers=False).element_to_tree(doc)
        assert node.children[0].label == "1995"

    def test_import_validates_against_dtd(self):
        bad = element("brochure", element("title", "x"))
        with pytest.raises(Exception):
            SgmlImportWrapper(dtd=brochure_dtd()).to_store([bad])

    def test_import_conforms_to_sgml_model(self):
        from repro.workloads import brochure_elements

        store = SgmlImportWrapper().to_store(brochure_elements(3))
        model = sgml_model()
        for _, node in store:
            assert tree_is_instance(node, model.pattern("Pelement"), model=model)

    def test_export_round_trip(self):
        doc = element("a", element("b", "text"), element("c", "1995"))
        wrapper = SgmlImportWrapper(coerce_numbers=False)
        node = wrapper.element_to_tree(doc)
        back = SgmlExportWrapper().tree_to_element(node)
        assert back == doc

    def test_export_rejects_atom_root(self):
        with pytest.raises(WrapperError):
            SgmlExportWrapper().tree_to_element(atom("just text"))


class TestOdmgWrapper:
    def test_import_shape(self, objects):
        store = OdmgImportWrapper().to_store(objects)
        assert len(store) == 2
        car_tree = store.get(objects.extent("car")[0].oid.value)
        assert str(car_tree.label) == "class"
        assert str(car_tree.children[0].label) == "car"

    def test_import_conforms_to_odmg_model(self, objects):
        store = OdmgImportWrapper().to_store(objects)
        model = odmg_model()
        for _, node in store:
            assert tree_is_instance(node, model.pattern("Pclass"), model=model,
                                    store=store)

    def test_references_preserved(self, objects):
        store = OdmgImportWrapper().to_store(objects)
        car_tree = store.get(objects.extent("car")[0].oid.value)
        refs = car_tree.references()
        assert refs == [Ref(objects.extent("supplier")[0].oid.value)]

    def test_round_trip(self, objects):
        store = OdmgImportWrapper().to_store(objects)
        back = OdmgExportWrapper(car_dealer_schema()).from_store(store)
        assert len(back) == len(objects)
        car = back.extent("car")[0]
        assert car.get("name") == "Golf"

    def test_export_skips_non_object_trees(self, objects):
        store = OdmgImportWrapper().to_store(objects)
        store.add("junk", tree("not_an_object"))
        back = OdmgExportWrapper(car_dealer_schema()).from_store(store)
        assert len(back) == 2

    def test_export_validates_references(self):
        store = DataStore(
            {
                "c1": tree(
                    "class",
                    tree("car", tree("name", atom("G")), tree("desc", atom("d")),
                         tree("suppliers", tree("set", Ref("ghost")))),
                )
            }
        )
        with pytest.raises(Exception):
            OdmgExportWrapper(car_dealer_schema()).from_store(store)

    def test_collections_and_tuples(self):
        from repro.objectdb import ClassDef, ObjectSchema, INT, list_of, tuple_of

        schema = ObjectSchema(
            "t", [ClassDef("thing", [("xs", list_of(INT)),
                                     ("pos", tuple_of(x=INT, y=INT))])]
        )
        store = ObjectStore(schema)
        store.create("thing", {"xs": [1, 2, 3], "pos": {"x": 1, "y": 2}})
        imported = OdmgImportWrapper().to_store(store)
        back = OdmgExportWrapper(schema).from_store(imported)
        thing = back.extent("thing")[0]
        assert thing.get("xs") == [1, 2, 3]
        assert thing.get("pos") == {"x": 1, "y": 2}


class TestHtmlWrapper:
    def test_export_result_pages(self, web_program, golf_store):
        result = web_program.run(golf_store)
        pages = HtmlExportWrapper().export_result(result)
        assert set(pages) == {"h1.html", "h2.html"}
        car_page = next(p for p in pages.values() if "<title>car</title>" in p)
        assert 'href="' in car_page

    def test_custom_url_mapping(self, web_program, golf_store):
        result = web_program.run(golf_store)
        wrapper = HtmlExportWrapper(url_of=lambda i: f"/pages/{i}")
        pages = wrapper.export_result(result)
        assert all(url.startswith("/pages/") for url in pages)

    def test_anchor_conversion(self):
        node = tree(
            "a",
            tree("href", Ref("h2")),
            tree("cont", tree("supplier")),
        )
        converted = HtmlExportWrapper().tree_to_element(node)
        assert converted.attrs["href"] == "h2.html"
        assert converted.text == "supplier"

    def test_anchor_without_href_rejected(self):
        with pytest.raises(WrapperError):
            HtmlExportWrapper().tree_to_element(tree("a", tree("cont")))

    def test_escaping_applied(self):
        node = tree("html", tree("body", tree("p", atom("a < b"))))
        pages = HtmlExportWrapper().from_store(DataStore({"h1": node}))
        assert "a &lt; b" in pages["h1.html"]

    def test_from_store_requires_pages(self):
        with pytest.raises(WrapperError):
            HtmlExportWrapper().from_store(DataStore({"x": tree("notapage")}))
