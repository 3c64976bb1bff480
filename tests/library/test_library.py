"""The program/model library: generic programs, save/load, persistence."""

import pytest

from repro.errors import LibraryError
from repro.library import (
    Library,
    brochures_rule3_program,
    matrix_transpose_program,
    o2web_program,
    relational_to_odmg,
    render_model,
    sgml_brochures_to_odmg,
    standard_library,
    supplier_list_program,
)
from repro.core.models import odmg_model
from repro.core.syntax import parse_model


class TestGenericPrograms:
    def test_all_programs_validate(self):
        for factory in (
            o2web_program,
            sgml_brochures_to_odmg,
            matrix_transpose_program,
            supplier_list_program,
            brochures_rule3_program,
        ):
            factory().validate()

    def test_rule3_heterogeneous_join(self):
        """Rule 3 (Section 3.2): relational + SGML join through SN/Num."""
        from tests.conftest import make_brochure
        from repro.relational import Database, dealer_schema
        from repro.wrappers import RelationalImportWrapper

        db = Database(dealer_schema())
        db.insert("suppliers", 7, "VW center", "Paris", "Bd Lenoir", "01")
        db.insert("suppliers", 8, "Other", "Nice", "Rue X", "02")
        db.insert("cars", 42, "1")
        store = RelationalImportWrapper().to_store(db)
        brochure = make_brochure(
            "1", "Golf", 1995, "d", [("VW center", "Bd Lenoir, Paris 75005")]
        )
        store.add("b1", brochure)
        result = brochures_rule3_program().run(store)
        cars = result.ids_of("Pcar")
        assert len(cars) == 1
        # the car is keyed by the relational cid and references Psup(7)
        assert result.skolems.key_of(cars[0]) == ("Pcar", (42,))
        refs = result.tree(cars[0]).references()
        assert len(refs) == 1
        assert result.skolems.key_of(refs[0].target) == ("Psup", (7,))

    def test_relational_to_odmg_generator(self):
        from repro.relational import Database, dealer_schema
        from repro.wrappers import RelationalImportWrapper

        program = relational_to_odmg(["suppliers"], keys={"suppliers": "sid"})
        program.validate()
        db = Database(dealer_schema())
        db.insert("suppliers", 1, "VW", "Paris", "Bd", "01")
        db.insert("suppliers", 2, "VW2", "Lyon", "Bd2", "02")
        store = RelationalImportWrapper().to_store(db)
        result = program.run(store)
        objects = result.trees_of("Pobj_suppliers")
        assert len(objects) == 2
        assert str(objects[0].children[0].label) == "supplier"
        # keyed by sid
        assert result.skolems.key_of(result.ids_of("Pobj_suppliers")[0])[1] == (1,)

    def test_relational_to_odmg_without_key(self):
        from repro.relational import Database, dealer_schema
        from repro.wrappers import RelationalImportWrapper

        program = relational_to_odmg(["cars"])
        db = Database(dealer_schema())
        db.insert("cars", 10, "1")
        store = RelationalImportWrapper().to_store(db)
        result = program.run(store)
        assert len(result.trees_of("Pobj_cars")) == 1


class TestLibraryStore:
    def test_in_memory_round_trip(self, brochures_program, brochure_b1):
        library = Library()
        library.save_program(brochures_program)
        loaded = library.load_program("SgmlBrochuresToOdmg")
        assert loaded.rules == brochures_program.rules
        # and it runs identically
        a = brochures_program.run([brochure_b1])
        b = loaded.run([brochure_b1])
        assert sorted(a.store.names()) == sorted(b.store.names())

    def test_missing_program(self):
        with pytest.raises(LibraryError):
            Library().load_program("nope")

    def test_model_round_trip(self):
        library = Library()
        library.save_model(odmg_model())
        loaded = library.load_model("ODMG")
        assert loaded.is_instance_of(odmg_model())
        assert odmg_model().is_instance_of(loaded)

    def test_render_model_reparseable(self):
        text = render_model(odmg_model())
        reparsed = parse_model(text)
        assert set(reparsed.pattern_names()) == {"Pclass", "Ptype"}

    def test_directory_persistence(self, tmp_path, brochures_program):
        first = Library(directory=str(tmp_path))
        first.save_program(brochures_program)
        first.save_model(odmg_model())
        # a new library instance over the same directory sees the items
        second = Library(directory=str(tmp_path))
        assert second.program_names() == ["SgmlBrochuresToOdmg"]
        assert second.model_names() == ["ODMG"]
        loaded = second.load_program("SgmlBrochuresToOdmg")
        assert loaded.rules == brochures_program.rules

    def test_standard_library_contents(self):
        library = standard_library()
        assert "O2Web" in library.program_names()
        assert "SgmlBrochuresToOdmg" in library.program_names()
        assert "Yat" in library.model_names()

    def test_standard_library_programs_runnable(self, golf_store):
        library = standard_library()
        web = library.load_program("O2Web")
        result = web.run(golf_store)
        assert len(result.ids_of("HtmlPage")) == 2

    def test_saved_programs_keep_models(self):
        library = standard_library()
        web = library.load_program("O2Web")
        assert web.input_model is not None
        assert "Ptype" in web.input_model
