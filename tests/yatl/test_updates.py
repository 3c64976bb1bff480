"""Provenance and update propagation (the paper's future-work items)."""

import pytest

from repro.core.trees import DataStore
from repro.yatl.updates import affected_outputs, diff_results
from tests.conftest import make_brochure


@pytest.fixture
def stores(brochure_b1, brochure_b2):
    return DataStore({"b1": brochure_b1, "b2": brochure_b2})


class TestProvenance:
    def test_car_lineage_is_its_brochure(self, brochures_program, stores):
        result = brochures_program.run(stores)
        c1, c2 = result.ids_of("Pcar")
        assert result.lineage(c1) == {"b1"}
        assert result.lineage(c2) == {"b2"}

    def test_shared_supplier_has_both_origins(self, brochures_program, stores):
        """s1 ("VW center") appears in both brochures: its provenance
        names both inputs — updating either requires recomputing it."""
        result = brochures_program.run(stores)
        assert result.lineage("s1") == {"b1", "b2"}
        assert result.lineage("s2") == {"b2"}

    def test_derived_from(self, brochures_program, stores):
        result = brochures_program.run(stores)
        from_b1 = set(result.derived_from("b1"))
        assert from_b1 == {"c1", "s1"}

    def test_demand_driven_outputs_inherit_origins(self, web_program, golf_store):
        result = web_program.run(golf_store)
        for identifier in result.ids_of("HtmlElement"):
            assert result.lineage(identifier), identifier
        # the car page derives from the car object
        car_page = next(
            i for i in result.ids_of("HtmlPage")
            if "car" in str(result.tree(i))
        )
        assert "c1" in result.lineage(car_page)


class TestAffectedOutputs:
    def test_changing_one_brochure(self, brochures_program, stores):
        result = brochures_program.run(stores)
        affected = set(affected_outputs(result, ["b1"]))
        assert affected == {"c1", "s1"}  # c2/s2 are safe to keep

    def test_unknown_input_affects_nothing(self, brochures_program, stores):
        result = brochures_program.run(stores)
        assert affected_outputs(result, ["nope"]) == []


class TestDiffResults:
    def test_no_change(self, brochures_program, stores):
        a = brochures_program.run(stores)
        b = brochures_program.run(stores)
        assert diff_results(a, b).is_empty

    def test_update_propagates_value_keyed(self, brochure_b1):
        """With Skolems keyed by the brochure number, editing a
        brochure surfaces as a *changed* car object."""
        from repro.yatl.parser import parse_program

        program = parse_program(
            """
            program NumKeyed
            rule R:
              Pcar(Num) :
                class -> car < -> name -> T, -> desc -> D >
            <=
              Pbr : brochure < -> number -> Num, -> title -> T,
                               -> model -> Y, -> desc -> D,
                               -> spplrs *-> supplier < -> name -> SN,
                                                         -> address -> A > >
            end
            """
        )
        before = program.run(DataStore({"b1": brochure_b1}))
        updated = make_brochure(
            1, "Golf GTI", 1995, "A faster car",
            [("VW center", "Bd Lenoir, Paris 75005")],
        )
        after = program.run(DataStore({"b1": updated}))
        diff = diff_results(before, after)
        assert len(diff.changed) == 1
        key = next(iter(diff.changed))
        assert key == ("Pcar", (1,))
        old_tree, new_tree = diff.changed[key]
        assert old_tree != new_tree
        assert not diff.added and not diff.removed

    def test_update_propagates_structurally_keyed(self, brochures_program,
                                                  brochure_b1):
        """With Skolems keyed by the whole brochure tree (Pcar(Pbr)),
        editing the brochure replaces the Skolem term: the update shows
        as one removed + one added car."""
        before = brochures_program.run(DataStore({"b1": brochure_b1}))
        updated = make_brochure(
            1, "Golf GTI", 1995, "A faster car",
            [("VW center", "Bd Lenoir, Paris 75005")],
        )
        after = brochures_program.run(DataStore({"b1": updated}))
        diff = diff_results(before, after)
        assert {k[0] for k in diff.added} == {"Pcar"}
        assert {k[0] for k in diff.removed} == {"Pcar"}
        assert not diff.changed  # the shared supplier is untouched

    def test_added_and_removed(self, brochures_program, brochure_b1, brochure_b2):
        small = brochures_program.run(DataStore({"b1": brochure_b1}))
        large = brochures_program.run(
            DataStore({"b1": brochure_b1, "b2": brochure_b2})
        )
        grow = diff_results(small, large)
        assert {k[0] for k in grow.added} == {"Pcar", "Psup"}
        assert not grow.removed
        shrink = diff_results(large, small)
        assert shrink.removed and not shrink.added
