"""The interpreter: Figure 3 golden behaviour and the evaluation corners."""

import pytest

from repro.core.trees import DataStore, Ref, atom, tree
from repro.errors import (
    DanglingReferenceError,
    NonDeterminismError,
    UnconvertedDataError,
)
from repro.yatl.parser import parse_program
from repro.yatl.program import Program


class TestFigure3:
    """Applying Rule 1 on two SGML brochures (Figure 3)."""

    def test_supplier_objects(self, brochures_program, brochure_b1, brochure_b2):
        result = brochures_program.run([brochure_b1, brochure_b2])
        suppliers = result.ids_of("Psup")
        # "VW center" appears in both brochures but yields a single s1
        assert suppliers == ["s1", "s2"]
        s1 = result.tree("s1")
        assert s1 == tree(
            "class",
            tree(
                "supplier",
                tree("name", atom("VW center")),
                tree("city", atom("Paris")),
                tree("zip", atom(75005)),
            ),
        )

    def test_car_objects_reference_suppliers(
        self, brochures_program, brochure_b1, brochure_b2
    ):
        result = brochures_program.run([brochure_b1, brochure_b2])
        c1, c2 = result.trees_of("Pcar")
        set1 = c1.children[0].find(
            __import__("repro.core.labels", fromlist=["Symbol"]).Symbol("set")
        )
        assert set1.children == (Ref("s1"),)
        set2 = c2.children[0].find(
            __import__("repro.core.labels", fromlist=["Symbol"]).Symbol("set")
        )
        assert set(set2.children) == {Ref("s1"), Ref("s2")}

    def test_rule_order_irrelevant(self, brochure_b1, brochure_b2, brochures_program):
        """Skolems are global: Rules 1 and 2 can be applied in any order."""
        reversed_program = Program(
            "Reversed", list(reversed(brochures_program.rules)),
            registry=brochures_program.registry,
        )
        a = brochures_program.run([brochure_b1, brochure_b2])
        b = reversed_program.run([brochure_b1, brochure_b2])
        a_mat = {str(a.store.materialize(i)) for i in a.store.names()}
        b_mat = {str(b.store.materialize(i)) for i in b.store.names()}
        assert a_mat == b_mat

    def test_predicate_filters_old_cars(self, brochures_program):
        from tests.conftest import make_brochure

        old = make_brochure(3, "Beetle", 1968, "old", [("VW0", "x, Paris 75001")])
        result = brochures_program.run([old])
        assert result.ids_of("Psup") == []  # Rule 1 filtered by Year > 1975
        assert result.ids_of("Pcar") == ["c1"]  # Rule 2 has no predicate

    def test_empty_supplier_list_yields_empty_set(self, brochures_program):
        from tests.conftest import make_brochure

        lonely = make_brochure(4, "Polo", 1996, "no sups", [])
        result = brochures_program.run([lonely])
        car = result.trees_of("Pcar")[0]
        set_node = car.children[0].children[2].children[0]
        assert str(set_node.label) == "set" and set_node.children == ()


class TestDeterminismAlert:
    def test_conflicting_supplier_values(self, brochures_program):
        from tests.conftest import make_brochure

        a = make_brochure(1, "Golf", 1995, "d",
                          [("VW", "Bd Lenoir, Paris 75005")])
        b = make_brochure(2, "Golf", 1995, "d",
                          [("VW", "Bd Leblanc, Lyon 69001")])
        with pytest.raises(NonDeterminismError):
            brochures_program.run([a, b])


class TestCollections:
    def test_rule4_grouping_and_ordering(self, brochure_b2):
        from repro.library.programs import supplier_list_program

        result = supplier_list_program().run([brochure_b2])
        listing = result.trees_of("Sups")[0]
        # VW2 < VW center? "VW center" < "VW2" lexicographically
        skolems = [result.skolems.key_of(r.target)[1][0] for r in listing.children]
        assert skolems == sorted(skolems)

    def test_rule5_transpose_golden(self):
        from repro.library.programs import matrix_transpose_program

        matrix = tree(
            "matrix",
            tree(1995, tree("golf", atom(10)), tree("polo", atom(20))),
            tree(1996, tree("golf", atom(11)), tree("polo", atom(21))),
        )
        result = matrix_transpose_program().run([matrix])
        transposed = result.trees_of("New")[0]
        assert transposed == tree(
            "matrix",
            tree("golf", tree(1995, atom(10)), tree(1996, atom(11))),
            tree("polo", tree(1995, atom(20)), tree(1996, atom(21))),
        )

    def test_transpose_involution(self):
        from repro.library.programs import matrix_transpose_program
        from repro.workloads import sales_matrix

        program = matrix_transpose_program()
        matrix = sales_matrix(4, 3)
        once = program.run([matrix]).trees_of("New")[0]
        twice = program.run([once]).trees_of("New")[0]
        assert twice == matrix


class TestRecursion:
    def test_o2web_demand_driven(self, web_program, golf_store):
        result = web_program.run(golf_store)
        pages = result.ids_of("HtmlPage")
        assert len(pages) == 2
        assert not result.unconverted

    def test_cyclic_data_handled(self):
        from repro.library.programs import sgml_brochures_to_odmg
        from tests.conftest import make_brochure

        program = sgml_brochures_to_odmg(cyclic=True)
        b = make_brochure(1, "Golf", 1995, "d", [("VW", "x, Paris 75005")])
        result = program.run([b])
        supplier = result.trees_of("Psup")[0]
        car = result.trees_of("Pcar")[0]
        assert Ref(result.ids_of("Pcar")[0]) in supplier.subtrees().__next__().find_all(
            __import__("repro.core.labels", fromlist=["Symbol"]).Symbol("set")
        )[0].children
        assert Ref(result.ids_of("Psup")[0]) in car.find_all(
            __import__("repro.core.labels", fromlist=["Symbol"]).Symbol("set")
        )[0].children

    def test_unresolved_deref_raises(self):
        # a head dereference whose functor no rule defines
        program = parse_program(
            """
            program Bad
            rule R:
              Out(X) : holder -> Missing(X)
            <=
              P : a -> X
            end
            """
        )
        with pytest.raises(DanglingReferenceError):
            program.run([tree("a", atom(1))])

    def test_dangling_plain_ref_warns_by_default(self):
        program = parse_program(
            """
            program Dangling
            rule R:
              Out(X) : holder -> &Missing(X)
            <=
              P : a -> X
            end
            """
        )
        result = program.run([tree("a", atom(1))])
        assert any("dangling" in w for w in result.warnings)

    def test_dangling_plain_ref_strict_raises(self):
        program = parse_program(
            """
            program Dangling
            rule R:
              Out(X) : holder -> &Missing(X)
            <=
              P : a -> X
            end
            """
        )
        with pytest.raises(DanglingReferenceError):
            program.run([tree("a", atom(1))], strict_refs=True)


class TestRuntimeTyping:
    def test_unconverted_tracked(self, brochures_program):
        stray = tree("unrelated", atom(1))
        result = brochures_program.run([stray])
        assert result.unconverted == [stray]

    def test_runtime_typing_raises(self, brochures_program):
        stray = tree("unrelated", atom(1))
        with pytest.raises(UnconvertedDataError):
            brochures_program.run([stray], runtime_typing=True)

    def test_fallback_rule_exception(self):
        program = parse_program(
            """
            program WithException
            rule Convert:
              Out(X) : copy -> X
            <=
              P : a -> X
            rule RuleException:
              ()
            <=
              P : ^Any,
              exception(Any)
            end
            """
        )
        # matched input: the fallback does not fire
        result = program.run([tree("a", atom(1))])
        assert result.ids_of("Out") == ["o1"]
        # unmatched input: the fallback fires and raises
        with pytest.raises(UnconvertedDataError):
            program.run([tree("b", atom(1))])

    def test_fallback_only_on_leftovers(self):
        program = parse_program(
            """
            program WithException
            rule Convert:
              Out(X) : copy -> X
            <=
              P : a -> X
            rule RuleException:
              ()
            <=
              P : ^Any,
              exception(Any)
            end
            """
        )
        result = program.run([tree("a", atom(1)), tree("a", atom(2))])
        assert len(result.ids_of("Out")) == 2


class TestResultApi:
    def test_ids_in_creation_order(self, brochures_program, brochure_b1, brochure_b2):
        result = brochures_program.run([brochure_b1, brochure_b2])
        assert result.ids_of("Pcar") == ["c1", "c2"]
        assert len(result.store) == 4

    def test_store_input_forms(self, brochures_program, brochure_b1):
        # single tree, list of trees, and DataStore all accepted
        single = brochures_program.run(brochure_b1)
        listed = brochures_program.run([brochure_b1])
        stored = brochures_program.run(DataStore({"b1": brochure_b1}))
        for result in (single, listed, stored):
            assert result.ids_of("Psup") == ["s1"]
