"""Customization by instantiation (Section 4.1): the WebCar derivation."""

import pytest

from repro.core import parse_pattern_tree
from repro.core.patterns import (
    STAR,
    NameTerm,
    PNode,
    Pattern,
    PRefLeaf,
    walk,
    walk_edges,
)
from repro.core.variables import Var
from repro.errors import CustomizationError
from repro.yatl.customize import Renamer, derive_rule, instantiate_program


class TestRenamer:
    def test_fresh_avoids_reserved(self):
        renamer = Renamer({"T", "T1"})
        assert renamer.fresh("T") == "T2"

    def test_unreserved_kept(self):
        assert Renamer(set()).fresh("T") == "T"

    def test_sequence(self):
        renamer = Renamer(set())
        assert [renamer.fresh("S") for _ in range(3)] == ["S", "S1", "S2"]


class TestWebCarDerivation:
    """The paper's rule WebCar, derived from the Web program and Pcar."""

    @pytest.fixture
    def webcar(self, web_program, car_schema):
        pcar = car_schema.pattern("Pcar")
        return derive_rule(
            web_program, pcar, pcar.alternatives[0], name="WebCar"
        )

    def test_head_functor_and_parameter(self, webcar):
        assert webcar.head.term == NameTerm("HtmlPage", [Var("Pcar")])

    def test_labels_constant_folded(self, webcar):
        """att_label('name') evaluated at instantiation time."""
        labels = {
            node.label
            for node in walk(webcar.head.tree)
            if isinstance(node, PNode) and isinstance(node.label, str)
        }
        assert {"name: ", "desc: ", "suppliers: "} <= labels

    def test_suppliers_keep_star_edge(self, webcar):
        star_edges = [e for e in walk_edges(webcar.head.tree) if e.kind == STAR]
        assert len(star_edges) == 1  # the ul *-> li of the suppliers list

    def test_anchor_references_supplier_page(self, webcar):
        refs = [
            node for node in walk(webcar.head.tree) if isinstance(node, PRefLeaf)
        ]
        assert len(refs) == 1
        assert refs[0].target.functor == "HtmlPage"
        assert refs[0].target.args == (Var("Psup"),)

    def test_incomplete_psup_pattern_in_body(self, webcar):
        """'an incomplete Psup pattern which has been obtained through
        instantiation of rule Web6' (footnote 3)."""
        names = [bp.name.name for bp in webcar.body]
        assert names == ["Pcar", "Psup"]
        psup_tree = webcar.body[1].tree
        assert str(psup_tree.label) == "class"

    def test_data_to_string_calls_carried_with_renaming(self, webcar):
        calls = [c for c in webcar.calls if c.function == "data_to_string"]
        assert len(calls) == 2
        result_names = {c.result.name for c in calls}
        assert len(result_names) == 2  # renamed apart (T -> T1 style)

    def test_no_att_label_calls_remain(self, webcar):
        assert all(c.function != "att_label" for c in webcar.calls)


class TestEquivalence:
    def test_instantiated_program_equivalent(self, web_program, car_schema,
                                             golf_store):
        specialized = instantiate_program(web_program, car_schema)
        general = web_program.run(golf_store)
        special = specialized.run(golf_store)

        def pages(result):
            return sorted(
                str(result.store.materialize(i)) for i in result.ids_of("HtmlPage")
            )

        assert pages(general) == pages(special)

    def test_larger_store_equivalence(self, web_program, car_schema):
        from repro.wrappers.odmg import OdmgImportWrapper
        from repro.workloads import car_object_store

        objects = car_object_store(cars=6, suppliers=4)
        store = OdmgImportWrapper().to_store(objects)
        specialized = instantiate_program(web_program, car_schema)
        general = web_program.run(store)
        special = specialized.run(store)
        assert len(general.ids_of("HtmlPage")) == len(special.ids_of("HtmlPage"))


class TestCustomizationWorkflow:
    def test_new_webcar_drops_suppliers(self, web_program, car_schema, golf_store):
        """The paper's rule newWebCar: rewrite the derived rule to stop
        displaying suppliers, then run the customized program."""
        from repro.yatl.ast import HeadPattern, Rule

        pcar = car_schema.pattern("Pcar")
        webcar = derive_rule(web_program, pcar, pcar.alternatives[0],
                             name="WebCar")

        # drop the third li (suppliers) from the head's ul, and the
        # Psup body pattern that only served the anchor
        def drop_suppliers(node):
            if isinstance(node, PNode):
                edges = []
                for edge in node.edges:
                    target = edge.target
                    if (
                        isinstance(target, PNode)
                        and str(target.label) == "li"
                        and target.edges
                        and isinstance(target.edges[0].target, PNode)
                        and target.edges[0].target.label == "suppliers: "
                    ):
                        continue
                    edges.append(edge.with_target(drop_suppliers(target)))
                return PNode(node.label, edges)
            return node

        new_webcar = Rule(
            "newWebCar",
            HeadPattern(webcar.head.term, drop_suppliers(webcar.head.tree)),
            [bp for bp in webcar.body if bp.name.name == "Pcar"],
            webcar.predicates,
            webcar.calls,
        )
        from repro.yatl.program import Program

        program = Program("NewWebCar", [new_webcar],
                          registry=web_program.registry)
        result = program.run(golf_store)
        page = result.trees_of("HtmlPage")[0]
        assert not page.find_all(
            __import__("repro.core.labels", fromlist=["Symbol"]).Symbol("a")
        )

    def test_combined_with_general_program(self, web_program, car_schema,
                                           golf_store):
        """Section 4.2: the specialized rule combined with the general
        program; the car uses the specific rule, the supplier the
        general ones."""
        pcar = car_schema.pattern("Pcar")
        specialized = instantiate_program(web_program, pcar, name="CarOnly")
        combined = specialized.combined_with(web_program)
        result = combined.run(golf_store)
        assert len(result.ids_of("HtmlPage")) == 2


class TestErrors:
    def test_inapplicable_pattern_raises(self, web_program):
        pattern = Pattern("Weird", [parse_pattern_tree("row -> x -> Y")])
        with pytest.raises(CustomizationError):
            derive_rule(web_program, pattern, pattern.alternatives[0])

    def test_instantiate_program_requires_a_hit(self, web_program):
        pattern = Pattern("Weird", [parse_pattern_tree("row -> x -> Y")])
        with pytest.raises(CustomizationError):
            instantiate_program(web_program, pattern)
