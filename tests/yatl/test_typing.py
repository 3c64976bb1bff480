"""Typing (Section 3.5): signature inference and model checks."""

import pytest

from repro.core.models import odmg_model, sgml_model, yat_model
from repro.core.patterns import PNode, walk
from repro.core.variables import INT, STRING, Var
from repro.errors import TypingError
from repro.yatl.parser import parse_program
from repro.yatl.typing import (
    check_input_against,
    check_output_against,
    compatible_for_composition,
    refine_domains,
)


class TestDomainRefinement:
    def test_function_signatures_refine(self, brochures_program):
        rule1 = brochures_program.rule("Rule1")
        domains = refine_domains(rule1, brochures_program.registry)
        # "The type of Add is given by the signature of functions city
        # and zip, that of Year by the '>' predicate."
        assert domains["Add"] == STRING
        assert domains["C"] == STRING  # city's result domain
        assert domains["Year"] == INT

    def test_no_registry_predicates_only(self, brochures_program):
        rule1 = brochures_program.rule("Rule1")
        domains = refine_domains(rule1, None)
        assert "Year" in domains and "Add" not in domains


class TestSignatureInference:
    def test_paper_example(self, brochures_program):
        """'The input model of the program consists of the single
        brochure pattern Pbr ... The output model consists of two
        patterns Pcar and Psup'."""
        signature = brochures_program.signature()
        assert signature.input_model.pattern_names() == ["Pbr"]
        assert set(signature.output_model.pattern_names()) == {"Pcar", "Psup"}

    def test_refinements_applied_to_input(self, brochures_program):
        signature = brochures_program.signature()
        pbr = signature.input_model.pattern("Pbr")
        year_vars = [
            node.label
            for alt in pbr.alternatives
            for node in walk(alt)
            if isinstance(node, PNode)
            and isinstance(node.label, Var)
            and node.label.name == "Year"
        ]
        assert any(v.domain == INT for v in year_vars)

    def test_identical_bodies_merge(self, brochures_program):
        signature = brochures_program.signature()
        # Rules 1 and 2 share the same Pbr body: one alternative only
        assert len(signature.input_model.pattern("Pbr").alternatives) == 1


class TestModelChecks:
    def test_output_against_odmg(self, brochures_program):
        """'the user may check that a program generates car and supplier
        objects compliant with ... the ODMG model'."""
        signature = brochures_program.signature()
        check_output_against(signature, yat_model())
        check_output_against(signature, odmg_model())
        assert compatible_for_composition(signature.output_model, odmg_model())

    def test_input_against_sgml(self, brochures_program):
        signature = brochures_program.signature()
        check_input_against(signature, sgml_model())

    def test_wrong_model_rejected(self, brochures_program):
        from repro.core.models import relational_model

        signature = brochures_program.signature()
        with pytest.raises(TypingError):
            check_output_against(signature, relational_model())

    def test_program_check_models(self, brochures_program):
        brochures_program.input_model = sgml_model()
        brochures_program.output_model = yat_model()
        brochures_program.check_models()

    def test_program_check_models_failure(self, brochures_program):
        from repro.core.models import relational_model

        brochures_program.input_model = relational_model()
        with pytest.raises(TypingError):
            brochures_program.check_models()


class TestCompositionCompatibility:
    def test_paper_composition_compatible(self, brochures_program, web_program):
        signature = brochures_program.signature()
        assert compatible_for_composition(
            signature.output_model, web_program.input_model
        )

    def test_incompatible_shapes(self, web_program):
        program = parse_program(
            """
            program RowsOnly
            rule R:
              Prow(X) : row -> value -> X
            <=
              P : a -> X
            end
            """
        )
        signature = program.signature()
        assert not compatible_for_composition(
            signature.output_model, web_program.input_model
        )
