"""The printer: re-parseable output for rules, programs and models."""

from repro.core.models import odmg_model, sgml_model
from repro.library import o2web_program, sgml_brochures_to_odmg
from repro.library.store import render_model
from repro.yatl.parser import parse_program
from repro.yatl.printer import render_program, render_rule


class TestRenderRule:
    def test_contains_all_parts(self, brochures_program):
        text = render_rule(brochures_program.rule("Rule1"))
        assert "rule Rule1:" in text
        assert "Psup(SN)" in text
        assert "<=" in text
        assert "Year > 1975" in text
        assert "C is city(Add)" in text

    def test_empty_head(self):
        from repro.yatl.parser import parse_rule

        rule = parse_rule("rule E: () <= P : ^Any, exception(Any)")
        text = render_rule(rule)
        assert "()" in text and "exception(Any)" in text


class TestRenderProgram:
    def test_models_serialized(self):
        program = sgml_brochures_to_odmg()
        text = render_program(program)
        assert "input model SGML {" in text
        assert "output model ODMG {" in text
        reparsed = parse_program(text)
        assert reparsed.input_model is not None
        assert set(reparsed.input_model.pattern_names()) == {"Pelement"}
        assert set(reparsed.output_model.pattern_names()) == {"Pclass", "Ptype"}

    def test_models_round_trip_semantically(self):
        program = sgml_brochures_to_odmg()
        reparsed = parse_program(render_program(program))
        assert reparsed.input_model.is_instance_of(sgml_model())
        assert sgml_model().is_instance_of(reparsed.input_model)

    def test_hierarchy_clauses_serialized(self):
        program = parse_program(
            """
            program P
            rule A: F(X) : a <= B : x -> X
            rule C: F(X) : c <= B : x -> X
            hierarchy A under C
            end
            """
        )
        reparsed = parse_program(render_program(program))
        assert reparsed.enforced_order == [("A", "C")]

    def test_double_round_trip_fixpoint(self):
        """render(parse(render(p))) == render(p): the printer is stable."""
        program = o2web_program()
        once = render_program(program)
        twice = render_program(
            parse_program(once, registry=program.registry)
        )
        assert once == twice


class TestRenderModel:
    def test_reparseable(self):
        from repro.core.syntax import parse_model

        text = render_model(odmg_model())
        model = parse_model(text)
        assert model.is_instance_of(odmg_model())
        assert odmg_model().is_instance_of(model)

    def test_union_patterns_preserved(self):
        from repro.core.syntax import parse_model

        model = parse_model(render_model(odmg_model()))
        assert len(model.pattern("Ptype").alternatives) == len(
            odmg_model().pattern("Ptype").alternatives
        )
