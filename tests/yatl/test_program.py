"""Program-level operations: rule management and combination."""

import pytest

from repro.core.trees import atom, tree
from repro.errors import EvaluationError
from repro.yatl.parser import parse_program, parse_rule


def simple_program(name="P", rule_name="R", head="Out(X) : o -> X",
                   body="B : a -> X"):
    return parse_program(f"program {name}\nrule {rule_name}:\n {head}\n<=\n {body}\nend")


class TestRuleManagement:
    def test_add_duplicate_rejected(self):
        program = simple_program()
        with pytest.raises(EvaluationError):
            program.add_rule(program.rules[0])

    def test_rule_lookup(self):
        program = simple_program()
        assert program.rule("R").name == "R"
        with pytest.raises(EvaluationError):
            program.rule("Nope")

    def test_remove_and_replace(self):
        program = simple_program()
        replacement = parse_rule("rule R: Out(X) : changed -> X <= B : a -> X")
        program.replace_rule("R", replacement)
        assert str(program.rule("R").head.tree.label) == "changed"
        removed = program.remove_rule("R")
        assert removed is replacement and len(program) == 0

    def test_enforce_order_validates_names(self):
        program = simple_program()
        with pytest.raises(EvaluationError):
            program.enforce_order("R", "Nope")


class TestCombination:
    def test_union_of_rules(self):
        a = simple_program("A", "R1")
        b = simple_program("B", "R2", head="Out2(X) : o2 -> X")
        combined = a.combined_with(b)
        assert set(combined.rule_names()) == {"R1", "R2"}

    def test_identical_shared_rule_deduplicated(self):
        a = simple_program("A", "R1")
        b = simple_program("B", "R1")
        combined = a.combined_with(b)
        assert combined.rule_names() == ["R1"]

    def test_conflicting_same_name_rejected(self):
        a = simple_program("A", "R1")
        b = simple_program("B", "R1", head="Out(X) : different -> X")
        with pytest.raises(EvaluationError):
            a.combined_with(b)

    def test_registries_merged(self):
        a = simple_program("A", "R1")
        b = simple_program("B", "R2", head="Out2(X) : o2 -> X")
        a.registry.register("only_in_a", lambda: 1)
        b.registry.register("only_in_b", lambda: 2)
        combined = a.combined_with(b)
        assert combined.registry.has("only_in_a")
        assert combined.registry.has("only_in_b")

    def test_combined_runs(self):
        a = simple_program("A", "R1")
        b = simple_program("B", "R2", head="Out2(X) : o2 -> X",
                           body="B : b -> X")
        combined = a.combined_with(b)
        result = combined.run([tree("a", atom(1)), tree("b", atom(2))])
        assert result.ids_of("Out") and result.ids_of("Out2")


class TestValidationOnRun:
    def test_validation_runs_by_default(self):
        program = parse_program(
            """
            program Cyclic
            rule A:
              F(P) : wrap -> G(P)
            <=
              P : a -> X
            rule B:
              G(P) : wrap -> F(P)
            <=
              P : a -> X
            end
            """
        )
        from repro.errors import CyclicProgramError

        with pytest.raises(CyclicProgramError):
            program.run([tree("a", atom(1))])

    def test_validation_can_be_skipped(self):
        program = simple_program()
        result = program.run([tree("a", atom(1))], validate=False)
        assert result.ids_of("Out")
