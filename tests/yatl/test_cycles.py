"""Cycle detection (Section 3.4)."""

import pytest

from repro.errors import CyclicProgramError
from repro.yatl.cycles import (
    analyze_cycles,
    dereference_dependencies,
    find_cycles,
    is_safe_recursive,
)
from repro.yatl.parser import parse_program


def rules_of(text):
    return parse_program(text).rules


class TestDependencyGraph:
    def test_references_not_in_graph(self, brochures_program):
        """Rules 1'/2 with & references: no dereference dependencies."""
        graph = dereference_dependencies(brochures_program.rules)
        assert graph == {"Psup": set(), "Pcar": set()}

    def test_deref_recorded(self):
        rules = rules_of(
            """
            program P
            rule R:
              A(P) : holder -> B(X)
            <=
              P : a -> ^X
            end
            """
        )
        graph = dereference_dependencies(rules)
        assert graph["A"] == {"B"}

    def test_web_program_self_loop(self, web_program):
        graph = dereference_dependencies(web_program.rules)
        assert "HtmlElement" in graph["HtmlElement"]
        assert "HtmlElement" in graph["HtmlPage"]


class TestFindCycles:
    def test_acyclic(self):
        assert find_cycles({"A": {"B"}, "B": set()}) == []

    def test_self_loop(self):
        assert find_cycles({"A": {"A"}}) == [["A"]]

    def test_two_cycle(self):
        assert find_cycles({"A": {"B"}, "B": {"A"}}) == [["A", "B"]]

    def test_ignores_edges_to_unknown(self):
        assert find_cycles({"A": {"Missing"}}) == []


class TestSafeRecursion:
    def test_web_program_accepted(self, web_program):
        report = web_program.validate()
        assert report.cycles and report.is_acceptable

    def test_paper_cyclic_variant_rejected(self):
        """Removing the & from Rules 1'/2 creates the cycle the paper
        rejects: Psup and Pcar dereference each other on non-subtrees."""
        program = parse_program(
            """
            program Cyclic
            rule Rule1p:
              Psup(SN) :
                class -> supplier < -> name -> SN, -> sells -> set {}-> Pcar(Pbr) >
            <=
              Pbr : brochure < -> number -> Num,
                               -> spplrs *-> supplier -> name -> SN >
            rule Rule2:
              Pcar(Pbr) :
                class -> car -> suppliers -> set {}-> Psup(SN)
            <=
              Pbr : brochure < -> number -> Num,
                               -> spplrs *-> supplier -> name -> SN >
            end
            """
        )
        report = program.analyze_cycles()
        assert report.cycles == [["Pcar", "Psup"]]
        assert not report.is_acceptable
        with pytest.raises(CyclicProgramError):
            program.validate()

    def test_safe_recursion_requires_subtree_argument(self):
        # recursive call on the *whole* input, not a proper subtree
        rules = rules_of(
            """
            program P
            rule R:
              A(P) : wrap -> A(P)
            <=
              P : a -> ^X
            end
            """
        )
        report = analyze_cycles(rules)
        assert not report.is_acceptable
        assert "proper subtree" in report.violations[0]

    def test_safe_recursion_requires_single_param(self):
        rules = rules_of(
            """
            program P
            rule R:
              A(X, Y) : wrap -> A(X, Y)
            <=
              P : a < -> b -> X, -> c -> Y >
            end
            """
        )
        report = analyze_cycles(rules)
        assert not report.is_acceptable

    def test_subtree_recursion_accepted(self):
        rules = rules_of(
            """
            program P
            rule R:
              A(P) : wrap *-> A(X)
            <=
              P : list *-> ^X
            end
            """
        )
        report = analyze_cycles(rules)
        assert report.cycles == [["A"]]
        assert report.is_acceptable

    def test_is_safe_recursive_direct(self):
        [rule] = rules_of(
            """
            program P
            rule R:
              A(P) : wrap *-> A(X)
            <=
              P : list *-> ^X
            end
            """
        )
        safe, reason = is_safe_recursive(rule, {"A"})
        assert safe and reason == ""

    def test_acyclic_program_trivially_acceptable(self, brochures_program):
        report = brochures_program.validate()
        assert not report.cycles
