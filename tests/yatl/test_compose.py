"""Program composition (Section 4.3)."""

import pytest

from repro.core.labels import Symbol
from repro.core.patterns import NameTerm, PNode, PRefLeaf, walk
from repro.core.trees import atom, tree
from repro.core.variables import Var
from repro.errors import CompositionError
from repro.yatl.compose import compose_programs
from repro.yatl.parser import parse_program


@pytest.fixture
def composed(brochures_program, web_program):
    return compose_programs(brochures_program, web_program, name="SgmlToHtml")


class TestComposedRules:
    def test_two_rules_produced(self, composed):
        assert len(composed.rules) == 2
        assert all(r.head.term.functor == "HtmlPage" for r in composed.rules)

    def test_supplier_rule_keyed_by_sn(self, composed):
        """The composed Rule1+WebSup creates pages keyed HtmlPage(SN)."""
        supplier_rule = composed.rules[0]
        assert supplier_rule.head.term == NameTerm("HtmlPage", [Var("SN")])

    def test_car_rule_keyed_by_brochure(self, composed):
        car_rule = composed.rules[1]
        assert car_rule.head.term.args[0].name == "Pbr"

    def test_paper_rule_2_plus_webcar(self, composed):
        """The composed car rule matches the paper's Rule (2+Webcar'):
        anchors &HtmlPage(SN), content 'supplier', brochure body."""
        car_rule = composed.rules[1]
        refs = [n for n in walk(car_rule.head.tree) if isinstance(n, PRefLeaf)]
        assert refs and refs[0].target == NameTerm("HtmlPage", [Var("SN")])
        # 'cont -> supplier' resolved to a constant through M2's Psup
        symbols = {
            node.label
            for node in walk(car_rule.head.tree)
            if isinstance(node, PNode) and isinstance(node.label, Symbol)
        }
        assert Symbol("supplier") in symbols
        assert [bp.name.name for bp in car_rule.body] == ["Pbr"]

    def test_predicates_carried(self, composed):
        supplier_rule = composed.rules[0]
        assert any(p.op == ">" for p in supplier_rule.predicates)

    def test_no_intermediate_functors(self, composed):
        """The composed program never mentions Pcar/Psup Skolems: no
        intermediate ODMG patterns are created."""
        for rule in composed.rules:
            for term, _ in rule.head.skolems if False else rule.head.skolem_occurrences():
                assert term.functor not in ("Pcar", "Psup")


class TestComposedSemantics:
    def test_equivalent_to_sequential(self, composed, brochures_program,
                                      web_program, brochure_b1, brochure_b2):
        inputs = [brochure_b1, brochure_b2]
        intermediate = brochures_program.run(inputs)
        sequential = web_program.run(intermediate.store)
        direct = composed.run(inputs)

        def pages(result):
            return sorted(
                str(result.store.materialize(i)) for i in result.ids_of("HtmlPage")
            )

        assert pages(sequential) == pages(direct)

    def test_no_odmg_output(self, composed, brochure_b1):
        result = composed.run([brochure_b1])
        assert not result.ids_of("Pcar") and not result.ids_of("Psup")

    def test_scales(self, composed):
        from repro.workloads import brochure_trees

        inputs = brochure_trees(20, distinct_suppliers=6)
        result = composed.run(inputs)
        # one page per brochure + one per distinct supplier
        assert len(result.ids_of("HtmlPage")) == 26


class TestCompositionErrors:
    def test_incompatible_programs_rejected(self, web_program):
        rows = parse_program(
            """
            program Rows
            rule R:
              Prow(X) : row -> value -> X
            <=
              P : a -> X
            end
            """
        )
        with pytest.raises(CompositionError):
            compose_programs(rows, web_program)

    def test_empty_composition_rejected(self):
        first = parse_program(
            """
            program A
            rule R:
              Pout(X) : weird -> X
            <=
              P : a -> X
            end
            """
        )
        second = parse_program(
            """
            program B
            rule S:
              Final(X) : out -> X
            <=
              Q : completely -> different -> X
            end
            """
        )
        with pytest.raises(CompositionError):
            compose_programs(first, second)


class TestSupportRules:
    def test_unspecializable_holes_keep_support_rules(self, web_program):
        """A prg1 head with an untyped hole keeps a run-time dereference;
        the prg2 rules defining it are carried into the composition."""
        first = parse_program(
            """
            program Holes
            rule R:
              Pobj(P) : class -> thing < -> payload -> ^V >
            <=
              P : a -> ^V
            end
            """
        )
        composed = compose_programs(first, web_program)
        names = composed.rule_names()
        assert any(name.startswith("O2Web.") for name in names)
        # and it runs: the hole is converted at run time
        result = composed.run([tree("a", atom("x"))])
        assert result.ids_of("HtmlPage")
