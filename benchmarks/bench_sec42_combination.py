"""Experiment C1 — Section 4.2: combined programs and rule hierarchies.

"For a given input pattern, the more specific rules (leaves in the
hierarchy) matching the input are applied first."

Combines the WebCar specialization with the general Web program and
measures (a) hierarchy construction cost as the rule count grows and
(b) run-time dispatch overhead of combined vs. plain programs, checking
the specific rule wins on car objects while suppliers keep the general
rendering.
"""

import pytest

from repro.core.models import car_schema_model
from repro.wrappers import OdmgImportWrapper
from repro.workloads import car_object_store
from repro.yatl.hierarchy import Hierarchy
from repro.yatl.parser import parse_rule


@pytest.fixture(scope="module")
def combined(web_program):
    specialized = web_program.instantiated_on(
        car_schema_model().pattern("Pcar"), name="CarOnly"
    )
    return specialized.combined_with(web_program)


def test_sec42_specific_rule_wins(combined, web_program):
    objects = car_object_store(cars=3, suppliers=2)
    store = OdmgImportWrapper().to_store(objects)
    result = combined.run(store)
    # one page per object; the car pages were produced by the derived
    # rule (same output here, but dispatch went through the hierarchy)
    assert len(result.ids_of("HtmlPage")) == 5
    hierarchy = combined.hierarchy()
    [derived_name] = [n for n in combined.rule_names() if "Pcar" in n]
    assert hierarchy.is_more_specific(derived_name, "Web1")


@pytest.mark.parametrize("rules", [6, 20, 60])
def test_sec42_hierarchy_construction(benchmark, web_program, rules):
    """Hierarchy construction is quadratic in the rule count; measure it."""
    base = list(web_program.rules)
    extra = []
    for index in range(rules - len(base)):
        extra.append(
            parse_rule(
                f"rule Extra{index}:\n"
                f"  HtmlElement(Pcoll) : pre{index} *-> li -> HtmlElement(P2)\n"
                f"<=\n"
                f"  Pcoll : kind{index} < *-> ^P2 >"
            )
        )
    all_rules = base + extra
    hierarchy = benchmark(Hierarchy, all_rules)
    assert hierarchy.specific_first()


@pytest.mark.parametrize("program_kind", ["plain", "combined"])
def test_sec42_dispatch_overhead(benchmark, web_program, combined, program_kind):
    """Run-time cost of dispatching through the larger combined rule set
    versus the plain general program, on the same input."""
    objects = car_object_store(cars=50, suppliers=10)
    store = OdmgImportWrapper().to_store(objects)
    program = web_program if program_kind == "plain" else combined
    result = benchmark(program.run, store)
    assert len(result.ids_of("HtmlPage")) == 60


def test_sec42_enforced_order():
    """The user may force rule order, transgressing declarativity."""
    from repro.core.trees import atom, tree

    program_text = """
    program Enforced
    rule A:
      F(P) : from_a
    <=
      P : x -> V
    rule B:
      F(P) : from_b
    <=
      P : x -> V
    hierarchy A under B
    end
    """
    from repro.yatl.parser import parse_program

    program = parse_program(program_text)
    result = program.run([tree("x", atom(1))])
    assert [str(t.label) for t in result.trees_of("F")] == ["from_a"]
