"""End-to-end observability: the car-dealer pipeline under metrics.

The instrumentation must be *invisible* (byte-identical conversion
output) while accounting the run faithfully — rule applications,
dispatch pruning, Skolem identity, wrapper volumes.
"""

import pytest

from repro import YatSystem
from repro.core.trees import DataStore
from repro.obs import MetricsRegistry, SpanRecorder, collecting, recording
from repro.yatl.trace import explain

from ..conftest import make_brochure


@pytest.fixture
def brochure_store(brochure_b1, brochure_b2):
    return DataStore({"b1": brochure_b1, "b2": brochure_b2})


class TestConversionResultMetrics:
    def test_result_carries_a_registry(self, brochures_program, brochure_store):
        result = brochures_program.run(brochure_store)
        assert isinstance(result.metrics, MetricsRegistry)

    def test_rule_and_phase_counts(self, brochures_program, brochure_store):
        metrics = brochures_program.run(brochure_store).metrics
        # Rule 1 matches both brochures (years 1995 and 1997 > 1975):
        # one binding per (brochure, supplier) pair = 3.
        assert metrics.value("yatl.rule.applications", rule="Rule1") == 1
        assert metrics.value("yatl.rule.bindings_matched", rule="Rule1") == 3
        assert metrics.value("yatl.rule.bindings_after_predicates", rule="Rule1") == 3
        assert metrics.value("yatl.rule.outputs", rule="Rule1") == 2  # 2 cars
        assert metrics.value("yatl.rule.outputs", rule="Rule2") == 2  # 2 suppliers
        assert metrics.value("yatl.inputs.total") == 2
        assert metrics.value("yatl.inputs.converted") == 2
        assert metrics.value("yatl.outputs.trees") == 4

    def test_rule_predicate_filtering_is_counted(
        self, brochures_program, brochure_b1
    ):
        old = make_brochure(
            3, "Beetle", 1960, "A classic", [("VW center", "Paris")]
        )
        store = DataStore({"b1": brochure_b1, "b3": old})
        metrics = brochures_program.run(store).metrics
        matched = metrics.value("yatl.rule.bindings_matched", rule="Rule1")
        kept = metrics.value("yatl.rule.bindings_after_predicates", rule="Rule1")
        assert matched == 2 and kept == 1  # Year > 1975 filters the Beetle

    def test_skolem_accounting(self, brochures_program, brochure_store):
        metrics = brochures_program.run(brochure_store).metrics
        # 4 outputs = 4 fresh ids; the shared "VW center" supplier and
        # the references from cars to suppliers reuse existing ids.
        assert metrics.value("yatl.skolem.ids_fresh") == 4
        assert metrics.value("yatl.skolem.ids_reused") > 0
        assert metrics.value("yatl.skolem.table_size") == 4

    def test_dispatch_accounting(self, brochures_program, brochure_store):
        metrics = brochures_program.run(brochure_store).metrics
        assert metrics.value("yatl.dispatch.indexed_calls") == 2  # 2 rules
        assert metrics.value("yatl.dispatch.subjects_considered") == 4
        assert metrics.value("yatl.dispatch.subjects_admitted") == 4
        assert metrics.value("yatl.dispatch.hit_ratio") == 1.0

    def test_output_is_byte_identical_under_observation(
        self, brochures_program, brochure_store
    ):
        plain = brochures_program.run(brochure_store)
        with collecting(MetricsRegistry()), recording(SpanRecorder()):
            observed = brochures_program.run(brochure_store)
        assert list(plain.store.items()) == list(observed.store.items())
        assert repr(plain.store) == repr(observed.store)


class TestSystemPipeline:
    def test_pipeline_aggregates_into_the_system_registry(self):
        from repro.objectdb import car_dealer_schema
        from repro.workloads import brochure_elements

        system = YatSystem()
        documents = brochure_elements(1, distinct_suppliers=1)
        objects = system.translate_to_objects(
            system.import_program("SgmlBrochuresToOdmg"),
            car_dealer_schema(),
            sgml_documents=documents,
        )
        assert len(objects) == 2  # 1 car + 1 supplier
        metrics = system.metrics
        assert metrics.value("wrapper.import.trees", source="sgml") == 1
        assert metrics.value("wrapper.export.objects", source="odmg") == 2
        assert metrics.value("system.merge.stores") == 1
        assert metrics.value("yatl.rule.applications", rule="Rule1") == 1
        assert metrics.value("yatl.outputs.trees") == 2

    def test_merge_renames_are_counted(self):
        from repro.core.trees import tree

        system = YatSystem()
        a = DataStore({"x": tree("a")})
        b = DataStore({"x": tree("b")})
        merged = system.merge_stores(a, b)
        assert len(merged) == 2
        assert system.metrics.value("system.merge.renames") == 1

    def test_html_pipeline_records_bytes(self, golf_store, web_program):
        system = YatSystem()
        result = system.run(web_program, golf_store)
        pages = system.export_html(result)
        metrics = system.metrics
        assert metrics.value("wrapper.export.pages", source="html") == len(pages)
        total = sum(len(t.encode("utf-8")) for t in pages.values())
        assert metrics.value("wrapper.export.bytes", source="html") == total


class TestSpansIntegration:
    def test_run_produces_a_span_hierarchy(
        self, brochures_program, brochure_store
    ):
        with recording() as recorder:
            brochures_program.run(brochure_store)
        [run] = recorder.find("yatl.run")
        rules = recorder.find("yatl.rule")
        # One run is one yatl.run span over the rule spans.
        assert rules and all(r.parent_id == run.span_id for r in rules)
        assert {r.args["rule"] for r in rules} == {"Rule1", "Rule2"}
        phase_names = {s.name for s in recorder.spans()}
        assert {"yatl.phase.match", "yatl.phase.construct", "yatl.splice"} \
            <= phase_names


class TestExplainDelegation:
    def test_explain_counts_match_result_metrics(
        self, brochures_program, brochure_store
    ):
        trace = explain(brochures_program, brochure_store)
        direct = brochures_program.run(brochure_store).metrics
        for rule in ("Rule1", "Rule2"):
            assert trace.rules[rule].matched == direct.value(
                "yatl.rule.bindings_matched", rule=rule
            )
            assert trace.rules[rule].applications == direct.value(
                "yatl.rule.applications", rule=rule
            )
        # explain's registry is the run's registry, not a re-evaluation
        assert trace.metrics.value("yatl.outputs.trees") == 4
        assert len(trace.result.store) == 4
