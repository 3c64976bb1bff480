"""Provenance: per-firing records, lineage queries, sampling, ambient store."""

import pytest

from repro import YatSystem
from repro.core.trees import DataStore, tree
from repro.library.programs import BROCHURES_TEXT
from repro.obs import (
    EventLog,
    ProvenanceStore,
    SpanRecorder,
    ambient_provenance,
    current_span_id,
    recording,
    span,
    stamp_inputs,
    tracing,
)
from repro.obs.provenance import MERGE_RULE
from repro.objectdb import car_dealer_schema
from repro.workloads import brochure_elements, brochure_trees
from repro.yatl.parser import parse_program


def chain_store():
    """d1 --Rule1--> c1 --Rule2--> h1, plus an unrelated firing."""
    store = ProvenanceStore()
    store.stamp_input("d1", "sgml")
    store.record_firing("c1", "Rule1", inputs=["d1"], program="P1")
    store.record_firing("h1", "Rule2", inputs=["c1"], program="P2")
    store.record_firing("x1", "Rule3", inputs=["y1"], program="P1")
    return store


class TestRecording:
    def test_record_firing_keeps_counters_and_origins(self):
        store = ProvenanceStore()
        assert store.record_firing("c1", "Rule1", inputs=["d1", "d2"]) is True
        assert store.firings == 1
        assert store.recorded == 1
        assert store.origins_of("c1") == {"d1", "d2"}

    def test_records_materialize_lazily(self):
        store = ProvenanceStore()
        store.record_firing("c1", "Rule1", inputs=["d2", "d1"])
        assert len(store) == 1  # pending capture counts
        [record] = store.records_of("c1")
        assert record.output == "c1"
        assert record.rule == "Rule1"
        assert record.inputs == ("d1", "d2")  # sorted at materialization
        assert len(store) == 1

    def test_skolem_callable_is_deferred(self):
        calls = []

        def render():
            calls.append(1)
            return "car(1)"

        store = ProvenanceStore()
        store.record_firing("c1", "Rule1", inputs=[], skolem=render)
        assert calls == []  # not rendered on the hot path
        [record] = store.records_of("c1")
        assert record.skolem == "car(1)"
        assert calls == [1]

    def test_inputs_are_snapshotted_not_aliased(self):
        # The interpreter passes a live, still-mutated origins set.
        live = {"d1"}
        store = ProvenanceStore()
        store.record_firing("c1", "Rule1", inputs=live)
        live.add("d2")
        assert store.records_of("c1")[0].inputs == ("d1",)

    def test_span_ids_join_the_trace(self):
        store = ProvenanceStore()
        recorder = SpanRecorder()
        with recording(recorder), span("convert"):
            open_span_id = current_span_id()
            store.record_firing("c1", "Rule1", inputs=[])
        [record] = store.records_of("c1")
        assert record.span_id == open_span_id is not None
        assert record.trace_id == recorder.trace_id

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            ProvenanceStore(sample_rate=1.5)
        with pytest.raises(ValueError):
            ProvenanceStore(sample_rate=-0.1)


class TestSampling:
    def test_stride_keeps_the_requested_fraction(self):
        store = ProvenanceStore(sample_rate=0.25)
        kept = sum(
            store.record_firing(f"c{i}", "R", inputs=[f"d{i}"])
            for i in range(100)
        )
        assert kept == 25
        assert store.firings == 100
        assert store.recorded == 25
        assert len(store.records()) == 25

    def test_rate_zero_records_nothing_but_origins_stay_exact(self):
        store = ProvenanceStore(sample_rate=0.0)
        for i in range(10):
            assert store.record_firing("c", "R", inputs=[f"d{i}"]) is False
        assert store.firings == 10
        assert store.recorded == 0
        assert store.records() == []
        assert store.origins_of("c") == {f"d{i}" for i in range(10)}

    def test_sampling_is_deterministic(self):
        def kept_mask():
            store = ProvenanceStore(sample_rate=0.3)
            return [
                store.record_firing(f"c{i}", "R", inputs=[]) for i in range(20)
            ]

        assert kept_mask() == kept_mask()

    def test_aliases_are_never_sampled_out(self):
        store = ProvenanceStore(sample_rate=0.0)
        record = store.alias("x@1", "x")
        assert record.rule == MERGE_RULE
        assert store.records_of("x@1") == [record]


class TestQueries:
    def test_backward_walks_the_whole_chain(self):
        store = chain_store()
        chain = store.backward("h1")
        assert [(r.output, r.rule) for r in chain] == [
            ("h1", "Rule2"), ("c1", "Rule1"),
        ]

    def test_backward_of_unknown_node_is_empty(self):
        assert chain_store().backward("nope") == []

    def test_forward_reaches_transitive_outputs(self):
        assert chain_store().forward("d1") == {"c1", "h1"}

    def test_leaves_bottom_out_at_unproduced_nodes(self):
        store = chain_store()
        assert store.leaves("h1") == {"d1"}
        assert store.source_of("d1") == "sgml"
        # A node nothing produced is its own leaf.
        assert store.leaves("d1") == {"d1"}

    def test_round_trip_forward_of_leaf_contains_the_output(self):
        store = chain_store()
        for leaf in store.leaves("h1"):
            assert "h1" in store.forward(leaf)

    def test_consumers_of(self):
        store = chain_store()
        assert [r.output for r in store.consumers_of("c1")] == ["h1"]

    def test_nodes_cover_outputs_inputs_and_stamps(self):
        store = chain_store()
        assert store.nodes() >= {"d1", "c1", "h1", "x1", "y1"}

    def test_cycle_does_not_hang_queries(self):
        store = ProvenanceStore()
        store.record_firing("a", "R1", inputs=["b"])
        store.record_firing("b", "R2", inputs=["a"])
        assert len(store.backward("a")) == 2
        assert store.forward("a") == {"a", "b"}
        assert store.leaves("a") == set()


class TestAliasAndMerge:
    def test_alias_connects_chains_across_renames(self):
        store = ProvenanceStore()
        store.record_firing("c1", "Rule1", inputs=["x"])
        store.alias("x", "d1")  # merge_stores renamed d1 -> x
        chain = store.backward("c1")
        assert [(r.output, r.rule) for r in chain] == [
            ("c1", "Rule1"), ("x", MERGE_RULE),
        ]
        assert store.leaves("c1") == {"d1"}


class TestExports:
    def test_to_json_shape(self):
        payload = chain_store().to_json()
        assert payload["firings"] == 3
        assert payload["recorded"] == 3
        assert payload["sources"] == {"d1": "sgml"}
        assert payload["origins"]["h1"] == ["c1"]
        [first, second, third] = payload["records"]
        assert first == {
            "seq": 1, "output": "c1", "rule": "Rule1", "program": "P1",
            "inputs": ["d1"], "skolem": None, "span_id": None,
            "trace_id": None,
        }
        assert second["output"] == "h1"

    def test_to_dot_whole_graph_and_single_node(self):
        store = chain_store()
        whole = store.to_dot()
        assert '"d1" -> "c1" [label="Rule1"];' in whole
        assert '"y1" -> "x1" [label="Rule3"];' in whole
        assert 'label="d1\\n(sgml)"' in whole  # stamped leaf gets a box
        focused = store.to_dot("h1")
        assert '"d1" -> "c1"' in focused
        assert "x1" not in focused

    def test_events_mirror_kept_firings(self):
        events = EventLog()
        store = ProvenanceStore(sample_rate=0.5, events=events)
        for i in range(10):
            store.record_firing(
                f"c{i}", "Rule1", inputs=[f"d{i}"], program="P", skolem="k"
            )
        fired = events.events("rule.fired")
        assert len(fired) == store.recorded == 5
        sample = fired[0]
        assert sample["output"].startswith("c")
        assert sample["rule"] == "Rule1"
        assert sample["program"] == "P"
        assert sample["skolem"] == "k"
        assert {"seq", "ts_us", "inputs", "span_id", "trace_id"} <= set(sample)

    def test_alias_emits_a_merge_event(self):
        events = EventLog()
        store = ProvenanceStore(events=events)
        store.alias("x@1", "x")
        [event] = events.events(MERGE_RULE)
        assert event["output"] == "x@1"
        assert event["inputs"] == ["x"]


class TestAmbient:
    def test_tracing_installs_and_restores(self):
        assert ambient_provenance() is None
        with tracing() as store:
            assert ambient_provenance() is store
            with tracing(ProvenanceStore()) as inner:
                assert ambient_provenance() is inner
            assert ambient_provenance() is store
        assert ambient_provenance() is None

    def test_stamp_inputs_is_a_noop_without_a_store(self):
        store = DataStore({"d1": tree("a")})
        stamp_inputs(store, "sgml")  # must not raise

    def test_stamp_inputs_stamps_every_name(self):
        data = DataStore({"d1": tree("a"), "d2": tree("b")})
        with tracing() as provenance:
            stamp_inputs(data, "sgml")
        assert provenance.sources() == {"d1": "sgml", "d2": "sgml"}


SMALL = """
program Small

rule Copy:
  Pout(Id) :
    out < -> id -> Id >
<=
  Pin :
    doc < -> id -> Id >
end
"""


class TestInterpreterIntegration:
    def test_result_always_has_a_provenance_store(self):
        program = parse_program(BROCHURES_TEXT)
        result = program.run(brochure_trees(3, distinct_suppliers=2))
        assert result.provenance.firings == 0  # no recorder installed
        # Name-level origins are exact regardless (bare tree inputs
        # are auto-named in1, in2, ...).
        assert result.lineage("c1") == {"in1"}

    def test_ambient_store_collects_per_firing_records(self):
        program = parse_program(BROCHURES_TEXT)
        with tracing() as provenance:
            result = program.run(brochure_trees(3, distinct_suppliers=2))
        assert result.provenance is provenance
        assert provenance.firings == len(result.store)
        [record] = provenance.records_of("c1")
        assert record.rule == "Rule2"  # Rule2 builds the car objects
        assert record.program == program.name
        assert record.skolem  # rendered Skolem term
        assert set(record.inputs) == result.lineage("c1")

    def test_explicit_store_wins_over_ambient(self):
        program = parse_program(SMALL)
        explicit = ProvenanceStore()
        with tracing() as ambient:
            program.run([tree("doc", tree("id", 1))], provenance=explicit)
        assert explicit.firings == 1
        assert ambient.firings == 0

    def test_recording_does_not_change_the_output(self):
        program = parse_program(BROCHURES_TEXT)
        trees = brochure_trees(4, distinct_suppliers=2)
        plain = program.run(trees)
        with tracing():
            traced = program.run(trees)
        assert list(traced.store.items()) == list(plain.store.items())

    def test_sampled_run_keeps_exact_origins(self):
        program = parse_program(BROCHURES_TEXT)
        with tracing(ProvenanceStore(sample_rate=0.0)) as provenance:
            result = program.run(brochure_trees(3, distinct_suppliers=2))
        assert provenance.recorded == 0
        assert provenance.firings == len(result.store)
        assert result.lineage("c1") == {"in1"}

    def test_provenance_metrics_are_flushed(self):
        from repro.obs import MetricsRegistry, collecting

        program = parse_program(SMALL)
        registry = MetricsRegistry()
        with collecting(registry), tracing():
            program.run([tree("doc", tree("id", 1))])
        assert registry.value("yatl.provenance.firings") == 1
        assert registry.value("yatl.provenance.records") == 1


class TestSystemPipeline:
    """The Figure 1 car-dealer pipeline with a system-level store:
    lineage chains cross the program boundary."""

    @pytest.fixture()
    def traced_system(self):
        system = YatSystem(provenance=ProvenanceStore())
        objects = system.translate_to_objects(
            system.import_program("SgmlBrochuresToOdmg"),
            car_dealer_schema(),
            sgml_documents=brochure_elements(3, distinct_suppliers=2),
        )
        pages = system.publish_to_html(system.import_program("O2Web"), objects)
        return system, pages

    def test_backward_chain_crosses_programs_to_the_sgml_source(
        self, traced_system
    ):
        system, _pages = traced_system
        provenance = system.provenance
        chain = provenance.backward("h1")
        programs = [record.program for record in chain]
        assert "O2Web" in programs
        assert "SgmlBrochuresToOdmg" in programs
        leaves = provenance.leaves("h1")
        assert leaves  # bottoms out at imported documents
        assert all(
            provenance.source_of(leaf) == "sgml" for leaf in leaves
        )

    def test_forward_from_a_document_reaches_the_html_pages(
        self, traced_system
    ):
        system, _pages = traced_system
        reached = system.provenance.forward("d1")
        assert any(node.startswith("h") for node in reached)

    def test_round_trip_through_the_pipeline(self, traced_system):
        system, _pages = traced_system
        provenance = system.provenance
        for leaf in provenance.leaves("h1"):
            assert "h1" in provenance.forward(leaf)

    def test_without_a_store_the_system_records_nothing(self):
        system = YatSystem()
        result = system.run(
            system.import_program("SgmlBrochuresToOdmg"),
            brochure_trees(2, distinct_suppliers=2),
        )
        assert system.provenance is None
        assert result.provenance.recorded == 0
