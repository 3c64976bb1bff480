"""The conversion-quality observatory: coverage, diff, rotation."""

import json
import os

import pytest

from repro.core.trees import atom, tree
from repro.obs import (
    EventLog,
    MetricsRegistry,
    ProvenanceStore,
    RotatingJsonlWriter,
    canonical_term,
    collecting,
    quality_report,
    render_diff_text,
    response_core,
    semantic_diff,
    tracing,
)
from repro.yatl.parser import parse_program

COVERAGE_PROGRAM = """
program Coverage
rule Convert:
  Out(X) : copy -> X
<=
  P : a -> X
rule Cold:
  Never(X) : copy -> X
<=
  P : zzz -> X
rule Mop:
  ()
<=
  P : ^Any
end
"""

DIFF_PROGRAM = """
program Diff
rule Pair:
  Out(K) : entry < -> key -> K, -> val -> V >
<=
  P : item < -> key -> K, -> val -> V >
end
"""


def run_with_obs(program, inputs):
    registry = MetricsRegistry()
    provenance = ProvenanceStore()
    with collecting(registry), tracing(provenance):
        return program.run(inputs)


def item(key, val):
    return tree("item", tree("key", atom(key)), tree("val", atom(val)))


class TestQualityReport:
    def test_classification(self):
        program = parse_program(COVERAGE_PROGRAM)
        result = run_with_obs(
            program, [tree("a", atom(1)), tree("stray", atom(2))]
        )
        report = quality_report(program, result)
        statuses = {r["name"]: r["status"] for r in report.rules}
        assert statuses == {
            "Convert": "fired",
            "Cold": "never-fired",
            "Mop": "fallback-only",
        }
        assert report.never_fired == ["Cold"]
        assert report.fallback_only == ["Mop"]

    def test_input_accounting(self):
        program = parse_program(COVERAGE_PROGRAM)
        result = run_with_obs(program, [tree("a", atom(1))])
        report = quality_report(program, result)
        assert report.inputs["total"] == 1
        assert report.inputs["converted"] == 1
        assert report.inputs["unconverted"] == 0

    def test_unconverted_roots_histogram(self):
        # Without the fallback, strays stay unconverted and the report
        # names their root labels.
        program = parse_program(
            """
            program NoMop
            rule Convert:
              Out(X) : copy -> X
            <=
              P : a -> X
            end
            """
        )
        result = run_with_obs(
            program,
            [tree("a", atom(1)), tree("stray", atom(2)),
             tree("stray", atom(3))],
        )
        report = quality_report(program, result)
        assert report.inputs["unconverted"] == 2
        assert report.inputs["unconverted_roots"] == {"stray": 2}

    def test_input_share_from_provenance(self):
        program = parse_program(COVERAGE_PROGRAM)
        result = run_with_obs(
            program, [tree("a", atom(1)), tree("a", atom(2))]
        )
        report = quality_report(program, result)
        by_name = {r["name"]: r for r in report.rules}
        assert by_name["Convert"]["input_share"] == pytest.approx(1.0)
        assert by_name["Cold"]["input_share"] == 0.0

    def test_render_and_json(self):
        program = parse_program(COVERAGE_PROGRAM)
        result = run_with_obs(
            program, [tree("a", atom(1)), tree("stray", atom(2))]
        )
        report = quality_report(program, result)
        text = report.render_text()
        assert "NEVER-FIRED" in text and "Cold" in text
        assert "FALLBACK-ONLY" in text
        doc = report.to_json()
        assert doc["coverage"]["never-fired"] == ["Cold"]
        json.dumps(doc)  # must be serializable

    def test_works_without_provenance(self):
        # quality_report must degrade to counter-derived shares when
        # the run recorded no provenance (e.g. plain program.run).
        program = parse_program(COVERAGE_PROGRAM)
        registry = MetricsRegistry()
        with collecting(registry):
            result = program.run([tree("a", atom(1))])
        report = quality_report(program, result)
        statuses = {r["name"]: r["status"] for r in report.rules}
        assert statuses["Convert"] == "fired"
        by_name = {r["name"]: r for r in report.rules}
        assert by_name["Convert"]["input_share"] > 0.0


class TestSemanticDiff:
    def test_identical_runs(self):
        program = parse_program(DIFF_PROGRAM)
        a = run_with_obs(program, [item("k1", 1), item("k2", 2)])
        b = run_with_obs(program, [item("k1", 1), item("k2", 2)])
        diff = semantic_diff(a, b)
        assert diff["summary"] == {
            "added": 0, "removed": 0, "changed": 0, "unchanged": 2,
        }

    def test_added_and_removed(self):
        program = parse_program(DIFF_PROGRAM)
        a = run_with_obs(program, [item("k1", 1), item("k2", 2)])
        b = run_with_obs(program, [item("k2", 2), item("k3", 3)])
        diff = semantic_diff(a, b)
        assert diff["summary"]["added"] == 1
        assert diff["summary"]["removed"] == 1
        assert diff["summary"]["unchanged"] == 1
        assert "k3" in diff["added"][0]["term"]
        assert "k1" in diff["removed"][0]["term"]

    def test_attribution_names_rule_and_inputs(self):
        program = parse_program(DIFF_PROGRAM)
        a = run_with_obs(program, [item("k1", 1)])
        b = run_with_obs(program, [item("k1", 1), item("k3", 3)])
        diff = semantic_diff(a, b)
        attribution = diff["added"][0]["attribution"]
        assert attribution["rule"] == "Pair"
        assert attribution["inputs"]

    def test_allocation_order_does_not_matter(self):
        # The same logical output allocated under different Skolem ids
        # (because input order shifted) must diff as unchanged.
        program = parse_program(DIFF_PROGRAM)
        a = run_with_obs(program, [item("k1", 1), item("k2", 2)])
        b = run_with_obs(program, [item("k2", 2), item("k1", 1)])
        diff = semantic_diff(a, b)
        assert diff["summary"]["added"] == 0
        assert diff["summary"]["removed"] == 0

    def test_changed_value(self):
        program = parse_program(DIFF_PROGRAM)
        a = run_with_obs(program, [item("k1", 1)])
        b = run_with_obs(program, [item("k1", 99)])
        diff = semantic_diff(a, b)
        # Skolem identity Out(k1) survives; its value tree changed.
        # (The value is a Skolem arg here too, so depending on term
        # structure this may classify as add+remove — either way the
        # runs must not diff as identical.)
        summary = diff["summary"]
        assert (
            summary["changed"] + summary["added"] + summary["removed"] > 0
        )

    def test_render_text(self):
        program = parse_program(DIFF_PROGRAM)
        a = run_with_obs(program, [item("k1", 1)])
        b = run_with_obs(program, [item("k1", 1), item("k3", 3)])
        text = render_diff_text(semantic_diff(a, b))
        assert text.startswith("semantic diff — 1 added")
        assert "+ " in text and "rule Pair" in text

    def test_canonical_term_unknown_id(self):
        program = parse_program(DIFF_PROGRAM)
        result = run_with_obs(program, [item("k1", 1)])
        assert canonical_term(result.skolems, "not-a-skolem") == "not-a-skolem"


class TestResponseCore:
    def test_strips_volatile_fields(self):
        a = response_core({
            "program": "P", "output_trees": 2,
            "trace_id": "aaa", "latency_ms": 1.5, "cache_hit": True,
        })
        b = response_core({
            "program": "P", "output_trees": 2,
            "trace_id": "bbb", "latency_ms": 9.0,
        })
        assert a == b

    def test_detects_payload_difference(self):
        a = response_core({"program": "P", "output_trees": 2})
        b = response_core({"program": "P", "output_trees": 3})
        assert a != b


class TestRotatingJsonlWriter:
    def test_no_rotation_under_limit(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        writer = RotatingJsonlWriter(path, max_bytes=10_000)
        for index in range(5):
            writer.write_record({"seq": index})
        writer.close()
        assert writer.rotations == 0
        assert not os.path.exists(path + ".1")
        lines = open(path).read().splitlines()
        assert len(lines) == 5

    def test_rotates_between_whole_lines(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        writer = RotatingJsonlWriter(path, max_bytes=64)
        for index in range(20):
            writer.write_record({"seq": index, "pad": "x" * 16})
        writer.close()
        assert writer.rotations > 0
        assert os.path.exists(path + ".1")
        # Every line in both generations must be complete JSON.
        for generation in (path, path + ".1"):
            for line in open(generation).read().splitlines():
                json.loads(line)

    def test_on_rotate_callback(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        fired = []
        writer = RotatingJsonlWriter(
            path, max_bytes=32, on_rotate=lambda: fired.append(1)
        )
        for index in range(10):
            writer.write_record({"seq": index})
        writer.close()
        assert len(fired) == writer.rotations > 0

    def test_rejects_bad_limit(self, tmp_path):
        with pytest.raises(ValueError):
            RotatingJsonlWriter(str(tmp_path / "x"), max_bytes=0)


class TestEventLogRotation:
    def test_write_unrotated_matches_legacy(self, tmp_path):
        log = EventLog()
        for index in range(3):
            log.emit("rule.fired", rule=f"R{index}")
        path = str(tmp_path / "events.jsonl")
        assert log.write(path) == 3
        assert log.last_rotations == 0
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["type"] == "rule.fired"

    def test_write_with_max_bytes_rotates(self, tmp_path):
        log = EventLog()
        for index in range(50):
            log.emit("rule.fired", rule=f"Rule{index}", pad="y" * 32)
        path = str(tmp_path / "events.jsonl")
        assert log.write(path, max_bytes=512) == 50
        assert log.last_rotations > 0
        assert os.path.exists(path + ".1")
        live = open(path).read()
        assert len(live.encode()) <= 512
        for line in live.splitlines():
            json.loads(line)
