"""Serving telemetry primitives: request log, trace store, trace ids."""

import json

import pytest

from repro.obs import ProvenanceStore, SpanRecorder, recording, span, tracing
from repro.serve import (
    RequestLog,
    TraceStore,
    clean_trace_id,
    new_trace_id,
    trace_payload,
)


class TestTraceIds:
    def test_new_ids_are_unique(self):
        assert new_trace_id() != new_trace_id()

    def test_wellformed_inbound_id_is_honored(self):
        assert clean_trace_id("req-42") == "req-42"
        assert clean_trace_id("a/b:c.d_e") == "a/b:c.d_e"

    def test_malformed_inbound_id_is_replaced(self):
        for bad in (None, "", "has space", 'quo"te', "x" * 200, "a\nb"):
            cleaned = clean_trace_id(bad)
            assert cleaned != bad
            assert clean_trace_id(cleaned) == cleaned  # generated ids pass


class TestRequestLog:
    def test_assigns_seq_and_ts(self):
        log = RequestLog()
        first = log.append(program="P", status=200)
        second = log.append(program="P", status=500)
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["ts"] <= second["ts"]
        assert len(log) == 2

    def test_tail_is_bounded_but_count_is_not(self):
        log = RequestLog(capacity=3)
        for index in range(10):
            log.append(index=index)
        assert len(log) == 10
        assert [entry["index"] for entry in log.tail()] == [7, 8, 9]
        assert [entry["index"] for entry in log.tail(limit=2)] == [8, 9]
        assert log.tail(limit=0) == []

    def test_streams_jsonl_to_file(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        log = RequestLog(path=str(path))
        log.append(program="P", status=200, latency_ms=1.5)
        log.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["program"] == "P" and lines[0]["seq"] == 1

    def test_append_after_close_keeps_tail(self, tmp_path):
        log = RequestLog(path=str(tmp_path / "r.jsonl"))
        log.close()
        log.append(program="P")  # must not raise
        assert len(log) == 1

    def test_rotation_off_by_default(self, tmp_path):
        path = tmp_path / "r.jsonl"
        log = RequestLog(path=str(path))
        for _ in range(200):
            log.append(program="P", status=200)
        log.close()
        assert not (tmp_path / "r.jsonl.1").exists()
        assert log.rotations == 0

    def test_rotates_between_whole_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        log = RequestLog(path=str(path), max_bytes=400)
        for index in range(12):
            log.append(program="P", status=200, index=index)
        log.close()
        rotated = tmp_path / "r.jsonl.1"
        assert rotated.exists() and log.rotations >= 1
        # every line in both generations parses whole — rotation never
        # splits an entry — and no entry was lost across generations
        live = [json.loads(l) for l in path.read_text().splitlines()]
        old = [json.loads(l) for l in rotated.read_text().splitlines()]
        assert all("seq" in entry for entry in live + old)
        assert live[-1]["seq"] == 12
        # the live file respects the bound
        assert path.stat().st_size <= 400

    def test_rotation_counts_into_registry(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        log = RequestLog(path=str(tmp_path / "r.jsonl"), max_bytes=200,
                         registry=registry)
        for index in range(10):
            log.append(program="P", index=index)
        log.close()
        assert registry.value("serve.request_log.rotations") == log.rotations
        assert log.rotations >= 1

    def test_rotation_resumes_existing_file_size(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("x" * 390 + "\n")
        log = RequestLog(path=str(path), max_bytes=400)
        log.append(program="P")  # existing 391 bytes + line > 400
        log.close()
        assert log.rotations == 1
        assert (tmp_path / "r.jsonl.1").read_text().startswith("x")

    def test_single_generation_overwritten(self, tmp_path):
        path = tmp_path / "r.jsonl"
        log = RequestLog(path=str(path), max_bytes=150)
        for index in range(30):
            log.append(index=index)
        log.close()
        generations = sorted(p.name for p in tmp_path.iterdir())
        assert generations == ["r.jsonl", "r.jsonl.1"]  # never .2

    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            RequestLog(path=str(tmp_path / "r.jsonl"), max_bytes=0)


class TestTraceStore:
    def test_put_get(self):
        store = TraceStore(capacity=2)
        store.put("a", {"n": 1})
        assert store.get("a") == {"n": 1}
        assert store.get("missing") is None

    def test_evicts_oldest(self):
        store = TraceStore(capacity=2)
        for trace_id in ("a", "b", "c"):
            store.put(trace_id, {"id": trace_id})
        assert store.ids() == ["b", "c"]
        assert store.get("a") is None

    def test_reput_replaces_and_refreshes(self):
        store = TraceStore(capacity=2)
        store.put("a", {"n": 1})
        store.put("b", {"n": 2})
        store.put("a", {"n": 3})  # refreshed: now newest
        store.put("c", {"n": 4})  # evicts b, not a
        assert store.get("a") == {"n": 3}
        assert store.get("b") is None

    def test_rejects_zero_capacity(self):
        import pytest

        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestTracePayload:
    def test_joins_spans_and_provenance_by_trace_id(self):
        recorder = SpanRecorder(trace_id="t-1")
        provenance = ProvenanceStore()
        with recording(recorder), tracing(provenance):
            with span("serve.request", program="P"):
                provenance.add_origins("c1", ["d1"])
        payload = trace_payload(
            "t-1", recorder, provenance, {"status": 200, "seq": 1}
        )
        assert payload["trace_id"] == "t-1"
        assert payload["request"] == {"status": 200, "seq": 1}
        assert [s["name"] for s in payload["spans"]] == ["serve.request"]
        assert payload["provenance"]["origins"] == {"c1": ["d1"]}
        json.dumps(payload)  # must be JSON-ready as stored
