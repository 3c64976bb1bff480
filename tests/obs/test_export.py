"""Exposition formats: Prometheus text, Chrome trace, profile files."""

import json

from repro.obs import (
    MetricsRegistry,
    chrome_trace,
    metrics_to_json,
    metrics_to_prometheus,
    profile_payload,
    recording,
    span,
    write_profile,
)


class TestPrometheus:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("yatl.rule.applications", "rule applications").inc(
            3, rule="Rule1"
        )
        text = metrics_to_prometheus(registry)
        assert "# HELP yatl_rule_applications rule applications\n" in text
        assert "# TYPE yatl_rule_applications counter\n" in text
        assert 'yatl_rule_applications{rule="Rule1"} 3\n' in text

    def test_gauge_and_float_values(self):
        registry = MetricsRegistry()
        registry.gauge("ratio").set(0.25)
        text = metrics_to_prometheus(registry)
        assert "# TYPE ratio gauge" in text
        assert "ratio 0.25" in text

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1, 10))
        histogram.observe(0.5)
        histogram.observe(5)
        histogram.observe(50)
        text = metrics_to_prometheus(registry)
        assert '\nh_bucket{le="1"} 1\n' in text
        assert '\nh_bucket{le="10"} 2\n' in text
        assert '\nh_bucket{le="+Inf"} 3\n' in text
        assert "\nh_sum 55.5\n" in text
        assert "\nh_count 3\n" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(source='we"ird\\path')
        text = metrics_to_prometheus(registry)
        assert 'source="we\\"ird\\\\path"' in text

    def test_label_escaping_newline(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(source="two\nlines")
        text = metrics_to_prometheus(registry)
        assert 'source="two\\nlines"' in text
        # The exposition must stay one sample per physical line.
        sample_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert sample_lines == ['c{source="two\\nlines"} 1']

    def test_histogram_nonfinite_exposition(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1, 10))
        histogram.observe(5)
        histogram.observe(float("nan"))
        histogram.observe(float("inf"))
        text = metrics_to_prometheus(registry)
        assert "\nh_count 1\n" in text
        assert "\nh_sum 5\n" in text
        assert "h_nonfinite 2" in text

    def test_histogram_no_nonfinite_line_when_clean(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1,)).observe(0.5)
        assert "_nonfinite" not in metrics_to_prometheus(registry)

    def test_histogram_quantile_companion_gauges(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10, 20, 30))
        for _ in range(10):
            histogram.observe(15, rule="R")
        text = metrics_to_prometheus(registry)
        assert "# TYPE h_quantile gauge\n" in text
        assert '\nh_quantile{quantile="0.5",rule="R"} 15\n' in text
        assert '\nh_quantile{quantile="0.95",rule="R"} 19.5\n' in text
        assert '\nh_quantile{quantile="0.99",rule="R"} 19.9\n' in text
        # quantile samples come after the histogram family's own block
        assert text.index("h_count") < text.index("h_quantile")

    def test_no_quantile_family_for_empty_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1,)).observe(float("nan"))
        text = metrics_to_prometheus(registry)
        assert "_quantile" not in text

    def test_empty_registry(self):
        assert metrics_to_prometheus(MetricsRegistry()) == ""


class TestJson:
    def test_matches_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert metrics_to_json(registry) == registry.snapshot()


class TestProfile:
    def _recorded(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        with recording() as recorder:
            with span("pipeline"):
                with span("stage"):
                    pass
        return registry, recorder

    def test_chrome_trace_document(self):
        _, recorder = self._recorded()
        doc = chrome_trace(recorder)
        assert len(doc["traceEvents"]) == 2
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["trace_id"] == recorder.trace_id

    def test_profile_payload_combines_everything(self):
        registry, recorder = self._recorded()
        payload = profile_payload(registry, recorder, meta={"program": "P"})
        assert len(payload["traceEvents"]) == 2
        assert payload["otherData"] == {
            "trace_id": recorder.trace_id,
            "program": "P",
        }
        assert payload["metrics"]["c"]["series"][0]["value"] == 2

    def test_write_profile_roundtrips(self, tmp_path):
        registry, recorder = self._recorded()
        path = str(tmp_path / "profile.json")
        write_profile(path, registry, recorder, meta={"k": "v"})
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded == profile_payload(registry, recorder, meta={"k": "v"})
        names = {event["name"] for event in loaded["traceEvents"]}
        assert names == {"pipeline", "stage"}
