"""The serve-side time-series + profiling plane: /stats/history and
/debug/profile."""

import http.client
import json

import pytest

from repro.serve import MediatorServer
from repro.workloads import brochure_sgml

PROGRAM = "SgmlBrochuresToOdmg"


@pytest.fixture
def payload():
    return brochure_sgml(3, distinct_suppliers=2)


@pytest.fixture
def server():
    instance = MediatorServer(
        port=0, warm=False, history_interval_s=60.0, history_capacity=16
    )
    instance.warm_now()
    instance.start()
    yield instance
    instance.stop()


def request(server, method, path, body=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def get_json(server, path):
    status, raw = request(server, "GET", path)
    return status, json.loads(raw)


class TestStatsHistory:
    def test_fresh_daemon_has_at_least_one_sample(self, server):
        status, doc = get_json(server, "/stats/history")
        assert status == 200
        assert doc["capacity"] == 16
        assert doc["count"] >= 1
        sample = doc["samples"][-1]
        assert sample["ts"] > 0 and sample["ts_us"] > 0
        assert "metrics" in sample

    def test_requests_appear_in_later_samples(self, server, payload):
        status, _ = request(
            server, "POST", f"/convert/{PROGRAM}", body=payload.encode()
        )
        assert status == 200
        server.history.sample()  # deterministic tick instead of waiting
        _, doc = get_json(server, "/stats/history?limit=1")
        metrics = doc["samples"][-1]["metrics"]
        assert metrics["serve.requests"]["total"] == 1
        assert metrics["serve.latency_ms"]["count"] == 1

    def test_limit_and_names_filter(self, server):
        server.history.sample()
        server.history.sample()
        _, doc = get_json(
            server, "/stats/history?limit=2&names=serve.http.requests"
        )
        assert len(doc["samples"]) == 2
        for sample in doc["samples"]:
            assert set(sample["metrics"]) <= {"serve.http.requests"}

    def test_bad_limit_is_400(self, server):
        status, doc = get_json(server, "/stats/history?limit=nope")
        assert status == 400

    def test_limit_zero_is_no_samples_and_negative_is_400(self, server):
        server.history.sample()
        server.history.sample()
        status, doc = get_json(server, "/stats/history?limit=0")
        assert status == 200 and doc["samples"] == []
        assert doc["count"] >= 2
        status, doc = get_json(server, "/stats/history?limit=-3")
        assert status == 400 and "limit" in doc["error"]

    def test_stats_reports_history_block(self, server):
        _, doc = get_json(server, "/stats")
        block = doc["server"]["history"]
        assert block["capacity"] == 16
        assert block["interval_s"] == 60.0
        assert block["samples"] >= 1

    def test_stop_records_a_final_sample(self, payload):
        instance = MediatorServer(
            port=0, warm=False, history_interval_s=60.0
        )
        instance.warm_now()
        instance.start()
        count_running = len(instance.history)
        instance.stop()
        assert len(instance.history) == count_running + 1


class TestDebugProfile:
    def test_returns_valid_speedscope(self, server):
        status, doc = get_json(server, "/debug/profile?seconds=0.2&hz=300")
        assert status == 200
        assert "speedscope" in doc["$schema"]
        inner = doc["profiles"][0]
        assert inner["type"] == "sampled"
        assert len(inner["samples"]) == len(inner["weights"])
        # The handler thread itself was sampled: frames exist.
        assert doc["shared"]["frames"]

    def test_collapsed_format(self, server):
        status, raw = request(
            server, "GET",
            "/debug/profile?seconds=0.1&hz=300&format=collapsed",
        )
        assert status == 200
        text = raw.decode()
        for line in text.strip().splitlines():
            stack, _space, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_bad_values_are_400(self, server):
        assert get_json(server, "/debug/profile?seconds=abc")[0] == 400
        assert get_json(server, "/debug/profile?hz=abc")[0] == 400
        assert get_json(server, "/debug/profile?format=bogus")[0] == 400

    def test_counts_runs(self, server):
        before = server.registry.counter("serve.profile.runs").total()
        get_json(server, "/debug/profile?seconds=0.05")
        assert server.registry.counter(
            "serve.profile.runs"
        ).total() == before + 1

    def test_profile_now_is_interrupted_by_drain(self, server):
        # Draining sets the event profile_now waits on, so a pending
        # capture ends early instead of delaying shutdown.
        server._draining.set()
        try:
            profiler = server.profile_now(seconds=30.0)
            assert not profiler.running
        finally:
            server._draining.clear()

    def test_404_lists_new_endpoints(self, server):
        status, doc = get_json(server, "/no/such/route")
        assert status == 404
        assert "/stats/history" in doc["endpoints"]
        assert "/debug/profile" in doc["endpoints"]


class TestRequestLogClock:
    def test_entries_carry_both_clocks(self, server, payload):
        request(server, "POST", f"/convert/{PROGRAM}",
                body=payload.encode())
        entry = server.request_log.tail(1)[0]
        assert entry["ts"] > 1e9  # unix seconds
        assert entry["ts_us"] > 0  # perf_counter microseconds
