"""Alerting through the daemon: /alerts, /stats, /metrics, repro watch.

State-machine semantics live in tests/obs/test_alerts.py; this module
covers the serving surfaces — the endpoints, the Prometheus exposure,
the watch verdict/exit codes, and the concurrency story (the evaluator
must never block pollers or graceful shutdown).
"""

import http.client
import io
import json
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.obs.alerts import BurnRateRule, ThresholdRule
from repro.serve import (
    EXIT_FIRING,
    EXIT_HEALTHY,
    EXIT_UNREACHABLE,
    MediatorServer,
    run_watch,
    verdict,
    verdict_line,
)
from repro.serve.watch import fetch_alerts
from repro.workloads import brochure_sgml

PROGRAM = "SgmlBrochuresToOdmg"


def request(server, method, path, body=None):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


def alert_server(rules, **kwargs):
    server = MediatorServer(port=0, warm=False, history_interval_s=60,
                            alert_rules=rules, **kwargs)
    server.warm_now()
    server.start()
    return server


@pytest.fixture
def payload():
    return brochure_sgml(3, distinct_suppliers=2)


@pytest.fixture
def firing_server(payload):
    """A daemon whose one rule fires as soon as any request lands."""
    rule = ThresholdRule("any-traffic", "serve.requests", ">", 0)
    server = alert_server([rule])
    try:
        status, _ = request(server, "POST", f"/convert/{PROGRAM}",
                            body=payload.encode())
        assert status == 200
        server.history.sample()  # one deterministic tick: rule fires
        yield server
    finally:
        server.stop()


class TestAlertsEndpoint:
    def test_snapshot_document(self, firing_server):
        status, doc = request(firing_server, "GET", "/alerts")
        assert status == 200
        assert doc["healthy"] is False
        assert doc["summary"]["firing"] == ["any-traffic"]
        assert doc["rules"][0]["name"] == "any-traffic"
        assert doc["states"]["any-traffic"]["state"] == "firing"
        to = [t["to"] for t in doc["transitions"]]
        assert to == ["pending", "firing"]

    def test_transitions_param_bounds_list(self, firing_server):
        status, doc = request(firing_server, "GET", "/alerts?transitions=1")
        assert status == 200 and len(doc["transitions"]) == 1

    def test_transitions_zero_is_none_and_negative_is_400(
        self, firing_server
    ):
        status, doc = request(firing_server, "GET", "/alerts?transitions=0")
        assert status == 200 and doc["transitions"] == []
        status, doc = request(firing_server, "GET", "/alerts?transitions=-1")
        assert status == 400 and "transitions" in doc["error"]

    def test_bad_transitions_param_is_400(self, firing_server):
        status, doc = request(firing_server, "GET",
                              "/alerts?transitions=soon")
        assert status == 400 and "transitions" in doc["error"]

    def test_no_rules_is_trivially_healthy(self):
        server = alert_server(None)
        try:
            status, doc = request(server, "GET", "/alerts")
            assert status == 200
            assert doc["healthy"] is True and doc["summary"]["rules"] == 0
        finally:
            server.stop()

    def test_stats_carries_alert_block(self, firing_server):
        status, stats = request(firing_server, "GET", "/stats")
        assert status == 200
        block = stats["server"]["alerts"]
        assert block["firing"] == ["any-traffic"]
        assert block["healthy"] is False and block["rules"] == 1

    def test_metrics_exposes_state_gauge(self, firing_server):
        connection = http.client.HTTPConnection(
            firing_server.host, firing_server.port, timeout=30
        )
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        assert ('repro_alert_state{rule="any-traffic",severity="warn"} 2'
                in text)
        assert 'repro_alert_transitions{rule="any-traffic",to="firing"} 1' \
            in text


class TestHistoryNamesValidation:
    def test_unknown_names_400_with_known_list(self, firing_server):
        status, doc = request(
            firing_server, "GET", "/stats/history?names=no.such,serve.bogus"
        )
        assert status == 400
        assert "no.such" in doc["error"] and "serve.bogus" in doc["error"]
        assert "serve.requests" in doc["known_names"]

    def test_known_names_still_filter(self, firing_server):
        status, doc = request(
            firing_server, "GET", "/stats/history?names=serve.requests"
        )
        assert status == 200
        for sample in doc["samples"]:
            assert set(sample["metrics"]) <= {"serve.requests"}


class TestWatch:
    def test_fetch_and_verdict_helpers(self, firing_server):
        url = f"http://{firing_server.host}:{firing_server.port}"
        doc = fetch_alerts(url)
        healthy, firing, pending = verdict(doc)
        assert healthy is False and firing == ["any-traffic"]
        assert "UNHEALTHY" in verdict_line(doc)
        assert "any-traffic" in verdict_line(doc)

    def test_once_exit_codes(self, firing_server):
        url = f"http://{firing_server.host}:{firing_server.port}"
        out = io.StringIO()
        assert run_watch(url, once=True, out=out) == EXIT_FIRING

        healthy = alert_server(
            [ThresholdRule("quiet", "serve.errors", ">", 1e9)]
        )
        try:
            healthy_url = f"http://{healthy.host}:{healthy.port}"
            out = io.StringIO()
            assert run_watch(healthy_url, once=True, out=out) == EXIT_HEALTHY
            assert "HEALTHY" in out.getvalue()
        finally:
            healthy.stop()

        out = io.StringIO()
        assert run_watch("http://127.0.0.1:1", once=True, timeout=1,
                         out=out) == EXIT_UNREACHABLE

    def test_loop_reports_transitions(self, payload):
        rule = ThresholdRule("any-traffic", "serve.requests", ">", 0)
        server = alert_server([rule])
        try:
            url = f"http://{server.host}:{server.port}"
            out = io.StringIO()
            done = threading.Thread(
                target=run_watch,
                args=(url,),
                kwargs=dict(interval=0.05, iterations=20, out=out),
            )
            done.start()
            request(server, "POST", f"/convert/{PROGRAM}",
                    body=payload.encode())
            server.history.sample()
            done.join(timeout=10)
            assert not done.is_alive()
            text = out.getvalue()
            assert "HEALTHY" in text and "UNHEALTHY" in text
            assert "firing" in text
        finally:
            server.stop()

    def test_cli_watch_subcommand(self, firing_server):
        url = f"http://{firing_server.host}:{firing_server.port}"
        assert cli_main(["watch", url, "--once"]) == EXIT_FIRING


class TestAlertConcurrency:
    def test_polling_alerts_while_evaluator_ticks(self, payload):
        """/alerts polled from several threads while ticks drive the
        state machine: every response is a consistent document."""
        rule = ThresholdRule("flap", "queue.flap", ">", 0)
        server = alert_server([rule])
        errors = []
        stop = threading.Event()

        def poller():
            while not stop.is_set():
                try:
                    status, doc = request(server, "GET", "/alerts")
                    assert status == 200
                    # firing list and states must agree within one doc
                    firing = set(doc["summary"]["firing"])
                    from_states = {
                        name for name, state in doc["states"].items()
                        if state["state"] == "firing"
                    }
                    assert firing == from_states
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=poller) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            flap = server.registry.gauge("queue.flap")
            for index in range(50):
                flap.set(index % 2)
                server.history.sample()
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors, errors
        finally:
            stop.set()
            server.stop()

    def test_firing_alerts_never_block_shutdown(self, firing_server):
        """stop() with a firing alert and active pollers completes
        promptly — evaluation is bounded work off the shutdown path."""
        stop = threading.Event()

        def poller():
            while not stop.is_set():
                try:
                    request(firing_server, "GET", "/alerts")
                except Exception:
                    return  # connection refused once drained: fine

        thread = threading.Thread(target=poller)
        thread.start()
        started = time.monotonic()
        firing_server.stop()
        elapsed = time.monotonic() - started
        stop.set()
        thread.join(timeout=10)
        assert elapsed < 10.0, f"shutdown took {elapsed:.1f}s"
        # the shutdown's final history tick still evaluated
        assert firing_server.alerts.summary()["evaluations"] >= 1

    def test_drain_returns_503_but_alerts_stay_readable(self, payload):
        """During drain the convert plane sheds, and whether /alerts
        answers or the socket is already down, nothing deadlocks."""
        rule = BurnRateRule("slo", objective=0.99, window_s=60.0)
        server = alert_server([rule])
        request(server, "POST", f"/convert/{PROGRAM}",
                body=payload.encode())
        server.history.sample()
        server.stop()
        # post-shutdown: the evaluator object remains queryable
        assert server.alerts.healthy is True
        assert server.alerts.summary()["rules"] == 1
