"""Live shadow verification: sampled cache hits re-converted and
byte-compared against the cached response core."""

import io
import threading
import time
import urllib.error

import pytest

from repro.serve import (
    EXIT_FIRING,
    EXIT_HEALTHY,
    MediatorServer,
    render,
    run_watch,
)
from repro.serve.cache import canonical_key
from repro.workloads import brochure_sgml

from .test_server import PROGRAM, get_json, post_convert

PAYLOAD = brochure_sgml(2, distinct_suppliers=2)


@pytest.fixture
def shadow_server():
    """In-process server with every cache hit shadow-verified; only the
    shadow worker thread runs (no sockets)."""
    instance = MediatorServer(port=0, warm=False, shadow_sample=1)
    instance.warm_now()
    yield instance
    instance._shadow_stop.set()
    instance._shadow_thread.join(timeout=5)


def wait_shadow(server, predicate, timeout=10.0):
    """Poll the quality payload until *predicate* accepts its shadow
    block (the worker is asynchronous)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        shadow = server.quality_payload()["shadow"]
        if predicate(shadow):
            return shadow
        time.sleep(0.02)
    raise AssertionError(
        f"shadow predicate never satisfied: {server.quality_payload()}"
    )


def corrupt_cache(server, payload=PAYLOAD, **overrides):
    """Rewrite the cached entry for *payload* behind the server's back."""
    key = canonical_key(PROGRAM, payload)
    entry = server.cache.get(key)
    assert entry is not None, "cache entry must exist before corruption"
    status, cached_payload, counts = entry
    cached_payload.update(overrides)
    server.cache.put(key, status, cached_payload, counts)


class TestShadowVerification:
    def test_clean_hit_verifies_ok(self, shadow_server):
        status, _ = shadow_server.convert(PROGRAM, PAYLOAD)
        assert status == 200
        status, payload = shadow_server.convert(PROGRAM, PAYLOAD)
        assert status == 200 and payload.get("cache_hit") is True
        shadow = wait_shadow(shadow_server, lambda s: s["checked"] >= 1)
        assert shadow["sampled"] == 1
        assert shadow["ok"] == 1
        assert shadow["mismatches"] == 0
        assert shadow["recent_mismatches"] == []

    def test_corrupted_entry_is_caught(self, shadow_server):
        shadow_server.convert(PROGRAM, PAYLOAD)
        corrupt_cache(shadow_server, output_trees=999)
        shadow_server.convert(PROGRAM, PAYLOAD)  # serves the stale entry
        shadow = wait_shadow(shadow_server, lambda s: s["checked"] >= 1)
        assert shadow["mismatches"] == 1
        detail = shadow["recent_mismatches"][0]
        assert detail["program"] == PROGRAM
        assert detail["fields"] == ["output_trees"]
        events = [
            event for event in shadow_server.events.events()
            if event["type"] == "shadow.mismatch"
        ]
        assert len(events) == 1

    def test_volatile_fields_never_mismatch(self, shadow_server):
        # trace_id / latency_ms / cache_hit differ on every request by
        # construction; the comparison must ignore them.
        shadow_server.convert(PROGRAM, PAYLOAD)
        corrupt_cache(
            shadow_server, trace_id="stale-trace", latency_ms=123456.0
        )
        shadow_server.convert(PROGRAM, PAYLOAD)
        shadow = wait_shadow(shadow_server, lambda s: s["checked"] >= 1)
        assert shadow["mismatches"] == 0
        assert shadow["ok"] == 1

    def test_stride_sampling(self):
        instance = MediatorServer(port=0, warm=False, shadow_sample=2)
        instance.warm_now()
        try:
            instance.convert(PROGRAM, PAYLOAD)  # miss
            for _ in range(4):  # hits 1..4; 1 and 3 are sampled
                instance.convert(PROGRAM, PAYLOAD)
            shadow = wait_shadow(instance, lambda s: s["checked"] >= 2)
            assert shadow["sampled"] == 2
            assert shadow["ok"] == 2
        finally:
            instance._shadow_stop.set()
            instance._shadow_thread.join(timeout=5)

    def test_disabled_by_default(self):
        instance = MediatorServer(port=0, warm=False)
        instance.warm_now()
        assert instance._shadow_thread is None
        instance.convert(PROGRAM, PAYLOAD)
        instance.convert(PROGRAM, PAYLOAD)
        quality = instance.quality_payload()
        assert quality["shadow"]["enabled"] is False
        assert quality["shadow"]["sampled"] == 0

    def test_rejects_bad_sample(self):
        with pytest.raises(ValueError):
            MediatorServer(port=0, warm=False, shadow_sample=0)

    def test_stats_carries_shadow_columns(self, shadow_server):
        shadow_server.convert(PROGRAM, PAYLOAD)
        shadow_server.convert(PROGRAM, PAYLOAD)
        wait_shadow(shadow_server, lambda s: s["checked"] >= 1)
        stats = shadow_server.stats()
        entry = stats["programs"][PROGRAM]
        assert entry["shadow_ok"] == 1
        assert entry["shadow_mismatches"] == 0
        assert stats["server"]["quality"]["shadow"]["enabled"] is True

    def test_sample_taken_before_a_save_is_dropped(self, shadow_server):
        # A request in flight parks the worker, so the sample is still
        # queued when an edited program (one rule fewer) is saved. Its
        # cached response came from the old text: checking it against
        # the new one would be a false mismatch.
        with shadow_server.track_request():
            shadow_server.convert(PROGRAM, PAYLOAD)
            shadow_server.convert(PROGRAM, PAYLOAD)  # sampled hit
            edited = shadow_server.system.library.load_program(PROGRAM)
            edited.remove_rule("Rule1")
            shadow_server.system.save_program(edited)
        shadow = wait_shadow(shadow_server, lambda s: s["dropped"] >= 1)
        assert shadow["sampled"] == 1
        assert shadow["checked"] == 0 and shadow["mismatches"] == 0
        # Hits computed by the saved program verify as usual.
        shadow_server.convert(PROGRAM, PAYLOAD)
        shadow_server.convert(PROGRAM, PAYLOAD)
        shadow = wait_shadow(shadow_server, lambda s: s["checked"] >= 1)
        assert shadow["ok"] == 1 and shadow["mismatches"] == 0

    def test_drift_block_present(self, shadow_server):
        shadow_server.convert(PROGRAM, PAYLOAD)
        quality = shadow_server.quality_payload()
        assert "sgml" in quality["drift"]
        assert quality["drift"]["sgml"]["drift"] == 0.0

    def test_payload_size_is_not_drift(self, shadow_server):
        # Same schema, 1 then 24 brochures: the gauge a drift alert
        # reads must stay at 0.
        shadow_server.convert(PROGRAM, brochure_sgml(1, distinct_suppliers=2))
        shadow_server.convert(PROGRAM, brochure_sgml(24, distinct_suppliers=2))
        assert shadow_server.registry.value(
            "repro.source_drift", source="sgml"
        ) == 0.0


class TestQuietTime:
    def test_no_check_starts_while_a_request_is_in_flight(self):
        instance = MediatorServer(
            port=0, warm=False, shadow_sample=1, allow_test_delay=True
        )
        instance.warm_now()
        instance.start()
        try:
            instance.convert(PROGRAM, PAYLOAD)
            holder = threading.Thread(
                target=post_convert, args=(instance, PAYLOAD),
                kwargs={"query": "?delay_ms=400"},
            )
            holder.start()
            deadline = time.monotonic() + 5
            while instance.registry.value("serve.inflight") < 1:
                assert time.monotonic() < deadline, "request never in flight"
                time.sleep(0.005)
            instance.convert(PROGRAM, PAYLOAD)  # sampled hit, in process
            held_readings = []
            while True:
                checked = instance.quality_payload()["shadow"]["checked"]
                if instance.registry.value("serve.inflight") < 1:
                    break  # the held request has returned
                held_readings.append(checked)
                time.sleep(0.02)
            holder.join(timeout=10)
            assert not holder.is_alive()
            assert held_readings and set(held_readings) == {0}
            shadow = wait_shadow(instance, lambda s: s["checked"] >= 1)
            assert shadow["checked"] == 1 and shadow["ok"] == 1
        finally:
            instance.stop()


class TestQualityEndpoint:
    def test_http_get_quality(self):
        instance = MediatorServer(port=0, warm=False, shadow_sample=1)
        instance.warm_now()
        instance.start()
        try:
            instance.convert(PROGRAM, PAYLOAD)
            instance.convert(PROGRAM, PAYLOAD)
            wait_shadow(instance, lambda s: s["checked"] >= 1)
            status, doc = get_json(instance, "/quality")
            assert status == 200
            assert doc["shadow"]["ok"] == 1
            assert doc["shadow"]["enabled"] is True
        finally:
            instance.stop()


class TestWatchShadow:
    def test_mismatch_makes_watch_unhealthy(self):
        instance = MediatorServer(port=0, warm=False, shadow_sample=1)
        instance.warm_now()
        instance.start()
        try:
            instance.convert(PROGRAM, PAYLOAD)
            corrupt_cache(instance, output_trees=999)
            instance.convert(PROGRAM, PAYLOAD)
            wait_shadow(instance, lambda s: s["mismatches"] >= 1)
            url = f"http://{instance.host}:{instance.port}"
            out = io.StringIO()
            assert run_watch(url, once=True, out=out) == EXIT_FIRING
            assert "shadow verification: 1 mismatch(es)" in out.getvalue()
            # --no-shadow opts out: alerts alone judge the daemon.
            out = io.StringIO()
            assert (
                run_watch(url, once=True, out=out, check_shadow=False)
                == EXIT_HEALTHY
            )
        finally:
            instance.stop()

    def test_older_daemon_degrades_to_alerts(self, monkeypatch):
        # /alerts answers but /quality 404s (a pre-PR-9 daemon): the
        # verdict must silently fall back to alerts-only.
        instance = MediatorServer(port=0, warm=False)
        instance.warm_now()
        instance.start()
        try:
            monkeypatch.setattr(
                "repro.serve.watch.fetch_quality",
                lambda url, timeout=5.0: (_ for _ in ()).throw(
                    urllib.error.URLError("no such endpoint")
                ),
            )
            url = f"http://{instance.host}:{instance.port}"
            out = io.StringIO()
            assert run_watch(url, once=True, out=out) == EXIT_HEALTHY
        finally:
            instance.stop()


class TestTopShadowColumn:
    STATS = {
        "server": {
            "uptime_s": 1.0, "requests_total": 4,
            "quality": {
                "shadow": {
                    "enabled": True, "sample": 1, "sampled": 2,
                    "checked": 2, "ok": 1, "mismatches": 1,
                },
            },
        },
        "programs": {
            "SgmlBrochuresToOdmg": {
                "requests": 4, "errors": 0,
                "shadow_ok": 1, "shadow_mismatches": 1,
                "latency_ms": {"count": 4, "sum": 10.0,
                               "p50": 2.0, "p95": 3.0, "p99": 4.0},
            },
        },
        "requests": [],
    }

    def test_column_renders_ok_and_mismatches(self):
        frame = render(self.STATS, "http://x:1")
        header = next(
            line for line in frame.splitlines() if "SHADOW" in line
        )
        assert header.split()[6] == "SHADOW"
        row = next(
            line for line in frame.splitlines() if line.startswith("Sgml")
        )
        assert row.split()[6] == "1/1"
        assert "shadow 1/1 ok 1 mismatch 1" in frame

    def test_column_dash_without_shadow_data(self):
        stats = {
            "server": {"requests_total": 1},
            "programs": {"P": {"requests": 1, "errors": 0,
                               "latency_ms": {"p50": 1.0, "p95": 1.0,
                                              "p99": 1.0}}},
            "requests": [],
        }
        frame = render(stats, "http://x:1")
        row = next(
            line for line in frame.splitlines() if line.startswith("P ")
        )
        assert row.split()[6] == "-"
