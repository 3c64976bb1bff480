"""The metrics registry: counters, gauges, histograms, thread safety."""

import asyncio
import json
import math
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    ambient_registry,
    collecting,
    record,
    record_gauge,
)
from repro.obs.metrics import DEFAULT_BUCKETS


class TestCounter:
    def test_starts_at_zero(self):
        registry = MetricsRegistry()
        assert registry.counter("c").value() == 0
        assert registry.value("never_registered") == 0

    def test_increments(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labeled_series_are_independent(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(rule="Rule1")
        counter.inc(2, rule="Rule2")
        assert counter.value(rule="Rule1") == 1
        assert counter.value(rule="Rule2") == 2
        assert counter.value() == 0  # the unlabeled series is separate
        assert counter.total() == 3

    def test_label_order_is_irrelevant(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(a="x", b="y")
        assert counter.value(b="y", a="x") == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_thread_safety_exact_total(self):
        counter = MetricsRegistry().counter("c")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12


class TestHistogram:
    def test_buckets_sum_count(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        stats = histogram.stats()
        assert stats["count"] == 4
        assert stats["sum"] == 555.5
        # cumulative counts per upper bound
        assert stats["buckets"][1] == 1
        assert stats["buckets"][10] == 2
        assert stats["buckets"][100] == 3
        assert stats["buckets"][float("inf")] == 4

    def test_default_buckets_end_in_inf(self):
        assert DEFAULT_BUCKETS[-1] == float("inf")
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(10**9)
        assert histogram.stats()["buckets"][float("inf")] == 1

    def test_labeled_series(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1, rule="A")
        histogram.observe(2, rule="A")
        histogram.observe(3, rule="B")
        assert histogram.stats(rule="A")["count"] == 2
        assert histogram.stats(rule="B")["count"] == 1
        assert {tuple(k.items()) for k in histogram.label_keys()} == {
            (("rule", "A"),), (("rule", "B"),),
        }

    def test_nonfinite_observations_are_quarantined(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1, 10))
        histogram.observe(5)
        for poison in (math.nan, math.inf, -math.inf):
            histogram.observe(poison)
        stats = histogram.stats()
        # sum/count/buckets must stay exactly what the finite
        # observation produced — one NaN would poison `sum` forever.
        assert stats["count"] == 1
        assert stats["sum"] == 5
        assert stats["buckets"][10] == 1
        assert stats["nonfinite"] == 3

    def test_nonfinite_only_series_is_visible(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(math.nan, rule="R")
        assert histogram.stats(rule="R") == {
            "count": 0, "sum": 0.0, "buckets": {},
            "p50": None, "p95": None, "p99": None, "nonfinite": 1,
        }
        assert histogram.label_keys() == [{"rule": "R"}]

    def test_percentile_interpolates_within_bucket(self):
        histogram = MetricsRegistry().histogram("h", buckets=(10, 20, 30))
        # 10 observations land in (10, 20]: cumulative 0 below 10, 10
        # at 20 — the median rank (5) sits halfway into that bucket.
        for _ in range(10):
            histogram.observe(15)
        assert histogram.percentile(0.5) == 15.0
        assert histogram.percentile(1.0) == 20.0

    def test_percentile_spread_across_buckets(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 99):
            histogram.observe(value)
        stats = histogram.stats()
        # rank(p50)=2 → top of the (1,10] bucket; p95/p99 → (10,100]
        assert stats["p50"] == 10.0
        assert 10 < stats["p95"] <= 100
        assert stats["p95"] < stats["p99"]

    def test_percentile_in_inf_bucket_reports_last_finite_bound(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1, 10))
        histogram.observe(10**6)
        assert histogram.percentile(0.99) == 10.0

    def test_percentile_of_empty_series_is_none(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.percentile(0.5) is None
        assert histogram.percentile(0.5, rule="missing") is None

    def test_percentiles_are_per_label_series(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1, 10, 100))
        for _ in range(4):
            histogram.observe(0.5, rule="fast")
            histogram.observe(50, rule="slow")
        assert histogram.stats(rule="fast")["p95"] <= 1.0
        assert histogram.stats(rule="slow")["p95"] > 10.0

    def test_percentiles_survive_snapshot(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(10, 20))
        for _ in range(10):
            histogram.observe(15)
        series = registry.snapshot()["h"]["series"][0]
        assert series["p50"] == 15.0
        assert series["p99"] > series["p50"]
        json.dumps(registry.snapshot())

    def test_empty_series_snapshot_omits_percentile_keys(self):
        """Percentiles of zero finite observations do not exist: the
        snapshot omits the keys entirely — never null, never NaN — so
        every JSON surface (snapshot, /stats, Prometheus) agrees."""
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1, 10)).observe(math.nan)
        series = registry.snapshot()["h"]["series"][0]
        assert "p50" not in series
        assert "p95" not in series
        assert "p99" not in series
        assert series["count"] == 0
        assert series["nonfinite"] == 1

    def test_populated_series_snapshot_keeps_percentile_keys(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1, 10)).observe(5)
        series = registry.snapshot()["h"]["series"][0]
        assert "p50" in series and "p95" in series and "p99" in series

    def test_nonfinite_survives_snapshot(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(math.inf)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise (no inf in the payload)
        assert snapshot["h"]["series"][0]["nonfinite"] == 1
        assert snapshot["h"]["series"][0]["count"] == 0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(TypeError):
            registry.gauge("c")
        with pytest.raises(TypeError):
            registry.histogram("c")

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc(3, rule="R")
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(7)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["c"]["type"] == "counter"
        assert snapshot["c"]["help"] == "a counter"
        assert snapshot["c"]["series"] == [{"labels": {"rule": "R"}, "value": 3}]
        assert snapshot["h"]["series"][0]["count"] == 1
        assert "+Inf" in snapshot["h"]["series"][0]["buckets"]


class TestAmbient:
    def test_record_is_a_noop_without_a_registry(self):
        assert ambient_registry() is None
        record("orphan")  # must not raise, must not leak state
        record_gauge("orphan_gauge", 1)
        assert ambient_registry() is None

    def test_collecting_installs_and_restores(self):
        with collecting() as registry:
            assert ambient_registry() is registry
            record("hits", 2, source="x")
            record_gauge("level", 7)
        assert ambient_registry() is None
        assert registry.value("hits", source="x") == 2
        assert registry.value("level") == 7

    def test_collecting_nests(self):
        outer = MetricsRegistry()
        inner = MetricsRegistry()
        with collecting(outer):
            with collecting(inner):
                record("n")
            record("n")
        assert inner.value("n") == 1
        assert outer.value("n") == 1

    def test_empty_registry_is_still_installed(self):
        # MetricsRegistry.__len__ makes an empty registry falsy; the
        # ambient plumbing must not discard it for that.
        registry = MetricsRegistry()
        with collecting(registry):
            assert ambient_registry() is registry


class TestAmbientIsolation:
    """The ambient registry is a contextvar: each thread and each
    asyncio task sees its own installation, never a neighbour's."""

    def test_threads_do_not_inherit_the_installers_registry(self):
        seen = []
        with collecting(MetricsRegistry()):
            worker = threading.Thread(
                target=lambda: seen.append(ambient_registry())
            )
            worker.start()
            worker.join()
        # A fresh thread starts from an empty context.
        assert seen == [None]

    def test_per_thread_installations_are_independent(self):
        errors = []
        barrier = threading.Barrier(4)

        def worker(name: str) -> None:
            registry = MetricsRegistry()
            with collecting(registry):
                barrier.wait()  # every thread is inside its block now
                record("hits", source=name)
                barrier.wait()
                if registry.value("hits", source=name) != 1:
                    errors.append(f"{name}: own count wrong")
                for other in ("a", "b", "c", "d"):
                    if other != name and registry.value("hits", source=other):
                        errors.append(f"{name}: saw {other}'s increments")

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in ("a", "b", "c", "d")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_asyncio_tasks_are_isolated(self):
        async def task(name: str, results: dict) -> None:
            registry = MetricsRegistry()
            with collecting(registry):
                # Yield control so the tasks interleave mid-block —
                # the contextvar must follow each task, not the loop.
                await asyncio.sleep(0)
                record("hits", source=name)
                await asyncio.sleep(0)
                assert ambient_registry() is registry
                results[name] = {
                    other: registry.value("hits", source=other)
                    for other in ("t1", "t2", "t3")
                }

        async def main() -> dict:
            results: dict = {}
            await asyncio.gather(*(task(n, results) for n in ("t1", "t2", "t3")))
            return results

        results = asyncio.run(main())
        for name, counts in results.items():
            assert counts[name] == 1
            assert all(v == 0 for k, v in counts.items() if k != name)

    def test_asyncio_task_does_not_leak_into_the_loop_runner(self):
        async def install_and_exit() -> None:
            with collecting(MetricsRegistry()):
                await asyncio.sleep(0)

        asyncio.run(install_and_exit())
        assert ambient_registry() is None
