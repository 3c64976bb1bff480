"""Metrics: thread-safe counters, gauges, and bucketed histograms.

A :class:`MetricsRegistry` names metrics; each metric holds one value
per label combination (``counter.inc(rule="Rule1")``). Mutation is
safe under concurrent writers — the serve plane's handler threads
share one registry, and a shared system-level registry is written by
every pipeline stage — at the cost of a single lock acquisition per
update.

The *ambient* registry travels via ``contextvars``: code that cannot
reasonably thread a registry through its signature (the import/export
wrappers, library helpers) publishes through :func:`record`, which is
a near no-op unless a caller installed a registry with
:func:`collecting`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: counts-per-event shaped (bindings per
#: application, candidates per rule...), roughly logarithmic.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000, math.inf,
)

#: Buckets for wall-time observations, in seconds.
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, math.inf,
)

#: Buckets for request latencies, in milliseconds (serving paths).
LATENCY_MS_BUCKETS: Tuple[float, ...] = (
    0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
    1000, 2500, 5000, 10000, math.inf,
)

#: The streaming percentiles every histogram estimates (p50/p95/p99).
QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Metric:
    """One named metric; values live per label combination."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: Dict[LabelKey, float] = {}

    def value(self, **labels: object) -> float:
        """The current value for a label combination (0 if never set)."""
        return self._values.get(_label_key(labels), 0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        """All (labels, value) pairs, insertion-ordered."""
        with self._lock:
            items = list(self._values.items())
        return [(dict(key), value) for key, value in items]

    def total(self) -> float:
        """The sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {len(self._values)} series)"


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount


class Gauge(Metric):
    """A value that can go up and down (sizes, ratios)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: object) -> None:
        self.inc(-amount, **labels)


class Histogram(Metric):
    """Bucketed distribution: cumulative bucket counts, sum, and count.

    Buckets are upper bounds (``le``); the last bucket is always
    ``+inf``. Per label combination the histogram keeps one count per
    bucket plus the observation sum and total count.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        if not bounds or bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds
        self._series: Dict[LabelKey, List[float]] = {}  # bucket counts + [sum, count]
        self._nonfinite: Dict[LabelKey, float] = {}  # NaN/±inf observations

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            if not math.isfinite(value):
                # A single NaN would poison `sum` (and +inf the last
                # bucket) forever; quarantine non-finite observations
                # in their own counter instead.
                self._nonfinite[key] = self._nonfinite.get(key, 0) + 1
                return
            series = self._series.get(key)
            if series is None:
                series = [0.0] * (len(self.buckets) + 2)
                self._series[key] = series
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series[index] += 1
                    break
            series[-2] += value
            series[-1] += 1
            self._values[key] = series[-1]  # Metric.value() -> observation count

    def stats(self, **labels: object) -> Dict[str, object]:
        """``{"count", "sum", "buckets": {le: cumulative_count},
        "p50"/"p95"/"p99": streaming percentile estimates (None when
        empty), "nonfinite": quarantined_observations}``."""
        key = _label_key(labels)
        with self._lock:
            nonfinite = self._nonfinite.get(key, 0)
            series = self._series.get(key)
            if series is None:
                return {"count": 0, "sum": 0.0, "buckets": {},
                        "p50": None, "p95": None, "p99": None,
                        "nonfinite": nonfinite}
            cumulative, running = {}, 0.0
            for index, bound in enumerate(self.buckets):
                running += series[index]
                cumulative[bound] = running
            stats: Dict[str, object] = {
                "count": series[-1], "sum": series[-2],
                "buckets": cumulative,
            }
            for quantile in QUANTILES:
                label = f"p{int(quantile * 100)}"
                stats[label] = _estimate_quantile(self.buckets, series, quantile)
            stats["nonfinite"] = nonfinite
            return stats

    def percentile(self, quantile: float, **labels: object) -> Optional[float]:
        """A streaming percentile estimate (``quantile`` in (0, 1]),
        linearly interpolated inside the landing bucket — the same
        estimate PromQL's ``histogram_quantile`` computes from the
        exposed buckets. ``None`` for an empty series."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return None
            return _estimate_quantile(self.buckets, series, quantile)

    def label_keys(self) -> List[Dict[str, str]]:
        with self._lock:
            keys = dict.fromkeys(self._series)
            keys.update(dict.fromkeys(self._nonfinite))
            return [dict(key) for key in keys]


class MetricsRegistry:
    """A named family of metrics.

    ``counter``/``gauge``/``histogram`` get-or-create (re-registering
    the same name with a different kind raises); ``snapshot()`` turns
    the whole registry into plain JSON-ready data.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, Metric] = {}

    # -- registration -------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, "counter", help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, "gauge", help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, help, buckets)
                self._metrics[name] = metric
            elif metric.kind != "histogram":
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a histogram"
                )
        return metric  # type: ignore[return-value]

    def _get_or_create(self, name: str, kind: str, help: str) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._KINDS[kind](name, help)
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise TypeError(f"metric {name!r} is a {metric.kind}, not a {kind}")
        return metric

    # -- reading ------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def value(self, name: str, **labels: object) -> float:
        """The value of one metric series; 0 for unknown metrics, so
        reading a counter that never fired needs no special-casing."""
        metric = self._metrics.get(name)
        return metric.value(**labels) if metric is not None else 0

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-data view of every metric, ready for ``json.dumps``."""
        out: Dict[str, Dict[str, object]] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: Dict[str, object] = {"type": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["series"] = [
                    {"labels": labels, **_histogram_json(metric.stats(**labels))}
                    for labels in metric.label_keys()
                ]
            else:
                entry["series"] = [
                    {"labels": labels, "value": value}
                    for labels, value in metric.samples()
                ]
            out[name] = entry
        return out

    def __iter__(self) -> Iterator[Metric]:
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metric(s))"


def _estimate_quantile(
    bounds: Sequence[float], series: List[float], quantile: float
) -> Optional[float]:
    """Interpolate a quantile from per-bucket counts (caller holds the
    lock). Observations are assumed uniform inside their bucket; a
    quantile landing in the ``+inf`` bucket reports the highest finite
    bound — both are the ``histogram_quantile`` conventions."""
    count = series[-1]
    if count <= 0:
        return None
    rank = quantile * count
    cumulative = 0.0
    lower = 0.0
    for index, bound in enumerate(bounds):
        bucket_count = series[index]
        if bucket_count > 0 and cumulative + bucket_count >= rank:
            if bound == math.inf:
                return lower
            fraction = (rank - cumulative) / bucket_count
            return lower + (bound - lower) * fraction
        cumulative += bucket_count
        if bound != math.inf:
            lower = bound
    return lower


def _histogram_json(stats: Dict[str, object]) -> Dict[str, object]:
    buckets = {
        ("+Inf" if bound == math.inf else repr(bound)): count
        for bound, count in stats["buckets"].items()  # type: ignore[union-attr]
    }
    payload: Dict[str, object] = {
        "count": stats["count"],
        "sum": stats["sum"],
    }
    # Percentiles of a histogram with zero finite observations do not
    # exist; the JSON contract is to omit the key entirely — never
    # null, never NaN — matching /stats and the Prometheus exposition.
    for key in ("p50", "p95", "p99"):
        estimate = stats.get(key)
        if estimate is not None and math.isfinite(float(estimate)):
            payload[key] = estimate
    payload["nonfinite"] = stats.get("nonfinite", 0)
    payload["buckets"] = buckets
    return payload


# ---------------------------------------------------------------------------
# Ambient registry
# ---------------------------------------------------------------------------

_AMBIENT: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_registry", default=None
)


def ambient_registry() -> Optional[MetricsRegistry]:
    """The registry installed by the nearest :func:`collecting`, if any."""
    return _AMBIENT.get()


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None):
    """Install *registry* (a fresh one by default) as the ambient
    metrics sink for the duration of the ``with`` block."""
    registry = registry if registry is not None else MetricsRegistry()
    token = _AMBIENT.set(registry)
    try:
        yield registry
    finally:
        _AMBIENT.reset(token)


def record(name: str, amount: float = 1, **labels: object) -> None:
    """Increment an ambient counter; a no-op without a registry."""
    registry = _AMBIENT.get()
    if registry is not None:
        registry.counter(name).inc(amount, **labels)


def record_gauge(name: str, value: float, **labels: object) -> None:
    """Set an ambient gauge; a no-op without a registry."""
    registry = _AMBIENT.get()
    if registry is not None:
        registry.gauge(name).set(value, **labels)
