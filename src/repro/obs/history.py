"""Time-series telemetry: periodic snapshots of a metrics registry.

Every surface so far is point-in-time: ``/metrics`` and ``/stats``
expose the counters *now*, and ``repro top`` reconstructs rates from
its own poll deltas — close the terminal and the history is gone. A
:class:`MetricsHistory` keeps the trend server-side: a bounded ring of
lightweight per-tick samples (scalar totals per metric — never the
full bucket layout), cheap enough to take every few seconds for the
life of a daemon and small enough to serialize whole as
``GET /stats/history``.

Each sample carries both clocks deliberately: ``ts`` (unix seconds,
human-readable, joins request logs) and ``ts_us`` (the
``perf_counter`` microsecond clock spans and events use), so history
ticks line up with traces without clock-skew arithmetic — the same
convention :class:`repro.serve.telemetry.RequestLog` follows.

:class:`HistorySampler` is the drive loop: a daemon thread calling
``history.sample()`` on an interval, started by the serve daemon and
stopped by its graceful shutdown.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram, MetricsRegistry

#: Default ring capacity: at the default 5 s interval, half an hour of
#: trend per daemon.
DEFAULT_CAPACITY = 360

#: Default seconds between samples.
DEFAULT_INTERVAL_S = 5.0


class MetricsHistory:
    """A bounded ring of registry snapshots (thread-safe).

    One sample is ``{"seq", "ts", "ts_us", "metrics": {name: entry}}``
    where a counter/gauge entry is ``{"type", "total"}`` and a
    histogram entry is ``{"type", "count", "sum"}`` (count and sum
    across every label combination — enough to derive rates and mean
    latencies between any two ticks without shipping bucket layouts).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("MetricsHistory capacity must be >= 1")
        self.registry = registry
        self.capacity = capacity
        self._lock = threading.Lock()
        self._samples: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._seq = 0
        self._listeners: List[Callable[[Dict[str, object]], None]] = []

    # -- recording ----------------------------------------------------------

    def add_listener(
        self, listener: Callable[[Dict[str, object]], None]
    ) -> None:
        """Call *listener* with each newly recorded sample (after it is
        appended) — how the alert evaluator rides the sampler cadence.
        Listener exceptions are swallowed: a bad consumer must never
        kill the sampler thread or a graceful shutdown's final tick."""
        self._listeners.append(listener)

    def sample(self, at: Optional[float] = None) -> Dict[str, object]:
        """Snapshot the registry's scalar totals as one new tick.

        ``at`` overrides the tick's unix timestamp — the hook that lets
        tests and replay tooling drive time-dependent consumers (alert
        hysteresis, burn-rate windows) through synthetic ticks without
        wall-clock sleeps."""
        metrics: Dict[str, Dict[str, object]] = {}
        for metric in self.registry:
            if isinstance(metric, Histogram):
                count = 0.0
                total = 0.0
                for labels in metric.label_keys():
                    stats = metric.stats(**labels)
                    count += float(stats["count"])  # type: ignore[arg-type]
                    total += float(stats["sum"])  # type: ignore[arg-type]
                metrics[metric.name] = {
                    "type": "histogram", "count": count, "sum": total,
                }
            else:
                metrics[metric.name] = {
                    "type": metric.kind, "total": metric.total(),
                }
        with self._lock:
            self._seq += 1
            entry: Dict[str, object] = {
                "seq": self._seq,
                "ts": round(time.time(), 6) if at is None else float(at),
                "ts_us": round(time.perf_counter_ns() / 1000.0, 1),
                "metrics": metrics,
            }
            self._samples.append(entry)
        for listener in self._listeners:
            try:
                listener(entry)
            except Exception:
                pass  # see add_listener: consumers cannot break sampling
        return entry

    # -- reading ------------------------------------------------------------

    def tail(
        self,
        limit: Optional[int] = None,
        names: Optional[Sequence[str]] = None,
    ) -> List[Dict[str, object]]:
        """The most recent samples, oldest first; ``names`` filters the
        per-sample metric maps to the requested metrics."""
        with self._lock:
            samples = list(self._samples)
        if limit is not None:
            samples = samples[-limit:] if limit > 0 else []
        if names is None:
            return [dict(sample) for sample in samples]
        wanted = set(names)
        out = []
        for sample in samples:
            filtered = dict(sample)
            filtered["metrics"] = {
                name: entry
                for name, entry in sample["metrics"].items()  # type: ignore[union-attr]
                if name in wanted
            }
            out.append(filtered)
        return out

    def series(
        self, name: str, field: Optional[str] = None
    ) -> List[Tuple[float, float]]:
        """``(ts, value)`` points for one metric. ``field`` picks the
        histogram component (``count``/``sum``); scalars default to
        ``total``. Ticks predating the metric are skipped."""
        points: List[Tuple[float, float]] = []
        for sample in self.tail():
            entry = sample["metrics"].get(name)  # type: ignore[union-attr]
            if entry is None:
                continue
            key = field if field is not None else (
                "count" if entry.get("type") == "histogram" else "total"
            )
            value = entry.get(key)
            if value is None:
                continue
            points.append((float(sample["ts"]), float(value)))
        return points

    def rates(self, name: str, field: Optional[str] = None) -> List[float]:
        """Per-second deltas between consecutive ticks of one metric
        (the request-rate sparkline in ``repro top``). Negative deltas
        (a counter reset) clamp to zero."""
        points = self.series(name, field)
        rates: List[float] = []
        for (prev_ts, prev_value), (ts, value) in zip(points, points[1:]):
            dt = max(ts - prev_ts, 1e-9)
            rates.append(max(0.0, value - prev_value) / dt)
        return rates

    def to_json(
        self,
        limit: Optional[int] = None,
        names: Optional[Sequence[str]] = None,
    ) -> Dict[str, object]:
        """The ``GET /stats/history`` document."""
        samples = self.tail(limit=limit, names=names)
        return {
            "capacity": self.capacity,
            "count": len(self),
            "samples": samples,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def __repr__(self) -> str:
        return f"MetricsHistory({len(self)}/{self.capacity} sample(s))"


class HistorySampler:
    """A daemon thread ticking ``history.sample()`` on an interval.

    ``start()`` takes an immediate first sample so ``/stats/history``
    is never empty on a fresh daemon; ``stop()`` takes a final one so
    the ring ends at shutdown state. Both are idempotent.
    """

    def __init__(
        self,
        history: MetricsHistory,
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.history = history
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "HistorySampler":
        if self.running:
            return self
        self._stop.clear()
        self.history.sample()
        self._thread = threading.Thread(
            target=self._loop, name="repro-metrics-history", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.history.sample()

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
            self.history.sample()

    def __enter__(self) -> "HistorySampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"HistorySampler(every {self.interval_s:g}s, {state})"
