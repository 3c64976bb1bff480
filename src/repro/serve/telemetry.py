"""Serving-side telemetry: request log, trace retention, trace ids.

The daemon in :mod:`repro.serve.server` keeps three per-process
artifacts on top of the shared :class:`~repro.obs.MetricsRegistry`:

* a :class:`RequestLog` — one structured JSONL record per request
  (latency, program, input/output tree counts, status, trace id),
  streamed to a file when a path is given and retained in a bounded
  in-memory tail for ``/stats`` and ``repro top``;
* a :class:`TraceStore` — a bounded ring of the most recent requests'
  span trees + provenance, keyed by trace id, backing
  ``GET /trace/<trace_id>``;
* :func:`new_trace_id` / :func:`clean_trace_id` — generation and
  validation of request trace ids (inbound ``X-Trace-Id`` headers are
  honored when they survive validation).
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.rotation import RotatingJsonlWriter
from ..obs.spans import Span, SpanRecorder

#: Accepted inbound trace ids: printable, no whitespace/quotes, short
#: enough to log. Anything else gets a fresh server-generated id.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._:/-]{1,128}$")


def new_trace_id() -> str:
    """A fresh request trace id (uuid4, hyphen-free)."""
    return uuid.uuid4().hex


def clean_trace_id(candidate: Optional[str]) -> str:
    """Honor a propagated trace id when it is well-formed, else mint a
    new one — a malformed header must not corrupt the JSONL logs."""
    if candidate and _TRACE_ID_RE.match(candidate):
        return candidate
    return new_trace_id()


class RequestLog:
    """Append-only structured request log (thread-safe).

    Every entry gets ``seq`` (1-based, monotonic), ``ts`` (unix
    seconds), and ``ts_us`` — microseconds on the same ``perf_counter``
    clock spans use (:attr:`repro.obs.spans.Span.start_us`), so request
    records join span trees and ``/stats/history`` ticks without
    cross-clock arithmetic. With a ``path`` the entry is also written
    immediately as one compact JSON line — a crash loses at most the
    OS buffer, and :meth:`flush`/:meth:`close` (called by graceful
    shutdown) drain that too.

    ``max_bytes`` bounds the on-disk file via the shared
    :class:`~repro.obs.rotation.RotatingJsonlWriter`: once a write
    would push it past the limit the file rotates to ``<path>.1`` (one
    generation, overwritten) and a fresh file begins — a long-lived
    daemon's log stops growing without bound. Off (None) by default;
    rotations are counted in the ``serve.request_log.rotations`` metric
    when a registry is given.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        capacity: int = 256,
        max_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None to disable)")
        self.path = path
        self.max_bytes = max_bytes
        self._registry = registry
        self._lock = threading.Lock()
        self._tail: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._count = 0
        self._writer = (
            RotatingJsonlWriter(
                path, max_bytes=max_bytes, on_rotate=self._count_rotation
            )
            if path
            else None
        )

    @property
    def rotations(self) -> int:
        return self._writer.rotations if self._writer is not None else 0

    def _count_rotation(self) -> None:
        if self._registry is not None:
            self._registry.counter(
                "serve.request_log.rotations", "request-log file rotations"
            ).inc()

    def append(self, **fields: object) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "ts": round(time.time(), 6),
            "ts_us": round(time.perf_counter_ns() / 1000.0, 1),
        }
        entry.update(fields)
        with self._lock:
            self._count += 1
            entry["seq"] = self._count
            self._tail.append(entry)
            if self._writer is not None and not self._writer.closed:
                # Appends racing a close keep the in-memory tail only
                # (the pre-rotation behavior): stop() closed the file.
                self._writer.write_record(entry)
        return entry

    def tail(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent entries, oldest first."""
        with self._lock:
            entries = list(self._tail)
        if limit is not None:
            entries = entries[-limit:] if limit > 0 else []
        return [dict(entry) for entry in entries]

    def flush(self) -> None:
        with self._lock:
            if self._writer is not None and not self._writer.closed:
                self._writer.flush()

    def close(self) -> None:
        with self._lock:
            if self._writer is not None and not self._writer.closed:
                self._writer.close()

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def __repr__(self) -> str:
        return f"RequestLog({len(self)} request(s), path={self.path!r})"


class TraceStore:
    """Bounded retention of per-request traces, keyed by trace id.

    Holds the JSON-ready join of one request's span tree and
    provenance (built by :func:`trace_payload`); the oldest trace is
    evicted once ``capacity`` is exceeded. Re-putting an existing id
    (a client reusing an ``X-Trace-Id``) replaces the stored payload.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("TraceStore capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, Dict[str, object]]" = OrderedDict()

    def put(self, trace_id: str, payload: Dict[str, object]) -> None:
        with self._lock:
            if trace_id in self._traces:
                del self._traces[trace_id]
            self._traces[trace_id] = payload
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            return self._traces.get(trace_id)

    def ids(self) -> List[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def __repr__(self) -> str:
        return f"TraceStore({len(self)}/{self.capacity} trace(s))"


def span_json(span: Span) -> Dict[str, object]:
    """One finished span as plain data (ids join provenance records)."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "category": span.category,
        "start_us": span.start_us,
        "duration_us": span.duration_us,
        "args": dict(span.args),
        "thread_id": span.thread_id,
    }


def trace_payload(
    trace_id: str,
    recorder: SpanRecorder,
    provenance,
    request: Dict[str, object],
    cache_hit: bool = False,
) -> Dict[str, object]:
    """The ``GET /trace/<id>`` document: the request-log entry, the
    span tree, and the provenance records of one request, joined by
    the shared trace id (each provenance record's ``span_id`` names
    the span it fired under).

    A result-cache hit still gets its own trace — marked
    ``cache_hit: true`` — but its span tree holds only this request's
    serve-side spans and its provenance is empty: the original
    request's interpreter lineage belongs to the original trace and is
    never replayed into the hit's."""
    payload = {
        "trace_id": trace_id,
        "request": dict(request),
        "spans": [span_json(span) for span in recorder.spans()],
        "provenance": provenance.to_json() if provenance is not None else None,
    }
    if cache_hit:
        payload["cache_hit"] = True
    return payload
