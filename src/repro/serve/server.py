"""The mediator daemon: conversion over HTTP plus a live telemetry plane.

Real mediation architectures are long-running services queried by
clients, not one-shot CLIs. :class:`MediatorServer` wraps a shared
:class:`~repro.system.YatSystem` in a stdlib ``ThreadingHTTPServer``
(no dependencies) and exposes:

===========================  ==============================================
``POST /convert/<program>``  run a library conversion program over the
                             SGML payload; responds with JSON counts and
                             the request's trace id
``GET /metrics``             Prometheus text exposition of the shared
                             registry (RED serving metrics + pipeline
                             internals)
``GET /healthz``             liveness — 200 while the process serves,
                             503 once draining
``GET /readyz``              readiness — 200 only after the program
                             library is loaded and warmed
``GET /stats``               JSON snapshot: server state, per-program
                             request/latency/error tables, request-log
                             tail, full metric snapshot (what ``repro
                             top`` polls)
``GET /trace/<trace_id>``    the span tree + provenance join of one
                             recent request
``GET /alerts``              the SLO engine's verdict: every alert
                             rule's state, recent transitions, and a
                             top-level ``healthy`` flag (what ``repro
                             watch`` polls)
``GET /quality``             conversion-quality health: shadow
                             verification counters + recent mismatches
                             and the per-source drift snapshot
===========================  ==============================================

Every request gets a trace id (honoring an inbound ``X-Trace-Id``
header), a per-request span tree and provenance store retained in a
bounded :class:`~repro.serve.telemetry.TraceStore`, one JSONL
request-log entry, and observations into the RED metrics
``serve.requests`` / ``serve.errors`` / ``serve.latency_ms``
(per-program labels). Shutdown is graceful: stop accepting, drain
in-flight requests, flush the event and request logs.

The serve fast path (docs/PERFORMANCE.md) sits between the HTTP shell
and the interpreter:

1. a bounded LRU **conversion result cache**
   (:class:`~repro.serve.cache.ResultCache`) keyed by ``(program,
   canonical input hash, rendering options)``, invalidated through
   :meth:`~repro.system.YatSystem.save_program`'s listener hook so a
   warm server never serves a stale view;
2. **admission control**: above ``max_queue_depth`` concurrently
   executing conversions, new work is rejected with ``429`` +
   ``Retry-After`` (``serve.rejected``) instead of queueing until the
   thread pool collapses — overload degrades predictably.

Cached responses still emit full RED metrics and a ``/trace/<id>``
entry marked ``cache_hit: true`` whose span tree and provenance belong
to *this* request (the original request's lineage is never replayed).
"""

from __future__ import annotations

import json
import math
import queue
import threading
import time
from collections import deque
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Deque, Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from .. import __version__
from ..errors import YatError
from ..obs import (
    DEFAULT_HZ,
    LATENCY_MS_BUCKETS,
    AlertEvaluator,
    EventLog,
    HistorySampler,
    MetricsHistory,
    ProvenanceStore,
    SamplingProfiler,
    SpanRecorder,
    collecting,
    drift_snapshot,
    metrics_to_prometheus,
    recording,
    response_core,
    span,
    tracing,
)
from ..sgml.parser import parse_sgml_many
from ..system import YatSystem
from ..wrappers.html import HtmlExportWrapper
from ..wrappers.sgml import SgmlImportWrapper
from .cache import ResultCache
from .telemetry import RequestLog, TraceStore, clean_trace_id, trace_payload

#: Largest accepted /convert payload (64 MiB) — a backstop against a
#: runaway Content-Length allocating unbounded memory.
MAX_BODY_BYTES = 64 * 1024 * 1024

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Httpd(ThreadingHTTPServer):
    """Threading HTTP server whose handler threads are daemons.

    Draining is NOT delegated to ``server_close()`` joining handler
    threads: an idle HTTP/1.1 keep-alive connection parks its handler
    in ``readline()``, so a blocking join would hang shutdown forever
    (and a non-daemon thread would pin the interpreter). Instead
    :meth:`MediatorServer.stop` waits — with a deadline — on its own
    in-flight request count, which tracks requests actually being
    processed rather than connections merely held open."""

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True

    def __init__(self, address, handler, mediator: "MediatorServer") -> None:
        self.mediator = mediator
        super().__init__(address, handler)


class MediatorServer:
    """A running (or startable) mediator daemon.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after construction). The server shares one ``YatSystem`` — and
    therefore one metrics registry — across every request, so
    ``/metrics`` aggregates the whole process lifetime.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        system: Optional[YatSystem] = None,
        request_log_path: Optional[str] = None,
        event_log_path: Optional[str] = None,
        trace_capacity: int = 64,
        warm_programs: Optional[Sequence[str]] = None,
        warm: bool = True,
        allow_test_delay: bool = False,
        drain_timeout_s: float = 10.0,
        cache_size: int = 256,
        max_queue_depth: Optional[int] = None,
        history_interval_s: float = 5.0,
        history_capacity: int = 360,
        alert_rules: Optional[Sequence[object]] = None,
        request_log_max_bytes: Optional[int] = None,
        shadow_sample: Optional[int] = None,
    ) -> None:
        self.system = system if system is not None else YatSystem()
        self.registry = self.system.metrics
        # -- the fast path (docs/PERFORMANCE.md) ---------------------------
        # Result cache: cache_size=0 disables it (the bench ablation).
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.cache = (
            ResultCache(cache_size, self.registry) if cache_size > 0 else None
        )
        # Admission control: None = unlimited (the pre-PR-6 behavior).
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self._queue_depth = 0
        self._queue_lock = threading.Lock()
        # One program save must invalidate every derived layer: the
        # parsed-program cache (inside YatSystem) and the result cache.
        self.system.add_invalidation_listener(self._on_program_changed)
        self.request_log = RequestLog(
            request_log_path,
            max_bytes=request_log_max_bytes,
            registry=self.registry,
        )
        self.traces = TraceStore(trace_capacity)
        # Time-series telemetry: a bounded ring of periodic registry
        # snapshots behind GET /stats/history (sparklines in repro
        # top), sampled by a daemon thread for the server's lifetime.
        self.history = MetricsHistory(self.registry, capacity=history_capacity)
        self._history_sampler = HistorySampler(
            self.history, interval_s=history_interval_s
        )
        self.events = EventLog()
        # SLO engine: the evaluator rides the history sampler's cadence
        # (every tick evaluates every rule) and judges the telemetry —
        # GET /alerts, the /stats alerts block, repro_alert_state
        # gauges, and the `repro watch` exit code all read its verdict.
        # Always constructed (an empty rule set is trivially healthy)
        # so the endpoints exist whether or not --alerts was given.
        self.alerts = AlertEvaluator(
            list(alert_rules or []),
            history=self.history,
            registry=self.registry,
            events=self.events,
        ).watch()
        # Live shadow verification (docs/OBSERVABILITY.md, "Conversion
        # quality"): re-convert a deterministic 1-in-N sample of cache
        # hits on a background worker and byte-compare the fresh
        # response core against what the cache served — catching
        # cache-coherence and nondeterminism bugs while they are one
        # stale entry, not an incident. Off (None) by default.
        if shadow_sample is not None and shadow_sample < 1:
            raise ValueError("shadow_sample must be >= 1 (or None to disable)")
        self.shadow_sample = shadow_sample
        self._shadow_lock = threading.Lock()
        self._shadow_counter = 0
        self._shadow_queue: "queue.Queue[Tuple[str, str, str, bool, int, Dict[str, object], int]]" = (
            queue.Queue(maxsize=128)
        )
        self._shadow_mismatches: Deque[Dict[str, object]] = deque(maxlen=32)
        # Saves per program: a sample carries the count at its hit, and
        # one taken before a save_program is stale (its cached response
        # came from the superseded program text).
        self._program_saves: Dict[str, int] = {}
        self._shadow_stop = threading.Event()
        self._shadow_thread: Optional[threading.Thread] = None
        self.event_log_path = event_log_path
        self.allow_test_delay = allow_test_delay
        self.drain_timeout_s = drain_timeout_s
        self._warm = warm
        self._warm_programs = warm_programs
        self._ready = threading.Event()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        # In-flight *request* accounting (not connections: an idle
        # keep-alive connection holds a handler thread but no request).
        # stop() drains by waiting on this count with a deadline.
        self._inflight_requests = 0
        self._inflight_cv = threading.Condition()
        # When the last HTTP request ended (monotonic s); the shadow
        # worker waits for quiet time measured from it.
        self._last_request_end = -math.inf
        self._started_monotonic: Optional[float] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._warm_thread: Optional[threading.Thread] = None
        self._httpd = _Httpd((host, port), _Handler, self)
        self.host, self.port = self._httpd.server_address[:2]
        # Started last: the worker waits on the in-flight accounting.
        if self.shadow_sample is not None:
            self._shadow_thread = threading.Thread(
                target=self._shadow_worker,
                name="repro-serve-shadow",
                daemon=True,
            )
            self._shadow_thread.start()

    # -- lifecycle ----------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self._ready.is_set() and not self._draining.is_set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def warm_now(self) -> None:
        """Load + parse the serving programs, then flip readiness."""
        warmed = self.system.warm(self._warm_programs)
        self.events.emit("server.ready", programs=len(warmed))
        self._ready.set()

    def start(self) -> "MediatorServer":
        """Serve in a background thread; warmup runs concurrently and
        flips ``/readyz`` when the program library is parsed."""
        self._started_monotonic = time.monotonic()
        self.events.emit("server.started", host=self.host, port=self.port)
        self._history_sampler.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-serve-{self.port}",
            daemon=True,
        )
        self._serve_thread.start()
        if self._warm:
            self._warm_thread = threading.Thread(
                target=self._safe_warm, name="repro-serve-warmup", daemon=True
            )
            self._warm_thread.start()
        return self

    def _safe_warm(self) -> None:
        try:
            self.warm_now()
        except Exception as exc:  # library corruption must not kill serving
            self.events.emit("server.warmup_failed", error=str(exc))

    @contextmanager
    def track_request(self):
        """Count one HTTP request as in-flight for the drain in
        :meth:`stop` and the shadow worker's quiet time (used by the
        handler around request dispatch)."""
        with self._inflight_cv:
            self._inflight_requests += 1
        try:
            yield
        finally:
            with self._inflight_cv:
                self._inflight_requests -= 1
                self._last_request_end = time.monotonic()
                # Both waiters (the drain, the shadow worker) wait for
                # zero; waking the worker on every response would have
                # it contend for the interpreter lock under load.
                if not self._inflight_requests:
                    self._inflight_cv.notify_all()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests
        (bounded by ``drain_timeout_s`` — never hangs on idle
        keep-alive connections), flush the event + request logs. Safe
        to call more than once."""
        if self._stopped.is_set():
            return
        self._draining.set()
        self.events.emit("server.draining")
        self._httpd.shutdown()  # stop the accept loop
        deadline = time.monotonic() + self.drain_timeout_s
        with self._inflight_cv:
            while self._inflight_requests:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.events.emit(
                        "server.drain_timeout",
                        abandoned=self._inflight_requests,
                    )
                    break
                self._inflight_cv.wait(remaining)
        if self._shadow_thread is not None:
            # Pending shadow checks are best-effort: stop the worker
            # after the request drain rather than draining its queue.
            self._shadow_stop.set()
            self._shadow_thread.join(timeout=5)
        self._history_sampler.stop()  # final tick records shutdown state
        self._httpd.server_close()  # close the listening socket
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
        self._stopped.set()
        self.events.emit(
            "server.stopped",
            requests=len(self.request_log),
            uptime_s=round(self.uptime_s(), 3),
        )
        if self.event_log_path:
            self.events.write(self.event_log_path)
        self.request_log.close()

    def __enter__(self) -> "MediatorServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- telemetry ----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The ``GET /stats`` document (also usable in-process)."""
        requests = self.registry.counter(
            "serve.requests", "conversion requests served"
        )
        errors = self.registry.counter("serve.errors", "failed requests")
        rejected = self.registry.counter(
            "serve.rejected", "requests shed by admission control"
        )
        cache_hits = self.registry.counter(
            "serve.cache.hits", "result-cache hits"
        )
        latency = self.registry.histogram(
            "serve.latency_ms", "request latency (ms)",
            buckets=LATENCY_MS_BUCKETS,
        )
        programs: Dict[str, Dict[str, object]] = {}

        def entry_for(program: str) -> Dict[str, object]:
            return programs.setdefault(
                program,
                {"requests": 0.0, "errors": 0.0, "rejected": 0.0,
                 "cache_hits": 0.0, "shadow_ok": 0.0,
                 "shadow_mismatches": 0.0},
            )

        for labels, value in requests.samples():
            entry_for(labels.get("program", "?"))["requests"] += value
        for labels, value in errors.samples():
            entry_for(labels.get("program", "?"))["errors"] += value
        for labels, value in rejected.samples():
            entry_for(labels.get("program", "?"))["rejected"] += value
        for labels, value in cache_hits.samples():
            entry_for(labels.get("program", "?"))["cache_hits"] += value
        for name, field in (
            ("serve.shadow.ok", "shadow_ok"),
            ("serve.shadow.mismatches", "shadow_mismatches"),
        ):
            metric = self.registry.get(name)
            if metric is not None:
                for labels, value in metric.samples():
                    entry_for(labels.get("program", "?"))[field] += value
        for program, entry in programs.items():
            stats = latency.stats(program=program)
            latency_block: Dict[str, object] = {
                "count": stats["count"],
                "sum": round(float(stats["sum"]), 3),
            }
            for quantile_key in ("p50", "p95", "p99"):
                estimate = stats.get(quantile_key)
                # Percentiles of an empty histogram do not exist:
                # omit the key rather than emit null/NaN, so JSON
                # consumers and the dashboard share one convention.
                if estimate is not None and math.isfinite(float(estimate)):
                    latency_block[quantile_key] = estimate
            entry["latency_ms"] = latency_block
        with self._queue_lock:
            queue_depth = self._queue_depth
        return {
            "server": {
                "version": __version__,
                "host": self.host,
                "port": self.port,
                "uptime_s": round(self.uptime_s(), 3),
                "ready": self.ready,
                "draining": self.draining,
                "inflight": self.registry.value("serve.inflight"),
                "requests_total": requests.total(),
                "errors_total": errors.total(),
                "programs": self.system.library.program_names(),
                "traces_retained": len(self.traces),
                "cache": (
                    self.cache.stats() if self.cache is not None
                    else {"capacity": 0}
                ),
                "admission": {
                    "max_queue_depth": self.max_queue_depth,
                    "queue_depth": queue_depth,
                    "rejected_total": rejected.total(),
                },
                "history": {
                    "samples": len(self.history),
                    "capacity": self.history.capacity,
                    "interval_s": self._history_sampler.interval_s,
                },
                "alerts": self.alerts.summary(),
                "quality": self.quality_payload(),
            },
            "programs": programs,
            "requests": self.request_log.tail(20),
            "metrics": self.registry.snapshot(),
        }

    def profile_now(
        self, seconds: float = 2.0, hz: float = DEFAULT_HZ
    ) -> SamplingProfiler:
        """Sample every server thread for *seconds* (the
        ``GET /debug/profile`` implementation, also usable in-process).
        Draining interrupts the capture early so profiling never delays
        a graceful shutdown."""
        self.registry.counter(
            "serve.profile.runs", "on-demand /debug/profile captures"
        ).inc()
        profiler = SamplingProfiler(hz=hz)
        profiler.start()
        try:
            self._draining.wait(timeout=seconds)
        finally:
            profiler.stop()
        return profiler

    # -- the fast path ------------------------------------------------------

    def _on_program_changed(self, program_name: str) -> None:
        """``save_program`` invalidation fan-out (must never raise)."""
        with self._shadow_lock:
            self._program_saves[program_name] = (
                self._program_saves.get(program_name, 0) + 1
            )
        if self.cache is not None:
            self.cache.invalidate_program(program_name)

    def _try_admit(self) -> bool:
        """Claim one conversion-queue slot; False means shed the load."""
        with self._queue_lock:
            if (
                self.max_queue_depth is not None
                and self._queue_depth >= self.max_queue_depth
            ):
                return False
            self._queue_depth += 1
            depth = self._queue_depth
        self.registry.gauge(
            "serve.queue_depth", "conversions executing or queued"
        ).set(depth)
        return True

    def _release_queue_slot(self) -> None:
        with self._queue_lock:
            self._queue_depth -= 1
            depth = self._queue_depth
        self.registry.gauge(
            "serve.queue_depth", "conversions executing or queued"
        ).set(depth)

    def _retry_after_s(self, program_name: str) -> int:
        """A ``Retry-After`` estimate for a shed request: the time for
        the queue ahead of it to drain at the program's typical (p50)
        latency, clamped to [1, 30] seconds."""
        p50_ms = self.registry.histogram(
            "serve.latency_ms", "request latency (ms)",
            buckets=LATENCY_MS_BUCKETS,
        ).percentile(0.5, program=program_name)
        if p50_ms is None or not math.isfinite(p50_ms):
            return 1
        with self._queue_lock:
            depth = self._queue_depth
        return max(1, min(30, math.ceil(depth * p50_ms / 1000.0)))

    # -- shadow verification ------------------------------------------------

    def _maybe_shadow(
        self, program_name: str, body: str, to: str, include_output: bool,
        status: int, payload: Dict[str, object], saves: int,
    ) -> None:
        """Enqueue every Nth cache hit for background re-verification.

        Sampling is a deterministic stride (hits 1, N+1, 2N+1, ...), so
        tests and operators can predict exactly which hits verify. The
        queue is bounded and non-blocking: under pressure the sample is
        dropped (counted), never the request latency. *saves* is the
        program's save count read before the cache lookup."""
        if self.shadow_sample is None:
            return
        with self._shadow_lock:
            self._shadow_counter += 1
            selected = (self._shadow_counter - 1) % self.shadow_sample == 0
        if not selected:
            return
        self.registry.counter(
            "serve.shadow.sampled", "cache hits sampled for shadow verification"
        ).inc(program=program_name)
        try:
            self._shadow_queue.put_nowait(
                (program_name, body, to, include_output, status, payload,
                 saves)
            )
        except queue.Full:
            self.registry.counter(
                "serve.shadow.dropped",
                "shadow samples dropped (queue full or stale)",
            ).inc(program=program_name)

    def _shadow_worker(self) -> None:
        """Drain the shadow queue until shutdown, in quiet time only: a
        check starts once no HTTP request has been in flight for as long
        as the previous check took (the first check, with no cost
        measured yet, waits only for none in flight), so re-conversions
        do not compete with requests for the interpreter lock. Meanwhile
        samples wait in the queue, and a full queue drops new ones
        (counted). One bad check must never kill the worker (errors are
        counted, the loop survives)."""
        check_s = 0.0
        while not self._shadow_stop.is_set():
            try:
                item = self._shadow_queue.get(timeout=0.25)
            except queue.Empty:
                continue
            if not self._await_quiet(check_s):
                return
            began = time.monotonic()
            try:
                self._shadow_check(*item)
            except Exception as exc:
                self.registry.counter(
                    "serve.shadow.errors", "shadow verification internal errors"
                ).inc(error=type(exc).__name__)
            check_s = time.monotonic() - began

    def _await_quiet(self, quiet_s: float) -> bool:
        """Block until no HTTP request has been in flight for *quiet_s*
        seconds; False once the server stops."""
        with self._inflight_cv:
            while not self._shadow_stop.is_set():
                wait_s = 0.25  # bounds how late a stop is noticed
                if not self._inflight_requests:
                    idle_s = time.monotonic() - self._last_request_end
                    if idle_s >= quiet_s:
                        return True
                    wait_s = min(wait_s, quiet_s - idle_s)
                self._inflight_cv.wait(wait_s)
        return False

    def _shadow_check(
        self, program_name: str, body: str, to: str, include_output: bool,
        cached_status: int, cached_payload: Dict[str, object], saves: int,
    ) -> None:
        """Re-convert one sampled hit and byte-compare response cores.

        The re-conversion runs straight through :meth:`_execute` —
        bypassing the cache and admission control, with no ambient
        collectors on this thread, so the verification neither counts
        toward request metrics nor re-stamps wrapper fingerprints.

        A sample whose program was saved after its hit, before or
        during the re-conversion, is stale: the cached response came
        from the superseded text, so comparing would report a false
        mismatch. Its verdict is dropped (counted) instead.

        ``serve.shadow.checked`` is bumped *last*, after the ok/mismatch
        verdict is recorded: pollers (``repro watch``, tests) treat
        ``checked`` as "verdicts available", so it must never run ahead
        of the verdict counters while the re-conversion is in flight."""
        live_status, live_payload, _counts = self._execute(
            program_name, body, to, include_output, 0.0
        )
        if self._program_saves.get(program_name, 0) != saves:
            self.registry.counter(
                "serve.shadow.dropped",
                "shadow samples dropped (queue full or stale)",
            ).inc(program=program_name)
            return
        cached_core = response_core(cached_payload)
        live_core = response_core(live_payload)
        if live_status == cached_status and live_core == cached_core:
            self.registry.counter(
                "serve.shadow.ok", "shadow verifications matching the cache"
            ).inc(program=program_name)
            self.registry.counter(
                "serve.shadow.checked", "shadow verifications executed"
            ).inc(program=program_name)
            return
        self.registry.counter(
            "serve.shadow.mismatches",
            "shadow verifications disagreeing with the cache",
        ).inc(program=program_name)
        differing = sorted(
            key
            for key in set(cached_payload) | set(live_payload)
            if key not in ("trace_id", "latency_ms", "cache_hit")
            and cached_payload.get(key) != live_payload.get(key)
        )
        detail = {
            "program": program_name,
            "cached_status": cached_status,
            "live_status": live_status,
            "fields": differing,
            "ts": round(time.time(), 3),
        }
        with self._shadow_lock:
            self._shadow_mismatches.append(detail)
        self.events.emit("shadow.mismatch", **detail)
        self.registry.counter(
            "serve.shadow.checked", "shadow verifications executed"
        ).inc(program=program_name)

    def quality_payload(self) -> Dict[str, object]:
        """The ``GET /quality`` document: shadow-verification health
        plus the per-source drift snapshot (what ``repro watch`` folds
        into its verdict and ``repro top``'s SHADOW column reads)."""
        def total(name: str) -> float:
            metric = self.registry.get(name)
            return metric.total() if metric is not None else 0.0

        shadow: Dict[str, object] = {
            "enabled": self.shadow_sample is not None,
            "sample": self.shadow_sample,
            "sampled": total("serve.shadow.sampled"),
            "checked": total("serve.shadow.checked"),
            "ok": total("serve.shadow.ok"),
            "mismatches": total("serve.shadow.mismatches"),
            "dropped": total("serve.shadow.dropped"),
            "pending": self._shadow_queue.qsize(),
        }
        with self._shadow_lock:
            shadow["recent_mismatches"] = [
                dict(detail) for detail in self._shadow_mismatches
            ]
        return {
            "shadow": shadow,
            "drift": drift_snapshot(self.registry),
        }

    # -- the conversion path ------------------------------------------------

    def convert(
        self,
        program_name: str,
        body: str,
        trace_id: Optional[str] = None,
        to: str = "trees",
        include_output: bool = False,
        delay_ms: float = 0.0,
    ) -> Tuple[int, Dict[str, object]]:
        """Run one conversion request; returns ``(status, payload)``.

        All request telemetry happens here — the HTTP handler is a thin
        parse/serialize shell around this method, which keeps the whole
        path unit-testable without sockets.
        """
        trace_id = clean_trace_id(trace_id)
        recorder = SpanRecorder(trace_id=trace_id)
        provenance = ProvenanceStore()
        inflight = self.registry.gauge(
            "serve.inflight", "requests currently executing"
        )
        inflight.inc()
        start = time.perf_counter()
        status, payload, counts, cache_hit = 500, {}, {}, False
        try:
            with collecting(self.registry), recording(recorder), \
                    tracing(provenance):
                with span("serve.request", category="serve",
                          program=program_name, trace_id=trace_id):
                    status, payload, counts, cache_hit = self._serve_request(
                        program_name, body, to, include_output, delay_ms
                    )
        except YatError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # never kill a handler thread
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            latency_ms = (time.perf_counter() - start) * 1000.0
            inflight.dec()
            self._account(
                program_name, trace_id, status, latency_ms, payload, counts,
                recorder, provenance, cache_hit=cache_hit,
            )
        payload.setdefault("trace_id", trace_id)
        payload["latency_ms"] = round(latency_ms, 3)
        return status, payload

    def _serve_request(
        self, program_name: str, body: str, to: str,
        include_output: bool, delay_ms: float,
    ) -> Tuple[int, Dict[str, object], Dict[str, object], bool]:
        """Cache lookup -> admission control -> execution -> cache fill.

        Returns ``(status, payload, counts, cache_hit)``. Requests with
        a test delay bypass the cache entirely (they exist to hold the
        queue open deterministically); without ``allow_test_delay`` the
        delay is ignored, so it cannot defeat the cache either. The
        cached payload core carries no trace id or latency — those are
        stamped per request by :meth:`convert` — and a hit performs no
        interpreter work, so its span tree and provenance stay empty
        apart from the request span itself (never replaying the original
        run's lineage).
        """
        if not self.allow_test_delay:
            delay_ms = 0.0
        cache_key = None
        if self.cache is not None and not delay_ms:
            # Read before the lookup: a save between the two then marks
            # a sampled hit stale instead of checking the old program's
            # entry against the new program.
            saves = self._program_saves.get(program_name, 0)
            cache_key = self.cache.key(program_name, body, to, include_output)
            hit = self.cache.get(cache_key)
            if hit is not None:
                status, payload, counts = hit
                # Shadow verification samples the hit *before* the
                # per-request cache_hit stamp, on its own copy — the
                # response being returned is never touched.
                self._maybe_shadow(
                    program_name, body, to, include_output, status,
                    dict(payload), saves,
                )
                payload["cache_hit"] = True
                return status, payload, counts, True
        if not self._try_admit():
            self.registry.counter(
                "serve.rejected", "requests shed by admission control"
            ).inc(program=program_name)
            retry_after = self._retry_after_s(program_name)
            return 429, {
                "error": "overloaded: conversion queue is full",
                "retry_after_s": retry_after,
            }, {}, False
        try:
            status, payload, counts = self._execute(
                program_name, body, to, include_output, delay_ms
            )
        finally:
            self._release_queue_slot()
        if cache_key is not None and status == 200:
            self.cache.put(cache_key, status, payload, counts)
        return status, payload, counts, False

    def _execute(
        self, program_name: str, body: str, to: str,
        include_output: bool, delay_ms: float,
    ) -> Tuple[int, Dict[str, object], Dict[str, object]]:
        try:
            program = self.system.load_program_cached(program_name)
        except YatError as exc:
            return 404, {"error": str(exc)}, {}
        if delay_ms:
            # Test/bench hook: hold the request open (graceful-shutdown
            # and drain tests need a deterministically slow request).
            with span("serve.test_delay", category="serve", ms=delay_ms):
                time.sleep(delay_ms / 1000.0)
        with span("serve.parse", category="serve"):
            documents = parse_sgml_many(body)
            store = SgmlImportWrapper().to_store(documents)
        result = self.system.run(program, store)
        counts = {
            "input_trees": len(store),
            "output_trees": len(result.store),
            "unconverted": len(result.unconverted),
            "warnings": len(result.warnings),
        }
        payload: Dict[str, object] = {"program": program_name, **counts}
        if result.warnings:
            payload["warning_messages"] = list(result.warnings)
        if include_output:
            with span("serve.render", category="serve", to=to):
                if to == "html":
                    payload["output"] = HtmlExportWrapper().export_result(result)
                else:
                    payload["output"] = {
                        name: str(node) for name, node in result.store
                    }
        return 200, payload, counts

    def _account(
        self, program_name, trace_id, status, latency_ms, payload, counts,
        recorder, provenance, cache_hit: bool = False,
    ) -> None:
        self.registry.counter(
            "serve.requests", "conversion requests served"
        ).inc(program=program_name, status=str(status))
        if status >= 400 and status not in (400, 429):
            # 429s are deliberate load shedding, not failures: they get
            # their own serve.rejected counter (incremented at the
            # admission gate) instead of polluting the error rate. A 400
            # is a body the wrappers or program refused: the client's fault.
            self.registry.counter("serve.errors", "failed requests").inc(
                program=program_name, status=str(status)
            )
        self.registry.histogram(
            "serve.latency_ms", "request latency (ms)",
            buckets=LATENCY_MS_BUCKETS,
        ).observe(latency_ms, program=program_name)
        entry = {
            "trace_id": trace_id,
            "program": program_name,
            "status": status,
            "latency_ms": round(latency_ms, 3),
            "input_trees": counts.get("input_trees", 0),
            "output_trees": counts.get("output_trees", 0),
            "unconverted": counts.get("unconverted", 0),
            "warnings": counts.get("warnings", 0),
        }
        if cache_hit:
            entry["cache_hit"] = True
        if "error" in payload:
            entry["error"] = payload["error"]
        logged = self.request_log.append(**entry)
        self.traces.put(
            trace_id,
            trace_payload(trace_id, recorder, provenance, logged,
                          cache_hit=cache_hit),
        )


# ---------------------------------------------------------------------------
# HTTP shell
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"
    #: Socket timeout: an idle keep-alive connection parks its handler
    #: thread in readline(); without a timeout that read never returns
    #: and the thread outlives any shutdown attempt.
    timeout = 5

    @property
    def mediator(self) -> MediatorServer:
        return self.server.mediator  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the JSONL request log replaces stderr chatter

    # -- plumbing -----------------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str,
              extra_headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection or self.mediator.draining:
            # Say so when the connection ends after this response.
            # Persistent connections must not outlive the drain (they
            # would park handler threads and keep feeding requests);
            # send_header sets close_connection.
            self.send_header("Connection", "close")
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        # One write for the whole response: a body written after
        # end_headers() is a second small segment, which Nagle's
        # algorithm holds until the client ACKs the headers, and the
        # client delays that ACK (~40 ms per response on a keep-alive
        # connection).
        if self.request_version == "HTTP/0.9":
            self._headers_buffer = [body]  # a 0.9 response is the bare body
        else:
            self._headers_buffer += [b"\r\n", body]
        try:
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def _send_json(self, status: int, payload: Dict[str, object],
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8",
                   extra_headers)

    def _refuse_unread(self, status: int, error: str) -> None:
        """Answer a POST without reading its body, and end the
        connection: the unread bytes would otherwise parse as the next
        request on it."""
        self.close_connection = True
        self._send_json(status, {"error": error})

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _hit(self, route: str) -> None:
        self.mediator.registry.counter(
            "serve.http.requests", "HTTP requests by route"
        ).inc(route=route)

    # -- GET: the observability plane --------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        with self.mediator.track_request():
            self._do_get()

    def _do_get(self) -> None:
        if ("Transfer-Encoding" in self.headers
                or self.headers.get("Content-Length", "0").strip() != "0"):
            # A GET body is never read (reading it could cost up to
            # MAX_BODY_BYTES), so end the connection after this answer:
            # the unread bytes would otherwise parse as the next request.
            self.close_connection = True
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        mediator = self.mediator
        if path == "/healthz":
            self._hit("healthz")
            if mediator.draining:
                self._send_text(503, "draining\n")
            else:
                self._send_text(200, "ok\n")
        elif path == "/readyz":
            self._hit("readyz")
            if mediator.ready:
                self._send_text(200, "ready\n")
            elif mediator.draining:
                self._send_text(503, "draining\n")
            else:
                self._send_text(503, "warming\n")
        elif path == "/metrics":
            self._hit("metrics")
            self._send_text(
                200,
                metrics_to_prometheus(mediator.registry),
                PROMETHEUS_CONTENT_TYPE,
            )
        elif path == "/stats":
            self._hit("stats")
            self._send_json(200, mediator.stats())
        elif path == "/quality":
            self._hit("quality")
            self._send_json(200, mediator.quality_payload())
        elif path == "/alerts":
            self._hit("alerts")
            query = parse_qs(parsed.query)
            try:
                transitions = (
                    int(query["transitions"][0])
                    if "transitions" in query else 50
                )
            except ValueError:
                transitions = -1
            if transitions < 0:
                self._send_json(
                    400, {"error": "transitions must be an integer >= 0"}
                )
                return
            self._send_json(200, mediator.alerts.snapshot(transitions))
        elif path == "/stats/history":
            self._hit("stats_history")
            query = parse_qs(parsed.query)
            try:
                limit = (
                    int(query["limit"][0]) if "limit" in query else None
                )
            except ValueError:
                limit = -1
            if limit is not None and limit < 0:
                self._send_json(
                    400, {"error": "limit must be an integer >= 0"}
                )
                return
            names = None
            if "names" in query:
                names = [
                    name
                    for chunk in query["names"]
                    for name in chunk.split(",")
                    if name
                ]
                # An unknown name would silently filter to empty series
                # — undiagnosable from a dashboard. Fail loudly with
                # the catalog instead.
                known = set(mediator.registry.names())
                unknown = sorted(set(names) - known)
                if unknown:
                    self._send_json(400, {
                        "error": f"unknown metric name(s): "
                                 f"{', '.join(unknown)}",
                        "known_names": sorted(known),
                    })
                    return
            self._send_json(
                200, mediator.history.to_json(limit=limit, names=names)
            )
        elif path == "/debug/profile":
            self._hit("debug_profile")
            query = parse_qs(parsed.query)
            try:
                seconds = float(query.get("seconds", ["2"])[0])
                hz = float(query.get("hz", [str(DEFAULT_HZ)])[0])
            except ValueError:
                self._send_json(
                    400, {"error": "seconds and hz must be numeric"}
                )
                return
            # Clamp rather than reject: a profiling endpoint must never
            # be talked into pinning a handler thread for minutes or
            # sampling at a rate that *is* the overhead.
            seconds = max(0.05, min(30.0, seconds))
            hz = max(1.0, min(999.0, hz))
            out_format = query.get("format", ["speedscope"])[0]
            if out_format not in ("speedscope", "collapsed"):
                self._send_json(
                    400,
                    {"error": "format must be 'speedscope' or 'collapsed'"},
                )
                return
            profiler = mediator.profile_now(seconds=seconds, hz=hz)
            if out_format == "collapsed":
                self._send_text(200, profiler.profile.collapsed())
            else:
                name = (
                    f"repro serve {mediator.host}:{mediator.port} "
                    f"({seconds:g}s @ {hz:g}hz)"
                )
                self._send_json(200, profiler.profile.speedscope(name))
        elif path.startswith("/trace/"):
            self._hit("trace")
            trace_id = unquote(path[len("/trace/"):])
            payload = mediator.traces.get(trace_id)
            if payload is None:
                self._send_json(404, {
                    "error": f"unknown trace id {trace_id!r}",
                    "retained": mediator.traces.ids(),
                })
            else:
                self._send_json(200, payload)
        else:
            self._hit("unknown")
            self._send_json(404, {
                "error": f"no such endpoint {path!r}",
                "endpoints": ["/convert/<program> (POST)", "/metrics",
                              "/healthz", "/readyz", "/stats",
                              "/stats/history", "/alerts", "/quality",
                              "/debug/profile", "/trace/<trace_id>"],
            })

    # -- POST: the conversion path -----------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        with self.mediator.track_request():
            self._do_post()

    def _do_post(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/")
        if not path.startswith("/convert/"):
            self._hit("unknown")
            self._refuse_unread(404, f"no such endpoint {path!r}")
            return
        self._hit("convert")
        program_name = unquote(path[len("/convert/"):])
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._refuse_unread(411, "Content-Length required")
            return
        if length < 0 or length > MAX_BODY_BYTES:
            self._refuse_unread(413, f"payload over {MAX_BODY_BYTES} bytes")
            return
        try:
            body = self.rfile.read(length).decode("utf-8")
        except UnicodeDecodeError:
            self._send_json(400, {"error": "payload must be UTF-8 SGML text"})
            return
        if self.mediator.draining:
            # A keep-alive connection accepted before the drain can
            # still submit requests; refuse new work while in-flight
            # conversions finish (_send also closes the connection).
            self._send_json(503, {"error": "draining"})
            return
        query = parse_qs(parsed.query)
        try:
            delay_ms = float(query.get("delay_ms", ["0"])[0] or 0)
        except ValueError:
            delay_ms = math.nan
        if not 0 <= delay_ms < math.inf:
            self._send_json(
                400, {"error": "delay_ms must be a finite number >= 0"}
            )
            return
        status, payload = self.mediator.convert(
            program_name,
            body,
            trace_id=self.headers.get("X-Trace-Id"),
            to=query.get("to", ["trees"])[0],
            include_output="output" in query.get("include", []),
            delay_ms=delay_ms,
        )
        extra_headers = {"X-Trace-Id": str(payload.get("trace_id", ""))}
        if status == 429 and "retry_after_s" in payload:
            extra_headers["Retry-After"] = str(int(payload["retry_after_s"]))
        self._send_json(status, payload, extra_headers)
