"""Serving + live telemetry: the long-running mediator daemon.

The paper's mediator was driven interactively; the ROADMAP's
north-star is one that "serves heavy traffic from millions of users".
This package is the serving substrate: :class:`MediatorServer` (a
stdlib ``ThreadingHTTPServer`` daemon exposing ``POST
/convert/<program>`` plus the observability plane ``/metrics``,
``/healthz``, ``/readyz``, ``/stats``, ``/trace/<id>``), the
per-request telemetry it keeps (:class:`RequestLog`,
:class:`TraceStore`), and the ``repro top`` terminal dashboard that
watches it. ``repro serve`` / ``repro top`` in :mod:`repro.cli` are
thin shells over these.
"""

from .cache import ResultCache, canonical_key
from .server import MAX_BODY_BYTES, MediatorServer
from .telemetry import (
    RequestLog,
    TraceStore,
    clean_trace_id,
    new_trace_id,
    span_json,
    trace_payload,
)
from .top import fetch_stats, render, run_top
from .watch import (
    EXIT_FIRING,
    EXIT_HEALTHY,
    EXIT_UNREACHABLE,
    fetch_alerts,
    fetch_quality,
    run_watch,
    shadow_mismatches,
    verdict,
    verdict_line,
)

__all__ = [
    "MAX_BODY_BYTES",
    "MediatorServer",
    "ResultCache",
    "canonical_key",
    "RequestLog",
    "TraceStore",
    "clean_trace_id",
    "new_trace_id",
    "span_json",
    "trace_payload",
    "fetch_stats",
    "render",
    "run_top",
    "EXIT_FIRING",
    "EXIT_HEALTHY",
    "EXIT_UNREACHABLE",
    "fetch_alerts",
    "fetch_quality",
    "run_watch",
    "shadow_mismatches",
    "verdict",
    "verdict_line",
]
