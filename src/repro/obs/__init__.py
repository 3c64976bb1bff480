"""Always-on runtime observability for the mediator pipeline.

The paper's graphical environment let a mediator developer *watch* a
conversion run. This package is the production equivalent: every run
of the runtime environment accounts what it did (metrics), can narrate
*when* it did it (spans), and exposes both in standard formats
(exporters) — without a dedicated benchmark or a re-run.

Three modules:

* :mod:`.metrics` — a thread-safe :class:`MetricsRegistry` of counters,
  gauges, and bucketed histograms, plus an *ambient* registry carried
  by ``contextvars`` so wrappers and pipelines can publish without
  threading a registry through every call signature;
* :mod:`.spans` — hierarchical spans (pipeline → wrapper import → rule
  application → match/call/predicate/construct phases → demand rounds
  → export), recorded only while a :class:`SpanRecorder` is installed
  and dumpable as Chrome trace-event JSON;
* :mod:`.export` — JSON and Prometheus text exposition of a run's
  metrics, and combined profile files for ``repro convert --profile``;
* :mod:`.provenance` — per-node lineage: an indexed
  :class:`ProvenanceStore` of rule-firing records with backward ("why
  is this node here?") and forward ("where did this input end up?")
  queries, installed ambiently with :func:`tracing`;
* :mod:`.events` — a structured :class:`EventLog` (JSONL) mirroring
  provenance records, joinable to the Chrome-trace export through
  ``span_id``/``trace_id``;
* :mod:`.profile` — a low-overhead all-thread wall-clock sampling
  profiler (``sys._current_frames`` at a configurable hz) whose
  samples attribute to interpreter phases and export as
  collapsed-stack text or speedscope JSON for flamegraphs;
* :mod:`.history` — :class:`MetricsHistory`, a bounded ring of
  periodic scalar registry snapshots (the time-series layer behind
  ``GET /stats/history`` and the ``repro top`` sparklines);
* :mod:`.alerts` — declarative alert rules with SLO semantics:
  threshold and error-budget burn-rate rules evaluated per history
  tick by an :class:`AlertEvaluator` (``ok -> pending -> firing ->
  resolved`` with ``for``-duration hysteresis), behind ``GET /alerts``
  and the ``repro watch`` health verdict;
* :mod:`.quality` — the conversion-quality observatory: per-run rule
  coverage + unconverted-input :class:`QualityReport` (``repro
  quality``), structural wrapper-forest fingerprints with a normalized
  drift score published as the ``repro.source_drift`` gauge, semantic
  diff on canonical Skolem terms with provenance attribution (``repro
  diff``), and the :func:`response_core` primitive shadow verification
  byte-compares cached responses with;
* :mod:`.rotation` — the shared size-bounded JSONL writer behind the
  serve request log and ``repro convert --events`` rotation.

Overhead discipline: metric *mutation* takes one lock; the truly hot
paths (per-subject memo probes, dispatch admission checks) accumulate
in plain ints and are flushed into the registry once per run; span
entry with no recorder installed is a single ``ContextVar.get``.
"""

from .metrics import (
    LATENCY_MS_BUCKETS,
    QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ambient_registry,
    collecting,
    record,
    record_gauge,
)
from .spans import (
    Span,
    SpanRecorder,
    current_span_id,
    current_trace_id,
    recording,
    span,
    spans_active,
)
from .export import (
    chrome_trace,
    metrics_to_json,
    metrics_to_prometheus,
    profile_payload,
    write_profile,
)
from .alerts import (
    AlertEvaluator,
    AlertRuleError,
    BurnRateRule,
    ThresholdRule,
    load_rules,
    parse_duration,
    rules_from_data,
)
from .events import EventLog
from .history import (
    HistorySampler,
    MetricsHistory,
)
from .profile import (
    DEFAULT_HZ,
    Profile,
    SamplingProfiler,
    ambient_profiler,
    phase_of_stack,
    profiling,
)
from .provenance import (
    ProvenanceRecord,
    ProvenanceStore,
    ambient_provenance,
    stamp_inputs,
    tracing,
)
from .quality import (
    DRIFT_GAUGE,
    FingerprintTracker,
    ForestFingerprint,
    QualityReport,
    canonical_term,
    drift_components,
    drift_score,
    drift_snapshot,
    fingerprint_store,
    quality_report,
    render_diff_text,
    response_core,
    semantic_diff,
    stamp_fingerprint,
    tracker_for,
)
from .rotation import RotatingJsonlWriter

__all__ = [
    "LATENCY_MS_BUCKETS",
    "QUANTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ambient_registry",
    "collecting",
    "record",
    "record_gauge",
    "Span",
    "SpanRecorder",
    "current_span_id",
    "current_trace_id",
    "recording",
    "span",
    "spans_active",
    "chrome_trace",
    "metrics_to_json",
    "metrics_to_prometheus",
    "profile_payload",
    "write_profile",
    "AlertEvaluator",
    "AlertRuleError",
    "BurnRateRule",
    "ThresholdRule",
    "load_rules",
    "parse_duration",
    "rules_from_data",
    "EventLog",
    "HistorySampler",
    "MetricsHistory",
    "DEFAULT_HZ",
    "Profile",
    "SamplingProfiler",
    "ambient_profiler",
    "phase_of_stack",
    "profiling",
    "ProvenanceRecord",
    "ProvenanceStore",
    "ambient_provenance",
    "stamp_inputs",
    "tracing",
    "DRIFT_GAUGE",
    "FingerprintTracker",
    "ForestFingerprint",
    "QualityReport",
    "canonical_term",
    "drift_components",
    "drift_score",
    "drift_snapshot",
    "fingerprint_store",
    "quality_report",
    "render_diff_text",
    "response_core",
    "semantic_diff",
    "stamp_fingerprint",
    "tracker_for",
    "RotatingJsonlWriter",
]
