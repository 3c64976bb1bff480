"""Hierarchical spans: *when* each pipeline stage ran, and under what.

A span covers one timed region (a whole run, one rule application, one
matching phase, one demand round...). Spans nest through a
``contextvars`` stack, so the recorded tree reflects the dynamic
pipeline hierarchy::

    pipeline
    ├─ wrapper.import (source=sgml)
    ├─ yatl.run
    │  ├─ yatl.batch
    │  │  └─ yatl.rule (rule=Rule1)
    │  │     ├─ yatl.phase.match
    │  │     ├─ yatl.phase.call
    │  │     └─ yatl.phase.predicate
    │  ├─ yatl.demand.round
    │  └─ yatl.splice
    └─ wrapper.export (source=html)

Recording is opt-in: :func:`span` returns a shared no-op context
manager unless a :class:`SpanRecorder` is installed with
:func:`recording` — the instrumentation can therefore stay *always on*
in the interpreter at the cost of one ``ContextVar.get`` per span.
Recorded spans dump as Chrome trace-event JSON (``chrome://tracing``,
Perfetto, speedscope).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Optional

#: Process-wide trace-id allocator: every SpanRecorder gets a distinct
#: trace id, the join key between its Chrome-trace export and any
#: structured events (repro.obs.events) recorded under it.
_TRACE_IDS = itertools.count(1)


class Span:
    """One finished timed region."""

    __slots__ = (
        "span_id", "parent_id", "name", "category",
        "start_us", "end_us", "args", "thread_id",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        start_us: float,
        end_us: float,
        args: Dict[str, object],
        thread_id: int,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_us = start_us
        self.end_us = end_us
        self.args = args
        self.thread_id = thread_id

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_us:.1f}us, "
            f"id={self.span_id}, parent={self.parent_id})"
        )


class SpanRecorder:
    """Collects finished spans for one profiled run (thread-safe)."""

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1
        #: Stable identifier for this recording, embedded in the
        #: Chrome-trace export and stamped on provenance events so the
        #: two artifacts can be joined. Pass one in to honor an
        #: externally propagated id (e.g. an ``X-Trace-Id`` header).
        self.trace_id = (
            trace_id if trace_id else f"trace-{os.getpid()}-{next(_TRACE_IDS)}"
        )

    def allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        """Finished spans, ordered by start time."""
        with self._lock:
            return sorted(self._spans, key=lambda s: s.start_us)

    def children_of(self, parent_id: Optional[int]) -> List[Span]:
        return [s for s in self.spans() if s.parent_id == parent_id]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans() if s.name == name]

    def chrome_trace_events(self) -> List[Dict[str, object]]:
        """Chrome trace-event "complete" (``ph: X``) events."""
        pid = os.getpid()
        events: List[Dict[str, object]] = []
        for span in self.spans():
            args: Dict[str, object] = dict(span.args)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "ts": span.start_us,
                "dur": span.duration_us,
                "pid": pid,
                "tid": span.thread_id,
                "args": args,
            })
        return events

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return f"SpanRecorder({len(self._spans)} span(s))"


# ---------------------------------------------------------------------------
# Ambient recording
# ---------------------------------------------------------------------------

_RECORDER: ContextVar[Optional[SpanRecorder]] = ContextVar(
    "repro_obs_recorder", default=None
)
_CURRENT: ContextVar[Optional[int]] = ContextVar(
    "repro_obs_current_span", default=None
)


class _NullSpan:
    """Shared no-op for the not-recording fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **args: object) -> None:
        pass


_NULL = _NullSpan()


class _LiveSpan:
    __slots__ = ("_recorder", "_name", "_category", "_args",
                 "_span_id", "_parent_id", "_start_us", "_token")

    def __init__(self, recorder: SpanRecorder, name: str, category: str,
                 args: Dict[str, object]) -> None:
        self._recorder = recorder
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> "_LiveSpan":
        self._span_id = self._recorder.allocate_id()
        self._parent_id = _CURRENT.get()
        self._token = _CURRENT.set(self._span_id)
        self._start_us = time.perf_counter_ns() / 1000.0
        return self

    def __exit__(self, *exc) -> bool:
        end_us = time.perf_counter_ns() / 1000.0
        _CURRENT.reset(self._token)
        self._recorder.add(Span(
            self._span_id, self._parent_id, self._name, self._category,
            self._start_us, end_us, self._args, threading.get_ident(),
        ))
        return False

    def note(self, **args: object) -> None:
        """Attach further arguments discovered mid-span (e.g. how many
        bindings a phase produced)."""
        self._args.update(args)


def span(name: str, category: str = "yat", **args: object):
    """A context manager timing one region; a shared no-op unless a
    recorder is installed (see :func:`recording`)."""
    recorder = _RECORDER.get()
    if recorder is None:
        return _NULL
    return _LiveSpan(recorder, name, category, args)


def spans_active() -> bool:
    """Whether a recorder is currently installed (lets callers skip
    computing expensive span arguments)."""
    return _RECORDER.get() is not None


def current_span_id() -> Optional[int]:
    """The id of the innermost open span, or None when not recording —
    the join key provenance records carry back into the span tree."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    """The installed recorder's trace id, or None when not recording."""
    recorder = _RECORDER.get()
    return recorder.trace_id if recorder is not None else None


@contextmanager
def recording(recorder: Optional[SpanRecorder] = None):
    """Install *recorder* (a fresh one by default) as the span sink for
    the duration of the ``with`` block."""
    recorder = recorder if recorder is not None else SpanRecorder()
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)
