"""Per-node provenance: why is this output here, where did that input go.

The paper's central claim — mediators must *convert* data, not just
route it — makes "which rule, fed by which source nodes, produced this
output node?" the defining debugging question of a YAT pipeline. This
module answers it with three pieces:

* :class:`ProvenanceRecord` — one rule firing: the output node it
  built, the rule and program that fired, the input node ids the
  winning binding group consumed, the Skolem term behind the output
  identifier, and the span/trace ids of the innermost open span (the
  join keys into the Chrome-trace export);
* :class:`ProvenanceStore` — an indexed store of records supporting
  **backward** ("why is this node here?") and **forward** ("where did
  this input end up?") queries. Records chain: an input of one record
  may be the output of another (demand-driven construction, or a
  previous program run in a :class:`~repro.system.YatSystem` pipeline
  sharing the store), so queries walk whole cross-program lineage
  chains. ``merge_stores`` renames enter as ``merge.rename`` pseudo
  records, keeping chains connected across store unions;
* an **ambient** installation (:func:`tracing`, via ``contextvars``)
  mirroring :func:`repro.obs.collecting`: the interpreter and the
  import wrappers publish into the nearest installed store and pay
  nothing when none is.

Two accuracy tiers keep the overhead budget: name-level *origins*
(output id → the set of input-tree names it derives from, the data
behind ``ConversionResult.lineage``) are always exact, while the
detailed per-firing records — and the structured events mirrored into
an attached :class:`~repro.obs.events.EventLog` — honour
``sample_rate``: a deterministic stride keeps that fraction of
firings, trading chain completeness for cost on very large runs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .events import EventLog
from .spans import _CURRENT, _RECORDER, current_span_id, current_trace_id

#: Rule name of the pseudo records :meth:`ProvenanceStore.alias` adds
#: for ``merge_stores`` renames.
MERGE_RULE = "merge.rename"


class ProvenanceRecord:
    """One rule firing: the compact lineage of one constructed node."""

    __slots__ = (
        "seq", "output", "rule", "program", "inputs",
        "skolem", "span_id", "trace_id",
    )

    def __init__(
        self,
        seq: int,
        output: str,
        rule: str,
        inputs: Tuple[str, ...],
        program: Optional[str] = None,
        skolem: Optional[str] = None,
        span_id: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.seq = seq
        self.output = output
        self.rule = rule
        self.program = program
        self.inputs = inputs
        self.skolem = skolem
        self.span_id = span_id
        self.trace_id = trace_id

    def to_json(self) -> Dict[str, object]:
        """A JSON-ready view (the event-log record schema)."""
        return {
            "seq": self.seq,
            "output": self.output,
            "rule": self.rule,
            "program": self.program,
            "inputs": list(self.inputs),
            "skolem": self.skolem,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
        }

    def __repr__(self) -> str:
        return (
            f"ProvenanceRecord({self.output!r} <- {self.rule} "
            f"<- {list(self.inputs)})"
        )


class ProvenanceStore:
    """Indexed lineage records plus always-exact name-level origins.

    ``sample_rate`` (0..1, default 1) gates only the detailed records
    and their mirrored events — origins and the exact ``firings``
    counter are maintained for every firing regardless. ``events``
    optionally attaches an :class:`EventLog` receiving one
    ``rule.fired`` event per kept record (and one ``merge.rename`` per
    alias), with ``span_id``/``trace_id`` fields matching the
    Chrome-trace export recorded alongside.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        events: Optional[EventLog] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate!r}")
        self.sample_rate = sample_rate
        self.events = events
        self._lock = threading.Lock()
        self._records: List[ProvenanceRecord] = []
        # Raw (output, rule, program, inputs, skolem, span_id, trace_id,
        # seq) captures awaiting materialization: the recording hot path
        # appends one tuple here and queries build the real records and
        # indexes lazily. With an EventLog attached the record is built
        # eagerly instead — event timestamps must be firing-time.
        self._pending: List[tuple] = []
        self._by_output: Dict[str, List[ProvenanceRecord]] = {}
        self._by_input: Dict[str, List[ProvenanceRecord]] = {}
        self._origins: Dict[str, Set[str]] = {}  # exact, name-level
        self._sources: Dict[str, str] = {}  # input node id -> wrapper name
        #: rule firings observed (exact, sampling-independent)
        self.firings = 0
        #: detailed records actually kept (== firings at sample_rate 1)
        self.recorded = 0

    # -- recording ----------------------------------------------------------

    def record_firing(
        self,
        output: str,
        rule: str,
        inputs: Sequence[str],
        program: Optional[str] = None,
        skolem=None,
    ) -> bool:
        """Account one rule firing; True when the firing was kept,
        False when the sampling stride dropped it (origins and the
        ``firings`` counter update either way). ``skolem`` may be a
        string or a zero-argument callable — the callable is only
        evaluated when the record materializes, so callers can defer
        rendering the Skolem term off the recording hot path."""
        with self._lock:
            self.firings += 1
            self._origins.setdefault(output, set()).update(inputs)
            if self.sample_rate < 1.0 and int(
                self.firings * self.sample_rate
            ) <= int((self.firings - 1) * self.sample_rate):
                return False
            self.recorded += 1
            # Direct ContextVar reads (the hot path runs once per
            # constructed output; the public helpers cost two extra
            # function calls each).
            recorder = _RECORDER.get()
            capture = (
                output, rule, program, tuple(inputs), skolem,
                _CURRENT.get(),
                recorder.trace_id if recorder is not None else None,
                self.firings,
            )
            if self.events is None:
                self._pending.append(capture)
                return True
            record = self._materialize(capture)
            self._add_record(record, count=False)
        self.events.emit("rule.fired", **record.to_json())
        return True

    @staticmethod
    def _materialize(capture: tuple) -> ProvenanceRecord:
        output, rule, program, inputs, skolem, span_id, trace_id, seq = capture
        return ProvenanceRecord(
            seq=seq,
            output=output,
            rule=rule,
            inputs=tuple(sorted(inputs)),
            program=program,
            skolem=skolem() if callable(skolem) else skolem,
            span_id=span_id,
            trace_id=trace_id,
        )

    def _flush(self) -> None:
        """Materialize and index the pending captures (holds the lock)."""
        with self._lock:
            if not self._pending:
                return
            for capture in self._pending:
                self._add_record(self._materialize(capture), count=False)
            self._pending.clear()

    def _add_record(self, record: ProvenanceRecord, count: bool = True) -> None:
        """Index one record (caller holds the lock)."""
        if count:
            self.recorded += 1
        self._records.append(record)
        self._by_output.setdefault(record.output, []).append(record)
        for input_id in record.inputs:
            self._by_input.setdefault(input_id, []).append(record)

    def add_origins(self, output: str, origins: Sequence[str]) -> None:
        """Merge name-level origins for one output (always exact)."""
        with self._lock:
            self._origins.setdefault(output, set()).update(origins)

    def stamp_input(self, input_id: str, source: str) -> None:
        """Mark *input_id* as imported by the named source wrapper."""
        with self._lock:
            self._sources[input_id] = source

    def alias(self, new_name: str, old_name: str) -> ProvenanceRecord:
        """Record a ``merge_stores`` rename as a pseudo firing, keeping
        lineage chains connected across store unions. Never sampled
        out: dropping an alias would sever every chain through it."""
        self._flush()  # keep _records in seq order
        with self._lock:
            self.firings += 1
            self._origins.setdefault(new_name, set()).add(old_name)
            record = ProvenanceRecord(
                seq=self.firings,
                output=new_name,
                rule=MERGE_RULE,
                inputs=(old_name,),
                span_id=current_span_id(),
                trace_id=current_trace_id(),
            )
            self._add_record(record)
        if self.events is not None:
            self.events.emit("merge.rename", **record.to_json())
        return record

    # -- point queries ------------------------------------------------------

    def origins_of(self, node: str) -> Set[str]:
        """The exact name-level origins of one output (direct inputs,
        plus inherited origins for demand-driven outputs)."""
        with self._lock:
            return set(self._origins.get(node, ()))

    def records_of(self, node: str) -> List[ProvenanceRecord]:
        """The detailed records that built *node* (empty if sampled out
        or recording was disabled)."""
        self._flush()
        with self._lock:
            return list(self._by_output.get(node, ()))

    def records(self) -> List[ProvenanceRecord]:
        self._flush()
        with self._lock:
            return list(self._records)

    def consumers_of(self, node: str) -> List[ProvenanceRecord]:
        """The records that consumed *node* as an input."""
        self._flush()
        with self._lock:
            return list(self._by_input.get(node, ()))

    def source_of(self, input_id: str) -> Optional[str]:
        """The import wrapper that stamped *input_id*, if any."""
        with self._lock:
            return self._sources.get(input_id)

    def sources(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._sources)

    def nodes(self) -> Set[str]:
        """Every node id the store knows about (outputs and inputs)."""
        self._flush()
        with self._lock:
            known = set(self._by_output) | set(self._by_input)
            known.update(self._origins)
            for origins in self._origins.values():
                known.update(origins)
            known.update(self._sources)
        return known

    # -- chain queries ------------------------------------------------------

    def backward(self, node: str) -> List[ProvenanceRecord]:
        """Why is *node* here: every record reachable by walking inputs
        backwards (BFS order, deduplicated). The chain crosses program
        boundaries whenever an input id is itself a recorded output."""
        chain: List[ProvenanceRecord] = []
        seen_records: Set[int] = set()
        visited: Set[str] = set()
        frontier = [node]
        while frontier:
            current = frontier.pop(0)
            if current in visited:
                continue
            visited.add(current)
            for record in self.records_of(current):
                if record.seq in seen_records:
                    continue
                seen_records.add(record.seq)
                chain.append(record)
                frontier.extend(record.inputs)
        return chain

    def leaves(self, node: str) -> Set[str]:
        """The node ids a backward walk from *node* bottoms out at —
        the stamped wrapper inputs of the whole chain. A node with no
        producing records is its own (only) leaf."""
        sources: Set[str] = set()
        visited: Set[str] = set()
        frontier = [node]
        while frontier:
            current = frontier.pop(0)
            if current in visited:
                continue
            visited.add(current)
            records = self.records_of(current)
            if not records:
                sources.add(current)
                continue
            for record in records:
                frontier.extend(record.inputs)
        return sources

    def forward(self, node: str) -> Set[str]:
        """Where did *node* end up: every output id reachable by walking
        consumer records forwards (transitively, across programs)."""
        reached: Set[str] = set()
        visited: Set[str] = set()
        frontier = [node]
        while frontier:
            current = frontier.pop(0)
            if current in visited:
                continue
            visited.add(current)
            for record in self.consumers_of(current):
                reached.add(record.output)
                frontier.append(record.output)
        return reached

    # -- export -------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A JSON-ready view of the whole store."""
        self._flush()
        with self._lock:
            records = list(self._records)
            origins = {k: sorted(v) for k, v in sorted(self._origins.items())}
            sources = dict(sorted(self._sources.items()))
        return {
            "sample_rate": self.sample_rate,
            "firings": self.firings,
            "recorded": self.recorded,
            "sources": sources,
            "origins": origins,
            "records": [record.to_json() for record in records],
        }

    def to_dot(self, node: Optional[str] = None) -> str:
        """A Graphviz digraph of the lineage edges — the whole graph,
        or only the backward chain of one node."""
        records = self.backward(node) if node is not None else self.records()
        lines = ["digraph lineage {", "  rankdir=LR;"]
        mentioned: Set[str] = set()
        for record in records:
            mentioned.add(record.output)
            mentioned.update(record.inputs)
        for name in sorted(mentioned):
            source = self.source_of(name)
            if source is not None:
                lines.append(
                    f'  "{_dot_escape(name)}" [shape=box,'
                    f'label="{_dot_escape(name)}\\n({_dot_escape(source)})"];'
                )
        for record in records:
            for input_id in record.inputs:
                lines.append(
                    f'  "{_dot_escape(input_id)}" -> '
                    f'"{_dot_escape(record.output)}" '
                    f'[label="{_dot_escape(record.rule)}"];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        with self._lock:
            return len(self._records) + len(self._pending)

    def __repr__(self) -> str:
        return (
            f"ProvenanceStore({len(self)} record(s), "
            f"{self.firings} firing(s), {len(self._origins)} origin set(s))"
        )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# Ambient store
# ---------------------------------------------------------------------------

_AMBIENT: ContextVar[Optional[ProvenanceStore]] = ContextVar(
    "repro_obs_provenance", default=None
)


def ambient_provenance() -> Optional[ProvenanceStore]:
    """The store installed by the nearest :func:`tracing`, if any."""
    return _AMBIENT.get()


@contextmanager
def tracing(store: Optional[ProvenanceStore] = None):
    """Install *store* (a fresh one by default) as the ambient
    provenance sink for the duration of the ``with`` block."""
    store = store if store is not None else ProvenanceStore()
    token = _AMBIENT.set(store)
    try:
        yield store
    finally:
        _AMBIENT.reset(token)


def stamp_inputs(store, source: str) -> None:
    """Stamp every named tree of a :class:`~repro.core.trees.DataStore`
    (or any object with ``names()``) as imported by *source*. A no-op
    unless an ambient provenance store is installed — import wrappers
    call this unconditionally at the end of ``to_store``."""
    provenance = _AMBIENT.get()
    if provenance is None:
        return
    for name in store.names():
        provenance.stamp_input(name, source)
