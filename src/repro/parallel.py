"""Multi-process parallel conversion executor (perf work, ROADMAP).

The paper's mediator converts each source document independently at the
top level: rules match whole input trees, and cross-document identity
is reintroduced *only* through Skolem functions ("Skolem functions are
... global to a program", Section 3.1). That independence is an
opportunity this module exploits: the top-level input forest is split
into contiguous chunks, each chunk runs through its own
:class:`~repro.yatl.interpreter.Interpreter` in a worker *process*
(bypassing the GIL) with an isolated
:class:`~repro.yatl.skolem.SkolemTable`, and the per-shard results are
merged back deterministically.

Determinism contract
--------------------

The merged output is a pure function of ``(input, chunk plan)``, and
the chunk plan depends only on ``(len(inputs), chunk_size)`` — never on
the worker count. ``workers=1`` executes the *identical* chunks
serially in-process through the *identical* merge, so ``workers=N`` is
byte-identical to ``workers=1`` by construction (the CI smoke job and
``benchmarks/bench_parallel.py`` enforce this as a hard gate). A forest
that fits in a single chunk skips sharding entirely and runs the plain
single-pass interpreter — the zero-overhead default path.

Skolem reconciliation
---------------------

Each worker numbers Skolem identifiers locally. The merge replays every
shard's :meth:`~repro.yatl.skolem.SkolemTable.allocation_log` — in
shard order — through one master table: a term two shards both
allocated (the same supplier name appearing in brochures of different
chunks) reconciles to a single canonical identifier, renaming the
shard-local references in the output trees. Conflicting value
associations for one canonical term raise the paper's run-time
:class:`~repro.errors.NonDeterminismError` alert exactly as a
single-process run would — the alert survives the merge.

Observability: per-shard metrics snapshots merge into the run's
registry (``parallel.*`` family added), worker span trees graft into
the ambient recorder under the ``parallel.run`` span, and per-shard
provenance — renamed to canonical identifiers — folds into the run's
:class:`~repro.obs.ProvenanceStore`, so ``repro lineage`` sees through
the pool.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
import warnings as _warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from .core.arena import ArenaShard, ArenaStore
from .core.trees import DataStore, Ref, Tree
from .errors import DanglingReferenceError
from .obs import (
    MetricsRegistry,
    SpanRecorder,
    ambient_recorder,
    ambient_registry,
    current_span_id,
    merge_snapshot,
    recording,
    span,
)
from .obs.metrics import TIME_BUCKETS
from .obs.profile import SamplingProfiler, ambient_profiler
from .obs.provenance import ProvenanceStore, ambient_provenance
from .yatl.hierarchy import Hierarchy
from .yatl.interpreter import (
    ConversionResult,
    Interpreter,
    M_DISPATCH_ADMITTED,
    M_DISPATCH_CONSIDERED,
    M_DISPATCH_HIT_RATIO,
    M_DISPATCH_INDEXED,
    M_DISPATCH_REDUCTION,
    M_DISPATCH_UNINDEXED,
    M_SKOLEM_SIZE,
)
from .yatl.skolem import SkolemTable

# Chunk heuristic: explicit chunk_size wins; otherwise aim for
# DEFAULT_SHARDS chunks but never chunks smaller than MIN_CHUNK_SIZE.
# The merge tax (allocation-log replay + reference renaming) is paid
# per *output*, so a shard must carry enough conversion work to win it
# back from parallelism; below ~1k trees the single-pass interpreter is
# faster than any sharded plan, and the single-chunk fallback keeps
# that path overhead-free (the CI gate on bench_parallel enforces it).
MIN_CHUNK_SIZE = 1024
DEFAULT_SHARDS = 16

# Metric names (catalog: docs/OBSERVABILITY.md).
M_PAR_RUNS = "parallel.runs"
M_PAR_SHARDS = "parallel.shards"
M_PAR_WORKERS = "parallel.workers"
M_PAR_SHARD_SECONDS = "parallel.shard.seconds"
M_PAR_SHARD_INPUTS = "parallel.shard.inputs"
M_PAR_SHARD_OUTPUTS = "parallel.shard.outputs"
M_PAR_MERGE_SECONDS = "parallel.merge.seconds"
M_PAR_FALLBACK = "parallel.fallback.inprocess"

_DANGLING_PREFIX = "dangling reference(s) in output:"

# ---------------------------------------------------------------------------
# Chunk planning
# ---------------------------------------------------------------------------


def resolve_chunk_size(n_inputs: int, chunk_size: Optional[int] = None) -> int:
    """The effective chunk size for a forest of *n_inputs* trees.

    Depends only on ``(n_inputs, chunk_size)`` — never on the worker
    count — which is what makes the chunk plan (and therefore the
    output) identical for every ``workers=`` setting.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        return chunk_size
    return max(MIN_CHUNK_SIZE, -(-n_inputs // DEFAULT_SHARDS))


def plan_chunks(n_inputs: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` ranges covering the input order."""
    return [
        (start, min(start + chunk_size, n_inputs))
        for start in range(0, n_inputs, chunk_size)
    ]


# ---------------------------------------------------------------------------
# Shard specification
# ---------------------------------------------------------------------------


class ShardSpec:
    """Everything a worker needs to rebuild the interpreter for one
    shard: the program, not the run. Pickled once per run and shipped
    to the pool; workers cache the unpickled spec by a digest of those
    bytes, which are the same for every run of one program, so a shared
    serve-plane pool pays the unpickle once per program per worker.

    The prebuilt hierarchy is deliberately *dropped* from the pickle
    (``__getstate__``): it is derived state, cheap to rebuild once per
    worker and the least pickle-robust part of the program. In-process
    use keeps it.
    """

    def __init__(
        self,
        rules,
        registry=None,
        model=None,
        hierarchy=None,
        runtime_typing: bool = False,
        max_demand_iterations: int = 100_000,
        target_functors: Optional[Sequence[str]] = None,
        use_dispatch_index: bool = True,
        use_arena: bool = True,
        program_name: Optional[str] = None,
    ) -> None:
        self.rules = list(rules)
        self.registry = registry
        self.model = model
        self.hierarchy = hierarchy
        self.runtime_typing = runtime_typing
        self.max_demand_iterations = max_demand_iterations
        self.target_functors = (
            list(target_functors) if target_functors is not None else None
        )
        self.use_dispatch_index = use_dispatch_index
        self.use_arena = use_arena
        self.program_name = program_name

    def __getstate__(self):
        state = dict(self.__dict__)
        state["hierarchy"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def build_interpreter(
        self,
        metrics: Optional[MetricsRegistry] = None,
        provenance: Optional[ProvenanceStore] = None,
        strict_refs: bool = False,
    ) -> Interpreter:
        """A fresh interpreter for one shard run. Workers always run
        ``strict_refs=False``: a reference dangling *within* a shard may
        resolve across shards, so strictness is judged on the merged
        store by the parent."""
        if self.hierarchy is None:
            # Rebuilt at most once per (worker, spec): workers cache
            # the spec object itself (see _pool_shard).
            self.hierarchy = Hierarchy(self.rules, model=self.model)
        return Interpreter(
            self.rules,
            registry=self.registry,
            model=self.model,
            hierarchy=self.hierarchy,
            runtime_typing=self.runtime_typing,
            strict_refs=strict_refs,
            max_demand_iterations=self.max_demand_iterations,
            target_functors=self.target_functors,
            use_dispatch_index=self.use_dispatch_index,
            use_arena=self.use_arena,
            metrics=metrics,
            provenance=provenance,
            program_name=self.program_name,
        )


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class ParallelExecutor:
    """A lazily-started :class:`ProcessPoolExecutor` wrapper that can be
    shared across runs (the serve plane keeps one per server and reuses
    it for every request). Thread-safe; usable as a context manager."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False
        #: lifetime accounting, surfaced by the serve plane's /stats
        self.tasks_submitted = 0

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("ParallelExecutor is closed")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def warm(self) -> None:
        """Fork the worker processes now (one trivial task per worker).
        The serve plane calls this at startup, before request threads
        exist — forking from a quiet parent is the safe moment."""
        pool = self._ensure_pool()
        for future in [pool.submit(os.getpid) for _ in range(self.workers)]:
            future.result()

    def submit(self, fn, *args):
        with self._lock:
            self.tasks_submitted += 1
        return self._ensure_pool().submit(fn, *args)

    def stats(self) -> Dict[str, int]:
        return {"workers": self.workers, "tasks_submitted": self.tasks_submitted}

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "started" if self._pool is not None else "lazy"
        )
        return f"ParallelExecutor(workers={self.workers}, {state})"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Worker-process cache of unpickled ShardSpecs, keyed by a digest of
#: the pickled spec: runs of one program pickle to the same bytes, so a
#: long-lived pool (repro serve) unpickles each program once per
#: worker, not once per run or shard.
_SPEC_CACHE: Dict[str, ShardSpec] = {}


def _execute_shard(
    spec: ShardSpec,
    index: int,
    items,
    record_provenance: bool = False,
    sample_rate: float = 1.0,
    record_spans: bool = False,
    trace_id: Optional[str] = None,
    profile_hz: float = 0.0,
) -> Dict[str, object]:
    """Run one chunk through a fresh interpreter and return a plain-data
    payload the parent merges. Runs identically in a pool worker and in
    the parent process (``workers=1``) — that equivalence *is* the
    determinism contract.

    ``items`` is either a list of ``(name, tree)`` pairs or an
    :class:`~repro.core.arena.ArenaShard`, whose columns crossed the
    process boundary as flat buffers and are rebuilt here without a
    per-tree pickle walk.
    """
    started = time.perf_counter()
    metrics = MetricsRegistry()
    prov = ProvenanceStore(sample_rate=sample_rate) if record_provenance else None
    interpreter = spec.build_interpreter(metrics=metrics, provenance=prov)
    if isinstance(items, ArenaShard):
        store = items.to_store()
        n_inputs = len(store)
    else:
        store = DataStore()
        for name, node in items:
            store.add(name, node)
        n_inputs = len(items)
    # Per-shard profiling: a worker process runs its own sampler and
    # ships the aggregated stacks home. The ambient guard keeps the
    # serial fallback from double-counting — in-process shards are
    # already visible to the parent's own sampler. The check is
    # PID-aware: a forked worker inherits the parent's ambient profiler
    # object (ContextVars survive fork) but not its sampler thread, so
    # presence alone would wrongly silence worker-side sampling.
    ambient = ambient_profiler()
    sampler = (
        SamplingProfiler(hz=profile_hz)
        if profile_hz > 0
        and (ambient is None or not ambient.samples_this_process())
        else None
    )
    if sampler is not None:
        sampler.start()
    recorder = SpanRecorder(trace_id=trace_id) if record_spans else None
    try:
        if recorder is not None:
            with recording(recorder):
                result = interpreter.run_local(store)
        else:
            result = interpreter.run_local(store)
    finally:
        profile = sampler.stop().to_json() if sampler is not None else None
    unconverted_ids = {id(node) for node in result.unconverted}
    if not unconverted_ids:
        unconverted_names: List[str] = []
    elif isinstance(store, ArenaStore):
        # Map through the root index instead of iterating the store:
        # iteration would materialize every root just to name a few.
        unconverted_names = [
            store.name_at(i)
            for i in sorted(
                i for i in (
                    store.index_of_tree(node) for node in result.unconverted
                ) if i is not None
            )
        ]
    else:
        unconverted_names = [
            name for name, node in store if id(node) in unconverted_ids
        ]
    return {
        "index": index,
        "n_inputs": n_inputs,
        "outputs": [(name, node) for name, node in result.store],
        "log": result.skolems.allocation_log(),
        "unconverted": unconverted_names,
        "warnings": list(result.warnings),
        "metrics": metrics.snapshot(),
        "provenance": result.provenance.to_json(),
        "spans": [s.to_json() for s in recorder.spans()] if recorder else [],
        "profile": profile,
        "seconds": time.perf_counter() - started,
        "pid": os.getpid(),
    }


def _pool_shard(blob: bytes, key: str, index: int, items, opts) -> Dict[str, object]:
    """Pool entry point: unpickle the spec (once per worker per key)
    and execute the shard."""
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = pickle.loads(blob)
        _SPEC_CACHE[key] = spec
    return _execute_shard(spec, index, items, **opts)


# ---------------------------------------------------------------------------
# Parent side: dispatch and merge
# ---------------------------------------------------------------------------


def run_sharded(
    spec: ShardSpec,
    store: DataStore,
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    executor: Optional[ParallelExecutor] = None,
    strict_refs: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    provenance: Optional[ProvenanceStore] = None,
) -> ConversionResult:
    """Shard *store* across the executor and merge deterministically.

    The plan comes from ``resolve_chunk_size``/``plan_chunks``. A
    single-chunk plan falls back to one plain in-process run under the parent's own metrics,
    provenance, and ``strict_refs`` — zero sharding overhead.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    registry = metrics
    if registry is None:
        registry = ambient_registry()
    if registry is None:
        registry = MetricsRegistry()
    prov = provenance if provenance is not None else ambient_provenance()

    arena = isinstance(store, ArenaStore)
    # list(store) on an ArenaStore would materialize every root before
    # any shard runs; the arena path plans over root *indices* and
    # slices flat columns instead.
    items = None if arena else list(store)
    n_items = len(store) if arena else len(items)
    chunks = plan_chunks(n_items, resolve_chunk_size(n_items, chunk_size))

    effective_workers = executor.workers if executor is not None else workers

    if len(chunks) <= 1:
        registry.counter(
            M_PAR_FALLBACK,
            "sharded runs that fell back to one in-process pass",
        ).inc()
        interpreter = spec.build_interpreter(
            metrics=registry, provenance=provenance, strict_refs=strict_refs
        )
        result = interpreter.run_local(store)
        result.parallel = {
            "mode": "inprocess",
            "shards": 1,
            "workers": effective_workers,
        }
        return result

    if arena:
        shard_items = [
            ArenaShard.slice(store, start, stop) for start, stop in chunks
        ]
    else:
        shard_items = [items[start:stop] for start, stop in chunks]
    recorder = ambient_recorder()
    profiler = ambient_profiler()
    opts = {
        "record_provenance": prov is not None,
        "sample_rate": prov.sample_rate if prov is not None else 1.0,
        "record_spans": recorder is not None,
        "trace_id": recorder.trace_id if recorder is not None else None,
        "profile_hz": profiler.hz if profiler is not None else 0.0,
    }
    with span("parallel.run", shards=len(chunks), workers=effective_workers):
        payloads, mode = _run_shards(
            spec, shard_items, effective_workers, executor, opts
        )
        return _merge(
            payloads,
            store,
            registry,
            prov,
            recorder,
            strict_refs=strict_refs,
            workers=effective_workers,
            mode=mode,
        )


def _is_pickling_error(exc: BaseException) -> bool:
    """Pool failures caused by (un)pickling, not by the conversion:
    ``pickle.PicklingError`` from the submit-side feeder, or the
    ``TypeError``/``AttributeError`` spellings CPython's pickle raises
    for unpicklable arguments and unimportable worker-side classes."""
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and (
        "pickle" in str(exc).lower()
    )


def _run_shards(
    spec: ShardSpec,
    shard_items: List,  # per shard: [(name, tree), ...] or an ArenaShard
    workers: int,
    executor: Optional[ParallelExecutor],
    opts: Dict[str, object],
) -> Tuple[List[Dict[str, object]], str]:
    """Execute every shard — through the pool when workers > 1 and the
    run survives pickling, serially in-process otherwise. Either path
    runs the byte-identical ``_execute_shard``.

    Pickling can fail up front (the spec) or per shard (the items a
    future carries). Both degrade the *whole* run to serial shards
    with exactly one ``RuntimeWarning`` per ``Program.run`` call — a
    64-shard forest must not print 64 identical warnings, and a
    half-pooled run would break the shard-order determinism argument.
    """
    degraded: Optional[str] = None
    if workers > 1:
        try:
            blob = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            degraded = f"program is not picklable ({exc})"
        else:
            key = hashlib.sha256(blob).hexdigest()
            pool = executor if executor is not None else ParallelExecutor(workers)
            try:
                futures = [
                    pool.submit(_pool_shard, blob, key, index, items, opts)
                    for index, items in enumerate(shard_items)
                ]
                payloads: List[Dict[str, object]] = []
                for future in futures:
                    try:
                        payloads.append(future.result())
                    except Exception as exc:
                        if not _is_pickling_error(exc):
                            raise
                        # One shard's items (or results) failed to
                        # cross the process boundary: abandon the pool
                        # for this run and recompute everything
                        # serially so shard order stays deterministic.
                        degraded = f"shard data is not picklable ({exc})"
                        for pending in futures:
                            pending.cancel()
                        break
                if degraded is None:
                    return payloads, "pool"
            finally:
                if executor is None:
                    pool.close()
    if degraded is not None:
        # Warned exactly once per run — and never into result.warnings,
        # which must stay identical between workers=1 (no pickling) and
        # workers=N.
        _warnings.warn(
            f"parallel execution degraded to in-process shards: {degraded}",
            RuntimeWarning,
            stacklevel=3,
        )
    return (
        [
            _execute_shard(spec, index, items, **opts)
            for index, items in enumerate(shard_items)
        ],
        "serial",
    )


def _merge(
    payloads: List[Dict[str, object]],
    input_store: DataStore,
    registry: MetricsRegistry,
    prov: Optional[ProvenanceStore],
    recorder: Optional[SpanRecorder],
    *,
    strict_refs: bool,
    workers: int,
    mode: str,
) -> ConversionResult:
    """Deterministic shard reconciliation (see the module docstring)."""
    started = time.perf_counter()
    payloads = sorted(payloads, key=lambda p: p["index"])

    master = SkolemTable()
    rename_maps: List[Dict[str, str]] = []
    merge_warnings: List[str] = []
    unconverted_names: List[str] = []
    for payload in payloads:
        # Replaying each shard's allocation log through `id_for` in
        # shard order reconciles identical terms to one canonical id
        # and numbers fresh ones deterministically.
        rename: Dict[str, str] = {}
        for local_id, functor, args in payload["log"]:
            rename[local_id] = master.id_for(functor, tuple(args))
        rename_maps.append(rename)

        def remap(ref: Ref):
            canonical = rename.get(ref.target)
            if canonical is None or canonical == ref.target:
                return ref
            return Ref(canonical)

        # Shard 0 always replays onto an empty master, so its rename map
        # is the identity; skipping the tree walk there (and for any
        # other shard that happens to be identity) is behaviour-neutral
        # — `remap` would return every ref unchanged anyway.
        identity = all(local == canon for local, canon in rename.items())
        for local_id, node in payload["outputs"]:
            renamed = (
                node.map_refs(remap)
                if not identity and isinstance(node, Tree)
                else node
            )
            # `associate` raises the paper's NonDeterminismError when
            # two shards built distinct values for one canonical term —
            # the alert survives the merge.
            master.associate(rename[local_id], renamed)
        for warning in payload["warnings"]:
            # Per-shard dangling warnings are provisional: the
            # reference may resolve in another shard. Recomputed
            # globally below.
            if not warning.startswith(_DANGLING_PREFIX):
                merge_warnings.append(warning)
        unconverted_names.extend(payload["unconverted"])

    output = DataStore()
    for identifier in master.ids():
        if master.has_value(identifier):
            output.add(identifier, master.value(identifier))

    dangling = sorted(set(output.dangling_references()))
    if dangling:
        message = f"{_DANGLING_PREFIX} {', '.join(dangling)}"
        if strict_refs:
            raise DanglingReferenceError(message)
        merge_warnings.append(message)

    # Shards are contiguous and merged by index, so the names arrive in
    # store order; looking them up decodes only those arena roots.
    unconverted = [input_store.get(name) for name in unconverted_names]

    # -- observability aggregation ------------------------------------------
    for payload in payloads:
        merge_snapshot(registry, payload["metrics"])
    _recompute_gauges(registry, master)
    registry.counter(M_PAR_RUNS, "sharded parallel runs").inc()
    registry.counter(M_PAR_SHARDS, "shards executed").inc(len(payloads))
    registry.gauge(M_PAR_WORKERS, "workers of the last sharded run").set(workers)
    shard_seconds = registry.histogram(
        M_PAR_SHARD_SECONDS, "per-shard wall time", buckets=TIME_BUCKETS
    )
    for payload in payloads:
        shard = str(payload["index"])
        shard_seconds.observe(payload["seconds"], shard=shard)
        registry.counter(M_PAR_SHARD_INPUTS, "inputs per shard").inc(
            payload["n_inputs"], shard=shard
        )
        registry.counter(M_PAR_SHARD_OUTPUTS, "outputs per shard").inc(
            len(payload["outputs"]), shard=shard
        )

    result_prov = prov if prov is not None else ProvenanceStore()
    for payload, rename in zip(payloads, rename_maps):
        shard_prov = payload["provenance"]
        origins = {
            rename.get(output_id, output_id): names
            for output_id, names in shard_prov.get("origins", {}).items()
        }
        if prov is not None and shard_prov.get("records"):
            renamed = dict(shard_prov)
            renamed["origins"] = origins
            renamed["records"] = [
                {**record, "output": rename.get(record["output"], record["output"])}
                for record in shard_prov["records"]
            ]
            prov.merge(ProvenanceStore.from_json(renamed))
        else:
            for output_id, names in origins.items():
                result_prov.add_origins(output_id, names)

    if recorder is not None:
        parent_id = current_span_id()
        for payload in payloads:
            recorder.absorb(
                payload["spans"], parent_id=parent_id,
                shard=payload["index"], pid=payload["pid"],
            )

    profiler = ambient_profiler()
    if profiler is not None:
        # Worker shards sampled themselves (the parent's sampler cannot
        # see across the process boundary); fold their stacks into the
        # run's profile. Serial shards ship no profile — the parent
        # sampler already observed them directly.
        for payload in payloads:
            if payload.get("profile"):
                profiler.profile.merge_json(payload["profile"])

    registry.histogram(
        M_PAR_MERGE_SECONDS, "shard merge wall time", buckets=TIME_BUCKETS
    ).observe(time.perf_counter() - started)

    result = ConversionResult(
        output, master, unconverted, merge_warnings, result_prov,
        metrics=registry,
    )
    result.parallel = {"mode": mode, "shards": len(payloads), "workers": workers}
    return result


def _recompute_gauges(registry: MetricsRegistry, master: SkolemTable) -> None:
    """Derived gauges are whole-registry ratios: after absorbing shard
    snapshots (which carry per-shard gauge values), recompute them from
    the merged counter totals — the same formulas the interpreter's
    ``_flush_metrics`` uses."""
    calls = registry.value(M_DISPATCH_INDEXED) + registry.value(M_DISPATCH_UNINDEXED)
    if calls:
        registry.gauge(M_DISPATCH_HIT_RATIO).set(
            registry.value(M_DISPATCH_INDEXED) / calls
        )
    considered = registry.value(M_DISPATCH_CONSIDERED)
    if considered:
        registry.gauge(M_DISPATCH_REDUCTION).set(
            1.0 - registry.value(M_DISPATCH_ADMITTED) / considered
        )
    registry.gauge(M_SKOLEM_SIZE).set(len(master))
