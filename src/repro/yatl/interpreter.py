"""The YATL interpreter (Sections 3.1, 3.4, 4.2).

A rule application processes its input in five phases:

1. match the body patterns, producing variable bindings;
2. evaluate external functions (after the type filter);
3. apply predicates to filter the bindings;
4. evaluate Skolem functions (global to the program);
5. construct the output patterns and associate them to their names.

Program evaluation adds: rule-hierarchy dispatch (more specific rules
shadow general ones per input, Section 4.2), demand-driven evaluation of
dereferenced Skolems on subtrees (the safe-recursive programs of
Sections 3.4/4.1), dereference splicing "at the end of rules
processing", and the optional run-time typing of Section 3.5 (inputs
converted by no rule raise, or feed empty-head fallback rules).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.arena import ArenaStore
from ..core.trees import DataStore, Ref, Tree
from ..errors import (
    CyclicProgramError,
    DanglingReferenceError,
    FunctionError,
    UnconvertedDataError,
)
from ..obs import MetricsRegistry, ambient_registry, span
from ..obs.metrics import TIME_BUCKETS
from ..obs.provenance import ProvenanceStore, ambient_provenance
from .arena_exec import ArenaEngine
from .ast import Expr, FunctionCall, Rule
from .bindings import Binding, Value
from .construction import (
    Constructor,
    Unbound,
    deref_target,
    is_deref_placeholder,
)
from .dispatch import DispatchStats, RootView
from .functions import FunctionRegistry, evaluate_comparison, standard_registry
from .hierarchy import Hierarchy
from .matching import MatchContext, match_body
from .skolem import SkolemTable
from ..core.variables import PatternVar, Var

# Metric names (the catalog lives in docs/OBSERVABILITY.md). Per-rule
# metrics carry a ``rule`` label; everything else is unlabelled.
M_RULE_APPLICATIONS = "yatl.rule.applications"
M_RULE_MATCHED = "yatl.rule.bindings_matched"
M_RULE_AFTER_CALLS = "yatl.rule.bindings_after_calls"
M_RULE_AFTER_PREDICATES = "yatl.rule.bindings_after_predicates"
M_RULE_OUTPUTS = "yatl.rule.outputs"
M_RULE_SECONDS = "yatl.rule.seconds"
M_CONSTRUCT_GROUPS = "yatl.construct.groups"
M_CONSTRUCT_SKIPPED = "yatl.construct.skipped_unbound"
M_DEMAND_ITERATIONS = "yatl.demand.iterations"
M_DEMAND_ROUNDS = "yatl.demand.rounds"
M_INPUT_TREES = "yatl.inputs.total"
M_INPUT_CONVERTED = "yatl.inputs.converted"
M_INPUT_UNCONVERTED = "yatl.inputs.unconverted"
M_OUTPUT_TREES = "yatl.outputs.trees"
M_WARNINGS = "yatl.warnings"
M_BATCHES = "yatl.batches"
M_DISPATCH_INDEXED = "yatl.dispatch.indexed_calls"
M_DISPATCH_UNINDEXED = "yatl.dispatch.unindexed_calls"
M_DISPATCH_CONSIDERED = "yatl.dispatch.subjects_considered"
M_DISPATCH_ADMITTED = "yatl.dispatch.subjects_admitted"
M_DISPATCH_ADMIT_CHECKS = "yatl.dispatch.admit_checks"
M_DISPATCH_ADMIT_REJECTIONS = "yatl.dispatch.admit_rejections"
M_DISPATCH_HIT_RATIO = "yatl.dispatch.hit_ratio"
M_DISPATCH_REDUCTION = "yatl.dispatch.candidate_reduction_ratio"
M_SKOLEM_FRESH = "yatl.skolem.ids_fresh"
M_SKOLEM_REUSED = "yatl.skolem.ids_reused"
M_SKOLEM_SIZE = "yatl.skolem.table_size"
M_MATCH_COVERAGE_MEMO_HITS = "yatl.match.coverage_memo_hits"
M_PROVENANCE_FIRINGS = "yatl.provenance.firings"
M_PROVENANCE_RECORDS = "yatl.provenance.records"


class ConversionResult:
    """Outcome of a program run.

    ``store`` maps generated identifiers to their (dereferenced) trees;
    ``skolems`` exposes the Skolem table for identifier introspection;
    ``unconverted`` lists input trees no rule matched — fallback
    (empty-head) rules count as matching, so an input a fallback handled
    is *not* reported unconverted; ``warnings`` collects non-fatal
    anomalies (filtered function errors, dangling references in
    non-strict mode...); ``metrics`` is the run's
    :class:`~repro.obs.MetricsRegistry` — per-rule phase counters,
    dispatch-index hit and candidate-reduction ratios, Skolem table
    stats (see docs/OBSERVABILITY.md for the catalog); ``provenance``
    is the run's :class:`~repro.obs.ProvenanceStore` — name-level
    origins for every output (always exact), plus per-firing lineage
    records with backward/forward queries when a store was installed
    (``Interpreter(provenance=...)`` or the ambient
    :func:`repro.obs.tracing`).
    """

    def __init__(
        self,
        store: DataStore,
        skolems: SkolemTable,
        unconverted: List[Tree],
        warnings: List[str],
        provenance: Optional[ProvenanceStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.skolems = skolems
        self.unconverted = unconverted
        self.warnings = warnings
        #: per-node lineage for this run (see docs/OBSERVABILITY.md)
        self.provenance: ProvenanceStore = (
            provenance if provenance is not None else ProvenanceStore()
        )
        #: runtime accounting for this run
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry()
        )

    def ids_of(self, functor: str) -> List[str]:
        """Identifiers generated for a Skolem functor, in creation order."""
        return [i for i in self.skolems.ids_of_functor(functor) if i in self.store]

    def trees_of(self, functor: str) -> List[Tree]:
        return [self.store.get(i) for i in self.ids_of(functor)]

    def tree(self, identifier: str) -> Tree:
        return self.store.get(identifier)

    def lineage(self, identifier: str) -> Set[str]:
        """The input-tree names an output was derived from (mediator
        lineage — which sources fed this integrated object). A view
        over ``provenance.origins_of``; always exact, recorder or not."""
        return self.provenance.origins_of(identifier)

    def derived_from(self, input_name: str) -> List[str]:
        """Outputs whose derivation involved the named input tree."""
        return [
            identifier
            for identifier in self.store.names()
            if input_name in self.provenance.origins_of(identifier)
        ]

    def __repr__(self) -> str:
        return (
            f"ConversionResult({len(self.store)} trees, "
            f"{len(self.unconverted)} unconverted, "
            f"{len(self.warnings)} warning(s))"
        )


class Interpreter:
    """Evaluates a rule set over a data store.

    Parameters
    ----------
    rules:
        The program's rules (any iterable; order is the tie-break for
        hierarchy dispatch).
    registry:
        External functions; defaults to the standard library.
    model:
        Optional model for typed pattern variables and name leaves.
    hierarchy:
        Prebuilt rule hierarchy; computed on demand otherwise.
    runtime_typing:
        Section 3.5's run-time check: raise
        :class:`~repro.errors.UnconvertedDataError` when an input tree
        is matched by no rule — not even a fallback rule.
    strict_refs:
        Raise on dangling ``&`` references instead of warning.
    use_dispatch_index:
        Offer each rule only the top-level roots its root signature
        admits (see :mod:`.dispatch`), on tree and arena inputs alike.
        On by default; disable to offer every root to every rule and
        measure the unindexed O(rules × inputs) behaviour (the
        benchmark's ``--no-index`` ablation).
    use_arena:
        Evaluate :class:`~repro.core.arena.ArenaStore` inputs on the
        columnar batch path (see :mod:`.arena_exec`): compilable rules
        run as flat column comparisons over their candidate roots, the
        rest fall back to the tree matcher over those roots, lazily
        materialized. Outputs are
        byte-identical either way. Disable (the benchmark's
        ``--no-arena`` ablation) to convert arena inputs to a
        :class:`~repro.core.trees.DataStore` up front and run the plain
        tree path. Irrelevant for non-arena inputs.
    workers:
        Evaluate the top-level input forest with the multi-process
        executor of :mod:`repro.parallel`: the inputs are split into
        contiguous chunks, each chunk runs through its own interpreter
        with an isolated Skolem table, and the chunk results are merged
        back deterministically (Skolem identifiers reconciled by
        canonical term). ``workers=1`` runs the same chunk plan
        serially in-process, so ``workers=N`` output is always
        byte-identical to ``workers=1`` — see docs/PERFORMANCE.md.
        ``None`` (default) keeps the plain single-pass evaluation.
    chunk_size:
        Inputs per chunk for ``workers=``; defaults to a heuristic that
        leaves small forests on the plain in-process path.
    executor:
        A shared :class:`repro.parallel.ParallelExecutor` (e.g. the
        serve plane's per-process pool); without one an ephemeral pool
        is created per run when ``workers > 1``.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to account the run(s)
        into. When omitted, each run uses the ambient registry
        installed by :func:`repro.obs.collecting` if there is one
        (pipelines and the CLI aggregate that way), or a fresh
        registry otherwise; either way the registry is surfaced on
        ``ConversionResult.metrics``.
    provenance:
        A :class:`~repro.obs.ProvenanceStore` to record per-firing
        lineage into. When omitted, each run uses the ambient store
        installed by :func:`repro.obs.tracing` if there is one; with
        neither, only the always-on name-level origins are kept (no
        per-firing records — the zero-overhead default).
    program_name:
        Stamped on every provenance record this interpreter emits, so
        cross-program chains name the program each hop came from.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        registry: Optional[FunctionRegistry] = None,
        model=None,
        hierarchy: Optional[Hierarchy] = None,
        runtime_typing: bool = False,
        strict_refs: bool = False,
        max_demand_iterations: int = 100_000,
        target_functors: Optional[Sequence[str]] = None,
        use_dispatch_index: bool = True,
        use_arena: bool = True,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        executor=None,
        metrics: Optional[MetricsRegistry] = None,
        provenance: Optional[ProvenanceStore] = None,
        program_name: Optional[str] = None,
    ) -> None:
        self.rules = list(rules)
        self.registry = registry or standard_registry()
        self.model = model
        self.hierarchy = hierarchy or Hierarchy(self.rules, model=model)
        self.runtime_typing = runtime_typing
        self.strict_refs = strict_refs
        self.max_demand_iterations = max_demand_iterations
        self.metrics = metrics
        self.provenance = provenance
        self.program_name = program_name
        self.dispatch = self.hierarchy.dispatch_index() if use_dispatch_index else None
        self.use_arena = use_arena
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.workers = workers
        self.chunk_size = chunk_size
        self.executor = executor
        self.target_functors = (
            list(target_functors) if target_functors is not None else None
        )
        # Targeted evaluation (the paper's future work: "querying the
        # target data representation without materializing it"): when
        # target functors are given, only the rules those functors
        # transitively need — through Skolem references *and*
        # dereferences — are evaluated.
        self.needed_functors: Optional[Set[str]] = (
            self._transitive_functors(target_functors)
            if target_functors is not None
            else None
        )

    def _transitive_functors(self, targets: Sequence[str]) -> Set[str]:
        dependencies: Dict[str, Set[str]] = {}
        for rule in self.rules:
            if rule.head is None:
                continue
            functor = rule.head.term.functor
            uses = dependencies.setdefault(functor, set())
            for term, _ in rule.head.skolem_occurrences():
                uses.add(term.functor)
        needed: Set[str] = set()
        frontier = list(targets)
        while frontier:
            functor = frontier.pop()
            if functor in needed:
                continue
            needed.add(functor)
            frontier.extend(dependencies.get(functor, ()))
        return needed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, data: Union[DataStore, Sequence[Tree], Tree]) -> ConversionResult:
        store = _as_store(data, self.use_arena)
        workers = self.workers
        if workers is None and self.executor is not None:
            # A shared pool is an explicit opt-in: use its worker count.
            workers = self.executor.workers
        if workers is not None:
            from ..parallel import run_sharded  # cycle: parallel runs interpreters

            return run_sharded(
                self.shard_spec(),
                store,
                workers=workers,
                chunk_size=self.chunk_size,
                executor=self.executor,
                strict_refs=self.strict_refs,
                metrics=self.metrics,
                provenance=self.provenance,
            )
        return self.run_local(store)

    def run_local(self, data: Union[DataStore, Sequence[Tree], Tree]) -> ConversionResult:
        """One plain single-process pass (no sharding) — the execution
        primitive :mod:`repro.parallel` runs once per chunk."""
        store = _as_store(data, self.use_arena)
        state = _RunState(self, store)
        with span("yatl.run", rules=len(self.rules), inputs=state.n_inputs):
            state.metrics.counter(M_BATCHES).inc(1)
            state.apply_top_level()
            state.apply_fallbacks()
            state.demand_loop()
            return state.finish()

    def shard_spec(self):
        """The picklable description :mod:`repro.parallel` ships to
        worker processes to rebuild this interpreter per shard."""
        from ..parallel import ShardSpec

        return ShardSpec(
            rules=self.rules,
            registry=self.registry,
            model=self.model,
            hierarchy=self.hierarchy,
            runtime_typing=self.runtime_typing,
            max_demand_iterations=self.max_demand_iterations,
            target_functors=self.target_functors,
            use_dispatch_index=self.dispatch is not None,
            use_arena=self.use_arena,
            program_name=self.program_name,
        )

    # ------------------------------------------------------------------
    # Phases 1-3 for one rule
    # ------------------------------------------------------------------

    def rule_bindings(
        self,
        rule: Rule,
        input_trees: Sequence[Tree],
        mctx: MatchContext,
        warnings: List[str],
        metrics: Optional[MetricsRegistry] = None,
    ) -> List[Binding]:
        with span("yatl.rule", rule=rule.name, candidates=len(input_trees)):
            started = time.perf_counter() if metrics is not None else 0.0
            with span("yatl.phase.match", rule=rule.name):
                bindings = match_body(rule, input_trees, mctx)  # phase 1
            if metrics is not None:
                metrics.counter(M_RULE_APPLICATIONS).inc(rule=rule.name)
                metrics.counter(M_RULE_MATCHED).inc(len(bindings), rule=rule.name)
            if not bindings:
                if metrics is not None:
                    metrics.histogram(M_RULE_SECONDS, buckets=TIME_BUCKETS).observe(
                        time.perf_counter() - started, rule=rule.name
                    )
                return []
            with span("yatl.phase.call", rule=rule.name):
                bindings = self._evaluate_calls(rule, bindings, warnings)  # phase 2
            with span("yatl.phase.predicate", rule=rule.name):
                kept = self._apply_predicates(rule, bindings)  # phase 3
            if metrics is not None:
                metrics.counter(M_RULE_AFTER_CALLS).inc(
                    len(bindings), rule=rule.name
                )
                metrics.counter(M_RULE_AFTER_PREDICATES).inc(
                    len(kept), rule=rule.name
                )
                metrics.histogram(M_RULE_SECONDS, buckets=TIME_BUCKETS).observe(
                    time.perf_counter() - started, rule=rule.name
                )
            return kept

    def _evaluate_calls(
        self, rule: Rule, bindings: List[Binding], warnings: List[str]
    ) -> List[Binding]:
        for call in rule.calls:
            fn = self.registry.get(call.function)
            surviving: List[Binding] = []
            for binding in bindings:
                args = _argument_values(call, binding)
                if args is None or not fn.accepts(args):
                    continue  # the paper's type filter
                try:
                    result = fn(*args)
                except UnconvertedDataError:
                    raise
                except FunctionError as exc:
                    warnings.append(
                        f"rule {rule.name!r}: {call.function} filtered a "
                        f"binding: {exc}"
                    )
                    continue
                if call.result is None:
                    if result:
                        surviving.append(binding)
                    continue
                extended = binding.bind(call.result, result)  # type: ignore[arg-type]
                if extended is not None:
                    surviving.append(extended)
            bindings = surviving
            if not bindings:
                break
        return bindings

    def _apply_predicates(self, rule: Rule, bindings: List[Binding]) -> List[Binding]:
        for predicate in rule.predicates:
            surviving = []
            for binding in bindings:
                left = _expr_value(predicate.left, binding)
                right = _expr_value(predicate.right, binding)
                if left is _MISSING or right is _MISSING:
                    continue
                if evaluate_comparison(left, predicate.op, right):
                    surviving.append(binding)
            bindings = surviving
            if not bindings:
                break
        return bindings


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------


class _RunState:
    """Mutable state of one program run."""

    def __init__(self, interpreter: Interpreter, store: DataStore) -> None:
        self.interp = interpreter
        self.input_store = store
        # Arena inputs stay columnar: roots are matched by index and
        # decoded lazily, so `inputs` stays empty (see ArenaEngine);
        # everything downstream sizes itself off `n_inputs` and fetches
        # roots by index via `_roots_at`.
        self.arena_engine: Optional[ArenaEngine] = None
        if isinstance(store, ArenaStore):
            self.arena_engine = ArenaEngine(self, store)
            self.inputs: List[Tree] = []
        else:
            self.inputs = store.trees()
        self.n_inputs = len(store)
        self.skolems = SkolemTable()
        self.warnings: List[str] = []
        # One registry per run unless the interpreter (or an ambient
        # `collecting` block) supplies a shared one. None checks, not
        # truthiness: an empty registry is falsy but still the sink.
        metrics = interpreter.metrics
        if metrics is None:
            metrics = ambient_registry()
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics: MetricsRegistry = metrics
        # Dispatch accounting: plain ints on the hot path, flushed into
        # the registry once, in finish().
        self.dispatch_stats = DispatchStats()
        self.root_view = RootView(
            store if self.arena_engine is not None else self.inputs,
            interpreter.dispatch,
            self.dispatch_stats,
        )
        self.match_ctx = MatchContext(store=store, model=interpreter.model)
        self.constructor = Constructor(self.skolems, self._on_skolem)
        # Demand-driven evaluation bookkeeping. Insertion-ordered dicts
        # (not sets): demand_loop iterates pending_deref, and set order
        # varies with the process hash seed — Skolem numbering must not.
        self.pending_deref: Dict[str, None] = {}
        self.pending_ref: Dict[str, None] = {}
        self.applied: Set[Tuple[str, Tree]] = set()  # (rule name, demand tree)
        # Rule names that *matched* a demand subject, keyed by the
        # subject itself. Persisted across demand iterations (and thus
        # shared by structurally-equal subjects) so a general rule stays
        # shadowed once a more specific one has matched the subject.
        self.demand_matched: Dict[Union[Tree, Ref], Set[str]] = {}
        # The root ledger: per-root shadowing and conversion state, keyed
        # by root index on both representations. `index_of_root` maps a
        # root tree to its index (None for any other value): an arena
        # store records its roots as it decodes them.
        self.input_names: List[str] = store.names()
        if self.arena_engine is not None:
            self.index_of_root = store.index_of_tree
        else:
            by_id = {id(node): index for index, node in enumerate(self.inputs)}
            self.index_of_root = lambda node: by_id.get(id(node))
        self.rules_matched: Dict[int, Set[str]] = {}  # index -> rule names
        self.converted: Set[int] = set()
        # Converted roots by *value* (tree path only): binding dedup
        # collapses value-equal roots into one binding, so the twins it
        # dropped are converted too.
        self.converted_trees: Set[Tree] = set()
        self.root_refs: Dict[str, Ref] = {}  # heads that built a bare reference
        self.order = interpreter.hierarchy.specific_first()
        # Provenance: output identifier -> names of the input trees it
        # was derived from. Demand-driven outputs inherit the origins of
        # the output whose construction demanded them.
        self.provenance: Dict[str, Set[str]] = {}
        self._active_origins: Set[str] = set()
        # Identifiers whose associated value is known reference-free
        # (the arena fast path never builds reference leaves — the
        # compiler rejects them): finish() skips their splice and
        # dangling-reference walks.
        self.ref_free_ids: Set[str] = set()
        # Detailed per-firing recorder: explicit or ambient, usually
        # None. Resolved once per run; when None the construct path pays
        # exactly one extra `is not None` check per output group.
        self.prov: Optional[ProvenanceStore] = interpreter.provenance
        if self.prov is None:
            self.prov = ambient_provenance()
        self.prov_firings = 0
        self.prov_records = 0

    # -- Skolem callback ------------------------------------------------------

    def _on_skolem(self, identifier: str, term, deref: bool) -> None:
        if deref:
            self.pending_deref[identifier] = None
        else:
            self.pending_ref[identifier] = None
        if self._active_origins:
            self.provenance.setdefault(identifier, set()).update(
                self._active_origins
            )

    # -- top-level application --------------------------------------------------

    def apply_top_level(self) -> None:
        """Apply every non-fallback rule to the roots the root view
        offers it, with hierarchy shadowing per root input tree. A
        compilable rule over an arena runs on the columns
        (:meth:`ArenaEngine.apply_rule`); every other rule runs the
        tree path over the materialized roots. Fallback rules run
        afterwards, once, over the leftovers — see
        :meth:`apply_fallbacks`."""
        engine = self.arena_engine
        needed = self.interp.needed_functors
        for rule in self.order:
            if rule.is_fallback:
                continue
            if needed is not None and rule.head_functor not in needed:
                continue  # targeted evaluation: this output is not queried
            indices = self.root_view.select(rule)
            if not indices:
                continue
            if engine is None or not engine.apply_rule(rule, indices):
                self._apply_rule_with_shadowing(rule, self._roots_at(indices))

    def apply_fallbacks(self) -> None:
        """Fallback (empty-head) rules over the inputs no other rule
        converted, recording what they match; with ``runtime_typing``,
        raise for inputs that not even a fallback rule matched."""
        leftovers = self._leftover_indices()
        if not leftovers:
            return
        for rule in self.order:
            if not rule.is_fallback:
                continue
            indices = self.root_view.select(rule, leftovers)
            if not indices:
                continue
            bindings = self.interp.rule_bindings(
                rule, self._roots_at(indices), self.match_ctx, self.warnings,
                self.metrics,
            )
            # A fallback match *handles* the input (the paper's Rule
            # Exception): account it as converted.
            self._record_converted(rule, bindings)
        if self.interp.runtime_typing:
            unhandled = self._leftover_indices()
            if unhandled:
                first = self._roots_at(unhandled[:1])[0]
                raise UnconvertedDataError(
                    f"{len(unhandled)} input tree(s) matched by no rule "
                    f"(not even a fallback rule; first: {str(first)[:80]!r})"
                )

    def _roots_at(self, indices: Sequence[int]) -> List[Tree]:
        """The input trees at *indices* (arena roots decode on first use)."""
        if self.arena_engine is not None:
            tree_root = self.input_store.tree_root
            return [tree_root(i) for i in indices]
        inputs = self.inputs
        return [inputs[i] for i in indices]

    def _leftover_indices(self) -> List[int]:
        """The indices of the inputs no rule converted so far, in store
        order: the roots neither marked by index nor equal to a root the
        tree path recorded by value."""
        converted = self.converted
        leftovers = [i for i in range(self.n_inputs) if i not in converted]
        trees = self.converted_trees
        if not trees or not leftovers:
            return leftovers
        return [
            index
            for index, root in zip(leftovers, self._roots_at(leftovers))
            if root not in trees
        ]

    def _unshadowed_rows(self, rule: Rule, rows: List[tuple]) -> List[tuple]:
        """Hierarchy shadowing on top-level roots (Section 4.2), over
        ``(root index, ...)`` rows from either representation: drop the
        rows whose root a more specific rule already matched, then record
        *rule* on the kept roots and mark them converted."""
        rules_matched = self.rules_matched
        shadowed = self.interp.hierarchy.shadowed
        kept = [
            row for row in rows if not shadowed(rule, rules_matched.get(row[0], ()))
        ]
        for row in kept:
            rules_matched.setdefault(row[0], set()).add(rule.name)
            self.converted.add(row[0])
        return kept

    def _record_converted(self, rule: Rule, bindings: List[Binding]) -> None:
        """Record the roots *bindings* matched as converted, by value."""
        trees = self.converted_trees
        names = [bp.name.name for bp in rule.root_body_patterns()]
        for binding in bindings:
            for name in names:
                root = binding.get(name)
                if isinstance(root, Tree):
                    trees.add(root)

    def _apply_rule_with_shadowing(self, rule: Rule, subjects: List[Tree]) -> None:
        bindings = self.interp.rule_bindings(
            rule, subjects, self.match_ctx, self.warnings, self.metrics
        )
        roots = rule.root_body_patterns()
        if len(roots) == 1:
            name = roots[0].name.name
            index_of_root = self.index_of_root
            rows = [(index_of_root(b.get(name)), b) for b in bindings]
            bindings = [b for _, b in self._unshadowed_rows(rule, rows)]
        if not bindings:
            return
        self._record_converted(rule, bindings)
        self._construct_outputs(rule, bindings)

    # -- phases 4-5 -------------------------------------------------------------

    def _construct_outputs(self, rule: Rule, bindings: List[Binding]) -> None:
        if rule.head is None:
            return
        head = rule.head
        groups: Dict[str, List[Binding]] = {}
        order: List[str] = []
        for binding in bindings:
            try:
                identifier = self.constructor.skolem_id(head.term, binding, False)
            except Unbound:
                continue  # missing Skolem argument: no output for it
            if identifier not in groups:
                groups[identifier] = []
                order.append(identifier)
            groups[identifier].append(binding)
        root_names = [bp.name.name for bp in rule.root_body_patterns()]
        metrics = self.metrics
        metrics.counter(M_CONSTRUCT_GROUPS).inc(len(order), rule=rule.name)
        built = skipped = 0
        with span("yatl.phase.construct", rule=rule.name, groups=len(order)):
            for identifier in order:
                group = groups[identifier]
                origins = self._origins_of(group, root_names)
                self.provenance.setdefault(identifier, set()).update(origins)
                previous_origins = self._active_origins
                self._active_origins = self.provenance[identifier]
                try:
                    value = self.constructor.construct(head.tree, group)
                except Unbound as unbound:
                    self.warnings.append(
                        f"rule {rule.name!r}: output {identifier} skipped "
                        f"(unbound {unbound.name})"
                    )
                    skipped += 1
                    continue
                finally:
                    self._active_origins = previous_origins
                if isinstance(value, Ref):
                    self.root_refs[identifier] = value
                else:
                    self.skolems.associate(identifier, value)
                built += 1
                self.pending_ref.pop(identifier, None)
                self.pending_deref.pop(identifier, None)
                if self.prov is not None:
                    self.prov_firings += 1
                    if self.prov.record_firing(
                        identifier,
                        rule.name,
                        inputs=origins,
                        program=self.interp.program_name,
                        skolem=lambda i=identifier: self.skolems.term_text(i),
                    ):
                        self.prov_records += 1
        if built:
            metrics.counter(M_RULE_OUTPUTS).inc(built, rule=rule.name)
        if skipped:
            metrics.counter(M_CONSTRUCT_SKIPPED).inc(skipped, rule=rule.name)

    def _origins_of(self, group: List[Binding], root_names: List[str]) -> Set[str]:
        """Input-tree names contributing to one Skolem group: top-level
        root matches, plus (for demand-driven applications) the origins
        of the demanding output."""
        origins: Set[str] = set(self._active_origins)
        for binding in group:
            for name in root_names:
                index = self.index_of_root(binding.get(name))
                if index is not None:
                    origins.add(self.input_names[index])
        return origins

    # -- demand-driven evaluation -------------------------------------------------

    def demand_loop(self) -> None:
        """Evaluate pending dereferenced Skolems on their subtree
        arguments until quiescence (safe recursion, Section 3.4)."""
        by_functor: Dict[str, List[Rule]] = {}
        for rule in self.order:
            if rule.head is not None:
                by_functor.setdefault(rule.head.term.functor, []).append(rule)
        iterations = 0
        rounds = 0
        while True:
            pending = [
                i
                for i in self.pending_deref
                if not self.skolems.has_value(i) and i not in self.root_refs
            ]
            if not pending:
                break
            rounds += 1
            progressed = False
            with span("yatl.demand.round", round=rounds, pending=len(pending)):
                for identifier in pending:
                    iterations += 1
                    if iterations > self.interp.max_demand_iterations:
                        raise CyclicProgramError(
                            "demand-driven evaluation did not converge "
                            f"(> {self.interp.max_demand_iterations} steps): "
                            "the program is likely cyclic"
                        )
                    if self._demand(identifier, by_functor):
                        progressed = True
            if not progressed:
                break
        if iterations:
            self.metrics.counter(M_DEMAND_ITERATIONS).inc(iterations)
            self.metrics.counter(M_DEMAND_ROUNDS).inc(rounds)

    def _demand(self, identifier: str, by_functor: Dict[str, List[Rule]]) -> bool:
        functor, args = self.skolems.key_of(identifier)
        defining = by_functor.get(functor, ())
        if not defining:
            return False
        subject: Optional[Union[Tree, Ref]] = None
        for arg in args:
            if isinstance(arg, (Tree, Ref)):
                subject = arg
                break
        if subject is None:
            return False
        progressed = False
        # `applied` and `matched` both key on the subject's structural
        # identity: Skolem terms are value-keyed, so equal subjects
        # produce identical outputs, and the shadowing state must be
        # shared too — a general rule stays shadowed once a more
        # specific rule matched this subject, including on later
        # iterations for a still-pending identifier.
        matched = self.demand_matched.setdefault(subject, set())
        dispatch = self.interp.dispatch
        for rule in defining:
            key = (rule.name, subject)
            if key in self.applied:
                continue
            if self.interp.hierarchy.shadowed(rule, matched):
                continue
            if dispatch is not None and not dispatch.admits(
                rule, subject, self.dispatch_stats
            ):
                self.applied.add(key)  # can never match: remember the rejection
                continue
            self.applied.add(key)
            bindings = self.interp.rule_bindings(
                rule, [subject], self.match_ctx, self.warnings, self.metrics
            )
            if not bindings:
                continue
            matched.add(rule.name)
            self._construct_outputs(rule, bindings)
            progressed = True
        return progressed

    # -- final splicing ----------------------------------------------------------

    def finish(self) -> ConversionResult:
        resolved: Dict[str, Tree] = {}
        in_progress: Set[str] = set()

        def value_of(identifier: str, via_deref: bool) -> Tree:
            if identifier in resolved:
                return resolved[identifier]
            if identifier in in_progress:
                raise CyclicProgramError(
                    f"cyclic dereferencing detected while splicing {identifier!r}"
                )
            raw = self.skolems.value(identifier)
            if raw is None:
                alias = self.root_refs.get(identifier)
                if alias is not None:
                    if is_deref_placeholder(alias):
                        return value_of(deref_target(alias), True)
                    return value_of(alias.target, False)
                raise DanglingReferenceError(
                    f"no value was associated to {identifier!r} "
                    f"({_term_text(self.skolems, identifier)})"
                )
            if identifier in self.ref_free_ids:
                # Reference-free by construction: splicing would walk
                # the tree only to return it unchanged.
                resolved[identifier] = raw
                return raw
            in_progress.add(identifier)
            try:
                spliced = splice(raw)
            finally:
                in_progress.discard(identifier)
            resolved[identifier] = spliced
            return spliced

        def splice(node: Tree) -> Tree:
            def replace(ref: Ref):
                if is_deref_placeholder(ref):
                    return value_of(deref_target(ref), True)
                return ref

            return node.map_refs(replace)

        output = DataStore()
        with span("yatl.splice"):
            for identifier in self.skolems.ids():
                if not self.skolems.has_value(identifier) and identifier not in self.root_refs:
                    continue
                try:
                    output.add(identifier, value_of(identifier, False))
                except DanglingReferenceError:
                    raise
        # Dangling plain references (known reference-free outputs skip
        # the walk; mirrors DataStore.dangling_references exactly).
        ref_free = self.ref_free_ids
        dangling = sorted(
            {
                ref.target
                for name, node in output
                if name not in ref_free
                for ref in node.references()
                if ref.target not in output
            }
        )
        if dangling:
            message = f"dangling reference(s) in output: {', '.join(dangling)}"
            if self.interp.strict_refs:
                raise DanglingReferenceError(message)
            self.warnings.append(message)
        unconverted = self._roots_at(self._leftover_indices())
        # The name-level origins live in the run's ProvenanceStore
        # (explicit/ambient when installed, a fresh result-local one
        # otherwise) so result.lineage() reads one source of truth and
        # per-firing records — when recorded — share it.
        prov = self.prov if self.prov is not None else ProvenanceStore()
        for identifier, origins in self.provenance.items():
            if identifier in output:
                prov.add_origins(identifier, origins)
        self._flush_metrics(output, unconverted)
        return ConversionResult(
            output, self.skolems, unconverted, self.warnings, prov,
            metrics=self.metrics,
        )

    def _flush_metrics(self, output: DataStore, unconverted: List[Tree]) -> None:
        """Flush the hot-path accumulators (dispatch stats, memo hit
        counts, Skolem stats) into the registry, once per run."""
        m = self.metrics
        m.counter(M_INPUT_TREES).inc(self.n_inputs)
        m.counter(M_INPUT_CONVERTED).inc(self.n_inputs - len(unconverted))
        m.counter(M_INPUT_UNCONVERTED).inc(len(unconverted))
        m.counter(M_OUTPUT_TREES).inc(len(output))
        m.counter(M_WARNINGS).inc(len(self.warnings))
        ds = self.dispatch_stats
        m.counter(M_DISPATCH_INDEXED).inc(ds.indexed_calls)
        m.counter(M_DISPATCH_UNINDEXED).inc(ds.unindexed_calls)
        m.counter(M_DISPATCH_CONSIDERED).inc(ds.subjects_considered)
        m.counter(M_DISPATCH_ADMITTED).inc(ds.subjects_admitted)
        m.counter(M_DISPATCH_ADMIT_CHECKS).inc(ds.admit_checks)
        m.counter(M_DISPATCH_ADMIT_REJECTIONS).inc(ds.admit_rejections)
        # Ratios are whole-registry gauges: recomputed from the counter
        # totals so shared registries aggregate correctly across runs.
        calls = m.value(M_DISPATCH_INDEXED) + m.value(M_DISPATCH_UNINDEXED)
        if calls:
            m.gauge(M_DISPATCH_HIT_RATIO).set(m.value(M_DISPATCH_INDEXED) / calls)
        considered = m.value(M_DISPATCH_CONSIDERED)
        if considered:
            m.gauge(M_DISPATCH_REDUCTION).set(
                1.0 - m.value(M_DISPATCH_ADMITTED) / considered
            )
        m.counter(M_SKOLEM_FRESH).inc(self.skolems.fresh_ids)
        m.counter(M_SKOLEM_REUSED).inc(self.skolems.reused_ids)
        m.gauge(M_SKOLEM_SIZE).set(len(self.skolems))
        m.counter(M_MATCH_COVERAGE_MEMO_HITS).inc(self.match_ctx.coverage_memo_hits)
        if self.prov_firings:
            m.counter(M_PROVENANCE_FIRINGS).inc(self.prov_firings)
        if self.prov_records:
            m.counter(M_PROVENANCE_RECORDS).inc(self.prov_records)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

_MISSING = object()


def _as_store(
    data: Union[DataStore, Sequence[Tree], Tree], use_arena: bool = True
) -> DataStore:
    if isinstance(data, ArenaStore):
        # The ForestView seam: an arena input engages the batch path
        # unless the ablation flag turns it off, in which case it is
        # materialized up front and runs the plain tree path.
        return data if use_arena else data.to_data_store()
    if isinstance(data, DataStore):
        return data
    if isinstance(data, Tree):
        data = [data]
    store = DataStore()
    for index, node in enumerate(data, start=1):
        store.add(f"in{index}", node)
    return store


def _argument_values(call: FunctionCall, binding: Binding) -> Optional[List[Value]]:
    values: List[Value] = []
    for arg in call.args:
        if isinstance(arg, (Var, PatternVar)):
            if arg not in binding:
                return None
            values.append(binding[arg])
        else:
            values.append(arg)
    return values


def _expr_value(expr: Expr, binding: Binding):
    if isinstance(expr, (Var, PatternVar)):
        if expr not in binding:
            return _MISSING
        return binding[expr]
    return expr


def _term_text(skolems: SkolemTable, identifier: str) -> str:
    functor, args = skolems.key_of(identifier)
    return f"{functor}/{len(args)}"
