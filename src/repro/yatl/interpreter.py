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
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.arena import Arena, ArenaStore
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
from .arena_exec import FastRule, compile_fast_rule
from .ast import Expr, FunctionCall, Rule
from .bindings import Binding, Value
from .construction import (
    Constructor,
    Unbound,
    deref_target,
    is_deref_placeholder,
)
from .dispatch import DispatchStats, RootView, Subject
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
M_DISPATCH_HIT_RATIO = "yatl.dispatch.hit_ratio"
M_DISPATCH_REDUCTION = "yatl.dispatch.candidate_reduction_ratio"
M_SKOLEM_FRESH = "yatl.skolem.ids_fresh"
M_SKOLEM_REUSED = "yatl.skolem.ids_reused"
M_SKOLEM_SIZE = "yatl.skolem.table_size"
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
        state = _RunState(self, store)
        with span("yatl.run", rules=len(self.rules), inputs=state.n_inputs):
            state.metrics.counter(M_BATCHES).inc(1)
            state.apply_top_level()
            state.apply_fallbacks()
            state.demand_loop()
            return state.finish()


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------


class _RunState:
    """Mutable state of one program run. Every rule application, on
    trees or arena columns, runs through :meth:`_bindings` (phases 1-3)
    and :meth:`_construct_outputs` (phases 4-5), which own its spans,
    metrics and provenance."""

    def __init__(self, interpreter: Interpreter, store: DataStore) -> None:
        self.interp = interpreter
        self.input_store = store
        # Arena inputs stay columnar: roots are matched by index and
        # decoded lazily, so `inputs` stays empty; everything downstream
        # sizes itself off `n_inputs` and fetches roots by index via
        # `_roots_at`.
        self.arena: Optional[Arena] = None
        if isinstance(store, ArenaStore):
            self.arena = store.arena
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
            store if self.arena is not None else self.inputs,
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
        # The root ledger: per-root shadowing and conversion state, keyed
        # by root index on both representations; demand subjects get
        # indices past the inputs' (see demand_loop). `index_of_root`
        # maps a root tree to its index (None for any other value): an
        # arena store records its roots as it decodes them.
        self.input_names: List[str] = store.names()
        if self.arena is not None:
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
        # (compiled arena rules never build reference leaves — the
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
        offers it, with hierarchy shadowing per root input tree (see
        :meth:`_apply_rule_with_shadowing`). Fallback rules run
        afterwards, once, over the leftovers — see
        :meth:`apply_fallbacks`."""
        needed = self.interp.needed_functors
        for rule in self.order:
            if rule.is_fallback:
                continue
            if needed is not None and rule.head_functor not in needed:
                continue  # targeted evaluation: this output is not queried
            indices = self.root_view.select(rule)
            if indices:
                self._apply_rule_with_shadowing(rule, indices)

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
            bindings = self._bindings(rule, self._roots_at(indices))
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
        if self.arena is not None:
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

    def _apply_rule_with_shadowing(self, rule: Rule, indices: Sequence[int]) -> None:
        """Apply *rule* to the top-level roots at *indices*, with
        hierarchy shadowing per root. On an arena a compilable rule
        scans the columns; any other rule runs the tree matcher over
        the materialized roots."""
        fast = None
        if self.arena is not None:
            fast = compile_fast_rule(rule, self.arena.intern)
        if fast is not None:
            bindings = self._unshadowed_rows(rule, self._bindings(rule, indices, fast))
        else:
            bindings = self._bindings(rule, self._roots_at(indices))
            roots = rule.root_body_patterns()
            if len(roots) == 1:
                name = roots[0].name.name
                index_of_root = self.index_of_root
                rows = [(index_of_root(b.get(name)), b) for b in bindings]
                bindings = [b for _, b in self._unshadowed_rows(rule, rows)]
            self._record_converted(rule, bindings)
        if bindings:
            self._construct_outputs(rule, bindings, fast)

    # -- phases 1-3 -------------------------------------------------------------

    def _bindings(
        self, rule: Rule, candidates: Sequence, fast: Optional[FastRule] = None
    ) -> list:
        """Phases 1-3 of one rule application over *candidates*: trees
        for the general matcher, which yields bindings, or — with a
        compiled *fast* rule — arena root indices, which yield
        ``(root index, slot tuple)`` rows. A compiled rule has no calls
        or predicates (``compile_fast_rule`` rejects them), so its rows
        pass phases 2 and 3 unchanged."""
        name = rule.name
        metrics = self.metrics
        with span("yatl.rule", rule=name, candidates=len(candidates)):
            started = time.perf_counter()
            with span("yatl.phase.match", rule=name):  # phase 1
                if fast is None:
                    bindings = match_body(rule, candidates, self.match_ctx)
                else:
                    bindings = fast.scan(self.arena, candidates, self.converted)
            metrics.counter(M_RULE_APPLICATIONS).inc(rule=name)
            metrics.counter(M_RULE_MATCHED).inc(len(bindings), rule=name)
            if bindings:
                with span("yatl.phase.call", rule=name):
                    bindings = self._evaluate_calls(rule, bindings)  # phase 2
                after_calls = len(bindings)
                with span("yatl.phase.predicate", rule=name):
                    bindings = self._apply_predicates(rule, bindings)  # phase 3
                metrics.counter(M_RULE_AFTER_CALLS).inc(after_calls, rule=name)
                metrics.counter(M_RULE_AFTER_PREDICATES).inc(
                    len(bindings), rule=name
                )
            metrics.histogram(M_RULE_SECONDS, buckets=TIME_BUCKETS).observe(
                time.perf_counter() - started, rule=name
            )
        return bindings

    def _evaluate_calls(self, rule: Rule, bindings: List[Binding]) -> List[Binding]:
        for call in rule.calls:
            fn = self.interp.registry.get(call.function)
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
                    self.warnings.append(
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

    # -- phases 4-5 -------------------------------------------------------------

    def _construct_outputs(
        self, rule: Rule, bindings: list, fast: Optional[FastRule] = None
    ) -> None:
        """Phases 4-5 of one rule application: group *bindings* by
        Skolem identifier, then build each group's output in first
        encounter order and record where it came from. A compiled
        *fast* rule groups its rows and builds its heads on its own."""
        if fast is None:
            groups = self._skolem_groups(rule, bindings)
            build = partial(self.constructor.construct, rule.head.tree)
        else:
            groups = fast.skolem_groups(bindings, self.skolems.id_for, self._on_skolem)
            build = fast.build
        name = rule.name
        metrics = self.metrics
        metrics.counter(M_CONSTRUCT_GROUPS).inc(len(groups), rule=name)
        skolems = self.skolems
        provenance = self.provenance
        input_names = self.input_names
        active = self._active_origins
        prov = self.prov
        built = skipped = 0
        with span("yatl.phase.construct", rule=name, groups=len(groups)):
            for identifier, (group, indices) in groups.items():
                # The group's origins: the roots it matched, plus (for
                # demand-driven applications) the demanding output's.
                origins = set(active)
                for index in indices:
                    origins.add(input_names[index])
                entry = provenance.get(identifier)
                if entry is None:
                    provenance[identifier] = entry = set(origins)
                else:
                    entry.update(origins)
                self._active_origins = entry
                try:
                    value = build(group)
                except Unbound as unbound:
                    self.warnings.append(
                        f"rule {name!r}: output {identifier} skipped "
                        f"(unbound {unbound.name})"
                    )
                    skipped += 1
                    continue
                finally:
                    self._active_origins = active
                if isinstance(value, Ref):
                    self.root_refs[identifier] = value
                else:
                    skolems.associate(identifier, value)
                if fast is not None:
                    self.ref_free_ids.add(identifier)
                built += 1
                self.pending_ref.pop(identifier, None)
                self.pending_deref.pop(identifier, None)
                if prov is not None:
                    self.prov_firings += 1
                    if prov.record_firing(
                        identifier,
                        name,
                        inputs=origins,
                        program=self.interp.program_name,
                        skolem=lambda i=identifier: skolems.term_text(i),
                    ):
                        self.prov_records += 1
        if built:
            metrics.counter(M_RULE_OUTPUTS).inc(built, rule=name)
        if skipped:
            metrics.counter(M_CONSTRUCT_SKIPPED).inc(skipped, rule=name)

    def _skolem_groups(
        self, rule: Rule, bindings: List[Binding]
    ) -> Dict[str, Tuple[List[Binding], List[int]]]:
        """Phase 4 on the tree path: *bindings* grouped by Skolem
        identifier, in first encounter order, as identifier ->
        (bindings, indices of the top-level roots they matched)."""
        term = rule.head.term
        skolem_id = self.constructor.skolem_id
        index_of_root = self.index_of_root
        root_names = [bp.name.name for bp in rule.root_body_patterns()]
        groups: Dict[str, Tuple[List[Binding], List[int]]] = {}
        for binding in bindings:
            try:
                identifier = skolem_id(term, binding, False)
            except Unbound:
                continue  # missing Skolem argument: no output for it
            group = groups.get(identifier)
            if group is None:
                groups[identifier] = group = ([], [])
            group[0].append(binding)
            for root_name in root_names:
                index = index_of_root(binding.get(root_name))
                if index is not None:
                    group[1].append(index)
        return groups

    # -- demand-driven evaluation -------------------------------------------------

    def demand_loop(self) -> None:
        """Evaluate pending dereferenced Skolems on their subtree
        arguments until quiescence (safe recursion, Section 3.4).

        A round offers each (functor, subject) pair its pending
        identifiers demand, each pair in one round only. Every rule, in
        hierarchy order, is offered its functor's subjects through a
        :class:`RootView` and matched on each one it admits, shadowed in
        the root ledger, where each distinct subject value has one index
        past the inputs'. Outputs are then built pair by pair in pending
        order, so Skolem identifiers are allocated in demand order."""
        subject_index: Dict[Subject, int] = {}
        offered: Set[Tuple[str, int]] = set()  # (functor, ledger index)
        dispatch = self.interp.dispatch
        shadowed = self.interp.hierarchy.shadowed
        rules_matched = self.rules_matched
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
            iterations += len(pending)
            if iterations > self.interp.max_demand_iterations:
                raise CyclicProgramError(
                    "demand-driven evaluation did not converge "
                    f"(> {self.interp.max_demand_iterations} steps): "
                    "the program is likely cyclic"
                )
            with span("yatl.demand.round", round=rounds, pending=len(pending)):
                # The round's new (functor, ledger index) pairs in pending
                # order, each with the (rule, bindings) it will match; and
                # per functor, the subjects its rules are offered.
                matches: Dict[Tuple[str, int], list] = {}
                offers: Dict[str, Tuple[List[Subject], List[int]]] = {}
                for identifier in pending:
                    functor, args = self.skolems.key_of(identifier)
                    subject = next(
                        (a for a in args if isinstance(a, (Tree, Ref))), None
                    )
                    if subject is None:
                        continue
                    index = subject_index.setdefault(
                        subject, self.n_inputs + len(subject_index)
                    )
                    if (functor, index) not in offered:
                        offered.add((functor, index))
                        matches[functor, index] = []
                        subjects, indices = offers.setdefault(functor, ([], []))
                        subjects.append(subject)
                        indices.append(index)
                views = {
                    functor: RootView(subjects, dispatch, self.dispatch_stats)
                    for functor, (subjects, _) in offers.items()
                }
                for rule in self.order:  # phases 1-3
                    functor = rule.head_functor
                    if functor not in views:
                        continue
                    subjects, indices = offers[functor]
                    for position in views[functor].select(rule):
                        index = indices[position]
                        if shadowed(rule, rules_matched.get(index, ())):
                            continue
                        bindings = self._bindings(rule, [subjects[position]])
                        if bindings:
                            rules_matched.setdefault(index, set()).add(rule.name)
                            matches[functor, index].append((rule, bindings))
                for matched in matches.values():  # phases 4-5
                    for rule, bindings in matched:
                        self._construct_outputs(rule, bindings)
            if not any(matches.values()):
                break
        if iterations:
            self.metrics.counter(M_DEMAND_ITERATIONS).inc(iterations)
            self.metrics.counter(M_DEMAND_ROUNDS).inc(rounds)

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
