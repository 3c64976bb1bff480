"""Execution tracing: explain what a conversion did.

A mediator developer debugging a conversion needs to know which rules
fired on which inputs, how many bindings each phase kept, and where
every output came from. :func:`explain` runs a program **once** and
builds a :class:`Trace` from the interpreter's always-on metrics
(:mod:`repro.obs`) — the same counters a production run exposes on
``ConversionResult.metrics`` — so the explain report and live metrics
can never drift, and explaining no longer re-evaluates bodies, calls,
or predicates. ``report()`` prints a per-rule, per-phase account — the
textual equivalent of watching the paper's graphical environment run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..core.trees import DataStore, Tree
from ..obs import MetricsRegistry, collecting
from .interpreter import (
    ConversionResult,
    M_RULE_AFTER_CALLS,
    M_RULE_AFTER_PREDICATES,
    M_RULE_APPLICATIONS,
    M_RULE_MATCHED,
)
from .program import Program


class RuleTrace:
    """What one rule did during a run."""

    def __init__(self, rule: str) -> None:
        self.rule = rule
        self.matched = 0  # bindings after phase 1
        self.after_calls = 0  # after phase 2 (functions + type filter)
        self.after_predicates = 0  # after phase 3
        self.outputs: List[str] = []  # identifiers this rule built
        self.applications = 0  # top-level + demand-driven applications

    @property
    def filtered_by_calls(self) -> int:
        return self.matched - self.after_calls

    @property
    def filtered_by_predicates(self) -> int:
        return self.after_calls - self.after_predicates

    def __repr__(self) -> str:
        return (
            f"RuleTrace({self.rule}: {self.matched} matched -> "
            f"{self.after_predicates} kept -> {len(self.outputs)} output(s))"
        )


class Trace:
    """The full account of one conversion run.

    ``metrics`` is the run's :class:`~repro.obs.MetricsRegistry` — the
    per-rule numbers below are a view over it, and everything else the
    run accounted (dispatch ratios, Skolem stats, memo hits) is read
    from there directly.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.rules: Dict[str, RuleTrace] = {}
        self.result: Optional[ConversionResult] = None
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry()
        )

    def rule(self, name: str) -> RuleTrace:
        if name not in self.rules:
            self.rules[name] = RuleTrace(name)
        return self.rules[name]

    def report(self) -> str:
        lines = ["conversion trace:"]
        for trace in self.rules.values():
            lines.append(
                f"  {trace.rule}: applied {trace.applications}x, "
                f"{trace.matched} binding(s) matched"
            )
            if trace.filtered_by_calls:
                lines.append(
                    f"    - {trace.filtered_by_calls} filtered by external "
                    f"functions (type filter / errors)"
                )
            if trace.filtered_by_predicates:
                lines.append(
                    f"    - {trace.filtered_by_predicates} filtered by "
                    f"predicates"
                )
            if trace.outputs:
                preview = ", ".join(trace.outputs[:8])
                more = "" if len(trace.outputs) <= 8 else ", ..."
                lines.append(
                    f"    -> {len(trace.outputs)} output(s): {preview}{more}"
                )
        if self.result is not None:
            lines.append(
                f"  total: {len(self.result.store)} output tree(s), "
                f"{len(self.result.unconverted)} unconverted input(s), "
                f"{len(self.result.warnings)} warning(s)"
            )
            for identifier in self.result.store.names():
                origins = sorted(self.result.lineage(identifier))
                if origins:
                    lines.append(f"    {identifier} <- {', '.join(origins)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Trace({len(self.rules)} rule(s))"


def explain(
    program: Program,
    data: Union[DataStore, Sequence[Tree], Tree],
    **run_options,
) -> Trace:
    """Run *program* over *data* once (``program.run(data,
    **run_options)``) and explain it; see :class:`Trace`."""
    metrics = MetricsRegistry()
    with collecting(metrics):
        result = program.run(data, **run_options)
    trace = Trace(metrics)
    trace.result = result
    # Per-rule phase statistics, straight from the instrumented run.
    for rule in program.rules:
        applications = metrics.value(M_RULE_APPLICATIONS, rule=rule.name)
        if not applications:
            continue
        record = trace.rule(rule.name)
        record.applications = int(applications)
        record.matched = int(metrics.value(M_RULE_MATCHED, rule=rule.name))
        record.after_calls = int(metrics.value(M_RULE_AFTER_CALLS, rule=rule.name))
        record.after_predicates = int(
            metrics.value(M_RULE_AFTER_PREDICATES, rule=rule.name)
        )
    # attribute outputs to the rules that own their functors
    by_functor: Dict[str, List[str]] = {}
    for rule in program.rules:
        if rule.head_functor:
            by_functor.setdefault(rule.head_functor, []).append(rule.name)
    for identifier in result.store.names():
        functor = result.skolems.functor_of(identifier)
        owners = by_functor.get(functor, [])
        if len(owners) == 1:
            trace.rule(owners[0]).outputs.append(identifier)
        else:
            for owner in owners:
                trace.rule(owner)  # ensure presence; ownership ambiguous
    return trace
