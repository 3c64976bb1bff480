"""Conversion-quality observatory: is the mediator still *right*?

The rest of :mod:`repro.obs` watches performance; this module watches
correctness — the axis the paper says mediators stand or fall on. Four
legs:

* **Coverage** — :func:`quality_report` joins a program's rule list
  with the run's per-rule interpreter counters and provenance into a
  :class:`QualityReport`: which rules fired, which never fired, which
  inputs only the fallback safety net caught, and which inputs no rule
  converted at all (``repro quality``).
* **Drift fingerprints** — :func:`fingerprint_store` reduces a wrapper
  forest to a structural :class:`ForestFingerprint` (interned label
  histogram, root-path signature set, depth/fanout/value-type stats);
  :func:`drift_score` compares two fingerprints into a normalized
  [0, 1] score. Every import wrapper stamps its forest through
  :func:`stamp_fingerprint`, which publishes the score as the
  ``repro.source_drift`` gauge (``repro_source_drift`` in Prometheus)
  so the PR-8 alert engine can fire threshold rules on schema drift
  with zero new alerting code, and :class:`~repro.obs.MetricsHistory`
  snapshots it like any other gauge.
* **Semantic diff** — :func:`semantic_diff` keys two conversion
  results on canonical Skolem terms (identifiers depend on allocation
  order, the terms behind them do not), classifies added / removed
  / changed outputs, and attributes each change to the rule and
  binding inputs that produced it via provenance back-chains
  (``repro diff``).
* **Shadow verification** — :func:`response_core` is the byte-level
  comparison primitive ``repro serve --shadow-sample N`` uses to
  re-verify cached responses against a fresh conversion (see
  :mod:`repro.serve.server`).
"""

from __future__ import annotations

import json
import threading
import weakref
from collections import Counter as TallyCounter
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.labels import Symbol
from ..core.trees import Ref, Tree
from .metrics import MetricsRegistry, ambient_registry

#: The schema-drift gauge. Prometheus exposition rewrites dots to
#: underscores, so alert rules and scrapes see ``repro_source_drift``.
DRIFT_GAUGE = "repro.source_drift"

#: Root-path signatures stop extending past this depth: fingerprints
#: must stay small on deep forests (deeper structure still shows up in
#: the depth and fanout statistics).
PATH_DEPTH_CAP = 6

#: Component weights of :func:`drift_score` (sum to 1.0).
_DRIFT_WEIGHTS = {
    "labels": 0.3,
    "paths": 0.3,
    "value_types": 0.2,
    "depth": 0.1,
    "fanout": 0.1,
}


# ---------------------------------------------------------------------------
# Source drift fingerprints
# ---------------------------------------------------------------------------


class ForestFingerprint:
    """A structural summary of a wrapper forest.

    Two forests with the same shape (same interned label histogram,
    same root-path signatures, same depth/fanout/value-type profile)
    fingerprint identically regardless of the atomic *values* they
    carry — exactly the invariance a schema-drift detector wants: data
    churns every run, shape drift means the source changed under the
    rules.
    """

    __slots__ = (
        "trees", "nodes", "refs", "max_depth", "mean_fanout",
        "labels", "value_types", "paths",
    )

    def __init__(
        self,
        trees: int,
        nodes: int,
        refs: int,
        max_depth: int,
        mean_fanout: float,
        labels: Dict[str, int],
        value_types: Dict[str, int],
        paths: frozenset,
    ) -> None:
        self.trees = trees
        self.nodes = nodes
        self.refs = refs
        self.max_depth = max_depth
        self.mean_fanout = mean_fanout
        self.labels = dict(labels)
        self.value_types = dict(value_types)
        self.paths = frozenset(paths)

    def to_json(self) -> Dict[str, object]:
        return {
            "trees": self.trees,
            "nodes": self.nodes,
            "refs": self.refs,
            "max_depth": self.max_depth,
            "mean_fanout": round(self.mean_fanout, 4),
            "labels": dict(sorted(self.labels.items())),
            "value_types": dict(sorted(self.value_types.items())),
            "paths": sorted(self.paths),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "ForestFingerprint":
        return cls(
            trees=int(payload["trees"]),
            nodes=int(payload["nodes"]),
            refs=int(payload["refs"]),
            max_depth=int(payload["max_depth"]),
            mean_fanout=float(payload["mean_fanout"]),
            labels={str(k): int(v) for k, v in payload["labels"].items()},
            value_types={
                str(k): int(v) for k, v in payload["value_types"].items()
            },
            paths=frozenset(str(p) for p in payload["paths"]),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ForestFingerprint)
            and other.trees == self.trees
            and other.nodes == self.nodes
            and other.refs == self.refs
            and other.max_depth == self.max_depth
            and abs(other.mean_fanout - self.mean_fanout) < 1e-9
            and other.labels == self.labels
            and other.value_types == self.value_types
            and other.paths == self.paths
        )

    def __repr__(self) -> str:
        return (
            f"ForestFingerprint({self.trees} tree(s), {self.nodes} node(s), "
            f"{len(self.labels)} label(s), depth {self.max_depth})"
        )


def _intern_label(label: object) -> Tuple[Optional[str], Optional[str]]:
    """``(symbol_name, value_type)`` — exactly one side is set."""
    if isinstance(label, Symbol):
        return label.name, None
    return None, type(label).__name__


def fingerprint_store(
    store: Iterable[Tuple[str, Tree]],
) -> ForestFingerprint:
    """Fingerprint a forest (a :class:`DataStore` or any iterable of
    ``(name, tree)`` pairs)."""
    labels: TallyCounter = TallyCounter()
    value_types: TallyCounter = TallyCounter()
    paths = set()
    trees = nodes = refs = 0
    max_depth = 0
    fanout_sum = 0
    internal = 0
    for _name, root in store:
        trees += 1
        # One explicit walk carrying (node, depth, symbol-path) — the
        # per-node work all the statistics need, in a single pass.
        stack: List[Tuple[object, int, Tuple[str, ...]]] = [(root, 1, ())]
        while stack:
            node, depth, path = stack.pop()
            if isinstance(node, Ref):
                refs += 1
                continue
            nodes += 1
            max_depth = max(max_depth, depth)
            symbol, value_type = _intern_label(node.label)
            if symbol is not None:
                labels[symbol] += 1
                if len(path) < PATH_DEPTH_CAP:
                    path = path + (symbol,)
                    paths.add("/".join(path))
            else:
                value_types[value_type] += 1
            if node.children:
                internal += 1
                fanout_sum += len(node.children)
                for child in node.children:
                    stack.append((child, depth + 1, path))
    return ForestFingerprint(
        trees=trees,
        nodes=nodes,
        refs=refs,
        max_depth=max_depth,
        mean_fanout=(fanout_sum / internal) if internal else 0.0,
        labels=dict(labels),
        value_types=dict(value_types),
        paths=frozenset(paths),
    )


def _histogram_distance(a: Dict[str, int], b: Dict[str, int]) -> float:
    """Bray-Curtis dissimilarity of two count histograms taken as
    proportions of their totals, in [0, 1]: a forest that only grows
    or shrinks keeps its proportions, so payload size is not drift."""
    total_a, total_b = sum(a.values()), sum(b.values())
    if not total_a or not total_b:
        return float(total_a != total_b)
    # Cross-multiplied so equal proportions compare exactly.
    shared = sum(
        min(count * total_b, b.get(key, 0) * total_a)
        for key, count in a.items()
    )
    return 1.0 - shared / (total_a * total_b)

def _set_distance(a: frozenset, b: frozenset) -> float:
    """Jaccard distance of two signature sets, in [0, 1]."""
    union = a | b
    if not union:
        return 0.0
    return 1.0 - len(a & b) / len(union)


def _relative_distance(a: float, b: float) -> float:
    top = max(abs(a), abs(b))
    if top <= 0:
        return 0.0
    return abs(a - b) / top


def drift_score(
    before: ForestFingerprint, after: ForestFingerprint
) -> float:
    """Normalized structural drift between two fingerprints.

    0.0 means structurally identical; 1.0 means nothing in common. A
    weighted mean of label-histogram, path-set, value-type, depth and
    fanout distances — any single structural change (a label rename, a
    dropped column, a depth change) moves the score strictly above 0.
    """
    components = drift_components(before, after)
    return sum(
        _DRIFT_WEIGHTS[name] * value for name, value in components.items()
    )


def drift_components(
    before: ForestFingerprint, after: ForestFingerprint
) -> Dict[str, float]:
    """The per-axis distances :func:`drift_score` weighs (each [0, 1])."""
    return {
        "labels": _histogram_distance(before.labels, after.labels),
        "paths": _set_distance(before.paths, after.paths),
        "value_types": _histogram_distance(
            before.value_types, after.value_types
        ),
        "depth": _relative_distance(before.max_depth, after.max_depth),
        "fanout": _relative_distance(before.mean_fanout, after.mean_fanout),
    }


class FingerprintTracker:
    """Latest fingerprint per source, with drift against the previous.

    One tracker rides each :class:`MetricsRegistry` (see
    :func:`stamp_fingerprint`): a one-shot CLI run compares nothing —
    drift is 0.0 on first observation — while a long-lived daemon's
    shared registry compares every import against the previous request
    from the same source.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest: Dict[str, ForestFingerprint] = {}

    def observe(self, source: str, fingerprint: ForestFingerprint) -> float:
        """Record *fingerprint* for *source*; returns the drift score
        against the previously observed fingerprint (0.0 on first)."""
        with self._lock:
            previous = self._latest.get(source)
            self._latest[source] = fingerprint
        if previous is None:
            return 0.0
        return drift_score(previous, fingerprint)

    def latest(self, source: str) -> Optional[ForestFingerprint]:
        with self._lock:
            return self._latest.get(source)

    def sources(self) -> List[str]:
        with self._lock:
            return sorted(self._latest)


_tracker_lock = threading.Lock()
_trackers: "weakref.WeakKeyDictionary[MetricsRegistry, FingerprintTracker]" \
    = weakref.WeakKeyDictionary()


def tracker_for(registry: MetricsRegistry) -> FingerprintTracker:
    """The fingerprint tracker riding *registry* (created on demand)."""
    with _tracker_lock:
        tracker = _trackers.get(registry)
        if tracker is None:
            tracker = FingerprintTracker()
            _trackers[registry] = tracker
        return tracker


def stamp_fingerprint(
    store: Iterable[Tuple[str, Tree]], source: str
) -> Optional[ForestFingerprint]:
    """Fingerprint a wrapper forest into the ambient registry.

    Publishes the ``repro.source_drift`` gauge (score against the
    previous forest this registry saw from *source*) plus the
    fingerprint's headline stats as gauges. A no-op without an ambient
    registry — same contract as :func:`repro.obs.record`. Returns the
    fingerprint (or None when not collecting).
    """
    registry = ambient_registry()
    if registry is None:
        return None
    fingerprint = fingerprint_store(store)
    drift = tracker_for(registry).observe(source, fingerprint)
    registry.gauge(
        DRIFT_GAUGE,
        "structural drift of a source forest vs its previous import (0-1)",
    ).set(drift, source=source)
    shape = registry.gauge(
        "wrapper.fingerprint.nodes", "nodes in the last imported forest"
    )
    shape.set(fingerprint.nodes, source=source)
    registry.gauge(
        "wrapper.fingerprint.labels",
        "distinct interned labels in the last imported forest",
    ).set(len(fingerprint.labels), source=source)
    registry.gauge(
        "wrapper.fingerprint.depth", "max depth of the last imported forest"
    ).set(fingerprint.max_depth, source=source)
    return fingerprint


def drift_snapshot(registry: MetricsRegistry) -> Dict[str, object]:
    """The per-source drift block ``GET /quality`` serves: the latest
    drift score and fingerprint headline per stamped source."""
    tracker = tracker_for(registry)
    gauge = registry.get(DRIFT_GAUGE)
    scores: Dict[str, float] = {}
    if gauge is not None:
        for labels, value in gauge.samples():
            scores[labels.get("source", "?")] = value
    sources: Dict[str, object] = {}
    for source in tracker.sources():
        fingerprint = tracker.latest(source)
        sources[source] = {
            "drift": scores.get(source, 0.0),
            "trees": fingerprint.trees,
            "nodes": fingerprint.nodes,
            "labels": len(fingerprint.labels),
            "max_depth": fingerprint.max_depth,
        }
    return sources


# ---------------------------------------------------------------------------
# Coverage: the QualityReport
# ---------------------------------------------------------------------------

#: Rule coverage classes (the report's vocabulary).
FIRED = "fired"
NEVER_FIRED = "never-fired"
FALLBACK_ONLY = "fallback-only"


class QualityReport:
    """Per-run rule coverage + unconverted-input accounting.

    Assembled by :func:`quality_report` from what the run already
    recorded — the interpreter's per-rule counters, the result's
    unconverted list, and (when present) provenance — no re-execution.
    """

    def __init__(
        self,
        program: str,
        rules: "List[Dict[str, object]]",
        inputs: Dict[str, object],
        outputs: Dict[str, object],
        warnings: int,
    ) -> None:
        self.program = program
        self.rules = rules
        self.inputs = inputs
        self.outputs = outputs
        self.warnings = warnings

    # -- views ---------------------------------------------------------------

    def rules_with_status(self, status: str) -> List[str]:
        return [
            str(rule["name"]) for rule in self.rules if rule["status"] == status
        ]

    @property
    def never_fired(self) -> List[str]:
        return self.rules_with_status(NEVER_FIRED)

    @property
    def fallback_only(self) -> List[str]:
        return self.rules_with_status(FALLBACK_ONLY)

    def to_json(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "rules": self.rules,
            "coverage": {
                FIRED: self.rules_with_status(FIRED),
                NEVER_FIRED: self.never_fired,
                FALLBACK_ONLY: self.fallback_only,
            },
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
            "warnings": self.warnings,
        }

    def render_text(self) -> str:
        fired = self.rules_with_status(FIRED)
        lines = [
            f"quality report — program {self.program}",
            f"rules: {len(self.rules)} total — {len(fired)} fired, "
            f"{len(self.never_fired)} never fired, "
            f"{len(self.fallback_only)} fallback-only",
        ]
        status_tag = {
            FIRED: "FIRED",
            NEVER_FIRED: "NEVER-FIRED",
            FALLBACK_ONLY: "FALLBACK-ONLY",
        }
        for rule in self.rules:
            tag = status_tag[str(rule["status"])]
            detail = ""
            if rule["status"] != NEVER_FIRED:
                share = float(rule["input_share"]) * 100
                detail = (
                    f"  bindings {int(rule['bindings_matched'])}"
                    f"  outputs {int(rule['outputs'])}"
                    f"  input share {share:.0f}%"
                )
            lines.append(f"  {tag:<13} {rule['name']}{detail}")
        total = int(self.inputs["total"])
        unconverted = int(self.inputs["unconverted"])
        lines.append(
            f"inputs: {total} total — {int(self.inputs['converted'])} "
            f"converted, {unconverted} unconverted"
        )
        roots: Dict[str, int] = self.inputs.get("unconverted_roots", {})
        if roots:
            rendered = ", ".join(
                f"{label} ×{count}" for label, count in sorted(roots.items())
            )
            lines.append(f"  unconverted roots: {rendered}")
        lines.append(
            f"outputs: {int(self.outputs['trees'])} tree(s), "
            f"{self.warnings} warning(s)"
        )
        return "\n".join(lines) + "\n"


def _rule_counter_values(
    registry: MetricsRegistry, name: str
) -> Dict[str, float]:
    """``{rule_name: value}`` for one per-rule labeled counter."""
    metric = registry.get(name)
    values: Dict[str, float] = {}
    if metric is None:
        return values
    for labels, value in metric.samples():
        rule = labels.get("rule")
        if rule is not None:
            values[rule] = values.get(rule, 0.0) + value
    return values


def quality_report(program, result) -> QualityReport:
    """Build the :class:`QualityReport` for one finished run.

    *program* is the :class:`~repro.yatl.program.Program` that ran
    (the rule roster — counters alone cannot name a rule that never
    fired); *result* the :class:`ConversionResult` it produced.
    """
    # Import here: repro.obs must stay importable without the yatl
    # package loaded (the interpreter imports obs, not vice versa).
    from ..yatl.interpreter import (
        M_INPUT_CONVERTED,
        M_INPUT_TREES,
        M_INPUT_UNCONVERTED,
        M_RULE_APPLICATIONS,
        M_RULE_MATCHED,
        M_RULE_OUTPUTS,
    )

    registry = result.metrics
    applications = _rule_counter_values(registry, M_RULE_APPLICATIONS)
    matched = _rule_counter_values(registry, M_RULE_MATCHED)
    outputs = _rule_counter_values(registry, M_RULE_OUTPUTS)
    # Input share: the fraction of stamped source inputs each rule's
    # provenance records actually consumed; falls back to the rule's
    # share of matched bindings when no detailed records were kept.
    sources = result.provenance.sources()
    consumed: Dict[str, set] = {}
    for record in result.provenance.records():
        inputs_seen = consumed.setdefault(record.rule, set())
        for input_id in record.inputs:
            # Restrict to stamped source inputs when a wrapper stamped
            # any; a bare program.run has no stamps, so every record
            # input counts as a consumed source.
            if not sources or input_id in sources:
                inputs_seen.add(input_id)
    total_inputs = registry.value(M_INPUT_TREES)
    total_matched = sum(matched.values())
    rules: List[Dict[str, object]] = []
    for rule in program.rules:
        rule_matched = matched.get(rule.name, 0.0)
        if rule_matched <= 0:
            status = NEVER_FIRED
        elif rule.is_fallback:
            status = FALLBACK_ONLY
        else:
            status = FIRED
        if rule.name in consumed and total_inputs:
            share = len(consumed[rule.name]) / total_inputs
        elif total_matched:
            share = rule_matched / total_matched
        else:
            share = 0.0
        rules.append({
            "name": rule.name,
            "fallback": rule.is_fallback,
            "status": status,
            "applications": applications.get(rule.name, 0.0),
            "bindings_matched": rule_matched,
            "outputs": outputs.get(rule.name, 0.0),
            "input_share": round(share, 4),
        })
    unconverted_roots: TallyCounter = TallyCounter()
    for node in result.unconverted:
        symbol, value_type = _intern_label(node.label)
        unconverted_roots[symbol if symbol is not None else value_type] += 1
    return QualityReport(
        program=program.name,
        rules=rules,
        inputs={
            "total": total_inputs,
            "converted": registry.value(M_INPUT_CONVERTED),
            "unconverted": registry.value(M_INPUT_UNCONVERTED),
            "unconverted_roots": dict(unconverted_roots),
        },
        outputs={"trees": len(result.store)},
        warnings=len(result.warnings),
    )


# ---------------------------------------------------------------------------
# Semantic diff on canonical Skolem terms
# ---------------------------------------------------------------------------


def canonical_term(skolems, identifier: str, _seen: frozenset = frozenset()) -> str:
    """The run-independent identity of an output node.

    Generated identifiers (``s1``, ``c2``) depend on allocation order;
    the *(functor, args)* Skolem term behind them does not. Arguments
    that are references to other Skolem-generated nodes expand
    recursively (with a cycle guard), so the rendering is stable across
    runs even when numbering shifts."""
    try:
        functor, args = skolems.key_of(identifier)
    except KeyError:
        # Not Skolem-generated (e.g. a merge-renamed alias): the name
        # itself is the best identity available.
        return identifier
    if identifier in _seen:
        return f"{functor}(...)"
    seen = _seen | {identifier}
    rendered = ", ".join(_canonical_arg(skolems, arg, seen) for arg in args)
    return f"{functor}({rendered})"


def _canonical_arg(skolems, value, seen: frozenset) -> str:
    if isinstance(value, Ref):
        return "&" + canonical_term(skolems, value.target, seen)
    if isinstance(value, Tree):
        return str(
            value.map_refs(
                lambda ref: Ref(canonical_term(skolems, ref.target, seen))
            )
        ).replace("\n", " ")
    return repr(value)


def _canonical_tree(result, node: Tree) -> Tree:
    """*node* with every reference leaf rewritten to the canonical term
    of its target — the comparable form of an output tree."""
    return node.map_refs(
        lambda ref: Ref(canonical_term(result.skolems, ref.target))
    )


def _attribution(result, identifier: str) -> Dict[str, object]:
    """Why this node exists: its rule, binding inputs, and the stamped
    sources of its origin inputs (empty blocks without provenance)."""
    provenance = result.provenance
    records = provenance.records_of(identifier)
    origins = sorted(provenance.origins_of(identifier))
    entry: Dict[str, object] = {
        "origins": {
            origin: provenance.source_of(origin) for origin in origins
        },
    }
    if records:
        first = records[0]
        entry["rule"] = first.rule
        entry["inputs"] = list(first.inputs)
        chain = [
            {
                "output": record.output,
                "rule": record.rule,
                "inputs": list(record.inputs),
            }
            for record in provenance.backward(identifier)[:8]
        ]
        if len(chain) > 1:
            entry["chain"] = chain
    return entry


def semantic_diff(result_a, result_b) -> Dict[str, object]:
    """Diff two conversion results on canonical Skolem terms.

    Returns a JSON-ready document: ``added`` (terms only in *b*),
    ``removed`` (only in *a*), ``changed`` (same term, different
    value tree after reference canonicalization), each entry carrying
    the rule/binding-input attribution from provenance.
    """
    keys_a = {
        canonical_term(result_a.skolems, name): name
        for name in result_a.store.names()
    }
    keys_b = {
        canonical_term(result_b.skolems, name): name
        for name in result_b.store.names()
    }
    added: List[Dict[str, object]] = []
    removed: List[Dict[str, object]] = []
    changed: List[Dict[str, object]] = []
    unchanged = 0
    for term in sorted(set(keys_a) - set(keys_b)):
        identifier = keys_a[term]
        removed.append({
            "term": term,
            "id": identifier,
            "attribution": _attribution(result_a, identifier),
        })
    for term in sorted(set(keys_b) - set(keys_a)):
        identifier = keys_b[term]
        added.append({
            "term": term,
            "id": identifier,
            "attribution": _attribution(result_b, identifier),
        })
    for term in sorted(set(keys_a) & set(keys_b)):
        id_a, id_b = keys_a[term], keys_b[term]
        tree_a = _canonical_tree(result_a, result_a.store.get(id_a))
        tree_b = _canonical_tree(result_b, result_b.store.get(id_b))
        if tree_a == tree_b:
            unchanged += 1
            continue
        changed.append({
            "term": term,
            "id_a": id_a,
            "id_b": id_b,
            "attribution": _attribution(result_b, id_b),
        })
    return {
        "summary": {
            "added": len(added),
            "removed": len(removed),
            "changed": len(changed),
            "unchanged": unchanged,
        },
        "added": added,
        "removed": removed,
        "changed": changed,
    }


def render_diff_text(diff: Dict[str, object]) -> str:
    """The human-facing ``repro diff`` report."""
    summary = diff["summary"]
    lines = [
        f"semantic diff — {summary['added']} added, "
        f"{summary['removed']} removed, {summary['changed']} changed, "
        f"{summary['unchanged']} unchanged",
    ]

    def describe(entry: Dict[str, object]) -> str:
        attribution = entry.get("attribution", {})
        rule = attribution.get("rule")
        via = f"  (rule {rule}" if rule else ""
        inputs = attribution.get("inputs")
        if rule and inputs:
            via += f" <- {', '.join(inputs)}"
        if via:
            via += ")"
        return via

    for tag, key in (("+", "added"), ("-", "removed"), ("~", "changed")):
        for entry in diff[key]:
            lines.append(f"  {tag} {entry['term']}{describe(entry)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shadow verification primitive
# ---------------------------------------------------------------------------

#: Per-request fields a response comparison must ignore: they are
#: stamped per request (trace ids, timing) or per cache path.
RESPONSE_VOLATILE_FIELDS = ("trace_id", "latency_ms", "cache_hit")


def response_core(payload: Dict[str, object]) -> str:
    """A serve response reduced to its deterministic core: the payload
    minus per-request volatile fields, canonically serialized. Two
    requests for the same conversion must have byte-identical cores —
    the invariant shadow verification enforces on sampled cache hits."""
    core = {
        key: value
        for key, value in payload.items()
        if key not in RESPONSE_VOLATILE_FIELDS
    }
    return json.dumps(core, sort_keys=True, default=str)
