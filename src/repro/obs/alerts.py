"""Declarative alerting with SLO semantics: rules, burn rates, verdicts.

Every surface built so far *displays* telemetry; nothing *judges* it —
"is the server healthy?" still means a human eyeballing ``repro top``.
This module turns the telemetry into a control signal. Rules are plain
data (loadable from a TOML or JSON file via ``repro serve --alerts
rules.toml``) of two kinds:

* :class:`ThresholdRule` — a comparison over any registry scalar or
  histogram percentile: ``serve.latency_ms p99 > 250 for 30s``. The
  value comes from the most recent :class:`~repro.obs.history.
  MetricsHistory` tick (scalars) or the live registry (percentiles);
  ``stat = "rate"`` compares the per-second delta between the last two
  ticks.

* :class:`BurnRateRule` — a Google-SRE-style error-budget burn rule:
  an objective like "99% of requests succeed", a long window and a
  short confirmation window, and a maximum burn rate. The error rate
  over each window is the delta of ``bad_metric`` over the delta of
  ``total_metric`` between history ticks; dividing by the budget
  (``1 - objective``) gives the burn rate. The rule is breached only
  when *both* windows exceed ``max_burn_rate`` — the long window
  catches sustained burn, the short window confirms it is still
  happening (no alert on a long-resolved spike).

An :class:`AlertEvaluator` subscribes to a :class:`MetricsHistory`
(so it runs on the existing ``HistorySampler`` cadence inside the
serve daemon — and on *synthetic* ticks in tests, no wall clock
required) and drives each rule through a ``ok -> pending -> firing ->
resolved(ok)`` state machine with ``for``-duration hysteresis. Every
transition is emitted as a structured event (``alert.pending`` /
``alert.firing`` / ``alert.resolved``) through
:class:`~repro.obs.events.EventLog` and mirrored into the registry as
the ``repro.alert.state`` gauge family (0 ok, 1 pending, 2 firing) so
``/metrics`` scrapes alert state like any other series.

The clock is the *tick's* ``ts``, never ``time.time()`` read here:
evaluation over a replayed or synthetic tick stream is deterministic.
"""

from __future__ import annotations

import json
import operator
import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import YatError
from .events import EventLog
from .history import MetricsHistory
from .metrics import Histogram, MetricsRegistry, _estimate_quantile

#: Gauge values for the ``repro.alert.state`` family.
STATE_VALUES = {"ok": 0, "pending": 1, "firing": 2}

#: Comparison operators a threshold rule may use.
OPERATORS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}

_DURATION_SUFFIXES = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


class AlertRuleError(YatError):
    """A rule file or rule specification is malformed."""


def parse_duration(value: object) -> float:
    """A duration in seconds from ``30``, ``"30s"``, ``"5m"``, ``"1h"``,
    ``"250ms"`` — the spelling alert-rule files use."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        duration = float(value)
    elif isinstance(value, str):
        text = value.strip()
        for suffix, scale in sorted(
            _DURATION_SUFFIXES.items(), key=lambda kv: -len(kv[0])
        ):
            if text.endswith(suffix):
                number = text[: -len(suffix)].strip()
                break
        else:
            number, scale = text, 1.0
        try:
            duration = float(number) * scale
        except ValueError:
            raise AlertRuleError(f"unparseable duration {value!r}") from None
    else:
        raise AlertRuleError(f"unparseable duration {value!r}")
    if duration < 0:
        raise AlertRuleError(f"duration must be >= 0, got {value!r}")
    return duration


def _histogram_percentile(
    metric: Histogram, quantile: float, labels: Dict[str, str]
) -> Optional[float]:
    """A percentile over every label series matching the rule's label
    filter, merged. ``serve.latency_ms`` keeps one series per program;
    a rule with no labels means "across all programs", and a partial
    label set matches every series that carries those labels."""
    matching = [
        key for key in metric.label_keys()
        if all(key.get(name) == value for name, value in labels.items())
    ]
    if not matching:
        return None
    if len(matching) == 1:
        return metric.percentile(quantile, **matching[0])
    merged = [0.0] * (len(metric.buckets) + 2)
    for key in matching:
        stats = metric.stats(**key)
        previous = 0.0
        for index, bound in enumerate(metric.buckets):
            cumulative = stats["buckets"].get(bound, previous)  # type: ignore[union-attr]
            merged[index] += cumulative - previous
            previous = cumulative
        merged[-2] += float(stats["sum"])  # type: ignore[arg-type]
        merged[-1] += float(stats["count"])  # type: ignore[arg-type]
    return _estimate_quantile(metric.buckets, merged, quantile)


def _scalar_from_entry(entry: Optional[Dict[str, object]], stat: str):
    """A history-tick metric entry's scalar for ``stat`` (``total`` of
    a scalar metric falls back to a histogram's ``count``)."""
    if entry is None:
        return None
    if stat == "total":
        value = entry.get("total", entry.get("count"))
    else:
        value = entry.get(stat)
    return float(value) if value is not None else None


class ThresholdRule:
    """``<metric> [stat] <op> <value> [for <duration>]`` as data."""

    kind = "threshold"

    def __init__(
        self,
        name: str,
        metric: str,
        op: str,
        value: float,
        stat: str = "total",
        labels: Optional[Dict[str, str]] = None,
        for_s: float = 0.0,
        severity: str = "warn",
    ) -> None:
        if not name:
            raise AlertRuleError("threshold rule needs a name")
        if op not in OPERATORS:
            raise AlertRuleError(
                f"rule {name!r}: unknown operator {op!r} "
                f"(one of {', '.join(OPERATORS)})"
            )
        if not (
            stat in ("total", "count", "sum", "rate")
            or (stat.startswith("p") and stat[1:].isdigit())
        ):
            raise AlertRuleError(
                f"rule {name!r}: unknown stat {stat!r} (total, count, sum, "
                f"rate, or a percentile like p99)"
            )
        self.name = name
        self.metric = metric
        self.op = op
        self.value = float(value)
        self.stat = stat
        self.labels = dict(labels or {})
        self.for_s = float(for_s)
        self.severity = severity

    def current_value(
        self,
        sample: Dict[str, object],
        previous: Optional[Dict[str, object]],
        registry: MetricsRegistry,
    ) -> Optional[float]:
        """The rule's observed value at one tick (None = no data)."""
        if self.stat.startswith("p") and self.stat != "rate":
            metric = registry.get(self.metric)
            if not isinstance(metric, Histogram):
                return None
            quantile = int(self.stat[1:]) / 100.0
            return _histogram_percentile(metric, quantile, self.labels)
        entry = sample.get("metrics", {}).get(self.metric)  # type: ignore[union-attr]
        if self.stat == "rate":
            if previous is None:
                return None
            before = _scalar_from_entry(
                previous.get("metrics", {}).get(self.metric), "total"  # type: ignore[union-attr]
            )
            now = _scalar_from_entry(entry, "total")
            if before is None or now is None:
                return None
            dt = max(float(sample["ts"]) - float(previous["ts"]), 1e-9)
            return max(0.0, now - before) / dt
        return _scalar_from_entry(entry, self.stat)

    def breached(self, value: Optional[float]) -> bool:
        return value is not None and OPERATORS[self.op](value, self.value)

    def describe(self) -> str:
        stat = f" {self.stat}" if self.stat != "total" else ""
        hold = f" for {self.for_s:g}s" if self.for_s else ""
        return f"{self.metric}{stat} {self.op} {self.value:g}{hold}"

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "value": self.value,
            "labels": dict(self.labels),
            "for_s": self.for_s,
            "severity": self.severity,
            "expr": self.describe(),
        }


class BurnRateRule:
    """Multi-window error-budget burn: the SLO rule kind.

    ``objective = 0.99`` over ``window_s`` means an error budget of 1%;
    a burn rate of 1.0 spends exactly the budget over the window, 14.4
    spends it in 1/14.4 of the window (the classic "page now" fast-burn
    threshold for a 30-day SLO's 1-hour window).
    """

    kind = "burn_rate"

    def __init__(
        self,
        name: str,
        objective: float,
        window_s: float = 3600.0,
        short_window_s: Optional[float] = None,
        max_burn_rate: float = 14.4,
        total_metric: str = "serve.requests",
        bad_metric: str = "serve.errors",
        for_s: float = 0.0,
        severity: str = "page",
    ) -> None:
        if not name:
            raise AlertRuleError("burn-rate rule needs a name")
        if not 0.0 < objective < 1.0:
            raise AlertRuleError(
                f"rule {name!r}: objective must be in (0, 1), got {objective}"
            )
        if window_s <= 0:
            raise AlertRuleError(f"rule {name!r}: window must be > 0")
        if max_burn_rate <= 0:
            raise AlertRuleError(f"rule {name!r}: max_burn_rate must be > 0")
        self.name = name
        self.objective = float(objective)
        self.window_s = float(window_s)
        # The confirmation window: 1/12 of the long window is the
        # Google SRE workbook ratio (1h -> 5m).
        self.short_window_s = (
            float(short_window_s) if short_window_s is not None
            else self.window_s / 12.0
        )
        if self.short_window_s <= 0 or self.short_window_s > self.window_s:
            raise AlertRuleError(
                f"rule {name!r}: short window must be in (0, window]"
            )
        self.max_burn_rate = float(max_burn_rate)
        self.total_metric = total_metric
        self.bad_metric = bad_metric
        self.for_s = float(for_s)
        self.severity = severity

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def _window_burn(
        self, samples: Sequence[Dict[str, object]], now: float, window_s: float
    ) -> Optional[float]:
        """The burn rate over one lookback window of history ticks.

        The baseline is the newest sample at or before the window
        start; when the ring does not reach back that far the oldest
        sample serves (partial coverage reads conservatively — a young
        server alerts on what it has seen). None with fewer than two
        ticks: a burn rate needs a delta.
        """
        if len(samples) < 2:
            return None
        start_ts = now - window_s
        baseline = samples[0]
        for sample in samples:
            if float(sample["ts"]) <= start_ts:
                baseline = sample
            else:
                break
        latest = samples[-1]
        if baseline is latest:
            return None
        total = self._delta(baseline, latest, self.total_metric)
        if total is None or total <= 0:
            return 0.0  # no traffic burns no budget
        bad = self._delta(baseline, latest, self.bad_metric) or 0.0
        error_rate = min(1.0, max(0.0, bad) / total)
        return error_rate / self.budget

    @staticmethod
    def _delta(before, after, name: str) -> Optional[float]:
        first = _scalar_from_entry(before.get("metrics", {}).get(name), "total")
        last = _scalar_from_entry(after.get("metrics", {}).get(name), "total")
        if last is None:
            return None
        return last - (first or 0.0)

    def burn_rates(
        self, samples: Sequence[Dict[str, object]], now: float
    ) -> Tuple[Optional[float], Optional[float]]:
        """``(long_window_burn, short_window_burn)`` at one tick."""
        return (
            self._window_burn(samples, now, self.window_s),
            self._window_burn(samples, now, self.short_window_s),
        )

    def breached(self, burns: Tuple[Optional[float], Optional[float]]) -> bool:
        long_burn, short_burn = burns
        return (
            long_burn is not None
            and short_burn is not None
            and long_burn >= self.max_burn_rate
            and short_burn >= self.max_burn_rate
        )

    def describe(self) -> str:
        return (
            f"{self.objective * 100:g}% of {self.total_metric} good over "
            f"{self.window_s:g}s (burn >= {self.max_burn_rate:g} on "
            f"{self.window_s:g}s and {self.short_window_s:g}s windows)"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "objective": self.objective,
            "window_s": self.window_s,
            "short_window_s": self.short_window_s,
            "max_burn_rate": self.max_burn_rate,
            "total_metric": self.total_metric,
            "bad_metric": self.bad_metric,
            "for_s": self.for_s,
            "severity": self.severity,
            "expr": self.describe(),
        }


AlertRule = ThresholdRule  # legacy alias for the common kind


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------


def parse_rule(spec: Dict[str, object]) -> object:
    """One rule mapping (a ``[[rule]]`` table) into a rule object."""
    if not isinstance(spec, dict):
        raise AlertRuleError(f"rule spec must be a table, got {spec!r}")
    kind = spec.get("type")
    if kind is None:
        kind = "burn_rate" if "objective" in spec else "threshold"
    name = str(spec.get("name", ""))
    if kind == "threshold":
        known = {"name", "type", "metric", "stat", "op", "value", "labels",
                 "for", "severity"}
        _reject_unknown(name, spec, known)
        if "metric" not in spec or "value" not in spec:
            raise AlertRuleError(
                f"threshold rule {name!r} needs 'metric' and 'value'"
            )
        return ThresholdRule(
            name=name,
            metric=str(spec["metric"]),
            op=str(spec.get("op", ">")),
            value=_number(name, spec["value"]),
            stat=str(spec.get("stat", "total")),
            labels={
                str(k): str(v)
                for k, v in (spec.get("labels") or {}).items()  # type: ignore[union-attr]
            },
            for_s=parse_duration(spec.get("for", 0)),
            severity=str(spec.get("severity", "warn")),
        )
    if kind in ("burn_rate", "slo"):
        known = {"name", "type", "objective", "window", "short_window",
                 "max_burn_rate", "total_metric", "bad_metric", "for",
                 "severity"}
        _reject_unknown(name, spec, known)
        if "objective" not in spec:
            raise AlertRuleError(f"burn-rate rule {name!r} needs 'objective'")
        return BurnRateRule(
            name=name,
            objective=_number(name, spec["objective"]),
            window_s=parse_duration(spec.get("window", 3600)),
            short_window_s=(
                parse_duration(spec["short_window"])
                if "short_window" in spec else None
            ),
            max_burn_rate=_number(name, spec.get("max_burn_rate", 14.4)),
            total_metric=str(spec.get("total_metric", "serve.requests")),
            bad_metric=str(spec.get("bad_metric", "serve.errors")),
            for_s=parse_duration(spec.get("for", 0)),
            severity=str(spec.get("severity", "page")),
        )
    raise AlertRuleError(
        f"rule {name!r}: unknown type {kind!r} (threshold or burn_rate)"
    )


def _number(name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise AlertRuleError(f"rule {name!r}: {value!r} is not a number")
    try:
        return float(value)
    except ValueError:
        raise AlertRuleError(f"rule {name!r}: {value!r} is not a number") from None


def _reject_unknown(name: str, spec: Dict[str, object], known: set) -> None:
    unknown = sorted(set(spec) - known)
    if unknown:
        raise AlertRuleError(
            f"rule {name!r}: unknown key(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )


def rules_from_data(data: object) -> List[object]:
    """Rules from a parsed document: ``{"rule": [...]}`` (the TOML
    array-of-tables shape) or a bare list of rule tables."""
    if isinstance(data, dict):
        specs = data.get("rule", data.get("rules", []))
    else:
        specs = data
    if not isinstance(specs, list):
        raise AlertRuleError(
            "rules document must hold a [[rule]] array of tables "
            "(or a JSON list)"
        )
    rules = [parse_rule(spec) for spec in specs]
    names = [rule.name for rule in rules]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise AlertRuleError(f"duplicate rule name(s): {', '.join(duplicates)}")
    return rules


def load_rules(path: str) -> List[object]:
    """Rules from a ``.toml`` or ``.json`` file (``repro serve
    --alerts``). TOML is parsed with :mod:`tomllib` where available
    (3.11+) and a small built-in subset parser otherwise, so rule files
    work on every supported interpreter without new dependencies."""
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise AlertRuleError(f"{path}: invalid JSON ({exc})") from None
    else:
        data = _parse_toml(path, text)
    try:
        return rules_from_data(data)
    except AlertRuleError as exc:
        raise AlertRuleError(f"{path}: {exc}") from None


def _parse_toml(path: str, text: str) -> Dict[str, object]:
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        return _parse_simple_toml(path, text)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise AlertRuleError(f"{path}: invalid TOML ({exc})") from None


def _parse_simple_toml(path: str, text: str) -> Dict[str, object]:
    """The TOML subset alert-rule files need: ``[[rule]]`` array of
    tables, dotted-free ``key = value`` pairs (strings, numbers,
    booleans, inline ``{k = v}`` tables), and ``#`` comments."""
    root: Dict[str, object] = {}
    current: Dict[str, object] = root
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            table = line[2:-2].strip()
            current = {}
            root.setdefault(table, []).append(current)  # type: ignore[union-attr]
            continue
        if line.startswith("[") and line.endswith("]"):
            table = line[1:-1].strip()
            current = root.setdefault(table, {})  # type: ignore[assignment]
            continue
        if "=" not in line:
            raise AlertRuleError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, _, value = line.partition("=")
        current[key.strip()] = _toml_value(path, lineno, value.strip())
    return root


def _toml_value(path: str, lineno: int, token: str) -> object:
    if token.startswith('"') or token.startswith("'"):
        quote = token[0]
        end = token.find(quote, 1)
        if end < 0:
            raise AlertRuleError(f"{path}:{lineno}: unterminated string")
        return token[1:end]
    if token.startswith("{") and token.endswith("}"):
        table: Dict[str, object] = {}
        body = token[1:-1].strip()
        if body:
            for pair in body.split(","):
                key, _, value = pair.partition("=")
                table[key.strip()] = _toml_value(path, lineno, value.strip())
        return table
    token = token.split("#", 1)[0].strip()
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise AlertRuleError(
            f"{path}:{lineno}: unparseable value {token!r}"
        ) from None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class AlertState:
    """One rule's live state (owned by the evaluator's lock)."""

    __slots__ = ("state", "since", "fired_at", "resolved_at",
                 "last_value", "last_ts", "transitions")

    def __init__(self) -> None:
        self.state = "ok"
        self.since: Optional[float] = None  # condition first true
        self.fired_at: Optional[float] = None
        self.resolved_at: Optional[float] = None
        self.last_value: Optional[object] = None
        self.last_ts: Optional[float] = None
        self.transitions = 0

    def to_json(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "since": self.since,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "last_value": self.last_value,
            "last_ts": self.last_ts,
            "transitions": self.transitions,
        }


class AlertEvaluator:
    """Drives every rule once per history tick; owns the state machine.

    Install with :meth:`watch` (subscribes to the history's listener
    hook, so the serve daemon's ``HistorySampler`` cadence — or a
    test's synthetic ``history.sample(at=...)`` ticks — drives
    evaluation with no extra thread). Evaluation is bounded work over
    in-memory rings and must never block: shutdown takes one final
    tick through it while draining.
    """

    def __init__(
        self,
        rules: Sequence[object],
        history: MetricsHistory,
        registry: MetricsRegistry,
        events: Optional[EventLog] = None,
        transition_capacity: int = 256,
    ) -> None:
        names = [rule.name for rule in rules]
        if len(names) != len(set(names)):
            raise AlertRuleError("duplicate rule names")
        self.rules = list(rules)
        self.history = history
        self.registry = registry
        self.events = events
        self._lock = threading.Lock()
        self._states: Dict[str, AlertState] = {
            rule.name: AlertState() for rule in self.rules
        }
        self._transitions: Deque[Dict[str, object]] = deque(
            maxlen=transition_capacity
        )
        self._evaluations = 0
        self._previous_sample: Optional[Dict[str, object]] = None
        self._state_gauge = registry.gauge(
            "repro.alert.state",
            "alert rule state (0 ok, 1 pending, 2 firing)",
        )
        self._transition_counter = registry.counter(
            "repro.alert.transitions", "alert state transitions"
        )
        for rule in self.rules:
            self._state_gauge.set(0, rule=rule.name, severity=rule.severity)

    # -- wiring --------------------------------------------------------------

    def watch(self) -> "AlertEvaluator":
        """Subscribe to the history: every new tick evaluates."""
        self.history.add_listener(self.on_sample)
        return self

    def on_sample(self, sample: Dict[str, object]) -> None:
        self.evaluate(sample)

    # -- the state machine ---------------------------------------------------

    def evaluate(self, sample: Dict[str, object]) -> List[Dict[str, object]]:
        """One tick over every rule; returns the transitions it caused."""
        now = float(sample["ts"])
        samples = self.history.tail() if any(
            isinstance(rule, BurnRateRule) for rule in self.rules
        ) else []
        emitted: List[Dict[str, object]] = []
        with self._lock:
            self._evaluations += 1
            previous = self._previous_sample
            self._previous_sample = sample
            for rule in self.rules:
                if isinstance(rule, BurnRateRule):
                    burns = rule.burn_rates(samples, now)
                    breached = rule.breached(burns)
                    value: object = {
                        "burn_long": burns[0], "burn_short": burns[1],
                    }
                else:
                    observed = rule.current_value(
                        sample, previous, self.registry
                    )
                    breached = rule.breached(observed)
                    value = observed
                emitted.extend(
                    self._advance(rule, self._states[rule.name],
                                  breached, value, now)
                )
        for transition in emitted:
            if self.events is not None:
                self.events.emit(
                    f"alert.{transition['to']}",
                    **{k: v for k, v in transition.items() if k != "to"},
                )
        return emitted

    def _advance(
        self, rule, state: AlertState, breached: bool, value, now: float
    ) -> List[Dict[str, object]]:
        """Move one rule's state machine one tick (lock held)."""
        state.last_value = value
        state.last_ts = now
        transitions: List[Dict[str, object]] = []

        def transition(to: str, **extra: object) -> None:
            state.transitions += 1
            self._transition_counter.inc(rule=rule.name, to=to)
            self._state_gauge.set(
                STATE_VALUES["ok" if to == "resolved" else to],
                rule=rule.name, severity=rule.severity,
            )
            record = {
                "rule": rule.name,
                "severity": rule.severity,
                "to": to,
                "state": state.state,
                "ts": now,
                "value": value,
                "expr": rule.describe(),
            }
            record.update(extra)
            transitions.append(record)
            self._transitions.append(record)

        if breached:
            if state.state == "ok":
                state.state = "pending"
                state.since = now
                transition("pending")
            if state.state == "pending" and now - state.since >= rule.for_s:
                state.state = "firing"
                state.fired_at = now
                transition("firing", pending_s=round(now - state.since, 6))
        else:
            if state.state == "firing":
                state.state = "ok"
                state.resolved_at = now
                transition(
                    "resolved",
                    firing_s=round(now - (state.fired_at or now), 6),
                )
            elif state.state == "pending":
                # The condition cleared inside the hysteresis window:
                # silently rearm (a pending alert never paged anyone).
                state.state = "ok"
            state.since = None
        # keep record["state"] equal to the *post*-transition state
        for record in transitions:
            record["state"] = state.state
        return transitions

    # -- reading -------------------------------------------------------------

    def firing(self) -> List[str]:
        with self._lock:
            return sorted(
                name for name, state in self._states.items()
                if state.state == "firing"
            )

    def pending(self) -> List[str]:
        with self._lock:
            return sorted(
                name for name, state in self._states.items()
                if state.state == "pending"
            )

    @property
    def healthy(self) -> bool:
        return not self.firing()

    def state_of(self, name: str) -> str:
        with self._lock:
            return self._states[name].state

    def summary(self) -> Dict[str, object]:
        """The compact ``/stats`` block."""
        with self._lock:
            firing = sorted(n for n, s in self._states.items()
                            if s.state == "firing")
            pending = sorted(n for n, s in self._states.items()
                             if s.state == "pending")
            evaluations = self._evaluations
        return {
            "rules": len(self.rules),
            "firing": firing,
            "pending": pending,
            "healthy": not firing,
            "evaluations": evaluations,
        }

    def snapshot(self, transitions: int = 50) -> Dict[str, object]:
        """The full ``GET /alerts`` document."""
        with self._lock:
            states = {
                name: state.to_json() for name, state in self._states.items()
            }
            recent = (
                list(self._transitions)[-transitions:] if transitions > 0
                else []
            )
            evaluations = self._evaluations
        firing = sorted(n for n, s in states.items() if s["state"] == "firing")
        pending = sorted(n for n, s in states.items()
                         if s["state"] == "pending")
        return {
            "healthy": not firing,
            "summary": {
                "rules": len(self.rules),
                "firing": firing,
                "pending": pending,
                "healthy": not firing,
                "evaluations": evaluations,
            },
            "rules": [rule.to_json() for rule in self.rules],
            "states": states,
            "transitions": recent,
        }

    def __repr__(self) -> str:
        return (
            f"AlertEvaluator({len(self.rules)} rule(s), "
            f"{len(self.firing())} firing)"
        )
