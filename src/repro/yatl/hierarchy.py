"""Rule hierarchies (Section 4.2).

"YATL interpreter organizes the set of rules of a program
hierarchically. ... For a given input pattern, the more specific rules
(leaves in the hierarchy) matching the input are applied first. If
matching cannot be obtained, less specific rules in the hierarchy are
tried and so on.

Rule hierarchies are built by the YATL interpreter according to possible
rule conflicts. A conflict occurs only when: (i) there is a subtype
relationship between two rules input models ... and (ii) the skolem
functions used in these rules are the same."

The user may additionally *enforce* an order between two rules, which
the paper notes transgresses declarativity but is occasionally needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.models import Model
from ..core.patterns import Pattern
from ..errors import EvaluationError
from .ast import Rule


def rule_input_model(rule: Rule, name: Optional[str] = None) -> Model:
    """The input model of a rule: one pattern per body pattern, named by
    the body pattern's name variable (Section 3.5)."""
    model = Model(name or f"in({rule.name})")
    for bp in rule.body:
        if model.get_pattern(bp.name.name) is None:
            model.add(Pattern(bp.name.name, [bp.tree]))
        else:
            # Two body patterns sharing a name variable: merge alternatives.
            existing = model.get_pattern(bp.name.name)
            model._patterns[bp.name.name] = Pattern(  # noqa: SLF001 - internal merge
                bp.name.name, list(existing.alternatives) + [bp.tree]
            )
    return model


class Hierarchy:
    """The partial order "is more specific than" over a program's rules.

    ``specific_first()`` gives a topological evaluation order, and
    ``shadowed(rule, matched)`` tells whether a rule must be skipped for
    an input because a strictly more specific conflicting rule already
    matched it.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        model: Optional[Model] = None,
        enforced: Sequence[Tuple[str, str]] = (),
    ) -> None:
        self.rules = list(rules)
        self.model = model
        self._by_name = {rule.name: rule for rule in self.rules}
        # more_specific[a] = set of rule names strictly more general than a
        self._more_general: Dict[str, Set[str]] = {r.name: set() for r in self.rules}
        self._input_models: Dict[str, Model] = {}
        self._dispatch_index = None  # built on demand; rules are fixed
        self._build()
        for specific, general in enforced:
            if specific not in self._by_name or general not in self._by_name:
                raise EvaluationError(
                    f"enforced hierarchy mentions unknown rule(s): "
                    f"{specific!r} under {general!r}"
                )
            self._more_general[specific].add(general)

    # -- construction ---------------------------------------------------------

    def _input_model(self, rule: Rule) -> Model:
        """The *dispatch* input model: only the root body patterns — the
        inputs the rule ranges over. Dependent patterns (constraints on
        referenced data, like WebCar's incomplete Psup) do not make a
        rule more general for conflict purposes."""
        cached = self._input_models.get(rule.name)
        if cached is None:
            cached = Model(f"in({rule.name})")
            for bp in rule.root_body_patterns():
                if cached.get_pattern(bp.name.name) is None:
                    cached.add(Pattern(bp.name.name, [bp.tree]))
            self._input_models[rule.name] = cached
        return cached

    def _build(self) -> None:
        for a in self.rules:
            for b in self.rules:
                if a is b or not self._conflicting_functors(a, b):
                    continue
                model_a, model_b = self._input_model(a), self._input_model(b)
                a_under_b = self._inputs_under(model_a, model_b)
                b_under_a = self._inputs_under(model_b, model_a)
                if a_under_b and not b_under_a:
                    self._more_general[a.name].add(b.name)

    def _inputs_under(self, model_a: Model, model_b: Model) -> bool:
        """Is rule input model_a an instance of model_b? The program
        model only *resolves* pattern names (Ptype leaves); model_b's own
        patterns are the only instantiation targets."""
        from ..core.instantiation import InstantiationContext, is_instance

        ctx = InstantiationContext(
            source_model=self._widen(model_b),
            instance_model=self._widen(model_a),
        )
        targets = model_b.patterns()
        return all(
            any(is_instance(pattern, target, ctx) for target in targets)
            for pattern in model_a.patterns()
        )

    def _widen(self, model: Model) -> Model:
        """Resolve pattern names against the program model too, so that
        e.g. a ``Ptype`` leaf in a general rule is understood."""
        if self.model is None:
            return model
        merged = Model(f"{model.name}+ctx")
        for pattern in model.patterns():
            merged.add(pattern)
        for pattern in self.model.patterns():
            if merged.get_pattern(pattern.name) is None:
                merged.add(pattern)
        return merged

    @staticmethod
    def _conflicting_functors(a: Rule, b: Rule) -> bool:
        """Condition (ii): the rules code for the same Skolem functor."""
        if a.head is None or b.head is None:
            return False
        return a.head.term.functor == b.head.term.functor

    # -- queries ----------------------------------------------------------------

    def dispatch_index(self):
        """The root-signature dispatch index over this hierarchy's
        rules (built once — both hierarchy and rules are immutable)."""
        if self._dispatch_index is None:
            from .dispatch import RuleDispatchIndex  # deferred: dispatch uses ast

            self._dispatch_index = RuleDispatchIndex(self.rules)
        return self._dispatch_index

    def is_more_specific(self, a: str, b: str) -> bool:
        """True if rule *a* is strictly more specific than rule *b*."""
        seen: Set[str] = set()
        frontier = [a]
        while frontier:
            current = frontier.pop()
            for general in self._more_general.get(current, ()):
                if general == b:
                    return True
                if general not in seen:
                    seen.add(general)
                    frontier.append(general)
        return False

    def specific_first(self) -> List[Rule]:
        """All rules, most specific first (topological order); fallback
        (empty-head) rules always come last."""
        depth: Dict[str, int] = {}

        def depth_of(name: str, trail: Tuple[str, ...] = ()) -> int:
            if name in depth:
                return depth[name]
            if name in trail:
                return 0  # enforced orders could create loops; break them
            parents = self._more_general.get(name, ())
            value = (
                0
                if not parents
                else 1 + max(depth_of(p, trail + (name,)) for p in parents)
            )
            depth[name] = value
            return value

        declaration_order = {id(rule): i for i, rule in enumerate(self.rules)}
        ordered = sorted(
            self.rules,
            key=lambda r: (r.is_fallback, -depth_of(r.name), declaration_order[id(r)]),
        )
        return ordered

    def shadowed(self, rule: Rule, matched_rules: Set[str]) -> bool:
        """Should *rule* be skipped for an input already matched by the
        rules in *matched_rules*? Yes when a strictly more specific
        conflicting rule is among them."""
        return any(
            self.is_more_specific(name, rule.name) for name in matched_rules
        )

    def chains(self) -> List[List[str]]:
        """The hierarchy as parent → children lists (for display)."""
        result = []
        for rule in self.rules:
            generals = sorted(self._more_general[rule.name])
            if generals:
                result.append([rule.name, *generals])
        return result
