"""YATL programs: rule sets with models, functions, and operations.

A :class:`Program` bundles rules with an optional declared input/output
model and a function registry, and exposes the paper's program-level
operations: evaluation (Section 3.1), static validation (Section 3.4),
signature inference and model checks (Section 3.5), customization by
instantiation (Section 4.1), combination (Section 4.2) and composition
(Section 4.3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..core.models import Model
from ..core.patterns import Pattern
from ..core.trees import DataStore, Tree
from ..errors import EvaluationError
from .ast import Rule
from .cycles import CycleReport, analyze_cycles, check_cycles
from .functions import FunctionRegistry, standard_registry
from .hierarchy import Hierarchy
from .interpreter import ConversionResult, Interpreter
from .typing import (
    Signature,
    check_input_against,
    check_output_against,
    infer_signature,
)


class Program:
    """A YATL conversion program."""

    def __init__(
        self,
        name: str,
        rules: Sequence[Rule] = (),
        registry: Optional[FunctionRegistry] = None,
        input_model: Optional[Model] = None,
        output_model: Optional[Model] = None,
    ) -> None:
        self.name = name
        self.rules: List[Rule] = []
        self.registry = registry or standard_registry()
        self.input_model = input_model
        self.output_model = output_model
        self.enforced_order: List[Tuple[str, str]] = []
        for rule in rules:
            self.add_rule(rule)

    # -- rule management ------------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        if any(existing.name == rule.name for existing in self.rules):
            raise EvaluationError(
                f"program {self.name!r} already has a rule named {rule.name!r}"
            )
        self.rules.append(rule)

    def rule(self, name: str) -> Rule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise EvaluationError(f"program {self.name!r} has no rule {name!r}")

    def remove_rule(self, name: str) -> Rule:
        rule = self.rule(name)
        self.rules.remove(rule)
        return rule

    def replace_rule(self, name: str, replacement: Rule) -> None:
        """Swap a rule for a customized version (Section 4.1 workflow)."""
        index = self.rules.index(self.rule(name))
        self.rules[index] = replacement

    def enforce_order(self, specific: str, general: str) -> None:
        """Force *specific* to be tried before *general* in the rule
        hierarchy — "of course, in this case, the declarativity of YATL
        programs is transgressed" (Section 4.2)."""
        self.rule(specific)
        self.rule(general)
        self.enforced_order.append((specific, general))

    def rule_names(self) -> List[str]:
        return [rule.name for rule in self.rules]

    # -- static analysis --------------------------------------------------------

    def hierarchy(self) -> Hierarchy:
        return Hierarchy(
            self.rules, model=self._context_model(), enforced=self.enforced_order
        )

    def analyze_cycles(self) -> CycleReport:
        return analyze_cycles(self.rules)

    def validate(self) -> CycleReport:
        """Reject potentially cyclic, non-safe-recursive programs."""
        return check_cycles(self.rules)

    def signature(self) -> Signature:
        """Infer the program signature ``M_IN |-> M_OUT`` (Section 3.5)."""
        return infer_signature(self.rules, self.registry, name=self.name)

    def check_models(self) -> None:
        """Check the inferred signature against the declared models."""
        signature = self.signature()
        if self.input_model is not None:
            check_input_against(signature, self.input_model)
        if self.output_model is not None:
            check_output_against(signature, self.output_model)

    def _context_model(self) -> Optional[Model]:
        if self.input_model is None:
            return self.output_model
        if self.output_model is None:
            return self.input_model
        return self.input_model.merged_with(
            self.output_model, name=f"ctx({self.name})"
        )

    # -- evaluation ----------------------------------------------------------------

    def run(
        self,
        data: Union[DataStore, Sequence[Tree], Tree],
        runtime_typing: bool = False,
        strict_refs: bool = False,
        validate: bool = True,
        target_functors: Optional[Sequence[str]] = None,
        use_dispatch_index: bool = True,
        use_arena: bool = True,
        provenance=None,
    ) -> ConversionResult:
        """Convert *data*, returning the output store.

        With ``validate`` (default) the Section 3.4 cycle check runs
        first; ``runtime_typing`` enables the Section 3.5 run-time
        check for unconverted inputs. ``target_functors`` restricts
        evaluation to the outputs a query needs (and their transitive
        Skolem dependencies) — the paper's future-work direction of
        querying the target without materializing all of it.
        ``use_dispatch_index`` (default) offers each rule only the
        input roots its root signature admits; disable it for ablation
        measurements.
        ``use_arena`` (default) evaluates
        :class:`~repro.core.arena.ArenaStore` inputs on the columnar
        batch path; disable it (the ``--no-arena`` ablation) to
        materialize the arena up front and run the tree path.
        ``provenance`` installs a :class:`~repro.obs.ProvenanceStore`
        recording per-firing lineage (defaults to the ambient store
        from :func:`repro.obs.tracing`, if one is installed).
        """
        if validate:
            self.validate()
        interpreter = Interpreter(
            self.rules,
            registry=self.registry,
            model=self._context_model(),
            hierarchy=self.hierarchy(),
            runtime_typing=runtime_typing,
            strict_refs=strict_refs,
            target_functors=target_functors,
            use_dispatch_index=use_dispatch_index,
            use_arena=use_arena,
            provenance=provenance,
            program_name=self.name,
        )
        return interpreter.run(data)

    def evaluate(
        self,
        data: Union[DataStore, Sequence[Tree], Tree],
        **options,
    ) -> ConversionResult:
        """Alias of :meth:`run` — the evaluation entry point's name in
        the paper's terminology."""
        return self.run(data, **options)

    def query(
        self,
        data: Union[DataStore, Sequence[Tree], Tree],
        functor: str,
    ) -> List[Tree]:
        """Convenience wrapper over targeted evaluation: the output
        trees of one Skolem functor, computing only what they need."""
        result = self.run(data, target_functors=[functor])
        return result.trees_of(functor)

    # -- program operations ----------------------------------------------------------

    def combined_with(self, other: "Program", name: Optional[str] = None) -> "Program":
        """Combination (Section 4.2): the union of two rule sets, with
        conflicts handled by the automatically rebuilt hierarchy."""
        combined = Program(
            name or f"{self.name}+{other.name}",
            registry=_merge_registries(self.registry, other.registry),
            input_model=_merge_models(self.input_model, other.input_model),
            output_model=_merge_models(self.output_model, other.output_model),
        )
        for rule in self.rules:
            combined.add_rule(rule)
        for rule in other.rules:
            if any(existing.name == rule.name for existing in combined.rules):
                if rule == self.rule(rule.name):
                    continue  # identical rule: keep one copy
                raise EvaluationError(
                    f"cannot combine: both programs define a different rule "
                    f"named {rule.name!r}"
                )
            combined.add_rule(rule)
        combined.enforced_order = list(self.enforced_order) + list(
            other.enforced_order
        )
        return combined

    def instantiated_on(
        self,
        patterns: Union[Pattern, Sequence[Pattern], Model],
        name: Optional[str] = None,
    ) -> "Program":
        """Customization by instantiation (Section 4.1): derive the more
        specific program this program becomes on the given pattern(s)."""
        from .customize import instantiate_program  # cycle: customize uses Program

        return instantiate_program(self, patterns, name=name)

    def composed_with(self, other: "Program", name: Optional[str] = None) -> "Program":
        """Composition (Section 4.3): a one-step program equivalent to
        running ``self`` then ``other``, without intermediate patterns."""
        from .compose import compose_programs  # cycle: compose uses Program

        return compose_programs(self, other, name=name)

    # -- dunder -------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"Program({self.name!r}, rules=[{', '.join(self.rule_names())}])"

    def __str__(self) -> str:
        from .printer import render_program

        return render_program(self)


def _merge_registries(
    first: FunctionRegistry, second: FunctionRegistry
) -> FunctionRegistry:
    if first is second:
        return first
    merged = FunctionRegistry()
    for name in second.names():
        merged.register(name, second.get(name).fn, second.get(name).arg_domains,
                        second.get(name).result_domain)
    for name in first.names():
        fn = first.get(name)
        merged.register(name, fn.fn, fn.arg_domains, fn.result_domain)
    return merged


def _merge_models(first: Optional[Model], second: Optional[Model]) -> Optional[Model]:
    if first is None:
        return second
    if second is None:
        return first
    if first is second or first == second:
        return first
    return first.merged_with(second)
