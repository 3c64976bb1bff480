"""Program instantiation / customization (Section 4.1).

"With YAT, the user instantiates the general program by giving a more
specific pattern. This instantiation process is done automatically, and
the resulting new program is equivalent to the previous one, but more
specific."

The instantiation is a symbolic partial evaluation of the program over
the given pattern:

* rule bodies are matched *symbolically* against the pattern — rule
  variables bind to the pattern's constants, variables and subtrees;
* dereferenced Skolems are expanded recursively: the head trees of the
  sub-rules are spliced in, "appended together to form the head part of
  the rule";
* ``&`` references are *not* expanded: the sub-rule's body pattern for
  the referenced object "has been added to the rule body along with all
  encountered function calls" (the incomplete ``Psup`` pattern of rule
  WebCar);
* variables of merged rules are renamed apart (``T`` → ``T1``), and
  external calls whose arguments fold to constants are evaluated at
  instantiation time;
* a ``*`` edge of the pattern keeps iteration in the derived rule,
  while concrete children unroll into plain edges (the three ``li``
  items of rule WebCar).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.instantiation import InstantiationContext, is_instance
from ..core.labels import Label, is_label
from ..core.models import Model
from ..core.patterns import (
    GROUP,
    INDEX,
    ONE,
    ORDER,
    STAR,
    NameTerm,
    PChild,
    PEdge,
    PNameLeaf,
    PNode,
    Pattern,
    PRefLeaf,
    PVarLeaf,
    collect_variables,
)
from ..core.variables import PatternVar, Var
from ..errors import CustomizationError, FunctionError
from .ast import BodyPattern, Expr, FunctionCall, HeadPattern, Predicate, Rule
from .functions import FunctionRegistry, evaluate_comparison
from .program import Program

_MAX_DEPTH = 500


class SymRef:
    """Symbolic value of a pattern variable bound through a ``&`` leaf:
    the name of the referenced pattern, plus the Skolem arguments when
    the reference carried some (``&Psup(SN)`` in an output model)."""

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: Tuple = ()) -> None:
        self.functor = functor
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"SymRef({self.functor!r}, {self.args!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymRef)
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash((SymRef, self.functor, self.args))


#: Symbolic values: constants, instance-side variables, instance-side
#: subtrees, or references to named patterns.
SymValue = Union[Label, Var, PChild, SymRef]


class SymEnv:
    """A symbolic binding environment; ``star`` marks environments that
    iterate (they were produced under a ``*`` edge of the pattern)."""

    __slots__ = ("data", "star")

    def __init__(self, data: Optional[Dict[str, SymValue]] = None, star: bool = False):
        self.data = dict(data) if data else {}
        self.star = star

    def bind(self, name: str, value: SymValue) -> Optional["SymEnv"]:
        existing = self.data.get(name)
        if name in self.data:
            return self if existing == value else None
        extended = dict(self.data)
        extended[name] = value
        return SymEnv(extended, self.star)

    def starred(self) -> "SymEnv":
        return SymEnv(self.data, True)

    def get(self, name: str) -> Optional[SymValue]:
        return self.data.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.data

    def __repr__(self) -> str:
        return f"SymEnv({self.data!r}, star={self.star})"


class Derivation:
    """The result of specializing rules on one pattern fragment."""

    def __init__(
        self,
        head: PChild,
        body: Optional[List[BodyPattern]] = None,
        predicates: Optional[List[Predicate]] = None,
        calls: Optional[List[FunctionCall]] = None,
    ) -> None:
        self.head = head
        self.body = body or []
        self.predicates = predicates or []
        self.calls = calls or []

    def absorb(self, other: "Derivation") -> None:
        self.body.extend(other.body)
        self.predicates.extend(other.predicates)
        self.calls.extend(other.calls)


# ---------------------------------------------------------------------------
# Fresh-variable management
# ---------------------------------------------------------------------------


class Renamer:
    """Allocates fresh variable names, avoiding a reserved set."""

    def __init__(self, reserved: Set[str]) -> None:
        self.used = set(reserved)

    def fresh(self, base: str) -> str:
        if base not in self.used:
            self.used.add(base)
            return base
        counter = 1
        while f"{base}{counter}" in self.used:
            counter += 1
        name = f"{base}{counter}"
        self.used.add(name)
        return name


# ---------------------------------------------------------------------------
# Symbolic matching
# ---------------------------------------------------------------------------


class _Specializer:
    def __init__(
        self,
        program: Program,
        context_model: Optional[Model],
        renamer: Renamer,
    ) -> None:
        self.program = program
        self.hierarchy = program.hierarchy()
        self.order = [r for r in self.hierarchy.specific_first() if not r.is_fallback]
        self.context_model = context_model
        self.renamer = renamer
        self.registry: FunctionRegistry = program.registry
        # Lenient: customization patterns routinely leave variables with
        # the default domain ("the system does not assume any knowledge
        # of the Psup pattern", footnote 3); run-time matching re-checks
        # the actual data anyway.
        self._icontext = InstantiationContext(
            source_model=program.input_model or context_model,
            instance_model=context_model,
            lenient=True,
        )

    # -- instance checks ------------------------------------------------------

    def _check_domain(self, instance: PChild, pattern_name: str) -> bool:
        for model in (self.program.input_model, self.context_model):
            if model is None:
                continue
            pattern = model.get_pattern(pattern_name)
            if pattern is not None:
                return is_instance(instance, pattern, self._icontext)
        return True

    # -- symbolic matching ------------------------------------------------------

    def sym_match(
        self, rule_side: PChild, instance: PChild, env: SymEnv
    ) -> List[SymEnv]:
        if isinstance(rule_side, PVarLeaf):
            domain = rule_side.var.domain_pattern
            if domain is not None and not self._check_domain(instance, domain):
                return []
            bound = env.bind(rule_side.var.name, instance)
            return [bound] if bound is not None else []

        if isinstance(rule_side, PNameLeaf):
            if rule_side.term.args:
                return []
            if self._check_domain(instance, rule_side.term.functor):
                return [env]
            return []

        if isinstance(rule_side, PRefLeaf):
            if not isinstance(instance, PRefLeaf):
                return []
            target = rule_side.target
            inst_target = instance.target
            if isinstance(target, PatternVar):
                if isinstance(inst_target, NameTerm):
                    value = SymRef(inst_target.functor, inst_target.args)
                else:
                    value = SymRef(inst_target.name)
                bound = env.bind(target.name, value)
                return [bound] if bound is not None else []
            # rule-side named reference: structural acceptance
            return [env]

        # rule side is a PNode
        if not isinstance(instance, PNode):
            return []  # the instance is more general here: no specialization
        label = rule_side.label
        if isinstance(label, Var):
            inst_label = instance.label
            if isinstance(inst_label, Var):
                if not inst_label.domain.subset_of(label.domain):
                    return []
                bound = env.bind(label.name, Var(inst_label.name, inst_label.domain))
            else:
                if not label.domain.contains(inst_label):
                    return []
                bound = env.bind(label.name, inst_label)
            if bound is None:
                return []
            env = bound
        else:
            if isinstance(instance.label, Var) or instance.label != label:
                return []
        if not rule_side.edges and instance.edges:
            return []
        return self._sym_match_edges(rule_side.edges, instance.edges, env)

    def _sym_match_edges(
        self, rule_edges: Sequence[PEdge], inst_edges: Sequence[PEdge], env: SymEnv
    ) -> List[SymEnv]:
        results: List[SymEnv] = []
        n_rule, n_inst = len(rule_edges), len(inst_edges)

        def rec(ri: int, ii: int, current: SymEnv) -> None:
            if ri == n_rule:
                if ii == n_inst:
                    results.append(current)
                return
            edge = rule_edges[ri]
            if edge.kind == ONE:
                if ii < n_inst and inst_edges[ii].kind == ONE:
                    for extended in self.sym_match(
                        edge.target, inst_edges[ii].target, current
                    ):
                        rec(ri + 1, ii + 1, extended)
                return
            # star-like rule edge
            remaining_one = sum(1 for e in rule_edges[ri + 1 :] if e.kind == ONE)
            max_run = n_inst - ii - remaining_one
            for run in range(0, max_run + 1):
                envs = self._sym_match_run(edge, inst_edges, ii, run, current)
                if envs is None:
                    break
                for extended in envs:
                    rec(ri + 1, ii + run, extended)

        rec(0, 0, env)
        return results

    def _sym_match_run(
        self,
        edge: PEdge,
        inst_edges: Sequence[PEdge],
        start: int,
        run: int,
        env: SymEnv,
    ) -> Optional[List[SymEnv]]:
        if run == 0:
            return [env]
        collected: List[SymEnv] = []
        for offset in range(run):
            inst_edge = inst_edges[start + offset]
            child_env = env
            if edge.kind == INDEX and edge.index_var is not None:
                fresh = self.renamer.fresh(edge.index_var.name)
                bound = child_env.bind(edge.index_var.name, Var(fresh))
                if bound is None:
                    return None
                child_env = bound
            matches = self.sym_match(edge.target, inst_edge.target, child_env)
            if not matches:
                return None
            if inst_edge.kind != ONE:
                matches = [m.starred() for m in matches]
            collected.extend(matches)
        return collected

    # -- rule selection -----------------------------------------------------------

    def applicable(
        self, subject: PChild, functor: Optional[str] = None
    ) -> List[Tuple[Rule, List[SymEnv]]]:
        """Rules applicable to the subject pattern, with their symbolic
        environments, honouring hierarchy shadowing. ``functor``
        restricts candidates to the rules defining one Skolem functor
        (used when specializing a dereference)."""
        found: List[Tuple[Rule, List[SymEnv]]] = []
        matched_rules: Set[str] = set()
        for rule in self.order:
            if functor is not None and rule.head_functor != functor:
                continue
            roots = rule.root_body_patterns()
            if len(roots) != 1:
                continue  # multi-root rules cannot be specialized on one pattern
            if self.hierarchy.shadowed(rule, matched_rules):
                continue
            initial = SymEnv().bind(roots[0].name.name, subject)
            if initial is None:
                continue
            envs = self.sym_match(roots[0].tree, subject, initial)
            if not envs:
                continue
            envs = self._process_dependents(rule, roots[0], envs)
            envs, predicates_alive = self._check_predicates(rule, envs)
            if not envs or not predicates_alive:
                continue
            matched_rules.add(rule.name)
            found.append((rule, envs))
        return found

    def _process_dependents(
        self, rule: Rule, root: BodyPattern, envs: List[SymEnv]
    ) -> List[SymEnv]:
        """Match dependent body patterns symbolically where their name is
        bound to a subtree; leave SymRef-bound names for carrying."""
        for bp in rule.body:
            if bp is root:
                continue
            updated: List[SymEnv] = []
            for env in envs:
                value = env.get(bp.name.name)
                if isinstance(value, (PNode, PVarLeaf, PNameLeaf, PRefLeaf)):
                    updated.extend(self.sym_match(bp.tree, value, env))
                elif isinstance(value, SymRef) and self.context_model is not None:
                    known = self.context_model.get_pattern(value.functor)
                    if known is not None and value.args:
                        # resolve against the known pattern ("additional
                        # informations about pattern Psup", Section 4.3)
                        resolved = []
                        for alt in known.alternatives:
                            resolved.extend(self.sym_match(bp.tree, alt, env))
                        if resolved:
                            updated.extend(resolved)
                        else:
                            updated.append(env)
                    else:
                        updated.append(env)
                else:
                    updated.append(env)
            envs = updated
            if not envs:
                break
        return envs

    def _check_predicates(
        self, rule: Rule, envs: List[SymEnv]
    ) -> Tuple[List[SymEnv], bool]:
        """Fold predicates whose operands specialize to constants; an
        all-constant predicate that is false kills the environment."""
        surviving = []
        for env in envs:
            alive = True
            for predicate in rule.predicates:
                left = _sym_expr(predicate.left, env)
                right = _sym_expr(predicate.right, env)
                if is_label(left) and is_label(right):
                    if not evaluate_comparison(left, predicate.op, right):
                        alive = False
                        break
            if alive:
                surviving.append(env)
        return surviving, bool(surviving)

    # -- head specialization ---------------------------------------------------------

    def derive(
        self, subject: PChild, depth: int = 0, functor: Optional[str] = None
    ) -> Derivation:
        """Derive the head fragment (plus carried body/conditions) that
        the program produces for *subject*, using the most specific
        applicable rule (of the given functor, when specializing a
        dereference)."""
        if depth > _MAX_DEPTH:
            raise CustomizationError(
                "instantiation recursion exceeded the depth limit; "
                "the program is likely cyclic on this pattern"
            )
        candidates = self.applicable(subject, functor)
        if not candidates:
            target = f"Skolem {functor}" if functor else "any rule"
            raise CustomizationError(
                f"no rule of program {self.program.name!r} ({target}) applies "
                f"to pattern fragment: {subject}"
            )
        rule, envs = candidates[0]
        return self._derive_with(rule, envs, depth)

    def _derive_with(self, rule: Rule, envs: List[SymEnv], depth: int) -> Derivation:
        assert rule.head is not None
        derivation = Derivation(head=PNode("placeholder"))
        states = [_EnvState(env, {}) for env in envs]
        self._prepare_conditions(rule, states, derivation)
        derivation.head = self._build(rule.head.tree, states, derivation, depth)
        self._carry_dependents(rule, states, derivation)
        return derivation

    def _prepare_conditions(
        self, rule: Rule, states: List["_EnvState"], derivation: Derivation
    ) -> None:
        """Fold or carry the rule's calls and predicates, per environment."""
        for state in states:
            for call in rule.calls:
                args = [self._substitute_expr(a, state) for a in call.args]
                if all(is_label(a) for a in args) and self.registry.has(call.function):
                    fn = self.registry.get(call.function)
                    if fn.accepts(args):
                        try:
                            value = fn(*args)
                        except FunctionError:
                            continue  # filtered at run time; drop the call
                        if call.result is not None and is_label(value):
                            state.substitution[call.result.name] = value
                            continue
                        if call.result is None:
                            continue  # a folded boolean predicate held
                carried_args = [
                    self._substitute_expr(a, state, rename_unbound=True)
                    for a in call.args
                ]
                result = None
                if call.result is not None:
                    result = Var(self._rename(call.result.name, state))
                state.calls.append(FunctionCall(result, call.function, carried_args))
            for predicate in rule.predicates:
                left = self._substitute_expr(predicate.left, state)
                right = self._substitute_expr(predicate.right, state)
                if is_label(left) and is_label(right):
                    continue  # already checked in _check_predicates
                left = self._substitute_expr(predicate.left, state, rename_unbound=True)
                right = self._substitute_expr(
                    predicate.right, state, rename_unbound=True
                )
                state.predicates.append(Predicate(left, predicate.op, right))

    def _carry_dependents(
        self, rule: Rule, states: List["_EnvState"], derivation: Derivation
    ) -> None:
        """Dependent body patterns bound to an *unknown* referenced
        pattern are carried into the derived body (the incomplete Psup
        pattern of rule WebCar)."""
        roots = {bp.name.name for bp in rule.root_body_patterns()}
        carried: Set[Tuple[str, int]] = set()
        for state in states:
            for bp in rule.body:
                if bp.name.name in roots:
                    continue
                value = state.env.get(bp.name.name)
                if not isinstance(value, SymRef):
                    continue
                if value.args and self.context_model is not None:
                    known = self.context_model.get_pattern(value.functor)
                    if known is not None:
                        continue  # resolved against the known pattern
                key = (value.functor, id(bp))
                if key in carried:
                    continue
                carried.add(key)
                state.substitution[bp.name.name] = Var(value.functor)
                renamed = self._rename_tree(bp.tree, state)
                derivation.body.append(BodyPattern(value.functor, renamed))
            derivation.predicates.extend(state.predicates)
            derivation.calls.extend(state.calls)
            state.predicates = []
            state.calls = []

    # -- head tree construction ----------------------------------------------------

    def _build(
        self,
        node: PChild,
        states: List["_EnvState"],
        derivation: Derivation,
        depth: int,
    ) -> PChild:
        if isinstance(node, PVarLeaf):
            value = self._agreed(node.var.name, states)
            return _as_pattern_child(value)

        if isinstance(node, PNameLeaf):
            return self._build_skolem(node.term, states, derivation, depth, deref=True)

        if isinstance(node, PRefLeaf):
            target = node.target
            if isinstance(target, PatternVar):
                raise CustomizationError(
                    f"reference to pattern variable {target.name} in a head"
                )
            return self._build_skolem(target, states, derivation, depth, deref=False)

        # PNode
        label = node.label
        if isinstance(label, Var):
            value = self._agreed(label.name, states)
            if isinstance(value, Var):
                label = value
            elif is_label(value):
                label = value
            else:
                raise CustomizationError(
                    f"variable {node.label.name} is bound to a subtree but "
                    f"used as a node label"
                )
        edges: List[PEdge] = []
        for edge in node.edges:
            edges.extend(self._build_edge(edge, states, derivation, depth))
        return PNode(label, edges)

    def _build_edge(
        self,
        edge: PEdge,
        states: List["_EnvState"],
        derivation: Derivation,
        depth: int,
    ) -> List[PEdge]:
        if edge.kind == ONE:
            return [PEdge(ONE, self._build(edge.target, states, derivation, depth))]
        built: List[PEdge] = []
        for state in states:
            target = self._build(edge.target, [state], derivation, depth)
            if state.env.star:
                if edge.kind == ORDER:
                    criteria = self._map_criteria(edge.criteria, state)
                    kind = ORDER if criteria else STAR
                    built.append(PEdge(kind, target, criteria=criteria))
                elif edge.kind == INDEX:
                    built.append(PEdge(STAR, target))
                else:
                    built.append(PEdge(edge.kind, target))
            else:
                built.append(PEdge(ONE, target))
        return built

    def _map_criteria(
        self, criteria: Sequence[Var], state: "_EnvState"
    ) -> List[Var]:
        mapped: List[Var] = []
        for criterion in criteria:
            value = self._substitute_expr(criterion, state, rename_unbound=True)
            if isinstance(value, Var):
                mapped.append(value)
        return mapped

    def _build_skolem(
        self,
        term: NameTerm,
        states: List["_EnvState"],
        derivation: Derivation,
        depth: int,
        deref: bool,
    ) -> PChild:
        args = [self._agreed_arg(a, states) for a in term.args]
        if deref and len(args) == 1:
            subject = args[0]
            if isinstance(subject, (PNode, PRefLeaf)):
                sub = self.derive(subject, depth + 1, functor=term.functor)
                derivation.absorb(sub)
                return sub.head
            if isinstance(subject, PVarLeaf):
                return PNameLeaf(
                    NameTerm(term.functor, [Var(subject.var.name)])
                )
        folded = []
        for arg in args:
            if isinstance(arg, PRefLeaf) and isinstance(arg.target, NameTerm):
                arg = SymRef(arg.target.functor, arg.target.args)
            if isinstance(arg, SymRef):
                if arg.args:
                    folded.extend(arg.args)
                else:
                    folded.append(Var(arg.functor))
            elif isinstance(arg, PVarLeaf):
                folded.append(Var(arg.var.name))
            elif isinstance(arg, PNode) and not arg.edges and isinstance(
                arg.label, Var
            ):
                folded.append(arg.label)
            elif isinstance(arg, (PNode, PNameLeaf, PRefLeaf)):
                raise CustomizationError(
                    f"cannot specialize Skolem {term} on fragment {arg}"
                )
            else:
                folded.append(arg)
        new_term = NameTerm(term.functor, folded)
        return PNameLeaf(new_term) if deref else PRefLeaf(new_term)

    # -- substitutions ------------------------------------------------------------

    def _substitute_expr(
        self, expr: Expr, state: "_EnvState", rename_unbound: bool = False
    ) -> Expr:
        if not isinstance(expr, (Var, PatternVar)):
            return expr
        folded = state.substitution.get(expr.name)
        if folded is not None:
            return folded
        value = state.env.get(expr.name)
        if value is None:
            if rename_unbound:
                return Var(self._rename(expr.name, state))
            return expr
        if is_label(value):
            return value
        if isinstance(value, Var):
            return value
        if isinstance(value, PVarLeaf):
            return Var(value.var.name)
        if isinstance(value, PNode) and not value.edges:
            label = value.label
            return Var(label.name) if isinstance(label, Var) else label
        if isinstance(value, SymRef):
            return Var(value.functor)
        if rename_unbound:
            raise CustomizationError(
                f"variable {expr.name} binds a structured fragment and "
                f"cannot be carried into a condition"
            )
        return expr

    def _rename(self, name: str, state: "_EnvState") -> str:
        existing = state.renaming.get(name)
        if existing is None:
            existing = self.renamer.fresh(name)
            state.renaming[name] = existing
        return existing

    def _rename_tree(self, tree: PChild, state: "_EnvState") -> PChild:
        """Rewrite a carried body pattern: substitute symbolically bound
        variables and rename the unbound ones apart."""
        from ..core.patterns import rename_variables

        mapping: Dict[str, str] = {}
        for var in collect_variables(tree):
            value = state.env.get(var.name)
            if value is None and var.name not in state.substitution:
                mapping[var.name] = self._rename(var.name, state)
        return rename_variables(tree, mapping)

    def _agreed(self, name: str, states: List["_EnvState"]) -> SymValue:
        values = []
        for state in states:
            folded = state.substitution.get(name)
            value = folded if folded is not None else state.env.get(name)
            if value is None:
                value = Var(self._rename(name, state))
            values.append(value)
        first = values[0]
        for value in values[1:]:
            if _sym_differs(value, first):
                raise CustomizationError(
                    f"variable {name} specializes to conflicting values "
                    f"({first!r} vs {value!r}); the pattern is ambiguous"
                )
        return first

    def _agreed_arg(self, arg, states: List["_EnvState"]) -> SymValue:
        if not isinstance(arg, (Var, PatternVar)):
            return arg
        return self._agreed(arg.name, states)


def _sym_differs(a: SymValue, b: SymValue) -> bool:
    return a != b


class _EnvState:
    """One symbolic environment plus its variable-renaming bookkeeping
    and the conditions it carries into the derived rule."""

    __slots__ = ("env", "renaming", "substitution", "calls", "predicates")

    def __init__(self, env: SymEnv, renaming: Dict[str, str]) -> None:
        self.env = env
        self.renaming = renaming
        self.substitution: Dict[str, Label] = {}
        self.calls: List[FunctionCall] = []
        self.predicates: List[Predicate] = []


def _sym_expr(expr: Expr, env: SymEnv) -> Expr:
    if isinstance(expr, (Var, PatternVar)):
        value = env.get(expr.name)
        if is_label(value):
            return value
        if isinstance(value, PNode) and not value.edges and is_label(value.label):
            return value.label
        return expr
    return expr


def _as_pattern_child(value: SymValue) -> PChild:
    if isinstance(value, (PNode, PVarLeaf, PNameLeaf, PRefLeaf)):
        return value
    if isinstance(value, Var):
        return PNode(value)
    if isinstance(value, SymRef):
        return PRefLeaf(NameTerm(value.functor, value.args))
    if is_label(value):
        return PNode(value)
    raise CustomizationError(f"cannot place value {value!r} in a head")


# ---------------------------------------------------------------------------
# Hole preprocessing
# ---------------------------------------------------------------------------


def open_holes(tree: PChild, renamer: Renamer) -> PChild:
    """Replace pattern-name leaves (``Ptype``) by typed pattern-variable
    holes so the derived rule can bind them at run time."""
    if isinstance(tree, PNameLeaf) and not tree.term.args:
        fresh = renamer.fresh("P")
        return PVarLeaf(PatternVar(fresh, tree.term.functor))
    if isinstance(tree, PNode):
        edges = [
            edge.with_target(open_holes(edge.target, renamer)) for edge in tree.edges
        ]
        return PNode(tree.label, edges)
    return tree


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def derive_rule(
    program: Program,
    pattern: Pattern,
    alternative: PChild,
    context_model: Optional[Model] = None,
    name: Optional[str] = None,
    reserved: Optional[Set[str]] = None,
) -> Rule:
    """Derive the specialized rule a program becomes on one pattern
    alternative (rule WebCar from the Web program and ``Pcar``)."""
    reserved_names = set(reserved or set())
    for var in collect_variables(alternative):
        reserved_names.add(var.name)
    renamer = Renamer(reserved_names)
    subject = open_holes(alternative, renamer)
    specializer = _Specializer(program, context_model, renamer)
    candidates = specializer.applicable(subject)
    if not candidates:
        raise CustomizationError(
            f"no rule of program {program.name!r} applies to pattern "
            f"{pattern.name!r}"
        )
    rule, envs = candidates[0]
    derivation = specializer._derive_with(rule, envs, 0)
    assert rule.head is not None
    head_args = []
    for arg in rule.head.term.args:
        if isinstance(arg, (Var, PatternVar)):
            value = envs[0].get(arg.name)
            if isinstance(value, (PNode, PVarLeaf, PNameLeaf, PRefLeaf)) and (
                value is subject
            ):
                head_args.append(Var(pattern.name))
                continue
            substituted = specializer._substitute_expr(
                arg, _EnvState(envs[0], {}), rename_unbound=False
            )
            head_args.append(substituted if not isinstance(substituted, PatternVar)
                             else Var(substituted.name))
        else:
            head_args.append(arg)
    head = HeadPattern(NameTerm(rule.head.term.functor, head_args), derivation.head)
    body = [BodyPattern(pattern.name, subject)] + derivation.body
    # Rule's constructor turns `&Psup` in the body into a binding
    # reference now that a body pattern named Psup exists.
    return Rule(
        name or f"{rule.name}{pattern.name}",
        head,
        body,
        derivation.predicates,
        derivation.calls,
    )


def instantiate_program(
    program: Program,
    patterns: Union[Pattern, Sequence[Pattern], Model],
    name: Optional[str] = None,
) -> Program:
    """Instantiate *program* on the given pattern(s) (Section 4.1).

    Returns a new program with one derived rule per (pattern,
    alternative); the original general rules are **not** included — use
    :meth:`Program.combined_with` to layer the specialized program over
    the general one (Section 4.2).
    """
    if isinstance(patterns, Pattern):
        pattern_list = [patterns]
        context = None
    elif isinstance(patterns, Model):
        pattern_list = patterns.patterns()
        context = patterns
    else:
        pattern_list = list(patterns)
        context = None
    if context is None:
        context = Model("instantiation-context")
        for pattern in pattern_list:
            context.add(pattern)
    derived = Program(
        name or f"{program.name}@{'+'.join(p.name for p in pattern_list)}",
        registry=program.registry,
        input_model=context,
        output_model=program.output_model,
    )
    for pattern in pattern_list:
        for index, alternative in enumerate(pattern.alternatives):
            suffix = "" if len(pattern.alternatives) == 1 else f"_{index + 1}"
            try:
                rule = derive_rule(
                    program,
                    pattern,
                    alternative,
                    context_model=context,
                    name=None,
                )
            except CustomizationError:
                continue  # this pattern has no applicable rule: skip it
            if suffix:
                rule.name += suffix
            derived.add_rule(rule)
    if not derived.rules:
        raise CustomizationError(
            f"program {program.name!r} could not be instantiated on any of: "
            f"{', '.join(p.name for p in pattern_list)}"
        )
    return derived
