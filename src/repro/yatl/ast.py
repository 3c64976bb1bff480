"""Abstract syntax of YATL rules (Section 3.1).

A rule is ``head <= body``:

* the **head** is a single pattern whose name may be parameterized — an
  explicit Skolem function (``Psup(SN)``); a rule may also have an
  *empty head* (the Rule Exception of Section 3.5);
* the **body** contains named patterns that *filter* the input, boolean
  predicates, and external function calls that *compute* additional
  data (``C is city(Add)``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

from ..core.labels import Label, is_label, label_repr
from ..core.patterns import (
    NameTerm,
    PChild,
    PRefLeaf,
    collect_name_terms,
    collect_variables,
    render_pattern_tree,
)
from ..core.variables import PatternVar, Var
from ..errors import ModelError

#: An expression usable in predicates and function arguments: a data
#: variable, a pattern variable, or a constant.
Expr = Union[Var, PatternVar, Label]


def render_expr(expr: Expr) -> str:
    if isinstance(expr, (Var, PatternVar)):
        return str(expr)
    return label_repr(expr)


class BodyPattern:
    """A named pattern in a rule body, e.g. ``Pbr : brochure < ... >``.

    The name is a *pattern variable*: it binds the matched tree and can
    be used as a Skolem argument (``Pcar(Pbr)``) or shared with other
    body patterns.
    """

    __slots__ = ("name", "tree")

    def __init__(self, name: Union[PatternVar, str], tree: PChild) -> None:
        if isinstance(name, str):
            name = PatternVar(name)
        self.name = name
        self.tree = tree

    def variables(self) -> Set[Union[Var, PatternVar]]:
        return {self.name} | collect_variables(self.tree)

    def __repr__(self) -> str:
        return f"BodyPattern({self.name!r})"

    def __str__(self) -> str:
        return f"{self.name} : {render_pattern_tree(self.tree)}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BodyPattern)
            and other.name == self.name
            and other.tree == self.tree
        )


class Predicate:
    """A boolean comparison, e.g. ``Year > 1975``."""

    OPS = ("=", "!=", "<", "<=", ">", ">=")

    __slots__ = ("op", "left", "right")

    def __init__(self, left: Expr, op: str, right: Expr) -> None:
        if op not in self.OPS:
            raise ModelError(f"unknown predicate operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def variables(self) -> Set[Union[Var, PatternVar]]:
        return {e for e in (self.left, self.right) if isinstance(e, (Var, PatternVar))}

    def __repr__(self) -> str:
        return f"Predicate({self})"

    def __str__(self) -> str:
        return f"{render_expr(self.left)} {self.op} {render_expr(self.right)}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )


class FunctionCall:
    """An external function call: ``C is city(Add)``.

    ``result`` is ``None`` for boolean external predicates used directly
    as filters (``sameaddress(Add, C, Add2)``) and for effectful calls
    such as the exception function of Section 3.5.
    """

    __slots__ = ("result", "function", "args")

    def __init__(
        self, result: Optional[Var], function: str, args: Sequence[Expr] = ()
    ) -> None:
        self.result = result
        self.function = function
        self.args = tuple(args)

    def variables(self) -> Set[Union[Var, PatternVar]]:
        found = {a for a in self.args if isinstance(a, (Var, PatternVar))}
        if self.result is not None:
            found.add(self.result)
        return found

    def __repr__(self) -> str:
        return f"FunctionCall({self})"

    def __str__(self) -> str:
        call = f"{self.function}({', '.join(render_expr(a) for a in self.args)})"
        if self.result is None:
            return call
        return f"{self.result.name} is {call}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionCall)
            and other.result == self.result
            and other.function == self.function
            and other.args == self.args
        )


class HeadPattern:
    """The head of a rule: a Skolem-named pattern ``Psup(SN) : tree``."""

    __slots__ = ("term", "tree")

    def __init__(self, term: Union[NameTerm, str], tree: PChild) -> None:
        if isinstance(term, str):
            term = NameTerm(term)
        self.term = term
        self.tree = tree

    def variables(self) -> Set[Union[Var, PatternVar]]:
        return set(self.term.args) | collect_variables(self.tree)

    def skolem_occurrences(self) -> List[Tuple[NameTerm, bool]]:
        """All Skolem terms in the head tree as (term, is_reference)."""
        return collect_name_terms(self.tree)

    def __repr__(self) -> str:
        return f"HeadPattern({self.term!r})"

    def __str__(self) -> str:
        return f"{self.term} :\n{render_pattern_tree(self.tree, indent=2)}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HeadPattern)
            and other.term == self.term
            and other.tree == self.tree
        )


class Rule:
    """A YATL rule. ``head`` is ``None`` for empty-head rules, which act
    as fallbacks applied only when no other rule matches (Section 3.5)."""

    def __init__(
        self,
        name: str,
        head: Optional[HeadPattern],
        body: Sequence[BodyPattern],
        predicates: Sequence[Predicate] = (),
        calls: Sequence[FunctionCall] = (),
    ) -> None:
        if not body:
            raise ModelError(f"rule {name!r} needs at least one body pattern")
        self.name = name
        self.head = head
        # A `&Name` reference in a body whose target names a body pattern
        # of the same rule is a *binding* reference: matching follows the
        # reference and the named pattern constrains the referenced tree
        # (rule Web6). Normalizing here keeps programmatic construction
        # and parsing consistent.
        body_names = {bp.name.name for bp in body}
        self.body = [
            BodyPattern(bp.name, bind_body_refs(bp.tree, body_names))
            for bp in body
        ]
        self.predicates = list(predicates)
        self.calls = list(calls)

    # -- analysis -----------------------------------------------------------

    @property
    def is_fallback(self) -> bool:
        return self.head is None

    @property
    def head_functor(self) -> Optional[str]:
        return self.head.term.functor if self.head is not None else None

    def variables(self) -> Set[Union[Var, PatternVar]]:
        found: Set[Union[Var, PatternVar]] = set()
        for item in self.body:
            found |= item.variables()
        for item in self.predicates:
            found |= item.variables()
        for item in self.calls:
            found |= item.variables()
        if self.head is not None:
            found |= self.head.variables()
        return found

    def head_skolems(self) -> List[Tuple[NameTerm, bool]]:
        """Skolem terms appearing in the head: the head's own term plus
        every (term, is_reference) occurrence inside the head tree."""
        if self.head is None:
            return []
        return [(self.head.term, False)] + self.head.skolem_occurrences()

    def root_body_patterns(self) -> List[BodyPattern]:
        """Body patterns whose name is *not* bound by some other body
        pattern's leaf — these range over the input set; the others match
        trees bound by reference or pattern-variable leaves."""
        bound_elsewhere: Set[str] = set()
        for bp in self.body:
            for var in collect_variables(bp.tree):
                if isinstance(var, PatternVar):
                    bound_elsewhere.add(var.name)
        return [bp for bp in self.body if bp.name.name not in bound_elsewhere]

    def __repr__(self) -> str:
        return f"Rule({self.name!r})"

    def __str__(self) -> str:
        from .printer import render_rule  # deferred: printer imports ast

        return render_rule(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and other.name == self.name
            and other.head == self.head
            and other.body == self.body
            and other.predicates == self.predicates
            and other.calls == self.calls
        )


def bind_body_refs(tree: PChild, body_names: Set[str]) -> PChild:
    """Rewrite ``&Name`` reference leaves whose target names a body
    pattern into pattern-variable references (see :class:`Rule`)."""
    from ..core.patterns import PEdge, PNode  # local to avoid re-export noise

    if isinstance(tree, PRefLeaf):
        target = tree.target
        if (
            isinstance(target, NameTerm)
            and not target.args
            and target.functor in body_names
        ):
            return PRefLeaf(PatternVar(target.functor))
        return tree
    if isinstance(tree, PNode):
        edges = [
            edge.with_target(bind_body_refs(edge.target, body_names))
            for edge in tree.edges
        ]
        if edges == list(tree.edges):
            return tree
        return PNode(tree.label, edges)
    return tree


def make_expr(value: object) -> Expr:
    """Coerce a Python value into an expression (string → variable if it
    starts uppercase, else symbol is *not* assumed: plain strings are
    string atoms; use ``Var``/``Symbol`` for anything else)."""
    if isinstance(value, (Var, PatternVar)):
        return value
    if is_label(value):
        return value
    raise ModelError(f"invalid expression: {value!r}")
