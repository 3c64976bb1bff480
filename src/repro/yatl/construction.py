"""Head construction (Section 3.1 phase 5, Section 3.3 collections).

Given the head pattern of a rule and the group of bindings sharing one
Skolem identifier, build the output tree:

* a plain edge produces exactly one child, on which all bindings of the
  group must agree (disagreement is the paper's non-determinism alert);
* a ``*`` edge produces one child per binding — implicit grouping
  *without* duplicate elimination (point 3 of Section 4.1);
* a ``{}`` edge produces one child per distinct value — grouping with
  duplicate elimination, "all distinct and in no specified order" (we
  refine "no specified order" to first-encounter order so runs are
  deterministic);
* an ``[crit]`` edge groups bindings by the criteria values and orders
  the children by them (Rule 4: ``list [SN]-> &Psup(SN)``);
* an index edge in a head orders by the index variable (Rule 5).

Skolem leaves become references: ``&Psup(SN)`` stays a reference in the
output; ``Psup(SN)`` without ``&`` is recorded for *dereferencing*,
"handled at the end of rules processing" by the interpreter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.labels import is_label, label_sort_key
from ..core.patterns import (
    GROUP,
    INDEX,
    ONE,
    STAR,
    NameTerm,
    PChild,
    PEdge,
    PNameLeaf,
    PRefLeaf,
    PVarLeaf,
    collect_variables,
)
from ..core.trees import Ref, Tree
from ..core.variables import PatternVar, Var
from ..errors import EvaluationError, NonDeterminismError
from .bindings import Binding, Value
from .skolem import SkolemTable

#: Prefix marking references that must be *spliced* (dereferenced) once
#: all rules have run, as opposed to genuine ``&`` references.
DEREF_MARK = "!deref!"


def deref_placeholder(identifier: str) -> Ref:
    return Ref(DEREF_MARK + identifier)


def is_deref_placeholder(ref: Ref) -> bool:
    return ref.target.startswith(DEREF_MARK)


def deref_target(ref: Ref) -> str:
    return ref.target[len(DEREF_MARK):]


class Unbound(Exception):
    """Internal signal: a variable needed by this subtree is unbound.

    Under collection edges the binding is skipped (active-domain
    semantics: a brochure with no supplier still yields a car with an
    empty supplier set); under a plain edge it aborts the whole group.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(name)


class Constructor:
    """Builds output trees for one program run.

    ``on_skolem`` is called for every Skolem term encountered in a head
    (both references and dereferences) with the allocated identifier and
    whether the occurrence needs dereferencing — the interpreter uses it
    to schedule demand-driven evaluation (Section 3.4's safe recursion).
    """

    def __init__(
        self,
        skolems: SkolemTable,
        on_skolem: Optional[Callable[[str, NameTerm, bool], None]] = None,
    ) -> None:
        self.skolems = skolems
        self.on_skolem = on_skolem

    # -- Skolem evaluation (phase 4) ----------------------------------------

    def skolem_args(self, term: NameTerm, binding: Binding) -> Tuple[Value, ...]:
        values: List[Value] = []
        for arg in term.args:
            if not isinstance(arg, (Var, PatternVar)):
                values.append(arg)  # constant-folded argument
                continue
            value = binding.get(arg)
            if value is None and arg not in binding:
                raise Unbound(arg.name)
            values.append(value)
        return tuple(values)

    def skolem_id(self, term: NameTerm, binding: Binding, deref: bool) -> str:
        identifier = self.skolems.id_for(term.functor, self.skolem_args(term, binding))
        if self.on_skolem is not None:
            self.on_skolem(identifier, term, deref)
        return identifier

    # -- construction (phase 5) ---------------------------------------------

    def construct(
        self, head_tree: PChild, group: Sequence[Binding]
    ) -> Union[Tree, Ref]:
        """Build the output tree for a group of bindings.

        Raises :class:`Unbound` if a plain part of the head cannot be
        built, and :class:`NonDeterminismError` if the group disagrees
        on a single-valued position. A head consisting solely of a
        (de)reference leaf yields a :class:`Ref`, resolved by the
        interpreter at the end of rules processing.
        """
        return self._build(head_tree, list(group))

    def _build(self, node: PChild, group: List[Binding]) -> Union[Tree, Ref]:
        if not group:
            raise Unbound("<empty group>")

        if isinstance(node, PVarLeaf):
            value = self._agreed(node.var, group, f"pattern variable {node.var.name}")
            return _as_child(value)

        if isinstance(node, PNameLeaf):
            identifier = self._agreed_skolem(node.term, group, deref=True)
            return deref_placeholder(identifier)

        if isinstance(node, PRefLeaf):
            target = node.target
            if isinstance(target, PatternVar):
                raise EvaluationError(
                    f"cannot build a reference to pattern variable {target.name} "
                    f"in a rule head"
                )
            identifier = self._agreed_skolem(target, group, deref=False)
            return Ref(identifier)

        # PNode
        label = node.label
        if isinstance(label, Var):
            label = self._agreed(label, group, f"variable {label.name}")
            if not is_label(label):
                raise EvaluationError(
                    f"variable {node.label.name} is bound to a tree but used "
                    f"as a node label"
                )
        if not node.edges:
            return Tree(label)
        children: List[Union[Tree, Ref]] = []
        for edge in node.edges:
            children.extend(self._build_edge(edge, group))
        return Tree(label, children)

    def _build_edge(self, edge: PEdge, group: List[Binding]) -> List[Union[Tree, Ref]]:
        if edge.kind == ONE:
            return [self._build(edge.target, group)]
        if edge.kind == STAR:
            # Implicit grouping (Section 4.1, point 3): one child per
            # distinct projection of the bindings onto the variables
            # occurring under the edge — join variables that do not
            # reach the target must not multiply children.
            names = sorted(var.name for var in collect_variables(edge.target))
            partitions: Dict[Tuple, List[Binding]] = {}
            order: List[Tuple] = []
            for binding in group:
                key = binding.project(names)
                if key not in partitions:
                    partitions[key] = []
                    order.append(key)
                partitions[key].append(binding)
            children = []
            for key in order:
                child = self._try_build(edge.target, partitions[key])
                if child is not None:
                    children.append(child)
            return children
        if edge.kind == GROUP:
            children = []
            seen = set()
            for binding in group:
                child = self._try_build(edge.target, [binding])
                if child is not None and child not in seen:
                    seen.add(child)
                    children.append(child)
            return children
        # ORDER / INDEX: group by criteria, sort by criteria.
        criteria = (
            [edge.index_var] if edge.kind == INDEX else list(edge.criteria)
        )
        names = [var.name for var in criteria]
        partitions: Dict[Tuple, List[Binding]] = {}
        order: List[Tuple] = []
        for binding in group:
            key = binding.project(names)
            if any(v is None and n not in binding for v, n in zip(key, names)):
                continue  # criteria unbound: skip this binding
            if key not in partitions:
                partitions[key] = []
                order.append(key)
            partitions[key].append(binding)
        order.sort(key=lambda key: tuple(label_sort_key(v) for v in key))
        children = []
        for key in order:
            child = self._try_build(edge.target, partitions[key])
            if child is not None:
                children.append(child)
        return children

    def _try_build(
        self, node: PChild, group: List[Binding]
    ) -> Optional[Union[Tree, Ref]]:
        try:
            return self._build(node, group)
        except Unbound:
            return None

    # -- agreement ----------------------------------------------------------

    def _agreed(
        self, var: Union[Var, PatternVar], group: List[Binding], what: str
    ) -> Value:
        first: Optional[Value] = None
        bound = False
        for binding in group:
            if var not in binding:
                continue
            value = binding[var]
            if not bound:
                first, bound = value, True
            elif value != first:
                raise NonDeterminismError(
                    what,
                    f"non-deterministic program: {what} takes two distinct "
                    f"values ({first!r} and {value!r}) in one Skolem group",
                )
        if not bound:
            raise Unbound(var.name)
        return first

    def _agreed_skolem(
        self, term: NameTerm, group: List[Binding], deref: bool
    ) -> str:
        identifiers = set()
        last: Optional[str] = None
        for binding in group:
            try:
                last = self.skolem_id(term, binding, deref)
            except Unbound:
                continue
            identifiers.add(last)
        if not identifiers:
            raise Unbound(str(term))
        if len(identifiers) > 1:
            raise NonDeterminismError(
                str(term),
                f"non-deterministic program: Skolem term {term} evaluates to "
                f"several identifiers in one group "
                f"({', '.join(sorted(identifiers))})",
            )
        return last  # type: ignore[return-value]


def _as_child(value: Value) -> Union[Tree, Ref]:
    if isinstance(value, (Tree, Ref)):
        return value
    return Tree(value)
