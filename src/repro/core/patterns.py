"""Patterns and pattern trees of the YAT model (Section 2).

A *pattern* is identified by a name and defined by a union of *pattern
trees*. A pattern tree is an ordered tree whose nodes are labeled with
data variables or constants; leaves may additionally be labeled with

* pattern names (``Ptype``) — dereferencing, i.e. the leaf will be
  instantiated by a pattern tree (deeply recursive structures);
* references to pattern names (``&Pclass``) — object-style references
  allowing sharing and cyclic structures;
* pattern variables (``P2 : Ptype``) — standing for whole subtrees.

Edges carry *indicators of occurrence*. The paper's body/model
indicators are the empty indicator (exactly one occurrence) and ``*``
(zero or more). Rule heads add the collection-building indicators of
Section 3.3: ``{}`` (grouping with duplicate elimination, no order) and
``[crit]`` (grouping plus ordering on a criterion), and Rule 5 uses
*index edges* ``(I)`` that bind the position of a child.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..errors import ModelError
from .labels import Label, Symbol, is_label, label_repr
from .variables import ANY, Domain, PatternVar, Var

# ---------------------------------------------------------------------------
# Edge kinds
# ---------------------------------------------------------------------------

ONE = "one"  # empty indicator: exactly one occurrence
STAR = "star"  # '*': zero or more occurrences / implicit grouping (head)
GROUP = "group"  # '{}': grouping with duplicate elimination (head only)
ORDER = "order"  # '[crit]': grouping + ordering on criteria (head only)
INDEX = "index"  # '(I)': star edge binding each child's position

EDGE_KINDS = (ONE, STAR, GROUP, ORDER, INDEX)

# ---------------------------------------------------------------------------
# Name terms (pattern names, possibly parameterized by Skolem arguments)
# ---------------------------------------------------------------------------


class NameTerm:
    """A pattern-name occurrence, e.g. ``Psup``, ``Psup(SN)``, ``Pcar(Pbr)``.

    Parameterized names are the paper's explicit Skolem functions: the
    functor is global to a program and the arguments are data or pattern
    variables — or constants, which program instantiation (Section 4.1)
    produces by folding arguments that specialize to known values. A
    :class:`NameTerm` with no arguments denotes the plain pattern name
    used at the model level.
    """

    __slots__ = ("functor", "args")

    def __init__(
        self, functor: str, args: Sequence[Union[Var, PatternVar, Label]] = ()
    ) -> None:
        if not functor or not functor[0].isupper():
            raise ModelError(
                f"pattern names start with an uppercase letter: {functor!r}"
            )
        self.functor = functor
        self.args = tuple(args)

    def variables(self) -> List[Union[Var, PatternVar]]:
        return [a for a in self.args if isinstance(a, (Var, PatternVar))]

    def __repr__(self) -> str:
        return f"NameTerm({self.functor!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        rendered = [
            str(a) if isinstance(a, (Var, PatternVar)) else label_repr(a)
            for a in self.args
        ]
        return f"{self.functor}({', '.join(rendered)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NameTerm)
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash((NameTerm, self.functor, self.args))


# ---------------------------------------------------------------------------
# Pattern tree nodes
# ---------------------------------------------------------------------------

PChild = Union["PNode", "PNameLeaf", "PRefLeaf", "PVarLeaf"]


class PEdge:
    """An edge of a pattern tree, carrying an occurrence indicator."""

    __slots__ = ("kind", "target", "criteria", "index_var")

    def __init__(
        self,
        kind: str,
        target: PChild,
        criteria: Sequence[Var] = (),
        index_var: Optional[Var] = None,
    ) -> None:
        if kind not in EDGE_KINDS:
            raise ModelError(f"unknown edge kind {kind!r}")
        if kind == ORDER and not criteria:
            raise ModelError("an ordering edge needs at least one criterion")
        if kind == INDEX and index_var is None:
            raise ModelError("an index edge needs an index variable")
        if kind != ORDER and criteria:
            raise ModelError("criteria are only allowed on ordering edges")
        if kind != INDEX and index_var is not None:
            raise ModelError("an index variable is only allowed on index edges")
        self.kind = kind
        self.target = target
        self.criteria = tuple(criteria)
        self.index_var = index_var

    def with_target(self, target: PChild) -> "PEdge":
        return PEdge(self.kind, target, self.criteria, self.index_var)

    def indicator(self) -> str:
        """The edge indicator in textual syntax (``->``, ``*->``, ...)."""
        if self.kind == ONE:
            return "->"
        if self.kind == STAR:
            return "*->"
        if self.kind == GROUP:
            return "{}->"
        if self.kind == ORDER:
            return "[" + ",".join(var.name for var in self.criteria) + "]->"
        return f"({self.index_var.name})->"

    def __repr__(self) -> str:
        return f"PEdge({self.indicator()!r}, {self.target!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PEdge)
            and other.kind == self.kind
            and other.criteria == self.criteria
            and other.index_var == self.index_var
            and other.target == self.target
        )

    def __hash__(self) -> int:
        return hash((PEdge, self.kind, self.criteria, self.index_var, self.target))


class PNode:
    """An internal (or constant leaf) pattern-tree node.

    The label is a constant or a data variable; children hang off
    :class:`PEdge` objects.
    """

    __slots__ = ("label", "edges")

    def __init__(self, label: Union[Label, Var], edges: Sequence[PEdge] = ()) -> None:
        if not (is_label(label) or isinstance(label, Var)):
            raise ModelError(f"invalid pattern node label: {label!r}")
        self.label = label
        self.edges = tuple(edges)

    @property
    def is_leaf(self) -> bool:
        return not self.edges

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"PNode({self.label!r})"
        return f"PNode({self.label!r}, {list(self.edges)!r})"

    def __str__(self) -> str:
        return render_pattern_tree(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PNode)
            and other.label == self.label
            and other.edges == self.edges
        )

    def __hash__(self) -> int:
        return hash((PNode, self.label, self.edges))


class PNameLeaf:
    """A leaf labeled with a pattern name — dereferencing.

    At the model level this expresses deep recursion (``Ptype`` inside
    ``Ptype``); in a rule head ``Psup(SN)`` splices the value associated
    to the Skolem term in place of the leaf.
    """

    __slots__ = ("term",)

    def __init__(self, term: NameTerm) -> None:
        self.term = term

    def __repr__(self) -> str:
        return f"PNameLeaf({self.term!r})"

    def __str__(self) -> str:
        return str(self.term)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PNameLeaf) and other.term == self.term

    def __hash__(self) -> int:
        return hash((PNameLeaf, self.term))


class PRefLeaf:
    """A leaf holding a reference (``&``) to a pattern name or variable.

    ``&Psup(SN)`` in a head creates a reference to the Skolem-identified
    value; ``&Pobj`` in a body matches a reference node and binds the
    pattern variable to the *referenced* tree.
    """

    __slots__ = ("target",)

    def __init__(self, target: Union[NameTerm, PatternVar]) -> None:
        self.target = target

    def __repr__(self) -> str:
        return f"PRefLeaf({self.target!r})"

    def __str__(self) -> str:
        return f"&{self.target}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PRefLeaf) and other.target == self.target

    def __hash__(self) -> int:
        return hash((PRefLeaf, self.target))


class PVarLeaf:
    """A leaf holding a pattern variable, e.g. ``Data`` or ``P2 : Ptype``."""

    __slots__ = ("var",)

    def __init__(self, var: PatternVar) -> None:
        self.var = var

    def __repr__(self) -> str:
        return f"PVarLeaf({self.var!r})"

    def __str__(self) -> str:
        return str(self.var)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PVarLeaf) and other.var == self.var

    def __hash__(self) -> int:
        return hash((PVarLeaf, self.var))


# ---------------------------------------------------------------------------
# Pattern (model level): a named union of pattern trees
# ---------------------------------------------------------------------------


class Pattern:
    """A named pattern: a union of pattern trees (Section 2).

    A pattern whose value is a single tree, contains no variable and
    whose edges are all plain is *ground* — it can only be instantiated
    by itself and represents real data.
    """

    __slots__ = ("name", "alternatives")

    def __init__(self, name: str, alternatives: Sequence[PChild]) -> None:
        if not alternatives:
            raise ModelError(f"pattern {name!r} needs at least one alternative")
        if not name or not name[0].isupper():
            raise ModelError(
                f"pattern names start with an uppercase letter: {name!r}"
            )
        self.name = name
        self.alternatives = tuple(alternatives)

    @property
    def is_union(self) -> bool:
        return len(self.alternatives) > 1

    def is_ground(self) -> bool:
        if self.is_union:
            return False
        return _is_ground_child(self.alternatives[0])

    def variables(self) -> Set[Union[Var, PatternVar]]:
        found: Set[Union[Var, PatternVar]] = set()
        for alt in self.alternatives:
            found |= collect_variables(alt)
        return found

    def referenced_names(self) -> Set[str]:
        """Pattern names this pattern mentions (deref or ref leaves)."""
        names: Set[str] = set()
        for alt in self.alternatives:
            for child in walk(alt):
                if isinstance(child, PNameLeaf):
                    names.add(child.term.functor)
                elif isinstance(child, PRefLeaf) and isinstance(
                    child.target, NameTerm
                ):
                    names.add(child.target.functor)
                elif isinstance(child, PVarLeaf) and child.var.domain_pattern:
                    names.add(child.var.domain_pattern)
        return names

    def __repr__(self) -> str:
        return f"Pattern({self.name!r}, {len(self.alternatives)} alternative(s))"

    def __str__(self) -> str:
        body = "\n | ".join(render_pattern_tree(alt) for alt in self.alternatives)
        return f"{self.name} : {body}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Pattern)
            and other.name == self.name
            and other.alternatives == self.alternatives
        )

    def __hash__(self) -> int:
        return hash((Pattern, self.name, self.alternatives))


# ---------------------------------------------------------------------------
# Traversal and analysis helpers
# ---------------------------------------------------------------------------


def walk(node: PChild) -> Iterator[PChild]:
    """Yield *node* and all its descendants, preorder."""
    stack: List[PChild] = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, PNode):
            for edge in reversed(current.edges):
                stack.append(edge.target)


def walk_edges(node: PChild) -> Iterator[PEdge]:
    """Yield every edge of the pattern tree rooted at *node*, preorder."""
    for current in walk(node):
        if isinstance(current, PNode):
            yield from current.edges


def collect_variables(node: PChild) -> Set[Union[Var, PatternVar]]:
    """All data and pattern variables occurring in the tree (labels,
    edge criteria, index variables, name-term arguments, leaves)."""
    found: Set[Union[Var, PatternVar]] = set()
    for current in walk(node):
        if isinstance(current, PNode):
            if isinstance(current.label, Var):
                found.add(current.label)
            for edge in current.edges:
                found.update(edge.criteria)
                if edge.index_var is not None:
                    found.add(edge.index_var)
        elif isinstance(current, PVarLeaf):
            found.add(current.var)
        elif isinstance(current, PNameLeaf):
            found.update(current.term.variables())
        elif isinstance(current, PRefLeaf):
            if isinstance(current.target, NameTerm):
                found.update(current.target.variables())
            else:
                found.add(current.target)
    return found


def collect_name_terms(node: PChild) -> List[Tuple[NameTerm, bool]]:
    """All name-term occurrences as ``(term, is_reference)`` pairs."""
    terms: List[Tuple[NameTerm, bool]] = []
    for current in walk(node):
        if isinstance(current, PNameLeaf):
            terms.append((current.term, False))
        elif isinstance(current, PRefLeaf) and isinstance(current.target, NameTerm):
            terms.append((current.target, True))
    return terms


def _is_ground_child(node: PChild) -> bool:
    for current in walk(node):
        if isinstance(current, (PVarLeaf, PNameLeaf, PRefLeaf)):
            # references to *names* are allowed in ground data (e.g. &s1);
            # only variable targets make the pattern non-ground.
            if isinstance(current, PRefLeaf) and isinstance(
                current.target, NameTerm
            ):
                if current.target.args:
                    return False
                continue
            return False
        if isinstance(current.label, Var):
            return False
        for edge in current.edges:
            if edge.kind != ONE:
                return False
    return True


def is_ground(node: PChild) -> bool:
    """True if the pattern tree contains no variable, union or non-plain
    edge — i.e. it denotes a single data tree."""
    return _is_ground_child(node)


def rename_variables(node: PChild, mapping: Dict[str, str]) -> PChild:
    """Rebuild the tree with variables renamed according to *mapping*.

    Used by program instantiation (Section 4.1), where merging several
    rules requires "appropriate renaming of variables ... to avoid
    conflicts". Variables absent from the mapping are kept.
    """

    def rename_var(var: Var) -> Var:
        new_name = mapping.get(var.name)
        return Var(new_name, var.domain) if new_name else var

    def rename_pvar(pvar: PatternVar) -> PatternVar:
        new_name = mapping.get(pvar.name)
        return PatternVar(new_name, pvar.domain_pattern) if new_name else pvar

    def rename_term(term: NameTerm) -> NameTerm:
        new_args = []
        for arg in term.args:
            if isinstance(arg, Var):
                new_args.append(rename_var(arg))
            elif isinstance(arg, PatternVar):
                new_args.append(rename_pvar(arg))
            else:
                new_args.append(arg)  # constant argument
        return NameTerm(term.functor, new_args)

    def rec(current: PChild) -> PChild:
        if isinstance(current, PNode):
            label = (
                rename_var(current.label)
                if isinstance(current.label, Var)
                else current.label
            )
            edges = []
            for edge in current.edges:
                criteria = tuple(rename_var(c) for c in edge.criteria)
                index_var = (
                    rename_var(edge.index_var) if edge.index_var is not None else None
                )
                edges.append(PEdge(edge.kind, rec(edge.target), criteria, index_var))
            return PNode(label, edges)
        if isinstance(current, PVarLeaf):
            return PVarLeaf(rename_pvar(current.var))
        if isinstance(current, PNameLeaf):
            return PNameLeaf(rename_term(current.term))
        if isinstance(current, PRefLeaf):
            if isinstance(current.target, NameTerm):
                return PRefLeaf(rename_term(current.target))
            return PRefLeaf(rename_pvar(current.target))
        raise ModelError(f"unknown pattern node: {current!r}")

    return rec(node)


# ---------------------------------------------------------------------------
# Construction helpers (programmatic builder API)
# ---------------------------------------------------------------------------


def pnode(label: Union[Label, Var, str], *edges: Union[PEdge, PChild]) -> PNode:
    """Build a pattern node; bare strings become symbols and bare
    children get a plain edge::

        pnode("class", pnode("supplier",
              edge_one(pnode("name", var("SN")))))
    """
    if isinstance(label, str):
        label = Symbol(label)
    built: List[PEdge] = []
    for item in edges:
        if isinstance(item, PEdge):
            built.append(item)
        else:
            built.append(PEdge(ONE, item))
    return PNode(label, built)


def var(name: str, domain: Domain = ANY) -> PNode:
    """A leaf labeled with a data variable."""
    return PNode(Var(name, domain))


def pvar(name: str, domain_pattern: Optional[str] = None) -> PVarLeaf:
    """A pattern-variable leaf (``P2 : Ptype``)."""
    return PVarLeaf(PatternVar(name, domain_pattern))


def name_leaf(functor: str, *args: Union[Var, PatternVar, str]) -> PNameLeaf:
    """A dereferencing pattern-name leaf (``Psup(SN)``).

    Bare strings in *args* are interpreted as data variable names.
    """
    return PNameLeaf(NameTerm(functor, _coerce_args(args)))


def ref_leaf(functor: str, *args: Union[Var, PatternVar, str]) -> PRefLeaf:
    """A reference leaf (``&Psup(SN)``)."""
    return PRefLeaf(NameTerm(functor, _coerce_args(args)))


def ref_var(name: str, domain_pattern: Optional[str] = None) -> PRefLeaf:
    """A reference leaf targeting a pattern variable (``&Pobj``)."""
    return PRefLeaf(PatternVar(name, domain_pattern))


def _coerce_args(args: Sequence[Union[Var, PatternVar, str]]) -> List[
    Union[Var, PatternVar]
]:
    coerced: List[Union[Var, PatternVar]] = []
    for item in args:
        if isinstance(item, str):
            coerced.append(Var(item))
        else:
            coerced.append(item)
    return coerced


def edge_one(target: PChild) -> PEdge:
    """A plain edge: exactly one occurrence."""
    return PEdge(ONE, target)


def edge_star(target: PChild) -> PEdge:
    """A ``*`` edge: zero or more occurrences / implicit grouping."""
    return PEdge(STAR, target)


def edge_group(target: PChild) -> PEdge:
    """A ``{}`` edge: grouping with duplicate elimination (head only)."""
    return PEdge(GROUP, target)


def edge_order(target: PChild, *criteria: Union[Var, str]) -> PEdge:
    """An ``[crit]`` edge: grouping + ordering on criteria (head only)."""
    crits = [Var(c) if isinstance(c, str) else c for c in criteria]
    return PEdge(ORDER, target, criteria=crits)


def edge_index(target: PChild, index: Union[Var, str]) -> PEdge:
    """An index edge ``(I)`` binding each child's position (Rule 5)."""
    idx = Var(index) if isinstance(index, str) else index
    return PEdge(INDEX, target, index_var=idx)


# ---------------------------------------------------------------------------
# Rendering (textual syntax)
# ---------------------------------------------------------------------------


def render_pattern_tree(node: PChild, indent: int = 0, step: int = 2) -> str:
    """Render a pattern tree in YAT textual syntax."""
    pad = " " * indent
    if isinstance(node, PVarLeaf):
        # the explicit ^ keeps untyped pattern variables re-parseable
        return pad + "^" + str(node.var)
    if isinstance(node, PNameLeaf):
        return pad + str(node.term)
    if isinstance(node, PRefLeaf):
        return pad + "&" + str(node.target)
    # PNode
    label = node.label
    head = str(label) if isinstance(label, Var) else label_repr(label)
    if not node.edges:
        return pad + head
    if len(node.edges) == 1:
        edge = node.edges[0]
        target = render_pattern_tree(edge.target, 0, step)
        return f"{pad}{head} {edge.indicator()} {target}"
    lines = []
    for edge in node.edges:
        target = render_pattern_tree(edge.target, indent + step, step).lstrip()
        lines.append(f"{' ' * (indent + step)}{edge.indicator()} {target}")
    return f"{pad}{head} <\n" + ",\n".join(lines) + f"\n{pad}>"
