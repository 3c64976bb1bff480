"""Batch rule evaluation over the columnar arena.

The tree path matches rules against :class:`~repro.core.trees.Tree`
objects, pointer-chasing one subject at a time. This module is its
columnar counterpart for :class:`~repro.core.arena.ArenaStore` inputs:
a rule receives the candidate *root indices* its dispatch signature
admits (:class:`~repro.yatl.dispatch.RootView`, shared with the tree
path), root-pattern matching runs as flat comparisons over the
``labels``/``n_children`` columns, and head construction replays the
grouping semantics of :mod:`repro.yatl.construction` over plain value
tuples. Rules the compiler cannot express as a flat op program fall
back to the general matcher over materialized candidates (and only
those candidates are ever decoded into trees).

A compiled rule supplies only its columnar work: rows
(:meth:`FastRule.scan`, in candidate order, deduplicated with Python
``==`` so ``1``/``True``/``1.0`` conflate as in binding dedup), Skolem
groups (:meth:`FastRule.skolem_groups`) and a head builder. The run
state in :mod:`repro.yatl.interpreter` calls them from the same phase
shell and construction loop as the tree path and does all of the
accounting — spans, per-rule metrics, provenance, hierarchy shadowing
through the root ledger — so a run over an :class:`ArenaStore` stays
byte-identical, record included, to the same run over the equivalent
:class:`~repro.core.trees.DataStore`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.arena import K_REF, label_alias_ids
from ..core.labels import label_sort_key
from ..core.patterns import (
    GROUP,
    INDEX,
    ONE,
    STAR,
    PNode,
    collect_variables,
)
from ..core.trees import Tree
from ..core.variables import AnyDomain, AtomTypeDomain, PatternVar, UnionDomain, Var
from ..errors import NonDeterminismError
from .ast import Rule

_MISSING = object()

# Flat matcher opcodes. ``rel`` is the node's preorder offset relative
# to the candidate root: with every arity pinned by the pattern (all
# edges are ONE), each pattern node sits at a *fixed* relative offset,
# so one pass of integer comparisons replaces the recursive matcher.
OP_FIX = 0  # (OP_FIX, rel, label_id, n_children): exact label + arity
OP_FIXM = 1  # (OP_FIXM, rel, ids, n_children): label in ids (1 == True == 1.0)
OP_VAR = 2  # (OP_VAR, rel, slot, domain): leaf label binds a variable


class FastRule:
    """One rule compiled to a flat op program plus a head builder."""

    __slots__ = ("ops", "n_slots", "head_term", "functor", "skolem_args", "build")

    def __init__(self, rule, ops, n_slots, skolem_parts, build):
        self.ops = ops
        self.n_slots = n_slots
        self.head_term = rule.head.term
        self.functor = rule.head.term.functor
        self.skolem_args = _compile_skolem_args(skolem_parts)
        self.build = build

    def match_block(self, labels, kinds, n_children, values_by_id, base):
        """Match the op program against the subtree at *base*; the slot
        value tuple on success, None on the first failing comparison.
        ``values_by_id`` is the intern table's raw id -> value list.

        Positions are trusted inductively: every op validates its own
        node's arity before any later op relies on an offset computed
        from it, so a mismatching subject fails before an out-of-shape
        read can happen.
        """
        values: Optional[List[object]] = None
        for op in self.ops:
            code = op[0]
            pos = base + op[1]
            if code == OP_FIX:
                if labels[pos] != op[2] or n_children[pos] != op[3]:
                    return None
            elif code == OP_FIXM:
                if labels[pos] not in op[2] or n_children[pos] != op[3]:
                    return None
            else:  # OP_VAR
                if kinds[pos] == K_REF or n_children[pos] != 0:
                    return None
                value = values_by_id[labels[pos]]
                domain = op[3]
                if domain is not None and not domain.contains(value):
                    return None
                if values is None:
                    values = [_MISSING] * self.n_slots
                slot = op[2]
                current = values[slot]
                if current is _MISSING:
                    values[slot] = value
                elif current != value:
                    return None  # repeated variable: Binding.bind conflict
        if values is None:
            return ()
        return tuple(values)

    def scan(
        self, arena, candidates: Sequence[int], converted: Set[int]
    ) -> List[Tuple[int, tuple]]:
        """Phase 1 over the candidate root indices: the op program run
        on each root, deduplicated, as ``(root index, slot tuple)`` rows
        in candidate order. A root dropped as a duplicate is added to
        *converted*."""
        labels = arena.labels
        kinds = arena.kinds
        n_children = arena.n_children
        roots = arena.roots
        values_by_id = arena.intern.raw_values()
        match = self.match_block
        rows: List[Tuple[int, tuple]] = []
        seen: Set[tuple] = set()
        for index in candidates:
            values = match(labels, kinds, n_children, values_by_id, roots[index])
            if values is None:
                continue
            # The slot tuple IS the dedup key: a fast rule pins every
            # fixed position up to Python ``==`` (exact id or alias set,
            # arities exact), so two admitted subjects are ``==`` iff
            # their slot tuples are — which is exactly the tree path's
            # Binding dedup, where the subject tree itself is bound to
            # the root pattern name and compared by value. A twin
            # dropped here is converted all the same: the root it
            # collapses into ends up converted, by this rule or by the
            # more specific rule that shadows it. No twin of an admitted
            # root fails the match either: that takes a numeric-typed
            # slot (`_types_numbers`).
            if values in seen:
                converted.add(index)
                continue
            seen.add(values)
            rows.append((index, values))
        return rows

    def skolem_groups(
        self, rows: List[Tuple[int, tuple]], id_for, on_skolem
    ) -> Dict[str, Tuple[List[tuple], List[int]]]:
        """Phase 4: *rows* grouped by Skolem identifier, in first
        encounter order, as identifier -> (slot tuples, root indices).
        ``id_for(functor, args)`` allocates each identifier and
        ``on_skolem(identifier, term, deref)`` reports it, as
        :class:`~repro.yatl.construction.Constructor` does."""
        functor = self.functor
        term = self.head_term
        skolem_args = self.skolem_args
        groups: Dict[str, Tuple[List[tuple], List[int]]] = {}
        for index, values in rows:
            identifier = id_for(functor, skolem_args(values))
            on_skolem(identifier, term, False)
            group = groups.get(identifier)
            if group is None:
                groups[identifier] = group = ([], [])
            group[0].append(values)
            group[1].append(index)
        return groups


def _compile_skolem_args(parts):
    """Specialize ``values -> Skolem argument tuple`` for the common
    all-slots shape (``itemgetter`` with two or more slots already
    returns the tuple directly)."""
    if not parts:
        return lambda values: ()
    if all(is_slot for is_slot, _ in parts):
        if len(parts) == 1:
            index = parts[0][1]
            return lambda values: (values[index],)
        return itemgetter(*(payload for _, payload in parts))

    def skolem_args(values):
        return tuple(
            values[payload] if is_slot else payload
            for is_slot, payload in parts
        )

    return skolem_args


# ---------------------------------------------------------------------------
# Body compilation
# ---------------------------------------------------------------------------


def _types_numbers(domain) -> bool:
    """Does *domain* test a numeric atom's type? Such a slot tells
    ``1``, ``1.0`` and ``True`` apart although trees holding them are
    ``==``. Every other op matches ``==`` roots alike, which lets
    ``FastRule.scan`` mark the twins its dedup folds as converted."""
    if isinstance(domain, UnionDomain):
        return any(_types_numbers(member) for member in domain.members)
    return isinstance(domain, AtomTypeDomain) and domain.type_name != "string"


def _compile_body_tree(tree, intern, slots):
    """Compile a body pattern tree to its op list, or None when it
    needs the general matcher (non-ONE edges, reference or pattern-name
    leaves, pattern variables, variable labels on interior nodes,
    numeric-typed variables)."""
    ops: List[tuple] = []

    def comp(node, rel):
        if not isinstance(node, PNode):
            return None
        label = node.label
        if isinstance(label, Var):
            if node.edges or _types_numbers(label.domain):
                return None
            slot = slots.get(label.name)
            if slot is None:
                slot = slots[label.name] = len(slots)
            domain = None if isinstance(label.domain, AnyDomain) else label.domain
            ops.append((OP_VAR, rel, slot, domain))
            return 1
        for edge in node.edges:
            if edge.kind != ONE:
                return None
        ids = label_alias_ids(intern, label)
        if len(ids) == 1:
            ops.append((OP_FIX, rel, next(iter(ids)), len(node.edges)))
        else:
            ops.append((OP_FIXM, rel, ids, len(node.edges)))
        size = 1
        for edge in node.edges:
            sub = comp(edge.target, rel + size)
            if sub is None:
                return None
            size += sub
        return size

    if comp(tree, 0) is None:
        return None
    return ops


# ---------------------------------------------------------------------------
# Head compilation
# ---------------------------------------------------------------------------


def _agree(rows, slot, what):
    """All rows of one Skolem group must agree on the slot — the exact
    agreement (and error message) of ``Constructor._agreed``."""
    first = rows[0][slot]
    if len(rows) == 1:
        return first
    for row in rows:
        value = row[slot]
        if value != first:
            raise NonDeterminismError(
                what,
                f"non-deterministic program: {what} takes two distinct "
                f"values ({first!r} and {value!r}) in one Skolem group",
            )
    return first


def _compile_head_tree(node, slots, intern):
    """Compile a head pattern tree to ``build(rows) -> Tree`` over slot
    value tuples, or None when construction needs bindings (pattern
    variables, Skolem leaves, references)."""
    compiled = _comp_head(node, slots, intern)
    if compiled is None:
        return None
    return compiled[0]


def _edge_children(edges, rows):
    """Child tuple for a mixed-edge node: constant edges reuse their
    prebuilt children, ONE edges contribute one node, grouped edges a
    list each."""
    children: List[Tree] = []
    for kind, build, const in edges:
        if const is not None:
            children.extend(const)
        elif kind == ONE:
            children.append(build(rows))
        else:
            children.extend(build(rows))
    return tuple(children)


def _comp_head(node, slots, intern):
    """Compile one head node to ``(build, const)`` where *const* is the
    shared result Tree when the subtree is fully ground (no slots), or
    None when construction needs bindings."""
    if not isinstance(node, PNode):
        return None
    label = node.label
    if isinstance(label, Var):
        slot = slots.get(label.name)
        if slot is None:
            return None
        what = f"variable {label.name}"
        if not node.edges:
            leaf_for = intern.leaf_for

            def build_leaf(rows):
                if len(rows) == 1:
                    return leaf_for(rows[0][slot])
                return leaf_for(_agree(rows, slot, what))

            return build_leaf, None
        edges = _comp_head_edges(node.edges, slots, intern)
        if edges is None:
            return None

        def build_var(rows):
            return Tree._make(
                _agree(rows, slot, what), _edge_children(edges, rows)
            )

        return build_var, None
    if not node.edges:
        leaf = Tree(label)
        return (lambda rows: leaf), leaf
    if len(node.edges) == 1 and node.edges[0].kind == ONE:
        # Fixed-label wrapper around one variable leaf — the
        # relational-attribute idiom (``-> id -> Id``) — fused into a
        # single frame instead of a wrapper + leaf builder pair.
        target = node.edges[0].target
        if (
            isinstance(target, PNode)
            and isinstance(target.label, Var)
            and not target.edges
        ):
            slot = slots.get(target.label.name)
            if slot is not None:
                what = f"variable {target.label.name}"
                leaf_for = intern.leaf_for

                def build_wrap(rows):
                    if len(rows) == 1:
                        return Tree._make(label, (leaf_for(rows[0][slot]),))
                    return Tree._make(
                        label, (leaf_for(_agree(rows, slot, what)),)
                    )

                return build_wrap, None
    edges = _comp_head_edges(node.edges, slots, intern)
    if edges is None:
        return None
    if all(const is not None for _kind, _build, const in edges):
        # Fully ground subtree: built once at compile time and shared
        # across every output (trees are immutable).
        shared = Tree(
            label, [child for _k, _b, const in edges for child in const]
        )
        return (lambda rows: shared), shared
    if all(kind == ONE for kind, _build, _const in edges):
        # All-ONE interior node: children built positionally, no
        # per-edge list hops; common arities unrolled (no genexpr).
        targets = [
            (lambda rows, c=const[0]: c) if const is not None else build
            for _kind, build, const in edges
        ]
        if len(targets) == 1:
            (t0,) = targets

            def build_ones(rows):
                return Tree._make(label, (t0(rows),))

        elif len(targets) == 2:
            t0, t1 = targets

            def build_ones(rows):
                return Tree._make(label, (t0(rows), t1(rows)))

        elif len(targets) == 3:
            t0, t1, t2 = targets

            def build_ones(rows):
                return Tree._make(label, (t0(rows), t1(rows), t2(rows)))

        else:

            def build_ones(rows):
                return Tree._make(label, tuple(t(rows) for t in targets))

        return build_ones, None

    def build_mixed(rows):
        return Tree._make(label, _edge_children(edges, rows))

    return build_mixed, None


def _comp_head_edges(edges, slots, intern):
    compiled = []
    for edge in edges:
        entry = _comp_head_edge(edge, slots, intern)
        if entry is None:
            return None
        compiled.append(entry)
    return compiled


def _comp_head_edge(edge, slots, intern):
    """Compile one head edge to ``(kind, build, const_children)``: ONE
    builders return the single child node, grouped builders the child
    list; *const_children* is the prebuilt tuple when the target is
    fully ground under a ONE edge."""
    compiled = _comp_head(edge.target, slots, intern)
    if compiled is None:
        return None
    target, const = compiled
    if edge.kind == ONE:
        return ONE, target, ((const,) if const is not None else None)
    if edge.kind == STAR:
        # Implicit grouping: one child per distinct projection of the
        # group onto the variables under the edge, first-encounter
        # order (Constructor._build_edge).
        names = sorted(var.name for var in collect_variables(edge.target))
        projection = [slots.get(name) for name in names]

        def build_star(rows):
            partitions: Dict[tuple, list] = {}
            order: List[tuple] = []
            for row in rows:
                key = tuple(
                    None if slot is None else row[slot] for slot in projection
                )
                part = partitions.get(key)
                if part is None:
                    partitions[key] = part = []
                    order.append(key)
                part.append(row)
            return [target(partitions[key]) for key in order]

        return STAR, build_star, None
    if edge.kind == GROUP:

        def build_group(rows):
            children = []
            seen = set()
            for row in rows:
                child = target([row])
                if child not in seen:
                    seen.add(child)
                    children.append(child)
            return children

        return GROUP, build_group, None
    # ORDER / INDEX: partition by the criteria, sort the partition keys.
    criteria = (
        [edge.index_var] if edge.kind == INDEX else list(edge.criteria)
    )
    projection = []
    for var in criteria:
        slot = slots.get(var.name)
        if slot is None:
            return None  # unbound criterion: leave to the tree path
        projection.append(slot)

    def build_order(rows):
        partitions: Dict[tuple, list] = {}
        order: List[tuple] = []
        for row in rows:
            key = tuple(row[slot] for slot in projection)
            part = partitions.get(key)
            if part is None:
                partitions[key] = part = []
                order.append(key)
            part.append(row)
        order.sort(key=lambda key: tuple(label_sort_key(v) for v in key))
        return [target(partitions[key]) for key in order]

    return edge.kind, build_order, None


def compile_fast_rule(rule: Rule, intern) -> Optional[FastRule]:
    """Compile *rule* for flat evaluation, or None when any part of it
    needs the general matcher/constructor (which stays authoritative)."""
    head = rule.head
    if head is None or rule.calls or rule.predicates:
        return None
    if len(rule.body) != 1:
        return None
    slots: Dict[str, int] = {}
    ops = _compile_body_tree(rule.body[0].tree, intern, slots)
    if ops is None:
        return None
    if ops[0][0] == OP_VAR:
        return None  # variable root label: no label to dispatch on
    skolem_parts = []
    for arg in head.term.args:
        if isinstance(arg, Var):
            slot = slots.get(arg.name)
            if slot is None:
                return None
            skolem_parts.append((True, slot))
        elif isinstance(arg, PatternVar):
            return None  # tree-valued Skolem argument: needs the binding
        else:
            skolem_parts.append((False, arg))
    for var in collect_variables(head.tree):
        if isinstance(var, PatternVar) or var.name not in slots:
            return None
    build = _compile_head_tree(head.tree, slots, intern)
    if build is None:
        return None
    return FastRule(rule, ops, len(slots), skolem_parts, build)
