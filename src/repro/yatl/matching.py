"""Body pattern matching (Section 3.1, phase 1).

Matching filters the input data: each body pattern is matched against
ground trees, producing the set of variable bindings the rest of the
rule machinery works on. The semantics follow Figure 3:

* plain edges consume exactly one child;
* ``*`` edges consume a run of children, **each** of which must match
  the edge's target and yields its own binding (one binding per
  supplier in Figure 3) — an empty run passes the current binding
  through unchanged, giving active-domain semantics for collections;
* index edges ``(I)`` behave like ``*`` and additionally bind the
  1-based position of each matched child (Rule 5);
* several body patterns join through shared variables (Rule 3): each
  root pattern is matched once per input tree and hash-joined with the
  bindings so far (see :func:`match_body`), and a body pattern whose
  name is bound by a ``&``-leaf of another pattern matches the
  *referenced* tree (rule Web6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.instantiation import InstantiationContext, is_instance
from ..core.patterns import (
    INDEX,
    ONE,
    NameTerm,
    PChild,
    PNameLeaf,
    PRefLeaf,
    PVarLeaf,
    collect_variables,
)
from ..core.trees import DataStore, Ref, Tree
from ..core.variables import PatternVar, Var
from ..errors import EvaluationError
from .ast import BodyPattern, Rule
from .bindings import Binding, dedup_bindings


class MatchContext:
    """What the matcher needs besides the pattern: the store (to follow
    references) and optionally a model (to check typed pattern
    variables and pattern-name leaves)."""

    def __init__(self, store: Optional[DataStore] = None, model=None) -> None:
        self.store = store
        self.model = model
        self._icontext: Optional[InstantiationContext] = None

    def instance_check(self, node: Union[Tree, Ref], pattern_name: str) -> bool:
        """Check *node* against a named model pattern; unresolvable
        names behave like wildcards (typing is optional, Section 3.5)."""
        if self.model is None:
            return True
        pattern = self.model.get_pattern(pattern_name)
        if pattern is None:
            return True
        if self._icontext is None:
            self._icontext = InstantiationContext(
                source_model=self.model, store=self.store
            )
        return is_instance(node, pattern, self._icontext)

    def resolve(self, ref: Ref) -> Optional[Tree]:
        if self.store is None:
            return None
        return self.store.get_optional(ref.target)


# ---------------------------------------------------------------------------
# Tree-level matching
# ---------------------------------------------------------------------------


def match_child(
    pattern: PChild,
    node: Union[Tree, Ref],
    binding: Binding,
    ctx: MatchContext,
) -> List[Binding]:
    """All extensions of *binding* under which *node* matches *pattern*."""

    # Pattern variable leaf: bind the whole subtree.
    if isinstance(pattern, PVarLeaf):
        domain = pattern.var.domain_pattern
        if domain is not None and not ctx.instance_check(node, domain):
            return []
        extended = binding.bind(pattern.var, node)
        return [extended] if extended is not None else []

    # Pattern-name leaf (dereferencing): a structural type check.
    if isinstance(pattern, PNameLeaf):
        if pattern.term.args:
            raise EvaluationError(
                f"Skolem term {pattern.term} cannot be matched in a body"
            )
        if ctx.instance_check(node, pattern.term.functor):
            return [binding]
        return []

    # Reference leaf: the data must be a reference.
    if isinstance(pattern, PRefLeaf):
        if not isinstance(node, Ref):
            return []
        target = pattern.target
        if isinstance(target, NameTerm):
            if target.args:
                raise EvaluationError(
                    f"Skolem reference &{target} cannot be matched in a body"
                )
            referenced = ctx.resolve(node)
            if referenced is None:
                return [binding]  # cannot check a dangling reference
            if ctx.instance_check(referenced, target.functor):
                return [binding]
            return []
        # pattern-variable target: bind the *referenced* tree
        referenced = ctx.resolve(node)
        if referenced is None:
            return []
        if target.domain_pattern is not None and not ctx.instance_check(
            referenced, target.domain_pattern
        ):
            return []
        extended = binding.bind(target, referenced)
        return [extended] if extended is not None else []

    # Ordinary node.
    if isinstance(node, Ref):
        return []
    label = pattern.label
    if isinstance(label, Var):
        if not label.domain.contains(node.label):
            return []
        extended = binding.bind(label, node.label)
        if extended is None:
            return []
        binding = extended
    elif label != node.label:
        return []
    if not pattern.edges and node.children:
        return []  # a pattern leaf only matches a data leaf
    return match_edges(pattern.edges, node.children, binding, ctx)


def _covers(target, child, ctx: MatchContext) -> bool:
    """Does *child* match the shape of *target* under the empty binding?"""
    return bool(match_child(target, child, Binding.EMPTY, ctx))


def match_edges(
    edges: Sequence,
    children: Sequence[Union[Tree, Ref]],
    binding: Binding,
    ctx: MatchContext,
) -> List[Binding]:
    """Align pattern edges with the ordered children of a data node.

    Every child must be consumed by some edge (full structural
    coverage, as in the instantiation semantics of Section 2). A
    star-like edge consumes a run of children; each child contributes
    its own bindings ("one binding per supplier"), and a child that
    matches the target's *shape* but conflicts with variables already
    bound is covered without contributing. :func:`match_body` matches
    a root pattern with only its name bound, so such a conflict is
    with an earlier edge of the same pattern (an index variable met
    twice selects a diagonal) or, in a dependent pattern, with the
    rule's other patterns.
    """
    results: List[Binding] = []
    n_edges, n_children = len(edges), len(children)

    def rec(ei: int, ci: int, env: Binding) -> None:
        if ei == n_edges:
            if ci == n_children:
                results.append(env)
            return
        edge = edges[ei]
        if edge.kind == ONE:
            if ci < n_children:
                for extended in match_child(edge.target, children[ci], env, ctx):
                    rec(ei + 1, ci + 1, extended)
            return
        # Star-like edges (STAR, INDEX, and GROUP/ORDER appearing in a
        # body behave as "zero or more"): try every run length,
        # matching each consumed child exactly once.
        remaining_one = sum(1 for e in edges[ei + 1 :] if e.kind == ONE)
        max_run = n_children - ci - remaining_one
        collected: List[Binding] = []
        rec(ei + 1, ci, env)  # run of length 0
        for offset in range(max_run):
            child = children[ci + offset]
            child_env = env
            if edge.kind == INDEX:
                bound = env.bind(edge.index_var, ci + offset + 1)
                if bound is None:
                    # an index conflict skips the child (diagonal
                    # selection); coverage still requires its shape
                    if not _covers(edge.target, child, ctx):
                        break
                    matches: List[Binding] = []
                else:
                    matches = match_child(edge.target, child, bound, ctx)
            else:
                matches = match_child(edge.target, child, child_env, ctx)
            if not matches:
                if not _covers(edge.target, child, ctx):
                    break  # structural mismatch: longer runs fail too
            collected.extend(matches)
            # a run whose children all conflicted with the join is
            # covered but contributes no bindings (collected empty)
            for extended in collected:
                rec(ei + 1, ci + offset + 1, extended)

    rec(0, 0, binding)
    return dedup_bindings(results)


# ---------------------------------------------------------------------------
# Rule-level matching
# ---------------------------------------------------------------------------


def match_body(
    rule: Rule,
    input_trees: Sequence[Union[Tree, Ref]],
    ctx: MatchContext,
) -> List[Binding]:
    """Phase 1: match every body pattern, joining on shared variables.

    *Root* body patterns (those whose name is not bound by a leaf of
    another pattern) range over the input trees; dependent patterns
    match the tree their name variable is already bound to.

    Root patterns are hash-joined. Bindings only prune, so a pattern's
    match under a binding equals its unconstrained match (only its name
    bound) merged with that binding. Coverage agrees too: under either
    form, a child that conflicts with the binding is covered exactly
    when it matches the pattern's shape under the empty binding. So
    each root pattern is matched once per input (:class:`_RootRows`)
    and each binding is merged with the rows that agree with it, in
    input order: the nested loop's bindings, in its order."""
    root_names = {bp.name.name for bp in rule.root_body_patterns()}
    envs: List[Binding] = [Binding.EMPTY]
    pending: List[BodyPattern] = list(rule.body)
    progress = True
    while pending and progress:
        progress = False
        still_pending: List[BodyPattern] = []
        for bp in pending:
            is_root = bp.name.name in root_names
            if not is_root and not any(bp.name in env for env in envs):
                still_pending.append(bp)
                continue
            envs = _apply_body_pattern(bp, is_root, envs, input_trees, ctx)
            progress = True
        pending = still_pending
        if not envs:
            return []
    if pending:
        # No binding binds these names. When a pattern reachable from the
        # roots could (say, under a `*` edge over an empty collection),
        # the inputs just do not match; when none could, the rule is wrong.
        reachable = set(root_names)
        for _ in rule.body:  # no chain of dependents is longer
            reachable.update(
                var.name
                for bp in rule.body
                if bp.name.name in reachable
                for var in collect_variables(bp.tree)
                if isinstance(var, PatternVar)
            )
        names = ", ".join(
            bp.name.name for bp in pending if bp.name.name not in reachable
        )
        if names:
            raise EvaluationError(
                f"rule {rule.name!r}: body pattern(s) {names} depend on names "
                f"never bound by any other pattern"
            )
        return []
    return dedup_bindings(envs)


def _apply_body_pattern(
    bp: BodyPattern,
    is_root: bool,
    envs: List[Binding],
    input_trees: Sequence[Union[Tree, Ref]],
    ctx: MatchContext,
) -> List[Binding]:
    extended: List[Binding] = []
    root_rows: Optional[_RootRows] = None
    for env in envs:
        bound = env.get(bp.name)
        if bound is not None:
            # the one tree the name is bound to (a dependent pattern)
            if isinstance(bound, (Tree, Ref)):
                extended.extend(match_child(bp.tree, bound, env, ctx))
        elif is_root:
            if root_rows is None:
                root_rows = _RootRows(bp, input_trees, ctx)
            extended.extend(root_rows.join(env))
    return extended


class _RootRows:
    """A root body pattern matched once per input tree, with only its
    name bound: ``(input position, via referent, row)`` entries in
    input order, bucketed on demand by the names a binding shares."""

    def __init__(
        self, bp: BodyPattern, input_trees: Sequence, ctx: MatchContext
    ) -> None:
        entries: List[Tuple[int, bool, Binding]] = []
        for position, candidate in enumerate(input_trees):
            if not isinstance(candidate, (Tree, Ref)):
                continue
            nodes = [(candidate, False)]
            if isinstance(candidate, Ref):
                # the referent's rows serve bindings the direct match fails
                resolved = ctx.resolve(candidate)
                if resolved is not None:
                    nodes.append((resolved, True))
            for node, via_referent in nodes:
                named = Binding.EMPTY.bind(bp.name, node)
                for row in match_child(bp.tree, node, named, ctx):
                    entries.append((position, via_referent, row))
        self.entries = entries
        # Only names every row binds key a bucket. Keys compare by hash and
        # ==, as bind does: a row in another bucket conflicts with the binding.
        self.names = set(entries[0][2].names() if entries else ())
        for entry in entries[1:]:
            self.names.intersection_update(entry[2].names())
        self.buckets: Dict[Tuple[str, ...], Dict[tuple, list]] = {}

    def join(self, env: Binding) -> List[Binding]:
        """*env* merged with every row that agrees with it, in input
        order; a referent's rows only where the direct rows failed."""
        shared = tuple(sorted(self.names.intersection(env.names())))
        rows = self.entries
        if shared:
            buckets = self.buckets.get(shared)
            if buckets is None:
                buckets = self.buckets[shared] = {}
                for entry in rows:
                    buckets.setdefault(entry[2].project(shared), []).append(entry)
            rows = buckets.get(env.project(shared), ())
        joined: List[Binding] = []
        direct_at = -1  # input position of the last direct row joined
        for position, via_referent, row in rows:
            if via_referent and position == direct_at:
                continue
            merged = env.merge(row)
            if merged is not None:
                joined.append(merged)
                if not via_referent:
                    direct_at = position
        return joined
