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
* several body patterns join through shared variables (Rule 3), and a
  body pattern whose name is bound by a ``&``-leaf of another pattern
  matches the *referenced* tree (rule Web6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.instantiation import InstantiationContext, is_instance
from ..core.patterns import (
    GROUP,
    INDEX,
    ONE,
    ORDER,
    STAR,
    NameTerm,
    PChild,
    PNameLeaf,
    PRefLeaf,
    PVarLeaf,
)
from ..core.trees import DataStore, Ref, Tree
from ..core.variables import Var
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
        # Memoized structural coverage: (pattern id, data node) -> bool.
        # Used when a collection child conflicts with bound join
        # variables and only shape matters (see match_edges).
        self._coverage: Dict[Tuple[int, Union[Tree, Ref]], bool] = {}
        # Memo-effectiveness accounting. A plain int: the probe runs
        # per (pattern, subject) pair, so the interpreter flushes it
        # into the run's MetricsRegistry once, at the end.
        #
        # There used to be a second memo here, over *root* match
        # failures. With the dispatch index on, candidates are
        # label-filtered before they reach the matcher, so the memo
        # never fired (the dispatch-index benchmark measured
        # root_memo_hits == 0 at a 1.0 dispatch hit ratio) while every
        # root rejection still paid a set insert keyed by a full
        # subject hash. It was removed rather than made index-aware;
        # tests/yatl/test_dispatch.py pins the removal.
        self.coverage_memo_hits = 0

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
    """Memoized structural coverage: does *child* match the shape of
    *target* under a fresh binding?"""
    key = (id(target), child)
    cached = ctx._coverage.get(key)
    if cached is None:
        cached = bool(match_child(target, child, Binding.EMPTY, ctx))
        ctx._coverage[key] = cached
    else:
        ctx.coverage_memo_hits += 1
    return cached


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
    matches the target's *shape* but conflicts with already-bound join
    variables (Rule 3's shared ``SN``) is covered without contributing.
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
    match the tree their name variable is already bound to."""
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
        names = ", ".join(bp.name.name for bp in pending)
        raise EvaluationError(
            f"rule {rule.name!r}: body pattern(s) {names} depend on names "
            f"never bound by any other pattern"
        )
    return dedup_bindings(envs)


def _apply_body_pattern(
    bp: BodyPattern,
    is_root: bool,
    envs: List[Binding],
    input_trees: Sequence[Union[Tree, Ref]],
    ctx: MatchContext,
) -> List[Binding]:
    extended: List[Binding] = []
    for env in envs:
        bound = env.get(bp.name)
        if bound is not None:
            candidates = [bound]
        elif is_root:
            candidates = list(input_trees)
        else:
            continue  # dependent pattern with an unbound name: no match
        for candidate in candidates:
            if not isinstance(candidate, (Tree, Ref)):
                continue
            named = env.bind(bp.name, candidate)
            if named is None:
                continue
            matches = match_child(bp.tree, candidate, named, ctx)
            if not matches and isinstance(candidate, Ref):
                # A pattern over the *referenced* tree: follow the
                # reference when the direct (reference-leaf) match fails.
                resolved = ctx.resolve(candidate)
                if resolved is not None:
                    renamed = env.bind(bp.name, resolved)
                    if renamed is not None:
                        matches = match_child(bp.tree, resolved, renamed, ctx)
            extended.extend(matches)
    return extended
