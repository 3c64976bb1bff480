"""Rule-dispatch indexing: pre-matching by root signature.

``apply_top_level`` used to match every rule against every input tree —
O(rules × inputs) body matching, which dominates runtime on realistic
stores. Scalable mediator engines index their rewrite rules by source
structure first; this module implements that pre-pass.

For each rule with a *single* root body pattern, we extract a
:class:`RootSignature` describing what ground trees the pattern's root
could possibly match:

* a constant root label → only trees with that exact label;
* a label variable with an enumerable domain (``X:(set|bag)``) → only
  trees whose label is in the enumeration;
* a label variable with a non-enumerable restricted domain
  (``C:symbol``) → a cheap ``domain.contains`` check on the label;
* the plain-edge count bounds the child count (a star-like edge makes
  it unbounded; a pattern leaf only matches a data leaf);
* a reference leaf root (``&Pobj``) only ever matches :class:`Ref`
  subjects.

Pattern-variable and pattern-name roots (``^Any``, ``Ptype``) and rules
with several root body patterns (joins like Rule 3) are *unindexed*:
they are attempted on every subject, exactly as before.

Signatures are **sound over-approximations**: when a signature rejects a
subject, the full matcher is guaranteed to reject it too, so filtering
candidates through the index never changes the produced bindings — only
how fast non-matches are discarded.

:class:`RootView` is where the interpreter applies them, over either
forest representation (a list of trees or an
:class:`~repro.core.arena.ArenaStore`): it hands each rule the
positions its signature admits. It is the one admission filter, for
top-level roots, the leftovers fallback rules choose from, and the
subjects of each demand round.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..core.arena import ArenaStore, InternTable, label_alias_ids
from ..core.labels import Label
from ..core.patterns import (
    ONE,
    PChild,
    PNameLeaf,
    PNode,
    PRefLeaf,
    PVarLeaf,
)
from ..core.trees import Ref, Tree
from ..core.variables import AnyDomain, Domain, EnumDomain, Var
from .ast import Rule

Subject = Union[Tree, Ref]

#: Marker for signatures that accept any subject (kept distinct from
#: ``None`` so a missing rule entry is detectable).
WILDCARD = None


class DispatchStats:
    """Per-run dispatch accounting, kept as plain ints that the
    interpreter flushes into the run's :class:`~repro.obs.MetricsRegistry`
    once, at the end.

    ``indexed_calls``/``unindexed_calls`` count selections
    (:meth:`RootView.select`) by indexed and wildcard rules, over
    top-level roots, leftovers and demand-round subjects alike;
    ``subjects_considered``/``subjects_admitted`` count the subjects an
    indexed rule was offered and the ones its signature admitted. The
    hit and candidate-reduction ratios are computed from the flushed
    totals, so shared registries aggregate them across runs.
    """

    __slots__ = (
        "indexed_calls",
        "unindexed_calls",
        "subjects_considered",
        "subjects_admitted",
    )

    def __init__(self) -> None:
        self.indexed_calls = 0
        self.unindexed_calls = 0
        self.subjects_considered = 0
        self.subjects_admitted = 0


class RootSignature:
    """What the root of a single-root body pattern can possibly match.

    ``labels`` is a frozen set of admissible root labels (``None`` means
    any label), ``domain`` an optional domain the label must belong to,
    ``min_children``/``unbounded`` the child-count constraint, and
    ``refs_only`` marks reference-leaf roots that never match a plain
    tree. :class:`Ref` subjects are always admitted — matching may
    follow the reference, and resolving it here would cost more than it
    saves.
    """

    __slots__ = ("labels", "domain", "min_children", "unbounded", "refs_only",
                 "_label_ids")

    def __init__(
        self,
        labels: Optional[FrozenSet[Label]] = None,
        domain: Optional[Domain] = None,
        min_children: int = 0,
        unbounded: bool = True,
        refs_only: bool = False,
    ) -> None:
        self.labels = labels
        self.domain = domain
        self.min_children = min_children
        self.unbounded = unbounded
        self.refs_only = refs_only
        self._label_ids: Optional[Tuple[int, FrozenSet[int]]] = None

    def label_ids(self, intern: InternTable) -> FrozenSet[int]:
        """The interned label ids this signature's ``labels`` admit —
        the arena counterpart of the per-subject label comparison.
        Includes numeric aliases (``1 == 1.0 == True``), matching what
        label equality admits on the tree path. Only meaningful when
        ``labels`` is not None."""
        cached = self._label_ids
        if cached is not None and cached[0] is intern:
            return cached[1]
        ids: FrozenSet[int] = frozenset().union(
            *(label_alias_ids(intern, label) for label in self.labels)
        )
        self._label_ids = (intern, ids)
        return ids

    def admits(self, subject: Subject) -> bool:
        """Could the indexed pattern match *subject*? False only when a
        full match is guaranteed to fail. The one-subject statement of
        what :meth:`RootView.select` computes for a whole forest at
        once: the tests check the two agree, and the interpreter only
        selects."""
        if isinstance(subject, Ref):
            return True  # the matcher may follow the reference
        if self.refs_only:
            return False
        label, arity = subject.root_signature
        if self.labels is not None and label not in self.labels:
            return False
        if self.domain is not None and not self.domain.contains(label):
            return False
        if arity < self.min_children:
            return False
        if not self.unbounded and arity != self.min_children:
            return False
        return True

    def __repr__(self) -> str:
        parts = []
        if self.refs_only:
            parts.append("refs-only")
        if self.labels is not None:
            parts.append(f"labels={{{', '.join(sorted(map(str, self.labels)))}}}")
        if self.domain is not None:
            parts.append(f"domain={self.domain.render()}")
        bound = "+" if self.unbounded else ""
        parts.append(f"children={self.min_children}{bound}")
        return f"RootSignature({', '.join(parts)})"


def pattern_root_signature(pattern: PChild) -> Optional[RootSignature]:
    """The signature of one root body-pattern tree, or :data:`WILDCARD`
    when nothing cheap can be said about its subjects."""
    if isinstance(pattern, (PVarLeaf, PNameLeaf)):
        # Pattern-variable / pattern-name roots are model-checked, not
        # structure-checked: anything may instantiate them.
        return WILDCARD
    if isinstance(pattern, PRefLeaf):
        return RootSignature(refs_only=True)
    assert isinstance(pattern, PNode)
    labels: Optional[FrozenSet[Label]] = None
    domain: Optional[Domain] = None
    label = pattern.label
    if isinstance(label, Var):
        if isinstance(label.domain, EnumDomain):
            labels = frozenset(label.domain.values)
        elif not isinstance(label.domain, AnyDomain):
            domain = label.domain
    else:
        labels = frozenset((label,))
    min_children = sum(1 for edge in pattern.edges if edge.kind == ONE)
    unbounded = any(edge.kind != ONE for edge in pattern.edges)
    if labels is None and domain is None and min_children == 0 and unbounded:
        return WILDCARD
    return RootSignature(labels, domain, min_children, unbounded)


def rule_root_signature(rule: Rule) -> Optional[RootSignature]:
    """The dispatch signature of a whole rule: its single root body
    pattern's signature, or :data:`WILDCARD` for multi-root rules (a
    join's roots each range over the inputs independently, so one
    signature cannot soundly stand for the rule)."""
    roots = rule.root_body_patterns()
    if len(roots) != 1:
        return WILDCARD
    return pattern_root_signature(roots[0].tree)


class RuleDispatchIndex:
    """Per-rule root signatures, built once per program.

    Immutable, so one index is safely shared between runs of one
    interpreter; each run applies it through :class:`RootView`.
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        self._signatures: Dict[str, Optional[RootSignature]] = {
            rule.name: rule_root_signature(rule) for rule in rules
        }

    def signature(self, rule: Rule) -> Optional[RootSignature]:
        return self._signatures.get(rule.name)

    def indexed_rules(self) -> List[str]:
        """Names of the rules that got a non-wildcard signature."""
        return [name for name, sig in self._signatures.items() if sig is not None]

    def __repr__(self) -> str:
        indexed = len(self.indexed_rules())
        return f"RuleDispatchIndex({indexed}/{len(self._signatures)} rules indexed)"


class RootView:
    """The subjects one selection offers rules, as admission sees them:
    the top-level roots of a run, or the subjects one demand round
    offers a functor's rules.

    Maps root labels to positions in input order and keeps each root's
    child count. For a tree forest both come from
    :attr:`Tree.root_signature`; for an :class:`ArenaStore` from the
    ``labels``/``n_children`` columns, keyed by interned label id and
    looked up through :meth:`RootSignature.label_ids`. :class:`Ref`
    subjects (a demand round's, such as Web6's ``&Pobj``) are kept
    apart: a ``&``-leaf signature selects exactly them, and every other
    signature is offered them too, as :meth:`RootSignature.admits`
    does. The map is built on the first indexed selection, so at most
    once per view.

    :meth:`select` is the interpreter's only admission filter, for both
    representations and for roots, leftovers and demand subjects alike,
    and the only code that moves the
    ``indexed_calls``/``unindexed_calls``/``subjects_considered``/
    ``subjects_admitted`` counters of :class:`DispatchStats`.
    """

    def __init__(
        self,
        forest: Union[Sequence[Subject], ArenaStore],
        index: Optional[RuleDispatchIndex],
        stats: DispatchStats,
    ) -> None:
        self._forest = forest
        self._index = index
        self._stats = stats
        self._intern: Optional[InternTable] = (
            forest.arena.intern if isinstance(forest, ArenaStore) else None
        )
        self._labels: Optional[List] = None  # per root: label (id on an arena)
        self._arities: List[int] = []
        self._buckets: Dict[object, List[int]] = {}
        self._refs: List[int] = []  # the positions of Ref subjects

    def select(
        self, rule: Rule, among: Optional[Sequence[int]] = None
    ) -> Sequence[int]:
        """The positions of the subjects *rule* is offered, in input
        order: those its root signature admits, out of *among* when
        given (the leftovers fallback rules choose from) or out of every
        subject. Without an index, or for a wildcard rule, every subject
        offered."""
        offered = range(len(self._forest)) if among is None else among
        if self._index is None:
            return offered
        signature = self._index.signature(rule)
        stats = self._stats
        if signature is None:
            stats.unindexed_calls += 1
            return offered
        admitted = self._admitted(signature)
        if among is not None:
            keep = set(among)
            admitted = [i for i in admitted if i in keep]
        stats.indexed_calls += 1
        stats.subjects_considered += len(offered)
        stats.subjects_admitted += len(admitted)
        return admitted

    def _admitted(self, signature: RootSignature) -> List[int]:
        """Every position *signature* admits, in input order."""
        if self._labels is None:
            self._build()
        refs = self._refs
        if signature.refs_only:
            return list(refs)
        labels = self._labels
        intern = self._intern
        if signature.labels is None:
            picked = list(range(len(labels)))
            if refs:
                picked = [i for i in picked if labels[i] is not Ref]
        else:
            keys = signature.labels if intern is None else signature.label_ids(intern)
            buckets = self._buckets
            runs = [buckets[key] for key in keys if key in buckets]
            picked = [i for run in runs for i in run]
            if len(runs) > 1:
                picked.sort()  # restore input order across buckets
        domain = signature.domain
        if domain is not None:
            value = (lambda label: label) if intern is None else intern.value
            picked = [i for i in picked if domain.contains(value(labels[i]))]
        arities = self._arities
        arity = signature.min_children
        if not signature.unbounded:
            picked = [i for i in picked if arities[i] == arity]
        elif arity:
            picked = [i for i in picked if arities[i] >= arity]
        if refs:
            picked = sorted(picked + refs)  # the matcher may follow a reference
        return picked

    def _build(self) -> None:
        forest = self._forest
        if isinstance(forest, ArenaStore):
            arena = forest.arena
            labels, n_children = arena.labels, arena.n_children
            self._labels = [labels[offset] for offset in arena.roots]
            self._arities = [n_children[offset] for offset in arena.roots]
        else:
            signatures = [
                (Ref, 0) if isinstance(node, Ref) else node.root_signature
                for node in forest
            ]
            self._labels = [label for label, _ in signatures]
            self._arities = [arity for _, arity in signatures]
        buckets = self._buckets
        for index, label in enumerate(self._labels):
            bucket = buckets.get(label)
            if bucket is None:
                buckets[label] = bucket = []
            bucket.append(index)
        self._refs = buckets.pop(Ref, [])  # no signature label is the Ref type
