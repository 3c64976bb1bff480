"""Skolem functions: global identifier management (Section 3.1, phase 4).

"Skolem functions are not dependent of a given rule but are global to a
program" — a single :class:`SkolemTable` is shared by every rule of a
program run. It maps ``(functor, argument values)`` to generated
identifiers (``s1``, ``s2``, ...) and each identifier to the value tree
the rules associate with it. Associating two distinct values to one
identifier raises the paper's run-time non-determinism alert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..core.labels import Label, label_repr
from ..core.trees import Ref, Tree
from ..errors import NonDeterminismError

SkolemValue = Union[Label, Tree, Ref]
SkolemKey = Tuple[str, Tuple[SkolemValue, ...]]


class SkolemTable:
    """Global (functor, args) → identifier → value bookkeeping."""

    def __init__(self) -> None:
        self._ids: Dict[SkolemKey, str] = {}
        self._keys: Dict[str, SkolemKey] = {}
        self._values: Dict[str, Tree] = {}
        self._counters: Dict[str, int] = {}
        self._prefixes: Dict[str, str] = {}  # functor -> id prefix
        self._used_prefixes: Dict[str, str] = {}  # prefix -> functor
        # Observability accounting (plain ints: id_for is on the hot
        # path of every constructed output; the interpreter flushes
        # them into the run's MetricsRegistry once, at the end).
        #: identifiers allocated for a first-seen (functor, args) term
        self.fresh_ids = 0
        #: lookups resolved to an already-allocated identifier — the
        #: paper's "one supplier object per name across brochures"
        self.reused_ids = 0

    # -- identifiers --------------------------------------------------------

    def id_for(self, functor: str, args: Tuple[SkolemValue, ...]) -> str:
        """The identifier for a Skolem term, allocating it on first use.

        The same term always maps to the same identifier, which is what
        makes Rule 1 create a single supplier object for a supplier name
        appearing in several brochures (Figure 3)."""
        key = (functor, tuple(args))
        existing = self._ids.get(key)
        if existing is not None:
            self.reused_ids += 1
            return existing
        prefix = self._prefix_for(functor)
        self._counters[prefix] = self._counters.get(prefix, 0) + 1
        new_id = f"{prefix}{self._counters[prefix]}"
        self._ids[key] = new_id
        self._keys[new_id] = key
        self.fresh_ids += 1
        return new_id

    def lookup(self, functor: str, args: Tuple[SkolemValue, ...]) -> Optional[str]:
        return self._ids.get((functor, tuple(args)))

    def key_of(self, identifier: str) -> SkolemKey:
        return self._keys[identifier]

    def functor_of(self, identifier: str) -> str:
        return self._keys[identifier][0]

    def ids(self) -> List[str]:
        return list(self._keys)

    def term_text(self, identifier: str) -> str:
        """The Skolem term behind an identifier, rendered compactly
        (``Psup('VW center')``) — what provenance records carry. Tree
        arguments render as their root label only: this runs once per
        recorded rule firing, so it must stay O(1) in the tree size."""
        functor, args = self._keys[identifier]
        rendered = ", ".join(_render_arg_brief(a) for a in args)
        return f"{functor}({rendered})"

    def ids_of_functor(self, functor: str) -> List[str]:
        return [i for i, (f, _) in self._keys.items() if f == functor]

    def _prefix_for(self, functor: str) -> str:
        cached = self._prefixes.get(functor)
        if cached is not None:
            return cached
        # "Psup" -> "s", "Pcar" -> "c", "HtmlPage" -> "htmlpage1"-style
        # fallbacks on collision.
        base = functor
        if len(base) > 1 and base[0] == "P" and base[1].islower():
            base = base[1:]
        candidates = [base[:k].lower() for k in range(1, len(base) + 1)]
        candidates.append(functor.lower() + "_")
        for candidate in candidates:
            owner = self._used_prefixes.get(candidate)
            if owner is None or owner == functor:
                self._used_prefixes[candidate] = functor
                self._prefixes[functor] = candidate
                return candidate
        raise AssertionError("unreachable: fallback prefix is always unique")

    # -- values -------------------------------------------------------------

    def associate(self, identifier: str, value: Tree) -> None:
        """Associate a value with an identifier; raises
        :class:`NonDeterminismError` on a conflicting association."""
        existing = self._values.get(identifier)
        if existing is None:
            self._values[identifier] = value
        elif existing != value:
            functor, args = self._keys.get(identifier, (identifier, ()))
            rendered = ", ".join(_render_arg(a) for a in args)
            raise NonDeterminismError(
                f"{functor}({rendered})",
                f"non-deterministic program: {functor}({rendered}) (= {identifier}) "
                f"is associated to two distinct values",
            )

    def value(self, identifier: str) -> Optional[Tree]:
        return self._values.get(identifier)

    def has_value(self, identifier: str) -> bool:
        return identifier in self._values

    def values(self) -> Dict[str, Tree]:
        return dict(self._values)

    def stats(self) -> Dict[str, int]:
        """Table accounting: ids allocated/reused, values associated."""
        return {
            "fresh_ids": self.fresh_ids,
            "reused_ids": self.reused_ids,
            "table_size": len(self._keys),
            "values_associated": len(self._values),
        }

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"SkolemTable({len(self._keys)} ids, {len(self._values)} values)"


def _render_arg(value: SkolemValue) -> str:
    if isinstance(value, Tree):
        text = str(value).replace("\n", " ")
        return text if len(text) <= 30 else text[:27] + "..."
    if isinstance(value, Ref):
        return str(value)
    return label_repr(value)


def _render_arg_brief(value: SkolemValue) -> str:
    if isinstance(value, Tree):
        label = label_repr(value.label)
        return f"{label}<...>" if value.children else label
    if isinstance(value, Ref):
        return str(value)
    return label_repr(value)
