"""Variable bindings produced by body matching (Section 3.1, phase 1).

A binding maps variable names to values: constants for data variables,
trees for pattern variables. Bindings are immutable — extending one
produces a new binding — so the matcher can explore alternatives without
copying state back out.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.labels import Label, label_repr
from ..core.trees import Ref, Tree
from ..core.variables import PatternVar, Var
from ..errors import EvaluationError

Value = Union[Label, Tree, Ref]


class Binding:
    """An immutable mapping from variable names to values."""

    __slots__ = ("_items", "_hash")

    EMPTY: "Binding"

    def __init__(self, items: Optional[Dict[str, Value]] = None) -> None:
        object.__setattr__(self, "_items", dict(items) if items else {})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Binding is immutable")

    # -- access -------------------------------------------------------------

    def get(self, var: Union[Var, PatternVar, str]) -> Optional[Value]:
        name = var if isinstance(var, str) else var.name
        return self._items.get(name)

    def __getitem__(self, var: Union[Var, PatternVar, str]) -> Value:
        name = var if isinstance(var, str) else var.name
        try:
            return self._items[name]
        except KeyError:
            raise EvaluationError(f"unbound variable {name!r}") from None

    def __contains__(self, var: Union[Var, PatternVar, str]) -> bool:
        name = var if isinstance(var, str) else var.name
        return name in self._items

    def names(self) -> List[str]:
        return list(self._items)

    def items(self) -> Iterator[Tuple[str, Value]]:
        return iter(self._items.items())

    def __len__(self) -> int:
        return len(self._items)

    # -- extension ----------------------------------------------------------

    def bind(self, var: Union[Var, PatternVar, str], value: Value) -> Optional["Binding"]:
        """Bind *var* to *value*; returns None on a conflicting binding
        (the same variable already holds a different value — this is how
        shared variables implement joins, Section 3.2)."""
        name = var if isinstance(var, str) else var.name
        existing = self._items.get(name)
        if existing is not None or name in self._items:
            return self if existing == value else None
        extended = dict(self._items)
        extended[name] = value
        return Binding(extended)

    def merge(self, other: "Binding") -> Optional["Binding"]:
        """Combine two bindings; None if they disagree on any variable.

        As binding *other*'s items onto *self* one by one would: *self*'s
        names come first and keep their values (``1`` stays ``1`` against
        ``1.0``), and agreement is :meth:`bind`'s ``==``."""
        if not self._items:
            return other
        items = self._items
        merged = None
        for name, value in other._items.items():
            if name in items:
                if not items[name] == value:
                    return None
            else:
                if merged is None:
                    merged = dict(items)
                merged[name] = value
        return self if merged is None else Binding(merged)

    def project(self, names: Sequence[str]) -> Tuple[Value, ...]:
        """Values of *names* in order (used for Skolem and grouping keys)."""
        return tuple(self._items.get(name) for name in names)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Binding) and other._items == self._items

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._items.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        inner = "; ".join(
            f"{name}={_render_value(value)}" for name, value in self._items.items()
        )
        return f"[ {inner} ]"


Binding.EMPTY = Binding()


def _render_value(value: Value) -> str:
    if isinstance(value, Tree):
        text = str(value).replace("\n", " ")
        return text if len(text) <= 40 else text[:37] + "..."
    if isinstance(value, Ref):
        return str(value)
    return label_repr(value)


def dedup_bindings(bindings: Sequence[Binding]) -> List[Binding]:
    """Remove duplicate bindings, preserving first-occurrence order."""
    seen = set()
    unique: List[Binding] = []
    for binding in bindings:
        if binding not in seen:
            seen.add(binding)
            unique.append(binding)
    return unique
