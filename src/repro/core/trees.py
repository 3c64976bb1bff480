"""Ground YAT data: named, ordered, labeled trees with references.

Ground patterns — patterns with no variables, no unions and only plain
edges — "are used to represent real data, like in usual semistructured
data models" (Section 2). We give them a dedicated, immutable,
hashable representation, because the rule interpreter manipulates large
numbers of them and grouping edges rely on structural equality.

A :class:`DataStore` is the paper's "set of ground patterns ... each
output pattern is associated to its name": a mapping from names (``b1``,
``s1``...) to trees, with :class:`Ref` leaves (``&s1``) pointing across
the store. Cycles between trees are allowed (car c1 ↔ supplier s1).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import DanglingReferenceError
from .labels import Label, Symbol, is_label, label_repr

Child = Union["Tree", "Ref"]


class Ref:
    """A reference leaf ``&name`` pointing to a named tree in a store."""

    __slots__ = ("target", "_hash")

    def __init__(self, target: str) -> None:
        if not isinstance(target, str) or not target:
            raise TypeError(f"reference target must be a non-empty string: {target!r}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_hash", hash((Ref, target)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Ref is immutable")

    def __reduce__(self):
        # Slots + the immutability guard break default unpickling;
        # rebuild through the constructor (needed to ship trees to the
        # worker processes of repro.parallel).
        return (Ref, (self.target,))

    def __repr__(self) -> str:
        return f"Ref({self.target!r})"

    def __str__(self) -> str:
        return f"&{self.target}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ref) and other.target == self.target

    def __hash__(self) -> int:
        return self._hash


class Tree:
    """An immutable ordered labeled tree node.

    ``label`` is a constant (symbol or atom); ``children`` is an ordered
    tuple of subtrees and references. Structural equality and hashing
    are precomputed bottom-up, so using trees as dict keys (Skolem
    arguments, grouping keys) is O(1) after construction.
    """

    __slots__ = ("label", "children", "_hash")

    def __init__(self, label: Label, children: Iterable[Child] = ()) -> None:
        if not is_label(label):
            raise TypeError(f"invalid tree label: {label!r}")
        kids = tuple(children)
        for child in kids:
            if not isinstance(child, (Tree, Ref)):
                raise TypeError(f"invalid tree child: {child!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "_hash", hash((Tree, label, kids)))

    @classmethod
    def _make(cls, label: Label, children: Tuple[Child, ...] = ()) -> "Tree":
        """Trusted constructor for hot paths: *children* must already be
        a tuple of ``Tree``/``Ref`` nodes and *label* a valid label —
        skips the validation ``__init__`` performs on foreign input."""
        node = object.__new__(cls)
        object.__setattr__(node, "label", label)
        object.__setattr__(node, "children", children)
        object.__setattr__(node, "_hash", hash((Tree, label, children)))
        return node

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Tree is immutable")

    def __reduce__(self):
        # See Ref.__reduce__: reconstruct through __init__ so the
        # immutability guard and precomputed hash survive pickling.
        return (Tree, (self.label, self.children))

    # -- inspection ---------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def root_signature(self) -> Tuple[Label, int]:
        """``(label, child count)`` — the cheap key rule-dispatch
        indexing tests before attempting a full body match."""
        return (self.label, len(self.children))

    def child(self, index: int) -> Child:
        return self.children[index]

    def subtrees(self) -> Iterator["Tree"]:
        """Yield this node and every descendant tree node, preorder."""
        stack: List[Child] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Tree):
                yield node
                stack.extend(reversed(node.children))

    def size(self) -> int:
        """Number of nodes (tree nodes and reference leaves)."""
        total = 0
        stack: List[Child] = [self]
        while stack:
            node = stack.pop()
            total += 1
            if isinstance(node, Tree):
                stack.extend(node.children)
        return total

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 1)."""
        best = 0
        stack: List[Tuple[Child, int]] = [(self, 1)]
        while stack:
            node, level = stack.pop()
            best = max(best, level)
            if isinstance(node, Tree):
                for child in node.children:
                    stack.append((child, level + 1))
        return best

    def find(self, label: Label) -> Optional["Tree"]:
        """First descendant (preorder) whose label equals *label*."""
        for node in self.subtrees():
            if node.label == label:
                return node
        return None

    def find_all(self, label: Label) -> List["Tree"]:
        """All descendants (preorder) whose label equals *label*."""
        return [node for node in self.subtrees() if node.label == label]

    def references(self) -> List[Ref]:
        """All reference leaves in this tree, preorder."""
        refs: List[Ref] = []
        stack: List[Child] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Ref):
                refs.append(node)
            else:
                stack.extend(reversed(node.children))
        return refs

    # -- transformation -----------------------------------------------------

    def map_refs(self, fn: Callable[[Ref], Child]) -> "Tree":
        """Rebuild the tree, replacing every reference leaf by ``fn(ref)``."""
        new_children: List[Child] = []
        changed = False
        for child in self.children:
            if isinstance(child, Ref):
                replacement = fn(child)
                changed = changed or replacement is not child
                new_children.append(replacement)
            else:
                replacement = child.map_refs(fn)
                changed = changed or replacement is not child
                new_children.append(replacement)
        if not changed:
            return self
        return Tree(self.label, new_children)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Tree)
            and other._hash == self._hash
            and other.label == self.label
            and other.children == self.children
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"Tree({self.label!r})"
        return f"Tree({self.label!r}, {list(self.children)!r})"

    def __str__(self) -> str:
        return render_tree(self)


def tree(label: Union[Label, str], *children: Union[Child, Label]) -> Tree:
    """Convenience constructor in the spirit of the paper's syntax.

    Plain strings used as *labels* become symbols; to build a string
    *atom* label pass it via :func:`atom`. Children may be trees, refs
    or constants (auto-wrapped into leaves)::

        tree("class", tree("supplier",
             tree("name", atom("VW center")),
             tree("city", atom("Paris"))))
    """
    if isinstance(label, str):
        label = Symbol(label)
    wrapped: List[Child] = []
    for child in children:
        if isinstance(child, (Tree, Ref)):
            wrapped.append(child)
        elif is_label(child):
            wrapped.append(Tree(child))
        else:
            raise TypeError(f"invalid child for tree(): {child!r}")
    return Tree(label, wrapped)


def atom(value: Label) -> Tree:
    """A leaf carrying an atomic value (``atom("Golf")``, ``atom(1995)``)."""
    return Tree(value)


def sym(name: str) -> Symbol:
    """Shorthand for :class:`Symbol`."""
    return Symbol(name)


def render_tree(node: Child, indent: int = 0, step: int = 2) -> str:
    """Render a ground tree in YAT textual syntax.

    Single-child chains print on one line (``class -> car``), multiple
    children are bracketed and indented.
    """
    pad = " " * indent
    if isinstance(node, Ref):
        return f"{pad}&{node.target}"
    parts = [pad, label_repr(node.label)]
    current = node
    while len(current.children) == 1 and isinstance(current.children[0], Tree):
        current = current.children[0]
        parts.append(" -> ")
        parts.append(label_repr(current.label))
    if len(current.children) == 1:  # a single Ref child
        parts.append(" -> ")
        parts.append(str(current.children[0]))
    elif current.children:
        parts.append(" <\n")
        lines = [
            render_tree(child, indent + step, step) for child in current.children
        ]
        parts.append(",\n".join(lines))
        parts.append(f"\n{pad}>")
    return "".join(parts)


class DataStore:
    """A set of named ground trees — the input or output of a program.

    Preserves insertion order (document order matters for ordered
    collections). Supports reference resolution and full
    materialization (splicing referenced trees in place of ``&`` leaves,
    with cycle protection).
    """

    def __init__(self, items: Optional[Dict[str, Tree]] = None) -> None:
        self._trees: Dict[str, Tree] = {}
        if items:
            for name, node in items.items():
                self.add(name, node)

    # -- mutation -----------------------------------------------------------

    def add(self, name: str, node: Tree) -> None:
        if not isinstance(node, Tree):
            raise TypeError(f"store values must be trees, got {node!r}")
        self._trees[name] = node

    def remove(self, name: str) -> None:
        del self._trees[name]

    # -- access -------------------------------------------------------------

    def get(self, name: str) -> Tree:
        try:
            return self._trees[name]
        except KeyError:
            raise DanglingReferenceError(f"no tree named {name!r} in store") from None

    def get_optional(self, name: str) -> Optional[Tree]:
        return self._trees.get(name)

    def resolve(self, ref: Ref) -> Tree:
        return self.get(ref.target)

    def names(self) -> List[str]:
        return list(self._trees)

    def trees(self) -> List[Tree]:
        return list(self._trees.values())

    def items(self) -> List[Tuple[str, Tree]]:
        return list(self._trees.items())

    def __contains__(self, name: str) -> bool:
        return name in self._trees

    def __len__(self) -> int:
        return len(self._trees)

    def __iter__(self) -> Iterator[Tuple[str, Tree]]:
        return iter(self._trees.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataStore) and dict(other._trees) == dict(self._trees)

    def __repr__(self) -> str:
        return f"DataStore({len(self._trees)} trees: {', '.join(self._trees)})"

    # -- integrity ----------------------------------------------------------

    def dangling_references(self) -> List[str]:
        """Names referenced by some ``&`` leaf but absent from the store."""
        missing = []
        for node in self._trees.values():
            for ref in node.references():
                if ref.target not in self._trees:
                    missing.append(ref.target)
        return missing

    def check(self) -> None:
        """Raise :class:`DanglingReferenceError` if any reference dangles."""
        missing = self.dangling_references()
        if missing:
            raise DanglingReferenceError(
                f"dangling references: {', '.join(sorted(set(missing)))}"
            )

    # -- materialization ----------------------------------------------------

    def materialize(self, name: str) -> Tree:
        """Return the named tree with all references recursively spliced in.

        Dereferencing a cyclic structure would not terminate, so a
        reference back to a tree currently being expanded is left as a
        :class:`Ref` leaf.
        """
        return self._materialize(self.get(name), frozenset({name}))

    def _materialize(self, node: Tree, expanding: frozenset) -> Tree:
        def splice(ref: Ref) -> Child:
            if ref.target in expanding or ref.target not in self._trees:
                return ref
            target = self.get(ref.target)
            return self._materialize(target, expanding | {ref.target})

        return node.map_refs(splice)

    def copy(self) -> "DataStore":
        return DataStore(dict(self._trees))
