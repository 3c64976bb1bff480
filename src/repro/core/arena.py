"""Columnar forest arena: a struct-of-arrays YAT forest.

The interpreter's hot loops spend most of their time chasing
:class:`~repro.core.trees.Tree` pointers one Python attribute access at
a time. This module stores a whole forest as flat, contiguous columns —
the layout bulk mediation engines use so per-node work becomes per-array
work:

* ``labels`` — interned label ids (one process-global
  :class:`InternTable`, shared with the dispatch index's root
  signatures);
* ``kinds`` — one byte per node: symbol/string/int/float/bool label or
  reference leaf;
* ``parent`` / ``first_child`` / ``next_sibling`` / ``n_children`` —
  structure as offset arrays (``-1`` = none).

Nodes are laid out in **DFS preorder**, so every subtree — and every
named root tree — occupies one contiguous block of offsets. That makes
two things cheap: a shard of roots is a couple of array slices
(:class:`ArenaShard`, pickled as flat buffers), and streaming *zero-copy
import* is a push/pop :class:`ArenaWriter` (wrappers append parse
events straight into the columns, no intermediate ``Tree``
allocation).

Conversion is lossless and hash-stable both ways: ``Arena.from_trees``
/ ``Arena.to_trees`` round-trip to equal trees with equal
``Tree.__hash__`` (the intern table keys on ``(kind, value)`` pairs, so
``1``, ``1.0`` and ``True`` — equal and hash-equal in Python — keep
distinct ids and decode to their exact original type).

:class:`ArenaStore` duck-types the read API of
:class:`~repro.core.trees.DataStore` (the interpreter's ``ForestView``
seam): anything that only reads named trees works on either
representation, and materialization is lazy and cached per root.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import DanglingReferenceError
from .labels import Label, Symbol, is_label
from .trees import DataStore, Ref, Tree

Child = Union[Tree, Ref]

# Node-kind flags (the ``kinds`` column). ``bool`` must be tested before
# ``int`` everywhere: it is a subclass, and ``True == 1`` — the kind byte
# is what keeps them apart in the columns.
K_SYMBOL = 0
K_STRING = 1
K_INT = 2
K_FLOAT = 3
K_BOOL = 4
K_REF = 5

_SENTINEL = object()


def label_kind(label: object) -> int:
    """The kind byte of a tree label (references are not labels)."""
    if type(label) is Symbol or isinstance(label, Symbol):
        return K_SYMBOL
    if isinstance(label, bool):
        return K_BOOL
    if isinstance(label, str):
        return K_STRING
    if isinstance(label, int):
        return K_INT
    if isinstance(label, float):
        return K_FLOAT
    raise TypeError(f"invalid arena label: {label!r}")


class InternTable:
    """Bidirectional ``(kind, value) <-> id`` label interning.

    One process-global instance (:data:`GLOBAL_INTERN`) is shared by
    every arena, the dispatch index's root signatures and the fast-path
    matcher, so a label comparison anywhere in the hot path is one
    integer comparison. Keys are ``(kind, value)`` pairs rather than
    bare values because Python conflates ``1 == 1.0 == True``; the kind
    byte keeps the ids — and therefore the decoded labels — distinct.

    The table also caches one leaf ``Tree`` per non-reference id:
    decoding and head construction reuse the same immutable leaf objects
    instead of reallocating them.
    """

    __slots__ = ("_ids", "_values", "_kinds", "_leaves", "_leaf_by_label")

    def __init__(self) -> None:
        self._ids: Dict[Tuple[int, object], int] = {}
        self._values: List[object] = []
        self._kinds = bytearray()
        self._leaves: Dict[int, Tree] = {}
        # (type, value)-keyed front cache for leaf_for: the type keeps
        # 1/1.0/True apart exactly like the kind byte does.
        self._leaf_by_label: Dict[Tuple[type, object], Tree] = {}

    def intern(self, kind: int, value: object) -> int:
        """The id of ``(kind, value)``, allocating one if new."""
        key = (kind, value)
        ident = self._ids.get(key)
        if ident is None:
            ident = len(self._values)
            self._ids[key] = ident
            self._values.append(value)
            self._kinds.append(kind)
        return ident

    def intern_label(self, label: Label) -> int:
        return self.intern(label_kind(label), label)

    def intern_ref(self, target: str) -> int:
        return self.intern(K_REF, target)

    def value(self, ident: int) -> object:
        """The label object (or reference target string) of an id."""
        return self._values[ident]

    def raw_values(self) -> List[object]:
        """The live id -> value list, for hot loops that index it
        directly instead of paying a method call per lookup. Read-only
        by convention; it grows as new labels are interned."""
        return self._values

    def kind(self, ident: int) -> int:
        return self._kinds[ident]

    def entry(self, ident: int) -> Tuple[int, object]:
        return (self._kinds[ident], self._values[ident])

    def leaf(self, ident: int) -> Tree:
        """The cached leaf ``Tree`` for a non-reference label id."""
        cached = self._leaves.get(ident)
        if cached is None:
            # _make is safe: interned values are validated labels.
            cached = Tree._make(self._values[ident])  # type: ignore[arg-type]
            self._leaves[ident] = cached
        return cached

    def leaf_for(self, label: Label) -> Tree:
        key = (label.__class__, label)
        cached = self._leaf_by_label.get(key)
        if cached is None:
            cached = self.leaf(self.intern_label(label))
            self._leaf_by_label[key] = cached
        return cached

    def __len__(self) -> int:
        return len(self._values)


#: The process-global intern table. Worker processes each grow their
#: own (ids are process-local); :class:`ArenaShard` ships ``(kind,
#: value)`` vocabularies and re-interns on arrival.
GLOBAL_INTERN = InternTable()


def label_alias_ids(intern: InternTable, label: Label) -> frozenset:
    """Every intern id whose value ``==`` *label*.

    Label matching uses Python equality, under which ``1``, ``1.0`` and
    ``True`` coincide even though the table keeps their ids distinct —
    so a numeric pattern label admits up to three ids. Non-numeric
    labels (symbols, strings) always map to exactly one."""
    ids = {intern.intern_label(label)}
    if isinstance(label, bool):
        ids.add(intern.intern(K_INT, int(label)))
        ids.add(intern.intern(K_FLOAT, float(label)))
    elif isinstance(label, int):
        if label in (0, 1):
            ids.add(intern.intern(K_BOOL, bool(label)))
        ids.add(intern.intern(K_FLOAT, float(label)))
    elif isinstance(label, float):
        if label.is_integer():
            ids.add(intern.intern(K_INT, int(label)))
            if label in (0.0, 1.0):
                ids.add(intern.intern(K_BOOL, bool(label)))
    return frozenset(ids)


class ArenaWriter:
    """Streaming appender: ``open``/``leaf``/``ref``/``close`` events.

    This is the zero-copy import surface — wrappers drive it directly
    from rows/parse events, so a forest lands in the columns without any
    intermediate ``Tree`` being built. Events must nest properly; the
    structure columns (``first_child``/``next_sibling``/``n_children``)
    are linked up as events arrive.
    """

    __slots__ = ("arena", "_stack")

    def __init__(self, arena: "Arena") -> None:
        self.arena = arena
        self._stack: List[List[int]] = []  # [offset, last child offset]

    def _append(self, label_id: int, kind: int) -> int:
        arena = self.arena
        offset = len(arena.labels)
        arena.labels.append(label_id)
        arena.kinds.append(kind)
        arena.first_child.append(-1)
        arena.next_sibling.append(-1)
        arena.n_children.append(0)
        stack = self._stack
        if stack:
            top = stack[-1]
            parent = top[0]
            arena.parent.append(parent)
            if top[1] == -1:
                arena.first_child[parent] = offset
            else:
                arena.next_sibling[top[1]] = offset
            arena.n_children[parent] += 1
            top[1] = offset
        else:
            arena.parent.append(-1)
        return offset

    def open(self, label: Label) -> int:
        """Begin an interior node; children follow until ``close()``."""
        ident = self.arena.intern.intern_label(label)
        offset = self._append(ident, self.arena.intern.kind(ident))
        self._stack.append([offset, -1])
        return offset

    def leaf(self, label: Label) -> int:
        """Append a leaf node carrying *label*."""
        ident = self.arena.intern.intern_label(label)
        return self._append(ident, self.arena.intern.kind(ident))

    def ref(self, target: str) -> int:
        """Append a reference leaf ``&target``."""
        return self._append(self.arena.intern.intern_ref(target), K_REF)

    def close(self) -> int:
        """End the innermost open node; returns its offset."""
        return self._stack.pop()[0]

    @property
    def depth(self) -> int:
        return len(self._stack)


class Arena:
    """The struct-of-arrays forest itself (no names — see
    :class:`ArenaStore` for the named view)."""

    __slots__ = (
        "intern", "labels", "kinds", "parent",
        "first_child", "next_sibling", "n_children", "roots",
    )

    def __init__(self, intern: Optional[InternTable] = None) -> None:
        self.intern = intern if intern is not None else GLOBAL_INTERN
        self.labels = array("q")
        self.kinds = bytearray()
        self.parent = array("q")
        self.first_child = array("q")
        self.next_sibling = array("q")
        self.n_children = array("q")
        self.roots = array("q")  # offsets of the encoded root nodes

    def __len__(self) -> int:
        return len(self.labels)

    def writer(self) -> ArenaWriter:
        return ArenaWriter(self)

    # -- encode -------------------------------------------------------------

    def encode(self, node: Child) -> int:
        """Append one tree (DFS preorder) and record it as a root;
        returns its offset."""
        writer = ArenaWriter(self)
        root_offset = -1
        close = _SENTINEL
        stack: List[object] = [node]
        while stack:
            item = stack.pop()
            if item is close:
                writer.close()
                continue
            if isinstance(item, Ref):
                offset = writer.ref(item.target)
            elif not item.children:  # type: ignore[union-attr]
                offset = writer.leaf(item.label)  # type: ignore[union-attr]
            else:
                offset = writer.open(item.label)  # type: ignore[union-attr]
                stack.append(close)
                stack.extend(reversed(item.children))  # type: ignore[union-attr]
            if root_offset < 0:
                root_offset = offset
        self.roots.append(root_offset)
        return root_offset

    @classmethod
    def from_trees(
        cls, trees: Sequence[Child], intern: Optional[InternTable] = None
    ) -> "Arena":
        """Encode a forest; ``arena.roots[i]`` holds ``trees[i]``."""
        arena = cls(intern)
        for node in trees:
            arena.encode(node)
        return arena

    # -- decode -------------------------------------------------------------

    def decode(self, offset: int) -> Child:
        """Rebuild the tree rooted at *offset* (lossless, hash-stable:
        the result is ``==`` to — and hashes like — what was encoded)."""
        intern = self.intern
        labels, kinds = self.labels, self.kinds
        first_child, next_sibling = self.first_child, self.next_sibling
        built: Dict[int, Child] = {}
        stack: List[Tuple[int, bool]] = [(offset, False)]
        while stack:
            node, expanded = stack.pop()
            if kinds[node] == K_REF:
                built[node] = Ref(intern.value(labels[node]))  # type: ignore[arg-type]
                continue
            child = first_child[node]
            if child == -1:
                built[node] = intern.leaf(labels[node])
                continue
            if not expanded:
                stack.append((node, True))
                while child != -1:
                    stack.append((child, False))
                    child = next_sibling[child]
                continue
            children: List[Child] = []
            while child != -1:
                children.append(built[child])
                child = next_sibling[child]
            built[node] = Tree._make(  # trusted: labels/children interned
                intern.value(labels[node]), tuple(children)  # type: ignore[arg-type]
            )
        return built[offset]

    def to_trees(self) -> List[Child]:
        """Decode every root, in encoding order."""
        return [self.decode(offset) for offset in self.roots]

    def nbytes(self) -> int:
        """Approximate payload size of the columns, in bytes."""
        return (
            len(self.labels) * self.labels.itemsize * 5  # four q columns + roots amortized
            + len(self.kinds)
        )


class ArenaStore:
    """A named, DataStore-compatible read view over an :class:`Arena`.

    This is the interpreter's ``ForestView`` seam: it offers the read
    API of :class:`~repro.core.trees.DataStore` (``get`` /
    ``get_optional`` / ``resolve`` / ``names`` / ``items`` / iteration /
    ``dangling_references`` / ...), so every consumer that only *reads*
    named trees accepts either representation. Tree materialization is
    lazy and cached per root; trees added through :meth:`add` keep their
    original objects, so a store round-tripped from trees never decodes.
    """

    def __init__(self, arena: Optional[Arena] = None) -> None:
        self.arena = arena if arena is not None else Arena()
        self._names: List[str] = []
        self._positions: Dict[str, int] = {}
        self._cache: Dict[int, Child] = {}  # root index -> materialized tree
        self._by_id: Dict[int, int] = {}  # id(materialized tree) -> root index
        if len(self.arena.roots) and not self._names:
            for index in range(len(self.arena.roots)):
                self._register(f"t{index}")

    def _register(self, name: str) -> int:
        index = len(self._names)
        self._names.append(name)
        self._positions[name] = index
        return index

    # -- building -----------------------------------------------------------

    def add(self, name: str, node: Tree) -> None:
        """Encode one named tree (keeps *node* as the cached
        materialization, so reading it back costs nothing)."""
        if not isinstance(node, Tree):
            raise TypeError(f"store values must be trees, got {node!r}")
        if name in self._positions:
            raise ValueError(
                f"arena stores are append-only: {name!r} already present"
            )
        self.arena.encode(node)
        index = self._register(name)
        self._cache[index] = node
        self._by_id[id(node)] = index

    def add_root(self, name: str, offset: int) -> None:
        """Name a root already appended through an :class:`ArenaWriter`
        (the zero-copy import path; nothing is materialized)."""
        if name in self._positions:
            raise ValueError(
                f"arena stores are append-only: {name!r} already present"
            )
        self.arena.roots.append(offset)
        self._register(name)

    @classmethod
    def from_data_store(cls, store: DataStore) -> "ArenaStore":
        arena_store = cls()
        for name, node in store:
            arena_store.add(name, node)
        return arena_store

    def to_data_store(self) -> DataStore:
        """Materialize everything into a plain :class:`DataStore` (the
        ``--no-arena`` ablation path)."""
        store = DataStore()
        for index, name in enumerate(self._names):
            store.add(name, self.tree_root(index))
        return store

    # -- arena-level access --------------------------------------------------

    def __len__(self) -> int:
        return len(self._names)

    def root_offset(self, index: int) -> int:
        return self.arena.roots[index]

    def root_block(self, index: int) -> Tuple[int, int]:
        """The contiguous ``[start, end)`` offset block of root *index*
        (roots are encoded back to back)."""
        roots = self.arena.roots
        start = roots[index]
        end = roots[index + 1] if index + 1 < len(roots) else len(self.arena)
        return start, end

    def tree_root(self, index: int) -> Child:
        """Materialize root *index* (cached: repeated calls return the
        same object, so ``id()``-keyed interpreter state stays stable)."""
        cached = self._cache.get(index)
        if cached is None:
            cached = self.arena.decode(self.arena.roots[index])
            self._cache[index] = cached
            self._by_id[id(cached)] = index
        return cached

    def index_of_tree(self, node: Child) -> Optional[int]:
        """The root index of a tree object materialized by this store
        (None for foreign objects)."""
        return self._by_id.get(id(node))

    def name_at(self, index: int) -> str:
        return self._names[index]

    def materialized_indices(self) -> List[int]:
        return list(self._cache)

    # -- DataStore read API ---------------------------------------------------

    def get(self, name: str) -> Child:
        index = self._positions.get(name)
        if index is None:
            raise DanglingReferenceError(f"no tree named {name!r} in store")
        return self.tree_root(index)

    def get_optional(self, name: str) -> Optional[Child]:
        index = self._positions.get(name)
        return None if index is None else self.tree_root(index)

    def resolve(self, ref: Ref) -> Child:
        return self.get(ref.target)

    def names(self) -> List[str]:
        return list(self._names)

    def trees(self) -> List[Child]:
        return [self.tree_root(index) for index in range(len(self._names))]

    def items(self) -> List[Tuple[str, Child]]:
        return [
            (name, self.tree_root(index))
            for index, name in enumerate(self._names)
        ]

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def __iter__(self) -> Iterator[Tuple[str, Child]]:
        return iter(self.items())

    def __repr__(self) -> str:
        return (
            f"ArenaStore({len(self._names)} trees, "
            f"{len(self.arena)} nodes, {len(self._cache)} materialized)"
        )

    # -- integrity ------------------------------------------------------------

    def dangling_references(self) -> List[str]:
        """Columnar scan: reference targets absent from the store (no
        tree is materialized)."""
        arena = self.arena
        missing: List[str] = []
        positions = self._positions
        value = arena.intern.value
        labels = arena.labels
        for offset, kind in enumerate(arena.kinds):
            if kind == K_REF:
                target = value(labels[offset])
                if target not in positions:
                    missing.append(target)  # type: ignore[arg-type]
        return missing

    def check(self) -> None:
        missing = self.dangling_references()
        if missing:
            raise DanglingReferenceError(
                f"dangling references: {', '.join(sorted(set(missing)))}"
            )

    def materialize(self, name: str) -> Tree:
        """Named tree with references recursively spliced (delegates to
        the DataStore implementation; a rare, read-everything path)."""
        return self.to_data_store().materialize(name)

    def copy(self) -> "ArenaStore":
        duplicate = ArenaStore(self.arena)
        duplicate._names = list(self._names)
        duplicate._positions = dict(self._positions)
        duplicate._cache = dict(self._cache)
        duplicate._by_id = dict(self._by_id)
        return duplicate


class ArenaShard:
    """A picklable slice of an :class:`ArenaStore` (roots ``[lo, hi)``).

    Columns pickle as flat array buffers — no per-tree ``__reduce__``
    walk — which is what makes arena sharding cheap compared to pickling
    tree objects. Intern ids are process-local, so the shard carries a
    dense local ``vocab`` of ``(kind, value)`` entries; ``to_store``
    re-interns them into the receiving process's global table. Structure
    columns are not shipped at all: DFS preorder plus per-node child
    counts reconstruct ``parent``/``first_child``/``next_sibling`` in
    one linear pass.
    """

    __slots__ = ("names", "labels", "n_children", "root_starts", "vocab")

    def __init__(
        self,
        names: List[str],
        labels: array,
        n_children: array,
        root_starts: array,
        vocab: List[Tuple[int, object]],
    ) -> None:
        self.names = names
        self.labels = labels
        self.n_children = n_children
        self.root_starts = root_starts
        self.vocab = vocab

    @classmethod
    def slice(cls, store: ArenaStore, lo: int, hi: int) -> "ArenaShard":
        arena = store.arena
        start, _ = store.root_block(lo)
        _, end = store.root_block(hi - 1)
        global_labels = arena.labels[start:end]
        entry = arena.intern.entry
        local_ids: Dict[int, int] = {}
        vocab: List[Tuple[int, object]] = []
        labels = array("q")
        for ident in global_labels:
            local = local_ids.get(ident)
            if local is None:
                local = len(vocab)
                local_ids[ident] = local
                vocab.append(entry(ident))
            labels.append(local)
        root_starts = array(
            "q", (arena.roots[index] - start for index in range(lo, hi))
        )
        return cls(
            names=[store.name_at(index) for index in range(lo, hi)],
            labels=labels,
            n_children=arena.n_children[start:end],
            root_starts=root_starts,
            vocab=vocab,
        )

    def nbytes(self) -> int:
        return (
            len(self.labels) * self.labels.itemsize
            + len(self.n_children) * self.n_children.itemsize
            + len(self.root_starts) * self.root_starts.itemsize
            + sum(sys.getsizeof(value) for _, value in self.vocab)
        )

    def to_store(self, intern: Optional[InternTable] = None) -> ArenaStore:
        """Rebuild an :class:`ArenaStore` in this process: re-intern the
        vocabulary, remap the label column, and derive the structure
        columns from the child counts."""
        table = intern if intern is not None else GLOBAL_INTERN
        global_ids = array(
            "q", (table.intern(kind, value) for kind, value in self.vocab)
        )
        kind_of = bytearray(kind for kind, _ in self.vocab)
        arena = Arena(table)
        arena.labels = array("q", (global_ids[local] for local in self.labels))
        arena.kinds = bytearray(kind_of[local] for local in self.labels)
        n_children = self.n_children
        size = len(n_children)
        arena.n_children = array("q", n_children)
        parent = array("q", [-1]) * size
        first_child = array("q", [-1]) * size
        next_sibling = array("q", [-1]) * size
        stack: List[List[int]] = []  # [offset, remaining children, last child]
        for offset in range(size):
            if stack:
                top = stack[-1]
                parent[offset] = top[0]
                if top[2] == -1:
                    first_child[top[0]] = offset
                else:
                    next_sibling[top[2]] = offset
                top[2] = offset
                top[1] -= 1
            count = n_children[offset]
            if count:
                stack.append([offset, count, -1])
            while stack and stack[-1][1] == 0:
                stack.pop()
        arena.parent = parent
        arena.first_child = first_child
        arena.next_sibling = next_sibling
        arena.roots = array("q", self.root_starts)
        store = ArenaStore(arena)
        store._names = []
        store._positions = {}
        for name in self.names:
            store._register(name)
        return store
