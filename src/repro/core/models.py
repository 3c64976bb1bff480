"""Models: named collections of patterns, and the built-in model tower.

Figure 2 of the paper shows four levels of representation: the most
general ``Yat`` model (captures any data), an ``ODMG`` model (instance of
Yat), a specific ``Car Schema`` model (instance of both) and the ground
``Golf`` database. This module provides the :class:`Model` container and
factories for the reusable levels: :func:`yat_model`, :func:`odmg_model`,
:func:`relational_model`, :func:`sgml_model` and :func:`html_model` — the
formats the YAT prototype shipped wrappers for (Section 5.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import ModelError
from .instantiation import model_is_instance
from .patterns import (
    Pattern,
    edge_one,
    edge_star,
    name_leaf,
    pnode,
    ref_leaf,
    var,
)
from .variables import ATOMIC, SYMBOL, Var, enum


class Model:
    """A named set of patterns with their variable domains.

    Domains are carried by the variables inside the patterns, so the
    model itself is just an ordered, name-indexed pattern collection.
    """

    def __init__(self, name: str, patterns: Iterable[Pattern] = ()) -> None:
        self.name = name
        self._patterns: Dict[str, Pattern] = {}
        for pattern in patterns:
            self.add(pattern)

    def add(self, pattern: Pattern) -> None:
        if pattern.name in self._patterns:
            raise ModelError(
                f"model {self.name!r} already defines pattern {pattern.name!r}"
            )
        self._patterns[pattern.name] = pattern

    def get_pattern(self, name: str) -> Optional[Pattern]:
        return self._patterns.get(name)

    def pattern(self, name: str) -> Pattern:
        found = self._patterns.get(name)
        if found is None:
            raise ModelError(f"model {self.name!r} has no pattern {name!r}")
        return found

    def patterns(self) -> List[Pattern]:
        return list(self._patterns.values())

    def pattern_names(self) -> List[str]:
        return list(self._patterns)

    def is_instance_of(self, other: "Model") -> bool:
        """Model instantiation check: every pattern here must instantiate
        some pattern of *other* (Section 2)."""
        return model_is_instance(self, other)

    def merged_with(self, other: "Model", name: Optional[str] = None) -> "Model":
        """Union of two models (used when combining programs)."""
        merged = Model(name or f"{self.name}+{other.name}")
        for pattern in self.patterns():
            merged.add(pattern)
        for pattern in other.patterns():
            if merged.get_pattern(pattern.name) is None:
                merged.add(pattern)
            elif merged.get_pattern(pattern.name) != pattern:
                raise ModelError(
                    f"models {self.name!r} and {other.name!r} disagree on "
                    f"pattern {pattern.name!r}"
                )
        return merged

    def __contains__(self, name: str) -> bool:
        return name in self._patterns

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._patterns.values())

    def __repr__(self) -> str:
        return f"Model({self.name!r}, patterns=[{', '.join(self._patterns)}])"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Model)
            and other.name == self.name
            and other._patterns == self._patterns
        )


# ---------------------------------------------------------------------------
# The Yat model — captures any data (top left of Figure 2).
# ---------------------------------------------------------------------------


def yat_model() -> Model:
    """The most general model: ``Yat : L`` | ``L *-> Yat`` | ``&Yat``.

    Any node label (variable ``L`` over the default domain), any number
    of children which are themselves Yat, or a reference.
    """
    yat = Pattern(
        "Yat",
        [
            var("L"),
            pnode(Var("L"), edge_star(name_leaf("Yat"))),
            ref_leaf("Yat"),
        ],
    )
    return Model("Yat", [yat])


# ---------------------------------------------------------------------------
# The ODMG model (top right of Figure 2).
# ---------------------------------------------------------------------------


def odmg_model() -> Model:
    """ODMG-compliant data: classes with named attributes whose values
    are atoms, collections (set/bag/list/array), tuples (structs) or
    references to class objects."""
    pclass = Pattern(
        "Pclass",
        [
            pnode(
                "class",
                edge_one(
                    pnode(
                        Var("Class_name", SYMBOL),
                        edge_star(pnode(Var("Att", SYMBOL), edge_one(name_leaf("Ptype")))),
                    )
                ),
            )
        ],
    )
    ptype = Pattern(
        "Ptype",
        [
            var("Y", ATOMIC),
            pnode(Var("X", enum("set", "bag", "list", "array")),
                  edge_star(name_leaf("Ptype"))),
            pnode("tuple",
                  edge_star(pnode(Var("Field", SYMBOL), edge_one(name_leaf("Ptype"))))),
            ref_leaf("Pclass"),
        ],
    )
    return Model("ODMG", [pclass, ptype])


# ---------------------------------------------------------------------------
# The relational model (Section 3.2).
# ---------------------------------------------------------------------------


def relational_model() -> Model:
    """Relational data seen through the wrapper: a table is a node named
    after the relation with one ``row`` child per tuple, each row having
    one attribute child per column holding an atomic value."""
    ptable = Pattern(
        "Ptable",
        [
            pnode(
                Var("Table_name", SYMBOL),
                edge_star(
                    pnode(
                        "row",
                        edge_star(pnode(Var("Column", SYMBOL),
                                        edge_one(var("V", ATOMIC)))),
                    )
                ),
            )
        ],
    )
    return Model("Relational", [ptable])


# ---------------------------------------------------------------------------
# The SGML model (Section 3.1).
# ---------------------------------------------------------------------------


def sgml_model() -> Model:
    """Generic SGML documents: an element is a node labeled with the tag
    symbol whose children are elements or PCDATA leaves."""
    pelement = Pattern(
        "Pelement",
        [
            pnode(Var("Tag", SYMBOL), edge_star(name_leaf("Pelement"))),
            var("Pcdata", ATOMIC),
        ],
    )
    return Model("SGML", [pelement])


# ---------------------------------------------------------------------------
# The HTML model (Figure 5).
# ---------------------------------------------------------------------------


def html_model() -> Model:
    """HTML pages as produced by the O2Web-style program of Section 4.1.

    A page is ``html < head -> title -> ..., body -> ... >``; elements
    are nodes labeled with tag symbols; anchors carry ``href`` references
    to other pages and a ``cont`` content child.
    """
    phtml = Pattern(
        "Phtml",
        [
            pnode(
                "html",
                edge_one(pnode("head", edge_one(pnode("title",
                                                      edge_one(name_leaf("Pelem")))))),
                edge_one(pnode("body", edge_star(name_leaf("Pelem")))),
            )
        ],
    )
    pelem = Pattern(
        "Pelem",
        [
            var("Text"),
            pnode(Var("Tag", SYMBOL), edge_star(name_leaf("Pelem"))),
            pnode("a",
                  edge_one(pnode("href", edge_one(ref_leaf("Phtml")))),
                  edge_one(pnode("cont", edge_one(name_leaf("Pelem"))))),
        ],
    )
    return Model("HTML", [phtml, pelem])


# ---------------------------------------------------------------------------
# The Car Schema model (bottom left of Figure 2 / Section 2 patterns).
# ---------------------------------------------------------------------------


def car_schema_model() -> Model:
    """The paper's specific ODMG schema: ``Pcar`` and ``Psup`` patterns
    exactly as written at the end of Section 2."""
    from .variables import STRING  # local import to keep top imports tidy

    pcar = Pattern(
        "Pcar",
        [
            pnode(
                "class",
                edge_one(
                    pnode(
                        "car",
                        edge_one(pnode("name", edge_one(var("S1", STRING)))),
                        edge_one(pnode("desc", edge_one(var("S2", STRING)))),
                        edge_one(
                            pnode("suppliers",
                                  edge_one(pnode("set", edge_star(ref_leaf("Psup")))))
                        ),
                    )
                ),
            )
        ],
    )
    psup = Pattern(
        "Psup",
        [
            pnode(
                "class",
                edge_one(
                    pnode(
                        "supplier",
                        edge_one(pnode("name", edge_one(var("S1", STRING)))),
                        edge_one(pnode("city", edge_one(var("S2", STRING)))),
                        edge_one(pnode("zip", edge_one(var("S3", STRING)))),
                    )
                ),
            )
        ],
    )
    return Model("CarSchema", [pcar, psup])


BUILTIN_MODELS = {
    "Yat": yat_model,
    "ODMG": odmg_model,
    "Relational": relational_model,
    "SGML": sgml_model,
    "HTML": html_model,
    "CarSchema": car_schema_model,
}


def builtin_model(name: str) -> Model:
    """Instantiate one of the shipped models by name."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise ModelError(f"no built-in model named {name!r}") from None
    return factory()
