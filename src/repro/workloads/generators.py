"""Synthetic workload generators for the benchmarks and examples.

The OPAL project data the paper used is not available; these generators
produce the same *shapes* at configurable scale: SGML brochures with a
controllable duplicate-supplier ratio, the Section 3.2 relational dealer
database, ODMG object graphs of configurable size and depth, and sales
matrices for Rule 5. All generators are deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..core.trees import Tree
from ..objectdb.schema import ObjectSchema, car_dealer_schema
from ..objectdb.store import ObjectStore
from ..relational.database import Database
from ..relational.schema import dealer_schema
from ..sgml.document import Element, element

_CITIES = [
    ("Paris", 75005),
    ("Lyon", 69001),
    ("Lille", 59000),
    ("Nantes", 44000),
    ("Toulouse", 31000),
    ("Bordeaux", 33000),
]

_MODELS = ["Golf", "Golf GTI", "Polo", "Passat", "Beetle", "Corrado", "Vento"]


def supplier_pool(count: int, seed: int = 7) -> List[Tuple[str, str]]:
    """``count`` distinct (name, address) pairs."""
    rng = random.Random(seed)
    pool = []
    for index in range(count):
        city, zip_code = _CITIES[index % len(_CITIES)]
        name = f"VW dealer {index}"
        street = f"{rng.randint(1, 99)} Bd Lenoir"
        pool.append((name, f"{street}, {city} {zip_code + index % 97}"))
    return pool


def brochure_elements(
    count: int,
    suppliers_per_brochure: int = 2,
    distinct_suppliers: Optional[int] = None,
    seed: int = 7,
    old_ratio: float = 0.0,
) -> List[Element]:
    """SGML brochures conforming to the Section 3.1 DTD.

    ``distinct_suppliers`` controls the Skolem-sharing factor of Figure 3
    (suppliers appearing in several brochures); ``old_ratio`` is the
    fraction of brochures with ``model <= 1975`` that Rule 1's predicate
    filters out.
    """
    rng = random.Random(seed)
    pool = supplier_pool(distinct_suppliers or max(1, count // 2), seed)
    documents = []
    for index in range(1, count + 1):
        year = 1960 + rng.randint(0, 14) if rng.random() < old_ratio else (
            1976 + rng.randint(0, 22)
        )
        chosen = rng.sample(pool, min(suppliers_per_brochure, len(pool)))
        documents.append(
            element(
                "brochure",
                element("number", index),
                element("title", rng.choice(_MODELS)),
                element("model", year),
                element("desc", f"A described car number {index}"),
                element(
                    "spplrs",
                    *[
                        element("supplier", element("name", n), element("address", a))
                        for n, a in chosen
                    ],
                ),
            )
        )
    return documents


def brochure_sgml(
    count: int,
    suppliers_per_brochure: int = 2,
    distinct_suppliers: Optional[int] = None,
    seed: int = 7,
    old_ratio: float = 0.0,
) -> str:
    """The same brochures as serialized SGML text — the wire payload a
    ``repro serve`` client POSTs to ``/convert/<program>`` (also the
    load-driver payload in ``benchmarks/bench_serve.py``)."""
    from ..sgml.parser import write_sgml

    return "\n".join(
        write_sgml(doc)
        for doc in brochure_elements(
            count, suppliers_per_brochure, distinct_suppliers, seed, old_ratio
        )
    )


def brochure_trees(
    count: int,
    suppliers_per_brochure: int = 2,
    distinct_suppliers: Optional[int] = None,
    seed: int = 7,
    old_ratio: float = 0.0,
) -> List[Tree]:
    """The same brochures, directly as YAT trees (skipping SGML parsing).

    Matches the import wrapper's output exactly."""
    from ..wrappers.sgml import SgmlImportWrapper

    wrapper = SgmlImportWrapper()
    return [
        wrapper.element_to_tree(doc)
        for doc in brochure_elements(
            count, suppliers_per_brochure, distinct_suppliers, seed, old_ratio
        )
    ]


_KIND_BASES = [
    "pricelist",
    "invoice",
    "service_record",
    "warranty",
    "testdrive",
    "order",
    "delivery",
    "tradein",
    "inspection",
    "leasing",
]


def document_kind_names(count: int) -> List[str]:
    """``count`` distinct document-kind names, car-dealer flavoured —
    the heterogeneous document base of the dispatch-index benchmark and
    of dealer_ingest (price lists, invoices, service records...)."""
    return [
        f"{_KIND_BASES[i % len(_KIND_BASES)]}_{i // len(_KIND_BASES)}"
        for i in range(count)
    ]


def dealer_document_program(kinds: List[str]):
    """Rules 1+2 (brochures -> car/supplier objects) combined with one
    conversion rule per extra document kind the dealership produces."""
    from ..library.programs import BROCHURES_TEXT
    from ..yatl.parser import parse_program

    lines = [BROCHURES_TEXT.strip().rsplit("end", 1)[0]]
    for kind in kinds:
        lines.append(
            f"""
rule Conv_{kind}:
  P{kind}(Id) :
    class -> {kind} < -> id -> Id, -> amount -> A >
<=
  Pdoc_{kind} :
    {kind} < -> id -> Id, -> dealer -> Dl, -> amount -> A >
"""
        )
    lines.append("end")
    return parse_program("\n".join(lines))


def dealer_document_store(brochures: int, documents: int, kinds: List[str]):
    """A heterogeneous input store: brochures interleaved with the
    other document kinds, in a deterministic round-robin order."""
    from ..core.trees import DataStore, tree

    store = DataStore()
    for index, node in enumerate(brochure_trees(brochures, distinct_suppliers=10)):
        store.add(f"br{index}", node)
    for index in range(documents):
        kind = kinds[index % len(kinds)]
        node = tree(
            kind,
            tree("id", index),
            tree("dealer", f"VW dealer {index % 7}"),
            tree("amount", 100 + index % 900),
        )
        store.add(f"doc{index}", node)
    return store


def dealer_database(
    suppliers: int, cars: int, sales_per_car: int = 2, seed: int = 7
) -> Database:
    """The Section 3.2 relational database at scale. Car ``broch_num``
    values link to brochure numbers 1..cars."""
    rng = random.Random(seed)
    database = Database(dealer_schema())
    pool = supplier_pool(suppliers, seed)
    for sid, (name, full_address) in enumerate(pool, start=1):
        street, _, city_zip = full_address.partition(", ")
        city = " ".join(w for w in city_zip.split() if not w.isdigit())
        database.insert(
            "suppliers", sid, name, city, street, f"0{rng.randint(10**8, 10**9 - 1)}"
        )
    for cid in range(1, cars + 1):
        database.insert("cars", cid, str(cid))
    for cid in range(1, cars + 1):
        for _ in range(sales_per_car):
            database.insert(
                "sales",
                rng.randint(1, max(1, suppliers)),
                cid,
                1990 + rng.randint(0, 8),
                rng.randint(0, 500),
            )
    return database


def car_object_store(
    cars: int,
    suppliers: int,
    suppliers_per_car: int = 2,
    schema: Optional[ObjectSchema] = None,
    seed: int = 7,
) -> ObjectStore:
    """An ODMG store of cars referencing shared suppliers (the Golf
    database of Figure 2 at scale)."""
    rng = random.Random(seed)
    store = ObjectStore(schema or car_dealer_schema())
    pool = supplier_pool(suppliers, seed)
    supplier_oids = []
    for name, full_address in pool:
        _, _, city_zip = full_address.partition(", ")
        words = city_zip.split()
        city = " ".join(w for w in words if not w.isdigit())
        zip_code = next((w for w in words if w.isdigit()), "00000")
        instance = store.create(
            "supplier", {"name": name, "city": city, "zip": zip_code}
        )
        supplier_oids.append(instance.oid)
    for index in range(1, cars + 1):
        chosen = rng.sample(supplier_oids, min(suppliers_per_car, len(supplier_oids)))
        store.create(
            "car",
            {
                "name": f"{rng.choice(_MODELS)} #{index}",
                "desc": f"A described car number {index}",
                "suppliers": chosen,
            },
        )
    return store


def sales_matrix(rows: int, columns: int, seed: int = 7) -> Tree:
    """A ``rows x columns`` matrix tree for Rule 5 (Figure 4): columns
    are years, rows are car models, cells are sales counts."""
    rng = random.Random(seed)
    column_nodes = []
    for c in range(columns):
        cells = [
            Tree(f"model_{r}", (Tree(rng.randint(0, 1000)),)) for r in range(rows)
        ]
        column_nodes.append(Tree(1990 + c, cells))
    return Tree("matrix", column_nodes)


def deep_object_store(
    depth: int, fanout: int = 2, schema: Optional[ObjectSchema] = None
) -> ObjectStore:
    """A store exercising deep recursion in the O2Web program: nested
    tuples/lists down to ``depth`` levels under a single object."""
    from ..objectdb.types import STRING, list_of
    from ..objectdb.schema import ClassDef

    def nested_type(level: int):
        if level == 0:
            return STRING
        return list_of(nested_type(level - 1))

    def nested_value(level: int):
        if level == 0:
            return f"leaf@{level}"
        return [nested_value(level - 1) for _ in range(fanout)]

    schema = ObjectSchema(
        "deep", [ClassDef("node", [("payload", nested_type(depth))])]
    )
    store = ObjectStore(schema)
    store.create("node", {"payload": nested_value(depth)})
    return store
