"""Seeded input text for the end-to-end benchmark (standard library only).

The parent process builds every input here and hands the children only
the text, so no input is generated inside a timed region and the
program under test never sees the seed. The parent never imports the
program under test, so this module repeats the few shapes it shares
with ``repro.workloads`` (the kind names, for one). The text is the
benchmark's own; dealer_ingest's conversion program is not:
``repro.workloads.dealer_document_program`` builds it in the child from
the kind names chosen here, so a change to that generator moves
dealer_ingest. The shapes follow the paper's car-dealer scenario:

* SGML brochures conforming to the Section 3.1 DTD, with a controlled
  pool of distinct suppliers (the Skolem-sharing factor of Figure 3);
* dealer documents of many kinds (price lists, invoices, ...), one
  conversion rule per kind;
* the Section 3.2 relational dealer database as CSV text whose supplier
  rows join the brochures through ``name`` and ``sameaddress``.

The same seed always gives the same text.
"""

from __future__ import annotations

import csv
import io
import random
from typing import Dict, List, Sequence, Tuple

CITIES = [
    ("Paris", 75005),
    ("Lyon", 69001),
    ("Lille", 59000),
    ("Nantes", 44000),
    ("Toulouse", 31000),
    ("Bordeaux", 33000),
]
MODELS = ["Golf", "Golf GTI", "Polo", "Passat", "Beetle", "Corrado", "Vento"]
KIND_BASES = [
    "pricelist", "invoice", "service_record", "warranty", "testdrive",
    "order", "delivery", "tradein", "inspection", "leasing",
]

#: Input sizes per profile. ``full`` is the measured configuration;
#: ``quick`` is a smoke-test scale with the same shapes.
SIZES = {
    "full": {
        "fig1_publish": {"brochures": 1000, "suppliers": 200, "per_brochure": 2},
        "dealer_ingest": {"brochures": 200, "suppliers": 10, "documents": 10_000,
                          "kinds": 50},
        "rule3_join": {"brochures": 120, "suppliers": 24, "sales_per_car": 2},
        "serve_mix": {"brochures": 6, "suppliers": 4, "hot": 16},
    },
    "quick": {
        "fig1_publish": {"brochures": 100, "suppliers": 20, "per_brochure": 2},
        "dealer_ingest": {"brochures": 20, "suppliers": 10, "documents": 1000,
                          "kinds": 50},
        "rule3_join": {"brochures": 30, "suppliers": 8, "sales_per_car": 2},
        "serve_mix": {"brochures": 6, "suppliers": 4, "hot": 16},
    },
}


class Supplier:
    __slots__ = ("name", "street", "city", "zip_code")

    def __init__(self, name: str, street: str, city: str, zip_code: int) -> None:
        self.name = name
        self.street = street
        self.city = city
        self.zip_code = zip_code

    @property
    def address(self) -> str:
        """The one-line SGML spelling: ``street, City zip``."""
        return f"{self.street}, {self.city} {self.zip_code}"


def supplier_pool(count: int, rng: random.Random) -> List[Supplier]:
    pool = []
    for index in range(count):
        city, zip_code = CITIES[index % len(CITIES)]
        pool.append(Supplier(
            f"VW dealer {index}", f"{rng.randint(1, 99)} Bd Lenoir",
            city, zip_code + index % 97,
        ))
    return pool


def brochure_text(number: int, title: str, year: int, desc: str,
                  suppliers: Sequence[Supplier]) -> str:
    lines = [
        "<brochure>",
        f"  <number>{number}</number>",
        f"  <title>{title}</title>",
        f"  <model>{year}</model>",
        f"  <desc>{desc}</desc>",
        "  <spplrs>",
    ]
    for supplier in suppliers:
        lines += [
            "    <supplier>",
            f"      <name>{supplier.name}</name>",
            f"      <address>{supplier.address}</address>",
            "    </supplier>",
        ]
    lines += ["  </spplrs>", "</brochure>"]
    return "\n".join(lines)


def brochures(count: int, pool: Sequence[Supplier], per_brochure: int,
              rng: random.Random, tag: str = "") -> Tuple[List[str], set]:
    """``count`` brochures (years after 1975, so Rule 1 keeps all of
    them); returns their texts and the names of the suppliers used."""
    texts, used = [], set()
    for number in range(1, count + 1):
        chosen = rng.sample(list(pool), min(per_brochure, len(pool)))
        used.update(s.name for s in chosen)
        texts.append(brochure_text(
            number, rng.choice(MODELS), 1976 + rng.randint(0, 22),
            f"A described car number {number}{tag}", chosen,
        ))
    return texts, used


def kind_names(count: int) -> List[str]:
    return [
        f"{KIND_BASES[i % len(KIND_BASES)]}_{i // len(KIND_BASES)}"
        for i in range(count)
    ]


def fig1_publish(size: Dict[str, int], rng: random.Random) -> Dict[str, object]:
    pool = supplier_pool(size["suppliers"], rng)
    texts, used = brochures(size["brochures"], pool, size["per_brochure"], rng)
    return {
        "sgml": "\n".join(texts),
        "documents": size["brochures"],
        # one HTML page per car object and per distinct supplier object
        "expect_outputs": size["brochures"] + len(used),
    }


def dealer_ingest(size: Dict[str, int], rng: random.Random) -> Dict[str, object]:
    pool = supplier_pool(size["suppliers"], rng)
    texts, used = brochures(size["brochures"], pool, 2, rng)
    kinds = kind_names(size["kinds"])
    for index in range(size["documents"]):
        kind = kinds[index % len(kinds)]
        texts.append(
            f"<{kind}>\n  <id>{index}</id>\n"
            f"  <dealer>VW dealer {rng.randrange(7)}</dealer>\n"
            f"  <amount>{rng.randint(100, 999)}</amount>\n</{kind}>"
        )
    rng.shuffle(texts)
    return {
        "sgml": "\n".join(texts),
        "kinds": kinds,
        "documents": len(texts),
        "expect_outputs": size["brochures"] + len(used) + size["documents"],
    }


def _csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def rule3_join(size: Dict[str, int], rng: random.Random) -> Dict[str, object]:
    pool = supplier_pool(size["suppliers"], rng)
    cars = size["brochures"]
    texts, _ = brochures(cars, pool, 1, rng)
    suppliers = [
        (sid, s.name, s.city, s.street, f"0{rng.randint(10**8, 10**9 - 1)}")
        for sid, s in enumerate(pool, start=1)
    ]
    sales = [
        (rng.randint(1, len(pool)), cid, 1990 + rng.randint(0, 8),
         rng.randint(0, 500))
        for cid in range(1, cars + 1)
        for _ in range(size["sales_per_car"])
    ]
    return {
        "sgml": "\n".join(texts),
        "csv": {
            "suppliers": _csv(["sid", "name", "city", "address", "tel"], suppliers),
            "cars": _csv(["cid", "broch_num"],
                         [(cid, str(cid)) for cid in range(1, cars + 1)]),
            "sales": _csv(["sid", "cid", "year", "sold"], sales),
        },
        "documents": cars + 3,
        # every brochure joins its car row and its supplier row
        "expect_outputs": cars,
    }


BATCH = {
    "fig1_publish": fig1_publish,
    "dealer_ingest": dealer_ingest,
    "rule3_join": rule3_join,
}


def batch_inputs(workload: str, profile: str, seed: int) -> Dict[str, object]:
    rng = random.Random(f"{seed}/{workload}")
    return BATCH[workload](SIZES[profile][workload], rng)


class ServePayloads:
    """The serve_mix traffic: a few hot payloads repeated and a stream
    of unique ones. Payload ``key`` is ``h<j>`` or ``u<i>``; its text
    depends only on the seed and the key, so any request order gives
    the same bodies."""

    def __init__(self, profile: str, seed: int) -> None:
        self.size = SIZES[profile]["serve_mix"]
        self.seed = seed
        self.hot = [f"h{j}" for j in range(self.size["hot"])]

    def text(self, key: str) -> str:
        rng = random.Random(f"{self.seed}/serve_mix/{key}")
        pool = supplier_pool(self.size["suppliers"], rng)
        texts, _ = brochures(self.size["brochures"], pool, 2, rng, tag=f" ({key})")
        return "\n".join(texts)
