"""Tables: validated row storage with a small query surface.

The engine is deliberately small — the paper's wrapper only needs to
enumerate rows in insertion order — but offers the selections,
projections and joins the benchmarks and examples use to prepare
workloads.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from .schema import TableSchema

Row = Tuple[object, ...]


class Table:
    """Rows under a schema, preserving insertion order.

    A primary key, when declared, is enforced with an index; the same
    index serves point lookups.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        self._key_index: Dict[object, int] = {}

    @property
    def name(self) -> str:
        return self.schema.name

    # -- mutation -----------------------------------------------------------

    def insert(self, *values: object) -> Row:
        """Insert one row (positional values in column order)."""
        row = self.schema.validate_row(values)
        key_pos = self.schema.key_index()
        if key_pos is not None:
            key = row[key_pos]
            if key in self._key_index:
                raise SchemaError(
                    f"table {self.name!r}: duplicate key {key!r}"
                )
            self._key_index[key] = len(self._rows)
        self._rows.append(row)
        return row

    def insert_dict(self, values: Dict[str, object]) -> Row:
        """Insert one row from a column-name mapping."""
        ordered = []
        for column in self.schema.columns:
            if column.name not in values and not column.nullable:
                raise SchemaError(
                    f"table {self.name!r}: missing value for {column.name!r}"
                )
            ordered.append(values.get(column.name))
        extra = set(values) - set(self.schema.column_names())
        if extra:
            raise SchemaError(
                f"table {self.name!r}: unknown column(s) {sorted(extra)}"
            )
        return self.insert(*ordered)

    # -- access -------------------------------------------------------------

    def rows(self) -> List[Row]:
        return list(self._rows)

    def row_dicts(self) -> List[Dict[str, object]]:
        names = self.schema.column_names()
        return [dict(zip(names, row)) for row in self._rows]

    def get(self, key: object) -> Optional[Row]:
        """Point lookup by primary key."""
        if self.schema.key is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        index = self._key_index.get(key)
        return self._rows[index] if index is not None else None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    # -- queries ------------------------------------------------------------

    def select(self, predicate: Callable[[Dict[str, object]], bool]) -> "Table":
        """Rows satisfying a predicate over column-name dicts."""
        result = Table(self.schema)
        names = self.schema.column_names()
        for row in self._rows:
            if predicate(dict(zip(names, row))):
                result.insert(*row)
        return result

    def project(self, columns: Sequence[str]) -> "Table":
        """Keep only the given columns (duplicates are preserved; the
        projected schema drops the key if it was projected away)."""
        kept = [self.schema.column(c) for c in columns]
        key = self.schema.key if self.schema.key in columns else None
        schema = TableSchema(self.schema.name, kept, key=key)
        result = Table(schema)
        indexes = [self.schema.column_names().index(c) for c in columns]
        seen_keys = set()
        for row in self._rows:
            projected = tuple(row[i] for i in indexes)
            if key is not None:
                key_value = projected[columns.index(key)]
                if key_value in seen_keys:
                    continue
                seen_keys.add(key_value)
            result.insert(*projected)
        return result

    def join(self, other: "Table", on: Sequence[Tuple[str, str]]) -> List[
        Tuple[Dict[str, object], Dict[str, object]]
    ]:
        """Equi-join: pairs of row dicts agreeing on the given column
        pairs. Hash join on the first pair, residual check on the rest."""
        if not on:
            raise SchemaError("join needs at least one column pair")
        first_left, first_right = on[0]
        buckets: Dict[object, List[Dict[str, object]]] = {}
        for right_row in other.row_dicts():
            buckets.setdefault(right_row[first_right], []).append(right_row)
        matches = []
        for left_row in self.row_dicts():
            for right_row in buckets.get(left_row[first_left], ()):
                if all(left_row[lc] == right_row[rc] for lc, rc in on[1:]):
                    matches.append((left_row, right_row))
        return matches

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._rows)} rows)"
