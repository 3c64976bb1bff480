"""The metric catalog in docs/OBSERVABILITY.md names only metrics the
code emits."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
CATALOG = ROOT / "docs" / "OBSERVABILITY.md"
SOURCE = ROOT / "src" / "repro"

#: A backticked dotted name, such as `yatl.rule.outputs`.
_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)`")


def catalog_names():
    """The dotted names in the first cell of each metric-table row."""
    names = []
    for line in CATALOG.read_text(encoding="utf-8").splitlines():
        if line.startswith("|"):
            first_cell = line.strip().strip("|").split("|")[0]
            names.extend(_DOTTED.findall(first_cell))
    return names


def source_strings():
    strings = set()
    for path in SOURCE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return strings


def test_every_cataloged_metric_is_emitted():
    names = catalog_names()
    assert names, "no metric-table rows found"
    emitted = source_strings()
    assert [name for name in names if name not in emitted] == []
