"""SGML parsing and writing.

A pragmatic subset sufficient for data-exchange documents: start/end
tags, text content, comments, and entity references for the markup
characters. No attributes or tag minimization — the paper's brochures
don't use them.
"""

from __future__ import annotations

from typing import List

from ..errors import WrapperError
from .document import Element

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

#: Deepest element nesting a document may have (the root is depth 1).
#: The parser and the tree walks after it recurse once per level, so a
#: deeper document is refused here with a line-numbered error instead
#: of exhausting the interpreter's stack.
MAX_DEPTH = 256


def parse_sgml(text: str) -> Element:
    """Parse one document and return its root element."""
    parser = _Parser(text)
    root = parser.parse_document()
    return root


def parse_sgml_many(text: str) -> List[Element]:
    """Parse a concatenation of documents (a brochure collection)."""
    parser = _Parser(text)
    documents = []
    while True:
        parser.skip_intermezzo()
        if parser.at_end():
            break
        documents.append(parser.parse_element())
    if not documents:
        raise WrapperError("no SGML document found")
    return documents


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # -- low level ------------------------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def error(self, message: str) -> WrapperError:
        line = self.text.count("\n", 0, self.pos) + 1
        return WrapperError(f"SGML syntax error (line {line}): {message}")

    def skip_intermezzo(self) -> None:
        """Skip whitespace, comments, and declarations between elements."""
        while not self.at_end():
            if self.text[self.pos].isspace():
                self.pos += 1
            elif self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos + 4)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<!", self.pos):
                # a DOCTYPE or other declaration: skip to the matching '>'
                depth = 0
                i = self.pos
                while i < len(self.text):
                    if self.text[i] == "[":
                        depth += 1
                    elif self.text[i] == "]":
                        depth -= 1
                    elif self.text[i] == ">" and depth <= 0:
                        break
                    i += 1
                if i >= len(self.text):
                    raise self.error("unterminated declaration")
                self.pos = i + 1
            else:
                return

    # -- grammar ---------------------------------------------------------------

    def parse_document(self) -> Element:
        self.skip_intermezzo()
        if self.at_end():
            raise self.error("empty document")
        root = self.parse_element()
        self.skip_intermezzo()
        if not self.at_end():
            raise self.error("content after the root element")
        return root

    def parse_element(self, depth: int = 1) -> Element:
        if not self.text.startswith("<", self.pos):
            raise self.error("expected a start tag")
        if depth > MAX_DEPTH:
            raise self.error(f"elements nested deeper than {MAX_DEPTH}")
        tag = self._read_tag()
        element = Element(tag)
        while True:
            if self.at_end():
                raise self.error(f"unclosed element {tag!r}")
            if self.text.startswith("</", self.pos):
                end_tag = self._read_end_tag()
                if end_tag != tag:
                    raise self.error(
                        f"mismatched end tag: expected </{tag}>, got </{end_tag}>"
                    )
                return element
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos + 4)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
                continue
            if self.text.startswith("<", self.pos):
                element.append(self.parse_element(depth + 1))
                continue
            text = self._read_text()
            if text:
                element.append(text)
        raise AssertionError("unreachable")

    def _read_tag(self) -> str:
        end = self.text.find(">", self.pos)
        if end < 0:
            raise self.error("unterminated start tag")
        name = self.text[self.pos + 1 : end].strip()
        if not name or not name.replace("_", "").replace("-", "").isalnum():
            raise self.error(f"invalid tag name {name!r}")
        self.pos = end + 1
        return name

    def _read_end_tag(self) -> str:
        end = self.text.find(">", self.pos)
        if end < 0:
            raise self.error("unterminated end tag")
        name = self.text[self.pos + 2 : end].strip()
        self.pos = end + 1
        return name

    def _read_text(self) -> str:
        start = self.pos
        while not self.at_end() and self.text[self.pos] != "<":
            self.pos += 1
        raw = self.text[start : self.pos]
        decoded = _decode_entities(raw, self.error)
        return decoded.strip()


def _decode_entities(raw: str, error) -> str:
    if "&" not in raw:
        return raw
    parts: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            parts.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end < 0:
            raise error("unterminated entity reference")
        name = raw[i + 1 : end]
        if name.startswith("#"):
            try:
                parts.append(chr(int(name[1:])))
            except ValueError:
                raise error(f"bad character reference &{name};") from None
        elif name in _ENTITIES:
            parts.append(_ENTITIES[name])
        else:
            raise error(f"unknown entity &{name};")
        i = end + 1
    return "".join(parts)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _encode(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_sgml(element: Element, indent: int = 0, step: int = 2) -> str:
    """Serialize an element tree; text-only elements stay on one line."""
    pad = " " * indent
    only_text = all(isinstance(c, str) for c in element.children)
    if only_text:
        inner = "".join(_encode(c) for c in element.children)  # type: ignore[arg-type]
        return f"{pad}<{element.tag}>{inner}</{element.tag}>"
    lines = [f"{pad}<{element.tag}>"]
    for child in element.children:
        if isinstance(child, str):
            lines.append(f"{' ' * (indent + step)}{_encode(child)}")
        else:
            lines.append(write_sgml(child, indent + step, step))
    lines.append(f"{pad}</{element.tag}>")
    return "\n".join(lines)
