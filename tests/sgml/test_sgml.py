"""SGML substrate: DTD parsing, document parsing, validation, writing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError, WrapperError
from repro.sgml import (
    Choice,
    PCData,
    Seq,
    ValidationError,
    brochure_dtd,
    element,
    is_valid,
    parse_dtd,
    parse_sgml,
    parse_sgml_many,
    validate,
    write_sgml,
)
from repro.sgml.parser import MAX_DEPTH


class TestDtdParsing:
    def test_brochure_dtd(self):
        dtd = brochure_dtd()
        assert dtd.root == "brochure"
        content = dtd.element("brochure").content
        assert isinstance(content, Seq) and len(content.items) == 5

    def test_repetitions(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a*, b+, c?)> <!ELEMENT a (#PCDATA)>"
            " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>"
        )
        items = dtd.element("r").content.items
        assert [i.mode for i in items] == ["*", "+", "?"]

    def test_choice(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a | b)> <!ELEMENT a (#PCDATA)>"
            " <!ELEMENT b (#PCDATA)> ]>"
        )
        assert isinstance(dtd.element("r").content, Choice)

    def test_mixed_separators_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!DOCTYPE r [ <!ELEMENT r (a, b | c)> ]>")

    def test_undeclared_reference_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd("<!DOCTYPE r [ <!ELEMENT r (missing)> ]>")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(SchemaError):
            parse_dtd(
                "<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> <!ELEMENT r (#PCDATA)> ]>"
            )

    def test_paper_typo_accepted(self):
        # the paper's listing spells it #PCADATA
        dtd = parse_dtd("<!DOCTYPE r [ <!ELEMENT r (#PCADATA)> ]>")
        assert isinstance(dtd.element("r").content, PCData)

    def test_empty_and_any(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a, b)> <!ELEMENT a EMPTY>"
            " <!ELEMENT b ANY> ]>"
        )
        assert dtd.element("a").content.render() == "EMPTY"
        assert dtd.element("b").content.render() == "ANY"


class TestSgmlParsing:
    def test_simple_document(self):
        doc = parse_sgml("<a><b>text</b><c>more</c></a>")
        assert doc.tag == "a"
        assert doc.find("b").text == "text"

    def test_whitespace_between_elements_ignored(self):
        doc = parse_sgml("<a>\n  <b>x</b>\n</a>")
        assert len(doc.elements()) == 1

    def test_entities_decoded(self):
        doc = parse_sgml("<a>x &amp; y &lt;z&gt; &#65;</a>")
        assert doc.text == "x & y <z> A"

    def test_unknown_entity_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml("<a>&nope;</a>")

    def test_comments_skipped(self):
        doc = parse_sgml("<a><!-- note --><b>x</b></a>")
        assert len(doc.elements()) == 1

    def test_doctype_skipped(self):
        doc = parse_sgml("<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>")
        assert doc.tag == "a"

    def test_mismatched_tags_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml("<a><b>x</a></b>")

    def test_unclosed_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml("<a><b>x</b>")

    def test_content_after_root_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml("<a>x</a><b>y</b>")

    def test_parse_many(self):
        docs = parse_sgml_many("<a>1</a> <a>2</a>")
        assert [d.text for d in docs] == ["1", "2"]

    def test_parse_many_empty_rejected(self):
        with pytest.raises(WrapperError):
            parse_sgml_many("   ")

    def test_nesting_past_the_bound_rejected(self):
        depth = MAX_DEPTH + 1
        text = "<a>" * depth + "x" + "</a>" * depth
        with pytest.raises(WrapperError, match=f"deeper than {MAX_DEPTH}"):
            parse_sgml_many(text)


class TestValidation:
    def test_valid_brochure(self):
        doc = element(
            "brochure",
            element("number", 1),
            element("title", "Golf"),
            element("model", 1995),
            element("desc", "d"),
            element(
                "spplrs",
                element("supplier", element("name", "VW"),
                        element("address", "x")),
            ),
        )
        validate(doc, brochure_dtd())

    def test_zero_suppliers_valid(self):
        doc = element(
            "brochure",
            element("number", 1),
            element("title", "Golf"),
            element("model", 1995),
            element("desc", "d"),
            element("spplrs"),
        )
        assert is_valid(doc, brochure_dtd())

    def test_missing_field_invalid(self):
        doc = element("brochure", element("title", "Golf"))
        with pytest.raises(ValidationError):
            validate(doc, brochure_dtd())

    def test_wrong_order_invalid(self):
        doc = element(
            "brochure",
            element("title", "Golf"),
            element("number", 1),
            element("model", 1995),
            element("desc", "d"),
            element("spplrs"),
        )
        assert not is_valid(doc, brochure_dtd())

    def test_wrong_root(self):
        assert not is_valid(element("other"), brochure_dtd())

    def test_undeclared_element(self):
        doc = element(
            "brochure",
            element("number", 1),
            element("title", "Golf"),
            element("model", 1995),
            element("desc", "d"),
            element("spplrs", element("intruder")),
        )
        assert not is_valid(doc, brochure_dtd())

    def test_plus_requires_one(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a)+> <!ELEMENT a (#PCDATA)> ]>"
        )
        assert not is_valid(element("r"), dtd)
        assert is_valid(element("r", element("a", "x")), dtd)
        assert is_valid(element("r", element("a", "x"), element("a", "y")), dtd)

    def test_optional(self):
        dtd = parse_dtd(
            "<!DOCTYPE r [ <!ELEMENT r (a?)> <!ELEMENT a (#PCDATA)> ]>"
        )
        assert is_valid(element("r"), dtd)
        assert is_valid(element("r", element("a", "x")), dtd)
        assert not is_valid(element("r", element("a", "x"), element("a", "y")), dtd)

    def test_validation_error_carries_path(self):
        doc = element(
            "brochure",
            element("number", 1),
            element("title", "Golf"),
            element("model", 1995),
            element("desc", "d"),
            element("spplrs", element("supplier", element("name", "x"))),
        )
        with pytest.raises(ValidationError) as exc:
            validate(doc, brochure_dtd())
        assert "supplier" in str(exc.value)


class TestWriting:
    def test_round_trip(self):
        doc = element(
            "a", element("b", "text & more"), element("c", element("d", "x"))
        )
        assert parse_sgml(write_sgml(doc)) == doc

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs")),
                   min_size=1).map(str.strip).filter(lambda s: s and "&" not in s))
    def test_text_round_trips(self, text):
        doc = element("a", text)
        assert parse_sgml(write_sgml(doc)).text == text
