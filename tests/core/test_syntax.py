"""Textual syntax: lexer, pattern/model parsing, render round-trips."""

import pytest

from repro.core.labels import Symbol
from repro.core.models import odmg_model, yat_model
from repro.core.patterns import (
    GROUP,
    INDEX,
    ONE,
    ORDER,
    STAR,
    NameTerm,
    PNameLeaf,
    PNode,
    PRefLeaf,
    PVarLeaf,
    render_pattern_tree,
)
from repro.core.syntax import (
    parse_model,
    parse_pattern,
    parse_pattern_tree,
    tokenize,
)
from repro.core.variables import STRING, Var
from repro.errors import SyntaxYatError


class TestLexer:
    def test_basic_tokens(self):
        types = [t.type for t in tokenize("class -> Car *-> {}-> [X]-> (I)->")]
        assert types == [
            "IDENT", "ARROW", "UIDENT", "STAR_ARROW", "GROUP_ARROW",
            "LBRACKET", "UIDENT", "RBRACKET", "ARROW",
            "LPAREN", "UIDENT", "RPAREN", "ARROW", "EOF",
        ]

    def test_literals(self):
        tokens = tokenize('"Golf" 1995 -3 1.5 true false')
        assert [t.value for t in tokens[:-1]] == ["Golf", 1995, -3, 1.5, True, False]

    def test_string_escapes(self):
        token = tokenize(r'"a\"b\n"')[0]
        assert token.value == 'a"b\n'

    def test_unterminated_string(self):
        with pytest.raises(SyntaxYatError):
            tokenize('"oops')

    def test_comments_skipped(self):
        tokens = tokenize("a // line comment\n /* block\ncomment */ b")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(SyntaxYatError):
            tokenize("/* never ends")

    def test_keywords(self):
        types = [t.type for t in tokenize("rule model is end")]
        assert types == ["RULE", "MODEL", "IS", "END", "EOF"]

    def test_positions_reported(self):
        with pytest.raises(SyntaxYatError) as exc:
            tokenize('x\n  "bad')
        assert exc.value.line == 2

    def test_unexpected_character(self):
        with pytest.raises(SyntaxYatError):
            tokenize("a # b")


class TestPatternParsing:
    def test_chain(self):
        node = parse_pattern_tree("class -> car -> name")
        assert node.label is Symbol("class")
        assert node.edges[0].target.label is Symbol("car")

    def test_bracketed_children(self):
        node = parse_pattern_tree("a < -> b, *-> c, {}-> d >")
        kinds = [e.kind for e in node.edges]
        assert kinds == [ONE, STAR, GROUP]

    def test_order_edge(self):
        node = parse_pattern_tree("list [SN,C]-> x")
        edge = node.edges[0]
        assert edge.kind == ORDER and edge.criteria == (Var("SN"), Var("C"))

    def test_index_edge(self):
        node = parse_pattern_tree("m (I)-> x")
        assert node.edges[0].kind == INDEX
        assert node.edges[0].index_var == Var("I")

    def test_typed_variable(self):
        node = parse_pattern_tree("S1 : string")
        assert isinstance(node.label, Var) and node.label.domain is STRING

    def test_union_domain(self):
        node = parse_pattern_tree("X : (set|bag)")
        assert node.label.domain.contains(Symbol("set"))
        assert not node.label.domain.contains(Symbol("list"))

    def test_pattern_variable(self):
        leaf = parse_pattern_tree("P2 : Ptype")
        assert isinstance(leaf, PVarLeaf) and leaf.var.domain_pattern == "Ptype"

    def test_caret_pattern_variable(self):
        leaf = parse_pattern_tree("^Data")
        assert isinstance(leaf, PVarLeaf) and leaf.var.domain_pattern is None

    def test_skolem_leaf(self):
        leaf = parse_pattern_tree("Psup(SN)")
        assert isinstance(leaf, PNameLeaf)
        assert leaf.term == NameTerm("Psup", [Var("SN")])

    def test_reference_leaf(self):
        leaf = parse_pattern_tree("&Psup(SN)")
        assert isinstance(leaf, PRefLeaf)

    def test_skolem_vs_index_disambiguation(self):
        # 'M (I)-> x' is an index edge, 'M(I)' alone is a Skolem term
        node = parse_pattern_tree("M (I)-> x")
        assert isinstance(node, PNode)
        leaf = parse_pattern_tree("M(I)")
        assert isinstance(leaf, PNameLeaf)

    def test_atoms_as_labels(self):
        assert parse_pattern_tree('"Golf"').label == "Golf"
        assert parse_pattern_tree("1995").label == 1995
        assert parse_pattern_tree("true").label is True

    def test_keywords_usable_as_symbols(self):
        node = parse_pattern_tree("brochure -> model -> Year")
        assert node.edges[0].target.label is Symbol("model")

    def test_known_names_resolve(self):
        leaf = parse_pattern_tree("Ptype", known_names={"Ptype"})
        assert isinstance(leaf, PNameLeaf)
        other = parse_pattern_tree("Ptype")
        assert isinstance(other, PNode) and isinstance(other.label, Var)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SyntaxYatError):
            parse_pattern_tree("a -> b extra")

    def test_missing_edge_rejected(self):
        with pytest.raises(SyntaxYatError):
            parse_pattern_tree("a < b >")


PAPER_PATTERNS = [
    "class -> supplier < -> name -> SN, -> city -> C, -> zip -> Z >",
    'class -> car < -> name -> S1:string, -> desc -> S2:string, '
    "-> suppliers -> set *-> &Psup >",
    "brochure < -> number -> Num, -> title -> T, -> model -> Year, "
    "-> desc -> D, -> spplrs *-> supplier < -> name -> SN, -> address -> Add > >",
    "list [SN]-> &Psup(SN)",
    "Mat (I)-> X (J)-> Y -> A",
    "html < -> head -> title -> car, -> body < -> h1 -> car, "
    '-> ul < -> li < -> "name: ", -> T1 > > > >',
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", PAPER_PATTERNS)
    def test_parse_render_parse(self, text):
        first = parse_pattern_tree(text)
        rendered = render_pattern_tree(first)
        second = parse_pattern_tree(rendered)
        assert first == second


class TestPatternDecl:
    def test_union_pattern(self):
        pattern = parse_pattern("Ptype = Y:(string|int) | set *-> Ptype | &Pclass")
        assert pattern.name == "Ptype"
        assert len(pattern.alternatives) == 3
        # the recursive occurrence resolved to a name leaf
        star_target = pattern.alternatives[1].edges[0].target
        assert isinstance(star_target, PNameLeaf)


class TestModelParsing:
    def test_model_block(self):
        model = parse_model(
            """
            model Odmgish {
              pattern Pclass = class -> Class_name:symbol < *-> Att:symbol -> Ptype >
              pattern Ptype = Y:(string|int|float|bool)
                            | X:(set|bag|list|array) < *-> Ptype >
                            | &Pclass
            }
            """
        )
        assert set(model.pattern_names()) == {"Pclass", "Ptype"}
        assert model.is_instance_of(yat_model())

    def test_forward_references_allowed(self):
        model = parse_model(
            "model M { pattern A = x -> B  pattern B = y }"
        )
        target = model.pattern("A").alternatives[0].edges[0].target
        assert isinstance(target, PNameLeaf)

    def test_unterminated_block(self):
        with pytest.raises(SyntaxYatError):
            parse_model("model M { pattern A = x")

    def test_parsed_odmg_equivalent_to_builtin(self):
        from repro.library.store import render_model

        reparsed = parse_model(render_model(odmg_model()))
        assert reparsed.is_instance_of(odmg_model())
        assert odmg_model().is_instance_of(reparsed)
