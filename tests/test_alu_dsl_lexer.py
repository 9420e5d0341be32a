"""Unit tests for the ALU DSL lexer."""

import pytest

from repro.alu_dsl.lexer import Token, TokenType, tokenize
from repro.errors import ALUDSLSyntaxError


def token_types(source):
    return [token.type for token in tokenize(source) if token.type is not TokenType.EOF]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_number_token(self):
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.NUMBER
        assert tokens[0].value == "42"

    def test_identifier_token(self):
        tokens = tokenize("state_0")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "state_0"

    def test_identifier_with_leading_underscore(self):
        tokens = tokenize("_tmp1")
        assert tokens[0].type is TokenType.IDENT

    @pytest.mark.parametrize(
        "keyword, token_type",
        [
            ("type", TokenType.TYPE),
            ("stateful", TokenType.STATEFUL),
            ("stateless", TokenType.STATELESS),
            ("state", TokenType.STATE),
            ("hole", TokenType.HOLE),
            ("packet", TokenType.PACKET),
            ("variables", TokenType.VARIABLES),
            ("fields", TokenType.FIELDS),
            ("if", TokenType.IF),
            ("elif", TokenType.ELIF),
            ("else", TokenType.ELSE),
            ("return", TokenType.RETURN),
        ],
    )
    def test_keywords(self, keyword, token_type):
        assert tokenize(keyword)[0].type is token_type

    def test_keyword_prefix_is_identifier(self):
        # "iffy" starts with "if" but is a plain identifier.
        assert tokenize("iffy")[0].type is TokenType.IDENT


class TestOperators:
    @pytest.mark.parametrize(
        "text, token_type",
        [
            ("==", TokenType.EQ),
            ("!=", TokenType.NEQ),
            ("<=", TokenType.LE),
            (">=", TokenType.GE),
            ("&&", TokenType.AND),
            ("||", TokenType.OR),
            ("<", TokenType.LT),
            (">", TokenType.GT),
            ("+", TokenType.PLUS),
            ("-", TokenType.MINUS),
            ("*", TokenType.STAR),
            ("/", TokenType.SLASH),
            ("%", TokenType.PERCENT),
            ("!", TokenType.NOT),
            ("=", TokenType.ASSIGN),
            ("{", TokenType.LBRACE),
            ("}", TokenType.RBRACE),
            ("(", TokenType.LPAREN),
            (")", TokenType.RPAREN),
            (",", TokenType.COMMA),
            (";", TokenType.SEMICOLON),
            (":", TokenType.COLON),
        ],
    )
    def test_operator_tokens(self, text, token_type):
        assert tokenize(text)[0].type is token_type

    def test_two_char_operator_preferred_over_one_char(self):
        # "<=" must lex as LE, not LT followed by ASSIGN.
        assert token_types("a <= b") == [TokenType.IDENT, TokenType.LE, TokenType.IDENT]

    def test_equality_vs_assignment(self):
        assert token_types("a == b") == [TokenType.IDENT, TokenType.EQ, TokenType.IDENT]
        assert token_types("a = b") == [TokenType.IDENT, TokenType.ASSIGN, TokenType.IDENT]


class TestCommentsAndWhitespace:
    def test_hash_comment_ignored(self):
        assert token_types("# a comment\n42") == [TokenType.NUMBER]

    def test_double_slash_comment_ignored(self):
        assert token_types("// a comment\n42") == [TokenType.NUMBER]

    def test_comment_at_end_of_line(self):
        assert token_types("42 # trailing") == [TokenType.NUMBER]

    def test_whitespace_between_tokens(self):
        assert token_types("  a \t +   3 ") == [TokenType.IDENT, TokenType.PLUS, TokenType.NUMBER]


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_column_advances_within_line(self):
        tokens = tokenize("ab + c")
        assert tokens[1].column == 4  # the '+'

    def test_error_carries_location(self):
        with pytest.raises(ALUDSLSyntaxError) as excinfo:
            tokenize("a\n  @")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3


class TestErrors:
    @pytest.mark.parametrize("bad", ["@", "$", "`", "~", "^"])
    def test_unexpected_character_rejected(self, bad):
        with pytest.raises(ALUDSLSyntaxError):
            tokenize(bad)


class TestFullAtomSources:
    @pytest.mark.parametrize("name", ["raw", "if_else_raw", "pred_raw", "sub", "pair", "nested_if"])
    def test_catalogue_stateful_sources_lex(self, name):
        from repro.atoms import STATEFUL_SOURCES

        tokens = tokenize(STATEFUL_SOURCES[name])
        assert tokens[-1].type is TokenType.EOF
        assert len(tokens) > 20

    def test_token_repr_is_informative(self):
        token = Token(TokenType.NUMBER, "7", 1, 1)
        assert "NUMBER" in repr(token)
