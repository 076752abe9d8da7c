"""Unit tests for the lexer and the minimal preprocessor."""

import pytest

from repro.c.lexer import tokenize
from repro.errors import LexError


def kinds(source, **kwargs):
    return [(t.kind, t.value) for t in tokenize(source, **kwargs)[:-1]]


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo while_x return")
        assert [t.kind for t in tokens[:-1]] == ["keyword", "id", "id",
                                                 "keyword"]

    def test_eof_sentinel(self):
        assert tokenize("")[-1].kind == "eof"

    def test_operators_maximal_munch(self):
        text = [t.text for t in tokenize("a<<=b>>c<=d->e++")[:-1]]
        assert text == ["a", "<<=", "b", ">>", "c", "<=", "d", "->",
                        "e", "++"]

    def test_ellipsis(self):
        assert any(t.text == "..." for t in tokenize("f(int a, ...)"))

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("int a @ b;")

    def test_locations(self):
        token = tokenize("\n\n  foo")[0]
        assert token.loc.line == 3
        assert token.loc.column == 3


class TestNumbers:
    def test_decimal(self):
        assert kinds("42") == [("int", 42)]

    def test_hex(self):
        assert kinds("0xFF 0x10") == [("int", 255), ("int", 16)]

    def test_octal(self):
        assert kinds("017") == [("int", 15)]

    def test_zero_is_not_octal_prefix_only(self):
        assert kinds("0") == [("int", 0)]

    def test_unsigned_suffix(self):
        tokens = tokenize("42u 42U 42ul")[:-1]
        assert all(t.kind == "uint" for t in tokens)

    def test_long_suffix_stays_int(self):
        assert tokenize("42L")[0].kind == "int"

    def test_float_forms(self):
        assert kinds("1.5 2. 1e3 1.5e-2") == [
            ("float", 1.5), ("float", 2.0), ("float", 1000.0),
            ("float", 0.015)]

    def test_integer_not_float(self):
        assert tokenize("123")[0].kind == "int"

    @pytest.mark.parametrize("text", ["08", "09", "0128", "0779"])
    def test_bad_octal_digit_is_a_lex_error(self, text):
        with pytest.raises(LexError, match="octal") as info:
            tokenize(f"int x = {text};")
        assert info.value.loc.line == 1
        assert info.value.loc.column == 9

    @pytest.mark.parametrize("text", ["0x", "0X", "0xg"])
    def test_hex_prefix_without_digits_is_a_lex_error(self, text):
        with pytest.raises(LexError, match="hexadecimal") as info:
            tokenize(f"\n  return {text};")
        assert info.value.loc.line == 2
        assert info.value.loc.column == 10

    def test_octal_prefixed_float_is_decimal(self):
        assert kinds("08.5 09e1") == [("float", 8.5), ("float", 90.0)]


class TestCharLiterals:
    def test_plain(self):
        assert kinds("'a'") == [("char", ord("a"))]

    def test_escapes(self):
        assert kinds(r"'\n' '\0' '\\'") == [("char", 10), ("char", 0),
                                            ("char", 92)]

    def test_unterminated(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_string_literals_rejected(self):
        with pytest.raises(LexError):
            tokenize('"hello"')


class TestComments:
    def test_line_comment(self):
        assert kinds("1 // two three\n2") == [("int", 1), ("int", 2)]

    def test_block_comment(self):
        assert kinds("1 /* anything \n over lines */ 2") == [("int", 1),
                                                             ("int", 2)]

    def test_block_comment_preserves_line_numbers(self):
        tokens = tokenize("/* a\nb\nc */ x")
        assert tokens[0].loc.line == 3

    def test_unterminated_block(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")


class TestPreprocessor:
    def test_object_macro(self):
        assert kinds("#define N 42\nN") == [("int", 42)]

    def test_macro_multi_token(self):
        assert kinds("#define E (1 + 2)\nE")[0] == ("op", "(")

    def test_macro_recursive_expansion(self):
        assert kinds("#define A B\n#define B 7\nA") == [("int", 7)]

    def test_macro_self_reference_terminates(self):
        tokens = tokenize("#define X X\nX")
        assert tokens[0].text == "X"

    def test_predefined_macros(self):
        assert kinds("N", predefined_macros={"N": "99"}) == [("int", 99)]

    def test_predefined_overridden_by_ifndef(self):
        source = "#ifndef N\n#define N 1\n#endif\nN"
        assert kinds(source, predefined_macros={"N": "5"}) == [("int", 5)]

    def test_ifdef_taken(self):
        source = "#define A 1\n#ifdef A\n11\n#else\n22\n#endif"
        assert kinds(source) == [("int", 11)]

    def test_ifdef_not_taken(self):
        source = "#ifdef A\n11\n#else\n22\n#endif"
        assert kinds(source) == [("int", 22)]

    def test_nested_conditionals(self):
        source = ("#define A 1\n#ifdef A\n#ifdef B\n1\n#else\n2\n#endif\n"
                  "#else\n3\n#endif")
        assert kinds(source) == [("int", 2)]

    def test_unterminated_if(self):
        with pytest.raises(LexError):
            tokenize("#ifdef A\n1")

    def test_include_is_ignored(self):
        assert kinds("#include <stdio.h>\n7") == [("int", 7)]

    def test_undef(self):
        source = "#define N 1\n#undef N\nN"
        assert tokenize(source)[0].kind == "id"

    def test_function_like_macro_rejected(self):
        with pytest.raises(LexError):
            tokenize("#define F(x) x\n")

    def test_backslash_continuation(self):
        assert kinds("#define N 1 + \\\n 2\nN") == [
            ("int", 1), ("op", "+"), ("int", 2)]
