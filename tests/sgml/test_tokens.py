"""Unit tests for the shared character cursor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DtdSyntaxError, SgmlError
from repro.sgml.contentmodel import _WORD_RUN
from repro.sgml.instance_parser import _TOKEN
from repro.sgml.tokens import Cursor, NAME_RUN, is_name


class TestNames:
    def test_valid_names(self):
        assert is_name("article")
        assert is_name("a1-b.c_d")

    def test_invalid_names(self):
        assert not is_name("")
        assert not is_name("1abc")
        assert not is_name("a b")
        assert not is_name("-x")


class TestCursor:
    def test_position_tracking(self):
        cursor = Cursor("ab\ncd\nef")
        assert (cursor.line, cursor.column) == (1, 1)
        cursor.advance(3)
        assert (cursor.line, cursor.column) == (2, 1)
        cursor.advance(1)
        assert (cursor.line, cursor.column) == (2, 2)
        cursor.advance(2)
        assert cursor.line == 3

    def test_peek_and_startswith(self):
        cursor = Cursor("hello world")
        assert cursor.peek() == "h"
        assert cursor.peek(5) == "hello"
        assert cursor.startswith("hello")
        assert not cursor.startswith("world")

    def test_expect(self):
        cursor = Cursor("<!ELEMENT")
        cursor.expect("<!")
        assert cursor.peek() == "E"
        with pytest.raises(SgmlError):
            cursor.expect("xyz")

    def test_expect_error_class(self):
        cursor = Cursor("nope")
        with pytest.raises(DtdSyntaxError):
            cursor.expect("yes", DtdSyntaxError)

    def test_take_run_until_name(self):
        cursor = Cursor("abc123 rest")
        assert cursor.take(NAME_RUN) == "abc123"
        assert cursor.take(NAME_RUN) == ""  # a run may be empty
        cursor.skip_whitespace()
        assert cursor.take_until("st") == "re"
        assert cursor.peek(2) == "st"

    def test_take_until_missing_raises(self):
        cursor = Cursor("no terminator here")
        with pytest.raises(SgmlError):
            cursor.take_until("@@")

    def test_take_name(self):
        cursor = Cursor("article>")
        assert cursor.take_name() == "article"
        assert cursor.peek() == ">"
        with pytest.raises(SgmlError):
            Cursor("123").take_name()

    def test_at_end(self):
        cursor = Cursor("x")
        assert not cursor.at_end()
        cursor.advance()
        assert cursor.at_end()
        assert cursor.advance() == ""  # advancing past the end is safe

    def test_error_carries_position(self):
        cursor = Cursor("line1\nline2")
        cursor.advance(7)
        error = cursor.error("problem")
        assert error.line == 2
        assert error.column == 2


# -- pattern-driven consumption vs the per-character loops it replaced --------

NAME_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-_")
NAME_START_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

#: name characters, markup, ASCII and non-ASCII whitespace (NBSP, EM
#: SPACE, IDEOGRAPHIC SPACE, NEL, LINE SEPARATOR, the FS..US controls),
#: and non-ASCII letters/digits a careless pattern would take for
#: name characters (accented letters, Arabic-Indic and superscript
#: digits, a Roman numeral, a combining mark)
ALPHABET = st.sampled_from(
    list("abzAZ09.-_#<>&;/=\"' \t\n\r\f\v")
    + ["\xa0", "\u2003", "\u3000", "\x85", "\u2028", "\x1c", "\x1f",
       "\u200b", "é", "ß", "Ω", "٣", "²", "Ⅷ", "\u0301", "\u4e2d"])
texts = st.text(ALPHABET, max_size=40)


def reference_run(text: str, start: int, predicate) -> int:
    """Where the per-character ``take_while(predicate)`` stopped."""
    pos = start
    while pos < len(text) and predicate(text[pos]):
        pos += 1
    return pos


@st.composite
def text_and_position(draw):
    text = draw(texts)
    return text, draw(st.integers(0, len(text)))


class TestPatternRunsEqualThePerCharacterReference:
    def check(self, text, start, consume, predicate):
        cursor = Cursor(text)
        cursor.pos = start
        taken = consume(cursor)
        end = reference_run(text, start, predicate)
        assert cursor.pos == end
        if taken is not None:
            assert taken == text[start:end]

    @given(text_and_position())
    @settings(max_examples=300)
    def test_name_run(self, case):
        self.check(*case, lambda cursor: cursor.take(NAME_RUN),
                   lambda ch: ch in NAME_CHARS)

    @given(text_and_position())
    @settings(max_examples=300)
    def test_whitespace_run(self, case):
        self.check(*case, lambda cursor: cursor.skip_whitespace(),
                   str.isspace)

    @given(text_and_position())
    @settings(max_examples=300)
    def test_character_data_run(self, case):
        def text_run(cursor):
            token = _TOKEN.match(cursor.text, cursor.pos)
            if token is not None and token.lastindex == 1:
                cursor.pos = token.end()

        self.check(*case, text_run, lambda ch: ch not in "<")

    @given(text_and_position())
    @settings(max_examples=300)
    def test_content_model_word_run(self, case):
        self.check(*case, lambda cursor: cursor.take(_WORD_RUN),
                   lambda ch: ch in "#" or ch.isalnum() or ch in ".-_")

    @given(text_and_position())
    @settings(max_examples=300)
    def test_take_name(self, case):
        text, start = case
        cursor = Cursor(text)
        cursor.pos = start
        if start < len(text) and text[start] in NAME_START_CHARS:
            end = reference_run(text, start, lambda ch: ch in NAME_CHARS)
            assert cursor.take_name() == text[start:end]
            assert cursor.pos == end
        else:
            with pytest.raises(SgmlError):
                cursor.take_name()
            assert cursor.pos == start

    @given(texts)
    @settings(max_examples=300)
    def test_is_name(self, text):
        assert is_name(text) == (
            bool(text) and text[0] in NAME_START_CHARS
            and all(ch in NAME_CHARS for ch in text))

    @given(text_and_position())
    @settings(max_examples=300)
    def test_lazy_position_equals_the_line_start_table(self, case):
        text, pos = case
        starts = [0] + [index + 1 for index, ch in enumerate(text)
                        if ch == "\n"]
        line = max(number for number, start in enumerate(starts, 1)
                   if start <= pos)
        cursor = Cursor(text)
        cursor.pos = pos
        assert (cursor.line, cursor.column) == (
            line, pos - starts[line - 1] + 1)
