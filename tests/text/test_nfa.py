"""Tests for the home-grown regex engine."""

import pytest

from repro.errors import PatternError
from repro.text.nfa import Nfa, compile_pattern_text, parse_regex


def matches(pattern: str, text: str) -> bool:
    return compile_pattern_text(pattern).matches(text)


def searches(pattern: str, text: str) -> bool:
    return compile_pattern_text(pattern).search(text)


class TestFullMatch:
    def test_literal(self):
        assert matches("SGML", "SGML")
        assert not matches("SGML", "SGMLish")
        assert not matches("SGML", "sgml")

    def test_alternation(self):
        # the paper's example pattern: "(t|T)itle"
        assert matches("(t|T)itle", "title")
        assert matches("(t|T)itle", "Title")
        assert not matches("(t|T)itle", "TITLE")

    def test_kleene_star(self):
        assert matches("ab*c", "ac")
        assert matches("ab*c", "abbbc")
        assert not matches("ab*c", "abbb")

    def test_plus(self):
        assert not matches("ab+c", "ac")
        assert matches("ab+c", "abc")
        assert matches("ab+c", "abbc")

    def test_optional(self):
        assert matches("colou?r", "color")
        assert matches("colou?r", "colour")
        assert not matches("colou?r", "colouur")

    def test_any_char(self):
        assert matches("a.c", "abc")
        assert matches("a.c", "a7c")
        assert not matches("a.c", "ac")

    def test_char_class(self):
        assert matches("[abc]+", "cab")
        assert not matches("[abc]+", "cad")
        assert matches("[a-z]+[0-9]", "version3")
        assert matches("[^0-9]+", "letters")
        assert not matches("[^0-9]+", "x1")

    def test_escape(self):
        assert matches(r"a\*b", "a*b")
        assert not matches(r"a\*b", "ab")
        assert matches(r"\(x\)", "(x)")

    def test_empty_pattern_matches_empty(self):
        assert matches("", "")
        assert not matches("", "x")

    def test_nested_groups(self):
        assert matches("(ab(c|d))+", "abcabd")
        assert not matches("(ab(c|d))+", "abe")

    def test_alternation_of_words(self):
        assert matches("final|draft", "final")
        assert matches("final|draft", "draft")
        assert not matches("final|draft", "finaldraft")


class TestSearch:
    def test_substring(self):
        assert searches("SGML", "the SGML standard")
        assert not searches("XML", "the SGML standard")

    def test_search_with_pattern(self):
        assert searches("(t|T)itle", "Subtitles included")

    def test_empty_pattern_searches_anywhere(self):
        assert searches("", "anything")


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "(unclosed", "unopened)", "*leading", "a|*", "[unclosed",
        "a\\", "[]", "[z-a]",
    ])
    def test_malformed_patterns_rejected(self, bad):
        with pytest.raises(PatternError):
            parse_regex(bad)

    def test_round_trip_through_str(self):
        for source in ["(t|T)itle", "ab*c", "[a-z]+", "a.c"]:
            node = parse_regex(source)
            again = parse_regex(str(node))
            probe_texts = ["title", "Title", "ac", "abbc", "xyz", "a7c"]
            for text in probe_texts:
                assert (compile_pattern_text(source).matches(text)
                        == compile_pattern_text(str(again)).matches(text))


class TestLiteralWordsSkipTheNfa:
    """``cached_matcher`` answers a metacharacter-free word by string
    equality — the same language as the word's NFA."""

    WORDS = ["SGML", "object", "a", "O₂", "x-y", "it's", "100%"]
    PROBES = ["SGML", "SGMLish", "sgml", "", "object", "objects", "a",
              "O₂", "x-y", "xy", "it's", "100%", "100"]

    def test_literal_matcher_agrees_with_the_nfa(self):
        from repro.text.nfa import (
            LiteralMatcher,
            cached_matcher,
            compile_pattern_text,
        )
        for word in self.WORDS:
            matcher = cached_matcher(word)
            assert isinstance(matcher, LiteralMatcher)
            nfa = compile_pattern_text(word)
            for probe in self.PROBES:
                assert matcher.matches(probe) == nfa.matches(probe)
                assert matcher.search(probe) == nfa.search(probe)

    def test_metacharacters_still_compile(self):
        from repro.text.nfa import Nfa, cached_matcher, is_literal_word
        for source in ["(t|T)itle", "ab+a", "a.c", "[a-z]x", "a\\.b",
                       "colou?r", "x*"]:
            assert not is_literal_word(source)
            assert isinstance(cached_matcher(source), Nfa)


#: Shapes on which a backtracking matcher takes exponential time: a
#: star or plus over a sub-pattern that reads the same run in many ways.
PATHOLOGICAL = ["(a|a)*c", "(a*)*c", "(a+)+c", "(a|aa)*c", "(a?)*c",
                "(.*)*c", "([a-z]*)*c"]


@pytest.fixture
def steps(monkeypatch):
    """The characters ``Nfa._step`` is called on, in order."""
    seen = []
    step = Nfa._step

    def counted(self, states, char):
        seen.append(char)
        return step(self, states, char)

    monkeypatch.setattr(Nfa, "_step", counted)
    return seen


class TestLinearTime:
    """Patterns on which a backtracking matcher takes exponential time
    are simulated one state set per character read."""

    @pytest.mark.parametrize("pattern", PATHOLOGICAL)
    def test_one_step_per_character(self, pattern, steps):
        text = "a" * 5000
        assert not matches(pattern, text)
        assert len(steps) == len(text)

    @pytest.mark.parametrize("pattern", PATHOLOGICAL)
    def test_an_accepted_run_is_one_step_per_character(self, pattern,
                                                       steps):
        text = "a" * 5000 + "c"
        assert matches(pattern, text)
        assert len(steps) == len(text)

    @pytest.mark.parametrize("pattern", PATHOLOGICAL)
    def test_search_steps_grow_linearly(self, pattern, steps):
        """A substring search restarts at every position, yet the
        distinct state sets it carries stay few: doubling the text at
        most doubles the steps."""
        assert not searches(pattern, "a" * 2000)
        short = len(steps)
        steps.clear()
        assert not searches(pattern, "a" * 4000)
        assert short <= 3 * 2000
        assert len(steps) <= 2 * short + 3
