"""The pattern language of the ``contains`` predicate (Section 4.1).

A *pattern* is a word or phrase template: whitespace splits it into word
patterns, each of which is a small regular expression (see
:mod:`repro.text.nfa`).  ``contains`` takes a *pattern expression* — a
boolean combination of patterns, as in Q1::

    s.title contains ("SGML" and "OODBMS")

The expression grammar is::

    expr   := term (OR term)*
    term   := factor (AND factor)*
    factor := NOT factor | '(' expr ')' | '"' pattern '"'

Patterns match on word boundaries: ``"SGML"`` matches the token ``SGML``
but not ``SGMLish`` (exactly the IRS behaviour the paper invokes); a
multi-word pattern like ``"complex object"`` matches consecutive tokens.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PatternError
from repro.text.nfa import (
    LiteralMatcher,
    Nfa,
    cached_matcher,
    is_literal_word,
)


def tokenize_words(text: str) -> list[str]:
    """Split text into word tokens (runs of non-space, punctuation
    stripped from the edges)."""
    words = []
    for raw in text.split():
        token = raw.strip(".,;:!?()[]{}'\"`")
        if token:
            words.append(token)
    return words


class PatternExpr:
    """Base class of pattern expressions."""

    def holds(self, tokens: Sequence[str]) -> bool:
        """Does the expression hold on a token sequence?"""
        raise NotImplementedError

    def holds_on_text(self, text: str) -> bool:
        return self.holds(tokenize_words(text))

    def patterns(self) -> list["Pattern"]:
        """Every leaf pattern in the expression."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and str(other) == str(self)

    def __hash__(self) -> int:
        return hash(str(self))

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


class Pattern(PatternExpr):
    """A single (possibly multi-word) pattern."""

    def __init__(self, source: str) -> None:
        if not source:
            raise PatternError("empty pattern")
        self.source = source
        # matchers come from the shared LRU: parsing the same pattern
        # text repeatedly (one Pattern per query execution) reuses the
        # compiled NFA instead of re-running the Thompson construction
        self.word_matchers: list[Nfa | LiteralMatcher] = [
            cached_matcher(word) for word in source.split()]
        if not self.word_matchers:
            raise PatternError("pattern has no words")

    @property
    def is_phrase(self) -> bool:
        return len(self.word_matchers) > 1

    def holds(self, tokens: Sequence[str]) -> bool:
        first, rest = self.word_matchers[0], self.word_matchers[1:]
        if not rest:
            return any(first.matches(token) for token in tokens)
        # a phrase: try the later words only where the first matches
        for start in range(len(tokens) - len(rest)):
            if first.matches(tokens[start]) and all(
                    matcher.matches(tokens[start + offset])
                    for offset, matcher in enumerate(rest, 1)):
                return True
        return False

    def match_word(self, token: str) -> bool:
        """Match a single token against a one-word pattern."""
        if self.is_phrase:
            raise PatternError(
                f"pattern {self.source!r} is a phrase, not a word")
        return self.word_matchers[0].matches(token)

    def patterns(self) -> list["Pattern"]:
        return [self]

    def literal_words(self) -> list[str]:
        """The pattern's plain-literal words (no metacharacters) —
        the words whose posting-list sizes bound the pattern's
        selectivity without issuing an index probe."""
        return [word for word in self.source.split()
                if is_literal_word(word)]

    def __str__(self) -> str:
        return f'"{self.source}"'


class AndExpr(PatternExpr):
    """Both operands must hold on the token sequence."""

    def __init__(self, left: PatternExpr, right: PatternExpr) -> None:
        self.left = left
        self.right = right

    def holds(self, tokens: Sequence[str]) -> bool:
        return self.left.holds(tokens) and self.right.holds(tokens)

    def patterns(self) -> list[Pattern]:
        return self.left.patterns() + self.right.patterns()

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


class OrExpr(PatternExpr):
    """Either operand may hold."""

    def __init__(self, left: PatternExpr, right: PatternExpr) -> None:
        self.left = left
        self.right = right

    def holds(self, tokens: Sequence[str]) -> bool:
        return self.left.holds(tokens) or self.right.holds(tokens)

    def patterns(self) -> list[Pattern]:
        return self.left.patterns() + self.right.patterns()

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


class NotExpr(PatternExpr):
    """The operand must not hold."""

    def __init__(self, child: PatternExpr) -> None:
        self.child = child

    def holds(self, tokens: Sequence[str]) -> bool:
        return not self.child.holds(tokens)

    def patterns(self) -> list[Pattern]:
        return self.child.patterns()

    def __str__(self) -> str:
        return f"(not {self.child})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_pattern(source: str) -> Pattern:
    """Build a single :class:`Pattern` from its text."""
    return Pattern(source)


def parse_pattern_expr(text: str) -> PatternExpr:
    """Parse a boolean pattern expression, e.g.
    ``"SGML" and "OODBMS"`` or ``("a" or "b") and not "c"``."""
    parser = _ExprParser(text)
    node = parser.or_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise PatternError(
            f"trailing characters in pattern expression: "
            f"{text[parser.pos:]!r}")
    return node


class _ExprParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek_word(self) -> str:
        self.skip_ws()
        end = self.pos
        while end < len(self.text) and self.text[end].isalpha():
            end += 1
        return self.text[self.pos:end].lower()

    def eat_word(self, word: str) -> bool:
        if self.peek_word() == word:
            self.skip_ws()
            self.pos += len(word)
            return True
        return False

    def or_expr(self) -> PatternExpr:
        node = self.and_expr()
        while self.eat_word("or"):
            node = OrExpr(node, self.and_expr())
        return node

    def and_expr(self) -> PatternExpr:
        node = self.factor()
        while self.eat_word("and"):
            node = AndExpr(node, self.factor())
        return node

    def factor(self) -> PatternExpr:
        self.skip_ws()
        if self.eat_word("not"):
            return NotExpr(self.factor())
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.pos += 1
            node = self.or_expr()
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                raise PatternError(
                    f"unbalanced '(' in pattern expression {self.text!r}")
            self.pos += 1
            return node
        if self.pos < len(self.text) and self.text[self.pos] in "\"'":
            quote = self.text[self.pos]
            end = self.text.find(quote, self.pos + 1)
            if end < 0:
                raise PatternError(
                    f"unterminated pattern literal in {self.text!r}")
            source = self.text[self.pos + 1:end]
            self.pos = end + 1
            return Pattern(source)
        raise PatternError(
            f"expected a pattern literal at position {self.pos} in "
            f"{self.text!r}")
