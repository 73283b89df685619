"""A character cursor with position tracking, shared by the SGML parsers.

Runs of characters — names, whitespace, character data — are consumed
with compiled patterns (:meth:`Cursor.take`), one ``match`` per run,
never one Python call per character.
"""

from __future__ import annotations

import re

from repro.errors import SgmlError

_NAMECHAR = "[A-Za-z0-9._-]"

#: A (possibly empty) run of the characters allowed in SGML names after
#: the first (NAMECHAR).
NAME_RUN = re.compile(f"{_NAMECHAR}*")

_NAME = re.compile(f"[A-Za-z]{_NAMECHAR}*")

#: ``\s`` is ``str.isspace``.
_WHITESPACE_RUN = re.compile(r"\s*")


def is_name(text: str) -> bool:
    """True when ``text`` is a valid SGML name."""
    return _NAME.fullmatch(text) is not None


class Cursor:
    """A read head over source text with line/column tracking."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # -- position -------------------------------------------------------------
    # Computed from the text when an error asks: parsing a well-formed
    # document never pays for line bookkeeping.

    @property
    def line(self) -> int:
        """1-based line number of the current position."""
        return self.text.count("\n", 0, self.pos) + 1

    @property
    def column(self) -> int:
        """1-based column number of the current position."""
        return self.pos - self.text.rfind("\n", 0, self.pos)

    def error(self, message: str,
              error_class: type[SgmlError] = SgmlError) -> SgmlError:
        """Build a positioned error (caller raises it)."""
        return error_class(message, line=self.line, column=self.column)

    # -- inspection -----------------------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, length: int = 1) -> str:
        return self.text[self.pos:self.pos + length]

    def startswith(self, prefix: str) -> bool:
        return self.text.startswith(prefix, self.pos)

    # -- consumption ----------------------------------------------------------

    def advance(self, count: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + count]
        self.pos += len(chunk)
        return chunk

    def expect(self, literal: str,
               error_class: type[SgmlError] = SgmlError) -> None:
        if not self.startswith(literal):
            raise self.error(
                f"expected {literal!r}, found {self.peek(len(literal))!r}",
                error_class)
        self.pos += len(literal)

    def skip_whitespace(self) -> None:
        self.pos = _WHITESPACE_RUN.match(self.text, self.pos).end()

    def take(self, run: re.Pattern[str]) -> str:
        """Consume what ``run`` matches here (a pattern that can match
        the empty string, e.g. :data:`NAME_RUN`)."""
        start = self.pos
        self.pos = run.match(self.text, start).end()
        return self.text[start:self.pos]

    def take_until(self, stop: str,
                   error_class: type[SgmlError] = SgmlError) -> str:
        """Consume up to (not including) ``stop``; error at end of input."""
        index = self.text.find(stop, self.pos)
        if index < 0:
            raise self.error(f"unterminated construct, expected {stop!r}",
                             error_class)
        chunk = self.text[self.pos:index]
        self.pos = index
        return chunk

    def take_name(self, error_class: type[SgmlError] = SgmlError) -> str:
        """Consume an SGML name."""
        found = _NAME.match(self.text, self.pos)
        if found is None:
            raise self.error(
                f"expected a name, found {self.peek()!r}", error_class)
        self.pos = found.end()
        return found.group()
