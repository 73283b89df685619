"""SGML content models (Section 2).

A content model describes the legal children of an element.  It is built
from element references and ``#PCDATA`` with three connectors —

* ``,`` sequence (order imposed),
* ``&`` and-group (all parts, any order),
* ``|`` choice (exactly one part),

each part optionally qualified by an occurrence indicator ``?``, ``+`` or
``*``.  The declared content keywords ``EMPTY`` and ``ANY`` are also
content models.

This module defines the AST, its parser, and the derived syntactic
properties (``nullable``, ``first``) that the Glushkov construction and
the tag-inference machinery rely on.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import ContentModelError
from repro.sgml.tokens import Cursor

#: Pseudo element name used for character data inside content models.
PCDATA_NAME = "#PCDATA"

#: A keyword, ``#PCDATA`` or an element name: ``\w`` is ``str.isalnum``
#: plus the underscore.
_WORD_RUN = re.compile(r"[\w#.-]*")


class ContentModel:
    """Base class of content-model AST nodes."""

    def nullable(self) -> bool:
        """Can this model match the empty sequence of children?"""
        raise NotImplementedError

    def first(self) -> set[str]:
        """Element names (or #PCDATA) that can start a match."""
        raise NotImplementedError

    def mentioned(self) -> set[str]:
        """Every element name appearing in the model (excludes #PCDATA)."""
        return {name for name in self._mention_iter() if name != PCDATA_NAME}

    def allows_pcdata(self) -> bool:
        return PCDATA_NAME in set(self._mention_iter())

    def _mention_iter(self) -> Iterator[str]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self) -> int:
        return hash(str(self))

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


class Empty(ContentModel):
    """Declared content ``EMPTY`` — no children at all."""

    def nullable(self) -> bool:
        return True

    def first(self) -> set[str]:
        return set()

    def _mention_iter(self) -> Iterator[str]:
        return iter(())

    def __str__(self) -> str:
        return "EMPTY"


class AnyContent(ContentModel):
    """Declared content ``ANY`` — any elements and character data."""

    def nullable(self) -> bool:
        return True

    def first(self) -> set[str]:
        return set()

    def _mention_iter(self) -> Iterator[str]:
        return iter(())

    def __str__(self) -> str:
        return "ANY"


class PCData(ContentModel):
    """``#PCDATA`` — character data."""

    def nullable(self) -> bool:
        # Character data may always be empty.
        return True

    def first(self) -> set[str]:
        return {PCDATA_NAME}

    def _mention_iter(self) -> Iterator[str]:
        yield PCDATA_NAME

    def __str__(self) -> str:
        return PCDATA_NAME


class ElementRef(ContentModel):
    """A reference to a child element by name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def nullable(self) -> bool:
        return False

    def first(self) -> set[str]:
        return {self.name}

    def _mention_iter(self) -> Iterator[str]:
        yield self.name

    def __str__(self) -> str:
        return self.name


class _Group(ContentModel):
    """Shared base for the three connector groups."""

    connector = "?"

    def __init__(self, parts: list[ContentModel] | tuple) -> None:
        frozen = tuple(parts)
        if len(frozen) < 1:
            raise ContentModelError(
                f"{type(self).__name__} needs at least one part")
        self.parts = frozen

    def _mention_iter(self) -> Iterator[str]:
        for part in self.parts:
            yield from part._mention_iter()

    def __str__(self) -> str:
        sep = self.connector
        return "(" + sep.join(str(p) for p in self.parts) + ")"


class Seq(_Group):
    """``(a, b, c)`` — ordered sequence."""

    connector = ", "

    def nullable(self) -> bool:
        return all(part.nullable() for part in self.parts)

    def first(self) -> set[str]:
        names: set[str] = set()
        for part in self.parts:
            names |= part.first()
            if not part.nullable():
                break
        return names


class Choice(_Group):
    """``(a | b | c)`` — exactly one alternative."""

    connector = " | "

    def nullable(self) -> bool:
        return any(part.nullable() for part in self.parts)

    def first(self) -> set[str]:
        names: set[str] = set()
        for part in self.parts:
            names |= part.first()
        return names


class AndGroup(_Group):
    """``(a & b & c)`` — all parts in any order."""

    connector = " & "

    def nullable(self) -> bool:
        return all(part.nullable() for part in self.parts)

    def first(self) -> set[str]:
        names: set[str] = set()
        for part in self.parts:
            names |= part.first()
        return names


class _Occurrence(ContentModel):
    """Shared base for the occurrence indicators."""

    indicator = "?"

    def __init__(self, child: ContentModel) -> None:
        self.child = child

    def first(self) -> set[str]:
        return self.child.first()

    def _mention_iter(self) -> Iterator[str]:
        return self.child._mention_iter()

    def __str__(self) -> str:
        return f"{self.child}{self.indicator}"


class Opt(_Occurrence):
    """``x?`` — zero or one occurrence."""

    indicator = "?"

    def nullable(self) -> bool:
        return True


class Plus(_Occurrence):
    """``x+`` — one or more occurrences."""

    indicator = "+"

    def nullable(self) -> bool:
        return self.child.nullable()


class Star(_Occurrence):
    """``x*`` — zero or more occurrences."""

    indicator = "*"

    def nullable(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_content_model(text: str) -> ContentModel:
    """Parse a content-model expression.

    Accepts the declared-content keywords ``EMPTY``/``ANY``/``CDATA`` (the
    latter treated as #PCDATA), a parenthesised model group, or — as a
    convenience — a bare element name or ``#PCDATA``.
    """
    cursor = Cursor(text)
    cursor.skip_whitespace()
    model = _parse_model(cursor)
    cursor.skip_whitespace()
    if not cursor.at_end():
        raise cursor.error(
            f"trailing characters after content model: {cursor.peek(10)!r}",
            ContentModelError)
    return model


def _parse_model(cursor: Cursor) -> ContentModel:
    if cursor.startswith("("):
        return _parse_group(cursor)
    word = cursor.take(_WORD_RUN)
    upper = word.upper()
    if upper == "EMPTY":
        return Empty()
    if upper == "ANY":
        return AnyContent()
    if upper in ("CDATA", "RCDATA", "#PCDATA"):
        return PCData()
    if word:
        return _with_occurrence(cursor, ElementRef(word))
    raise cursor.error("expected a content model", ContentModelError)


def _parse_group(cursor: Cursor) -> ContentModel:
    cursor.expect("(", ContentModelError)
    parts: list[ContentModel] = []
    connector: str | None = None
    while True:
        cursor.skip_whitespace()
        parts.append(_parse_part(cursor))
        cursor.skip_whitespace()
        ch = cursor.peek()
        if ch == ")":
            cursor.advance()
            break
        if ch not in ",|&":
            raise cursor.error(
                f"expected a connector or ')', found {ch!r}",
                ContentModelError)
        if connector is None:
            connector = ch
        elif connector != ch:
            raise cursor.error(
                f"mixed connectors {connector!r} and {ch!r} in one group "
                "(SGML requires homogeneous groups)", ContentModelError)
        cursor.advance()
    if len(parts) == 1:
        group: ContentModel = parts[0]
    elif connector == ",":
        group = Seq(parts)
    elif connector == "|":
        group = Choice(parts)
    else:
        group = AndGroup(parts)
    return _with_occurrence(cursor, group)


def _parse_part(cursor: Cursor) -> ContentModel:
    if cursor.startswith("("):
        return _parse_group(cursor)
    if cursor.startswith("#"):
        cursor.advance()
        word = cursor.take_name(ContentModelError)
        if word.upper() != "PCDATA":
            raise cursor.error(
                f"unknown reserved name #{word}", ContentModelError)
        return _with_occurrence(cursor, PCData())
    name = cursor.take_name(ContentModelError)
    return _with_occurrence(cursor, ElementRef(name))


def _with_occurrence(cursor: Cursor, model: ContentModel) -> ContentModel:
    ch = cursor.peek()
    if ch == "?":
        cursor.advance()
        return Opt(model)
    if ch == "+":
        cursor.advance()
        return Plus(model)
    if ch == "*":
        cursor.advance()
        return Star(model)
    return model
