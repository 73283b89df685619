"""Document-instance parser with omitted-tag inference (Section 2).

The Figure-2 document omits most end tags (``<author>`` is declared
``- O``); a conforming parser must *infer* them from the DTD's content
models.  This parser maintains a stack of open elements, each with its
position in the element's content DFA, and applies the two classic
inference moves when the next token does not fit:

1. **start-tag inference** — an allowed child whose start tag is omissible
   and whose content can (transitively) begin with the incoming token is
   opened implicitly;
2. **end-tag inference** — the innermost open element is closed implicitly
   when its end tag is omissible and its content is complete.

Without a DTD the parser runs in plain well-formed mode: every tag must be
explicit.

Entity references ``&name;`` (internal text entities from the DTD, the
five predefined character entities, and numeric ``&#NN;`` references) are
resolved inside character data and attribute values.
"""

from __future__ import annotations

import re

from repro.errors import DocumentSyntaxError, EntityError
from repro.sgml.contentmodel import PCDATA_NAME
from repro.sgml.dtd import ATT_NAME_GROUP, Dtd
from repro.sgml.instance import Element
from repro.sgml.tokens import Cursor, NAME_RUN, NAME_START_CHARS

_PREDEFINED_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'",
}

#: Character data: everything up to the next markup-start character.
_TEXT_RUN = re.compile(r"[^<]*")

#: Safety bound on recursive entity substitution.
_MAX_ENTITY_DEPTH = 16


def parse_document(text: str, dtd: Dtd | None = None,
                   keep_whitespace: bool = False) -> Element:
    """Parse an SGML document instance into an :class:`Element` tree.

    With a ``dtd``, omitted tags are inferred and attribute defaults are
    applied.  ``keep_whitespace`` retains whitespace-only text nodes in
    element content (they are dropped by default, as element content
    ignores separators).
    """
    parser = _InstanceParser(text, dtd, keep_whitespace)
    return parser.parse()


class _OpenElement:
    __slots__ = ("element", "state")

    def __init__(self, element: Element, state: int) -> None:
        self.element = element
        self.state = state


class _InstanceParser:
    def __init__(self, text: str, dtd: Dtd | None,
                 keep_whitespace: bool) -> None:
        self.cursor = Cursor(text)
        self.dtd = dtd
        self.keep_whitespace = keep_whitespace
        self.stack: list[_OpenElement] = []
        self.root: Element | None = None

    # -- main loop ------------------------------------------------------------

    def parse(self) -> Element:
        cursor = self.cursor
        while not cursor.at_end():
            if cursor.startswith("<!--"):
                cursor.advance(4)
                cursor.take_until("-->", DocumentSyntaxError)
                cursor.advance(3)
            elif cursor.startswith("<![CDATA["):
                self._handle_cdata()
            elif cursor.startswith("<!"):
                # An embedded DOCTYPE or other declaration: skip it whole.
                self._skip_declaration()
            elif cursor.startswith("</"):
                self._handle_end_tag()
            elif cursor.startswith("<") and self._next_is_name(1):
                self._handle_start_tag()
            elif cursor.startswith("<"):
                raise cursor.error(
                    f"stray '<' before {cursor.peek(8)!r}",
                    DocumentSyntaxError)
            else:
                self._handle_text()
        self._close_remaining_at_eof()
        if self.root is None:
            raise DocumentSyntaxError("document contains no element")
        return self.root

    def _next_is_name(self, offset: int) -> bool:
        ahead = self.cursor.peek(offset + 1)
        return len(ahead) > offset and ahead[offset] in NAME_START_CHARS

    def _handle_cdata(self) -> None:
        """``<![CDATA[ ... ]]>`` — literal character data, no markup
        recognition and no entity resolution inside."""
        cursor = self.cursor
        cursor.advance(len("<![CDATA["))
        raw = cursor.take_until("]]>", DocumentSyntaxError)
        cursor.advance(3)
        if self.root is None or not self.stack:
            if raw.strip():
                raise cursor.error(
                    "CDATA outside the document element",
                    DocumentSyntaxError)
            return
        self._make_room_for(PCDATA_NAME)
        top = self.stack[-1]
        next_state = self._step(top, PCDATA_NAME)
        if next_state is None:
            raise cursor.error(
                f"character data not allowed inside "
                f"{top.element.name!r}", DocumentSyntaxError)
        top.state = next_state
        content = raw if self.keep_whitespace else " ".join(raw.split())
        top.element.append_text(content)

    def _skip_declaration(self) -> None:
        # Handles <!DOCTYPE name [ internal subset ]> and simple <!...>.
        cursor = self.cursor
        cursor.advance(2)
        depth_bracket = 0
        while not cursor.at_end():
            ch = cursor.advance()
            if ch == "[":
                depth_bracket += 1
            elif ch == "]":
                depth_bracket -= 1
            elif ch == ">" and depth_bracket <= 0:
                return
        raise cursor.error("unterminated declaration", DocumentSyntaxError)

    # -- tags -----------------------------------------------------------------

    def _handle_start_tag(self) -> None:
        cursor = self.cursor
        cursor.advance()  # '<'
        name = cursor.take_name(DocumentSyntaxError)
        attributes = self._parse_attributes(name)
        cursor.skip_whitespace()
        if cursor.startswith("/>"):  # tolerated XML-ish empty element
            cursor.advance(2)
            self._open_element(name, attributes)
            self._close_innermost(explicit=True)
            return
        cursor.expect(">", DocumentSyntaxError)
        self._open_element(name, attributes)

    def _open_element(self, name: str, attributes: dict[str, str]) -> None:
        if self.dtd is not None and not self.dtd.has_element(name):
            raise self.cursor.error(
                f"element {name!r} is not declared in the DTD",
                DocumentSyntaxError)
        if self.root is None:
            self._push(name, attributes, start_inferred=False)
            return
        if not self.stack:
            raise self.cursor.error(
                f"element {name!r} after the document element closed",
                DocumentSyntaxError)
        self._make_room_for(name)
        self._push(name, attributes, start_inferred=False)

    def _push(self, name: str, attributes: dict[str, str],
              start_inferred: bool) -> None:
        element = Element(name, attributes, start_inferred=start_inferred)
        if self.dtd is not None:
            self._apply_attribute_defaults(element)
        if self.stack:
            top = self.stack[-1]
            next_state = self._step(top, name)
            if next_state is None:
                raise self.cursor.error(
                    f"element {name!r} not allowed inside "
                    f"{top.element.name!r} here", DocumentSyntaxError)
            top.state = next_state
            top.element.append(element)
        else:
            self.root = element
        self.stack.append(_OpenElement(element, 0))
        if self.dtd is not None and self.dtd.element(name).is_empty():
            # EMPTY elements close immediately; no end tag will come.
            self.stack.pop()

    def _step(self, open_element: _OpenElement, symbol: str) -> int | None:
        if self.dtd is None:
            return 0
        automaton = self.dtd.automaton(open_element.element.name)
        return automaton.step(open_element.state, symbol)

    def _content_complete(self, open_element: _OpenElement) -> bool:
        if self.dtd is None:
            return True
        automaton = self.dtd.automaton(open_element.element.name)
        return automaton.is_accepting(open_element.state)

    def _make_room_for(self, symbol: str) -> None:
        """Apply inference moves until ``symbol`` fits the innermost model."""
        guard = 0
        while True:
            guard += 1
            if guard > 1000:
                raise self.cursor.error(
                    "tag inference did not converge", DocumentSyntaxError)
            if not self.stack:
                raise self.cursor.error(
                    f"no open element can contain {symbol!r}",
                    DocumentSyntaxError)
            top = self.stack[-1]
            if self._step(top, symbol) is not None:
                return
            if self.dtd is None:
                raise self.cursor.error(
                    f"unexpected {symbol!r} inside "
                    f"{top.element.name!r}", DocumentSyntaxError)
            # Move 1: infer an omissible start tag of an allowed child.
            inferred = self._inferable_start(top, symbol)
            if inferred is not None:
                self._push(inferred, {}, start_inferred=True)
                continue
            # Move 2: infer the end of the innermost element.
            if (len(self.stack) > 1
                    and self.dtd.element(top.element.name).omit_end
                    and self._content_complete(top)):
                top.element.end_inferred = True
                self.stack.pop()
                continue
            raise self.cursor.error(
                f"{symbol!r} not allowed in {top.element.name!r} and no "
                "omitted tag can be inferred", DocumentSyntaxError)

    def _inferable_start(self, open_element: _OpenElement,
                         symbol: str) -> str | None:
        """An allowed child with omissible start tag whose content can
        begin (transitively) with ``symbol``."""
        assert self.dtd is not None
        automaton = self.dtd.automaton(open_element.element.name)
        for candidate in sorted(automaton.allowed(open_element.state)):
            if candidate == PCDATA_NAME or candidate == symbol:
                continue
            declaration = self.dtd.elements.get(candidate)
            if declaration is None or not declaration.omit_start:
                continue
            if self._can_begin_with(candidate, symbol, frozenset()):
                return candidate
        return None

    def _can_begin_with(self, element_name: str, symbol: str,
                        seen: frozenset[str]) -> bool:
        assert self.dtd is not None
        if element_name in seen:
            return False
        automaton = self.dtd.automaton(element_name)
        initial = automaton.allowed(automaton.start_state)
        if symbol in initial:
            return True
        for candidate in initial:
            declaration = self.dtd.elements.get(candidate)
            if declaration is not None and declaration.omit_start:
                if self._can_begin_with(candidate, symbol,
                                        seen | {element_name}):
                    return True
        return False

    def _handle_end_tag(self) -> None:
        cursor = self.cursor
        cursor.advance(2)  # '</'
        name = cursor.take_name(DocumentSyntaxError)
        cursor.skip_whitespace()
        cursor.expect(">", DocumentSyntaxError)
        # Close inferred-end elements until we reach ``name``.
        while self.stack and self.stack[-1].element.name != name:
            top = self.stack[-1]
            can_infer = (self.dtd is not None
                         and self.dtd.element(top.element.name).omit_end
                         and self._content_complete(top))
            if not can_infer:
                raise cursor.error(
                    f"end tag </{name}> does not match open element "
                    f"{top.element.name!r}", DocumentSyntaxError)
            top.element.end_inferred = True
            self.stack.pop()
        if not self.stack:
            raise cursor.error(
                f"end tag </{name}> matches no open element",
                DocumentSyntaxError)
        self._close_innermost(explicit=True)

    def _close_innermost(self, explicit: bool) -> None:
        top = self.stack[-1]
        if not self._content_complete(top):
            raise self.cursor.error(
                f"content of {top.element.name!r} is incomplete",
                DocumentSyntaxError)
        top.element.end_inferred = not explicit
        self.stack.pop()

    def _close_remaining_at_eof(self) -> None:
        while self.stack:
            top = self.stack[-1]
            can_infer = (self.dtd is not None
                         and self.dtd.element(top.element.name).omit_end)
            if not can_infer:
                raise self.cursor.error(
                    f"unclosed element {top.element.name!r} at end of "
                    "document", DocumentSyntaxError)
            if not self._content_complete(top):
                raise self.cursor.error(
                    f"content of {top.element.name!r} is incomplete at end "
                    "of document", DocumentSyntaxError)
            top.element.end_inferred = True
            self.stack.pop()

    # -- attributes -----------------------------------------------------------

    def _parse_attributes(self, element_name: str) -> dict[str, str]:
        cursor = self.cursor
        attributes: dict[str, str] = {}
        while True:
            cursor.skip_whitespace()
            ch = cursor.peek()
            if ch in (">", "") or cursor.startswith("/>"):
                return attributes
            token = cursor.take_name(DocumentSyntaxError)
            cursor.skip_whitespace()
            if cursor.startswith("="):
                cursor.advance()
                cursor.skip_whitespace()
                value = self._parse_attribute_value()
                attributes[token] = value
            else:
                # Minimized attribute: a bare enumerated token stands for
                # its attribute (<article final> == status="final").
                resolved = self._resolve_minimized(element_name, token)
                if resolved is None:
                    raise cursor.error(
                        f"bare token {token!r} matches no enumerated "
                        f"attribute of {element_name!r}",
                        DocumentSyntaxError)
                attributes[resolved] = token

    def _parse_attribute_value(self) -> str:
        cursor = self.cursor
        quote = cursor.peek()
        if quote in "\"'":
            cursor.advance()
            raw = cursor.take_until(quote, DocumentSyntaxError)
            cursor.expect(quote, DocumentSyntaxError)
        else:
            raw = cursor.take(NAME_RUN)
            if not raw:
                raise cursor.error(
                    "expected an attribute value", DocumentSyntaxError)
        return self._resolve_entities(raw, depth=0)

    def _resolve_minimized(self, element_name: str,
                           token: str) -> str | None:
        if self.dtd is None:
            return None
        attlist = self.dtd.attlist(element_name)
        if attlist is None:
            return None
        for definition in attlist:
            if (definition.kind == ATT_NAME_GROUP
                    and token in definition.allowed_values):
                return definition.name
        return None

    def _apply_attribute_defaults(self, element: Element) -> None:
        assert self.dtd is not None
        attlist = self.dtd.attlist(element.name)
        if attlist is None:
            return
        for definition in attlist:
            if (definition.name not in element.attributes
                    and definition.has_default
                    and definition.default_value is not None):
                element.attributes[definition.name] = (
                    definition.default_value)

    # -- character data -------------------------------------------------------

    def _handle_text(self) -> None:
        cursor = self.cursor
        raw = cursor.take(_TEXT_RUN)
        content = self._resolve_entities(raw, depth=0)
        if self.root is None or not self.stack:
            if content.strip():
                raise cursor.error(
                    "character data outside the document element",
                    DocumentSyntaxError)
            return
        top = self.stack[-1]
        if not content.strip():
            # Separator whitespace: keep only where #PCDATA is live.
            live = self._step(top, PCDATA_NAME) is not None
            if self.keep_whitespace and live:
                top.element.append_text(content)
            return
        self._make_room_for(PCDATA_NAME)
        top = self.stack[-1]
        next_state = self._step(top, PCDATA_NAME)
        if next_state is None:
            raise cursor.error(
                f"character data not allowed inside "
                f"{top.element.name!r}", DocumentSyntaxError)
        top.state = next_state
        normalized = content if self.keep_whitespace else (
            " ".join(content.split()))
        top.element.append_text(normalized)

    def _resolve_entities(self, text: str, depth: int) -> str:
        if "&" not in text:
            return text
        if depth > _MAX_ENTITY_DEPTH:
            raise EntityError("entity substitution too deep (cycle?)")
        pieces: list[str] = []
        index = 0
        while index < len(text):
            amp = text.find("&", index)
            if amp < 0:
                pieces.append(text[index:])
                break
            pieces.append(text[index:amp])
            semi = text.find(";", amp + 1)
            if semi < 0:
                # A bare ampersand: keep it verbatim (SGML tolerates this
                # when no name follows).
                pieces.append(text[amp:])
                break
            name = text[amp + 1:semi]
            pieces.append(self._entity_replacement(name, depth))
            index = semi + 1
        return "".join(pieces)

    def _entity_replacement(self, name: str, depth: int) -> str:
        if name.startswith("#"):
            try:
                code = int(name[2:], 16) if name[1:2] in "xX" else int(
                    name[1:])
            except (TypeError, ValueError):
                raise EntityError(f"bad character reference &{name};")
            return chr(code)
        predefined = _PREDEFINED_ENTITIES.get(name)
        if predefined is not None:
            return predefined
        if self.dtd is not None:
            entity = self.dtd.entity(name)
            if entity is not None:
                if entity.is_internal:
                    return self._resolve_entities(
                        entity.text or "", depth + 1)
                # External entity in content: substitute a reference marker.
                return f"[external: {entity.system_id}]"
        raise EntityError(f"undefined entity &{name};")
