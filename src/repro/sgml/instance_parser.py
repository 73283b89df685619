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
from repro.sgml.automata import ContentAutomaton
from repro.sgml.contentmodel import PCDATA_NAME, AnyContent
from repro.sgml.dtd import Dtd, ElementRecord
from repro.sgml.instance import Element
from repro.sgml.tokens import Cursor, NAME_RUN, is_name

_PREDEFINED_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'",
}

_NAME = r"[A-Za-z][A-Za-z0-9._-]*"
_VALUE = r"""(?:"[^"]*"|'[^']*'|[A-Za-z0-9._-]+)"""

#: One step of the main loop: a text run (group 1), a whole start tag —
#: name (2), attribute run (3) and the ``/`` of ``/>`` (4) — or an end
#: tag (5).  No repetition can match a string in two ways (a name or a
#: value never runs into whitespace, ``=``, ``/`` or ``>``), so a tag
#: that never closes fails in time linear in its length.  Comments,
#: CDATA, declarations and malformed markup match nothing and go to the
#: cursor handlers.
_TOKEN = re.compile(
    r"([^<]+)"
    rf"|<({_NAME})((?:\s+{_NAME}(?:\s*=\s*{_VALUE})?)*)\s*(/?)>"
    rf"|</({_NAME})\s*>")

#: One attribute of a matched start tag's attribute run: its name (1)
#: and its value, double-quoted (2), single-quoted (3) or unquoted (4);
#: no value is a minimized attribute.
_ATTRIBUTE = re.compile(
    rf"""\s+({_NAME})(?:\s*=\s*(?:"([^"]*)"|'([^']*)'"""
    r"|([A-Za-z0-9._-]+)))?")

#: The record of an element parsed without a DTD: any content, no
#: defaults, every tag explicit.
_FREE = ElementRecord(ContentAutomaton(AnyContent()), empty=False,
                      omit_end=False, attlist=None)

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
    __slots__ = ("element", "state", "record")

    def __init__(self, element: Element, record: ElementRecord) -> None:
        self.element = element
        self.state = 0
        self.record = record


class _InstanceParser:
    def __init__(self, text: str, dtd: Dtd | None,
                 keep_whitespace: bool) -> None:
        self.text = text
        self.cursor = Cursor(text)
        self.dtd = dtd
        self.keep_whitespace = keep_whitespace
        self.stack: list[_OpenElement] = []
        self.root: Element | None = None

    # -- main loop ------------------------------------------------------------

    def parse(self) -> Element:
        text, cursor = self.text, self.cursor
        match = _TOKEN.match
        end = len(text)
        while cursor.pos < end:
            token = match(text, cursor.pos)
            if token is None:
                self._handle_markup()
                continue
            cursor.pos = token.end()
            kind = token.lastindex
            if kind == 4:
                self._handle_start_tag(token)
            elif kind == 5:
                self._handle_end_tag(token.group(5))
            else:
                self._handle_text(token.group(1))
        self._close_remaining_at_eof()
        if self.root is None:
            raise DocumentSyntaxError("document contains no element")
        return self.root

    def _handle_markup(self) -> None:
        """What the token pattern does not match: comments, CDATA,
        declarations and malformed tags, read on the cursor."""
        cursor = self.cursor
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
            # the token pattern reads every well-formed end tag, so
            # these reads only ever raise
            cursor.advance(2)
            cursor.take_name(DocumentSyntaxError)
            cursor.skip_whitespace()
            cursor.expect(">", DocumentSyntaxError)
        elif is_name(cursor.peek(2)[1:]):
            self._read_start_tag()
        else:
            raise cursor.error(
                f"stray '<' before {cursor.peek(8)!r}",
                DocumentSyntaxError)

    def _handle_cdata(self) -> None:
        """``<![CDATA[ ... ]]>`` — literal character data, no markup
        recognition and no entity resolution inside."""
        cursor = self.cursor
        cursor.advance(len("<![CDATA["))
        raw = cursor.take_until("]]>", DocumentSyntaxError)
        cursor.advance(3)
        if not self.stack:
            if raw.strip():
                raise cursor.error(
                    "CDATA outside the document element",
                    DocumentSyntaxError)
            return
        self._append_text(raw)

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

    def _handle_start_tag(self, token: re.Match[str]) -> None:
        name = token.group(2)
        attributes: dict[str, str] = {}
        if token.start(3) < token.end(3):
            cursor = self.cursor
            for attribute in _ATTRIBUTE.finditer(
                    self.text, token.start(3), token.end(3)):
                attribute_name = attribute.group(1)
                if attribute.lastindex == 1:  # no value: minimized
                    cursor.pos = attribute.end()
                    cursor.skip_whitespace()
                    attributes[self._minimized(name, attribute_name)] = \
                        attribute_name
                else:
                    attributes[attribute_name] = self._resolve_entities(
                        attribute.group(attribute.lastindex), depth=0)
            cursor.pos = token.end()
        self._open_element(name, attributes, token.group(4) == "/")

    def _read_start_tag(self) -> None:
        """A start tag the token pattern did not match, read on the
        cursor: it is either irregular (attributes not separated by
        whitespace) or malformed, and then fails where it goes wrong."""
        cursor = self.cursor
        cursor.advance()  # '<'
        name = cursor.take_name(DocumentSyntaxError)
        attributes = self._parse_attributes(name)
        cursor.skip_whitespace()
        empty = cursor.startswith("/>")  # tolerated XML-ish empty element
        cursor.expect("/>" if empty else ">", DocumentSyntaxError)
        self._open_element(name, attributes, empty)

    def _open_element(self, name: str, attributes: dict[str, str],
                      empty: bool) -> None:
        if self.dtd is None:
            record = _FREE
        elif name in self.dtd.elements:
            record = self.dtd.record(name)
        else:
            raise self.cursor.error(
                f"element {name!r} is not declared in the DTD",
                DocumentSyntaxError)
        state = 0
        if self.stack:
            state = self._make_room_for(name)
        elif self.root is not None:
            raise self.cursor.error(
                f"element {name!r} after the document element closed",
                DocumentSyntaxError)
        self._push(state, name, attributes, record, False)
        if empty and not record.empty:  # ``/>`` on an element not EMPTY
            self._close_innermost()

    def _push(self, state: int, name: str, attributes: dict[str, str],
              record: ElementRecord, start_inferred: bool) -> None:
        """Append a new child to the innermost element, which moves to
        ``state`` (or make it the root), and open it unless it is EMPTY
        (no end tag will come)."""
        for attribute, value in record.defaults:
            attributes.setdefault(attribute, value)
        element = Element(name, attributes, start_inferred=start_inferred)
        if self.stack:
            top = self.stack[-1]
            top.state = state
            top.element.append(element)
        else:
            self.root = element
        if not record.empty:
            self.stack.append(_OpenElement(element, record))

    def _make_room_for(self, symbol: str) -> int:
        """Apply inference moves until ``symbol`` fits the innermost
        model; returns the innermost element's state after it."""
        stack = self.stack
        guard = 0
        while True:
            guard += 1
            if guard > 1000:
                raise self.cursor.error(
                    "tag inference did not converge", DocumentSyntaxError)
            if not stack:
                raise self.cursor.error(
                    f"no open element can contain {symbol!r}",
                    DocumentSyntaxError)
            top = stack[-1]
            record = top.record
            state = record.step(top.state, symbol)
            if state is not None:
                return state
            # Move 1: infer an omissible start tag of an allowed child.
            inferred = self._inferable_start(top, symbol)
            if inferred is not None:
                self._push(record.step(top.state, inferred), inferred, {},
                           self.dtd.record(inferred), True)
                continue
            # Move 2: infer the end of the innermost element.
            if (len(stack) > 1 and record.omit_end
                    and record.accepting(top.state)):
                top.element.end_inferred = True
                stack.pop()
                continue
            raise self.cursor.error(
                f"{symbol!r} not allowed in {top.element.name!r} and no "
                "omitted tag can be inferred", DocumentSyntaxError)

    def _inferable_start(self, open_element: _OpenElement,
                         symbol: str) -> str | None:
        """An allowed child with omissible start tag whose content can
        begin (transitively) with ``symbol``."""
        assert self.dtd is not None
        automaton = open_element.record.automaton
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

    def _handle_end_tag(self, name: str) -> None:
        stack = self.stack
        # Close inferred-end elements until we reach ``name``.
        while stack and stack[-1].element.name != name:
            top = stack[-1]
            if not (top.record.omit_end
                    and top.record.accepting(top.state)):
                raise self.cursor.error(
                    f"end tag </{name}> does not match open element "
                    f"{top.element.name!r}", DocumentSyntaxError)
            top.element.end_inferred = True
            stack.pop()
        if not stack:
            raise self.cursor.error(
                f"end tag </{name}> matches no open element",
                DocumentSyntaxError)
        self._close_innermost()

    def _close_innermost(self) -> None:
        """Close the innermost element at its explicit end."""
        top = self.stack[-1]
        if not top.record.accepting(top.state):
            raise self.cursor.error(
                f"content of {top.element.name!r} is incomplete",
                DocumentSyntaxError)
        self.stack.pop()

    def _close_remaining_at_eof(self) -> None:
        while self.stack:
            top = self.stack[-1]
            if not top.record.omit_end:
                raise self.cursor.error(
                    f"unclosed element {top.element.name!r} at end of "
                    "document", DocumentSyntaxError)
            if not top.record.accepting(top.state):
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
                attributes[self._minimized(element_name, token)] = token

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

    def _minimized(self, element_name: str, token: str) -> str:
        """The attribute a bare enumerated token stands for
        (``<article final>`` == ``status="final"``); an error at the
        cursor when there is none."""
        dtd = self.dtd
        if dtd is not None and element_name in dtd.elements:
            resolved = dtd.record(element_name).minimized.get(token)
            if resolved is not None:
                return resolved
        raise self.cursor.error(
            f"bare token {token!r} matches no enumerated "
            f"attribute of {element_name!r}", DocumentSyntaxError)

    # -- character data -------------------------------------------------------

    def _handle_text(self, raw: str) -> None:
        content = self._resolve_entities(raw, depth=0)
        stack = self.stack
        if not content or content.isspace():
            # Separator whitespace: keep only where #PCDATA is live.
            if (self.keep_whitespace and stack
                    and stack[-1].record.step(
                        stack[-1].state, PCDATA_NAME) is not None):
                stack[-1].element.append_text(content)
            return
        if not stack:
            raise self.cursor.error(
                "character data outside the document element",
                DocumentSyntaxError)
        self._append_text(content)

    def _append_text(self, content: str) -> None:
        """Character data into the element that can hold it, its
        whitespace runs collapsed unless whitespace is kept."""
        state = self._make_room_for(PCDATA_NAME)
        top = self.stack[-1]
        top.state = state
        top.element.append_text(content if self.keep_whitespace
                                else " ".join(content.split()))

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
