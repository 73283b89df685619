"""Parser for document type definitions (Figure 1).

Accepts either a full ``<!DOCTYPE name [ ... ]>`` wrapper or a bare
sequence of mark-up declarations.  Supported declarations:

* ``<!ELEMENT name - O (content model)>`` — with optional tag-omission
  indicators and name groups ``<!ELEMENT (a|b) ...>`` declaring several
  elements at once;
* ``<!ATTLIST name attr TYPE default ...>`` — CDATA / ID / IDREF(S) /
  NMTOKEN(S) / NUMBER / ENTITY / enumerated name groups; defaults
  ``#REQUIRED`` / ``#IMPLIED`` / ``#FIXED "v"`` / literal;
* ``<!ENTITY name "text">``, ``<!ENTITY name SYSTEM "sysid" [NDATA n]>``
  and parameter entities ``<!ENTITY % name "text">`` with ``%name;``
  substitution inside the DTD;
* comment declarations ``<!-- ... -->``.
"""

from __future__ import annotations

from repro.errors import DtdSyntaxError
from repro.sgml.contentmodel import parse_content_model
from repro.sgml.dtd import (
    ATT_CDATA,
    ATT_ENTITY,
    ATT_ID,
    ATT_IDREF,
    ATT_IDREFS,
    ATT_NAME_GROUP,
    ATT_NMTOKEN,
    ATT_NMTOKENS,
    ATT_NUMBER,
    AttDef,
    AttlistDecl,
    DEFAULT_FIXED,
    DEFAULT_IMPLIED,
    DEFAULT_REQUIRED,
    DEFAULT_VALUE,
    Dtd,
    ElementDecl,
    EntityDecl,
)
from repro.sgml.tokens import Cursor, NAME_RUN

_KIND_WORDS = {
    "CDATA": ATT_CDATA,
    "ID": ATT_ID,
    "IDREF": ATT_IDREF,
    "IDREFS": ATT_IDREFS,
    "NMTOKEN": ATT_NMTOKEN,
    "NMTOKENS": ATT_NMTOKENS,
    "NUMBER": ATT_NUMBER,
    "ENTITY": ATT_ENTITY,
    "NAME": ATT_NMTOKEN,  # NAME is close enough to NMTOKEN for our needs
    "NUTOKEN": ATT_NMTOKEN,
}


def parse_dtd(text: str) -> Dtd:
    """Parse DTD text into a :class:`~repro.sgml.dtd.Dtd`."""
    cursor = Cursor(text)
    cursor.skip_whitespace()
    doctype = ""
    if cursor.startswith("<!DOCTYPE") or cursor.startswith("<!doctype"):
        cursor.advance(len("<!DOCTYPE"))
        cursor.skip_whitespace()
        doctype = cursor.take_name(DtdSyntaxError)
        cursor.skip_whitespace()
        cursor.expect("[", DtdSyntaxError)
    dtd = Dtd(doctype)
    while True:
        cursor.skip_whitespace()
        if cursor.at_end():
            break
        if cursor.startswith("]"):
            cursor.advance()
            cursor.skip_whitespace()
            if cursor.startswith(">"):
                cursor.advance()
            break
        if cursor.startswith("%"):
            _substitute_parameter_entity(cursor, dtd)
            continue
        if cursor.startswith("<!--"):
            _skip_comment(cursor)
            continue
        if cursor.startswith("<!"):
            _parse_declaration(cursor, dtd)
            continue
        raise cursor.error(
            f"unexpected characters in DTD: {cursor.peek(12)!r}",
            DtdSyntaxError)
    if not dtd.doctype and dtd.elements:
        # Bare declaration list: the first declared element is the doctype.
        dtd.doctype = next(iter(dtd.elements))
    return dtd


def _skip_comment(cursor: Cursor) -> None:
    cursor.expect("<!--", DtdSyntaxError)
    cursor.take_until("-->", DtdSyntaxError)
    cursor.expect("-->", DtdSyntaxError)


def _substitute_parameter_entity(cursor: Cursor, dtd: Dtd) -> None:
    cursor.expect("%", DtdSyntaxError)
    name = cursor.take_name(DtdSyntaxError)
    if cursor.startswith(";"):
        cursor.advance()
    entity = dtd.parameter_entities.get(name)
    if entity is None or entity.text is None:
        raise cursor.error(
            f"undefined parameter entity %{name};", DtdSyntaxError)
    # Splice the replacement text at the current position.
    cursor.text = (cursor.text[:cursor.pos] + entity.text
                   + cursor.text[cursor.pos:])


def _expand_parameter_entities(text: str, dtd: Dtd,
                               cursor: Cursor) -> str:
    """Expand ``%name;`` references inside declaration text."""
    guard = 0
    while "%" in text:
        guard += 1
        if guard > _MAX_PE_DEPTH:
            raise cursor.error(
                "parameter entity expansion too deep (cycle?)",
                DtdSyntaxError)
        start = text.index("%")
        end = NAME_RUN.match(text, start + 1).end()
        name = text[start + 1:end]
        if end < len(text) and text[end] == ";":
            end += 1
        entity = dtd.parameter_entities.get(name)
        if entity is None or entity.text is None:
            raise cursor.error(
                f"undefined parameter entity %{name};", DtdSyntaxError)
        text = text[:start] + entity.text + text[end:]
    return text


_MAX_PE_DEPTH = 32


def _parse_declaration(cursor: Cursor, dtd: Dtd) -> None:
    cursor.expect("<!", DtdSyntaxError)
    keyword = cursor.take_name(DtdSyntaxError).upper()
    if keyword == "ELEMENT":
        _parse_element(cursor, dtd)
    elif keyword == "ATTLIST":
        _parse_attlist(cursor, dtd)
    elif keyword == "ENTITY":
        _parse_entity(cursor, dtd)
    elif keyword == "NOTATION":
        # Tolerated and skipped: notations carry no structure we map.
        cursor.take_until(">", DtdSyntaxError)
        cursor.expect(">", DtdSyntaxError)
    else:
        raise cursor.error(
            f"unknown declaration <!{keyword}", DtdSyntaxError)


def _parse_name_group(cursor: Cursor) -> list[str]:
    """``(a | b | c)`` — used for multi-element declarations."""
    cursor.expect("(", DtdSyntaxError)
    names = []
    while True:
        cursor.skip_whitespace()
        names.append(cursor.take_name(DtdSyntaxError))
        cursor.skip_whitespace()
        if cursor.startswith(")"):
            cursor.advance()
            return names
        if cursor.peek() in "|,&":
            cursor.advance()
        else:
            raise cursor.error(
                f"expected '|' or ')' in name group, found "
                f"{cursor.peek()!r}", DtdSyntaxError)


def _parse_element(cursor: Cursor, dtd: Dtd) -> None:
    cursor.skip_whitespace()
    if cursor.startswith("("):
        names = _parse_name_group(cursor)
    else:
        names = [cursor.take_name(DtdSyntaxError)]
    cursor.skip_whitespace()
    omit_start = omit_end = False
    has_omission = cursor.peek() in "-Oo" and cursor.peek(2)[1:2].isspace()
    if has_omission:
        omit_start = cursor.advance().upper() == "O"
        cursor.skip_whitespace()
        if cursor.peek() not in "-Oo":
            raise cursor.error(
                "expected the end-tag omission indicator", DtdSyntaxError)
        omit_end = cursor.advance().upper() == "O"
        cursor.skip_whitespace()
    model_text = cursor.take_until(">", DtdSyntaxError).strip()
    cursor.expect(">", DtdSyntaxError)
    model_text = _expand_parameter_entities(model_text, dtd, cursor)
    try:
        model = parse_content_model(model_text)
    except Exception as exc:
        raise cursor.error(
            f"bad content model for {names[0]!r}: {exc}",
            DtdSyntaxError) from exc
    for name in names:
        dtd.add_element(ElementDecl(name, model, omit_start, omit_end))


def _parse_attlist(cursor: Cursor, dtd: Dtd) -> None:
    cursor.skip_whitespace()
    if cursor.startswith("("):
        element_names = _parse_name_group(cursor)
    else:
        element_names = [cursor.take_name(DtdSyntaxError)]
    definitions: list[AttDef] = []
    while True:
        cursor.skip_whitespace()
        if cursor.startswith(">"):
            cursor.advance()
            break
        attribute_name = cursor.take_name(DtdSyntaxError)
        cursor.skip_whitespace()
        kind, allowed = _parse_declared_value(cursor)
        cursor.skip_whitespace()
        default_kind, default_value = _parse_default(cursor)
        definitions.append(AttDef(
            attribute_name, kind, allowed, default_kind, default_value))
    for element_name in element_names:
        dtd.add_attlist(AttlistDecl(element_name, definitions))


def _parse_declared_value(cursor: Cursor) -> tuple[str, tuple[str, ...]]:
    if cursor.startswith("("):
        values = _parse_token_group(cursor)
        return ATT_NAME_GROUP, tuple(values)
    word = cursor.take_name(DtdSyntaxError).upper()
    kind = _KIND_WORDS.get(word)
    if kind is None:
        raise cursor.error(
            f"unknown declared attribute value {word!r}", DtdSyntaxError)
    return kind, ()


def _parse_token_group(cursor: Cursor) -> list[str]:
    cursor.expect("(", DtdSyntaxError)
    tokens: list[str] = []
    while True:
        cursor.skip_whitespace()
        token = cursor.take(NAME_RUN)
        if not token:
            raise cursor.error("expected a token", DtdSyntaxError)
        tokens.append(token)
        cursor.skip_whitespace()
        if cursor.startswith(")"):
            cursor.advance()
            return tokens
        if cursor.startswith("|"):
            cursor.advance()
        else:
            raise cursor.error(
                f"expected '|' or ')' in token group, found "
                f"{cursor.peek()!r}", DtdSyntaxError)


def _parse_default(cursor: Cursor) -> tuple[str, str | None]:
    if cursor.startswith("#"):
        cursor.advance()
        word = cursor.take_name(DtdSyntaxError).upper()
        if word == "REQUIRED":
            return DEFAULT_REQUIRED, None
        if word == "IMPLIED":
            return DEFAULT_IMPLIED, None
        if word == "FIXED":
            cursor.skip_whitespace()
            return DEFAULT_FIXED, _parse_literal_or_token(cursor)
        if word == "CURRENT" or word == "CONREF":
            # Treated as implied: we do not model these defaults.
            return DEFAULT_IMPLIED, None
        raise cursor.error(f"unknown default #{word}", DtdSyntaxError)
    return DEFAULT_VALUE, _parse_literal_or_token(cursor)


def _parse_literal_or_token(cursor: Cursor) -> str:
    quote = cursor.peek()
    if quote in "\"'":
        cursor.advance()
        value = cursor.take_until(quote, DtdSyntaxError)
        cursor.expect(quote, DtdSyntaxError)
        return value
    value = cursor.take(NAME_RUN)
    if not value:
        raise cursor.error("expected a default value", DtdSyntaxError)
    return value


def _parse_entity(cursor: Cursor, dtd: Dtd) -> None:
    cursor.skip_whitespace()
    parameter = False
    if cursor.startswith("%"):
        parameter = True
        cursor.advance()
        cursor.skip_whitespace()
    name = cursor.take_name(DtdSyntaxError)
    cursor.skip_whitespace()
    if cursor.peek() in "\"'":
        text = _parse_literal_or_token(cursor)
        cursor.skip_whitespace()
        cursor.expect(">", DtdSyntaxError)
        dtd.add_entity(EntityDecl(name, text=text, parameter=parameter))
        return
    keyword = cursor.take_name(DtdSyntaxError).upper()
    if keyword not in ("SYSTEM", "PUBLIC"):
        raise cursor.error(
            f"expected SYSTEM/PUBLIC or a literal in entity declaration, "
            f"found {keyword!r}", DtdSyntaxError)
    cursor.skip_whitespace()
    system_id = _parse_literal_or_token(cursor)
    if keyword == "PUBLIC":
        cursor.skip_whitespace()
        if cursor.peek() in "\"'":
            system_id = _parse_literal_or_token(cursor)
    cursor.skip_whitespace()
    ndata = None
    if not cursor.startswith(">"):
        word = cursor.take_name(DtdSyntaxError).upper()
        if word == "NDATA":
            cursor.skip_whitespace()
            # The notation name may be absent in loose DTDs (Figure 1
            # line 16 writes `NDATA >`); tolerate that.
            if not cursor.startswith(">"):
                ndata = cursor.take_name(DtdSyntaxError)
            else:
                ndata = ""
        cursor.skip_whitespace()
    cursor.expect(">", DtdSyntaxError)
    dtd.add_entity(EntityDecl(
        name, system_id=system_id, ndata=ndata, parameter=parameter))
