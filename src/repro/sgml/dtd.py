"""The DTD object model (Section 2 / Figure 1).

A :class:`Dtd` collects element declarations (with their content models
and tag-omission indicators), attribute-list declarations and entity
declarations.  Each element's :class:`ElementRecord` (its content
automaton, EMPTY flag and attribute defaults) is built lazily and cached.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import SgmlError
from repro.sgml.automata import ContentAutomaton
from repro.sgml.contentmodel import ContentModel, Empty, PCData

# Declared value kinds for attributes (a practical subset of ISO 8879).
ATT_CDATA = "CDATA"
ATT_ID = "ID"
ATT_IDREF = "IDREF"
ATT_IDREFS = "IDREFS"
ATT_NMTOKEN = "NMTOKEN"
ATT_NMTOKENS = "NMTOKENS"
ATT_NUMBER = "NUMBER"
ATT_ENTITY = "ENTITY"
ATT_NAME_GROUP = "NAME_GROUP"  # enumerated values (status (final|draft))

ATT_KINDS = (ATT_CDATA, ATT_ID, ATT_IDREF, ATT_IDREFS, ATT_NMTOKEN,
             ATT_NMTOKENS, ATT_NUMBER, ATT_ENTITY, ATT_NAME_GROUP)

# Default-value kinds.
DEFAULT_REQUIRED = "#REQUIRED"
DEFAULT_IMPLIED = "#IMPLIED"
DEFAULT_FIXED = "#FIXED"
DEFAULT_VALUE = "VALUE"  # an explicit literal default


class AttDef:
    """One attribute definition inside an ATTLIST declaration."""

    def __init__(self, name: str, kind: str,
                 allowed_values: Iterable[str] = (),
                 default_kind: str = DEFAULT_IMPLIED,
                 default_value: str | None = None) -> None:
        if kind not in ATT_KINDS:
            raise SgmlError(f"unknown attribute kind {kind!r}")
        self.name = name
        self.kind = kind
        self.allowed_values = tuple(allowed_values)
        self.default_kind = default_kind
        self.default_value = default_value

    @property
    def required(self) -> bool:
        return self.default_kind == DEFAULT_REQUIRED

    @property
    def has_default(self) -> bool:
        return self.default_kind in (DEFAULT_VALUE, DEFAULT_FIXED)

    def __repr__(self) -> str:  # pragma: no cover
        extra = ""
        if self.kind == ATT_NAME_GROUP:
            extra = " (" + " | ".join(self.allowed_values) + ")"
        default = self.default_value if self.has_default else self.default_kind
        return f"AttDef({self.name} {self.kind}{extra} {default})"


class AttlistDecl:
    """``<!ATTLIST element ...>`` — attributes of one element."""

    def __init__(self, element_name: str,
                 definitions: Iterable[AttDef]) -> None:
        self.element_name = element_name
        self.definitions = tuple(definitions)
        self._by_name = {d.name: d for d in self.definitions}

    def get(self, name: str) -> AttDef | None:
        return self._by_name.get(name)

    def __iter__(self) -> Iterator[AttDef]:
        return iter(self.definitions)

    def __len__(self) -> int:
        return len(self.definitions)


class ElementDecl:
    """``<!ELEMENT name - O (model)>``."""

    def __init__(self, name: str, model: ContentModel,
                 omit_start: bool = False, omit_end: bool = False) -> None:
        self.name = name
        self.model = model
        self.omit_start = omit_start
        self.omit_end = omit_end

    def is_empty(self) -> bool:
        return isinstance(self.model, Empty)

    def is_pcdata_only(self) -> bool:
        return isinstance(self.model, PCData)

    def __repr__(self) -> str:  # pragma: no cover
        start = "O" if self.omit_start else "-"
        end = "O" if self.omit_end else "-"
        return f"ElementDecl({self.name} {start} {end} {self.model})"


class EntityDecl:
    """``<!ENTITY ...>`` — internal text or external (SYSTEM) entities."""

    def __init__(self, name: str, text: str | None = None,
                 system_id: str | None = None, ndata: str | None = None,
                 parameter: bool = False) -> None:
        self.name = name
        self.text = text
        self.system_id = system_id
        self.ndata = ndata
        self.parameter = parameter

    @property
    def is_internal(self) -> bool:
        return self.text is not None

    @property
    def is_external(self) -> bool:
        return self.system_id is not None

    def __repr__(self) -> str:  # pragma: no cover
        flavor = "%" if self.parameter else "&"
        body = self.text if self.is_internal else f"SYSTEM {self.system_id!r}"
        return f"EntityDecl({flavor}{self.name} = {body})"


class ElementRecord:
    """What parsing an instance needs of one element, built once per
    DTD: the content automaton (its ``step`` and ``accepting``), whether
    the element is EMPTY or may omit its end tag, the attribute defaults
    in declaration order, and the attribute each bare enumerated token
    stands for (``<article final>``)."""

    __slots__ = ("automaton", "step", "accepting", "empty", "omit_end",
                 "defaults", "minimized")

    def __init__(self, automaton: ContentAutomaton, empty: bool,
                 omit_end: bool, attlist: AttlistDecl | None) -> None:
        self.automaton = automaton
        self.step = automaton.step
        self.accepting = automaton.is_accepting
        self.empty = empty
        self.omit_end = omit_end
        definitions = attlist.definitions if attlist is not None else ()
        self.defaults = tuple(
            (d.name, d.default_value) for d in definitions
            if d.has_default and d.default_value is not None)
        self.minimized: dict[str, str] = {}
        for definition in definitions:
            if definition.kind == ATT_NAME_GROUP:
                for token in definition.allowed_values:
                    self.minimized.setdefault(token, definition.name)


class Dtd:
    """A parsed document type definition."""

    def __init__(self, doctype: str,
                 elements: Iterable[ElementDecl] = (),
                 attlists: Iterable[AttlistDecl] = (),
                 entities: Iterable[EntityDecl] = ()) -> None:
        self.doctype = doctype
        self._records: dict[str, ElementRecord] = {}
        self.elements: dict[str, ElementDecl] = {}
        for declaration in elements:
            self.add_element(declaration)
        self.attlists: dict[str, AttlistDecl] = {}
        for attlist in attlists:
            self.add_attlist(attlist)
        self.entities: dict[str, EntityDecl] = {}
        self.parameter_entities: dict[str, EntityDecl] = {}
        for entity in entities:
            self.add_entity(entity)

    # -- construction ---------------------------------------------------------

    def add_element(self, declaration: ElementDecl) -> None:
        if declaration.name in self.elements:
            raise SgmlError(
                f"duplicate element declaration for {declaration.name!r}")
        self.elements[declaration.name] = declaration

    def add_attlist(self, attlist: AttlistDecl) -> None:
        self._records.pop(attlist.element_name, None)
        existing = self.attlists.get(attlist.element_name)
        if existing is None:
            self.attlists[attlist.element_name] = attlist
        else:
            # Multiple ATTLIST declarations for one element accumulate.
            merged = list(existing.definitions)
            known = {d.name for d in merged}
            merged.extend(d for d in attlist.definitions
                          if d.name not in known)
            self.attlists[attlist.element_name] = AttlistDecl(
                attlist.element_name, merged)

    def add_entity(self, entity: EntityDecl) -> None:
        table = (self.parameter_entities if entity.parameter
                 else self.entities)
        # First declaration wins, per ISO 8879.
        table.setdefault(entity.name, entity)

    # -- lookup ---------------------------------------------------------------

    def element(self, name: str) -> ElementDecl:
        try:
            return self.elements[name]
        except KeyError:
            raise SgmlError(f"element {name!r} is not declared") from None

    def has_element(self, name: str) -> bool:
        return name in self.elements

    def attlist(self, element_name: str) -> AttlistDecl | None:
        return self.attlists.get(element_name)

    def entity(self, name: str) -> EntityDecl | None:
        return self.entities.get(name)

    def record(self, element_name: str) -> ElementRecord:
        """The (cached) parsing record of a declared element."""
        cached = self._records.get(element_name)
        if cached is None:
            declaration = self.element(element_name)
            cached = ElementRecord(
                ContentAutomaton(declaration.model), declaration.is_empty(),
                declaration.omit_end, self.attlist(element_name))
            self._records[element_name] = cached
        return cached

    def automaton(self, element_name: str) -> ContentAutomaton:
        """The (cached) content DFA of an element."""
        return self.record(element_name).automaton

    @property
    def element_names(self) -> tuple[str, ...]:
        return tuple(self.elements)

    # -- integrity ------------------------------------------------------------

    def check(self) -> list[str]:
        """Static checks; returns a list of human-readable problems.

        * the doctype element must be declared,
        * every element mentioned in a content model must be declared,
        * every ATTLIST must target a declared element,
        * at most one ID attribute per element.
        """
        problems: list[str] = []
        if self.doctype and not self.has_element(self.doctype):
            problems.append(
                f"doctype element {self.doctype!r} is not declared")
        for declaration in self.elements.values():
            for mentioned in sorted(declaration.model.mentioned()):
                if not self.has_element(mentioned):
                    problems.append(
                        f"element {declaration.name!r} references "
                        f"undeclared element {mentioned!r}")
        for attlist in self.attlists.values():
            if not self.has_element(attlist.element_name):
                problems.append(
                    f"ATTLIST targets undeclared element "
                    f"{attlist.element_name!r}")
            id_attributes = [d.name for d in attlist
                             if d.kind == ATT_ID]
            if len(id_attributes) > 1:
                problems.append(
                    f"element {attlist.element_name!r} declares "
                    f"{len(id_attributes)} ID attributes")
        return problems
