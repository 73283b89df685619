"""The inverse mapping: database → SGML (footnote 1 / Section 6).

The paper notes that "the inverse mapping from database
schema/instances to SGML DTD/documents also opens interesting
perspectives for exchanging information between heterogeneous
databases, writing reports, etc." and that "providing the means to
update the document from the database" is a key follow-up.  This module
implements both directions:

* :func:`schema_to_dtd` — regenerate a DTD from a
  :class:`~repro.mapping.dtd_to_schema.MappedSchema` (the shapes the
  mapper recorded make this exact: the original content models are
  reconstructed, including union markers and occurrence indicators);
* :func:`value_to_element` / :func:`export_document` — rebuild an SGML
  element tree from a loaded object, so a document edited *in the
  database* can be re-serialised (the walk ``text()`` also takes, in
  :mod:`repro.mapping.text_inverse`).
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.mapping.dtd_to_schema import MappedSchema
from repro.mapping.shapes import (
    ElemShape,
    EmptyShape,
    ListShape,
    OptShape,
    Shape,
    TextShape,
    TupleShape,
    UnionShape,
    shape_content,
)
from repro.oodb.instance import Instance
from repro.oodb.values import ListValue, Nil, Oid, TupleValue
from repro.sgml.dtd import ATT_ID, ATT_IDREF, ATT_IDREFS
from repro.sgml.instance import Element


# ---------------------------------------------------------------------------
# schema -> DTD
# ---------------------------------------------------------------------------


def schema_to_dtd(mapped: MappedSchema) -> str:
    """Regenerate DTD text from a mapped schema.

    The result parses back to a DTD whose mapping is equivalent to
    ``mapped`` (round-trip pinned by tests).  Tag-omission indicators
    are not recoverable from the schema; ``- O`` is emitted for every
    element (always well-formed).
    """
    lines = [f"<!DOCTYPE {_element_of(mapped, mapped.doctype_class)} ["]
    for element_name, class_name in mapped.element_class.items():
        shape = mapped.shapes[class_name]
        model = _shape_to_model(shape)
        lines.append(f"<!ELEMENT {element_name} - O {model}>")
        attlist = _attlist_text(mapped, class_name)
        if attlist:
            lines.append(f"<!ATTLIST {element_name} {attlist}>")
    lines.append("]>")
    return "\n".join(lines)


def _element_of(mapped: MappedSchema, class_name: str) -> str:
    for element_name, mapped_class in mapped.element_class.items():
        if mapped_class == class_name:
            return element_name
    raise MappingError(f"no element maps to class {class_name!r}")


def _shape_to_model(shape: Shape) -> str:
    if isinstance(shape, EmptyShape):
        return "EMPTY"
    if isinstance(shape, TupleShape):
        if (len(shape.fields) == 1
                and isinstance(shape.fields[0][1], TextShape)):
            return "(#PCDATA)"
        parts = [_shape_to_part(field) for _, field in shape.fields]
        return "(" + ", ".join(parts) + ")"
    if isinstance(shape, UnionShape):
        parts = [_shape_to_part(branch) for _, branch in shape.branches]
        return "(" + " | ".join(parts) + ")"
    return "(" + _shape_to_part(shape) + ")"


def _shape_to_part(shape: Shape) -> str:
    if isinstance(shape, ElemShape):
        return shape.element_name
    if isinstance(shape, TextShape):
        return "#PCDATA"
    if isinstance(shape, OptShape):
        return _shape_to_part(shape.child) + "?"
    if isinstance(shape, ListShape):
        indicator = "+" if shape.at_least_one else "*"
        return _shape_to_part(shape.element) + indicator
    if isinstance(shape, TupleShape):
        return ("(" + ", ".join(_shape_to_part(f)
                                for _, f in shape.fields) + ")")
    if isinstance(shape, UnionShape):
        return ("(" + " | ".join(_shape_to_part(b)
                                 for _, b in shape.branches) + ")")
    raise MappingError(f"cannot invert shape {shape!r}")


def _attlist_text(mapped: MappedSchema, class_name: str) -> str:
    pieces = []
    for name in mapped.private_attributes.get(class_name, ()):
        definition = mapped.attribute_definitions[(class_name, name)]
        if definition.kind == "NAME_GROUP":
            declared = "(" + " | ".join(definition.allowed_values) + ")"
        else:
            declared = definition.kind
        if definition.has_default and definition.default_value:
            default = f'"{definition.default_value}"'
        else:
            default = definition.default_kind
        pieces.append(f"{name} {declared} {default}")
    return "\n          ".join(pieces)


# ---------------------------------------------------------------------------
# instance -> document tree
# ---------------------------------------------------------------------------


def export_document(mapped: MappedSchema, instance: Instance,
                    document: Oid,
                    id_tokens: dict | None = None) -> Element:
    """Rebuild the SGML tree of a loaded (possibly updated) document.

    ``id_tokens`` maps oid numbers to the original ID attribute tokens
    (see :attr:`DocumentLoader.id_tokens`); without it, synthetic
    ``id<N>`` tokens are emitted for cross references.
    """
    return value_to_element(mapped, instance, document, id_tokens)


def value_to_element(mapped: MappedSchema, instance: Instance,
                     oid: Oid, id_tokens: dict | None = None) -> Element:
    """Rebuild the SGML element for one object (recursively)."""
    if not isinstance(oid, Oid):
        raise MappingError(f"expected an object, got {oid!r}")
    class_name = oid.class_name
    element_name = _element_of(mapped, class_name)
    shape = mapped.shapes[class_name]
    value = instance.deref(oid)
    element = Element(element_name)
    tokens = id_tokens or {}
    for piece in shape_content(shape, value, []):
        if isinstance(piece, str):
            element.append_text(piece)
        else:
            element.append(
                value_to_element(mapped, instance, piece, tokens))
    _emit_attributes(mapped, instance, class_name, value, element,
                     tokens, oid.number)
    return element


def _emit_attributes(mapped: MappedSchema, instance: Instance,
                     class_name: str, value: object, element: Element,
                     id_tokens: dict, owner: int) -> None:
    names = mapped.private_attributes.get(class_name, ())
    if not names or not isinstance(value, TupleValue):
        return
    payload = value
    if payload.is_marked and isinstance(payload.marked_value, TupleValue):
        payload = payload.marked_value
    for name in names:
        definition = mapped.attribute_definitions[(class_name, name)]
        if not payload.has_attribute(name):
            continue
        attribute_value = payload.get(name)
        if isinstance(attribute_value, Nil):
            continue
        if definition.kind == ATT_ID:
            # the value is the database-only back-reference list; what
            # the document needs is the ID *token* of this element —
            # re-emit the original one, or a synthetic token when this
            # object is actually referenced
            token = id_tokens.get(owner)
            if token is None and isinstance(attribute_value, ListValue) \
                    and len(attribute_value):
                token = f"id{owner}"
            if token is not None:
                element.attributes[name] = token
            continue
        if definition.kind == ATT_IDREF:
            # emit the referenced element's ID token when recoverable
            token = _id_token_of(attribute_value, id_tokens)
            if token is not None:
                element.attributes[name] = token
            continue
        if definition.kind == ATT_IDREFS:
            tokens = [
                t for t in (_id_token_of(target, id_tokens)
                            for target in attribute_value)
                if t is not None]
            if tokens:
                element.attributes[name] = " ".join(tokens)
            continue
        element.attributes[name] = str(attribute_value)


def _id_token_of(target: object, id_tokens: dict) -> str | None:
    if isinstance(target, Oid):
        return id_tokens.get(target.number, f"id{target.number}")
    return None
