"""The system-supplied ``text()`` operator (Section 4.2 / [ref 5]).

Q2 evaluates ``contains`` "not over individual data objects but over
complex logical objects"; ``text()`` performs the inverse mapping from a
logical object (or any value) back to the corresponding portion of text.

Two strategies are available:

* **provenance** — when the value is an object the loader created, the
  character data of its source SGML subtree is returned in document
  order, the data of adjacent child elements separated by one space
  (a tag boundary between two elements is a word boundary; text and
  entity siblings inside one element stay glued);
* **structural** — otherwise the value tree is walked, concatenating
  every string encountered (dereferencing objects, at most once each, so
  cyclic cross references terminate).
"""

from __future__ import annotations

from repro.oodb.values import ListValue, Nil, Oid, SetValue, TupleValue
from repro.sgml.instance import Element


def text_of(value: object, instance=None, provenance=None) -> str:
    """The textual content of a value/logical object.

    ``provenance`` is the loader's ``oid number -> source Element`` map;
    when it covers the value, the original document text is returned.
    """
    if provenance is not None and isinstance(value, Oid):
        # single atomic lookup: update_text clears the provenance map
        # concurrently with readers, so a membership test followed by a
        # subscript could land on either side of the clear
        element = provenance.get(value.number)
        if element is not None:
            return _source_text(element)
    pieces: list[str] = []
    _collect(value, instance, set(), pieces)
    return " ".join(piece for piece in pieces if piece)


def _source_text(element: Element) -> str:
    """The element's character data; a new segment starts between two
    adjacent child elements, and segments are joined by one space."""
    segments = []
    current = ""
    after_element = False
    for child in element.children:
        if isinstance(child, Element):
            if after_element:
                segments.append(current)
                current = ""
            current += _source_text(child)
            after_element = True
        else:
            current += child.content
            after_element = False
    if not segments:
        return current
    segments.append(current)
    return " ".join(filter(None, segments))


def _collect(value: object, instance, visited: set[int],
             pieces: list[str]) -> None:
    if isinstance(value, str):
        pieces.append(value)
    elif isinstance(value, (int, float, bool, Nil)):
        return
    elif isinstance(value, Oid):
        if instance is None or value.number in visited:
            return
        visited.add(value.number)
        _collect(instance.deref(value), instance, visited, pieces)
    elif isinstance(value, TupleValue):
        for _, field in value.fields:
            _collect(field, instance, visited, pieces)
    elif isinstance(value, (ListValue, SetValue)):
        for element in value:
            _collect(element, instance, visited, pieces)
