"""The system-supplied ``text()`` operator (Section 4.2 / [ref 5]).

Q2 evaluates ``contains`` "not over individual data objects but over
complex logical objects"; ``text()`` performs the inverse mapping from a
logical object (or any value) back to the corresponding portion of text.

The text is read from the database, by one rule:

* an object of a class the DTD mapping created is walked by its class's
  loading shape (:func:`repro.mapping.shapes.shape_content`, the walk
  the export takes too).  Only content is text — attribute values and
  IDREF targets are not — in document order: character data and the
  text of child elements glue, and the texts of two adjacent child
  elements are separated by one space (a tag boundary between two
  elements is a word boundary);
* any other value is walked generically: every string, in order, joined
  by one space, an object dereferenced at most once (so cyclic
  references terminate) and a mapped object inside giving its text by
  the first rule.

The text depends on nothing but the database, so a fresh, a reloaded
and an edited store agree.  :func:`document_layout` returns a
document's text together with the region of every object in it, from
the same walk.
"""

from __future__ import annotations

from repro.mapping.shapes import shape_content
from repro.oodb.values import ListValue, Oid, SetValue, TupleValue


def text_of(value: object, instance=None) -> str:
    """The textual content of a value/logical object; ``instance``
    dereferences the objects met (without one they have no text)."""
    pieces: list[str] = []
    _Walk(instance).collect(value, pieces)
    return " ".join(filter(None, pieces))


def document_layout(document: Oid, instance) -> tuple[str, list[list]]:
    """``document``'s text and where each object's text lies in it: one
    ``[oid, parent, start, end]`` entry per object the walk reaches,
    ``document`` first, in document order, ``parent`` the position of
    the parent's entry (``-1`` for ``document``) and ``text[start:end]``
    the object's own :func:`text_of`.  One walk, by the rule of
    ``text()``.  Where content is not a tree, an object whose walk meets
    an object reached before (a shared or cyclic reference, which its
    own ``text()`` would walk) gets an empty region instead: its text
    is not a slice of the document's."""
    walk = _Walk(instance)
    walk.layout = layout = [[document, -1, 0, 0]]
    walk.visited.add(document.number)
    text = walk.object_text(document, 0)
    layout[0][3] = len(text)
    for entry in layout[1:]:  # a parent's entry precedes its children's
        start = layout[entry[1]][2]
        entry[2] += start
        entry[3] += start
    for position in walk.cut:
        layout[position][3] = layout[position][2]
    return text, layout


class _Walk:
    """One ``text()`` walk: the instance, its schema's loading shapes,
    the objects met so far and, for :func:`document_layout`, the
    layout being filled and the positions of its entries whose walk
    skipped an object met before."""

    __slots__ = ("instance", "shapes", "visited", "layout", "cut")

    def __init__(self, instance) -> None:
        self.instance = instance
        self.shapes = {} if instance is None else instance.schema.shapes
        self.visited: set[int] = set()
        self.layout: list[list] | None = None
        self.cut: set[int] = set()

    def object_text(self, oid: Oid, position: int = 0) -> str:
        """The text of a mapped object: its content's segments — a new
        one starts between two adjacent child elements — joined by one
        space.  With a layout, where ``oid``'s own entry is at
        ``position``, each child object appends its entry, offsets
        relative to ``oid``'s text."""
        layout = self.layout
        segments = []
        current = ""
        joined = 0  # the length of the non-empty segments joined so far
        after_element = False
        for piece in shape_content(self.shapes[oid.class_name],
                                   self.instance.deref(oid), []):
            if isinstance(piece, str):
                current += piece
                after_element = False
                continue
            if piece.number in self.visited:
                # the object and those around it lack this piece's text
                at = position if layout is not None else -1
                while at >= 0 and at not in self.cut:
                    self.cut.add(at)
                    at = layout[at][1]
                continue
            self.visited.add(piece.number)
            if after_element:
                segments.append(current)
                if current:
                    joined += len(current) + 1 if joined else len(current)
                current = ""
            if layout is None:
                child_text = self.object_text(piece)
            else:
                entry = [piece, position, 0, 0]
                layout.append(entry)
                child_text = self.object_text(piece, len(layout) - 1)
                # a non-empty child text makes its segment non-empty, so
                # one space separates it from the segments before
                entry[2] = (joined + 1 if joined else 0) + len(current)
                entry[3] = entry[2] + len(child_text)
            current += child_text
            after_element = True
        if not segments:
            return current
        segments.append(current)
        return " ".join(filter(None, segments))

    def collect(self, value: object, pieces: list[str]) -> None:
        """The generic walk: every string of ``value``, in order, a
        mapped object's text as one piece."""
        if isinstance(value, str):
            pieces.append(value)
        elif isinstance(value, Oid):
            if self.instance is None or value.number in self.visited:
                return
            self.visited.add(value.number)
            if value.class_name in self.shapes:
                pieces.append(self.object_text(value))
            else:
                self.collect(self.instance.deref(value), pieces)
        elif isinstance(value, TupleValue):
            for _, field in value.fields:
                self.collect(field, pieces)
        elif isinstance(value, (ListValue, SetValue)):
            for element in value:
                self.collect(element, pieces)
