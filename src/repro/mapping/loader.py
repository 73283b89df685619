"""Load parsed documents into the database (the semantic actions of
Section 3).

:class:`DocumentLoader` owns an :class:`~repro.oodb.instance.Instance`
over a :class:`~repro.mapping.dtd_to_schema.MappedSchema` and loads any
number of documents into it, appending each to the persistence root
(``Articles`` in Figure 3).  Loading is structure-directed: the shape the
mapper recorded for each class replays the content model against the
element's actual children.

Cross references are resolved in a second pass: an ``IDREF`` attribute
becomes an object reference and the target's ``ID`` attribute becomes the
list of objects referencing it (Figure 3's ``reflabel: Object`` /
``label: list (Object)``).

``text()`` reads the loaded objects, not the source tree
(:mod:`repro.mapping.text_inverse`), so the loader keeps no reference
to it.
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
)
from repro.oodb.instance import Instance
from repro.oodb.values import ListValue, NIL, Oid, TupleValue
from repro.sgml.dtd import ATT_ID, ATT_IDREF, ATT_IDREFS, ATT_NUMBER
from repro.sgml.instance import Element, Node, Text


class DocumentLoader:
    """Loads documents into one shared instance."""

    def __init__(self, mapped: MappedSchema) -> None:
        self.mapped = mapped
        self.instance = Instance(mapped.schema)
        self.instance.set_root(mapped.root_name, ListValue())
        #: Always empty: ``text()`` is read from the database.  Kept
        #: only because the benchmark harness still reads the name.
        self.provenance: dict[int, Element] = {}
        self._ids: dict[str, Oid] = {}
        self._trail: list[Oid] = []
        self._pending_refs: list[tuple[Oid, str, str, bool]] = []

    @property
    def id_tokens(self) -> dict[int, str]:
        """oid number → the SGML ID token that named it (for the
        inverse mapping)."""
        return {oid.number: token for token, oid in self._ids.items()}

    def load(self, root: Element) -> Oid:
        """Load one document tree; returns the document object's oid and
        appends it to the persistence root."""
        expected = self.mapped.doctype_class
        actual = self.mapped.class_for(root.name)
        if actual != expected:
            raise MappingError(
                f"document element {root.name!r} maps to {actual!r}, "
                f"root expects {expected!r}")
        oid = self._load_element(root)
        self._resolve_references()
        current = self.instance.root(self.mapped.root_name)
        self.instance.set_root(
            self.mapped.root_name, current + ListValue([oid]))
        return oid

    # -- recursive element loading -----------------------------------------

    def _load_element(self, element: Element) -> Oid:
        class_name = self.mapped.class_for(element.name)
        shape = self.mapped.shape_for_class(class_name)
        oid = self.instance.new_object(class_name)
        self._trail.append(oid)
        cursor = _Children(element.children)
        if isinstance(shape, UnionShape):
            # A class-level union (e.g. Section): the chosen branch must
            # account for the element's *entire* content, so a branch
            # that matches only a prefix (a1 on an a2-shaped section) is
            # rejected and the next branch is tried.
            value = self._load_whole_union(shape, cursor, element)
        else:
            value = self._load_shape(shape, cursor, element)
        if not cursor.at_end():
            leftover = cursor.peek()
            raise MappingError(
                f"unconsumed content in <{element.name}>: {leftover!r}")
        value = self._attach_attributes(class_name, element, value, oid)
        self.instance.set_value(oid, value)
        return oid

    def _checkpoint(self) -> int:
        return len(self._trail)

    def _rollback(self, mark: int) -> None:
        """Remove objects allocated by an abandoned branch attempt —
        newest first, so each is the tail of its extent when
        :meth:`~repro.oodb.instance.Instance.remove_object` looks for
        it: an abandoned branch costs what it allocated, whatever the
        instance already holds."""
        trail = self._trail
        while len(trail) > mark:
            oid = trail.pop()
            self.instance.remove_object(oid)

    def _load_whole_union(self, shape: UnionShape, cursor: "_Children",
                          element: Element) -> TupleValue:
        for marker, branch in shape.branches:
            saved = cursor.position
            mark = self._checkpoint()
            try:
                value = self._load_shape(branch, cursor, element)
            except MappingError:
                cursor.position = saved
                self._rollback(mark)
                continue
            if cursor.at_end():
                return TupleValue([(marker, value)])
            cursor.position = saved
            self._rollback(mark)
        raise MappingError(
            f"no union branch matches the full content of "
            f"<{element.name}>")

    def _load_shape(self, shape: Shape, cursor: "_Children",
                    element: Element) -> object:
        if isinstance(shape, EmptyShape):
            return TupleValue([("data", NIL)])
        if isinstance(shape, TupleShape):
            fields = []
            for name, field_shape in shape.fields:
                fields.append(
                    (name, self._load_shape(field_shape, cursor, element)))
            return TupleValue(fields)
        if isinstance(shape, UnionShape):
            for marker, branch in shape.branches:
                saved = cursor.position
                mark = self._checkpoint()
                try:
                    value = self._load_shape(branch, cursor, element)
                except MappingError:
                    cursor.position = saved
                    self._rollback(mark)
                    continue
                return TupleValue([(marker, value)])
            raise MappingError(
                f"no union branch matches content of <{element.name}>")
        if isinstance(shape, ListShape):
            items = []
            while True:
                saved = cursor.position
                mark = self._checkpoint()
                try:
                    items.append(
                        self._load_shape(shape.element, cursor, element))
                except MappingError:
                    cursor.position = saved
                    self._rollback(mark)
                    break
            if shape.at_least_one and not items:
                raise MappingError(
                    f"expected at least one {shape.element} in "
                    f"<{element.name}>")
            return ListValue(items)
        if isinstance(shape, OptShape):
            saved = cursor.position
            mark = self._checkpoint()
            try:
                return self._load_shape(shape.child, cursor, element)
            except MappingError:
                cursor.position = saved
                self._rollback(mark)
                return NIL
        if isinstance(shape, ElemShape):
            child = cursor.peek()
            if (isinstance(child, Element)
                    and child.name == shape.element_name):
                cursor.advance()
                return self._load_element(child)
            raise MappingError(
                f"expected <{shape.element_name}> in <{element.name}>, "
                f"found {child!r}")
        if isinstance(shape, TextShape):
            if shape.single:
                child = cursor.peek()
                if isinstance(child, Text):
                    cursor.advance()
                    return child.content
                raise MappingError(
                    f"expected character data in <{element.name}>")
            pieces = []
            while isinstance(cursor.peek(), Text):
                pieces.append(cursor.advance().content)
            return " ".join(pieces) if pieces else ""
        raise MappingError(f"unknown shape {shape!r}")

    # -- attributes -----------------------------------------------------------

    def _attach_attributes(self, class_name: str, element: Element,
                           value: object, oid: Oid) -> object:
        names = self.mapped.private_attributes.get(class_name, ())
        if not names:
            return value
        fields = []
        for name in names:
            definition = self.mapped.attribute_definitions[
                (class_name, name)]
            raw = element.attributes.get(name)
            if definition.kind == ATT_ID:
                if raw is not None:
                    self._ids[raw] = oid
                fields.append((name, ListValue()))
            elif definition.kind == ATT_IDREF:
                if raw is not None:
                    self._pending_refs.append((oid, name, raw, False))
                fields.append((name, NIL))
            elif definition.kind == ATT_IDREFS:
                if raw is not None:
                    for token in raw.split():
                        self._pending_refs.append((oid, name, token, True))
                fields.append((name, ListValue()))
            elif raw is None:
                fields.append((name, NIL))
            elif definition.kind == ATT_NUMBER:
                try:
                    fields.append((name, int(raw)))
                except ValueError:
                    raise MappingError(
                        f"attribute {name!r} of <{element.name}> is not "
                        f"a number: {raw!r}") from None
            else:
                fields.append((name, raw))
        # Union-typed content: the attributes live inside the chosen
        # branch (the mapper attached them to every tuple branch).
        if (isinstance(value, TupleValue) and value.is_marked
                and isinstance(value.marked_value, TupleValue)
                and self.mapped.schema.structure(class_name).is_union()):
            branch = value.marked_value
            return TupleValue([
                (value.marker,
                 TupleValue(list(branch.fields) + fields))])
        if isinstance(value, TupleValue):
            return TupleValue(list(value.fields) + fields)
        raise MappingError(
            f"cannot attach attributes to value of class {class_name!r}")

    def _resolve_references(self) -> None:
        for oid, field, reference, multi in self._pending_refs:
            target = self._ids.get(reference)
            if target is None:
                raise MappingError(
                    f"IDREF {reference!r} matches no ID in the corpus")
            value = self.instance.deref(oid)
            if not isinstance(value, TupleValue):
                raise MappingError(
                    f"object {oid!r} has no attribute {field!r}")
            if multi:
                existing = value.get(field)
                updated = value.replace(
                    field, existing + ListValue([target]))
            else:
                updated = value.replace(field, target)
            self.instance.set_value(oid, updated)
            # Inverse reference: append to the target's ID list attribute.
            self._append_backreference(target, oid)
        self._pending_refs.clear()

    def _append_backreference(self, target: Oid, source: Oid) -> None:
        target_class = target.class_name
        names = self.mapped.private_attributes.get(target_class, ())
        for name in names:
            definition = self.mapped.attribute_definitions.get(
                (target_class, name))
            if definition is not None and definition.kind == ATT_ID:
                value = self.instance.deref(target)
                existing = value.get(name)
                self.instance.set_value(
                    target, value.replace(
                        name, existing + ListValue([source])))
                return


class _Children:
    """A cursor over an element's children, skipping nothing."""

    __slots__ = ("nodes", "position")

    def __init__(self, nodes: list[Node]) -> None:
        self.nodes = nodes
        self.position = 0

    def peek(self) -> Node | None:
        if self.position < len(self.nodes):
            return self.nodes[self.position]
        return None

    def advance(self) -> Node:
        node = self.nodes[self.position]
        self.position += 1
        return node

    def at_end(self) -> bool:
        return self.position >= len(self.nodes)


def load_document(mapped: MappedSchema, root: Element) -> DocumentLoader:
    """One-call convenience: a fresh loader with one document loaded."""
    loader = DocumentLoader(mapped)
    loader.load(root)
    return loader
