"""Compile a DTD into an O₂-style schema (Section 3 / Figure 3).

The mapping rules, as presented in the paper:

* each element declaration becomes a class (``article`` → ``Article``);
* #PCDATA elements inherit from a ``Text`` base class, EMPTY elements
  (external data) from ``Bitmap``;
* sequence connectors become **ordered tuples**; components qualified
  with ``+``/``*`` become lists (with pluralised field names), ``?``
  components may be nil;
* the choice connector becomes a **marked union**; alternatives that are
  bare elements are marked by the element name (``Body``), unnamed
  alternatives get system-supplied markers ``a1, a2, ...`` (``Section``);
* the ``&`` connector expands into a union over the orderings of its
  parts — exactly the ``Letters`` typing of Section 5.3;
* attributes become *private* tuple fields: enumerations map to strings
  with ``in set(...)`` constraints, ``ID`` to the list of referencing
  objects, ``IDREF`` to an object reference, ``NUMBER`` to integer;
* occurrence indicators and required attributes that the type system
  cannot capture become constraints (``!= nil``, ``!= list()``).
"""

from __future__ import annotations

import itertools

from repro.errors import MappingError
from repro.oodb.constraints import (
    Constraint,
    ConstraintSet,
    Disjunction,
    NotEmpty,
    NotNil,
    OneOf,
)
from repro.oodb.schema import ClassHierarchy, Schema
from repro.oodb.types import (
    ANY,
    INTEGER,
    ListType,
    STRING,
    TupleType,
    Type,
    UnionType,
    c,
    list_of,
)
from repro.mapping.naming import (
    BITMAP_CLASS,
    MarkerSupply,
    TEXT_CLASS,
    TEXT_FIELD,
    class_name_for,
    plural_field_name,
)
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
from repro.sgml.contentmodel import (
    AndGroup,
    AnyContent,
    Choice,
    ContentModel,
    ElementRef,
    Empty,
    Opt,
    PCData,
    Plus,
    Seq,
    Star,
)
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
    Dtd,
)

#: Cap on the ``&``-connector permutation expansion at the type level.
MAX_ORDERINGS = 24


class MappedSchema:
    """The result of :func:`map_dtd` — everything the loader and the
    query engine need."""

    def __init__(self, schema: Schema, constraints: ConstraintSet,
                 shapes: dict[str, Shape],
                 element_class: dict[str, str],
                 private_attributes: dict[str, tuple[str, ...]],
                 attribute_definitions: dict[tuple[str, str], AttDef],
                 root_name: str, doctype_class: str) -> None:
        self.schema = schema
        self.constraints = constraints
        self.shapes = shapes
        self.element_class = element_class
        self.private_attributes = private_attributes
        self.attribute_definitions = attribute_definitions
        self.root_name = root_name
        self.doctype_class = doctype_class

    def class_for(self, element_name: str) -> str:
        try:
            return self.element_class[element_name]
        except KeyError:
            raise MappingError(
                f"element {element_name!r} has no mapped class") from None

    def shape_for_class(self, class_name: str) -> Shape:
        return self.shapes[class_name]

    def is_private(self, class_name: str, attribute: str) -> bool:
        return attribute in self.private_attributes.get(class_name, ())


def map_dtd(dtd: Dtd) -> MappedSchema:
    """Compile ``dtd`` into a :class:`MappedSchema`."""
    if not dtd.elements:
        raise MappingError("cannot map an empty DTD")
    builder = _Builder(dtd)
    return builder.build()


class _Builder:
    def __init__(self, dtd: Dtd) -> None:
        self.dtd = dtd
        self.classes: dict[str, Type] = {
            TEXT_CLASS: TupleType([(TEXT_FIELD, STRING)]),
            BITMAP_CLASS: TupleType([("data", STRING)]),
        }
        self.parents: dict[str, list[str]] = {}
        self.constraints = ConstraintSet()
        self.shapes: dict[str, Shape] = {}
        self.element_class: dict[str, str] = {}
        self.private_attributes: dict[str, tuple[str, ...]] = {}
        self.attribute_definitions: dict[tuple[str, str], AttDef] = {}

    def build(self) -> MappedSchema:
        for element_name in self.dtd.element_names:
            self._map_element(element_name)
        doctype = self.dtd.doctype or next(iter(self.dtd.element_names))
        doctype_class = self.element_class[doctype]
        root_name = class_name_for(plural_field_name(doctype))
        roots = {root_name: list_of(c(doctype_class))}
        schema = Schema(ClassHierarchy(self.classes, self.parents),
                        roots=roots)
        schema.shapes = self.shapes
        return MappedSchema(
            schema, self.constraints, self.shapes, self.element_class,
            self.private_attributes, self.attribute_definitions,
            root_name, doctype_class)

    # -- per element ---------------------------------------------------------

    def _map_element(self, element_name: str) -> None:
        declaration = self.dtd.element(element_name)
        class_name = class_name_for(element_name)
        if class_name in self.classes:
            raise MappingError(
                f"class name collision on {class_name!r}")
        self.element_class[element_name] = class_name
        supply = MarkerSupply()
        model = declaration.model

        if isinstance(model, PCData):
            content_type: Type = TupleType([(TEXT_FIELD, STRING)])
            shape: Shape = TupleShape([(TEXT_FIELD, TextShape())])
            content_constraints: list[Constraint] = []
            self.parents[class_name] = [TEXT_CLASS]
        elif isinstance(model, Empty):
            content_type = TupleType([("data", STRING)])
            shape = EmptyShape()
            content_constraints = []
            self.parents[class_name] = [BITMAP_CLASS]
        elif isinstance(model, AnyContent):
            # ANY content: a list of arbitrary objects or text chunks.
            content_type = ListType(
                UnionType([(TEXT_FIELD, STRING), ("element", ANY)]))
            shape = ListShape(UnionShape(
                [(TEXT_FIELD, TextShape(single=True))]
                + [(name, ElemShape(name))
                   for name in self.dtd.element_names]))
            content_constraints = []
        else:
            content_type, shape, content_constraints = self._map_model(
                model, supply, top_level=True)

        content_type, shape = self._append_attributes(
            element_name, class_name, content_type, shape)
        self.classes[class_name] = content_type
        self.shapes[class_name] = shape
        for constraint in content_constraints:
            self.constraints.add(class_name, constraint)
        self._attribute_constraints(element_name, class_name)

    # -- content models -------------------------------------------------------

    def _map_model(self, model: ContentModel, supply: MarkerSupply,
                   top_level: bool = False
                   ) -> tuple[Type, Shape, list[Constraint]]:
        """Map a content model to (type, shape, class-level constraints)."""
        if isinstance(model, (Seq, AndGroup)):
            return self._map_sequence(model, supply)
        if isinstance(model, Choice):
            return self._map_choice(model, supply)
        if isinstance(model, (ElementRef, PCData, Opt, Plus, Star)):
            # A model that is a single component: wrap in a 1-field tuple
            # so the class still has named structure.
            name, field_type, field_shape, constraints = (
                self._map_component(model, supply))
            return (TupleType([(name, field_type)]),
                    TupleShape([(name, field_shape)]),
                    constraints)
        raise MappingError(f"cannot map content model {model}")

    def _map_sequence(self, model: ContentModel, supply: MarkerSupply
                      ) -> tuple[Type, Shape, list[Constraint]]:
        """Map a Seq/AndGroup; ``&`` parts expand into orderings."""
        orderings = self._orderings(model)
        if len(orderings) == 1:
            return self._map_fixed_sequence(orderings[0], supply)
        # Union over the orderings (the Letters typing of Section 5.3).
        branch_results = []
        for ordering in orderings:
            branch_results.append(
                self._map_fixed_sequence(ordering, supply.__class__()))
        branches: list[tuple[str, Type]] = []
        shape_branches: list[tuple[str, Shape]] = []
        alternatives: list[list[Constraint]] = []
        marker_supply = MarkerSupply()
        for branch_type, branch_shape, branch_constraints in branch_results:
            marker = marker_supply.fresh()
            branches.append((marker, branch_type))
            shape_branches.append((marker, branch_shape))
            alternatives.append(
                [_prefix_constraint(constraint, marker)
                 for constraint in branch_constraints])
        union = UnionType(branches)
        shape = UnionShape(shape_branches)
        constraints: list[Constraint] = []
        if any(alternatives) and all(
                alternative for alternative in alternatives):
            constraints.append(Disjunction(*alternatives))
        return union, shape, constraints

    def _orderings(self, model: ContentModel) -> list[tuple]:
        """All component orderings once ``&`` groups are permuted."""
        if isinstance(model, Seq):
            parts = model.parts
        elif isinstance(model, AndGroup):
            parts = (model,)
        else:
            parts = (model,)
        per_part: list[list[tuple]] = []
        for part in parts:
            if isinstance(part, AndGroup):
                per_part.append(
                    [perm for perm in itertools.permutations(part.parts)])
            else:
                per_part.append([(part,)])
        orderings = []
        for combination in itertools.product(*per_part):
            flat: list[ContentModel] = []
            for chunk in combination:
                flat.extend(chunk)
            orderings.append(tuple(flat))
            if len(orderings) > MAX_ORDERINGS:
                raise MappingError(
                    "too many '&' orderings to expand "
                    f"(more than {MAX_ORDERINGS})")
        return orderings

    def _map_fixed_sequence(self, parts: tuple, supply: MarkerSupply
                            ) -> tuple[TupleType, TupleShape,
                                       list[Constraint]]:
        fields: list[tuple[str, Type]] = []
        shape_fields: list[tuple[str, Shape]] = []
        constraints: list[Constraint] = []
        used: set[str] = set()
        for part in parts:
            name, field_type, field_shape, field_constraints = (
                self._map_component(part, supply))
            base = name
            bump = 2
            while name in used:
                name = f"{base}{bump}"
                bump += 1
            used.add(name)
            fields.append((name, field_type))
            shape_fields.append((name, field_shape))
            constraints.extend(
                _retarget_constraint(constraint, name)
                for constraint in field_constraints)
        return TupleType(fields), TupleShape(shape_fields), constraints

    def _map_choice(self, model: Choice, supply: MarkerSupply
                    ) -> tuple[UnionType, UnionShape, list[Constraint]]:
        named = all(isinstance(part, (ElementRef, PCData))
                    for part in model.parts)
        branches: list[tuple[str, Type]] = []
        shape_branches: list[tuple[str, Shape]] = []
        alternatives: list[list[Constraint]] = []
        for part in model.parts:
            if named and isinstance(part, PCData):
                # Mixed content: the text alternative of the union.
                marker = TEXT_FIELD
                branch_type: Type = STRING
                branch_shape: Shape = TextShape(single=True)
                branch_constraints: list[Constraint] = []
            elif named:
                marker = part.name
                branch_type = c(class_name_for(part.name))
                branch_shape = ElemShape(part.name)
                branch_constraints = [NotNil(marker)]
            else:
                marker = supply.fresh()
                branch_type, branch_shape, inner = self._map_model(
                    part, supply)
                branch_constraints = [
                    _prefix_constraint(constraint, marker)
                    for constraint in inner]
            branches.append((marker, branch_type))
            shape_branches.append((marker, branch_shape))
            alternatives.append(branch_constraints)
        constraints: list[Constraint] = []
        if all(alternatives):
            constraints.append(Disjunction(*alternatives))
        return (UnionType(branches), UnionShape(shape_branches),
                constraints)

    def _map_component(self, part: ContentModel, supply: MarkerSupply
                       ) -> tuple[str, Type, Shape, list[Constraint]]:
        """One component of a sequence → (field name, type, shape,
        constraints on that field)."""
        if isinstance(part, ElementRef):
            return (part.name, c(class_name_for(part.name)),
                    ElemShape(part.name), [NotNil(part.name)])
        if isinstance(part, PCData):
            return TEXT_FIELD, STRING, TextShape(), []
        if isinstance(part, Opt):
            name, field_type, field_shape, __ = self._map_component(
                part.child, supply)
            return name, field_type, OptShape(field_shape), []
        if isinstance(part, (Plus, Star)):
            name, element_type, element_shape, __ = self._map_component(
                part.child, supply)
            if isinstance(part.child, ElementRef):
                plural = plural_field_name(part.child.name)
            elif (isinstance(part.child, Choice)
                  and any(isinstance(p, PCData)
                          for p in part.child.parts)):
                plural = plural_field_name(TEXT_FIELD)  # mixed content
            else:
                plural = plural_field_name(name)
            at_least_one = isinstance(part, Plus)
            constraints = [NotEmpty(plural)] if at_least_one else []
            return (plural, ListType(element_type),
                    ListShape(element_shape, at_least_one), constraints)
        if isinstance(part, (Choice, Seq, AndGroup)):
            name = supply.fresh()
            group_type, group_shape, inner = self._map_model(part, supply)
            constraints = [
                _prefix_constraint(constraint, name)
                for constraint in inner]
            constraints.append(NotNil(name))
            return name, group_type, group_shape, constraints
        raise MappingError(f"cannot map component {part}")

    # -- attributes -----------------------------------------------------------

    def _append_attributes(self, element_name: str, class_name: str,
                           content_type: Type, shape: Shape
                           ) -> tuple[Type, Shape]:
        attlist = self.dtd.attlist(element_name)
        if attlist is None or not len(attlist):
            self.private_attributes[class_name] = ()
            return content_type, shape
        names = []
        extra_fields: list[tuple[str, Type]] = []
        for definition in attlist:
            names.append(definition.name)
            extra_fields.append(
                (definition.name, _attribute_type(definition)))
            self.attribute_definitions[(class_name, definition.name)] = (
                definition)
        self.private_attributes[class_name] = tuple(names)
        if isinstance(content_type, TupleType):
            merged = TupleType(list(content_type.fields) + extra_fields)
            return merged, shape
        if isinstance(content_type, UnionType):
            # Attributes of a union-typed element attach to every branch
            # that is a tuple; non-tuple branches keep the attributes in a
            # wrapper.  (Rare; Figure 3 has no such case.)
            new_branches = []
            for marker, branch in content_type.branches:
                if isinstance(branch, TupleType):
                    new_branches.append(
                        (marker,
                         TupleType(list(branch.fields) + extra_fields)))
                else:
                    new_branches.append((marker, branch))
            return UnionType(new_branches), shape
        raise MappingError(
            f"cannot attach attributes to {content_type}")

    def _attribute_constraints(self, element_name: str,
                               class_name: str) -> None:
        attlist = self.dtd.attlist(element_name)
        if attlist is None:
            return
        union_typed = isinstance(self.classes[class_name], UnionType)
        for definition in attlist:
            if union_typed:
                continue  # attribute paths differ per branch; skip
            if definition.kind == ATT_NAME_GROUP:
                allowed: list[object] = list(definition.allowed_values)
                if not definition.required and not definition.has_default:
                    from repro.oodb.values import NIL
                    allowed.append(NIL)
                self.constraints.add(
                    class_name, OneOf([definition.name], allowed))
            elif definition.required:
                self.constraints.add(
                    class_name, NotNil(definition.name))


def _attribute_type(definition: AttDef) -> Type:
    if definition.kind == ATT_NUMBER:
        return INTEGER
    if definition.kind == ATT_ID:
        return list_of(ANY)     # Figure 3: label: list (Object)
    if definition.kind == ATT_IDREF:
        return ANY              # Figure 3: reflabel: Object
    if definition.kind == ATT_IDREFS:
        return list_of(ANY)
    if definition.kind in (ATT_CDATA, ATT_NMTOKEN, ATT_NMTOKENS,
                           ATT_ENTITY, ATT_NAME_GROUP):
        return STRING
    raise MappingError(f"unmappable attribute kind {definition.kind!r}")


def _prefix_constraint(constraint: Constraint, marker: str) -> Constraint:
    """Re-root a constraint under a union marker (Figure 3's
    ``a1.title != nil`` style)."""
    if isinstance(constraint, NotNil):
        return NotNil(marker, *constraint.path)
    if isinstance(constraint, NotEmpty):
        return NotEmpty(marker, *constraint.path)
    if isinstance(constraint, OneOf):
        return OneOf((marker,) + constraint.path, constraint.allowed)
    if isinstance(constraint, Disjunction):
        return Disjunction(*[
            [_prefix_constraint(inner, marker) for inner in alternative]
            for alternative in constraint.alternatives])
    raise MappingError(f"cannot prefix constraint {constraint!r}")


def _retarget_constraint(constraint: Constraint, name: str) -> Constraint:
    """Point a component constraint at its final field name (handles the
    renaming done for duplicate field names)."""
    if isinstance(constraint, NotNil) and constraint.path:
        return NotNil(name, *constraint.path[1:])
    if isinstance(constraint, NotEmpty) and constraint.path:
        return NotEmpty(name, *constraint.path[1:])
    if isinstance(constraint, OneOf) and constraint.path:
        return OneOf((name,) + tuple(constraint.path[1:]),
                     constraint.allowed)
    if isinstance(constraint, Disjunction):
        return constraint
    return constraint
