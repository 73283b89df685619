"""Class hierarchies, schemas and their well-formedness (Section 5.1).

A *class hierarchy* is a triple ``(C, sigma, <)``: a finite set of class
names, a mapping from class names to types, and a partial order on class
names (the inheritance order, written ``c < c'`` when ``c`` inherits from
``c'``).  A hierarchy is *well-formed* when ``c < c'`` implies
``sigma(c) <= sigma(c')``.

A *schema* is ``(C, sigma, <, M, G)``: a well-formed hierarchy plus a set of
method signatures ``M`` and named persistence roots ``G`` with their types.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.oodb import subtyping
from repro.oodb.types import (
    ClassType,
    ListType,
    SetType,
    TupleType,
    Type,
    UnionType,
    referenced_classes,
)


class MethodSignature:
    """A method signature ``name: c x t1 x ... x tn -> t``.

    Methods are carried "for the sake of completeness" (Section 5.1); the
    calculus treats them as uninterpreted function symbols whose semantics
    is supplied by the instance.
    """

    __slots__ = ("name", "receiver", "argument_types", "result_type")

    def __init__(self, name: str, receiver: str,
                 argument_types: Iterable[Type], result_type: Type) -> None:
        self.name = name
        self.receiver = receiver
        self.argument_types = tuple(argument_types)
        self.result_type = result_type

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MethodSignature)
                and (other.name, other.receiver, other.argument_types,
                     other.result_type)
                == (self.name, self.receiver, self.argument_types,
                    self.result_type))

    def __hash__(self) -> int:
        return hash((self.name, self.receiver, self.argument_types,
                     self.result_type))

    def __repr__(self) -> str:
        args = ", ".join(str(t) for t in self.argument_types)
        return (f"method {self.name}({args}) in class {self.receiver}: "
                f"{self.result_type}")


class ClassHierarchy:
    """The triple ``(C, sigma, <)`` with its derived machinery."""

    def __init__(self, sigma: Mapping[str, Type],
                 parents: Mapping[str, Iterable[str]] | None = None) -> None:
        """``sigma`` maps class names to structural types; ``parents`` maps
        each class to the classes it *directly* inherits from."""
        self._sigma: dict[str, Type] = dict(sigma)
        self._parents: dict[str, tuple[str, ...]] = {
            name: () for name in self._sigma}
        for child, direct in (parents or {}).items():
            if child not in self._sigma:
                raise SchemaError(f"unknown class in hierarchy: {child!r}")
            direct_tuple = tuple(direct)
            for parent in direct_tuple:
                if parent not in self._sigma:
                    raise SchemaError(
                        f"class {child!r} inherits from unknown class "
                        f"{parent!r}")
            self._parents[child] = direct_tuple
        self._ancestors: dict[str, frozenset[str]] = {}
        self._compute_ancestors()
        # Facts derived from the hierarchy alone, filled on first use.
        # Nothing mutates a hierarchy after construction, so they never
        # go stale; concurrent fillers build a value locally and publish
        # it with one dict assignment.  ``schema_paths`` is owned by
        # :mod:`repro.paths.schema_paths`, ``path_matches`` by
        # :mod:`repro.calculus.inference`.
        self._subclasses: dict[str, tuple[str, ...]] = {}
        self.schema_paths: dict = {}
        self.path_matches: dict = {}

    # -- order ------------------------------------------------------------

    def _compute_ancestors(self) -> None:
        visiting: set[str] = set()

        def ancestors_of(name: str) -> frozenset[str]:
            cached = self._ancestors.get(name)
            if cached is not None:
                return cached
            if name in visiting:
                raise SchemaError(
                    f"inheritance cycle through class {name!r}")
            visiting.add(name)
            acc: set[str] = set()
            for parent in self._parents[name]:
                acc.add(parent)
                acc |= ancestors_of(parent)
            visiting.discard(name)
            result = frozenset(acc)
            self._ancestors[name] = result
            return result

        for name in self._sigma:
            ancestors_of(name)

    def precedes(self, sub: str, sup: str) -> bool:
        """``sub < sup`` — ``sub`` inherits (directly or not) from ``sup``.

        Reflexive: every class precedes itself.
        """
        if sub == sup:
            return sub in self._sigma
        return sup in self._ancestors.get(sub, frozenset())

    def join_classes(self, left: str, right: str) -> str | None:
        """A least common ancestor class of ``left`` and ``right``.

        Returns ``None`` when the only common supertype is ``any``.  When
        several incomparable common ancestors exist, the one with the
        largest ancestor set (most specific) is chosen deterministically.
        """
        common = ((self._ancestors[left] | {left})
                  & (self._ancestors[right] | {right}))
        if not common:
            return None
        minimal = [name for name in common
                   if not any(other != name and self.precedes(other, name)
                              for other in common)]
        # Any minimal element is a least-ish ancestor; pick deterministically.
        return sorted(minimal)[0] if minimal else None

    # -- access -----------------------------------------------------------

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(self._sigma)

    def has_class(self, name: str) -> bool:
        return name in self._sigma

    def structure(self, name: str) -> Type:
        """``sigma(name)`` — the structural type of the class."""
        try:
            return self._sigma[name]
        except KeyError:
            raise SchemaError(f"unknown class: {name!r}") from None

    def direct_parents(self, name: str) -> tuple[str, ...]:
        return self._parents[name]

    def ancestors(self, name: str) -> frozenset[str]:
        return self._ancestors[name]

    def subclasses(self, name: str) -> tuple[str, ...]:
        """Every class ``c`` with ``c < name`` (including ``name``)."""
        found = self._subclasses.get(name)
        if found is None:
            found = tuple(c for c in self._sigma if self.precedes(c, name))
            self._subclasses[name] = found
        return found

    def __iter__(self) -> Iterator[str]:
        return iter(self._sigma)

    def __len__(self) -> int:
        return len(self._sigma)

    # -- well-formedness ----------------------------------------------------

    def check_well_formed(self) -> None:
        """Raise :class:`SchemaError` unless the hierarchy is well-formed.

        Checks that (i) every class referenced inside a structural type is
        declared, and (ii) ``c < c'`` implies ``sigma(c) <= sigma(c')``.
        """
        for name, structure in self._sigma.items():
            for referenced in referenced_classes(structure):
                if referenced not in self._sigma:
                    raise SchemaError(
                        f"class {name!r} references undeclared class "
                        f"{referenced!r}")
        for name in self._sigma:
            for parent in self._parents[name]:
                if not subtyping.is_subtype(
                        self._sigma[name], self._sigma[parent],
                        self.precedes):
                    raise SchemaError(
                        f"class {name!r} inherits from {parent!r} but "
                        f"sigma({name}) = {self._sigma[name]} is not a "
                        f"subtype of sigma({parent}) = "
                        f"{self._sigma[parent]}")

    # -- subtyping with this hierarchy's order ------------------------------

    def is_subtype(self, sub: Type, sup: Type) -> bool:
        return subtyping.is_subtype(sub, sup, self.precedes)

    def common_supertype(self, left: Type, right: Type) -> Type:
        return subtyping.common_supertype(
            left, right, self.precedes, self.join_classes)


class Schema:
    """The 5-tuple ``(C, sigma, <, M, G)`` of Section 5.1."""

    def __init__(self, hierarchy: ClassHierarchy,
                 methods: Iterable[MethodSignature] = (),
                 roots: Mapping[str, Type] | None = None,
                 check: bool = True) -> None:
        self.hierarchy = hierarchy
        self.methods = tuple(methods)
        self.roots: dict[str, Type] = dict(roots or {})
        for root_name, root_type in self.roots.items():
            for referenced in referenced_classes(root_type):
                if not hierarchy.has_class(referenced):
                    raise SchemaError(
                        f"root {root_name!r} references undeclared class "
                        f"{referenced!r}")
        if check:
            hierarchy.check_well_formed()

    # -- convenience accessors ---------------------------------------------

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.hierarchy.class_names

    def structure(self, class_name: str) -> Type:
        return self.hierarchy.structure(class_name)

    def root_type(self, root_name: str) -> Type:
        try:
            return self.roots[root_name]
        except KeyError:
            raise SchemaError(f"unknown root: {root_name!r}") from None

    def has_root(self, root_name: str) -> bool:
        return root_name in self.roots

    def method(self, name: str, receiver: str) -> MethodSignature:
        for signature in self.methods:
            if (signature.name == name
                    and self.hierarchy.precedes(receiver,
                                                signature.receiver)):
                return signature
        raise SchemaError(
            f"no method {name!r} for receiver class {receiver!r}")

    def is_subtype(self, sub: Type, sup: Type) -> bool:
        return self.hierarchy.is_subtype(sub, sup)

    def common_supertype(self, left: Type, right: Type) -> Type:
        return self.hierarchy.common_supertype(left, right)

    # -- schema navigation ---------------------------------------------------

    def attribute_carriers(self, attribute: str) -> list[Type]:
        """Every tuple/union type in the schema that carries ``attribute``.

        Used by the algebraizer to find candidate valuations of attribute
        variables (Section 5.4).
        """
        carriers: list[Type] = []
        seen: set[Type] = set()
        for class_name in self.hierarchy.class_names:
            for sub in _iter_schema_types(self.structure(class_name)):
                if sub in seen:
                    continue
                seen.add(sub)
                if isinstance(sub, TupleType) and sub.has_attribute(attribute):
                    carriers.append(sub)
                elif isinstance(sub, UnionType) and sub.has_marker(attribute):
                    carriers.append(sub)
        for root_type in self.roots.values():
            for sub in _iter_schema_types(root_type):
                if sub in seen:
                    continue
                seen.add(sub)
                if isinstance(sub, TupleType) and sub.has_attribute(attribute):
                    carriers.append(sub)
                elif isinstance(sub, UnionType) and sub.has_marker(attribute):
                    carriers.append(sub)
        return carriers


def _iter_schema_types(tp: Type) -> Iterator[Type]:
    yield tp
    if isinstance(tp, (ListType, SetType)):
        yield from _iter_schema_types(tp.element)
    elif isinstance(tp, TupleType):
        for _, field in tp.fields:
            yield from _iter_schema_types(field)
    elif isinstance(tp, UnionType):
        for _, branch in tp.branches:
            yield from _iter_schema_types(branch)


def schema_from_classes(classes: Mapping[str, Type],
                        parents: Mapping[str, Iterable[str]] | None = None,
                        roots: Mapping[str, Type] | None = None,
                        methods: Iterable[MethodSignature] = ()) -> Schema:
    """One-call construction of a checked schema."""
    return Schema(ClassHierarchy(classes, parents), methods, roots)


def resolve_class_structure(schema: Schema, tp: Type) -> Type:
    """Unfold ``tp`` one level when it is a class reference.

    ``ClassType('Article')`` resolves to ``sigma(Article)``; any other type
    is returned unchanged.  Navigation uses this when crossing the object
    boundary (dereference).
    """
    if isinstance(tp, ClassType):
        return schema.structure(tp.name)
    return tp
