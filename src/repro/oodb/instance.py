"""Database instances — the 4-tuple ``(pi, nu, mu, gamma)`` of Section 5.1.

An :class:`Instance` of a schema holds:

* ``pi`` — the oid assignment: each class name owns a disjoint set of oids;
  the *inherited* assignment of a class is the union over its subclasses;
* ``nu`` — the value of each object;
* ``mu`` — method implementations (plain Python callables);
* ``gamma`` — the value of each persistent root.

The instance is the single runtime context every other subsystem (paths,
calculus, algebra, O2SQL) evaluates against.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from repro.errors import InstanceError
from repro.oodb.schema import Schema
from repro.oodb.typecheck import describe_value, value_in_type
from repro.oodb.values import NIL, Oid


class Instance:
    """A populated database over a :class:`~repro.oodb.schema.Schema`."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._next_oid = 1
        # pi_d: disjoint assignment - class name -> list of oids
        self._extent: dict[str, list[Oid]] = {
            name: [] for name in schema.class_names}
        # nu: oid number -> value
        self._values: dict[int, object] = {}
        # mu: (method name, class name) -> callable
        self._methods: dict[tuple[str, str], Callable] = {}
        # gamma: root name -> value
        self._roots: dict[str, object] = {}
        #: optional repro.observe MetricsRegistry; ``None`` = disabled
        self.metrics = None

    # -- object management ---------------------------------------------------

    def new_object(self, class_name: str, value: object = NIL) -> Oid:
        """Allocate a fresh oid in ``class_name`` with initial ``value``."""
        if not self.schema.hierarchy.has_class(class_name):
            raise InstanceError(f"unknown class: {class_name!r}")
        oid = Oid(self._next_oid, class_name)
        self._next_oid += 1
        self._extent[class_name].append(oid)
        self._values[oid.number] = value
        return oid

    def remove_object(self, oid: Oid) -> None:
        """Forget an object entirely (used by loader backtracking).

        The caller is responsible for ensuring no remaining value
        references the oid.  The extent is searched from its tail:
        undoing the newest allocation of a class is one step, however
        many objects the class holds.
        """
        number = oid.number
        if number not in self._values:
            raise InstanceError(f"unknown oid: {oid!r}")
        members = self._extent[oid.class_name]
        for at in range(len(members) - 1, -1, -1):
            if members[at].number == number:
                del members[at]
                del self._values[number]
                return
        raise InstanceError(f"oid {oid!r} is not in its class extent")

    def set_value(self, oid: Oid, value: object) -> None:
        """Rebind ``nu(oid)``."""
        if oid.number not in self._values:
            raise InstanceError(f"unknown oid: {oid!r}")
        self._values[oid.number] = value

    def deref(self, oid: Oid) -> object:
        """``nu(oid)`` — the value of the object."""
        if self.metrics is not None:
            self.metrics.inc("oodb.derefs")
        try:
            return self._values[oid.number]
        except KeyError:
            raise InstanceError(f"dangling oid: {oid!r}") from None

    def has_oid(self, oid: Oid) -> bool:
        return oid.number in self._values

    def extent(self, class_name: str) -> tuple[Oid, ...]:
        """``pi(class_name)`` — oids of the class *and its subclasses*."""
        members: list[Oid] = []
        for sub in self.schema.hierarchy.subclasses(class_name):
            members.extend(self._extent[sub])
        return tuple(members)

    def disjoint_extent(self, class_name: str) -> tuple[Oid, ...]:
        """``pi_d(class_name)`` — oids allocated directly in the class."""
        return tuple(self._extent[class_name])

    def all_oids(self) -> Iterator[Oid]:
        for members in self._extent.values():
            yield from members

    def oids_since(self, first: int) -> Iterator[Oid]:
        """The oids numbered ``first`` or above, in :meth:`all_oids`
        order, in time proportional to their count (plus one step per
        class) — never to the instance's size.

        Numbers only grow and every extent is appended to, so the
        objects allocated since ``first`` was the next free number sit
        at the tail of their extents; :meth:`remove_object` leaves gaps
        in the numbering but keeps that order."""
        for members in self._extent.values():
            start = len(members)
            while start and members[start - 1].number >= first:
                start -= 1
            yield from members[start:]

    def object_count(self) -> int:
        return len(self._values)

    def oid_in_class(self, oid: Oid, class_name: str) -> bool:
        """Is ``oid ∈ pi(class_name)`` (inheritance included)?"""
        return self.schema.hierarchy.precedes(oid.class_name, class_name)

    # -- methods (mu) ---------------------------------------------------------

    def define_method(self, name: str, class_name: str,
                      implementation: Callable) -> None:
        """Attach a Python callable as the body of ``name`` on
        ``class_name``.  The callable receives ``(instance, receiver_oid,
        *argument_values)``."""
        self._methods[(name, class_name)] = implementation

    def call_method(self, name: str, receiver: Oid, *arguments: object):
        """Dynamic dispatch: walk up from the receiver's allocation class."""
        class_name = receiver.class_name
        candidates = [class_name]
        candidates.extend(
            sorted(self.schema.hierarchy.ancestors(class_name),
                   key=lambda ancestor: len(
                       self.schema.hierarchy.ancestors(ancestor))))
        for candidate in candidates:
            implementation = self._methods.get((name, candidate))
            if implementation is not None:
                return implementation(self, receiver, *arguments)
        raise InstanceError(
            f"no implementation of method {name!r} for {receiver!r}")

    # -- roots (gamma) --------------------------------------------------------

    def set_root(self, name: str, value: object) -> None:
        if not self.schema.has_root(name):
            raise InstanceError(f"root {name!r} is not declared in schema")
        self._roots[name] = value

    def root(self, name: str) -> object:
        try:
            return self._roots[name]
        except KeyError:
            if self.schema.has_root(name):
                raise InstanceError(
                    f"root {name!r} declared but never set") from None
            raise InstanceError(f"unknown root: {name!r}") from None

    def has_root(self, name: str) -> bool:
        return name in self._roots

    @property
    def root_names(self) -> tuple[str, ...]:
        return tuple(self._roots)

    # -- integrity ------------------------------------------------------------

    def check(self) -> None:
        """Verify the typing conditions of Section 5.1's instance definition.

        (ii) every object's value belongs to ``dom(sigma(c))`` for its
        allocation class ``c``; (iv) every root value belongs to the
        interpretation of the root's declared type.  Dangling oids inside
        values are also rejected.
        """
        for class_name, members in self._extent.items():
            structure = self.schema.structure(class_name)
            for oid in members:
                value = self._values[oid.number]
                if isinstance(value, type(NIL)):
                    continue  # freshly allocated, not yet populated
                if not value_in_type(value, structure, self):
                    raise InstanceError(
                        f"object {oid!r}: value {describe_value(value)} "
                        f"not in dom({structure})")
                self._check_no_dangling(value, f"object {oid!r}")
        for root_name, value in self._roots.items():
            declared = self.schema.root_type(root_name)
            if not value_in_type(value, declared, self):
                raise InstanceError(
                    f"root {root_name!r}: value {describe_value(value)} "
                    f"not in dom({declared})")
            self._check_no_dangling(value, f"root {root_name!r}")

    def _check_no_dangling(self, value: object, context: str) -> None:
        from repro.oodb.values import ListValue, SetValue, TupleValue
        if isinstance(value, Oid):
            if not self.has_oid(value):
                raise InstanceError(f"{context}: dangling oid {value!r}")
        elif isinstance(value, TupleValue):
            for _, field in value.fields:
                self._check_no_dangling(field, context)
        elif isinstance(value, (ListValue, SetValue)):
            for element in value:
                self._check_no_dangling(element, context)


def populate(schema: Schema,
             objects: Mapping[str, list[object]] | None = None,
             roots: Mapping[str, object] | None = None) -> Instance:
    """Convenience builder: allocate objects per class and set roots.

    ``objects['Article'] = [v1, v2]`` allocates two Article objects with
    those values.  Returns the populated (unchecked) instance.
    """
    instance = Instance(schema)
    for class_name, values in (objects or {}).items():
        for value in values:
            instance.new_object(class_name, value)
    for root_name, value in (roots or {}).items():
        instance.set_root(root_name, value)
    return instance
