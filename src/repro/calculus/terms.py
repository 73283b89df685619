"""Terms of the three-sorted calculus (Section 5.2).

* **Attribute terms** — an attribute name or an attribute variable.
* **Path terms** — sequences of components: path variables, ``.A``
  selections, ``[i]`` indexings, ``->`` dereferences, value bindings
  ``P(X)`` and set bindings ``P{X}``.
* **Data terms** — persistent-root names, constants, data variables,
  constructed tuples/lists/sets, method applications, interpreted
  function applications, and path applications ``t P``.

The paper's worked example reads, in this API::

    Knuth_Books P ·volumes[2] Q ·chapters[3] (X)

    PathApply(Name('Knuth_Books'), PathTerm([
        PathVar('P'), Sel('volumes'), Index(2),
        PathVar('Q'), Sel('chapters'), Index(3), Bind(DataVar('X'))]))
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import QueryError


class _Node:
    """Shared equality/hash for term nodes."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self)))

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


# ---------------------------------------------------------------------------
# Variables (one alphabet per sort)
# ---------------------------------------------------------------------------


class _Variable(_Node):
    """A named variable.  Variables are the keys of every binding
    environment, so the hash is computed once, at construction
    (``name`` is never reassigned); equality is :class:`_Node`'s — same
    sort, same name."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        self.name = name
        self._hash = hash((type(self).__name__, name))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # copies and unpickled variables are rebuilt through the
        # constructor: string hashes differ between processes
        return (type(self), (self.name,))

    def __str__(self) -> str:
        return self.name


class DataVar(_Variable):
    """A variable of sort **val** (written X, Y, Z in the paper)."""

    __slots__ = ()


class PathVar(_Variable):
    """A variable of sort **path** (written P, Q, R)."""

    __slots__ = ()


class AttVar(_Variable):
    """A variable of sort **att** (written A, B, C)."""

    __slots__ = ()


Variable = (DataVar, PathVar, AttVar)


# ---------------------------------------------------------------------------
# Attribute terms
# ---------------------------------------------------------------------------


class AttName(_Node):
    """A literal attribute name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name


AttTerm = (AttName, AttVar)


# ---------------------------------------------------------------------------
# Path term components
# ---------------------------------------------------------------------------


class Sel(_Node):
    """``·A`` — attribute selection by an attribute term.

    ``Sel('title')`` is sugar for ``Sel(AttName('title'))``.
    """

    def __init__(self, attribute) -> None:
        if isinstance(attribute, str):
            attribute = AttName(attribute)
        if not isinstance(attribute, AttTerm):
            raise QueryError(
                f"Sel needs an attribute term, got {attribute!r}")
        self.attribute = attribute

    def __str__(self) -> str:
        return f".{self.attribute}"


class Index(_Node):
    """``[i]`` — indexing by an integer constant or a data variable."""

    def __init__(self, index) -> None:
        if not isinstance(index, (int, DataVar)) or isinstance(index, bool):
            raise QueryError(
                f"Index needs an int or a data variable, got {index!r}")
        self.index = index

    def __str__(self) -> str:
        return f"[{self.index}]"


class Deref(_Node):
    """``->`` — dereference."""

    def __str__(self) -> str:
        return "->"


class Bind(_Node):
    """``(X)`` — bind the current value to a data variable."""

    def __init__(self, variable: DataVar) -> None:
        if not isinstance(variable, DataVar):
            raise QueryError(f"Bind needs a data variable, got {variable!r}")
        self.variable = variable

    def __str__(self) -> str:
        return f"({self.variable})"


class SetBind(_Node):
    """``{X}`` — choose an element of the current set, binding X."""

    def __init__(self, variable: DataVar) -> None:
        if not isinstance(variable, DataVar):
            raise QueryError(
                f"SetBind needs a data variable, got {variable!r}")
        self.variable = variable

    def __str__(self) -> str:
        return f"{{{self.variable}}}"


PathComponent = (PathVar, Sel, Index, Deref, Bind, SetBind)


class PathTerm(_Node):
    """A sequence of path components (concatenation flattens)."""

    def __init__(self, components: Iterable = ()) -> None:
        flat: list = []
        for component in components:
            if isinstance(component, PathTerm):
                flat.extend(component.components)
            elif isinstance(component, str):
                flat.append(Sel(component))
            elif isinstance(component, PathComponent):
                flat.append(component)
            else:
                raise QueryError(
                    f"not a path component: {component!r}")
        self.components = tuple(flat)

    def __add__(self, other: "PathTerm") -> "PathTerm":
        return PathTerm(self.components + other.components)

    def __len__(self) -> int:
        return len(self.components)

    def variables(self) -> list:
        """Every variable occurring in the term, in order."""
        found = []
        for component in self.components:
            if isinstance(component, PathVar):
                found.append(component)
            elif isinstance(component, Sel) and isinstance(
                    component.attribute, AttVar):
                found.append(component.attribute)
            elif isinstance(component, Index) and isinstance(
                    component.index, DataVar):
                found.append(component.index)
            elif isinstance(component, (Bind, SetBind)):
                found.append(component.variable)
        return found

    def __str__(self) -> str:
        return " ".join(str(component) for component in self.components)


# ---------------------------------------------------------------------------
# Data terms
# ---------------------------------------------------------------------------


class Name(_Node):
    """A persistent-root name (an element of G)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name


class Const(_Node):
    """A constant value (atomic, nil, an oid, or any model value)."""

    def __init__(self, value: object) -> None:
        self.value = value

    def __str__(self) -> str:
        return repr(self.value)


class TupleTerm(_Node):
    """``[A1: t1, ..., An: tn]`` — constructed ordered tuple."""

    def __init__(self, fields: Iterable[tuple[object, object]]) -> None:
        frozen = []
        for attribute, term in fields:
            if isinstance(attribute, str):
                attribute = AttName(attribute)
            frozen.append((attribute, term))
        self.fields = tuple(frozen)

    def __str__(self) -> str:
        inner = ", ".join(f"{a}: {t}" for a, t in self.fields)
        return f"[{inner}]"


class ListTerm(_Node):
    """``[t1, ..., tn]`` — constructed list."""

    def __init__(self, items: Iterable) -> None:
        self.items = tuple(items)

    def __str__(self) -> str:
        return "[" + ", ".join(str(t) for t in self.items) + "]"


class SetTerm(_Node):
    """``{t1, ..., tn}`` — constructed set."""

    def __init__(self, items: Iterable) -> None:
        self.items = tuple(items)

    def __str__(self) -> str:
        return "{" + ", ".join(str(t) for t in self.items) + "}"


class MethodTerm(_Node):
    """``m(t1, ..., tn)`` — method application; the first argument is the
    receiver."""

    def __init__(self, method: str, arguments: Iterable) -> None:
        self.method = method
        self.arguments = tuple(arguments)

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.arguments)
        return f"{self.method}({inner})"


class FunTerm(_Node):
    """``f(t1, ..., tn)`` — interpreted function application
    (``length``, ``name``, ``set_to_list``...)."""

    def __init__(self, function: str, arguments: Iterable) -> None:
        self.function = function
        self.arguments = tuple(arguments)

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.arguments)
        return f"{self.function}({inner})"


class PathApply(_Node):
    """``t P`` — the value reached from ``t`` by following ``P``.

    Only usable as a data term when ``P`` is ground at evaluation time;
    path predicates (:class:`~repro.calculus.formulas.PathAtom`) are the
    binding construct.
    """

    def __init__(self, root, path: PathTerm) -> None:
        self.root = root
        self.path = path if isinstance(path, PathTerm) else PathTerm(path)

    def __str__(self) -> str:
        return f"{self.root} {self.path}"


DataTerm = (Name, Const, DataVar, TupleTerm, ListTerm, SetTerm,
            MethodTerm, FunTerm, PathApply)


def term_variables(term) -> list:
    """Every variable occurring in a term, in order of appearance."""
    if isinstance(term, (DataVar, PathVar, AttVar)):
        return [term]
    if isinstance(term, (Name, Const, AttName)):
        return []
    if isinstance(term, TupleTerm):
        found = []
        for attribute, sub in term.fields:
            if isinstance(attribute, AttVar):
                found.append(attribute)
            found.extend(term_variables(sub))
        return found
    if isinstance(term, (ListTerm, SetTerm)):
        return [v for sub in term.items for v in term_variables(sub)]
    if isinstance(term, (MethodTerm, FunTerm)):
        return [v for sub in term.arguments for v in term_variables(sub)]
    if isinstance(term, PathApply):
        return term_variables(term.root) + term.path.variables()
    if isinstance(term, PathTerm):
        return term.variables()
    from repro.calculus.formulas import Query
    if isinstance(term, Query):
        return []  # a nested query is closed — it has no free variables
    raise QueryError(f"not a term: {term!r}")
