"""Concrete paths (Section 5.2).

A concrete path is a sequence of steps:

1. ``.a`` — attribute selection (tuples and marked unions),
2. ``[i]`` — list indexing (and, via the heterogeneous-list view of
   Section 5.1, positional access into ordered tuples),
3. ``->`` — dereferencing an object,
4. ``{v}`` — selecting the element ``v`` of a set.

:class:`Path` is an immutable, hashable value — the interpretation domain
of the new PATH sort.  Path values support the list functions the paper
gives them (Section 4.3 item 4): ``length``, projection, concatenation.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import EvaluationError
from repro.oodb.values import (
    UNSELECTED,
    ListValue,
    Oid,
    SetValue,
    TupleValue,
)


class Step:
    """Base class of concrete path steps."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__,
                     tuple(sorted(self.__dict__.items(),
                                  key=lambda kv: kv[0]))))

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


class AttrStep(Step):
    """``.a`` — select attribute ``a``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return f".{self.name}"


class IndexStep(Step):
    """``[i]`` — select the i-th element of a list (or tuple field)."""

    def __init__(self, index: int) -> None:
        self.index = index

    def __str__(self) -> str:
        return f"[{self.index}]"


class DerefStep(Step):
    """``->`` — cross the object boundary."""

    def __str__(self) -> str:
        return "->"


#: The canonical dereference step (all DerefSteps are equal anyway).
DEREF = DerefStep()


class ElemStep(Step):
    """``{v}`` — select element ``v`` of a set."""

    def __init__(self, value: object) -> None:
        self.value = value

    def __hash__(self) -> int:
        return hash(("elem", self.value))

    def __str__(self) -> str:
        return f"{{{self.value!r}}}"


class Path:
    """An immutable sequence of concrete steps.

    ``str(path)`` renders the paper's notation, e.g.
    ``.sections[0].subsectns[0]``.
    """

    __slots__ = ("steps",)

    EMPTY: "Path"

    def __init__(self, steps: Iterable[Step] = ()) -> None:
        frozen = tuple(steps)
        for step in frozen:
            if not isinstance(step, Step):
                raise EvaluationError(
                    f"path step must be a Step, got {step!r}")
        object.__setattr__(self, "steps", frozen)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Path is immutable")

    # -- construction ---------------------------------------------------------

    @classmethod
    def of(cls, *parts: object) -> "Path":
        """Build a path from a friendly mixed notation.

        Strings become attribute steps, integers index steps, ``...``
        (the Ellipsis) a dereference, and Step objects pass through::

            Path.of('sections', 0, 'subsectns', 0)
        """
        steps: list[Step] = []
        for part in parts:
            if isinstance(part, Step):
                steps.append(part)
            elif isinstance(part, str):
                steps.append(AttrStep(part))
            elif isinstance(part, bool):
                raise EvaluationError("booleans are not path steps")
            elif isinstance(part, int):
                steps.append(IndexStep(part))
            elif part is Ellipsis:
                steps.append(DEREF)
            else:
                raise EvaluationError(
                    f"cannot interpret {part!r} as a path step")
        return cls(steps)

    @classmethod
    def _unsafe(cls, steps: tuple) -> "Path":
        """Wrap an already-validated step tuple without re-checking it.

        Hot-path constructor for callers whose steps are already
        Steps (the structural index builds a scanned row's path from
        the steps its block recorded); public construction goes
        through ``__init__``, which validates.
        """
        path = cls.__new__(cls)
        object.__setattr__(path, "steps", steps)
        return path

    def extended(self, step: Step) -> "Path":
        return Path(self.steps + (step,))

    def __add__(self, other: "Path") -> "Path":
        if not isinstance(other, Path):
            return NotImplemented
        return Path(self.steps + other.steps)

    # -- list behaviour -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, index: Any) -> Any:
        """Standard Python indexing/slicing (0-based, end-exclusive).

        The paper's *inclusive* projection ``P[0:1] = .sections[0]`` is
        provided by :func:`repro.paths.pathops.path_project`, which is
        what the query languages expose.
        """
        if isinstance(index, slice):
            return Path(self.steps[index])
        return self.steps[index]

    def startswith(self, prefix: "Path") -> bool:
        return self.steps[:len(prefix.steps)] == prefix.steps

    def endswith(self, suffix: "Path") -> bool:
        if not suffix.steps:
            return True
        return self.steps[-len(suffix.steps):] == suffix.steps

    # -- equality -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and other.steps == self.steps

    def __hash__(self) -> int:
        return hash(("path", self.steps))

    def __str__(self) -> str:
        if not self.steps:
            return "ε"
        return "".join(str(step) for step in self.steps)

    def __repr__(self) -> str:
        return f"Path({self})"

    # -- application ----------------------------------------------------------

    def apply(self, value: object,
              instance: Any = None) -> object:
        """Follow the path from ``value``; raise on a step that does not
        apply.  ``instance`` is needed when the path dereferences.

        Attribute steps on a *marked* one-field tuple transparently skip
        the marker when the payload carries the attribute (the implicit
        selectors of Section 4.2); index steps on ordered tuples use the
        heterogeneous-list view of Section 5.1.
        """
        current = value
        for position, step in enumerate(self.steps):
            current = apply_step(current, step, instance,
                                 context=self._context(position))
        return current

    def _context(self, position: int) -> str:
        return f"step {position} of {self}"


Path.EMPTY = Path()


def apply_step(current: object, step: Step,
               instance: Any = None,
               context: str = "") -> object:
    """Apply one concrete step to a value."""
    suffix = f" ({context})" if context else ""
    if isinstance(step, AttrStep):
        if isinstance(current, TupleValue):
            # with the implicit selector of a marked-union value
            selected = current.select(step.name)
            if selected is not UNSELECTED:
                return selected
            raise EvaluationError(
                f"no attribute {step.name!r} in tuple "
                f"[{', '.join(current.attribute_names)}]{suffix}")
        raise EvaluationError(
            f"attribute step {step} on non-tuple "
            f"{type(current).__name__}{suffix}")
    if isinstance(step, IndexStep):
        if isinstance(current, ListValue):
            if 0 <= step.index < len(current):
                return current[step.index]
            raise EvaluationError(
                f"index {step.index} out of range "
                f"(length {len(current)}){suffix}")
        if isinstance(current, TupleValue):
            # Ordered tuple as heterogeneous list (Section 5.1).
            het = current.as_heterogeneous_list()
            if 0 <= step.index < len(het):
                return het[step.index]
            raise EvaluationError(
                f"index {step.index} out of range for tuple of "
                f"{len(het)} fields{suffix}")
        raise EvaluationError(
            f"index step {step} on {type(current).__name__}{suffix}")
    if isinstance(step, DerefStep):
        if isinstance(current, Oid):
            if instance is None:
                raise EvaluationError(
                    f"dereference needs a database instance{suffix}")
            return instance.deref(current)
        raise EvaluationError(
            f"dereference on non-object {type(current).__name__}{suffix}")
    if isinstance(step, ElemStep):
        if isinstance(current, SetValue):
            if step.value in current:
                return step.value
            raise EvaluationError(
                f"value {step.value!r} not in set{suffix}")
        raise EvaluationError(
            f"set-element step on {type(current).__name__}{suffix}")
    raise EvaluationError(f"unknown step {step!r}{suffix}")
