"""P5 — the union-type "combinatorial explosion" (Sections 4.2, 5.3):
the type inferred for a path variable grows with the schema until the
paper's guard stops it, and wide unions merge marker by marker."""

import pytest

from repro.calculus import (
    Bind,
    DataVar,
    Exists,
    Name,
    PathAtom,
    PathTerm,
    PathVar,
    Query,
    Sel,
    infer_types,
)
from repro.calculus.inference import MAX_UNION_WIDTH
from repro.errors import QueryTypeError, SubtypingError
from repro.oodb import (
    INTEGER,
    STRING,
    merge_unions,
    schema_from_classes,
    tuple_of,
    union_of,
)
from repro.oodb.types import UnionType

X = DataVar("X")
P = PathVar("P")
QUERY = Query([X], Exists([P], PathAtom(
    Name("Root"), PathTerm([P, Bind(X), Sel("v")]))))


def wide_schema(width: int):
    """A root nesting ``width`` distinct tuple shapes, all carrying a
    ``v`` attribute — every one a candidate type for X."""
    fields = [(f"part{i}", tuple_of((f"pad{i}", INTEGER), ("v", STRING)))
              for i in range(width)]
    return schema_from_classes({}, roots={"Root": tuple_of(*fields)})


@pytest.mark.parametrize("width", [4, 16, 48])
def test_p5_inference_width(width):
    inferred = infer_types(QUERY, wide_schema(width))[X]
    assert isinstance(inferred, UnionType)
    assert len(inferred) == width


def test_p5_guard_fires():
    with pytest.raises(QueryTypeError):
        infer_types(QUERY, wide_schema(MAX_UNION_WIDTH + 5))


@pytest.mark.parametrize("width", [8, 64, 256])
def test_p5_union_merge(width):
    # half the markers overlap
    left = union_of(*[(f"m{i}", INTEGER) for i in range(width)])
    right = union_of(*[(f"m{i + width // 2}", INTEGER)
                       for i in range(width)])
    assert len(merge_unions(left, right)) == width + width // 2


def test_p5_marker_conflict_detection():
    left = union_of(("a", INTEGER), ("b", STRING))
    right = union_of(("b", INTEGER), ("c", STRING))  # b conflicts
    with pytest.raises(SubtypingError):
        merge_unions(left, right)
