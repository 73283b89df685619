"""The extended O₂ data model substrate (Sections 3 and 5.1).

Public surface: the type constructors, value classes, schema/instance
machinery, constraints, and the object store.
"""

from repro.oodb.constraints import (
    Constraint,
    ConstraintSet,
    Disjunction,
    NotEmpty,
    NotNil,
    OneOf,
)
from repro.oodb.display import format_schema, format_type, format_value
from repro.oodb.instance import Instance, populate
from repro.oodb.schema import (
    ClassHierarchy,
    MethodSignature,
    Schema,
    schema_from_classes,
)
from repro.oodb.serialize import decode_value, encode_value, encoded_size
from repro.oodb.store import ObjectStore
from repro.oodb.subtyping import (
    common_supertype,
    is_subtype,
    merge_unions,
    union_all,
)
from repro.oodb.typecheck import infer_value_type, value_in_type
from repro.oodb.types import (
    ANY,
    AnyType,
    AtomicType,
    BOOLEAN,
    ClassType,
    FLOAT,
    INTEGER,
    ListType,
    STRING,
    SetType,
    TupleType,
    Type,
    UnionType,
    c,
    list_of,
    set_of,
    tuple_of,
    union_of,
)
from repro.oodb.values import (
    ListValue,
    NIL,
    Nil,
    Oid,
    SetValue,
    TupleValue,
    UnionValue,
    equivalent,
    is_value,
)

__all__ = [
    "ANY", "AnyType", "AtomicType", "BOOLEAN", "ClassHierarchy", "ClassType",
    "Constraint", "ConstraintSet", "Disjunction", "FLOAT", "INTEGER",
    "Instance", "ListType", "ListValue", "MethodSignature", "NIL",
    "Nil", "NotEmpty", "NotNil", "ObjectStore", "Oid", "OneOf", "STRING",
    "Schema", "SetType", "SetValue", "TupleType", "TupleValue", "Type",
    "UnionType", "UnionValue", "c", "common_supertype", "decode_value",
    "encode_value", "encoded_size", "equivalent", "format_schema",
    "format_type", "format_value", "infer_value_type", "is_subtype",
    "is_value", "list_of", "merge_unions", "populate", "schema_from_classes",
    "set_of", "tuple_of", "union_all", "union_of", "value_in_type",
]
