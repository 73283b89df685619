"""Variable type inference (Section 5.3).

"Typing is essentially a consequence of range restriction": once the
range of a variable is known it determines its type.  Path and attribute
variables introduce polymorphism — a data variable bound through a path
variable may reach values of many types, and its inferred type is then a
**marked union with system-supplied markers** α1, α2, ... exactly as the
paper describes for the ``Knuth_Books`` example.

The inference walks path predicates at the *type* level, mirroring the
evaluator's value-level walk:

* attribute selections descend into tuples and union branches (with the
  implicit-selector convention);
* index steps cross list types (and view ordered tuples as
  heterogeneous lists);
* path variables expand to every schema path from the current type;
* a path predicate with **no** type-level match is a static type error
  (Section 5.3: "if no alternative of the type union has an attribute
  review, this leads to a type error").

The PATH and ATT sorts are reported with the sentinel types
:data:`PATH_SORT` and :data:`ATT_SORT`.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import QueryTypeError
from repro.calculus.formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    In,
    Not,
    Or,
    PathAtom,
    Pred,
    Query,
    Subset,
)
from repro.calculus.terms import (
    AttName,
    AttVar,
    Bind,
    Const,
    DataVar,
    Deref,
    Index,
    Name,
    PathVar,
    Sel,
    SetBind,
)
from repro.oodb.schema import Schema
from repro.oodb.types import (
    AnyType,
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
    system_union,
)
from repro.oodb.values import Nil, Oid
from repro.paths.schema_paths import schema_path_targets


class SortType(Type):
    """A sentinel 'type' for the PATH and ATT sorts."""

    def __init__(self, sort: str) -> None:
        object.__setattr__(self, "sort", sort)

    def __setattr__(self, key, value):
        raise AttributeError("SortType is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortType) and other.sort == self.sort

    def __hash__(self) -> int:
        return hash(("sort", self.sort))

    def __str__(self) -> str:
        return self.sort


PATH_SORT = SortType("PATH")
ATT_SORT = SortType("ATT")

#: Fallback for data variables bound by constructs the inference cannot
#: type precisely (e.g. equality with an interpreted-function result).
#: Distinct from *no* binder at all, which stays a type error.
VAL_SORT = SortType("VAL")

#: Cap on inferred union width before the "combinatorial explosion" the
#: paper warns about is reported as a type error.
MAX_UNION_WIDTH = 64


def infer_types(query: Query, schema: Schema) -> dict:
    """Infer a type for every variable of the query.

    Returns ``{variable: Type}`` — data variables get model types (a
    system-marked union when several candidates exist), path variables
    :data:`PATH_SORT`, attribute variables :data:`ATT_SORT`.  A path
    variable is expanded over the *distinct* targets of its schema paths
    (:func:`~repro.paths.schema_paths.schema_path_targets`, memoized on
    ``schema.hierarchy``), so the schema is walked once per start type,
    not once per query.
    """
    candidates: dict = {}
    _walk_formula(query.formula, schema, candidates)
    result: dict = {}
    for variable in query.formula.free_variables():
        result[variable] = _resolve(variable, candidates)
    for variable, kinds in candidates.items():
        if variable not in result:
            result[variable] = _resolve(variable, candidates)
    return result


def _resolve(variable, candidates: dict) -> Type:
    if isinstance(variable, PathVar):
        return PATH_SORT
    if isinstance(variable, AttVar):
        return ATT_SORT
    unique = list(dict.fromkeys(candidates.get(variable, ())))
    if not unique:
        raise QueryTypeError(
            f"no type could be inferred for variable {variable}")
    if len(unique) == 1:
        return unique[0]
    if len(unique) > MAX_UNION_WIDTH:
        raise QueryTypeError(
            f"variable {variable} has {len(unique)} candidate types — "
            "the union explosion the typing rules forbid")
    return system_union(unique)


def _note(candidates: dict, variable, tp: Type) -> None:
    candidates.setdefault(variable, []).append(tp)


def _walk_formula(formula: Formula, schema: Schema,
                  candidates: dict) -> None:
    if isinstance(formula, And):
        for conjunct in formula.conjuncts:
            _walk_formula(conjunct, schema, candidates)
    elif isinstance(formula, Or):
        for disjunct in formula.disjuncts:
            _walk_formula(disjunct, schema, candidates)
    elif isinstance(formula, Not):
        _walk_formula(formula.child, schema, candidates)
    elif isinstance(formula, (Exists, Forall)):
        _walk_formula(formula.body, schema, candidates)
    elif isinstance(formula, Implies):
        _walk_formula(formula.antecedent, schema, candidates)
        _walk_formula(formula.consequent, schema, candidates)
    elif isinstance(formula, PathAtom):
        _walk_path_atom(formula, schema, candidates)
    elif isinstance(formula, Eq):
        _walk_eq(formula, schema, candidates)
    elif isinstance(formula, In):
        _walk_in(formula, schema, candidates)
    elif isinstance(formula, (Subset, Pred)):
        return
    else:  # pragma: no cover
        return


def _walk_eq(atom: Eq, schema: Schema, candidates: dict) -> None:
    for variable, other in ((atom.left, atom.right),
                            (atom.right, atom.left)):
        if not isinstance(variable, DataVar):
            continue
        inferred = _term_type(other, schema, candidates)
        _note(candidates, variable, inferred or VAL_SORT)


def _walk_in(atom: In, schema: Schema, candidates: dict) -> None:
    if not isinstance(atom.element, DataVar):
        return
    collection = _term_type(atom.collection, schema, candidates)
    if isinstance(collection, (ListType, SetType)):
        _note(candidates, atom.element, collection.element)
    elif isinstance(collection, UnionType):
        # implicit selectors: the collection may sit behind markers
        for _, branch in collection.branches:
            if isinstance(branch, (ListType, SetType)):
                _note(candidates, atom.element, branch.element)
    else:
        _note(candidates, atom.element, VAL_SORT)


#: Result types of interpreted functions the inference understands.
_FUNCTION_RESULTS = {
    "length": INTEGER, "count": INTEGER,
    "name": STRING, "text": STRING,
}


def _term_type(term, schema: Schema, candidates: dict) -> Type | None:
    """Best-effort type of a data term; ``None`` when unknown."""
    from repro.calculus.formulas import Query as _Query
    from repro.calculus.terms import (
        FunTerm, ListTerm, PathApply, SetTerm, TupleTerm)

    if isinstance(term, Const):
        return _const_type(term.value)
    if isinstance(term, Name):
        return schema.root_type(term.name)
    if isinstance(term, DataVar):
        found = candidates.get(term)
        return found[0] if found else None
    if isinstance(term, TupleTerm):
        fields = []
        for attribute, sub in term.fields:
            if not isinstance(attribute, AttName):
                return None
            sub_type = _term_type(sub, schema, candidates)
            fields.append((attribute.name, sub_type or VAL_SORT))
        return TupleType(fields)
    if isinstance(term, ListTerm):
        return None if not term.items else ListType(
            _term_type(term.items[0], schema, candidates) or VAL_SORT)
    if isinstance(term, SetTerm):
        return None if not term.items else SetType(
            _term_type(term.items[0], schema, candidates) or VAL_SORT)
    if isinstance(term, FunTerm):
        known = _FUNCTION_RESULTS.get(term.function)
        if known is not None:
            return known
        if term.function in ("first", "last", "element") and term.arguments:
            inner = _term_type(term.arguments[0], schema, candidates)
            if isinstance(inner, (ListType, SetType)):
                return inner.element
        if term.function == "set_to_list" and term.arguments:
            inner = _term_type(term.arguments[0], schema, candidates)
            if isinstance(inner, SetType):
                return ListType(inner.element)
        return None
    if isinstance(term, PathApply):
        root_type = _term_type(term.root, schema, candidates)
        if root_type is None:
            return None
        unique = list(dict.fromkeys(_match_types_with_target(
            root_type, list(term.path.components), schema)))
        if not unique:
            return None
        if len(unique) == 1:
            return unique[0]
        return system_union(unique)
    if isinstance(term, _Query):
        return None
    return None


def _match_types_with_target(current: Type, components: list,
                             schema: Schema) -> Iterator[Type]:
    """Types reachable by a (possibly variable-free) path application."""
    if not components:
        yield current
        return
    head, rest = components[0], components[1:]
    if isinstance(head, Sel) and isinstance(head.attribute, AttName):
        for base in _deref_type(current, schema):
            for target in _attr_targets(base, head.attribute.name):
                yield from _match_types_with_target(target, rest, schema)
        return
    if isinstance(head, Index):
        for base in _deref_type(current, schema):
            if isinstance(base, ListType):
                yield from _match_types_with_target(
                    base.element, rest, schema)
            elif isinstance(base, TupleType):
                for name, field in base.fields:
                    yield from _match_types_with_target(
                        TupleType([(name, field)]), rest, schema)
        return
    if isinstance(head, Deref):
        if isinstance(current, (ClassType, AnyType)):
            for base in _deref_type(current, schema):
                yield from _match_types_with_target(base, rest, schema)
        return
    if isinstance(head, (Bind, SetBind)):
        if isinstance(head, SetBind):
            for base in _deref_type(current, schema):
                if isinstance(base, SetType):
                    yield from _match_types_with_target(
                        base.element, rest, schema)
            return
        yield from _match_types_with_target(current, rest, schema)
        return
    if isinstance(head, PathVar):
        for target in schema_path_targets(schema, current):
            yield from _match_types_with_target(target, rest, schema)
        return
    return


def _const_type(value: object) -> Type | None:
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STRING
    if isinstance(value, Oid):
        return ClassType(value.class_name)
    if isinstance(value, Nil):
        return None
    return None


def _walk_path_atom(atom: PathAtom, schema: Schema,
                    candidates: dict) -> None:
    root_type = _root_type(atom.root, schema, candidates)
    if root_type is None:
        return
    matched, noted = _path_matches(root_type, atom.path.components,
                                   schema)
    if not matched:
        raise QueryTypeError(
            f"path predicate {atom} can never hold: no structure in the "
            "schema matches the path")
    # the memo holds the variables of the query that filled it: note
    # the types under this query's own (equal) variable objects
    own = {variable: variable for variable in atom.path.variables()}
    for variable, types in noted:
        candidates.setdefault(own[variable], []).extend(types)


#: Distinct path shapes :func:`_path_matches` memoizes per hierarchy;
#: a shape past the cap is typed afresh on every query.
PATH_MATCH_MEMO_LIMIT = 4096


def _path_matches(root_type: Type, components: tuple,
                  schema: Schema) -> tuple[bool, tuple]:
    """Whether :func:`_match_types` finds any assignment for
    ``components`` from ``root_type``, and what its assignments note:
    per variable, in order of first appearance, its distinct types in
    order of first appearance (every reader of the candidates takes the
    first or the distinct ones).

    The walk depends on ``schema.hierarchy``, the root type and the
    components alone, so it is memoized on the hierarchy: keyed by the
    root type's rendering too (union equality ignores branch order, the
    walk's order does not) and by the components, which compare by
    variable name.
    """
    key = (root_type, str(root_type), components)
    memo = schema.hierarchy.path_matches
    entry = memo.get(key)
    if entry is None:
        matched = False
        noted: dict = {}
        for match in _match_types(root_type, list(components), schema,
                                  {}):
            matched = True
            for variable, tp in match.items():
                noted.setdefault(variable, {})[tp] = None
        entry = (matched, tuple((variable, tuple(types))
                                for variable, types in noted.items()))
        if len(memo) < PATH_MATCH_MEMO_LIMIT:
            memo[key] = entry
    return entry


def _root_type(root, schema: Schema, candidates: dict) -> Type | None:
    if isinstance(root, Name):
        return schema.root_type(root.name)
    if isinstance(root, Const):
        return _const_type(root.value)
    if isinstance(root, DataVar):
        found = candidates.get(root)
        if found:
            # Use the first candidate; chained predicates refine later.
            return found[0]
        return None
    return None


def _match_types(current: Type, components: list, schema: Schema,
                 assignment: dict) -> Iterator[dict]:
    """Type-level analogue of the evaluator's path matching."""
    if not components:
        yield dict(assignment)
        return
    head, rest = components[0], components[1:]

    if isinstance(head, PathVar):
        # paths sharing a target yield identical assignments: walk each
        # distinct target once
        extended = dict(assignment)
        extended[head] = PATH_SORT
        for target in schema_path_targets(schema, current):
            yield from _match_types(target, rest, schema, extended)
        return

    if isinstance(head, Sel):
        base = _deref_type(current, schema)
        for base_type in base:
            attribute = head.attribute
            if isinstance(attribute, AttName):
                for target in _attr_targets(base_type, attribute.name):
                    yield from _match_types(target, rest, schema,
                                            assignment)
            else:
                extended = dict(assignment)
                extended[attribute] = ATT_SORT
                for name, target in _all_attr_targets(base_type):
                    yield from _match_types(target, rest, schema,
                                            extended)
        return

    if isinstance(head, Index):
        for base_type in _deref_type(current, schema):
            extended = assignment
            if isinstance(head.index, DataVar):
                extended = dict(assignment)
                extended[head.index] = INTEGER
            if isinstance(base_type, ListType):
                yield from _match_types(
                    base_type.element, rest, schema, extended)
            elif isinstance(base_type, TupleType):
                # heterogeneous-list view: element type is the union of
                # one-field tuples
                for name, field in base_type.fields:
                    yield from _match_types(
                        TupleType([(name, field)]), rest, schema,
                        extended)
            elif isinstance(base_type, UnionType):
                # positional access skips the marker when the branch is
                # a tuple (Important Omissions); otherwise it indexes
                # the one-field wrapper itself
                for marker, branch in base_type.branches:
                    if isinstance(branch, TupleType):
                        for name, field in branch.fields:
                            yield from _match_types(
                                TupleType([(name, field)]), rest,
                                schema, extended)
                    else:
                        yield from _match_types(
                            TupleType([(marker, branch)]), rest,
                            schema, extended)
        return

    if isinstance(head, Deref):
        if isinstance(current, ClassType):
            for class_name in schema.hierarchy.subclasses(current.name):
                yield from _match_types(
                    schema.structure(class_name), rest, schema,
                    assignment)
        elif isinstance(current, AnyType):
            for class_name in schema.hierarchy.class_names:
                yield from _match_types(
                    schema.structure(class_name), rest, schema,
                    assignment)
        return

    if isinstance(head, Bind):
        extended = dict(assignment)
        extended[head.variable] = current
        yield from _match_types(current, rest, schema, extended)
        return

    if isinstance(head, SetBind):
        for base_type in _deref_type(current, schema):
            if isinstance(base_type, SetType):
                extended = dict(assignment)
                extended[head.variable] = base_type.element
                yield from _match_types(
                    base_type.element, rest, schema, extended)
        return

    return


def _deref_type(tp: Type, schema: Schema) -> list[Type]:
    """The structural type(s) behind a possibly class-typed position."""
    if isinstance(tp, ClassType):
        return [schema.structure(class_name)
                for class_name in schema.hierarchy.subclasses(tp.name)]
    if isinstance(tp, AnyType):
        return [schema.structure(class_name)
                for class_name in schema.hierarchy.class_names]
    return [tp]


def _attr_targets(tp: Type, attribute: str) -> list[Type]:
    if isinstance(tp, TupleType):
        if tp.has_attribute(attribute):
            return [tp.field_type(attribute)]
        return []
    if isinstance(tp, UnionType):
        targets: list[Type] = []
        if tp.has_marker(attribute):
            targets.append(tp.branch_type(attribute))
        # implicit selector: branches whose payload carries the attribute
        for marker, branch in tp.branches:
            if marker == attribute:
                continue
            if isinstance(branch, TupleType) and branch.has_attribute(
                    attribute):
                targets.append(branch.field_type(attribute))
        return targets
    return []


def _all_attr_targets(tp: Type) -> list[tuple[str, Type]]:
    """Every (name, target) an attribute variable can value over —
    markers of a union *and* the attributes its tuple branches carry
    (the implicit selectors), mirroring :func:`_attr_targets`."""
    if isinstance(tp, TupleType):
        return list(tp.fields)
    if isinstance(tp, UnionType):
        pairs = list(tp.branches)
        for _, branch in tp.branches:
            if isinstance(branch, TupleType):
                pairs.extend(branch.fields)
        return pairs
    return []
