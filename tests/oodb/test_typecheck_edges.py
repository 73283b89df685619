"""Edge cases of the domain-membership check (Section 5.1 semantics)."""

from repro.oodb import (
    ANY,
    BOOLEAN,
    FLOAT,
    INTEGER,
    ListValue,
    NIL,
    Oid,
    STRING,
    SetValue,
    TupleValue,
    UnionValue,
    c,
    infer_value_type,
    list_of,
    set_of,
    tuple_of,
    union_of,
    value_in_type,
)


class TestNilEverywhere:
    """nil is "the undefined value": it inhabits every non-collection
    domain (Figure 3 excludes it with constraints, not types)."""

    def test_nil_in_atomic_and_class_domains(self):
        for tp in (INTEGER, STRING, BOOLEAN, FLOAT, c("Article"), ANY,
                   tuple_of(("a", INTEGER)),
                   union_of(("a", INTEGER))):
            assert value_in_type(NIL, tp), tp

    def test_nil_not_a_collection(self):
        # an absent `*` component maps to the empty list, never nil
        assert not value_in_type(NIL, list_of(INTEGER))
        assert not value_in_type(NIL, set_of(INTEGER))

    def test_nil_as_optional_tuple_field(self):
        declared = tuple_of(("caption", c("Caption")))
        assert value_in_type(TupleValue([("caption", NIL)]), declared)


class TestNumericEdges:
    def test_int_float_domains_disjoint(self):
        assert value_in_type(1, INTEGER)
        assert not value_in_type(1, FLOAT)
        assert value_in_type(1.0, FLOAT)
        assert not value_in_type(1.0, INTEGER)

    def test_bool_is_not_integer(self):
        assert not value_in_type(True, INTEGER)
        assert value_in_type(True, BOOLEAN)


class TestUnionEdges:
    def test_nested_union_values(self):
        inner = union_of(("x", INTEGER), ("y", STRING))
        outer = union_of(("a", inner), ("b", BOOLEAN))
        value = UnionValue("a", UnionValue("x", 1))
        assert value_in_type(value, outer)
        assert not value_in_type(UnionValue("a", 1), outer)

    def test_wide_tuple_not_a_union_value(self):
        u = union_of(("a", INTEGER), ("b", STRING))
        wide = TupleValue([("a", 1), ("b", "x")])
        # a two-field tuple is not a *marked* value...
        assert not value_in_type(wide, u)
        # ...although the subtype relation holds at the type level (the
        # injection goes through the one-field narrowing)


class TestInferValueType:
    def test_homogeneous_collection(self):
        assert infer_value_type(ListValue([1, 2])) == list_of(INTEGER)
        assert infer_value_type(SetValue(["a"])) == set_of(STRING)

    def test_heterogeneous_collection_is_a_system_union(self):
        from repro.oodb.types import system_union
        # no common supertype: the distinct element types are the
        # alternatives, in order of first appearance
        value = ListValue([1, "x", 2])
        inferred = infer_value_type(value)
        assert inferred == list_of(system_union([INTEGER, STRING]))
        assert inferred.element.markers == ("alpha1", "alpha2")
        # its domain is the union of the alternatives' (no marker)
        assert value_in_type(value, inferred)
        assert not value_in_type(ListValue([1, 2.5]), inferred)
        assert not value_in_type(
            ListValue([UnionValue("alpha1", 1)]), inferred)
        # objects of two classes still join (at ``any``)
        assert infer_value_type(SetValue(
            [Oid(1, "Article"), Oid(2, "Section")])) == set_of(ANY)

    def test_empty_collection(self):
        from repro.oodb.types import AnyType, SetType
        inferred = infer_value_type(SetValue())
        assert isinstance(inferred, SetType)
        assert isinstance(inferred.element, AnyType)

    def test_oid_infers_class(self):
        assert infer_value_type(Oid(1, "Article")) == c("Article")

    def test_tuple_infers_ordered_fields(self):
        inferred = infer_value_type(TupleValue([("b", 1), ("a", "x")]))
        assert inferred.attribute_names == ("b", "a")
