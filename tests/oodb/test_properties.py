"""Property-based tests (hypothesis) on the data-model invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.oodb import (
    ListValue,
    NIL,
    Oid,
    SetValue,
    TupleValue,
    decode_value,
    encode_value,
    equivalent,
    is_subtype,
    is_value,
    value_in_type,
)
from repro.oodb.types import (
    BOOLEAN,
    INTEGER,
    STRING,
    ListType,
    SetType,
    TupleType,
    UnionType,
)

# -- value strategies ---------------------------------------------------------

attribute_names = st.text(
    alphabet="abcdefgh", min_size=1, max_size=4)

atoms = st.one_of(
    st.just(NIL),
    st.integers(min_value=-2**40, max_value=2**40),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.builds(Oid, st.integers(min_value=1, max_value=1000),
              st.sampled_from(["A", "B", "C"])),
)


def _extend(children):
    unique_fields = st.lists(
        st.tuples(attribute_names, children),
        max_size=4, unique_by=lambda pair: pair[0])
    return st.one_of(
        st.builds(TupleValue, unique_fields),
        st.builds(ListValue, st.lists(children, max_size=4)),
        st.builds(SetValue, st.lists(children, max_size=4)),
    )


values = st.recursive(atoms, _extend, max_leaves=20)

# -- type strategies ----------------------------------------------------------

atomic_types = st.sampled_from([INTEGER, STRING, BOOLEAN])


def _extend_types(children):
    unique_fields = st.lists(
        st.tuples(attribute_names, children),
        min_size=1, max_size=3, unique_by=lambda pair: pair[0])
    return st.one_of(
        st.builds(ListType, children),
        st.builds(SetType, children),
        st.builds(TupleType, unique_fields),
        st.builds(UnionType, unique_fields),
    )


types = st.recursive(atomic_types, _extend_types, max_leaves=8)


# -- properties ---------------------------------------------------------------


class TestCodecProperties:
    @given(values)
    @settings(max_examples=200)
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    @given(values)
    def test_all_generated_values_are_model_values(self, value):
        assert is_value(value)

    @given(values, values)
    def test_encoding_injective_on_distinct_values(self, left, right):
        if left != right:
            assert encode_value(left) != encode_value(right)


class TestEquivalenceProperties:
    @given(values)
    def test_equivalence_reflexive(self, value):
        assert equivalent(value, value)

    @given(values, values)
    # ``[] ≡ list()``: each left element has a match on the right, but
    # ``list(nil)`` has none on the left
    @example(SetValue([NIL, TupleValue([]), ListValue([])]),
             SetValue([NIL, TupleValue([]), ListValue([NIL])]))
    def test_equivalence_symmetric(self, left, right):
        assert equivalent(left, right) == equivalent(right, left)

    @given(st.lists(st.tuples(attribute_names, atoms),
                    min_size=1, max_size=4,
                    unique_by=lambda pair: pair[0]))
    def test_tuple_equivalent_to_its_heterogeneous_list(self, fields):
        tup = TupleValue(fields)
        assert equivalent(tup, tup.as_heterogeneous_list())


class TestSubtypingProperties:
    @given(types)
    def test_reflexive(self, tp):
        assert is_subtype(tp, tp)

    @given(types, types, types)
    @settings(max_examples=150)
    def test_transitive(self, a, b, c_):
        if is_subtype(a, b) and is_subtype(b, c_):
            assert is_subtype(a, c_)

    @given(types, types)
    @settings(max_examples=150)
    def test_antisymmetric_modulo_union_branch_order(self, a, b):
        if is_subtype(a, b) and is_subtype(b, a):
            # mutual subtyping implies equality in this structural system
            assert a == b

    @given(st.lists(st.tuples(attribute_names, atomic_types),
                    min_size=1, max_size=4,
                    unique_by=lambda pair: pair[0]))
    def test_tuple_below_its_own_union_and_het_list(self, fields):
        tup = TupleType(fields)
        union = UnionType(fields)
        assert is_subtype(tup, union)
        assert is_subtype(tup, ListType(union))


class TestDomainMonotonicity:
    """t <= t'  implies  dom(t) ⊆ dom(t') — checked on generated members."""

    @given(st.lists(st.tuples(attribute_names, atoms),
                    min_size=1, max_size=3,
                    unique_by=lambda pair: pair[0]))
    def test_tuple_members_in_union_domain(self, fields):
        from repro.oodb.typecheck import infer_value_type
        tup_value = TupleValue(fields)
        tup_type = infer_value_type(tup_value)
        if not isinstance(tup_type, TupleType):
            return
        union_type = UnionType(list(tup_type.fields))
        one_field = TupleValue([fields[0]])
        if value_in_type(one_field, tup_type):
            assert value_in_type(one_field, union_type)


class TestSetValueProperties:
    @given(st.lists(atoms, max_size=10), st.lists(atoms, max_size=10))
    def test_difference_disjoint_from_other(self, left, right):
        a, b = SetValue(left), SetValue(right)
        diff = a.difference(b)
        assert all(v not in b for v in diff)
        assert diff.issubset(a)

    @given(st.lists(atoms, max_size=10), st.lists(atoms, max_size=10))
    def test_union_contains_both(self, left, right):
        a, b = SetValue(left), SetValue(right)
        u = a.union(b)
        assert a.issubset(u) and b.issubset(u)

    @given(st.lists(atoms, max_size=10))
    def test_set_idempotent(self, items):
        s = SetValue(items)
        assert SetValue(list(s)) == s
