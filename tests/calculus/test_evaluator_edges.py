"""Edge-case tests for the evaluator (guards, reuse, dedup)."""

import pytest

from repro.calculus import (
    And,
    Bind,
    Const,
    DataVar,
    Eq,
    EvalContext,
    Exists,
    FunTerm,
    Index,
    Name,
    Or,
    PathApply,
    PathAtom,
    PathTerm,
    PathVar,
    Query,
    Sel,
    evaluate_query,
)
from repro.calculus.evaluator import satisfy
from repro.corpus.knuth import build_knuth_database
from repro.errors import EvaluationError, WrongBranchAccess
from repro.oodb import ListValue, TupleValue, UnionValue

X, Y, I = DataVar("X"), DataVar("Y"), DataVar("I")
P, Q = PathVar("P"), PathVar("Q")


@pytest.fixture(scope="module")
def ctx():
    return EvalContext(build_knuth_database())


class TestGuards:
    def test_max_paths_guard_fires(self):
        from repro.oodb import (
            Instance, STRING, schema_from_classes, list_of)
        schema = schema_from_classes(
            {}, roots={"Big": list_of(list_of(STRING))})
        db = Instance(schema)
        db.set_root("Big", ListValue(
            ListValue(f"s{i}-{j}" for j in range(40))
            for i in range(40)))
        tight = EvalContext(db, max_paths=100)
        query = Query([P], PathAtom(Name("Big"), PathTerm([P])))
        with pytest.raises(EvaluationError):
            evaluate_query(query, tight)

    def test_ambiguous_path_apply_in_data_term(self, ctx):
        # a data term with a path that matches several ways is rejected
        # (use a path predicate instead)
        root = ctx.instance.root("Knuth_Books")
        volumes = root.get("volumes")
        # volumes[I] with I bound is fine; with a PathVar it is ambiguous
        term = PathApply(Name("Knuth_Books"),
                         PathTerm([P, Sel("status")]))
        from repro.calculus.evaluator import eval_term
        with pytest.raises(EvaluationError):
            eval_term(term, {}, ctx)

    def test_wrong_branch_on_named_root(self):
        from repro.oodb import Instance, schema_from_classes, tuple_of
        from repro.oodb.types import STRING
        from repro.oodb import union_of
        schema = schema_from_classes({}, roots={
            "thing": union_of(("a", tuple_of(("x", STRING))),
                              ("b", tuple_of(("y", STRING))))})
        db = Instance(schema)
        db.set_root("thing", UnionValue(
            "a", TupleValue([("x", "hello")])))
        local = EvalContext(db)
        from repro.calculus.evaluator import eval_term
        good = PathApply(Name("thing"), PathTerm([Sel("x")]))
        assert eval_term(good, {}, local) == "hello"
        bad = PathApply(Name("thing"), PathTerm([Sel("y")]))
        with pytest.raises(WrongBranchAccess):
            eval_term(bad, {}, local)


class TestVariableReuse:
    def test_path_variable_shared_across_atoms(self, ctx):
        # P bound by the first atom constrains the second: paths that
        # lead to a status in BOTH volume 0 and volume 2 positions —
        # i.e. P must apply under both volumes.
        query = Query([P], And(
            PathAtom(PathApply(Name("Knuth_Books"),
                               PathTerm([Sel("volumes"), Index(0)])),
                     PathTerm([P, Sel("status")])),
            PathAtom(PathApply(Name("Knuth_Books"),
                               PathTerm([Sel("volumes"), Index(2)])),
                     PathTerm([P, Sel("status")]))))
        result = evaluate_query(query, ctx)
        assert len(result) >= 1  # the deref path works for both

    def test_index_variable_shared_across_atoms(self, ctx):
        # I indexes volumes in both atoms: the same volume must have
        # status "draft" AND a title containing "Sorting".
        query = Query([I], Exists([X, Y], And(
            PathAtom(Name("Knuth_Books"), PathTerm([
                Sel("volumes"), Index(I), Sel("status"), Bind(X)])),
            Eq(X, Const("draft")),
            PathAtom(Name("Knuth_Books"), PathTerm([
                Sel("volumes"), Index(I), Sel("title"), Bind(Y)])),
            Eq(Y, Const("Sorting and Searching")))))
        result = evaluate_query(query, ctx)
        assert set(result) == {2}

    def test_data_variable_rebinding_checks_equivalence(self, ctx):
        # X bound twice must match both occurrences
        query = Query([X], And(
            PathAtom(Name("Knuth_Books"), PathTerm([
                Sel("volumes"), Index(0), Sel("status"), Bind(X)])),
            PathAtom(Name("Knuth_Books"), PathTerm([
                Sel("volumes"), Index(1), Sel("status"), Bind(X)]))))
        # volumes 0 and 1 are both "final"
        assert set(evaluate_query(query, ctx)) == {"final"}


class TestConnectiveEdges:
    def test_or_with_different_binders(self, ctx):
        formula = Or(
            Eq(X, Const("left")),
            PathAtom(Name("Knuth_Books"),
                     PathTerm([Sel("series"), Bind(X)])))
        values = {b[X] for b in satisfy(formula, {}, ctx)}
        assert "left" in values
        assert "The Art of Computer Programming" in values

    def test_exists_deduplicates_projections(self, ctx):
        # many witnesses, one projected binding
        formula = Exists([P], PathAtom(
            Name("Knuth_Books"), PathTerm([P, Sel("status"),
                                           Bind(X)])))
        bindings = list(satisfy(formula, {}, ctx))
        seen = [b[X] for b in bindings]
        assert len(seen) == len(set(seen))

    def test_empty_path_term(self, ctx):
        query = Query([X], PathAtom(Name("Knuth_Books"),
                                    PathTerm([Bind(X)])))
        result = evaluate_query(query, ctx)
        assert len(result) == 1  # the root value itself

    def test_nested_function_composition(self, ctx):
        query = Query([X], Eq(X, FunTerm("length", [
            FunTerm("set_to_list", [
                Query([Y], PathAtom(Name("Knuth_Books"), PathTerm([
                    Sel("volumes"), Index(0),
                    Sel("status"), Bind(Y)])))])])))
        result = evaluate_query(query, ctx)
        assert set(result) == {1}


class TestGroundMembership:
    """``value ∈ collection`` looks the value up in the collection's
    hashed view first; ``≡`` runs only on a miss."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Calls of ``equivalent``, under every name it is called by."""
        import repro.calculus.evaluator as evaluator
        import repro.oodb.values as values
        calls = [0]
        original = values.equivalent

        def counting(left, right):
            calls[0] += 1
            return original(left, right)

        for module in (values, evaluator):
            monkeypatch.setattr(module, "equivalent", counting)
        return calls

    @staticmethod
    def holds(ctx, value, collection) -> bool:
        from repro.calculus import In
        return list(satisfy(In(Const(value), Const(collection)), {},
                            ctx)) == [{}]

    def test_a_hit_calls_equivalent_zero_times(self, ctx, counted):
        from repro.oodb import SetValue
        members = SetValue(TupleValue([("n", i), ("s", f"v{i}")])
                           for i in range(1_000))
        for i in (0, 500, 999):
            probe = TupleValue([("n", i), ("s", f"v{i}")])
            assert self.holds(ctx, probe, members)
            assert self.holds(ctx, probe, ListValue(members.items))
        assert counted[0] == 0

    def test_an_unstructured_miss_is_final(self, ctx, counted):
        """Outside tuples, lists and sets ``≡`` is ``==``: a path, an
        atom or an oid missing from the view is not a member."""
        from repro.oodb import Oid, SetValue
        from repro.paths import Path
        members = SetValue([Path.of("a", i) for i in range(1_000)]
                           + [TupleValue([("n", 1)]), "s", 7])
        for probe in (Path.of("b", 0), "t", 8, 7.5, Oid(9, "C")):
            assert not self.holds(ctx, probe, members)
        assert self.holds(ctx, Path.of("a", 999), members)
        assert self.holds(ctx, 7.0, members)  # 7.0 == 7: one bucket
        assert counted[0] == 0

    def test_a_miss_still_finds_an_equivalent_member(self, ctx, counted):
        from repro.oodb import SetValue
        tup = TupleValue([("a", 1), ("b", "x")])
        het = tup.as_heterogeneous_list()
        assert het != tup
        members = SetValue([TupleValue([("n", i)]) for i in range(1_000)]
                           + [het])
        assert self.holds(ctx, tup, members)
        assert counted[0] > 0
        assert not self.holds(ctx, TupleValue([("a", 2)]), members)
        # an unhashable host value falls back to the scan
        assert not self.holds(ctx, [1, 2], members)
