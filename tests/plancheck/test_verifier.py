"""The plan verifier: every fault code on a hand-built broken plan,
silence on every plan the real compiler + optimizer produce."""

import pytest

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.operators import (
    BindOp,
    IntervalJoinOp,
    Operator,
    ProjectOp,
    SeedOp,
    SelectOp,
    SharedOp,
    StructuralAttrScanOp,
    StructuralScanOp,
    UnionOp,
    walk_once,
)
from repro.algebra.optimizer import optimize
from repro.calculus.formulas import Eq, In, Pred, Query
from repro.calculus.terms import Const, DataVar, Name, PathVar
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import PlanVerificationError
from repro.oodb.types import STRING, ClassType
from repro.plancheck import check_plan, verify_plan, verify_structural_index
from repro.text import Pattern

X = DataVar("x")
Y = DataVar("y")
P = PathVar("PATH_p")


def codes(faults):
    return [f.code for f in faults]


@pytest.fixture(scope="module")
def store():
    s = DocumentStore(ARTICLE_DTD, backend="algebra")
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.load_text(SAMPLE_ARTICLE, name="my_old_article")
    s.build_text_index()
    s.build_structural_index()
    return s


class TestCleanPlans:
    """The gate must stay silent on every correct plan."""

    QUERIES = [
        "select t from my_article PATH_p.title(t)",
        "select t from my_article PATH_p.title(t) where t = 'On Sets'",
        "select ss from a in Articles, s in a.sections,"
        " ss in s.body where ss contains ('group')",
        "select v from my_article PATH_p(v), my_old_article PATH_q(v)",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_compiled_plan_verifies(self, store, text):
        query = store._engine.translate(text)
        for structural in (False, True):
            plan = compile_query(query, store.schema, structural=structural)
            assert verify_plan(plan, query=query, stage="compile") == []

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("structural", [False, True])
    def test_optimized_plan_verifies(self, store, text, structural):
        query = store._engine.translate(text)
        plan = compile_query(query, store.schema, structural=structural)
        rewritten = optimize(plan, structural=structural,
                             verify="raise", query=query)
        assert verify_plan(rewritten, query=query) == []

    def test_trivial_plan(self):
        plan = ProjectOp(BindOp(SeedOp(), X, Const(1)), [X])
        assert verify_plan(plan) == []


class TestFaultCodes:
    def test_unbound_consumption(self):
        plan = ProjectOp(SelectOp(SeedOp(), Eq(X, Const(1))), [X])
        found = codes(verify_plan(plan))
        assert "PC-UNBOUND" in found
        assert "PC-HEAD" in found  # the head is unbound too

    def test_root_not_projection(self):
        assert codes(verify_plan(SeedOp())) == ["PC-ROOT"]

    def test_head_mismatch_against_query(self):
        plan = ProjectOp(BindOp(SeedOp(), X, Const(1)), [X])
        query = Query([Y], In(Y, Name("Articles")))
        assert codes(verify_plan(plan, query=query)) == ["PC-HEAD"]

    def test_non_seed_leaf(self):
        class Stray(Operator):
            def describe(self, indent=0):
                return "Stray"

        plan = ProjectOp(Stray(), [])
        assert "PC-LEAF" in codes(verify_plan(plan))

    def test_cyclic_plan(self):
        bind = BindOp(SeedOp(), X, Const(1))
        select = SelectOp(bind, Eq(X, Const(1)))
        bind.child = select  # the rewrite bug PC-CYCLE exists for
        assert "PC-CYCLE" in codes(verify_plan(ProjectOp(select, [X])))

    def test_duplicate_shared_ids(self):
        left = SharedOp(BindOp(SeedOp(), X, Const(1)), 2, shared_id=1)
        right = SharedOp(BindOp(SeedOp(), X, Const(2)), 2, shared_id=1)
        plan = ProjectOp(UnionOp([left, right]), [X])
        assert "PC-SHARED" in codes(verify_plan(plan))

    def test_nonpositive_ref_count(self):
        inner = SharedOp(BindOp(SeedOp(), X, Const(1)), 0, shared_id=1)
        plan = ProjectOp(inner, [X])
        assert "PC-SHARED" in codes(verify_plan(plan))

    def test_scan_binding_its_source(self):
        scan = StructuralScanOp(BindOp(SeedOp(), X, Const(1)), X, P, X)
        plan = ProjectOp(scan, [X])
        assert "PC-SCAN" in codes(verify_plan(plan))

    def test_attr_scan_needs_exactly_one_name_source(self):
        scan = StructuralAttrScanOp(
            BindOp(SeedOp(), X, Const(1)), X, P, Y,
            attr="title", attr_var=DataVar("A0"), value_var=DataVar("v"))
        plan = ProjectOp(scan, [Y])
        assert "PC-ATTRSCAN" in codes(verify_plan(plan))

    def test_join_probing_its_own_output(self):
        join = IntervalJoinOp(BindOp(SeedOp(), X, Const(1)), X, P, Y,
                              probe_var=Y, recheck_atom=Eq(Y, Y))
        plan = ProjectOp(join, [Y])
        assert "PC-JOIN" in codes(verify_plan(plan))

    def test_join_with_foreign_recheck_atom(self):
        probe = BindOp(BindOp(SeedOp(), X, Const(1)), Y, Const(2))
        join = IntervalJoinOp(probe, X, P, DataVar("out"),
                              probe_var=Y,
                              recheck_atom=Eq(DataVar("zz"), Y))
        plan = ProjectOp(join, [Y])
        assert "PC-JOIN" in codes(verify_plan(plan))


class TestOidOnlyTypeFact:
    """``SelectOp.oid_only`` lets unions prune whole branches on an
    empty index probe — sound only if the subject can bind nothing but
    oids.  The verifier replays the flag against ``var_types``."""

    CONTAINS = Pred("contains", [X, Const(Pattern("SGML"))])

    def plan(self, types, atom=CONTAINS):
        select = SelectOp(BindOp(SeedOp(), X, Const("some SGML text")),
                          atom, oid_only=True)
        plan = ProjectOp(select, [X])
        plan.var_types = {X: types}
        return plan

    def test_string_candidate_type_faults(self):
        assert codes(verify_plan(self.plan([STRING]))) == ["PC-TYPE"]
        assert codes(verify_plan(self.plan(
            [ClassType("Article"), STRING]))) == ["PC-TYPE"]

    def test_untyped_subject_faults(self):
        assert codes(verify_plan(self.plan([]))) == ["PC-TYPE"]

    def test_flag_on_another_atom_faults(self):
        plan = self.plan([ClassType("Article")], atom=Eq(X, Const(1)))
        assert codes(verify_plan(plan)) == ["PC-TYPE"]

    def test_class_candidates_pass(self):
        assert verify_plan(self.plan([ClassType("Article")])) == []

    def test_a_wrongly_flagged_compiled_select_is_caught(self, store):
        """The seeded mutation: flag the ``contains`` the compiler
        rightly left unflagged — an attribute variable's values are
        strings as well as objects."""
        query = store._engine.translate(
            "select name(ATT_a) from my_article PATH_p.ATT_a(val)"
            " where val contains ('final')")
        for structural in (False, True):
            plan = compile_query(query, store.schema, structural=structural)
            (select,) = [node for node in walk_once(plan)
                         if isinstance(node, SelectOp)
                         and node.pattern is not None]
            assert not select.oid_only
            assert verify_plan(plan, query=query) == []
            select.oid_only = True
            with pytest.raises(PlanVerificationError) as exc:
                check_plan(plan, query=query, stage="compile")
            assert codes(exc.value.faults) == ["PC-TYPE"]


class TestDeadBranches:
    """The compiler encodes a statically-impossible branch as
    ``Select (0 = 1)``: no row flows above it, so nothing above it may
    be flagged (the false positive that would break diffcheck)."""

    def test_dead_chain_is_vacuously_bound(self):
        dead = SelectOp(SeedOp(), Eq(Const(0), Const(1)))
        plan = ProjectOp(SelectOp(dead, Eq(X, Const(1))), [X])
        assert verify_plan(plan) == []

    def test_dead_union_branch_does_not_constrain(self):
        dead = SelectOp(SeedOp(), Eq(Const(0), Const(1)))
        live = BindOp(SeedOp(), X, Const(1))
        plan = ProjectOp(UnionOp([dead, live]), [X])
        assert verify_plan(plan) == []

    def test_live_select_still_checks(self):
        # a *satisfiable* constant select is not a dead marker
        alive = SelectOp(SeedOp(), Eq(Const(1), Const(1)))
        plan = ProjectOp(SelectOp(alive, Eq(X, Const(1))), [X])
        assert "PC-UNBOUND" in codes(verify_plan(plan))


class TestCheckPlan:
    def test_raises_with_fault_list(self):
        plan = ProjectOp(SeedOp(), [X])
        with pytest.raises(PlanVerificationError) as exc:
            check_plan(plan, stage="pushdown")
        assert exc.value.faults
        assert "pushdown" in str(exc.value)

    def test_silent_on_clean_plan(self):
        check_plan(ProjectOp(BindOp(SeedOp(), X, Const(1)), [X]))


class TestStructuralIndexInvariants:
    def test_built_index_verifies(self, store):
        assert verify_structural_index(store.struct_index) == []

    def test_corrupted_interval_detected(self):
        """Two swapped subtree ends: the recomputed ends disagree."""
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="doc")
        index = s.build_structural_index()
        block = next(iter(index.blocks.values()))
        end = block.end
        other = next(pre for pre in range(block.size)
                     if end[pre] != end[0])
        end[0], end[other] = end[other], end[0]
        faults = verify_structural_index(index)
        assert faults and all(f.code == "PC-INDEX" for f in faults)
        assert any("interval ends" in f.message for f in faults)

    def test_corrupted_pre_order_detected(self):
        """A node re-parented below a node whose subtree closed before
        it: the arrays are no longer in pre order."""
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="doc")
        index = s.build_structural_index()
        block = index.blocks["doc"]
        closed, late = next((j, i) for i in range(block.size)
                            for j in range(i) if block.end[j] < i)
        block.parent[late] = closed
        faults = verify_structural_index(index)
        assert faults and all(f.code == "PC-INDEX" for f in faults)
        assert any("not pre order" in f.message for f in faults)

    def test_corrupted_parent_detected(self):
        s = DocumentStore(ARTICLE_DTD, backend="algebra")
        s.load_text(SAMPLE_ARTICLE, name="doc")
        index = s.build_structural_index()
        block = next(iter(index.blocks.values()))
        block.parent[1] = 1  # self-parenting: not a preceding node
        assert "PC-INDEX" in codes(verify_structural_index(index))

    def test_corrupted_steps_detected(self):
        from repro.paths.steps import DEREF, AttrStep
        for corrupt in ("missing", "deref", "attr"):
            s = DocumentStore(ARTICLE_DTD, backend="algebra")
            s.load_text(SAMPLE_ARTICLE, name="doc")
            index = s.build_structural_index()
            block = index.blocks["doc"]
            title = block.attr_steps["title"][0]
            if corrupt == "missing":
                block.steps[title] = None
            elif corrupt == "deref":
                block.steps[title] = DEREF  # its parent is no oid
            else:
                block.steps[title] = AttrStep("abstract")
            faults = verify_structural_index(index)
            assert faults and all(f.code == "PC-INDEX" for f in faults)
