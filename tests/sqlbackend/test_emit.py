"""Unit tests for the plan->SQL emitter (`repro.sqlbackend.emit`)."""

import pytest

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.calculus.formulas import Pred
from repro.calculus.terms import Const, DataVar
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import SQLUnsupportedError
from repro.sqlbackend.emit import (
    Emitter,
    Fragment,
    ValCol,
    emit_program,
)


def build_store():
    store = DocumentStore(ARTICLE_DTD, backend="algebra")
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    store.build_structural_index()
    return store


def compiled(store, text):
    engine = store._engine
    query = engine.translate(text)
    return compile_query(query, store.schema,
                         path_semantics="restricted")


class TestEmitProgram:
    def test_whole_plan_root_is_outside_the_subset(self):
        # emit_program compiles one operator subtree; the ProjectOp
        # root belongs to the hybridizer, never the emitter
        store = build_store()
        plan = compiled(store, "select t from my_article PATH_p.title(t)")
        with pytest.raises(SQLUnsupportedError,
                           match="relational subset"):
            emit_program(plan, store.instance.root_names)

    def test_structural_path_plan_emits_one_statement(self):
        store = build_store()
        engine = store._engine
        query = engine.translate("select t from my_article PATH_p.title(t)")
        from repro.algebra.optimizer import optimize
        plan = optimize(
            compile_query(query, store.schema,
                          path_semantics="restricted"),
            verify="raise", query=query)
        program = emit_program(plan.child, store.instance.root_names)
        assert program.sql.startswith("WITH ")
        assert program.has_scans
        assert "SELECT" in program.sql
        assert program.roots <= frozenset(store.instance.root_names)
        assert program.columns  # at least the head variable survives
        # the statement actually runs on the live shred
        from repro.sqlbackend.shred import Shred
        from repro.structindex import StructuralIndex
        shred = Shred(StructuralIndex(store.instance,
                                      epoch_source=store.plan_cache))
        shred.refresh()
        names, rows, _ = shred.execute(program.sql, program.params)
        assert rows


class TestContainsPrefilter:
    def _fragment(self, emitter, variable):
        name = emitter._cte(
            "SELECT root AS vr, pre AS vp, 'n' AS vm FROM node")
        columns = {variable: ValCol("vr", "vp", "vm",
                                    frozenset(("n", "h")))}
        return Fragment(name, columns)

    def test_non_contains_atom_is_left_alone(self):
        emitter = Emitter()
        x = DataVar("x")
        fragment = self._fragment(emitter, x)
        atom = Pred("near", [x, Const("a"), Const("b"), Const(2)])
        assert emitter.contains_prefilter(fragment, atom) is None
        assert emitter.prefilters == 0

    def test_unbound_subject_is_left_alone(self):
        emitter = Emitter()
        fragment = self._fragment(emitter, DataVar("x"))
        atom = Pred("contains", [DataVar("y"), Const("word")])
        assert emitter.contains_prefilter(fragment, atom) is None

    def test_required_words_narrow_with_passthrough(self):
        emitter = Emitter()
        x = DataVar("x")
        fragment = self._fragment(emitter, x)
        atom = Pred("contains", [x, Const("complex object")])
        narrowed = emitter.contains_prefilter(fragment, atom)
        assert narrowed is not None
        assert emitter.prefilters == 1
        assert narrowed.columns == fragment.columns
        _, sql = emitter.ctes[-1]
        # exact, case-sensitive substring probes...
        assert "instr(" in sql
        # ...that only ever drop *string atoms*: rows whose subject has
        # no content row (oids, tuples, wrappers) must pass through,
        # because calculus contains() routes them through text()
        assert "!= 'n'" in sql
        assert "NOT EXISTS" in sql

    def test_disjunction_requires_nothing(self):
        # "a" or "b": neither word is required, so no sound prefilter
        emitter = Emitter()
        x = DataVar("x")
        fragment = self._fragment(emitter, x)
        atom = Pred("contains", [x, Const('"alpha" or "beta"')])
        assert emitter.contains_prefilter(fragment, atom) is None
        assert emitter.prefilters == 0
