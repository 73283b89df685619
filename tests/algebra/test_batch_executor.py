"""The batch execution protocol.

Operators exchange column batches (:mod:`repro.algebra.batch`): one
``batch(ctx)`` call per operator per execution instead of a generator
of binding dicts.  Plans did not change, so everything a plan *does* —
rows per operator, index and store counters, the result and its order —
must equal what the row-at-a-time executor did.  The goldens in
``batch_executor_goldens.json`` were taken from that executor (the
parent commit of the batch PR) by running this file as a script with
the parent's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=<parent>/src python tests/algebra/test_batch_executor.py

and retaken the same way when the ``contains`` kernel started reading
the text index (PR 19): operator rows, result order and the structural
and store counters are the row executor's still; of the ``contains``
counters, ``calculus.atoms`` and ``algebra.contains_rechecks`` fell to
the rows that are really interpreted / re-tokenised, and
``algebra.contains_index_answered`` counts the rest.  When the
compiler stopped building the strategy a store does not serve, only
the fresh-variable numbers in the labels changed (``_nav203`` became
``_nav3``); classes, rows and counters are the same.

These tests pin

* the protocol on every concrete operator class (the
  ``__subclasses__()`` walk of ``test_operator_protocol``),
* per-operator rows and the work counters of the seven e2e query
  classes,
* late materialization: a path nobody reads is never built,
* result *order* (not just content) over the diffcheck generator, for
  factored, structural and SQL-hybrid plans,
* that an error mid-plan keeps its class and leaves no memo behind.
"""

import hashlib
import json
from pathlib import Path as FilePath

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DocumentStore
from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.algebra.optimizer import optimize
from repro.algebra.operators import (
    BindOp,
    Operator,
    ProjectOp,
    SeedOp,
    SharedOp,
    StructuralScanOp,
    UnionOp,
)
from repro.calculus.terms import Const, DataVar, Name, PathVar
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.diffcheck.generator import QueryGenerator
from repro.diffcheck.harness import DiffHarness, _error_label
from repro.errors import EvaluationError
from repro.paths.steps import Path

GOLDENS = FilePath(__file__).with_name("batch_executor_goldens.json")

#: The seven query classes of ``benchmarks/e2e/spec.json``.
QUERY_CLASSES = {
    "q1_contains": 'select s.title from a in Articles, s in a.sections '
                   'where s.title contains ("SGML")',
    "nav_join": "select ss from a in Articles, s in a.sections, "
                "ss in s.subsectns",
    "titles": "select a.title from a in Articles",
    "path_titles": "select t from a in Articles, a PATH_p.title(t)",
    "q2_path_contains": 'select p from a in Articles, a PATH_p.paragr(p) '
                        'where p contains ("complex object")',
    "q3_root_path": "select t from my_article PATH_p.title(t)",
    "q5_attvar": 'select name(ATT_a) from my_article PATH_p.ATT_a(val) '
                 'where val contains ("final")',
}

#: Counters that measure work per result: a batch may add ``n`` at
#: once, but the totals are the row executor's.
COUNTERS = ("structindex.nodes_scanned", "structindex.range_scans",
            "oodb.derefs", "algebra.index_pruned",
            "algebra.contains_rechecks",
            "algebra.contains_index_answered", "calculus.atoms")

ORDER_SEED = 1606
ORDER_CASES = 120
ORDER_CONFIGS = ("factored", "structural", "sql")


def build_store() -> DocumentStore:
    store = DocumentStore(ARTICLE_DTD, backend="algebra",
                          structural=True)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for tree in generate_corpus(40, seed=42):
        store.load_tree(tree, validate=False)
    store.build_text_index()
    return store


def profile_of(store: DocumentStore, text: str) -> dict:
    """Per-operator actual rows (plan pre-order) and the work
    counters of one warm execution: the plan is cached."""
    store.query(text)
    report = store.explain_analyze(text)
    counters = report.metrics["counters"]
    return {
        "operators": [[node["label"], node["rows"]]
                      for node in report.operators()],
        "counters": {name: counters.get(name, 0) for name in COUNTERS},
    }


def order_digests(harness: DiffHarness, index: int) -> dict:
    """One digest per config of the result *sequence* (or the error
    label) of the ``index``-th generated case.  ``structural`` and
    ``sql`` are the harness stores' served plans; ``factored`` is the
    plain pipeline, i.e. ``optimize`` called directly."""
    case = QueryGenerator(ORDER_SEED).case(index)
    stores = harness.stores_for(case.corpus)
    plain = stores["algebra"]._engine

    def served(engine):
        return engine.execute(engine.compile(case.query))

    runs = {
        "factored": lambda: execute_plan(
            optimize(compile_query(case.query, plain.instance.schema,
                                   structural=False),
                     verify="raise", query=case.query),
            plain.ctx.fork()),
        "structural": lambda: served(stores["structural"]._engine),
        "sql": lambda: served(stores["sql"]._engine),
    }
    digests = {}
    for name in ORDER_CONFIGS:
        try:
            result = runs[name]()
        except Exception as exc:
            digests[name] = _error_label(exc)
            continue
        rendered = "\n".join(repr(value) for value in result)
        digests[name] = hashlib.md5(rendered.encode()).hexdigest()
    return digests


def failing_plan() -> ProjectOp:
    """A DAG whose second branch overruns ``max_paths`` after its
    first has filled the shared memo."""
    x, y = DataVar("x"), DataVar("y")
    shared = SharedOp(BindOp(SeedOp(), x, Name("my_article")),
                      ref_count=2, shared_id=1)
    return ProjectOp(UnionOp([
        BindOp(shared, y, Const(1)),
        StructuralScanOp(shared, x, PathVar("P"), DataVar("v")),
    ]), [x])


def error_class_of(store: DocumentStore) -> str:
    ctx = store._engine.ctx.fork()
    ctx.max_paths = 3
    try:
        execute_plan(failing_plan(), ctx)
    except Exception as exc:
        return type(exc).__name__
    return "no error"


def make_goldens() -> dict:
    store = build_store()
    harness = DiffHarness()
    return {
        "profiles": {name: profile_of(store, text)
                     for name, text in QUERY_CLASSES.items()},
        "order": [order_digests(harness, index)
                  for index in range(ORDER_CASES)],
        "error_class": error_class_of(store),
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@pytest.fixture(scope="module")
def store() -> DocumentStore:
    return build_store()


@pytest.fixture(scope="module")
def harness() -> DiffHarness:
    return DiffHarness()


class TestProtocol:
    def test_every_operator_implements_batch(self):
        from tests.algebra.test_operator_protocol import operator_classes
        classes = operator_classes()
        assert len(classes) == 15
        for cls in classes:
            assert "batch" in vars(cls), cls.__name__
            assert not hasattr(cls, "_rows"), cls.__name__
            assert not hasattr(cls, "rows"), cls.__name__

    def test_base_operator_has_no_default(self, store):
        with pytest.raises(NotImplementedError):
            Operator.batch(SeedOp(), store._engine.ctx.fork())


class TestSameWorkAsTheRowExecutor:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_operator_rows_and_counters(self, store, goldens, name):
        assert (profile_of(store, QUERY_CLASSES[name])
                == goldens["profiles"][name])


class TestLateMaterialization:
    @pytest.fixture()
    def built(self, monkeypatch):
        """Count ``Path._unsafe`` calls — how every relative path of a
        structural scan is made."""
        calls = []
        unsafe = Path._unsafe.__func__

        def counting(cls, steps):
            calls.append(steps)
            return unsafe(cls, steps)

        monkeypatch.setattr(Path, "_unsafe", classmethod(counting))
        return calls

    def test_unread_path_variable_is_never_built(self, store, built):
        text = QUERY_CLASSES["path_titles"]
        expected = store.query(text)
        del built[:]
        # PATH_p is bound by the scan (1000+ rows) and read by nobody
        assert store.query(text) == expected
        assert built == []

    def test_head_path_variable_is_built_at_the_head(self, store,
                                                     built):
        text = "select PATH_p from my_article PATH_p.title(t)"
        store.query(text)
        del built[:]
        report = store.explain_analyze(text)
        scanned = report.rows_for("StructuralAttrScanOp")
        assert scanned == [8]
        # one path per row that reaches the projection, none before
        assert len(built) == 8
        assert len(report.result) == 8


class TestResultOrder:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(index=st.integers(0, ORDER_CASES - 1))
    def test_same_sequence_as_the_row_executor(self, harness, goldens,
                                               index):
        assert order_digests(harness, index) == goldens["order"][index]


class TestErrorsMidPlan:
    def test_same_class_and_no_memo_left(self, store, goldens):
        assert error_class_of(store) == goldens["error_class"]
        ctx = store._engine.ctx.fork()
        ctx.max_paths = 3
        with pytest.raises(EvaluationError):
            execute_plan(failing_plan(), ctx)
        assert ctx.shared_memo is None
        # the context is reusable: same plan, budget lifted
        ctx.max_paths = None
        assert len(execute_plan(failing_plan(), ctx)) == 1


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(make_goldens(), indent=1) + "\n")
    print(f"wrote {GOLDENS}")
