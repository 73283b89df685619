"""Backend parity (Q1–Q6) plus golden EXPLAIN ANALYZE snapshots.

Both query backends — the calculus interpreter and the Section-5.4
algebra compiler (run through the *full* engine pipeline, optimizer
included) — must return identical result sets for the paper's queries.
The algebra plans themselves are pinned as golden snapshots: operator
spines and the exact set of variable-free navigation chains that a
path variable expands into.
"""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.letters import build_letters_database
from repro.o2sql import QueryEngine

Q1 = """
    select tuple (t: a.title, f_author: first(a.authors))
    from a in Articles, s in a.sections
    where s.title contains ("SGML" and "OODBMS")
"""
Q2 = "select ss from a in Articles, s in a.sections, ss in s.subsectns"
Q3 = "select t from my_article PATH_p.title(t)"
Q4 = "my_article PATH_p - my_old_article PATH_p"
Q5 = """
    select name(ATT_a) from my_article PATH_p.ATT_a(val)
    where val contains ("final")
"""
Q6 = """
    select letter
    from letter in Letters, letter[i].from, letter[j].to
    where i < j
"""

PAPER_QUERIES = {"Q1": Q1, "Q2": Q2, "Q3": Q3, "Q4": Q4, "Q5": Q5}


@pytest.fixture(scope="module")
def store():
    """One instance, two engines — oids are shared, so result sets are
    directly comparable across backends.  The algebra store compiles
    the ``structural=False`` union-of-plans the golden plans pin."""
    s = DocumentStore(ARTICLE_DTD, backend="algebra", structural=False)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    s.load_text(SAMPLE_ARTICLE, name="my_old_article")
    return s


@pytest.fixture(scope="module")
def calculus_engine(store):
    return QueryEngine(store.instance, backend="calculus")


class TestBackendParity:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_identical_result_sets(self, store, calculus_engine, name):
        text = PAPER_QUERIES[name]
        assert store.query(text) == calculus_engine.run(text)

    def test_q6_letters_on_both_backends(self):
        database = build_letters_database()
        algebra = QueryEngine(database, backend="algebra")
        calculus = QueryEngine(database, backend="calculus")
        algebra_result = algebra.run(Q6)
        assert algebra_result == calculus.run(Q6)
        assert len(algebra_result) == 3


class TestGoldenAlgebraPlans:
    def test_q1_operator_spine(self, store):
        report = store.explain_analyze(Q1)
        assert [node["operator"] for node in report.operators()] == [
            "ProjectOp", "BindOp", "SelectOp",
            "UnnestOp", "UnnestOp", "SeedOp"]
        # the seed emits one row (the Articles root set); the first
        # Unnest fans it out into the two loaded copies
        rows = {node["operator"]: node["rows"]
                for node in report.operators()}
        assert rows["SeedOp"] == 1
        assert rows["ProjectOp"] == rows["SelectOp"]

    def test_q3_path_variable_expansion(self, store):
        """The golden snapshot of Section 5.4's variable elimination:
        PATH_p.title on Figure 3 expands into exactly these 14
        variable-free navigation chains."""
        report = store.explain_analyze(Q3)
        normalized = sorted(
            _strip_positions(node["label"].split(" = ", 1)[1])
            for node in report.operators()
            if node["operator"] == "MakePathOp")
        assert normalized == [
            "->",
            "->.sections[*]",
            "->.sections[*]->",
            "->.sections[*]->.a1",
            "->.sections[*]->.a1.bodies[*]->.figure->.label[*]",
            "->.sections[*]->.a1.bodies[*]->.paragr->.reflabel",
            "->.sections[*]->.a2",
            "->.sections[*]->.a2.bodies[*]->.figure->.label[*]",
            "->.sections[*]->.a2.bodies[*]->.paragr->.reflabel",
            "->.sections[*]->.a2.subsectns[*]",
            "->.sections[*]->.a2.subsectns[*]->",
            "->.sections[*]->.a2.subsectns[*]->.bodies[*]"
            "->.figure->.label[*]",
            "->.sections[*]->.a2.subsectns[*]->.bodies[*]"
            "->.paragr->.reflabel",
            "ε",
        ]

    def test_q3_actual_rows(self, store):
        report = store.explain_analyze(Q3)
        assert report.union_fanouts() == [14]
        assert report.rows_for("UnionOp") == [8]
        assert report.rows_for("ProjectOp") == [3]

    def test_q4_difference_plan_yields_empty(self, store):
        report = store.explain_analyze(Q4)
        # the two loaded copies are identical documents
        assert len(report.result) == 0
        assert report.rows_for("ProjectOp") == [0]

    def test_q6_letters_plan_rows(self):
        engine = QueryEngine(build_letters_database(), backend="algebra")
        report = engine.explain_analyze(Q6)
        assert report.rows_for("ProjectOp") == [3]
        assert report.trace.attributes["rows"] == 3


def _strip_positions(template: str) -> str:
    """Replace generated positional variables (``[_pos282]``) with
    ``[*]`` so the golden snapshot does not depend on parser token
    offsets."""
    import re
    return re.sub(r"\[_pos\d+\]", "[*]", template)
