"""Q6 — ordered tuples queried by attribute position, on the paper's
five letters and on generated letter corpora."""

import pytest

from repro.algebra.compile import compile_query
from repro.algebra.execute import execute_plan
from repro.calculus import (
    And,
    AttVar,
    Bind,
    DataVar,
    Exists,
    Index,
    Name,
    PathAtom,
    PathTerm,
    Pred,
    Query,
    Sel,
    evaluate_query,
)
from repro.corpus.letters import build_letters_database, generate_letters
from repro.o2sql import QueryEngine

Q6 = """
    select letter
    from letter in Letters, letter[i].from, letter[j].to
    where i < j
"""


@pytest.fixture(scope="module")
def paper_engine():
    return QueryEngine(build_letters_database())


def test_q6_paper_database(paper_engine):
    result = paper_engine.run(Q6)
    assert len(result) == 3
    assert all(letter.marker == "a1" for letter in result)


@pytest.mark.parametrize("size", [100, 400])
def test_q6_scaling(size):
    engine = QueryEngine(build_letters_database(generate_letters(size)))
    expected = sum(1 for letter in engine.instance.root("Letters")
                   if letter.marker == "a1")
    assert len(engine.run(Q6)) == expected


def test_q6_algebra(paper_engine):
    plan = compile_query(paper_engine.translate(Q6),
                         paper_engine.instance.schema)
    assert execute_plan(plan, paper_engine.ctx) == paper_engine.run(Q6)


def test_q6_dagger_calculus_form(paper_engine):
    """The explicit (†) form with an attribute variable (Section 5.3):
    the recipients of the letters written to-before-from."""
    Y, I, J, K = (DataVar(n) for n in "YIJK")
    A = AttVar("A")
    dagger = Query([Y], Exists([A, I, J, K], And(
        PathAtom(Name("Letters"), PathTerm([
            Index(I), Sel(A), Bind(Y), Index(J), Sel("to")])),
        PathAtom(Name("Letters"), PathTerm([
            Index(I), Sel(A), Index(K), Sel("from")])),
        Pred("lt", [J, K]))))
    assert len(evaluate_query(dagger, paper_engine.ctx)) == 2
