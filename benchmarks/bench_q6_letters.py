"""Experiment Q6 — ordered tuples queried by attribute position.

    select letter
    from letter in Letters, letter[i].from, letter[j].to
    where i < j

Run on the paper's 5-letter database (result pinned) and on synthetic
corpora of growing size.
"""

import pytest

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


def test_bench_q6_paper_database(benchmark, paper_engine, capsys):
    result = benchmark(paper_engine.run, Q6)
    assert len(result) == 3
    assert all(letter.marker == "a1" for letter in result)
    with capsys.disabled():
        print("\n[Q6] 3 of 5 sample letters have the sender before "
              "the recipient (the a1-marked ones)")


@pytest.mark.parametrize("size", [100, 400])
def test_bench_q6_scaling(benchmark, size, capsys):
    engine = QueryEngine(build_letters_database(generate_letters(size)))
    result = benchmark(engine.run, Q6)
    # cross-check against the markers
    expected = sum(
        1 for letter in engine.instance.root("Letters")
        if letter.marker == "a1")
    assert len(result) == expected
    with capsys.disabled():
        print(f"\n[Q6-scale] {len(result)} of {size} letters are "
              "sender-first")


def test_bench_q6_algebra(benchmark, paper_engine):
    from repro.algebra.compile import compile_query
    from repro.algebra.execute import execute_plan
    plan = compile_query(paper_engine.translate(Q6),
                         paper_engine.instance.schema)
    result = benchmark(execute_plan, plan, paper_engine.ctx)
    assert len(result) == 3


def test_bench_q6_dagger_calculus_form(benchmark, paper_engine):
    """The explicit (†) form with an attribute variable (Section 5.3)."""
    from repro.calculus import (
        And, AttVar, Bind, DataVar, Exists, Index, Name, PathAtom,
        PathTerm, Pred, Query, Sel, evaluate_query)
    Y, I, J, K = (DataVar(n) for n in "YIJK")
    A = AttVar("A")
    dagger = Query([Y], Exists([A, I, J, K], And(
        PathAtom(Name("Letters"), PathTerm([
            Index(I), Sel(A), Bind(Y), Index(J), Sel("to")])),
        PathAtom(Name("Letters"), PathTerm([
            Index(I), Sel(A), Index(K), Sel("from")])),
        Pred("lt", [J, K]))))
    result = benchmark(evaluate_query, dagger, paper_engine.ctx)
    assert len(result) == 2  # recipients-first letters (to before from)
