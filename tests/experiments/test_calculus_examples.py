"""C1–C8 — the Section-5 calculus examples on the Knuth_Books and
Letters databases, with the static checks they pass through."""

import pytest

from repro.calculus import (
    And,
    AttVar,
    Bind,
    Const,
    DataVar,
    Eq,
    EvalContext,
    Exists,
    FunTerm,
    In,
    Index,
    Name,
    PathApply,
    PathAtom,
    PathTerm,
    PathVar,
    Pred,
    Query,
    Sel,
    check_safety,
    evaluate_query,
    infer_types,
)
from repro.corpus.knuth import build_knuth_database, knuth_schema
from repro.corpus.letters import build_letters_database
from repro.oodb.types import UnionType

X, Y, I, J, K = (DataVar(n) for n in "XYIJK")
P = PathVar("P")
A = AttVar("A")


@pytest.fixture(scope="module")
def knuth_ctx():
    return EvalContext(build_knuth_database())


@pytest.fixture(scope="module")
def letters_ctx():
    return EvalContext(build_letters_database())


def c1_query():
    """In which attribute can "Jo" be found?"""
    return Query([A], Exists([P, X], And(
        PathAtom(Name("Knuth_Books"), PathTerm([P, Sel(A), Bind(X)])),
        Eq(X, Const("Jo")))))


def test_c1_attribute_of_jo(knuth_ctx):
    assert set(evaluate_query(c1_query(), knuth_ctx)) == {"author"}


def test_c2_paths_to_jo(knuth_ctx):
    query = Query([P], Exists([X], And(
        PathAtom(Name("Knuth_Books"), PathTerm([P, Bind(X)])),
        Eq(X, Const("Jo")))))
    assert len(evaluate_query(query, knuth_ctx)) == 1


def test_c5_length_restricted(knuth_ctx):
    query = Query([X], Exists([P, A], And(
        PathAtom(Name("Knuth_Books"), PathTerm([P, Sel(A), Bind(X)])),
        Pred("contains", [FunTerm("name", [A]), Const("(t|T)itle")]),
        Pred("lt", [FunTerm("length", [P]), Const(3)]))))
    assert "Fundamental Algorithms" in set(
        evaluate_query(query, knuth_ctx))


def test_c6_review_restriction(knuth_ctx):
    query = Query([X], Exists([P], And(
        PathAtom(Name("Knuth_Books"),
                 PathTerm([P, Bind(X), Sel("title")])),
        In(Const("D. Scott"), PathApply(X, PathTerm([Sel("review")]))))))
    assert len(evaluate_query(query, knuth_ctx)) >= 3


def test_c8_letters_dagger(letters_ctx):
    query = Query([Y], Exists([A, I, J, K], And(
        PathAtom(Name("Letters"), PathTerm([
            Index(I), Sel(A), Bind(Y), Index(J), Sel("to")])),
        PathAtom(Name("Letters"), PathTerm([
            Index(I), Sel(A), Index(K), Sel("from")])),
        Pred("lt", [J, K]))))
    assert len(evaluate_query(query, letters_ctx)) == 2


def test_safety_analysis():
    # C1 is range-restricted: the check returns without raising
    assert check_safety(c1_query()) is None


def test_type_inference():
    # the α-union construction of Section 5.3
    query = Query([X], Exists([P], PathAtom(
        Name("Knuth_Books"), PathTerm([P, Bind(X), Sel("title")]))))
    assert isinstance(infer_types(query, knuth_schema())[X], UnionType)
