"""Replay every checked-in minimized repro (tier-1 regressions).

Each fixture under ``fixtures/`` is a divergence diffcheck once found
and minimized; replaying it green on every run is the policy that a
fixed divergence stays fixed.  The ``sel_attvar_union_content``
fixture is the ISSUE-5 bug: an unbound attribute variable over marked
union content (the calculus used to miss the payload attributes the
implicit selector reaches).
"""

import glob
import os

import pytest

from repro.calculus.terms import AttVar, Sel
from repro.diffcheck import (
    DiffHarness,
    decode_query,
    encode_query,
    load_fixture,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURES = sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.json")))


def _ids(paths):
    return [os.path.splitext(os.path.basename(p))[0] for p in paths]


class TestReplay:
    def test_fixture_directory_is_populated(self):
        assert FIXTURES, "the Sel(AttVar) regression fixture must exist"

    @pytest.mark.parametrize("path", FIXTURES, ids=_ids(FIXTURES))
    def test_fixture_no_longer_diverges(self, path):
        spec, query, _ = load_fixture(path)
        comparison = DiffHarness().compare(spec, query)
        assert not comparison.divergent, comparison.report()

    @pytest.mark.parametrize("path", FIXTURES, ids=_ids(FIXTURES))
    def test_fixture_roundtrips(self, path):
        """decode∘encode is the identity on checked-in fixtures."""
        _, query, _ = load_fixture(path)
        assert decode_query(encode_query(query)) == query


class TestSelAttVarRegression:
    """The ISSUE-5 repro, pinned in detail (beyond mere agreement)."""

    def _load(self):
        path = os.path.join(FIXTURE_DIR, "sel_attvar_union_content.json")
        return load_fixture(path)

    def test_shape_is_the_minimized_repro(self):
        _, query, meta = self._load()
        assert "Sel(AttVar)" in meta["issue"] \
            or "attribute variable" in meta["issue"]
        atoms = [c for c in query.formula.conjuncts
                 if hasattr(c, "path")]
        [atom] = atoms
        assert any(isinstance(c, Sel) and isinstance(c.attribute, AttVar)
                   for c in atom.path.components)

    def test_attvar_values_over_union_payload_attributes(self):
        """The fixed semantics, pinned directly: an unbound attribute
        variable applied to a marked Section value must value over the
        marker *and* the payload attributes the implicit selector
        reaches (title/bodies/subsectns) — the pre-fix calculus stopped
        at the marker."""
        from repro.calculus.evaluator import evaluate_query
        from repro.calculus.formulas import And, In, PathAtom, Query
        from repro.calculus.terms import (
            DataVar, Index, Name, PathTerm,
        )
        spec, _, _ = self._load()
        harness = DiffHarness()
        store = harness.stores_for(spec)["algebra"]
        article, attvar = DataVar("a"), AttVar("A")
        query = Query([article, attvar], And(
            In(article, Name("Articles")),
            PathAtom(article, PathTerm(
                [Sel("sections"), Index(0), Sel(attvar)]))))
        result = evaluate_query(query, store._engine.ctx.fork())
        names = {row.get("A") for row in result}
        assert names & {"a1", "a2"}        # the marker itself
        assert "title" in names            # payload, behind the marker
        assert "bodies" in names           # the pre-fix miss
        # and the backends agree on it end to end
        comparison = harness.compare(spec, query)
        assert not comparison.divergent, comparison.report()
