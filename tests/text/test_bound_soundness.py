"""A posting bound of zero proves an empty probe.

Unions skip a branch only when its ``contains`` select's index probe
comes back empty; no plan-time stage prunes one.  That is sound to rely
on because :meth:`repro.stats.Statistics.candidate_upper_bound`, read
from document frequencies alone, is an upper bound on what
:meth:`repro.text.TextIndex.probe` returns: whenever the bound is
``0``, the probe finds no key.  Checked over generated pattern
expressions — literal and absent words, regex words, phrases,
``and``/``or``/``not`` — on random indexes and on the index a store
builds over a generated corpus.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD
from repro.corpus.generator import generate_corpus
from repro.stats import Statistics
from repro.text import TextIndex
from repro.text.patterns import AndExpr, NotExpr, OrExpr, Pattern

WORDS = ["sgml", "oodb", "path", "query", "union", "tuple", "schema",
         "SGML", "Documents", "complex", "object", "final"]
#: Words no document of either index holds.
ABSENT = ["zeugma", "quixotic", "xyzzynotthere"]
#: Regex words: no literal to bound them by.
REGEX = ["s.*", "SG.*", "(path|query)"]

documents = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=10).map(
        " ".join),
    min_size=1, max_size=8)


@st.composite
def expressions(draw, depth=3):
    kind = draw(st.integers(0, 5 if depth else 1))
    if kind == 0:
        return Pattern(draw(st.sampled_from(WORDS + ABSENT + REGEX)))
    if kind == 1:
        return Pattern(" ".join(draw(st.lists(
            st.sampled_from(WORDS + ABSENT + REGEX),
            min_size=2, max_size=3))))
    if kind == 2:
        return NotExpr(draw(expressions(depth - 1)))
    left = draw(expressions(depth - 1))
    right = draw(expressions(depth - 1))
    return (AndExpr if kind in (3, 4) else OrExpr)(left, right)


def assert_zero_bound_proves_empty(index, expression):
    bound = Statistics(text_index=index).candidate_upper_bound(expression)
    keys, _ = index.probe(expression)
    if bound == 0:
        assert keys is not None and not keys, (str(expression), keys)
    if bound is not None and keys is not None:
        assert len(keys) <= bound, (str(expression), bound, len(keys))


@lru_cache(maxsize=1)
def corpus_index():
    store = DocumentStore(ARTICLE_DTD)
    for tree in generate_corpus(6, seed=42):
        store.load_tree(tree, validate=False)
    return store.build_text_index()


@settings(max_examples=300, deadline=None)
@given(texts=documents, expression=expressions())
def test_zero_bound_proves_an_empty_probe(texts, expression):
    index = TextIndex()
    for key, text in enumerate(texts):
        index.add(key, text)
    assert_zero_bound_proves_empty(index, expression)


@settings(max_examples=200, deadline=None)
@given(expression=expressions())
def test_zero_bound_proves_an_empty_probe_on_a_store(expression):
    assert_zero_bound_proves_empty(corpus_index(), expression)


def test_an_absent_conjunct_bounds_at_zero():
    index = corpus_index()
    absent = AndExpr(Pattern("SGML"), Pattern("zeugma"))
    assert Statistics(text_index=index).candidate_upper_bound(absent) == 0
    keys, exact = index.probe(absent)
    assert exact and not keys
