"""Q2 — iteration through the implicit selector of a union-typed
section, and ``contains`` over subsections through ``text()``."""

import pytest

from tests.experiments.conftest import build_corpus_store

Q2 = """
    select ss
    from a in Articles, s in a.sections, ss in s.subsectns
    where ss contains ("complex object")
"""

ALL_SUBSECTIONS = """
    select ss
    from a in Articles, s in a.sections, ss in s.subsectns
"""


@pytest.fixture(scope="module")
def store():
    return build_corpus_store(20)


def test_q2(store):
    result = store.query(Q2)
    assert result
    for subsection in result:
        assert subsection.class_name == "Subsectn"
        assert "complex object" in store.text(subsection)


def test_q2_union_iteration_only(store):
    # the a1-marked sections are skipped: exactly the subsections of
    # the a2-marked ones come out
    expected = set()
    for section_oid in store.instance.disjoint_extent("Section"):
        section = store.instance.deref(section_oid)
        if section.marker == "a2":
            expected.update(section.marked_value.get("subsectns"))
    assert expected
    assert set(store.query(ALL_SUBSECTIONS)) == expected


def test_q2_text_inverse(store):
    texts = [store.text(ss) for ss in store.query(ALL_SUBSECTIONS)]
    assert all(isinstance(t, str) and t for t in texts)
