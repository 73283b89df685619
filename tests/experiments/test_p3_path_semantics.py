"""P3 — restricted vs liberal path semantics (Section 5.2): on the
acyclic article the two coincide; on a cyclic ring the restricted
enumeration is bounded by the schema, the liberal one by the data."""

import pytest

from repro.o2sql import QueryEngine
from repro.oodb import (
    Instance,
    STRING,
    TupleValue,
    c,
    schema_from_classes,
    tuple_of,
)
from repro.paths.enumeration import LIBERAL, RESTRICTED, enumerate_paths


def build_ring(size: int):
    """A ring of ``size`` nodes, each linking to the next."""
    schema = schema_from_classes(
        {"Node": tuple_of(("label", STRING), ("next", c("Node")))},
        roots={"entry": c("Node")})
    db = Instance(schema)
    nodes = [db.new_object("Node") for _ in range(size)]
    for position, node in enumerate(nodes):
        db.set_value(node, TupleValue([
            ("label", f"n{position}"),
            ("next", nodes[(position + 1) % size])]))
    db.set_root("entry", nodes[0])
    return db, nodes[0]


@pytest.mark.parametrize("semantics", [RESTRICTED, LIBERAL])
def test_p3_article_enumeration(semantics, figure2_store):
    # no object of the article is reachable twice, and no class is
    # dereferenced twice along one path: both semantics see every path
    instance = figure2_store.instance
    article = instance.root("my_article")
    other = LIBERAL if semantics == RESTRICTED else RESTRICTED
    paths = enumerate_paths(article, instance, semantics)
    assert len(paths) > 20
    assert sorted(map(str, paths)) == sorted(
        map(str, enumerate_paths(article, instance, other)))


@pytest.mark.parametrize("semantics,size", [
    (RESTRICTED, 4), (LIBERAL, 4),
    (RESTRICTED, 16), (LIBERAL, 16),
    (RESTRICTED, 64), (LIBERAL, 64),
])
def test_p3_ring_enumeration(semantics, size):
    db, entry = build_ring(size)
    paths = enumerate_paths(entry, db, semantics)
    if semantics == RESTRICTED:
        # schema-bounded: one Node dereference, independent of size
        assert len(paths) <= 6
    else:
        # data-bounded: grows linearly with the ring
        assert len(paths) >= 3 * size


def test_p3_query_under_each_semantics():
    db, _ = build_ring(16)
    query = "select x from entry PATH_p.label(x)"
    # liberal: every node's label; restricted: entry and one hop
    assert len(QueryEngine(db, path_semantics=LIBERAL).run(query)) == 16
    assert len(QueryEngine(db, path_semantics=RESTRICTED).run(query)) == 2
