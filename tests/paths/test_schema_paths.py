"""Tests for type-level path enumeration (algebraization support)."""

import pytest

from repro.oodb import (
    STRING,
    c,
    list_of,
    schema_from_classes,
    set_of,
    tuple_of,
    union_of,
)
from repro.paths import enumerate_schema_paths
from repro.paths.schema_paths import (
    SchemaAttr,
    SchemaDeref,
    SchemaElem,
    SchemaIndex,
)


@pytest.fixture
def schema():
    return schema_from_classes(
        {"Title": STRING,
         "Section": union_of(
             ("a1", tuple_of(("title", c("Title")),
                             ("bodies", list_of(STRING)))),
             ("a2", tuple_of(("title", c("Title")),
                             ("subsectns", list_of(c("Subsectn")))))),
         "Subsectn": tuple_of(("title", c("Title"))),
         "Article": tuple_of(
             ("title", c("Title")),
             ("sections", list_of(c("Section"))))},
        roots={"Articles": list_of(c("Article"))})


class TestEnumeration:
    def test_starts_with_empty_path(self, schema):
        paths = enumerate_schema_paths(schema, c("Article"))
        assert len(paths[0]) == 0
        assert paths[0].target == c("Article")

    def test_crosses_markers_and_collections(self, schema):
        paths = enumerate_schema_paths(schema, c("Article"))
        rendered = {str(p) for p in paths}
        assert ("->(Article).sections[*]->(Section).a1.title : Title"
                in rendered)
        assert ("->(Article).sections[*]->(Section).a2.subsectns[*]"
                "->(Subsectn).title : Title" in rendered)

    def test_restricted_no_class_crossed_twice(self, schema):
        for schema_path in enumerate_schema_paths(schema, c("Article")):
            crossed = [s.class_name for s in schema_path.steps
                       if isinstance(s, SchemaDeref)]
            assert len(crossed) == len(set(crossed))

    def test_recursive_schema_terminates(self):
        recursive = schema_from_classes({
            "Person": tuple_of(("name", STRING),
                               ("spouse", c("Person")))})
        paths = enumerate_schema_paths(recursive, c("Person"))
        # -> .spouse stops before a second Person dereference
        assert max(len(p) for p in paths) <= 3
        assert any(str(p).endswith(".spouse : Person") for p in paths)

    def test_set_elements_enumerated(self):
        schema = schema_from_classes(
            {"A": set_of(STRING)})
        paths = enumerate_schema_paths(schema, c("A"))
        assert any(isinstance(s, SchemaElem)
                   for p in paths for s in p.steps)

    def test_atomic_root_yields_only_empty(self, schema):
        paths = enumerate_schema_paths(schema, STRING)
        assert len(paths) == 1


class TestAttributeTargets:
    def test_last_attribute_property(self, schema):
        paths = enumerate_schema_paths(schema, c("Article"))
        with_title = [p for p in paths if p.last_attribute == "title"]
        assert with_title
        for p in with_title:
            assert isinstance(p.steps[-1], SchemaAttr)
            assert p.target == c("Title")

    def test_subclass_dereference(self):
        schema = schema_from_classes(
            {"Text": STRING, "Title": STRING,
             "Doc": tuple_of(("t", c("Text")))},
            parents={"Title": ["Text"]})
        paths = enumerate_schema_paths(schema, c("Doc"))
        rendered = {str(p) for p in paths}
        # a Text-typed attribute may hold a Title oid: both derefs appear
        assert any("->(Text)" in r for r in rendered)
        assert any("->(Title)" in r for r in rendered)
