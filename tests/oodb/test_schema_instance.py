"""Tests for schemas, instances and value typing (Section 5.1)."""

import pytest

from repro.errors import InstanceError, SchemaError
from repro.oodb import (
    ClassHierarchy,
    Instance,
    ListValue,
    MethodSignature,
    NIL,
    Oid,
    STRING,
    Schema,
    SetValue,
    TupleValue,
    UnionValue,
    c,
    list_of,
    populate,
    schema_from_classes,
    tuple_of,
    union_of,
    value_in_type,
)
from repro.oodb.types import ANY, INTEGER


@pytest.fixture
def article_schema() -> Schema:
    """A cut-down version of the Figure 3 schema."""
    classes = {
        "Text": STRING,
        "Title": STRING,
        "Author": STRING,
        "Section": union_of(
            ("a1", tuple_of(("title", c("Title")),
                            ("bodies", list_of(STRING)))),
            ("a2", tuple_of(("title", c("Title")),
                            ("bodies", list_of(STRING)),
                            ("subsectns", list_of(c("Subsectn")))))),
        "Subsectn": tuple_of(("title", c("Title")),
                             ("bodies", list_of(STRING))),
        "Article": tuple_of(
            ("title", c("Title")),
            ("authors", list_of(c("Author"))),
            ("sections", list_of(c("Section"))),
            ("status", STRING)),
    }
    parents = {"Title": ["Text"], "Author": ["Text"]}
    roots = {"Articles": list_of(c("Article"))}
    return schema_from_classes(classes, parents, roots)


class TestClassHierarchy:
    def test_precedes_reflexive_and_transitive(self, article_schema):
        h = article_schema.hierarchy
        assert h.precedes("Title", "Title")
        assert h.precedes("Title", "Text")
        assert not h.precedes("Text", "Title")

    def test_unknown_parent_rejected(self):
        with pytest.raises(SchemaError):
            ClassHierarchy({"A": INTEGER}, {"A": ["Ghost"]})

    def test_unknown_child_rejected(self):
        with pytest.raises(SchemaError):
            ClassHierarchy({"A": INTEGER}, {"Ghost": ["A"]})

    def test_cycle_rejected(self):
        with pytest.raises(SchemaError):
            ClassHierarchy({"A": INTEGER, "B": INTEGER},
                           {"A": ["B"], "B": ["A"]})

    def test_ill_formed_hierarchy_rejected(self):
        # sigma(child) must be <= sigma(parent)
        classes = {"Parent": tuple_of(("a", INTEGER)), "Child": STRING}
        with pytest.raises(SchemaError):
            schema_from_classes(classes, {"Child": ["Parent"]})

    def test_well_formed_with_width_subtyping(self):
        classes = {
            "Parent": tuple_of(("a", INTEGER)),
            "Child": tuple_of(("a", INTEGER), ("b", STRING)),
        }
        schema = schema_from_classes(classes, {"Child": ["Parent"]})
        assert schema.hierarchy.precedes("Child", "Parent")

    def test_subclasses(self, article_schema):
        subs = set(article_schema.hierarchy.subclasses("Text"))
        assert subs == {"Text", "Title", "Author"}

    def test_join_classes(self, article_schema):
        h = article_schema.hierarchy
        assert h.join_classes("Title", "Author") == "Text"
        assert h.join_classes("Title", "Section") is None

    def test_multiple_inheritance(self):
        classes = {
            "A": tuple_of(("x", INTEGER)),
            "B": tuple_of(("y", STRING)),
            "AB": tuple_of(("x", INTEGER), ("y", STRING)),
        }
        # AB's tuple must list x before y and include both; both parents
        # are order-preserving subsequences.
        schema = schema_from_classes(classes, {"AB": ["A", "B"]})
        assert schema.hierarchy.precedes("AB", "A")
        assert schema.hierarchy.precedes("AB", "B")


class TestSchema:
    def test_structure_lookup(self, article_schema):
        assert article_schema.structure("Title") == STRING
        with pytest.raises(SchemaError):
            article_schema.structure("Ghost")

    def test_root_types(self, article_schema):
        assert article_schema.root_type("Articles") == list_of(c("Article"))
        with pytest.raises(SchemaError):
            article_schema.root_type("Ghost")

    def test_root_referencing_unknown_class_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_classes({"A": INTEGER}, roots={"R": c("Ghost")})

    def test_undeclared_class_reference_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_classes({"A": tuple_of(("x", c("Ghost")))})

    def test_method_lookup_with_inheritance(self, article_schema):
        sig = MethodSignature("display", "Text", [], STRING)
        schema = Schema(article_schema.hierarchy, [sig],
                        article_schema.roots)
        assert schema.method("display", "Title") is sig
        with pytest.raises(SchemaError):
            schema.method("display", "Article")


class TestInstance:
    def test_allocation_and_deref(self, article_schema):
        db = Instance(article_schema)
        oid = db.new_object("Title", "Introduction")
        assert db.deref(oid) == "Introduction"
        assert oid.class_name == "Title"

    def test_unknown_class_rejected(self, article_schema):
        db = Instance(article_schema)
        with pytest.raises(InstanceError):
            db.new_object("Ghost")

    def test_extent_includes_subclasses(self, article_schema):
        db = Instance(article_schema)
        title = db.new_object("Title", "t")
        author = db.new_object("Author", "a")
        assert set(db.extent("Text")) == {title, author}
        assert db.extent("Title") == (title,)
        assert db.disjoint_extent("Text") == ()

    def test_oids_are_fresh(self, article_schema):
        db = Instance(article_schema)
        oids = [db.new_object("Title", "x") for _ in range(10)]
        assert len({o.number for o in oids}) == 10

    def test_set_value_and_dangling(self, article_schema):
        db = Instance(article_schema)
        oid = db.new_object("Title", "old")
        db.set_value(oid, "new")
        assert db.deref(oid) == "new"
        with pytest.raises(InstanceError):
            db.deref(Oid(999, "Title"))
        with pytest.raises(InstanceError):
            db.set_value(Oid(999, "Title"), "x")

    def test_roots(self, article_schema):
        db = Instance(article_schema)
        article = db.new_object("Article")
        db.set_root("Articles", ListValue([article]))
        assert db.root("Articles") == ListValue([article])
        with pytest.raises(InstanceError):
            db.set_root("Ghost", 1)
        with pytest.raises(InstanceError):
            db.root("Ghost")

    def test_check_detects_wrongly_typed_object(self, article_schema):
        db = Instance(article_schema)
        db.new_object("Subsectn", "just a string")  # should be a tuple
        with pytest.raises(InstanceError):
            db.check()

    def test_check_detects_dangling_reference(self, article_schema):
        db = Instance(article_schema)
        ghost = Oid(999, "Title")
        db.new_object("Subsectn", TupleValue([
            ("title", ghost), ("bodies", ListValue())]))
        with pytest.raises(InstanceError):
            db.check()

    def test_check_passes_on_valid_instance(self, article_schema):
        db = Instance(article_schema)
        title = db.new_object("Title", "Intro")
        author = db.new_object("Author", "V. Christophides")
        section = db.new_object("Section", UnionValue(
            "a1", TupleValue([
                ("title", title), ("bodies", ListValue(["text"]))])))
        article = db.new_object("Article", TupleValue([
            ("title", title),
            ("authors", ListValue([author])),
            ("sections", ListValue([section])),
            ("status", "final")]))
        db.set_root("Articles", ListValue([article]))
        db.check()  # must not raise

    def test_check_validates_roots(self, article_schema):
        db = Instance(article_schema)
        db.set_root("Articles", "not a list")
        with pytest.raises(InstanceError):
            db.check()

    def test_oid_in_class_respects_inheritance(self, article_schema):
        db = Instance(article_schema)
        title = db.new_object("Title", "t")
        assert db.oid_in_class(title, "Text")
        assert not db.oid_in_class(title, "Author")


class TestMethods:
    def test_dispatch_and_inheritance(self, article_schema):
        db = Instance(article_schema)
        title = db.new_object("Title", "Intro")
        db.define_method("display", "Text",
                         lambda inst, this: f"<{inst.deref(this)}>")
        assert db.call_method("display", title) == "<Intro>"

    def test_override_wins(self, article_schema):
        db = Instance(article_schema)
        title = db.new_object("Title", "Intro")
        db.define_method("display", "Text", lambda inst, this: "text")
        db.define_method("display", "Title", lambda inst, this: "title")
        assert db.call_method("display", title) == "title"

    def test_missing_method(self, article_schema):
        db = Instance(article_schema)
        title = db.new_object("Title", "Intro")
        with pytest.raises(InstanceError):
            db.call_method("ghost", title)


class TestValueInClassTypes:
    def test_oid_membership_uses_hierarchy(self, article_schema):
        db = Instance(article_schema)
        title = db.new_object("Title", "t")
        assert value_in_type(title, c("Title"), db)
        assert value_in_type(title, c("Text"), db)
        assert not value_in_type(title, c("Author"), db)
        assert value_in_type(NIL, c("Author"), db)

    def test_any_contains_all_oids(self, article_schema):
        db = Instance(article_schema)
        title = db.new_object("Title", "t")
        assert value_in_type(title, ANY, db)
        assert not value_in_type("x", ANY, db)

    def test_populate_helper(self, article_schema):
        db = populate(article_schema, objects={"Title": ["a", "b"]})
        assert len(db.extent("Title")) == 2

    def test_union_domain(self):
        u = union_of(("a", INTEGER), ("b", STRING))
        assert value_in_type(UnionValue("a", 1), u)
        assert value_in_type(UnionValue("b", "x"), u)
        assert not value_in_type(UnionValue("c", 1), u)
        assert not value_in_type(UnionValue("a", "wrong"), u)
        assert not value_in_type(5, u)

    def test_bool_int_domains_disjoint(self):
        from repro.oodb import BOOLEAN
        assert value_in_type(True, BOOLEAN)
        assert not value_in_type(True, INTEGER)
        assert value_in_type(1, INTEGER)
        assert not value_in_type(1, BOOLEAN)

    def test_tuple_extra_trailing_attributes_allowed(self):
        # Section 5.1: dom of a tuple type allows l >= 0 extra attributes.
        declared = tuple_of(("a", INTEGER))
        value = TupleValue([("a", 1), ("extra", "x")])
        assert value_in_type(value, declared)
        # ...but the declared prefix must come first.
        swapped = TupleValue([("extra", "x"), ("a", 1)])
        assert not value_in_type(swapped, declared)

    def test_set_and_list_domains(self):
        from repro.oodb import set_of
        assert value_in_type(SetValue([1, 2]), set_of(INTEGER))
        assert not value_in_type(ListValue([1, "x"]), list_of(INTEGER))
