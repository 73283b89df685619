"""Tests for the DocumentStore facade (the end-to-end user surface)."""

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.errors import MappingError
from repro.oodb import Oid, SetValue


@pytest.fixture()
def store():
    s = DocumentStore(ARTICLE_DTD)
    s.load_text(SAMPLE_ARTICLE, name="my_article")
    return s


class TestLoading:
    def test_load_returns_document_oid(self, store):
        assert isinstance(store.instance.root("my_article"), Oid)

    def test_stats(self, store):
        stats = store.stats()
        assert stats["documents"] == 1
        assert stats["objects"] == 17
        assert stats["classes"] == 15
        assert stats["bytes"] > 0

    def test_invalid_document_rejected(self, store):
        from repro.errors import DocumentSyntaxError
        with pytest.raises(DocumentSyntaxError):
            # missing mandatory acknowl: the validating parser itself
            # refuses to close <article> with incomplete content
            store.load_text("<article><title>t<author>a<affil>f"
                            "<abstract>x<section><title>s"
                            "<body><paragr>p</body></section>"
                            "</article>")

    def test_programmatic_invalid_tree_rejected(self, store):
        # a tree built by hand (bypassing the parser) is caught by the
        # validation pass in load_tree
        from repro.sgml.instance import Element, Text
        bogus = Element("article", {"status": "final"})
        bogus.append(Element("title", children=[Text("t")]))
        with pytest.raises(MappingError):
            store.load_tree(bogus)

    def test_bad_dtd_rejected(self):
        with pytest.raises(MappingError):
            DocumentStore("<!ELEMENT doc - - (ghost)>")

    def test_check_passes_on_figure2(self, store):
        store.check()

    def test_define_name_for_values(self, store):
        store.define_name("answer", 42)
        assert store.query("select x from answer PATH_p(x)") == \
            SetValue([42])


class TestQuerying:
    def test_query_returns_set(self, store):
        result = store.query("select a from a in Articles")
        assert isinstance(result, SetValue)
        assert len(result) == 1

    def test_text_operator(self, store):
        article = store.instance.root("my_article")
        assert "SGML" in store.text(article)

    def test_describe_schema(self, store):
        rendered = store.describe_schema()
        assert "class Article" in rendered
        assert "name Articles: list (Article)" in rendered

    def test_explain(self, store):
        assert "∃" in store.explain(
            "select t from my_article PATH_p.title(t)")

    def test_check_query_types(self, store):
        types = store.check_query("select a from a in Articles")
        assert {str(v): str(t) for v, t in types.items()}["a"] == \
            "Article"

    def test_build_text_index(self, store):
        index = store.build_text_index()
        assert index.document_count > 0
        assert store.text_index is index

    def test_liberal_semantics_store(self):
        s = DocumentStore(ARTICLE_DTD, path_semantics="liberal",
                          backend="calculus")
        s.load_text(SAMPLE_ARTICLE, name="my_article")
        result = s.query("select t from my_article PATH_p.title(t)")
        assert len(result) == 3


class TestConfiguration:
    """With no ``backend=`` a store serves the compiled algebra plans;
    a configuration no backend can serve is refused at construction,
    never at the first query and never by running another backend."""

    Q3 = "select t from my_article PATH_p.title(t)"

    def assert_serves_algebra_plans(self, store):
        assert store._engine.backend == "algebra"
        assert store.struct_index is not None
        report = store.explain_analyze(self.Q3)
        assert report.plan is not None
        assert len(report.result) == 3

    def test_the_default_store_serves_algebra_plans(self, store):
        self.assert_serves_algebra_plans(store)

    def test_a_loaded_store_serves_algebra_plans(self, store, tmp_path):
        store.save(tmp_path / "store.db")
        self.assert_serves_algebra_plans(
            DocumentStore.load(tmp_path / "store.db"))

    def test_the_default_engine_compiles_plans(self, store):
        from repro.o2sql.engine import QueryEngine
        engine = QueryEngine(store.instance)
        assert engine.backend == "algebra"
        assert engine.explain_analyze(self.Q3).plan is not None

    @pytest.mark.parametrize("backend", ["algebra", "sql"])
    def test_liberal_on_a_compiled_backend_is_refused(self, backend):
        with pytest.raises(ValueError, match='backend="calculus"'):
            DocumentStore(ARTICLE_DTD, path_semantics="liberal",
                          backend=backend)

    def test_liberal_needs_the_backend_named(self):
        with pytest.raises(ValueError, match='backend="calculus"'):
            DocumentStore(ARTICLE_DTD, path_semantics="liberal")

    def test_a_loaded_liberal_store_is_refused(self, store, tmp_path):
        store.save(tmp_path / "store.db")
        with pytest.raises(ValueError, match='backend="calculus"'):
            DocumentStore.load(tmp_path / "store.db",
                               path_semantics="liberal")

    def test_an_unknown_backend_is_refused(self):
        with pytest.raises(ValueError, match="unknown backend 'algebr'"):
            DocumentStore(ARTICLE_DTD, backend="algebr")

    def test_an_unknown_path_semantics_is_refused(self):
        with pytest.raises(ValueError,
                           match="unknown path semantics 'restrictd'"):
            DocumentStore(ARTICLE_DTD, path_semantics="restrictd")

    def test_the_engine_checks_its_configuration(self, store):
        from repro.o2sql.engine import QueryEngine
        with pytest.raises(ValueError, match="unknown backend"):
            QueryEngine(store.instance, backend="interpreter")
        with pytest.raises(ValueError, match='backend="calculus"'):
            QueryEngine(store.instance, path_semantics="liberal")
        liberal = QueryEngine(store.instance, path_semantics="liberal",
                              backend="calculus")
        assert len(liberal.run(self.Q3)) == 3


class TestTextAtElementBoundaries:
    """``text()`` separates the character data of adjacent elements, so
    a word that ends one element matches the same on a fresh store
    (source-subtree text), on its reloaded copy and after any edit
    (structural text) — with and without the text index."""

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("word",
                             ["Facilities", "Christophides", "Scholl"])
    def test_same_rows_fresh_reloaded_and_edited(self, store, tmp_path,
                                                 word, indexed):
        if indexed:
            store.build_text_index()
        query = f'select a from a in Articles where a contains ("{word}")'
        fresh = store.query(query)
        assert len(fresh) == 1
        store.save(tmp_path / "session.db")
        reloaded = DocumentStore.load(tmp_path / "session.db")
        if indexed:
            reloaded.build_text_index()
        assert reloaded.query(query) == fresh
        heading = next(iter(store.query(
            "select s.title from a in Articles, s in a.sections")))
        store.update_text(heading, "Unrelated Heading")
        assert store.query(query) == fresh


class TestLiveIndexIngest:
    """Loading into a store with live incremental structures (text
    index, parent map) visits the objects the load allocated — never
    the corpus loaded before it."""

    @staticmethod
    def visited_by_one_more_load(already_loaded):
        from repro.corpus.generator import generate_corpus
        store = DocumentStore(ARTICLE_DTD)
        store.build_text_index()
        for tree in generate_corpus(already_loaded, seed=5):
            store.load_tree(tree, validate=False)
        store._parent_map()
        instance = store.instance
        visited = []

        def forbidden():
            raise AssertionError("a load scanned the whole instance")

        def counting(first, enumerate_new=instance.oids_since):
            for oid in enumerate_new(first):
                visited.append(oid)
                yield oid

        instance.all_oids = forbidden
        instance.oids_since = counting
        before = instance.object_count()
        store.load_text(SAMPLE_ARTICLE)
        assert len(visited) == instance.object_count() - before
        return store, visited

    def test_objects_visited_do_not_grow_with_the_corpus(self):
        _, small = self.visited_by_one_more_load(1)
        _, large = self.visited_by_one_more_load(12)
        assert len(small) == len(large) > 0

    def test_new_objects_still_reach_both_structures(self):
        store, visited = self.visited_by_one_more_load(3)
        title = max((oid for oid in visited
                     if oid.class_name == "Title"),
                    key=lambda oid: oid.number)
        assert title in store._parents
        live = store.text_index.document_count
        del store.instance.all_oids         # the full rebuild may scan
        assert store.build_text_index().document_count == live


class TestPersistence:
    def test_load_wires_once_over_the_restored_instance(
            self, store, tmp_path, monkeypatch):
        """``load`` builds the schema half, restores the instance and
        only then wires engine, index and shred — one of each, none
        over a throwaway empty instance."""
        from repro.sqlbackend.backend import SQLBackend
        from repro.structindex import StructuralIndex
        store.save(tmp_path / "session.db")
        built = []
        for cls in (SQLBackend, StructuralIndex):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                         **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        reloaded = DocumentStore.load(tmp_path / "session.db",
                                      backend="sql", structural=True)
        assert sorted(built) == ["SQLBackend", "StructuralIndex"]
        assert reloaded.struct_index.instance is reloaded.instance
        query = "select t from my_article PATH_p.title(t)"
        assert reloaded.query(query) == store.query(query)

    def test_a_save_that_dies_midway_keeps_the_previous_snapshot(
            self, store, tmp_path, monkeypatch):
        import repro.oodb.store as store_module
        path = tmp_path / "session.db"
        store.save(path)
        before = (path.read_bytes(),
                  (tmp_path / "session.db.dtd").read_bytes())
        query = "select a.title from a in Articles"
        expected = store.query(query)
        store.load_text(SAMPLE_ARTICLE, name="second")  # a new state

        class TornHandle:
            def __init__(self, handle):
                self._handle = handle

            def write(self, data):
                self._handle.write(data[:len(data) // 2])
                raise OSError("disk full")

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

        def torn_open(file, mode="r"):
            handle = open(file, mode)
            # the DTD is written first; let it through, tear the snapshot
            return handle if str(file).endswith(".dtd.tmp") \
                else TornHandle(handle)

        monkeypatch.setattr(store_module, "open", torn_open,
                            raising=False)
        with pytest.raises(OSError):
            store.save(path)
        monkeypatch.undo()
        assert (path.read_bytes(),
                (tmp_path / "session.db.dtd").read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "session.db", "session.db.dtd"]
        reloaded = DocumentStore.load(path)
        assert reloaded.query(query) == expected
        assert "second" not in reloaded.instance.root_names
