"""The shred is a projection of the structural index's blocks.

One pre/post encoding per root: the tables derive from the blocks a
:class:`StructuralIndex` publishes, result rows hydrate from those
blocks' own arrays, and freshness is the index's — a targeted block
rebuild re-shreds the touched roots, not the corpus.
"""

from types import SimpleNamespace

import pytest

from repro import DocumentStore
from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
from repro.corpus.generator import generate_corpus
from repro.corpus.letters import build_letters_database
from repro.errors import SQLUnsupportedError
from repro.o2sql import QueryEngine
from repro.oodb.instance import Instance
from repro.oodb.schema import schema_from_classes
from repro.oodb.types import STRING, ClassType, tuple_of
from repro.oodb.values import TupleValue
from repro.sqlbackend.backend import SQLBackend
from repro.sqlbackend.shred import DEREF_CAP, Shred
from repro.structindex import StructuralIndex

#: The paper's query shapes over the article corpus (Q1–Q5) …
ARTICLE_QUERIES = [
    """select tuple (t: a.title, f_author: first(a.authors))
       from a in Articles, s in a.sections
       where s.title contains ("SGML" and "OODBMS")""",
    """select ss from a in Articles, s in a.sections, ss in s.subsectns
       where ss contains ("complex object")""",
    "select t from my_article PATH_p.title(t)",
    "my_article PATH_p - doc1 PATH_p",
    """select name(ATT_a) from my_article PATH_p.ATT_a(val)
       where val contains ("final")""",
    "select t from doc0 PATH_p.title(t)",
    "select t from doc1 PATH_p.title(t)",
    "select s.title from a in Articles, s in a.sections",
]
#: … and Q6 over the letters database.
Q6 = """select letter
        from letter in Letters, letter[i].from, letter[j].to
        where i < j"""


def build_store(backend, structural=False):
    store = DocumentStore(ARTICLE_DTD, backend=backend,
                          structural=structural)
    store.load_text(SAMPLE_ARTICLE, name="my_article")
    for position, tree in enumerate(generate_corpus(3, seed=11)):
        store.load_tree(tree, name=f"doc{position}", validate=False)
    return store


def shred_of(store):
    return store._engine.sql_backend.shred


def edit_target(store):
    """A section-title object inside ``doc2`` only (plus ``Articles``,
    which holds every document)."""
    inside = set(store.query(
        "select s.title from s in doc2.sections"))
    assert inside
    return min(inside, key=lambda oid: oid.number)


class TestTargetedReshred:
    def test_update_text_reshreds_only_the_rebuilt_blocks(self):
        store = build_store("sql", structural=True)
        oracle = build_store("calculus")
        shred = shred_of(store)
        roots = len(store.instance.root_names)
        assert roots >= 4
        assert shred.refresh() == roots     # first projection: all
        assert shred.refresh() == 0
        target = edit_target(store)
        store.update_text(target, "Projected blocks, edited")
        oracle.update_text(edit_target(oracle),
                           "Projected blocks, edited")
        before = dict(shred.roots)
        rebuilt = store.struct_index.refresh()
        assert 0 < rebuilt < roots
        assert shred.refresh() == rebuilt
        changed = {name for name, block in shred.roots.items()
                   if before[name] is not block}
        assert changed == {"doc2", "Articles"}
        assert shred.refresh() == 0
        for text in ARTICLE_QUERIES:
            assert store.query(text) == oracle.query(text), text

    def test_untouched_roots_keep_their_rows(self):
        store = build_store("sql")
        shred = shred_of(store)
        shred.refresh()
        count = "SELECT root, COUNT(*) FROM node GROUP BY root"
        before = dict(shred.execute(count)[1])
        store.update_text(edit_target(store), "x")
        shred.refresh()
        assert dict(shred.execute(count)[1]) == before
        _, rows, _ = shred.execute(
            "SELECT COUNT(*) FROM content WHERE value = 'x'")
        assert rows == [(2,)]               # doc2 and Articles

    def test_clean_refresh_never_takes_the_shred_lock(self):
        store = build_store("sql")
        shred = shred_of(store)
        shred.refresh()

        class Forbidden:
            def __enter__(self):
                raise AssertionError("clean refresh took the lock")

            def __exit__(self, *exc):
                return False

        shred._lock = Forbidden()
        assert shred.refresh() == 0

    def test_a_failed_projection_leaves_the_tables_as_they_were(
            self, monkeypatch):
        store = build_store("sql")
        shred = shred_of(store)
        shred.refresh()
        count = "SELECT root, COUNT(*) FROM node GROUP BY root"
        before = dict(shred.execute(count)[1])
        store.load_text(SAMPLE_ARTICLE, name="late")
        project = shred._project

        def failing(connection, name, block):
            if name == "late":
                raise RuntimeError("boom")
            return project(connection, name, block)

        monkeypatch.setattr(shred, "_project", failing)
        with pytest.raises(RuntimeError):
            shred.refresh()
        assert dict(shred.execute(count)[1]) == before
        monkeypatch.undo()
        assert shred.refresh() == len(before) + 1
        assert set(dict(shred.execute(count)[1])) == set(before) | {"late"}

    def test_a_dropped_root_loses_its_rows(self):
        store = build_store("sql")
        shred = shred_of(store)
        shred.refresh()
        del store.instance._roots["doc0"]
        store.struct_index.note_data_change()
        shred.refresh()
        assert "doc0" not in shred.roots
        _, rows, _ = shred.execute(
            "SELECT COUNT(*) FROM node WHERE root = 'doc0'")
        assert rows == [(0,)]


class TestHydrationEpoch:
    def test_rows_hydrate_from_the_blocks_they_were_fetched_at(
            self, monkeypatch):
        # a refresh another reader starts after a write lands between
        # the fetch and the hydration: the rows must still read the
        # blocks they were projected from, not the swapped-in ones
        text = "select x from my_article PATH_p(x)"
        store = build_store("sql", structural=True)
        oracle = build_store("calculus")
        expected = oracle.query(text)
        assert store.query(text) == expected
        shred = shred_of(store)
        fetch = shred.execute
        target = min(store.query("select t from my_article PATH_p.title(t)"),
                     key=lambda oid: oid.number)

        def fetch_then_edit(sql, params=()):
            fetched = fetch(sql, params)
            monkeypatch.undo()
            store.update_text(target, "A title rewritten mid-read")
            assert shred.refresh() > 0
            return fetched

        monkeypatch.setattr(shred, "execute", fetch_then_edit)
        assert store.query(text) == expected
        assert store.query(text) != expected  # the edit did land


class TestOneEncoding:
    @pytest.mark.parametrize("structural", [False, True])
    def test_store_scans_and_shred_share_one_index(self, structural):
        store = build_store("sql", structural=structural)
        oracle = build_store("calculus")
        for text in ARTICLE_QUERIES:
            assert store.query(text) == oracle.query(text), text
        shred = shred_of(store)
        assert shred.index is store.struct_index
        assert store._engine.ctx.struct_index is store.struct_index
        blocks = store.struct_index.blocks
        assert set(shred.roots) == set(store.instance.root_names)
        for name, block in blocks.items():
            # identity, not equality: rows hydrate from these arrays
            assert shred.roots[name] is block
            assert shred.roots[name].values is block.values
            assert shred.roots[name].paths is block.paths

    def test_load_wires_the_same_sharing(self, tmp_path):
        store = build_store("sql")
        path = tmp_path / "snapshot.db"
        store.save(path)
        again = DocumentStore.load(path, backend="sql", structural=True)
        assert again.instance is again._engine.instance
        assert shred_of(again).index is again.struct_index
        assert again.struct_index.instance is again.instance
        assert again._engine.ctx.struct_index is again.struct_index
        assert again.stats_manager.instance is again.instance
        assert again.epoch == 0
        for text in ARTICLE_QUERIES:
            assert again.query(text) == store.query(text), text

    def test_structural_flag_still_only_rewrites_plans(self):
        plain = build_store("sql")
        scanning = build_store("sql", structural=True)
        text = ARTICLE_QUERIES[2]
        assert plain.query(text) == scanning.query(text)
        assert "Structural" not in (
            plain._engine.artifacts(text).plan.describe())
        assert "Structural" in (
            scanning._engine.artifacts(text).plan.describe())


class TestBareEngine:
    def test_cacheless_engine_rebuilds_every_run(self):
        database = build_letters_database()
        engine = QueryEngine(database, backend="sql")
        shred = engine.sql_backend.shred
        assert shred.index.epoch_source is None
        assert len(engine.run(Q6)) == 3
        # mutate behind the engine's back: no epoch to notice it by, so
        # only the always-rebuild contract keeps the answer current
        letters = database.root("Letters")
        database.set_root("Letters", type(letters)(list(letters)[:1]))
        assert engine.run(Q6) == QueryEngine(database).run(Q6)
        assert len(engine.run(Q6)) == 1

    def test_prepare_moves_freshness_onto_the_cache_epoch(self):
        database = build_letters_database()
        engine = QueryEngine(database, backend="sql")
        prepared = engine.prepare(Q6)
        shred = engine.sql_backend.shred
        assert shred.index.epoch_source is engine.cache
        assert len(prepared.run()) == 3
        assert shred.refresh() == 0         # clean until the epoch moves
        engine.cache.bump_epoch()
        assert shred.refresh() == len(database.root_names)


def chain_database(hops):
    """A root whose value is ``hops`` objects deep before a tuple: each
    class's value is an object of the next class."""
    names = [f"C{i}" for i in range(hops)]
    classes = {name: ClassType(following)
               for name, following in zip(names, names[1:])}
    classes[names[-1]] = tuple_of(("t", STRING))
    database = Instance(schema_from_classes(
        classes, roots={"chain": ClassType(names[0])}))
    value = TupleValue([("t", "end")])
    for name in reversed(names):
        value = database.new_object(name, value)
    database.set_root("chain", value)
    return database


class TestDerefClosure:
    def test_bases_resolve_in_the_projection_pass(self):
        shred = Shred(StructuralIndex(chain_database(DEREF_CAP)))
        shred.refresh()
        assert shred.refused == {}
        _, rows, _ = shred.execute(
            "SELECT pre, kind, deref_base, cont FROM node "
            "WHERE root = 'chain' ORDER BY pre")
        tuple_pre = DEREF_CAP
        assert rows[tuple_pre][1] == "tuple"
        for pre, kind, base, cont in rows[:tuple_pre]:
            assert (kind, base, cont) == ("oid", tuple_pre, tuple_pre)
        for pre, kind, base, cont in rows[tuple_pre:]:
            assert base == cont == pre

    def test_a_chain_over_the_cap_refuses_the_root(self):
        database = chain_database(DEREF_CAP + 1)
        shred = Shred(StructuralIndex(database))
        shred.refresh()
        assert "cap" in shred.refused["chain"]
        backend = SQLBackend(database)
        backend.shred.refresh()
        program = SimpleNamespace(roots={"chain"}, has_scans=False)
        with pytest.raises(SQLUnsupportedError, match="cap"):
            backend._guard(program, None)

    def test_cont_swaps_to_a_marked_union_payload(self):
        shred = Shred(StructuralIndex(build_letters_database()))
        shred.refresh()
        _, rows, _ = shred.execute(
            "SELECT n.pre, n.cont FROM node AS n "
            "WHERE n.root = 'Letters' AND n.step = 'index'")
        assert rows
        for pre, cont in rows:
            assert cont == pre + 1          # [a1: [from, to, content]]
