#!/usr/bin/env python3
"""Restricted vs liberal path semantics on cyclic hypertext.

The introduction motivates the language for "current extensions of SGML
to multi and hypermedia documents such as HyTime", and Section 5.2
defines two interpretations of path variables:

* restricted — no two dereferences through the same class (the default;
  safe, algebra-compilable, schema-bounded);
* liberal — no object visited twice (data-bounded, the one "crucial" for
  hypertext navigation).

We build a small web of hypertext nodes that link to each other in a
cycle and compare what each semantics can reach from the entry node.

Run:  python examples/hypertext_navigation.py
"""

from repro.calculus import EvalContext
from repro.oodb import (
    Instance,
    ListValue,
    STRING,
    TupleValue,
    c,
    list_of,
    schema_from_classes,
    tuple_of,
)
from repro.o2sql import QueryEngine


def build_web():
    """entry -> overview -> details -> appendix -> overview (a cycle)."""
    schema = schema_from_classes(
        {"Node": tuple_of(
            ("label", STRING),
            ("links", list_of(c("Node"))))},
        roots={"entry": c("Node")})
    db = Instance(schema)
    entry = db.new_object("Node")
    overview = db.new_object("Node")
    details = db.new_object("Node")
    appendix = db.new_object("Node")
    db.set_value(entry, TupleValue([
        ("label", "entry"), ("links", ListValue([overview]))]))
    db.set_value(overview, TupleValue([
        ("label", "overview"), ("links", ListValue([details]))]))
    db.set_value(details, TupleValue([
        ("label", "details"), ("links", ListValue([appendix]))]))
    db.set_value(appendix, TupleValue([
        ("label", "appendix"), ("links", ListValue([overview]))]))
    db.set_root("entry", entry)
    db.check()
    return db


QUERY = "select x from entry PATH_p.label(x)"


def main() -> None:
    db = build_web()

    print("hypertext: entry -> overview -> details -> appendix "
          "-> overview (cycle)")

    restricted = QueryEngine(db, path_semantics="restricted")
    reachable = sorted(restricted.run(QUERY))
    print("\nrestricted semantics — labels reachable from `entry`:")
    print(f"  {reachable}")
    print("  (one Node dereference only: the paper's default; deeper "
          "queries\n   must chain explicitly, e.g. "
          "entry PATH_p -> PATH_q.label(x))")

    two_hops = sorted(restricted.run(
        "select x from entry PATH_p -> PATH_q.label(x)"))
    print("\nrestricted semantics, two chained path variables:")
    print(f"  {two_hops}")

    # the algebra has no transitive closure: the interpreter serves it
    liberal = QueryEngine(db, path_semantics="liberal", backend="calculus")
    all_reachable = sorted(liberal.run(QUERY))
    print("\nliberal semantics — no object visited twice:")
    print(f"  {all_reachable}")
    print("  (the whole component is reachable; termination is "
          "guaranteed\n   because a concrete path never revisits an "
          "object)")

    print("\nwhy the liberal semantics resists algebraization "
          "(Section 5.4):")
    from repro.algebra.compile import compile_query
    from repro.errors import CompilationError
    try:
        compile_query(liberal.translate(QUERY), db.schema,
                      path_semantics=liberal.ctx.path_semantics)
    except CompilationError as exc:
        print(f"  CompilationError: {exc}")


if __name__ == "__main__":
    main()
