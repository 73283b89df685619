"""``python -m repro.plancheck`` — lint queries, verify their plans.

Examples::

    python -m repro.plancheck "select t from my_article PATH_p.title(t)"
    python -m repro.plancheck --file queries.txt --verify
    python -m repro.plancheck --dtd my.dtd --json "select ..."

Queries are checked against the Figure-1 article DTD with the Figure-2
document loaded as ``my_article`` and its text index built — the
shape the benchmark serves — unless ``--dtd`` supplies another DTD,
whose store stays empty.  ``--verify`` additionally
prepares each clean query on a store of each algebra configuration —
the ``structural=False`` union-of-plans reference and the served
``structural=True`` range scans, through the engine's own stage
sequence — and reports every fault of a stage the verifier rejects,
then verifies the plan that would be served.  The exit status is the
number of error-severity diagnostics plus plan faults — ``0`` means
clean.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from repro.plancheck.diagnostics import PlanVerificationWarning
from repro.plancheck.lint import lint_query
from repro.plancheck.verifier import verify_plan


def _open_store(dtd_path: str | None, structural: bool):
    from repro import DocumentStore
    if dtd_path is None:
        from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
        store = DocumentStore(ARTICLE_DTD, structural=structural)
        store.load_text(SAMPLE_ARTICLE, name="my_article")
        store.build_text_index()
        return store
    with open(dtd_path) as handle:
        return DocumentStore(handle.read(), structural=structural)


def _verify_query(text: str, stores: dict) -> list:
    """Prepare ``text`` on every store — the serving pipeline, with a
    verifier-rejected optimizer stage raised instead of served around —
    and verify the served plan; returns the combined fault list."""
    faults = []
    for label, store in stores.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", PlanVerificationWarning)
                prepared = store.prepare(text)
        except PlanVerificationWarning as rejected:
            faults.extend(rejected.faults)
            continue
        faults.extend(verify_plan(prepared.plan, query=prepared.calculus,
                                  stage=label))
    return faults


def _as_json(text: str, diagnostics: list, faults: list) -> dict:
    return {
        "query": text,
        "diagnostics": [
            {"code": d.code, "severity": d.severity,
             "message": d.message, "line": d.line, "column": d.column,
             "hint": d.hint}
            for d in diagnostics],
        "plan_faults": [
            {"code": f.code, "message": f.message, "stage": f.stage,
             "operator": f.operator, "hint": f.hint}
            for f in faults],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.plancheck",
        description="Statically lint O₂SQL queries and verify their "
                    "compiled plans.")
    parser.add_argument("queries", nargs="*",
                        help="query texts to check")
    parser.add_argument("--file", help="read one query per non-empty "
                        "line from this file")
    parser.add_argument("--dtd", help="DTD file defining the schema "
                        "(default: the built-in article DTD)")
    parser.add_argument("--verify", action="store_true",
                        help="also prepare clean queries on a union-of-"
                        "plans and a structural algebra store and verify "
                        "every optimizer stage and the served plan")
    parser.add_argument("--json", action="store_true",
                        dest="as_json", help="machine-readable output")
    args = parser.parse_args(argv)

    texts = list(args.queries)
    if args.file:
        with open(args.file) as handle:
            texts.extend(line.strip() for line in handle
                         if line.strip())
    if not texts:
        parser.error("no queries given (positional or --file)")

    stores = {"algebra": _open_store(args.dtd, structural=False)}
    if args.verify:
        stores["structural"] = _open_store(args.dtd, structural=True)
    schema = stores["algebra"].schema
    failures = 0
    reports = []
    for text in texts:
        diagnostics = lint_query(text, schema)
        clean = not any(d.is_error for d in diagnostics)
        faults = []
        if args.verify and clean:
            faults = _verify_query(text, stores)
        failures += sum(1 for d in diagnostics if d.is_error)
        failures += len(faults)
        if args.as_json:
            reports.append(_as_json(text, diagnostics, faults))
            continue
        if diagnostics or faults:
            print(f"== {text}")
            for diagnostic in diagnostics:
                print(diagnostic.render())
            for fault in faults:
                print(fault.render())
        else:
            print(f"ok {text}")
    if args.as_json:
        print(json.dumps(reports, indent=2))
    return failures


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
