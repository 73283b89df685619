"""``python -m repro.diffcheck`` — the differential fuzz loop.

Fuzz mode (default) generates ``--budget`` (corpus, query) cases from
``--seed``, compares the calculus interpreter against every served
configuration (``algebra``, ``structural``, ``sql``; each executed
twice), minimizes each divergence with delta debugging and
writes it as a replayable fixture under ``--out``.  Exit status is the
number of *distinct minimized* divergences (0 = all clear), so CI can
gate on it directly.

Replay mode (``--replay FIXTURE...``) re-runs checked-in fixtures and
reports which still diverge.

Examples::

    python -m repro.diffcheck --budget 60 --seed 7          # PR smoke
    python -m repro.diffcheck --budget 3000 --seed 1 --out repros/
    python -m repro.diffcheck --replay tests/diffcheck/fixtures/*.json
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.diffcheck.fixtures import load_fixture, save_fixture
from repro.diffcheck.generator import QueryGenerator
from repro.diffcheck.harness import DiffHarness
from repro.diffcheck.minimize import minimize
from repro.observe import MetricsRegistry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diffcheck",
        description="differential correctness checking: calculus "
                    "interpreter vs every served store configuration "
                    "(algebra, structural, sql; first run and re-run)")
    parser.add_argument("--budget", type=int, default=200,
                        help="number of generated cases (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0)")
    parser.add_argument("--out", default="diffcheck-repros",
                        help="directory for minimized repro fixtures "
                             "(default ./diffcheck-repros)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first divergence")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report raw divergences without shrinking")
    parser.add_argument("--replay", nargs="+", metavar="FIXTURE",
                        help="replay fixture files instead of fuzzing")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-divergence reports")
    return parser


def _fuzz(args, harness: DiffHarness, metrics: MetricsRegistry) -> int:
    generator = QueryGenerator(args.seed)
    minimized: list[tuple] = []
    for index in range(args.budget):
        case = generator.case(index)
        comparison = harness.compare(case.corpus, case.query)
        if not comparison.divergent:
            continue
        if not args.quiet:
            print(f"[case {index}] DIVERGENCE "
                  f"({', '.join(comparison.divergent_configs())})")
            print(comparison.report())
        spec, query = case.corpus, case.query
        if not args.no_minimize:
            def diverges(candidate_spec, candidate_query):
                return harness.compare(candidate_spec,
                                       candidate_query).divergent
            spec, query = minimize(spec, query, diverges,
                                   metrics=metrics)
            if not args.quiet:
                print("minimized to:")
                print(harness.compare(spec, query).report())
        key = (str(spec), str(query))
        if key not in {(str(s), str(q)) for s, q, _ in minimized}:
            minimized.append((spec, query, index))
        if args.fail_fast:
            break
    os.makedirs(args.out, exist_ok=True)
    for position, (spec, query, index) in enumerate(minimized):
        final = harness.compare(spec, query)
        path = os.path.join(args.out,
                            f"divergence_{position:03d}.json")
        save_fixture(path, spec, query, meta={
            "found_by": {"seed": args.seed, "budget": args.budget,
                         "case": index},
            "divergent_configs": final.divergent_configs(),
            "report": final.report(),
        })
        print(f"wrote {path}")
    return len(minimized)


def _replay(args, harness: DiffHarness) -> int:
    still_divergent = 0
    for path in args.replay:
        spec, query, _ = load_fixture(path)
        comparison = harness.compare(spec, query)
        status = "DIVERGENT" if comparison.divergent else "ok"
        print(f"{path}: {status}")
        if comparison.divergent:
            still_divergent += 1
            if not args.quiet:
                print(comparison.report())
    return still_divergent


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    metrics = MetricsRegistry()
    harness = DiffHarness(metrics=metrics)
    if args.replay:
        failures = _replay(args, harness)
    else:
        failures = _fuzz(args, harness, metrics)
    counters = metrics.snapshot()["counters"]
    summary = ", ".join(f"{name.split('.', 1)[1]}={value}"
                        for name, value in counters.items()
                        if name.startswith("diffcheck."))
    print(f"diffcheck: {summary or 'no work done'}")
    if failures:
        print(f"diffcheck: {failures} divergence(s) — every divergence "
              "is a bug: fix it or check in a tracking fixture")
    else:
        print("diffcheck: zero divergences")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
