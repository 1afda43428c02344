"""CLI: ``python -m repro.bench.perfgate {run,compare,list}``.

``run`` executes the suite and writes the schema-versioned result
file; ``compare`` diffs two result files against the per-metric
tolerances and exits non-zero on regression (the CI gate);
``--update-baseline`` blesses the current numbers.

Exit codes: 0 clean (or improvements only), 1 regression / missing
metric / crashed benchmark, 2 schema or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .compare import CompareError, compare_docs
from .suite import (
    SUITE,
    baseline_path,
    export_to_obs,
    load_results,
    run_suite,
    write_results,
)

__all__ = ["main"]

DEFAULT_OUT = "BENCH_perf.json"


def _print_results(doc: dict) -> None:
    metrics = doc["metrics"]
    if metrics:
        width = max(len(name) for name in metrics)
        print("perf-gate results (virtual-clock, deterministic):")
        for name in sorted(metrics):
            m = metrics[name]
            arrow = "^" if m["direction"] == "higher" else "v"
            print(
                f"  {name:<{width}}  {m['value']:>14,.3f} {m['units']:<7} "
                f"[{arrow} tol {m['tolerance_pct']:.1f}%]  ({m['bench']})"
            )
    for bid, error in sorted(doc["errors"].items()):
        print(f"  {bid}: CRASHED: {error}")


def _cmd_run(args) -> int:
    capture = None
    if args.trace_out or args.metrics_out:
        from ...obs import enable_capture

        capture = enable_capture()
    try:
        doc = run_suite(only=args.only or None)
    finally:
        if capture is not None:
            from ...obs import disable_capture

            disable_capture()
    export_to_obs(doc, capture)
    if capture is not None:
        from ...obs import write_chrome_trace, write_metrics_json

        if args.trace_out:
            trace_doc = write_chrome_trace(
                args.trace_out, capture.export_triples()
            )
            print(
                f"wrote {len(trace_doc['traceEvents'])} trace events "
                f"-> {args.trace_out}"
            )
        if args.metrics_out:
            write_metrics_json(args.metrics_out, capture.metric_pairs())
            print(f"wrote metrics -> {args.metrics_out}")
    _print_results(doc)
    out = Path(args.out)
    write_results(out, doc)
    print(f"wrote {len(doc['metrics'])} metric(s) -> {out}")
    if args.update_baseline:
        path = write_results(baseline_path(), doc)
        print(f"blessed baseline -> {path}")
    return 1 if doc["errors"] else 0


def _cmd_compare(args) -> int:
    try:
        baseline = load_results(args.baseline)
        current = load_results(args.current)
        report = compare_docs(baseline, current)
    except FileNotFoundError as error:
        print(f"perf-gate: {error}", file=sys.stderr)
        return 2
    except (CompareError, json.JSONDecodeError) as error:
        print(f"perf-gate: {error}", file=sys.stderr)
        return 2
    text = report.render()
    if args.report:
        Path(args.report).write_text(text + "\n")
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(text)
        if not report.ok:
            print(
                "\nIf this movement is intentional, bless it with\n"
                "  python -m repro.bench.perfgate run --update-baseline\n"
                "and commit BENCH_baseline.json (see docs/PERFORMANCE.md).",
            )
    return 0 if report.ok else 1


def _cmd_list(_args) -> int:
    print("perf-gate suite:")
    for bench in SUITE:
        print(f"  {bench.bid:<18} {bench.title}")
        for spec in bench.metrics:
            print(
                f"      {spec.name:<32} [{spec.units}, {spec.direction} "
                f"is better, tol {spec.tolerance_pct:.1f}%]"
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perfgate",
        description="Deterministic performance-regression gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the suite, write results")
    run_p.add_argument(
        "--out", default=DEFAULT_OUT, metavar="PATH",
        help=f"result file (default: {DEFAULT_OUT})",
    )
    run_p.add_argument(
        "--only", action="append", metavar="BENCH",
        help="run only this benchmark id (repeatable; see 'list')",
    )
    run_p.add_argument(
        "--update-baseline", action="store_true",
        help="also bless the results as the committed baseline",
    )
    run_p.add_argument(
        "--trace-out", metavar="PATH",
        help="write a Chrome/Perfetto trace of the suite's systems",
    )
    run_p.add_argument(
        "--metrics-out", metavar="PATH",
        help="write all repro.obs metric registries (incl. the "
        "perfgate.* gauges) as JSON",
    )
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser(
        "compare", help="diff two result files; non-zero on regression"
    )
    cmp_p.add_argument("baseline", help="baseline result file")
    cmp_p.add_argument("current", help="current result file")
    cmp_p.add_argument(
        "--report", metavar="PATH",
        help="also write the rendered diff table to this file",
    )
    cmp_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable output",
    )
    cmp_p.set_defaults(func=_cmd_compare)

    list_p = sub.add_parser("list", help="list benchmarks and metrics")
    list_p.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as error:  # unknown --only id
        print(f"perf-gate: {error.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
