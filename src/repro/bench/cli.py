"""Standalone experiment runner: ``python -m repro.bench``.

Runs the paper's figures, tables and ablations from
:data:`repro.bench.claims.CLAIMS`: each prints its table and checks
its claim, and the exit status is 1 if any claim fails.  Useful for
poking at a single experiment while reading the paper::

    python -m repro.bench --list
    python -m repro.bench fig08
    python -m repro.bench fig01a fig13
    python -m repro.bench all

With ``--trace-out`` every Solros system built during the run records
request-scoped spans (repro.obs) and the collected trace is written as
Chrome/Perfetto ``trace_event`` JSON — load it at ``ui.perfetto.dev``
or ``chrome://tracing``.  ``--metrics-out`` dumps the metric
registries (counters/gauges/histograms/meters) as flat JSON.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from .claims import CLAIMS

__all__ = ["main", "run_one"]


def run_one(short: str) -> bool:
    """Run one claim and print its status line.

    A failed shape-check (AssertionError) or a crashed experiment
    (any other exception) marks the run failed but never aborts it:
    ``all`` always visits every experiment and reports at the end.
    """
    started = time.time()
    try:
        CLAIMS[short]()
        status = "ok"
    except AssertionError as error:
        status = f"SHAPE-CHECK FAILED: {error}"
    except Exception as error:
        status = f"ERROR: {error!r}"
    print(f"\n[{short}] {status} ({time.time() - started:.1f}s wall)")
    return status == "ok"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run Solros reproduction experiments standalone.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record repro.obs spans for every Solros system built "
        "during the run and write a Chrome/Perfetto trace JSON here",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the collected metric registries as JSON here "
        "(implies tracing, like --trace-out)",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for short, claim in CLAIMS.items():
            print(f"  {short:<24} {claim.__doc__.splitlines()[0]}")
        return 0

    wanted = (
        list(CLAIMS) if args.experiments == ["all"] else args.experiments
    )
    for short in wanted:
        if short not in CLAIMS:
            print(f"unknown experiment: {short!r} (try --list)")
            return 2

    capture = None
    if args.trace_out or args.metrics_out:
        from ..obs import enable_capture

        capture = enable_capture()

    ok = True
    try:
        for short in wanted:
            ok &= run_one(short)
    finally:
        if capture is not None:
            from ..obs import (
                disable_capture,
                write_chrome_trace,
                write_metrics_json,
            )

            disable_capture()
            if args.trace_out:
                doc = write_chrome_trace(
                    args.trace_out, capture.export_triples()
                )
                print(
                    f"\nwrote {len(doc['traceEvents'])} trace events "
                    f"-> {args.trace_out}"
                )
            if args.metrics_out:
                write_metrics_json(args.metrics_out, capture.metric_pairs())
                print(f"wrote metrics -> {args.metrics_out}")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
