"""End-to-end benchmark of the Solros reproduction, on two clocks.

Run from the repository root::

    python3 perfbench/run.py --workload fs-read-p2p --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  The workload is set up
and measured repeatedly, each time on a fresh machine, until
``--seconds`` have passed: the simulated-time metrics come from one
repetition (they must repeat exactly, and the run fails if they do
not), the host-clock metrics are medians over the repetitions.

``--trace 1`` is the separate traced run: it measures the workload
untraced, then again with the per-layer probes and the profiler
installed, checks that the simulated-time metrics are identical, and
reports the per-layer metrics.

Every metric is printed as ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every operation returned the
right result.  See README.md for the metric catalog.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
MIN_REPS = 2        # measured repetitions per end-to-end run
MIN_SETUPS = 7      # set-ups per end-to-end run (setup_s is their median)


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'repro'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    return repro


def sim_metrics(run) -> dict:
    """The simulated-clock end-to-end metrics of one measured region."""
    from repro.sim.stats import percentile

    lat, writes = run.lat_ns, run.write_ns
    if not lat or not writes or run.sim_ns <= 0:
        return {}
    return {
        "sim_ops_per_s": len(lat) * 1e9 / run.sim_ns,
        "sim_gbps": run.payload_bytes / run.sim_ns,
        "sim_p50_us": percentile(lat, 50) / 1000.0,
        "sim_p99_us": percentile(lat, 99) / 1000.0,
        "sim_write_p50_us": percentile(writes, 50) / 1000.0,
        "sim_write_p99_us": percentile(writes, 99) / 1000.0,
    }


def sample_counts(run) -> dict:
    """Sample counts, and how many samples lie beyond each p99."""
    from repro.sim.stats import percentile

    def beyond(samples):
        if not samples:
            return 0
        p99 = percentile(samples, 99)
        return sum(1 for s in samples if s > p99)

    return {
        "sample.count": len(run.lat_ns),
        "sample.beyond_p99": beyond(run.lat_ns),
        "sample.write_count": len(run.write_ns),
        "sample.write_beyond_p99": beyond(run.write_ns),
    }


def timed_setup(workload, clock=None) -> float:
    """Set the workload up; returns the host seconds it took: reference
    seconds with a ``clock``, CPU seconds without."""
    gc.collect()   # the previous repetition's garbage is not set-up's cost
    if clock is not None:
        return clock.timed(workload.setup)[0]
    t0 = time.process_time()
    workload.setup()
    return time.process_time() - t0


def repetition(workload, clock=None):
    """Set up, measure and tear down once; returns (setup_s, run)."""
    setup_s = timed_setup(workload, clock)
    try:
        gc.collect()
        run = workload.measure()
    finally:
        workload.close()
    return setup_s, run


class Outcome:
    """Metrics plus the operation counts of a whole command run."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.info: dict = {}     # printed, not part of the JSON result
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.probe = None        # the layers.Probe of a traced run

    def add_run(self, run) -> None:
        self.attempted += run.attempted
        self.failed += run.failed
        self.problems.extend(run.errors)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def end_to_end(workload, seconds: float) -> Outcome:
    from hostclock import HostClock

    out = Outcome()
    clock = workload.clock = HostClock()
    setups, rates, cpu_rates = [], [], []
    first = None
    reps = 0
    start = time.perf_counter()    # the run's wall-clock budget
    while True:
        setup_s, run = repetition(workload, clock)
        reps += 1
        out.add_run(run)
        setups.append(setup_s)
        rates.extend(run.segment_rates())
        cpu_rates.append(len(run.lat_ns) / run.host_s)
        sim = sim_metrics(run)
        if first is None:
            first = run, sim
            rss = peak_rss_mb()
        elif sim != first[1]:
            out.problems.append("simulated-time metrics differ between repetitions")
        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and elapsed * (1 + 1 / reps) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(workload, clock))
        workload.close()
    run, sim = first
    if not sim:
        out.problems.append("no successful operations to time")
    out.metrics.update(sim)
    out.metrics["host_ops_per_s"] = statistics.median(rates)
    out.metrics["setup_s"] = statistics.median(setups)
    out.metrics["peak_rss_mb"] = rss
    out.info = dict(
        sample_counts(run),
        repetitions=reps,
        host_segments=len(rates),
        host_ops_per_cpu_s=statistics.median(cpu_rates),
    )
    return out


def traced(workload) -> Outcome:
    from layers import Probe

    out = Outcome()
    _setup_s, reference = repetition(workload)
    out.add_run(reference)
    with Probe() as probe:
        workload.probe = probe
        try:
            _setup_s, run = repetition(workload)
        finally:
            workload.probe = None
    out.add_run(run)
    out.probe = probe
    if sim_metrics(run) != sim_metrics(reference):
        out.problems.append("traced run changed the simulated-time metrics")
    out.metrics.update(probe.metrics(run.sim_ns))
    out.metrics["host.tracing_overhead"] = probe.host_s / reference.host_s
    out.metrics.update(sample_counts(run))
    out.info = {"host.profiled_total_s": probe.host_rollup()["total"]}
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_repro()
    from catalog import END_TO_END, PER_LAYER, UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        out = traced(workload)
        names = [name for name, *_rest in PER_LAYER]
    else:
        out = end_to_end(workload, args.seconds)
        names = [name for name, *_rest in END_TO_END]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in names:
        print(f"{name} {out.metrics.get(name)} {UNITS[name]}")
    for name, value in out.info.items():
        print(f"{name} {value}")
    print(f"op_fail_ratio {out.failed / max(1, out.attempted)} ratio")
    for problem in out.problems[:10]:
        print(f"FAILED: {problem}")
    missing = [name for name in names if name not in out.metrics]
    if missing:
        out.problems.append(f"missing metrics {missing}")
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": UNITS[name]}
            for name in names
            if name in out.metrics
        },
    }
    print(json.dumps(result))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
