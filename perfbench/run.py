"""cloudq benchmark: one seeded workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

Workloads are ``reference``, ``exact`` and ``circuit`` (see README.md in
this directory).  Each is a closed loop with one client in this process:
a fixed, seeded batch of jobs, sized from ``--seconds``, runs back to
back.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
every job once untraced and once traced and prints the per-layer metrics.
Times are normalised by the speed probe in ``speed.py``.  The last line
of standard output is the result object; a run record and, when traced,
the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

from speed import SpeedProbe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer time (s) -> the spans whose self time it sums
LAYER_TIMES = {
    "states.enumerate_s": ("states.enumerate_states",),
    "states.table_build_s": ("states.build_transition_table",),
    "master.evolve_s": ("master.evolve_series", "master.evolve"),
    "master.ssa_s": ("master.ssa_population_estimate",),
    "master.write_s": ("master.write_expected_series", "master.write_probability_series"),
    "division.merged_s": ("division.run_merged",),
    "division.tree_s": ("division.run_tree",),
    "division.merge_s": ("division.merge_branches",),
    "division.semantics_s": ("division.history_label_semantics_check",),
    "division.readout_s": ("division.amplitude_expectation",),
    "arcsine.fit_s": ("arcsine.min_pieces",),
    "arcsine.verify_s": ("arcsine.verify",),
    "fixedpoint.quantize_s": ("fixedpoint.quantize_arcsine",),
    "fixedpoint.sweep_s": ("fixedpoint.estimate_eps_calculation",),
    "resources.estimate_s": ("resources.estimate_case",),
}
LAYER_COUNTS = (
    "states.states", "states.labels", "master.flows", "master.ssa_events",
    "master.bytes_written", "division.branches", "division.semantics_branches",
    "arcsine.pieces", "arcsine.fits", "resources.estimates", "resources.pairs",
)
# name -> (unit, numerator count or time, denominator count or time, scale)
LAYER_RATIOS = {
    "master.step_ms": ("ms", "master.evolve_s", "master.steps", 1e3),
    "master.state_steps_per_s": ("1/s", "master.state_steps", "master.evolve_s", 1),
    "master.ssa_events_per_s": ("1/s", "master.ssa_events", "master.ssa_s", 1),
    "division.merged_step_ms": ("ms", "division.merged_s", "division.merged_steps", 1e3),
    "division.branches_per_s": ("1/s", "division.branches", "division.tree_s", 1),
    "arcsine.useful_fit_ratio": ("ratio", "arcsine.pieces", "arcsine.fits", 1),
    "arcsine.verify_pieces_per_s": ("1/s", "arcsine.verified_pieces", "arcsine.verify_s", 1),
    "fixedpoint.samples_per_s": ("1/s", "fixedpoint.samples", "fixedpoint.sweep_s", 1),
    "resources.pairs_per_s": ("1/s", "resources.pairs", "resources.estimate_s", 1),
}


class Counts(dict):
    """Derived counts; a count nothing added to reads 0."""

    def __missing__(self, key):
        return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reference", "exact", "circuit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads() -> dict:
    """Single-threaded BLAS in this process and its children; returns prior values."""
    prior = {name: os.environ.get(name) for name in THREAD_VARS}
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return prior


def import_cloudq() -> None:
    """Import cloudq from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "cloudq", "__init__.py")):
        raise SystemExit(f"error: no cloudq sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import cloudq

    if os.path.dirname(os.path.dirname(os.path.abspath(cloudq.__file__))) != SRC:
        raise SystemExit(f"error: imported cloudq from {cloudq.__file__}, not {SRC}")


def setup_probe(args) -> None:
    """Child process: normalised time to import cloudq and generate the job list."""
    from tracing import NullTracer

    probe = SpeedProbe(args.workload)
    before = probe.sample()
    start = time.perf_counter()
    import_cloudq()
    import workloads

    workloads.generate(args.workload, args.seed, args.seconds, NullTracer(), Counts())
    elapsed = time.perf_counter() - start
    print(repr(elapsed * probe.factor(before, probe.sample())))


def measure_setup(args) -> list[float]:
    """Set-up time in SETUP_REPEATS fresh interpreters, each waited for."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with exactly TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise SystemExit(f"error: {n} jobs leave no percentile with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _attempt(job, tracer, work_dir: str, counts):
    """Run one job; its failed checks, with an exception counted as a failure.

    Counts are derived only for traced runs, after the job span has closed.
    """
    import workloads

    try:
        with tracer.job(job.job_id):
            failures, inputs = workloads.run_job(job, tracer, work_dir)
    except Exception as exc:  # a failing job is counted, not fatal
        return [f"job {job.job_id} raised {type(exc).__name__}: {exc}"]
    if tracer.enabled:
        workloads.count_job(job, inputs, counts)
    return failures


def run_jobs(jobs, work_dir: str, probe: SpeedProbe, tracer=None, counts=None):
    """Run jobs back to back, probing machine speed before and after each.

    Returns the untraced runs' raw seconds and normalising factors, every
    run's failures, and the traced runs' factors by job id.  With a tracer,
    every job runs untraced and traced, alternating which goes first.
    """
    from tracing import NullTracer

    plain = NullTracer()
    raw, factors, failures, traced = [], [], [], {}
    before = probe.sample()
    for job in jobs:
        if tracer is None:
            modes = [plain]
        else:
            modes = [plain, tracer] if job.job_id % 2 == 0 else [tracer, plain]
        for mode in modes:
            began = time.perf_counter()
            failures.append(_attempt(job, mode, work_dir, counts))
            elapsed = time.perf_counter() - began
            after = probe.sample()
            if mode is plain:
                raw.append(elapsed)
                factors.append(probe.factor(before, after))
            else:
                traced[job.job_id] = probe.factor(before, after)
            before = after
    return raw, factors, failures, traced


def layer_metrics(tracer, counts, scale: dict, overhead: float) -> dict:
    self_time = tracer.self_times(scale)
    values = {name: sum(self_time.get(s, 0.0) for s in spans) for name, spans in LAYER_TIMES.items()}
    metrics = {name: {"value": v, "unit": "s"} for name, v in values.items()}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": counts[name], "unit": "count"}
    lookup = Counts({**counts, **values})
    for name, (unit, num, den, factor) in LAYER_RATIOS.items():
        value = factor * lookup[num] / lookup[den] if lookup[den] else 0.0
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics


def run_record(args, prior_threads: dict) -> dict:
    import mpmath
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "env": {name: os.environ.get(name) for name in ("CLOUDQ_THREADS", *THREAD_VARS)},
        "env_before_pinning": prior_threads,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    prior_threads = pin_threads()
    warnings.simplefilter("ignore")  # numpy's poorly-conditioned-fit notices from arcsine
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_cloudq()
    import crosscheck
    import workloads
    from tracing import NullTracer, Tracer

    record = run_record(args, prior_threads)
    setup_samples = measure_setup(args)
    probe = SpeedProbe(args.workload)
    tracer = Tracer() if args.trace else NullTracer()
    counts = Counts()
    before = probe.sample()
    with tracer.job(-1):
        jobs = workloads.generate(args.workload, args.seed, args.seconds, tracer, counts)
    scale = {-1: probe.factor(before, probe.sample())}

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="jobs-", dir=OUT_DIR)
    try:
        cross_failures = crosscheck.cross_check(args.workload, jobs, args.seed, work_dir)
        raw, factors, failures, traced = run_jobs(
            jobs, work_dir, probe, tracer if args.trace else None, counts
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    latencies = [r * f for r, f in zip(raw, factors)]
    attempted = len(failures)
    failed = sum(bool(f) for f in failures)
    record.update({
        "jobs": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for f in failures if f][:20],
        "cross_check_failures": cross_failures,
        "setup_samples_s": setup_samples,
        "raw_job_s": raw,
        "job_factors": factors,
        "raw_wall_s": sum(raw),
        "raw_job_p50_s": statistics.median(raw),
        "machine_speed_median": statistics.median(factors),
    })
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        scale.update(traced)
        job_spans = {span[4]: span for span in tracer.spans if span[0] == "job"}
        traced_total = sum((job_spans[j][2] - job_spans[j][1]) * f for j, f in traced.items())
        metrics = layer_metrics(tracer, counts, scale, traced_total / sum(latencies) - 1)
        record["counts"] = dict(counts)
        tracer.write(os.path.join(OUT_DIR, stem + "-spans.json"))
    else:
        tail_s, level = tail(latencies)
        record.update({"job_tail_level_pct": level, "job_samples": len(latencies)})
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": sum(latencies), "unit": "s"},
            "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "ok_frac": {"value": 1 - failed / attempted, "unit": "frac"},
        }
    record["metrics"] = metrics
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} raw wall {record['raw_wall_s']:.3f} s, machine speed factor "
          f"{record['machine_speed_median']:.3f}, failed_frac = {record['failed_frac']:.6g}")
    if not args.trace:
        print(f"{args.workload} job_tail_s is p{record['job_tail_level_pct']:.1f} "
              f"of {record['job_samples']} jobs")
    for failure in record["failures"] + cross_failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0 and not cross_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
