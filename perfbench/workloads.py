"""Seeded job lists, per-job runs with their correctness checks, and the
counts derived from each job's outputs.

Every job mirrors one ``cloudq`` command on generated inputs and calls
the layers' public functions directly, as the tests do.  Each call into a
layer sits inside a tracer span named ``layer.function``.  A job returns
the list of checks it failed (empty when correct) and the objects its
derived counts are computed from; counting happens outside the job span,
so it never inflates a timing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cloudq import arcsine, division, fixedpoint, master, resources, states
from cloudq.presets import (
    ARCSINE_NOISE_ROW,
    ARCSINE_PIECE_SLACK,
    PIECEWISE_ARCSINE_TABLE,
)

KINDS = ("constant", "sum", "product")

# reference: one job shape, N stratified over 12..20 so every batch holds
# the same mix of state-space sizes (77 to 627 states); M = 20 steps reach
# every partition of N <= 20, so the working set is the whole state space.
REFERENCE_NS = tuple(range(12, 21))
REFERENCE_STEPS = 20
REFERENCE_SSA_RUNS = 50
REFERENCE_SECONDS_PER_REP = 7.5

# exact: every (N, M) cell of 6..12 x 4..6 in each repetition, hundreds to
# low thousands of branches per job.
EXACT_NS = tuple(range(6, 13))
EXACT_STEPS = (4, 5, 6)
EXACT_K0 = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
EXACT_DT_SHARE = (Fraction(1, 2), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10))
EXACT_SECONDS_PER_REP = 5.0

# circuit: one job per asserted arcsine row per repetition.  The noise row
# is left out because its EXTENSION_DOMAIN fit fails (degree 9 cannot
# reach 1e-15 near 0.855), and a workload must not fail by construction.
CIRCUIT_ROWS = tuple(
    row for row in PIECEWISE_ARCSINE_TABLE if (row[0], row[1]) != ARCSINE_NOISE_ROW
)
CIRCUIT_N_RANGE = (40, 400)
CIRCUIT_SAMPLES = 1000
CIRCUIT_VERIFY_GRID = 10
CIRCUIT_SECONDS_PER_REP = 37
# register width per arcsine target: the 1e-12 row at paper-case-1's 42
# bits, 1e-13 at paper-case-2's 46, the tighter rows at paper-case-3's 49
CIRCUIT_WIDTH = {1e-12: 42, 1e-13: 46, 1e-14: 49, 1e-15: 49}
# Sweep maxima of estimate_eps_calculation(width, quantize_arcsine(core,
# width, extension), samples=1000) measured at the commit that introduced
# this benchmark; a job fails if its sweep maximum is worse.
SEED_SWEEP_MAX = {
    (1e-12, 4): 7.910672117361628e-12,
    (1e-12, 5): 8.598260992087603e-12,
    (1e-12, 6): 8.701706022407052e-12,
    (1e-13, 5): 5.172529071728604e-13,
    (1e-13, 6): 5.708766792622555e-13,
    (1e-13, 7): 6.636358129696873e-13,
    (1e-14, 5): 6.483702463810914e-14,
    (1e-14, 6): 7.16093850883226e-14,
    (1e-14, 7): 8.365530490550555e-14,
    (1e-14, 8): 8.504308368628699e-14,
    (1e-15, 6): 6.789013795582832e-14,
    (1e-15, 7): 6.866729407306593e-14,
    (1e-15, 8): 8.221201497349284e-14,
}

WORKLOAD_IDS = {"reference": 1, "exact": 2, "circuit": 3}  # seed stream per workload

MERGED_TOL = 1e-12     # merged division against the solver (ROADMAP tolerance)
MASS_TOL = 1e-9        # mass drift bound of the acceptance conservation suite
READOUT_TOL = 1e-12    # readout-identity bound of the acceptance suite


@dataclass(frozen=True)
class Job:
    workload: str
    job_id: int
    n_bins: int
    steps: int = 0
    kind: str = "constant"
    k0: object = 1.0
    dt: object = 0.0
    seed: int = 0
    row: tuple = ()


def _reps(seconds_per_rep: float, seconds: float) -> int:
    """Repetitions of a workload's grid that take about ``seconds``.

    ``seconds_per_rep`` was measured at the commit that introduced the
    benchmark, so the batch is fixed for a given run length and a faster
    program finishes it sooner.
    """
    return max(1, round(seconds / seconds_per_rep))


def _max_unit_rate(n_bins: int, kind: str, one, tr) -> tuple:
    """State count of N and the largest ``sum_h r_h`` over them at ``k0 = dt = 1``."""
    with tr.span("states.enumerate_states"):
        every_state = states.enumerate_states(n_bins)
    unit = states.build_transition_table(n_bins, states.KernelSpec(kind, one), one)
    return len(every_state), max(states.total_transition_rate(unit, s) for s in every_state)


def generate(workload: str, seed: int, seconds: float, tr, counts: dict) -> list[Job]:
    """The seeded job list; ``dt`` stays below every state's step-size limit."""
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
    jobs: list[Job] = []
    limits: dict = {}
    if workload == "reference":
        cells = [n for n in REFERENCE_NS for _ in range(_reps(REFERENCE_SECONDS_PER_REP, seconds))]
        for job_id, idx in enumerate(rng.permutation(len(cells))):
            n_bins = cells[idx]
            kind = KINDS[int(rng.integers(len(KINDS)))]
            k0 = float(rng.uniform(0.5, 2.0))
            share = float(rng.uniform(0.5, 0.9))
            if (n_bins, kind) not in limits:
                limits[n_bins, kind] = _max_unit_rate(n_bins, kind, 1.0, tr)
            n_states, rate = limits[n_bins, kind]
            counts["states.states"] += n_states
            jobs.append(Job(workload, job_id, n_bins, REFERENCE_STEPS, kind, k0,
                            share / (k0 * rate), int(rng.integers(2**31))))
    elif workload == "exact":
        reps = _reps(EXACT_SECONDS_PER_REP, seconds)
        cells = [(n, m) for n in EXACT_NS for m in EXACT_STEPS for _ in range(reps)]
        for job_id, idx in enumerate(rng.permutation(len(cells))):
            n_bins, steps = cells[idx]
            kind = KINDS[int(rng.integers(len(KINDS)))]
            k0 = EXACT_K0[int(rng.integers(len(EXACT_K0)))]
            share = EXACT_DT_SHARE[int(rng.integers(len(EXACT_DT_SHARE)))]
            if (n_bins, kind) not in limits:
                limits[n_bins, kind] = _max_unit_rate(n_bins, kind, Fraction(1), tr)
            n_states, rate = limits[n_bins, kind]
            counts["states.states"] += n_states
            jobs.append(Job(workload, job_id, n_bins, steps, kind, k0, share / (k0 * rate)))
    elif workload == "circuit":
        # N is stratified so every batch spans 40..400.  The strata run
        # against the rows' verify cost (pieces x (degree + 40)^2, the size
        # of its 45-digit series): cheap fits get the large, slow estimates,
        # so most job latencies cluster and the percentiles hold still
        # whatever the seed.
        lo, hi = CIRCUIT_N_RANGE
        width = (hi - lo) / len(CIRCUIT_ROWS)
        ranked = sorted(
            CIRCUIT_ROWS, key=lambda row: row[2] * (row[1] + 40) ** 2, reverse=True
        )
        cells = [
            (row, int(lo + width * (rank + rng.uniform())))
            for _ in range(_reps(CIRCUIT_SECONDS_PER_REP, seconds))
            for rank, row in enumerate(ranked)
        ]
        for job_id, idx in enumerate(rng.permutation(len(cells))):
            row, n_bins = cells[idx]
            jobs.append(Job(workload, job_id, n_bins, row=row))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def run_job(job: Job, tr, out_dir: str):
    """Run one job; returns (failed check descriptions, count inputs)."""
    return _RUNNERS[job.workload](job, tr, out_dir)


def _run_reference(job: Job, tr, out_dir: str):
    """``solve`` plus ``simulate --check-master`` plus an SSA batch."""
    failures = []
    kernel = states.KernelSpec(job.kind, job.k0)
    with tr.span("states.build_transition_table"):
        table = states.build_transition_table(job.n_bins, kernel, job.dt)
    start = master.ProbabilityTable.point_mass(states.MassDistribution.monodisperse(job.n_bins))
    with tr.span("master.evolve_series"):
        series = master.evolve_series(start, table, job.steps)
    with tr.span("division.run_merged"):
        merged = division.run_merged(table, job.steps)
    paths = [os.path.join(out_dir, name) for name in
             ("expected_counts.csv", "probabilities.csv", "division_probabilities.csv")]
    with tr.span("master.write_expected_series"):
        master.write_expected_series(series, paths[0])
    with tr.span("master.write_probability_series"):
        master.write_probability_series(series, paths[1])
    with tr.span("master.write_probability_series"):
        master.write_probability_series([merged], paths[2])
    cfg = master.SsaConfig(n_runs=REFERENCE_SSA_RUNS, seed=job.seed, t_end=job.steps * job.dt)
    with tr.span("master.ssa_population_estimate"):
        estimates = master.ssa_population_estimate(table, cfg)

    final = series[-1]
    worst = max(
        abs(merged.entries.get(s, 0.0) - final.entries.get(s, 0.0))
        for s in set(merged.entries) | set(final.entries)
    )
    if not worst <= MERGED_TOL:
        failures.append(f"merged vs solver max |diff| {worst:.3e} > {MERGED_TOL}")
    for name, dist in (("solver", final), ("merged", merged)):
        drift = abs(dist.total() - 1)
        if not drift <= master.PROB_TOL:
            failures.append(f"{name} total probability off by {drift:.3e}")
    mass = master.mass_expectation(final)
    if not abs(mass - job.n_bins) <= MASS_TOL:
        failures.append(f"mass expectation {mass!r} != N = {job.n_bins}")
    # each bin mean is an integer total over the runs divided by n_runs
    totals = [mean * cfg.n_runs for mean, _ in estimates]
    droplets = [round(t) for t in totals]
    if any(abs(t - d) > 1e-6 for t, d in zip(totals, droplets)):
        failures.append("SSA means are not integer totals over the runs")
    ssa_mass = sum(i * d for i, d in enumerate(droplets, start=1))
    if ssa_mass != job.n_bins * cfg.n_runs:
        failures.append(f"SSA mass {ssa_mass} != N * runs = {job.n_bins * cfg.n_runs}")
    return failures, (table, series, merged, cfg.n_runs, droplets, paths)


def _count_reference(job: Job, inputs, counts: dict) -> None:
    table, series, merged, n_runs, droplets, paths = inputs
    if not all(k > 0 for k in table.kernel_values):
        raise ValueError("flow count assumes a strictly positive kernel")
    counts["states.labels"] += table.num_labels
    counts["master.steps"] += job.steps
    counts["division.merged_steps"] += job.steps
    for dist in series[:-1]:
        for state, prob in dist.entries.items():
            if prob == 0:
                continue
            counts["master.state_steps"] += 1
            # r_h != 0 exactly for the feasible pairs of a positive kernel:
            # two distinct occupied bins, or one bin holding two droplets
            occupied = [c for c in state.counts if c]
            counts["master.flows"] += len(occupied) * (len(occupied) - 1) // 2
            counts["master.flows"] += sum(c >= 2 for c in occupied)
    counts["master.ssa_events"] += job.n_bins * n_runs - sum(droplets)
    counts["master.bytes_written"] += sum(os.path.getsize(p) for p in paths)


def _run_exact(job: Job, tr, out_dir: str):
    """Tree, merged and solver on rational inputs, plus the register replay."""
    failures = []
    kernel = states.KernelSpec(job.kind, job.k0)
    with tr.span("states.build_transition_table"):
        table = states.build_transition_table(job.n_bins, kernel, job.dt)
    start = states.MassDistribution.monodisperse(job.n_bins)
    with tr.span("division.run_tree"):
        branches = division.run_tree(table, job.steps)
    with tr.span("division.merge_branches"):
        collapsed = division.merge_branches(branches, job.steps)
    with tr.span("master.evolve"):
        reference = master.evolve(master.ProbabilityTable({start: Fraction(1)}), table, job.steps)
    with tr.span("division.run_merged"):
        merged = division.run_merged(table, job.steps)
    with tr.span("division.history_label_semantics_check"):
        report = division.history_label_semantics_check(table, job.steps)
    readouts = []
    for bin_index in range(1, job.n_bins + 1):
        with tr.span("division.amplitude_expectation"):
            amplitude = division.amplitude_expectation(merged, bin_index)
        with tr.span("master.expected_count"):
            expected = master.expected_count(merged, bin_index)
        readouts.append((bin_index, amplitude, expected))

    support = set(collapsed.entries) | set(merged.entries) | set(reference.entries)
    zero = Fraction(0)
    for state in support:
        values = [d.entries.get(state, zero) for d in (collapsed, merged, reference)]
        if not all(type(v) is Fraction for v in values) or len(set(values)) != 1:
            failures.append(f"tree/merged/solver disagree at {state.counts}: {values}")
            break
    if not report.ok:
        failures.append(f"label semantics: {report.mismatches} mismatches")
    for bin_index, amplitude, expected in readouts:
        if not abs(amplitude - expected) <= READOUT_TOL:
            failures.append(f"readout bin {bin_index}: {amplitude!r} vs {expected!r}")
    return failures, (table, branches, report)


def _count_exact(job: Job, inputs, counts: dict) -> None:
    table, branches, report = inputs
    counts["states.labels"] += table.num_labels
    counts["master.steps"] += job.steps
    counts["division.merged_steps"] += job.steps
    counts["division.branches"] += len(branches)
    counts["division.semantics_branches"] += report.branches_checked


def _run_circuit(job: Job, tr, out_dir: str):
    """Fit, verify, quantize, sweep and estimate for one table row."""
    failures = []
    eps, degree, expected = job.row
    width = CIRCUIT_WIDTH[eps]
    with tr.span("arcsine.min_pieces"):
        core = arcsine.min_pieces(degree, eps)
    with tr.span("arcsine.min_pieces"):
        extension = arcsine.min_pieces(degree, eps, domain=fixedpoint.EXTENSION_DOMAIN)
    with tr.span("arcsine.verify"):
        verified = arcsine.verify(core, grid_factor=CIRCUIT_VERIFY_GRID)
    with tr.span("fixedpoint.quantize_arcsine"):
        quantized = fixedpoint.quantize_arcsine(core, width, extension)
    with tr.span("fixedpoint.estimate_eps_calculation"):
        sweep = fixedpoint.estimate_eps_calculation(width, quantized, samples=CIRCUIT_SAMPLES)
    case = resources.EstimationCase(
        n_bins=job.n_bins, time_steps=2000, n_eps=width, degree=degree,
        pieces=core.piece_count, eps_rotation=eps, eps_estimation=9.9e-3, eps_c=1e-8,
        eps_calculation=sweep.max_error,
    )
    with tr.span("resources.estimate_case"):
        report = resources.estimate_case(case)

    if abs(core.piece_count - expected) > ARCSINE_PIECE_SLACK:
        failures.append(f"d={degree} eps={eps:g}: {core.piece_count} pieces vs {expected}")
    if not verified < eps:
        failures.append(f"verify d={degree} eps={eps:g}: {verified:.3e} >= eps")
    seed_max = SEED_SWEEP_MAX[eps, degree]
    if not sweep.max_error <= seed_max:
        failures.append(f"sweep max {sweep.max_error!r} worse than {seed_max!r}")
    if not (report.total.t_count > 0 and 0 < report.eps_max < math.inf):
        failures.append("resource report has no T-count or error budget")
    return failures, (core, extension, sweep, case)


def _fits(pp) -> int:
    """Fits min_pieces made: each piece took 1 + log2((hi - lower)/(upper - lower))."""
    hi = pp.domain[1]
    total = 0.0
    for piece in pp.pieces:
        total += 1 + math.log2((hi - piece.lower) / (piece.upper - piece.lower))
    fits = round(total)
    if abs(total - fits) > 1e-6 * len(pp.pieces):
        raise ValueError("piece bounds are not dyadic bisections of the remainder")
    return fits


def _count_circuit(job: Job, inputs, counts: dict) -> None:
    core, extension, sweep, case = inputs
    counts["arcsine.pieces"] += core.piece_count + extension.piece_count
    counts["arcsine.fits"] += _fits(core) + _fits(extension)
    counts["arcsine.verified_pieces"] += core.piece_count
    counts["fixedpoint.samples"] += sweep.samples
    counts["resources.estimates"] += 1
    counts["resources.pairs"] += states.label_pair_count(case.n_bins)


_RUNNERS = {"reference": _run_reference, "exact": _run_exact, "circuit": _run_circuit}
_COUNTERS = {"reference": _count_reference, "exact": _count_exact, "circuit": _count_circuit}


def count_job(job: Job, inputs, counts: dict) -> None:
    _COUNTERS[job.workload](job, inputs, counts)
