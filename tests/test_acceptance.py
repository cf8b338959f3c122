"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so the suite can be read as a
scorecard.  Tolerances are fixed here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cloudq import arcsine, division, fixedpoint, master, resources, states
from cloudq.presets import (
    ARCSINE_EXACT_MINIMUM,
    ARCSINE_NOISE_ROW,
    ARCSINE_PIECE_SLACK,
    EXPECTED_RESOURCES,
    PIECEWISE_ARCSINE_TABLE,
    PRESET_CASES,
    RESOURCE_BANDS,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_resource_table_reproduction():
    start = time.monotonic()
    failures = []
    for name, case in PRESET_CASES.items():
        report = resources.estimate_case(case)
        eps_max, t_count, t_depth, qubits = EXPECTED_RESOURCES[name]
        checks = [
            ("t_count", report.total.t_count, t_count, RESOURCE_BANDS["t_count"]),
            ("t_depth", report.total.t_depth, t_depth, RESOURCE_BANDS["t_depth"]),
            ("qubits", report.qubits.total, qubits, RESOURCE_BANDS["logical_qubits"]),
        ]
        for label, got, want, band in checks:
            if abs(got / want - 1) > band:
                failures.append(f"{name} {label}: {got:.3g} vs {want:.3g}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    _report(
        "resource-table",
        ok,
        f"5 cases x (t_count +-15%, t_depth +-30%, qubits +-10%) in {elapsed:.2f}s",
    )
    assert not failures, failures
    assert elapsed < 10.0


def test_error_budget_reproduction():
    failures = []
    for name, case in PRESET_CASES.items():
        expected = EXPECTED_RESOURCES[name][0]
        got = resources.error_budget(case)  # 2**(-n_eps+1) + eps_rotation
        if abs(got / expected - 1) > RESOURCE_BANDS["eps_max"]:
            failures.append(f"{name}: {got:.3e} vs {expected:.3e}")
    _report("error-budget", not failures, "5 cases within +-20%")
    assert not failures, failures


def test_arcsine_piece_table():
    start = time.monotonic()
    exact = 0
    failures = []
    fits = {}
    for eps, degree, expected in PIECEWISE_ARCSINE_TABLE:
        pp = arcsine.min_pieces(degree, eps)
        fits[(eps, degree)] = pp
        if (eps, degree) == ARCSINE_NOISE_ROW:
            continue
        if pp.piece_count == expected:
            exact += 1
        if abs(pp.piece_count - expected) > ARCSINE_PIECE_SLACK:
            failures.append(f"d={degree} eps={eps:g}: {pp.piece_count} vs {expected}")
    for (eps, degree), pp in fits.items():
        worst = arcsine.verify(pp, grid_factor=10)
        if worst > 1.05 * eps:
            failures.append(f"verify d={degree} eps={eps:g}: {worst:.3e}")
    elapsed = time.monotonic() - start
    ok = exact >= ARCSINE_EXACT_MINIMUM and not failures and elapsed < 120.0
    _report(
        "arcsine-table",
        ok,
        f"{exact}/13 exact, all within +-2, verified at 10x grid, {elapsed:.1f}s",
    )
    assert exact >= ARCSINE_EXACT_MINIMUM
    assert not failures, failures
    assert elapsed < 120.0


def test_scaling_claims():
    report = resources.scaling_report(
        [PRESET_CASES[f"paper-case-{i}"] for i in (1, 2, 3)]
    )
    base = resources.estimate_case(PRESET_CASES["paper-case-1"]).total.t_count
    steps_ratio = (
        resources.estimate_case(PRESET_CASES["paper-case-4"]).total.t_count / base
    )
    eps_ratio = (
        resources.estimate_case(PRESET_CASES["paper-case-5"]).total.t_count / base
    )
    ok = (
        120 <= report.end_to_end_ratio <= 230
        and 9 <= steps_ratio <= 14
        and 12 <= eps_ratio <= 22
        and 1.8 <= report.loglog_slope <= 2.4
    )
    _report(
        "scaling",
        ok,
        f"N ratio {report.end_to_end_ratio:.1f}, M ratio {steps_ratio:.1f}, "
        f"eps ratio {eps_ratio:.1f}, slope {report.loglog_slope:.2f}",
    )
    assert 120 <= report.end_to_end_ratio <= 230
    assert 9 <= steps_ratio <= 14
    assert 12 <= eps_ratio <= 22
    assert 1.8 <= report.loglog_slope <= 2.4


def test_dynamical_equivalence():
    worst = 0.0
    for n, steps, k0dt in (
        (2, 50, 0.05), (3, 20, 0.05), (5, 20, 0.02), (8, 10, 0.01),
        (10, 50, 0.002), (10, 10, 0.005), (6, 50, 0.01), (4, 50, 0.05),
    ):
        table = states.build_transition_table(n, states.KernelSpec(k0=1.0), k0dt)
        merged = division.run_merged(table, steps)
        reference = master.evolve(
            master.ProbabilityTable.point_mass(states.MassDistribution.monodisperse(n)),
            table,
            steps,
        )
        for state in set(merged.entries) | set(reference.entries):
            worst = max(
                worst,
                abs(merged.entries.get(state, 0.0) - reference.entries.get(state, 0.0)),
            )
    exact_ok = True
    for n, steps in ((2, 4), (4, 4), (6, 4), (5, 3)):
        table = states.build_transition_table(
            n, states.KernelSpec(k0=Fraction(1)), Fraction(1, 25)
        )
        tree = division.run_tree(table, steps)
        collapsed = division.merge_branches(tree, steps)
        merged = division.run_merged(table, steps)
        exact_ok &= set(collapsed.entries) == set(merged.entries) and all(
            collapsed.entries[s] == merged.entries[s] for s in merged.entries
        )
    ok = worst <= master.MERGED_TOL and exact_ok
    _report(
        "dynamical-equivalence",
        ok,
        f"merged vs solver max diff {worst:.2e}; tree marginalization exact: {exact_ok}",
    )
    assert worst <= master.MERGED_TOL == 1e-12
    assert exact_ok


def _random_table(rng, n, states_cache):
    pool = states_cache.setdefault(n, states.enumerate_states(n))
    count = int(rng.integers(1, 5))
    chosen = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    weights = rng.random(len(chosen)) + 1e-3
    weights /= weights.sum()
    return master.ProbabilityTable(
        {pool[i]: float(w) for i, w in zip(chosen, weights)}
    )


def test_conservation_suite():
    rng = np.random.default_rng(20240809)
    states_cache: dict[int, list] = {}
    cases = 10_000
    worst_prob = 0.0
    worst_mass = 0.0
    start = time.monotonic()
    for _ in range(cases):
        n = int(rng.integers(2, 11))
        kind = ("constant", "sum", "product")[int(rng.integers(0, 3))]
        kernel = states.KernelSpec(kind, float(rng.uniform(0.1, 2.0)))
        p = _random_table(rng, n, states_cache)
        # scale dt so the fastest populated state stays inside one step
        unit = states.build_transition_table(n, kernel, 1.0)
        max_rate = max(
            states.total_transition_rate(unit, state) for state in p.entries
        )
        dt = float(rng.uniform(0.1, 0.95)) / max_rate if max_rate > 0 else 0.1
        table = states.build_transition_table(n, kernel, dt)
        stepped = master.evolve(p, table, 1)
        worst_prob = max(worst_prob, abs(stepped.total() - 1))
        worst_mass = max(worst_mass, abs(master.mass_expectation(stepped) - n))
    elapsed = time.monotonic() - start
    ok = worst_prob <= 1e-12 and worst_mass <= 1e-9
    _report(
        "conservation",
        ok,
        f"{cases} cases, prob drift {worst_prob:.2e}, mass drift {worst_mass:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst_prob <= 1e-12
    assert worst_mass <= 1e-9


def test_readout_identity():
    rng = np.random.default_rng(77)
    states_cache: dict[int, list] = {}
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        p = _random_table(rng, n, states_cache)
        bin_index = int(rng.integers(1, n + 1))
        diff = abs(
            division.amplitude_expectation(p, bin_index)
            - master.expected_count(p, bin_index)
        )
        worst = max(worst, diff)
    ok = worst <= 1e-12
    _report("readout-identity", ok, f"1000 tables, max diff {worst:.2e}")
    assert worst <= 1e-12


def test_fixedpoint_pipeline_error():
    # Worst-case pipeline error at n_eps=42 with the d=5 / 1e-12 fit, held
    # to a bound made of the stages that cause it.  Every register
    # operation truncates, so each stage costs whole register steps
    # (ulp = 2**-41) on top of the fit's own error eps:
    #   roots:  sqrt_w (scaled by 1/sqrt(s), s >= s_min = 1/2 in the sweep)
    #           and the division pull the quotient down by < 1/sqrt(s_min)
    #           + 1 ulp, sqrt_s pushes it up by less than that; seen
    #           through the arcsine slope 2/sqrt(3) at the 1/2 domain edge;
    #   horner: d truncated constants plus d products truncated once,
    #           each damped by u <= 1/2 in the steps after it: < 4 ulp;
    #   pi/2:   the truncated constant of the complement branch, 1 ulp.
    # The 5e-13 once asserted here (case-1's 2**-41 + eps_rotation) is
    # below this fit's own error, so no truncating pipeline could meet it.
    n_eps, degree, eps, s_min = 42, 5, 1e-12, 0.5
    ulp = 2.0 ** -(n_eps - 1)
    roots = (1 + 1 / math.sqrt(s_min)) * 2 / math.sqrt(3) * ulp
    horner = 4 * ulp
    pi_half = ulp
    bound = eps + roots + horner + pi_half
    arcsine_bound = eps + horner
    table = fixedpoint.build_quantized_arcsine(degree, eps, n_eps)
    report = fixedpoint.estimate_eps_calculation(n_eps, table, samples=10_000)
    arcsine_worst = 0.0
    for n_i, n_j, kdt, s in fixedpoint.sweep_inputs(10_000):
        trace = fixedpoint.emulate_up_pipeline(n_i, n_j, kdt, s, n_eps, table)
        exact = math.asin(trace.quotient / 2 ** (n_eps - 1))
        arcsine_worst = max(arcsine_worst, abs(trace.arcsin_out / 2 ** (n_eps - 1) - exact))
    charged = PRESET_CASES["paper-case-1"].calculation_eps
    ok = report.max_error <= bound and arcsine_worst <= arcsine_bound
    _report(
        "fixedpoint-pipeline",
        ok,
        f"sweep max {report.max_error:.3e} vs stage bound {bound:.3e}, "
        f"arcsine stage {arcsine_worst:.3e} vs {arcsine_bound:.3e} at n_eps=42; "
        f"paper-case-1 charges calculation_eps {charged:.3e}",
    )
    assert report.max_error <= bound
    assert arcsine_worst <= arcsine_bound


def test_fixedpoint_width_scaling():
    narrow = fixedpoint.estimate_eps_calculation(
        20, fixedpoint.build_quantized_arcsine(5, 1e-12, 20), samples=2000
    )
    wide = fixedpoint.estimate_eps_calculation(
        30, fixedpoint.build_quantized_arcsine(5, 1e-12, 30), samples=2000
    )
    ratio = narrow.max_error / wide.max_error
    ok = ratio >= 2**5
    _report("fixedpoint-width-scaling", ok, f"error ratio 20->30 bits: {ratio:.0f}")
    assert ratio >= 2**5


def test_ssa_cross_check():
    start = time.monotonic()
    n, k0, t_end, dt = 10, 1.0, 0.5, 1e-3
    table = states.build_transition_table(n, states.KernelSpec(k0=k0), dt)
    reference = master.evolve(
        master.ProbabilityTable.point_mass(states.MassDistribution.monodisperse(n)),
        table,
        int(round(t_end / dt)),
    )
    cfg = master.SsaConfig(n_runs=10_000, seed=424242, t_end=t_end)
    failures = []
    estimates = master.ssa_population_estimate(table, cfg)
    for bin_index, (mean, stderr) in enumerate(estimates, start=1):
        target = master.expected_count(reference, bin_index)
        if abs(mean - target) > 3 * stderr:
            failures.append(
                f"bin {bin_index}: ssa {mean:.4f} vs euler {target:.4f} "
                f"(3 stderr = {3 * stderr:.4f})"
            )
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report("ssa-cross-check", ok, f"10 bins, 10k runs, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60.0


def test_partition_machinery():
    ok_counts = all(
        len(states.enumerate_states(n)) == states.partition_count_exact(n)
        for n in range(1, 31)
    )
    ratio = states.partition_count_asymptotic(40) / states.partition_count_exact(40)
    ok = ok_counts and 0.9 <= ratio <= 1.2
    _report(
        "partition-machinery",
        ok,
        f"counts match for N<=30; asymptotic/exact at N=40 = {ratio:.3f}",
    )
    assert ok_counts
    assert 0.9 <= ratio <= 1.2
