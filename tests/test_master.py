import math

import pytest

from cloudq.master import (
    ProbabilityTable,
    SsaConfig,
    StepSizeError,
    euler_step,
    evolve,
    evolve_series,
    expected_count,
    marginal,
    mass_expectation,
    ssa_population_estimate,
    write_expected_series,
    write_probability_series,
)
from cloudq.division import HistoryBranch, divide_step
from cloudq.states import (
    KernelSpec,
    MassDistribution,
    StateSpaceError,
    build_transition_table,
    total_transition_rate,
)


def _mono_table(n, k0=1.0, dt=0.1):
    table = build_transition_table(n, KernelSpec(k0=k0), dt)
    p0 = ProbabilityTable.point_mass(MassDistribution.monodisperse(n))
    return table, p0


def test_euler_step_two_state_chain():
    table, p0 = _mono_table(2, k0=1.0, dt=0.1)
    p1 = euler_step(p0, table)
    assert p1.entries[MassDistribution((2, 0))] == pytest.approx(0.9, abs=1e-15)
    assert p1.entries[MassDistribution((0, 1))] == pytest.approx(0.1, abs=1e-15)
    assert p1.step == 1


def test_absorbing_state_fixed_point():
    table, _ = _mono_table(4, dt=0.05)
    absorbed = ProbabilityTable.point_mass(MassDistribution.absorbed(4))
    stepped = euler_step(absorbed, table)
    assert stepped.entries[MassDistribution.absorbed(4)] == 1.0


# Hand expansion of the discretized update for N=3, K0=1, dt=0.05:
# states (3,0,0), (1,1,0), (0,0,1); the only rates are 3*dt from the
# monodisperse state and 1*dt from (1,1,0).  Two steps from P((3,0,0))=1:
# P = (0.85^2, 0.85*0.15 + 0.15*0.95, 0.15*0.05).
N3_TWO_STEP = {
    (3, 0, 0): 0.7225,
    (1, 1, 0): 0.27,
    (0, 0, 1): 0.0075,
}


def test_euler_two_steps_n3_matches_hand_expansion():
    table, p0 = _mono_table(3, k0=1.0, dt=0.05)
    p2 = euler_step(euler_step(p0, table), table)
    assert set(s.counts for s in p2.entries) == set(N3_TWO_STEP)
    for state, prob in p2.entries.items():
        assert prob == pytest.approx(N3_TWO_STEP[state.counts], abs=1e-15)


def test_step_size_error_reports_state():
    table, p0 = _mono_table(4, k0=1.0, dt=1.0)  # 6*K*dt > 1 for (4,0,0,0)
    with pytest.raises(StepSizeError) as err:
        euler_step(p0, table)
    assert "(4, 0, 0, 0)" in str(err.value)


def test_step_size_error_names_first_state_in_counts_order():
    # N=4, K=1, dt=0.4: sum_h r_h is 1.2 for (2,1,0,0) and 2.4 for
    # (4,0,0,0), so the first over-limit state in counts order is not the
    # worst one; (1,0,1,0) stays within the limit
    table = build_transition_table(4, KernelSpec(k0=1.0), 0.4)
    first, worst = MassDistribution((2, 1, 0, 0)), MassDistribution((4, 0, 0, 0))
    assert 1 < total_transition_rate(table, first) < total_transition_rate(table, worst)
    p = ProbabilityTable(
        {worst: 0.5, MassDistribution((1, 0, 1, 0)): 0.25, first: 0.25}
    )
    with pytest.raises(StepSizeError) as err:
        euler_step(p, table)
    message = str(err.value)
    assert message == (
        f"sum of transition probabilities {total_transition_rate(table, first)} > 1 "
        "for state (2, 1, 0, 0); reduce dt"
    )
    with pytest.raises(StepSizeError) as branch_err:
        divide_step([HistoryBranch((), first, 1.0)], table, 1)
    assert str(branch_err.value) == message


def test_evolve_identity_and_closed_form():
    table, p0 = _mono_table(2, k0=1.0, dt=0.1)
    assert evolve(p0, table, 0) is p0
    for steps in (1, 5, 20):
        p = evolve(p0, table, steps)
        assert p.entries[MassDistribution((0, 1))] == pytest.approx(
            1 - 0.9**steps, abs=1e-13
        )


def test_absorbing_limit():
    table, p0 = _mono_table(5, k0=1.0, dt=0.02)
    p = evolve(p0, table, 600)
    assert p.entries[MassDistribution.absorbed(5)] > 0.99


def test_marginal_examples():
    p = ProbabilityTable(
        {MassDistribution((2, 0)): 0.9, MassDistribution((0, 1)): 0.1}
    )
    assert marginal(p, 1, 2) == pytest.approx(0.9)
    for bin_index in (1, 2):
        total = sum(marginal(p, bin_index, v) for v in range(0, 3))
        assert total == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(StateSpaceError):
        marginal(p, 3, 0)

    table, p0 = _mono_table(3, k0=1.0, dt=0.05)
    p2 = evolve(p0, table, 2)
    assert marginal(p2, 1, 1) == pytest.approx(
        p2.entries[MassDistribution((1, 1, 0))], abs=1e-15
    )


def test_expected_count_examples():
    table, p0 = _mono_table(6)
    assert expected_count(p0, 1) == 6
    table2, p02 = _mono_table(2, k0=1.0, dt=0.1)
    p1 = euler_step(p02, table2)
    assert expected_count(p1, 1) == pytest.approx(2 * 0.9, abs=1e-14)


def test_mass_identity_along_trajectory():
    table, p0 = _mono_table(6, k0=0.8, dt=0.02)
    p = p0
    for _ in range(50):
        p = euler_step(p, table)
        assert mass_expectation(p) == pytest.approx(6.0, abs=1e-9)
        assert abs(p.total() - 1) <= 1e-12


def test_monotone_absorption():
    table, p0 = _mono_table(5, k0=1.0, dt=0.02)
    absorbed = MassDistribution.absorbed(5)
    last = 0.0
    p = p0
    for _ in range(200):
        p = euler_step(p, table)
        current = p.entries.get(absorbed, 0.0)
        assert current >= last - 1e-15
        last = current


def test_first_order_convergence():
    # errors against a dt/8 proxy: pure first order gives ratio 7/3
    n, k0, t_end, dt = 6, 1.0, 0.4, 0.02
    values = {}
    for divisor in (1, 2, 8):
        table = build_transition_table(n, KernelSpec(k0=k0), dt / divisor)
        p0 = ProbabilityTable.point_mass(MassDistribution.monodisperse(n))
        p = evolve(p0, table, int(round(t_end / (dt / divisor))))
        values[divisor] = expected_count(p, 1)
    err_coarse = abs(values[1] - values[8])
    err_fine = abs(values[2] - values[8])
    assert 1.5 <= err_coarse / err_fine <= 2.5


def test_ssa_frozen_kernel():
    table = build_transition_table(4, KernelSpec(k0=0.0), 0.1)
    mean, stderr = ssa_population_estimate(table, SsaConfig(n_runs=64, seed=7, t_end=2.0))[0]
    assert mean == 4.0
    assert stderr == 0.0


def test_ssa_two_state_analytic():
    table = build_transition_table(2, KernelSpec(k0=1.0), 0.01)
    cfg = SsaConfig(n_runs=10_000, seed=11, t_end=1.0)
    mean, stderr = ssa_population_estimate(table, cfg)[1]
    expected = 1 - math.exp(-1)
    assert abs(mean - expected) <= 3 * stderr


def test_ssa_deterministic_under_seed():
    table = build_transition_table(5, KernelSpec(k0=1.0), 0.01)
    cfg = SsaConfig(n_runs=50, seed=123, t_end=0.5)
    assert ssa_population_estimate(table, cfg)[1] == ssa_population_estimate(table, cfg)[1]


def test_ssa_needs_two_runs():
    table = build_transition_table(2, KernelSpec(k0=1.0), 0.01)
    with pytest.raises(StateSpaceError):
        ssa_population_estimate(table, SsaConfig(n_runs=1, seed=1, t_end=1.0))


def test_csv_exports(tmp_path):
    table, p0 = _mono_table(3, k0=1.0, dt=0.05)
    series = evolve_series(p0, table, 2)
    expected_path = tmp_path / "expected.csv"
    probs_path = tmp_path / "probs.csv"
    write_expected_series(series, str(expected_path))
    write_probability_series(series, str(probs_path))
    lines = expected_path.read_text().splitlines()
    assert lines[0] == "step,bin,expected_count"
    assert len(lines) == 1 + 3 * 3
    plines = probs_path.read_text().splitlines()
    assert plines[0] == "step,state_id,probability"
    assert any(line.startswith("2,1|1|0,") for line in plines)
