from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudq.division import (
    BranchCapError,
    HistoryBranch,
    amplitude_expectation,
    divide_step,
    history_label_semantics_check,
    merge_branches,
    run_merged,
    run_tree,
)
from cloudq.master import (
    ProbabilityTable,
    StepSizeError,
    evolve,
    expected_count,
)
from cloudq.states import (
    KernelSpec,
    MassDistribution,
    build_transition_table,
    transition_rate,
)


def _table(n, k0=1.0, dt=0.01):
    return build_transition_table(n, KernelSpec(k0=k0), dt)


def _max_entry_diff(a: ProbabilityTable, b: ProbabilityTable) -> float:
    keys = set(a.entries) | set(b.entries)
    return max(abs(a.entries.get(k, 0.0) - b.entries.get(k, 0.0)) for k in keys)


def test_divide_step_two_state_example():
    table = _table(2, k0=1.0, dt=0.1)
    root = HistoryBranch((), MassDistribution((2, 0)), 1.0)
    children = divide_step([root], table, 1)
    by_label = {c.history[-1]: c for c in children}
    assert by_label[1].state.counts == (0, 1)
    assert by_label[1].prob == pytest.approx(0.1, abs=1e-15)
    assert by_label[0].state.counts == (2, 0)
    assert by_label[0].prob == pytest.approx(0.9, abs=1e-15)


def test_divide_step_absorbing_branch():
    table = _table(5, dt=0.05)
    root = HistoryBranch((), MassDistribution.absorbed(5), 1.0)
    children = divide_step([root], table, 1)
    assert len(children) == 1
    assert children[0].history == (0,)
    assert children[0].prob == 1.0


def test_divide_step_matches_direct_rates():
    table = _table(4, k0=0.9, dt=0.02)
    state = MassDistribution.monodisperse(4)
    children = divide_step([HistoryBranch((), state, 1.0)], table, 1)
    for child in children:
        label = child.history[-1]
        if label == 0:
            continue
        assert child.prob == pytest.approx(
            transition_rate(table, state, label), abs=1e-12
        )


def test_divide_step_history_length_check():
    table = _table(3)
    root = HistoryBranch((), MassDistribution.monodisperse(3), 1.0)
    with pytest.raises(Exception):
        divide_step([root], table, 2)


def test_divide_step_normalization():
    table = _table(6, k0=1.3, dt=0.01)
    branches = [HistoryBranch((), MassDistribution.monodisperse(6), 1.0)]
    for step in (1, 2, 3):
        branches = divide_step(branches, table, step)
        assert sum(b.prob for b in branches) == pytest.approx(1.0, abs=1e-12)


def test_divide_step_size_error():
    table = _table(4, k0=1.0, dt=1.0)
    with pytest.raises(StepSizeError):
        divide_step([HistoryBranch((), MassDistribution.monodisperse(4), 1.0)], table, 1)


def test_run_zero_steps():
    table = _table(3)
    branches = run_tree(table, 0)
    assert len(branches) == 1
    assert branches[0].history == ()
    assert branches[0].prob == 1


def test_merged_equals_master_evolution():
    table = _table(3, k0=1.0, dt=0.02)
    merged = run_merged(table, 5)
    reference = evolve(
        ProbabilityTable.point_mass(MassDistribution.monodisperse(3)), table, 5
    )
    assert _max_entry_diff(merged, reference) <= 1e-12


def test_tree_marginalization_is_exact():
    # exact rational dynamics: histories summed out equal merged, bitwise
    table = build_transition_table(3, KernelSpec(k0=Fraction(1)), Fraction(1, 50))
    tree = run_tree(table, 2)
    merged = run_merged(table, 2)
    collapsed = merge_branches(tree, 2)
    assert set(collapsed.entries) == set(merged.entries)
    for state, prob in merged.entries.items():
        assert collapsed.entries[state] == prob


def test_branch_cap():
    table = _table(6, dt=0.001)
    with pytest.raises(BranchCapError) as err:
        run_tree(table, 4, branch_cap=50)
    assert "merged" in str(err.value)


def test_amplitude_expectation_monodisperse():
    table = _table(7)
    p0 = ProbabilityTable.point_mass(MassDistribution.monodisperse(7))
    assert amplitude_expectation(p0, 1) == pytest.approx(7.0, abs=1e-12)


def test_amplitude_expectation_equals_expected_count():
    table = _table(5, k0=0.8, dt=0.02)
    merged = run_merged(table, 12)
    for bin_index in range(1, 6):
        assert amplitude_expectation(merged, bin_index) == pytest.approx(
            expected_count(merged, bin_index), abs=1e-12
        )


def test_amplitude_readout_two_state_slice():
    # after one 0.1-step, bin 2 holds probability 0.1; with d = 2**q_2 = 2
    # the marked-state probability is 0.05 and the readout returns 0.1
    table = _table(2, k0=1.0, dt=0.1)
    merged = run_merged(table, 1)
    d = 2
    marked = sum(
        (state.counts[1] / d) * prob for state, prob in merged.entries.items()
    )
    assert marked == pytest.approx(0.05, abs=1e-15)
    assert amplitude_expectation(merged, 2) == pytest.approx(0.1, abs=1e-14)


def test_history_labels_single_step_n2():
    table = _table(2, k0=1.0, dt=0.1)
    report = history_label_semantics_check(table, 1)
    assert report.ok


def test_history_labels_all_labels_n4():
    # every label fires from some initial state; each must be recorded
    table = _table(4, k0=0.9, dt=0.02)
    from cloudq.states import enumerate_states, transition_rate

    fired = set()
    for state in enumerate_states(4):
        report = history_label_semantics_check(table, 1, initial=state)
        assert report.ok
        for label in range(1, table.num_labels + 1):
            if transition_rate(table, state, label) > 0:
                fired.add(label)
    assert fired == set(range(1, table.num_labels + 1))


def test_history_labels_two_steps_replay():
    table = _table(4, k0=0.9, dt=0.02)
    report = history_label_semantics_check(table, 2)
    assert report.ok


def test_tree_states_replay_consistency():
    table = _table(4, k0=1.0, dt=0.02)
    start = MassDistribution.monodisperse(4)
    for branch in run_tree(table, 3):
        state = start
        for label in branch.history:
            if label:
                from cloudq.states import apply_transition

                state = apply_transition(table, state, label)
        assert state == branch.state


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    steps=st.integers(min_value=1, max_value=3),
    k0dt=st.floats(min_value=1e-4, max_value=0.05, allow_nan=False),
)
def test_merged_equivalence_property(n, steps, k0dt):
    table = build_transition_table(n, KernelSpec(k0=1.0), k0dt)
    merged = run_merged(table, steps)
    reference = evolve(
        ProbabilityTable.point_mass(MassDistribution.monodisperse(n)), table, steps
    )
    assert _max_entry_diff(merged, reference) <= 1e-12
