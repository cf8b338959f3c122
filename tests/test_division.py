import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudq import division
from cloudq.division import (
    BranchCapError,
    HistoryBranch,
    LabelSemanticsReport,
    _history_register,
    amplitude_expectation,
    history_label_semantics_check,
    merge_branches,
    run_merged,
    run_tree,
)
from cloudq.master import (
    MERGED_TOL,
    ProbabilityTable,
    evolve,
    evolve_series,
    expected_count,
)
import scalar_rule
from cloudq.states import (
    InfeasibleTransitionError,
    KernelSpec,
    LabelError,
    MassDistribution,
    ResourceLimitError,
    StateSpaceError,
    StepSizeError,
    apply_pair,
    build_transition_table,
    enumerate_states,
    total_transition_rate,
)


def _absorbed(n):
    # the single largest droplet: (0, ..., 0, 1)
    return MassDistribution((0,) * (n - 1) + (1,))


def _table(n, k0=1.0, dt=0.01):
    return build_transition_table(n, KernelSpec(k0=k0), dt)


def _formula_rate(table, state, label):
    # r_h of the master equation: K n_i n_j dt, or K n_i (n_i - 1) dt / 2 for equal bins
    i, j = table.pair_of(label)
    kernel, n_i, n_j = table.kernel_values[label - 1], state.counts[i - 1], state.counts[j - 1]
    return kernel * n_i * (n_i - 1) * table.dt / 2 if i == j else kernel * n_i * n_j * table.dt


def _read(table, x):
    # a table's number as the value it stands for: an exact table's is an
    # int over its scale
    return x if table.is_float else Fraction(x, table.scale)


def _divide(branches, table):
    # one division step multiplied out: each branch times each of its state's children
    return [HistoryBranch(b.history + (label,), table.states[target],
                          b.prob * _read(table, weight))
            for b in branches for label, target, weight in table.children(table.index(b.state))]


def _max_entry_diff(a: ProbabilityTable, b: ProbabilityTable) -> float:
    keys = set(a.entries) | set(b.entries)
    return max(abs(a.entries.get(k, 0.0) - b.entries.get(k, 0.0)) for k in keys)


def test_divide_step_two_state_example():
    table = _table(2, k0=1.0, dt=0.1)
    children = run_tree(table, 1, MassDistribution((2, 0)))
    by_label = {c.history[-1]: c for c in children}
    assert by_label[1].state.counts == (0, 1)
    assert by_label[1].prob == pytest.approx(0.1, abs=1e-15)
    assert by_label[0].state.counts == (2, 0)
    assert by_label[0].prob == pytest.approx(0.9, abs=1e-15)


def test_divide_step_absorbing_branch():
    table = _table(5, dt=0.05)
    children = run_tree(table, 1, _absorbed(5))
    assert len(children) == 1
    assert children[0].history == (0,)
    assert children[0].prob == 1.0


def test_divide_step_matches_direct_rates():
    table = _table(4, k0=0.9, dt=0.02)
    state = MassDistribution.monodisperse(4)
    children = run_tree(table, 1, state)
    for child in children:
        label = child.history[-1]
        if label == 0:
            continue
        assert child.prob == pytest.approx(_formula_rate(table, state, label), abs=1e-12)


def test_divide_step_normalization():
    table = _table(6, k0=1.3, dt=0.01)
    for step in (1, 2, 3):
        branches = run_tree(table, step)
        assert sum(b.prob for b in branches) == pytest.approx(1.0, abs=1e-12)


def test_divide_step_size_error():
    table = _table(4, k0=1.0, dt=1.0)
    with pytest.raises(StepSizeError):
        run_tree(table, 1)


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
    assert _max_entry_diff(merged, reference) <= MERGED_TOL


def test_tree_marginalization_is_exact():
    # exact rational dynamics: histories summed out equal merged, bitwise
    table = build_transition_table(3, KernelSpec(k0=Fraction(1)), Fraction(1, 50))
    tree = run_tree(table, 2)
    merged = run_merged(table, 2)
    collapsed = merge_branches(tree, 2)
    assert set(collapsed.entries) == set(merged.entries)
    for state, prob in merged.entries.items():
        assert collapsed.entries[state] == prob


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_tree_marginalization_is_exact_at_16(kind):
    # start at total rate 1/2, so every branch weight is a proper Fraction
    n = 16
    unit = build_transition_table(n, KernelSpec(kind, Fraction(1)), Fraction(1))
    start_rate = total_transition_rate(unit, MassDistribution.monodisperse(n))
    table = build_transition_table(n, KernelSpec(kind, Fraction(1)), 1 / (2 * start_rate))
    tree = run_tree(table, 2)
    assert {type(b.prob) for b in tree} == {Fraction}
    collapsed, merged = merge_branches(tree, 2), run_merged(table, 2)
    assert list(collapsed.entries.items()) == list(merged.entries.items())
    assert {type(v) for v in collapsed.entries.values()} == {Fraction}


def _mixed_from_step_2():
    # every kernel value but K(2, 4) = 0.5 is a Fraction, and the start's
    # row does not use it: one float entry still makes a float table
    kernel = [[Fraction(1)] * 6 for _ in range(6)]
    kernel[1][3] = kernel[3][1] = 0.5
    table = build_transition_table(6, KernelSpec("table", 1.0, tuple(map(tuple, kernel))),
                                   Fraction(1, 10))
    return table, MassDistribution((2, 0, 0, 1, 0, 0))


def _table_at_its_limit():
    # an exact table kernel with a zero entry, K(2, 3) = 0, at the step-size
    # limit of the states its 4-step tree reaches: a small dt reaches them
    # all, since every hold child keeps its state
    kernel = KernelSpec("table", table=tuple(tuple(
        Fraction(0) if {i, j} == {2, 3} else Fraction(1, 4) if i == j == 1 else Fraction(i * j, 2)
        for j in range(1, 8)) for i in range(1, 8)))
    reached = {b.state for b in run_tree(build_transition_table(7, kernel, Fraction(1, 1000)), 4)}
    unit = build_transition_table(7, kernel, Fraction(1))
    table = build_transition_table(7, kernel, 1 / max(total_transition_rate(unit, s)
                                                      for s in reached))
    # a state the tree steps sits at the limit: its hold child vanishes, and
    # its last division claims all that is left (r == s); and the branches
    # share their products
    stepped = {b.state for b in run_tree(table, 3)}
    at_limit = [s for s in stepped if total_transition_rate(table, s) == 1]
    assert at_limit
    assert all(label for s in at_limit for label, _, _ in table.children(table.index(s)))
    branches = run_tree(table, 4)
    assert len({b.prob for b in branches}) < len(branches)
    return table


_TREE_INPUTS = {
    "fraction": (Fraction(3, 2), Fraction(1, 90)), "float": (1.5, 1 / 90),
    "float-kernel": (1.5, Fraction(1, 90)), "float-dt": (Fraction(3, 2), 1 / 90),
}
_EXACT_TREE_CASES = ("fraction", "table-limit")


def _typed_branches(branches):
    return [(b.history, b.state, type(b.prob), repr(b.prob)) for b in branches]


@pytest.mark.parametrize("case", sorted(_TREE_INPUTS) + ["late-float", "table-limit"])
def test_tree_is_divide_step_repeated(case):
    # the branches of one step multiplied out over children, repeated: the
    # same ones, in the same order, with the same value types, all Fraction
    # on an exact table and all float on any other
    if case == "late-float":
        table, start = _mixed_from_step_2()
    elif case == "table-limit":
        table, start = _table_at_its_limit(), None
    else:
        k0, dt = _TREE_INPUTS[case]
        table, start = build_transition_table(7, KernelSpec("sum", k0), dt), None
    branches = [HistoryBranch((), start or MassDistribution.monodisperse(7), table.one)]
    types = set()
    for step in range(5):
        if step:
            branches = _divide(branches, table)
        want = _typed_branches(branches)
        assert _typed_branches(run_tree(table, step, start)) == want
        types |= {t for _, _, t, _ in want}
    assert types == {Fraction if case in _EXACT_TREE_CASES else float}
    assert table.is_float is (case not in _EXACT_TREE_CASES)


def _sorted_merge(branches):
    # merge_branches of float branches: one sum per state, from 0 * its
    # first value, in (counts, history) order
    merged = {}
    for branch in sorted(branches, key=lambda b: (b.state.counts, b.history)):
        total = merged.get(branch.state)
        merged[branch.state] = (0 * branch.prob if total is None else total) + branch.prob
    return merged


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4), st.one_of(
    st.integers(min_value=-3, max_value=3), st.fractions(max_denominator=60))), max_size=30))
def test_rational_merge_is_the_sorted_sum(draws):
    states = enumerate_states(5)
    branches = [HistoryBranch((i % 3, i), states[s], p) for i, (s, p) in enumerate(draws)]
    # rational sums are exact in any order: each total is one Fraction
    got = merge_branches(branches, 3)
    assert got.step == 3
    assert list(got.entries.items()) == list(_sorted_merge(branches).items())
    assert {type(v) for v in got.entries.values()} <= {Fraction}


@pytest.mark.parametrize("k0, dt", [(1, Fraction(1, 120)), (Fraction(3, 2), Fraction(1, 200)),
                                     (Fraction(1, 400), 1)],
                         ids=["int-k0", "fraction-k0", "int-dt"])
@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_exact_tables_hold_only_fractions(kind, k0, dt):
    # whatever the start holds: point_mass's 1.0, an int, or a Fraction
    n = 6
    table = build_transition_table(n, KernelSpec(kind, k0), dt)
    assert not table.is_float
    mono = MassDistribution.monodisperse(n)
    starts = [ProbabilityTable.point_mass(mono), ProbabilityTable({mono: 1}),
              ProbabilityTable({mono: Fraction(1), _absorbed(n): 0})]
    series = [evolve_series(start, table, 4)[1:] for start in starts]
    tree = run_tree(table, 3)
    tables = [p for run in series for p in run] + [
        run_merged(table, 3), merge_branches(tree, 3), merge_branches(_divide(
            [HistoryBranch((), mono, 1)], table), 1)]
    assert {type(v) for p in tables for v in p.entries.values()} == {Fraction}
    assert {type(b.prob) for b in tree} == {Fraction}
    nonzero = [[{s: v for s, v in p.entries.items() if v} for p in run] for run in series]
    assert nonzero[0] == nonzero[1] == nonzero[2]
    assert dict(merge_branches(tree, 3).entries) == dict(run_merged(table, 3).entries) == (
        nonzero[0][2])


def test_branch_cap(monkeypatch):
    table = _table(6, dt=0.001)
    monkeypatch.setattr(division, "_BRANCH_CAP", 50)
    with pytest.raises(BranchCapError) as err:
        run_tree(table, 4)
    assert "merged" in str(err.value)
    assert issubclass(BranchCapError, ResourceLimitError)  # the CLI's exit 4 family


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


def test_amplitude_expectation_empty_distribution():
    with pytest.raises(StateSpaceError, match="empty distribution"):
        amplitude_expectation(ProbabilityTable({}), 1)


@pytest.mark.parametrize("bin_index", [0, 8, -1])
def test_amplitude_expectation_checks_its_bin(bin_index):
    p0 = ProbabilityTable.point_mass(MassDistribution.monodisperse(7))
    with pytest.raises(StateSpaceError, match=rf"^bin {bin_index} outside \[1, 7\]$"):
        amplitude_expectation(p0, bin_index)


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
    fired = set()
    for state in enumerate_states(4):
        report = history_label_semantics_check(table, 1, initial=state)
        assert report.ok
        for label in range(1, table.num_labels + 1):
            if _formula_rate(table, state, label) > 0:
                fired.add(label)
    assert fired == set(range(1, table.num_labels + 1))


def test_history_labels_two_steps_replay():
    table = _table(4, k0=0.9, dt=0.02)
    report = history_label_semantics_check(table, 2)
    assert report.ok


def test_history_register_ends_at_fired_label():
    for n_labels in range(1, 101):
        assert _history_register(n_labels, 0) == 0
        for fired in range(1, n_labels + 1):
            assert _history_register(n_labels, fired) == fired


def test_history_labels_count_every_emitted_child():
    table = build_transition_table(5, KernelSpec(k0=Fraction(1)), Fraction(1, 50))
    report = history_label_semantics_check(table, 3)
    assert report.ok
    assert report.branches_checked == sum(len(run_tree(table, t)) for t in (1, 2, 3))


def test_tree_states_replay_consistency():
    table = _table(4, k0=1.0, dt=0.02)
    start = MassDistribution.monodisperse(4)
    for branch in run_tree(table, 3):
        state = start
        for label in branch.history:
            if label:
                state = apply_pair(state, *table.pair_of(label))
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
    assert _max_entry_diff(merged, reference) <= MERGED_TOL


def _dyadic_tables(n, kind):
    # k0 and dt are powers of two, so every rate is exact in both number types
    unit = build_transition_table(n, KernelSpec(kind, 1.0), 1.0)
    worst = max(total_transition_rate(unit, s) for s in enumerate_states(n))
    shift = 1
    while worst / 2 / 2**shift > 0.5:
        shift += 1
    return (
        build_transition_table(n, KernelSpec(kind, 0.5), 2.0**-shift),
        build_transition_table(n, KernelSpec(kind, Fraction(1, 2)), Fraction(1, 2**shift)),
    )


def _agree(approx: ProbabilityTable, exact: ProbabilityTable) -> None:
    assert set(approx.entries) == set(exact.entries)
    assert all(type(v) is float for v in approx.entries.values())
    assert all(type(v) is Fraction for v in exact.entries.values())
    for state, prob in exact.entries.items():
        assert abs(approx.entries[state] - prob) <= 1e-12


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_float_and_fraction_executors_agree(kind):
    for n in range(2, 11):
        float_table, exact_table = _dyadic_tables(n, kind)
        start = MassDistribution.monodisperse(n)
        _agree(
            evolve(ProbabilityTable.point_mass(start), float_table, 6),
            evolve(ProbabilityTable({start: Fraction(1)}), exact_table, 6),
        )
        _agree(run_merged(float_table, 6), run_merged(exact_table, 6))
        _agree(
            merge_branches(run_tree(float_table, 2), 2),
            merge_branches(run_tree(exact_table, 2), 2),
        )


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_children_are_the_merged_terms(kind):
    # one rule for which children a state emits, read by the merged
    # program, the history tree and the sampler alike
    for n in range(2, 13):
        for table in _dyadic_tables(n, kind):
            op = table
            prog = op.program([op.index(MassDistribution.monodisperse(n))], n, sequential=True)
            ranks = prog.ranks.tolist()
            assert set(prog.col.tolist()) == set(range(len(ranks)))  # every state steps
            for at, k in enumerate(ranks):
                children = op.children(k)
                terms = prog.col == at
                assert list(zip(prog.ranks[prog.row[terms]].tolist(),
                                prog.coef[terms].tolist())) == [
                    (target, weight) for _, target, weight in sorted(children, key=lambda c: c[0])
                ]
                assert prog.scale == op.scale
                weights = [_read(op, weight) for _, _, weight in children]
                branches = run_tree(table, 1, op.states[k])
                assert [
                    (b.history[-1], op.index(b.state), b.prob, type(b.prob)) for b in branches
                ] == [(label, target, weight, type(weight))
                      for (label, target, _), weight in zip(children, weights)]
                assert op.events(k)[1] == scalar_rule.row(op, k).targets


def test_merged_arrays_match_branch_merge():
    # the flat-array merged run must equal dividing and merging branch by
    # branch, bit for bit: same keys, same order, same sums
    for n, kind, k0, dt, steps in [
        (5, "constant", 0.9, 0.02, 7), (8, "sum", 0.37, 0.004, 6),
        (11, "product", 1.3, 0.0007, 5), (13, "sum", 1.1, 0.0011, 4),
    ]:
        table = build_transition_table(n, KernelSpec(kind, k0), dt)
        current = ProbabilityTable({MassDistribution.monodisperse(n): 1.0})
        for step in range(1, steps + 1):
            pieces = [HistoryBranch((), s, p) for s, p in current.entries.items()]
            current = merge_branches(_divide(pieces, table), step)
        merged = run_merged(table, steps)
        assert list(merged.entries.items()) == list(current.entries.items())
        assert merged.step == current.step


def test_negative_steps_rejected():
    table = _table(3)
    for run in (run_merged, run_tree):
        with pytest.raises(StateSpaceError, match="steps >= 0"):
            run(table, -1)


def test_step_size_checked_before_the_closure_compiles():
    table = _table(30, k0=1.0, dt=1.0)
    start = MassDistribution.monodisperse(30)
    with pytest.raises(StepSizeError, match=r"\(30, 0,"):
        run_merged(table, 200)
    op = table
    assert [op.states[k] for k in op._rows] == [start]
    assert run_merged(table, 0).entries == {start: 1.0}


def test_step_size_checked_level_by_level_as_the_closure_compiles():
    # K(i, j) = (ij)^2 at N = 6, dt = 1/15: the start (6, 0, ...) sits exactly
    # at sum_h r_h = 1, and its one successor (4, 1, 0, 0, 0, 0) is over it
    kernel = KernelSpec("table", table=tuple(
        tuple(float((i * j) ** 2) for j in range(1, 7)) for i in range(1, 7)
    ))
    table = build_transition_table(6, kernel, 1 / 15)
    over = MassDistribution((4, 1, 0, 0, 0, 0))
    assert total_transition_rate(table, MassDistribution.monodisperse(6)) == 1
    with pytest.raises(StepSizeError) as err:
        run_merged(table, 5)
    assert str(err.value) == (
        f"sum of transition probabilities {total_transition_rate(table, over)} > 1 "
        "for state (4, 1, 0, 0, 0, 0); reduce dt"
    )
    # the start's level and the failing one; nothing deeper is compiled
    assert [len(level.ranks) for level in table._levels.values()] == [1, 1]
    assert {table.states[k] for k in table._rows} == {MassDistribution.monodisperse(6), over}


def test_zero_steps_keep_the_table_number_type():
    float_table, exact_table = _dyadic_tables(4, "constant")
    assert run_merged(float_table, 0).entries == {MassDistribution.monodisperse(4): 1.0}
    assert type(run_tree(float_table, 0)[0].prob) is float
    assert type(run_merged(exact_table, 0).entries[MassDistribution.monodisperse(4)]) is Fraction
    assert type(run_tree(exact_table, 0)[0].prob) is Fraction


# The register replay as it stood before it kept multiplicities: a full
# history tree read off the operator's rows as run_tree builds it (its
# probabilities left out, since the replay never read them), walked depth
# first in sorted history order, each prefix replayed once by a local copy
# of the post-collision rule.  history_label_semantics_check must give the
# same report, or raise the same error.


def _old_collide(table, state, label):
    if not 1 <= label <= table.num_labels:
        raise LabelError(f"label {label} outside [1, {table.num_labels}]")
    i, j = table.pairs[label - 1]
    counts = list(state.counts)
    if i == j:
        if counts[i - 1] < 2:
            raise InfeasibleTransitionError(f"bin {i} holds {counts[i - 1]} droplets, need 2")
        counts[i - 1] -= 2
    else:
        if counts[i - 1] < 1 or counts[j - 1] < 1:
            raise InfeasibleTransitionError(
                f"bins ({i},{j}) hold ({counts[i - 1]},{counts[j - 1]}), need one each"
            )
        counts[i - 1] -= 1
        counts[j - 1] -= 1
    counts[i + j - 1] += 1
    return MassDistribution(tuple(counts))


def _old_tree(table, steps, start, branch_cap=500_000):
    if steps < 0:
        raise StateSpaceError(f"need steps >= 0, got {steps}")
    op = table
    branches = [((), start)]
    for step in range(1, steps + 1):
        if len(branches) * (table.num_labels + 1) > branch_cap:
            raise BranchCapError(
                f"tree would exceed {branch_cap} branches at step {step}; use merged mode"
            )
        children = []
        for history, state in branches:
            # the split's nonzero weights in label order, then a nonzero hold
            children.extend(
                (history + (label,), op.states[target])
                for label, target, _ in op.children(op.index(state))
            )
        branches = children
    return branches


def _old_semantics_check(table, steps, initial=None):
    start = initial or MassDistribution.monodisperse(table.num_bins)
    branches = _old_tree(table, steps, start)
    registers = [_history_register(table.num_labels, h) for h in range(table.num_labels + 1)]
    mismatches = checked = 0
    path = [start]
    previous = ()
    for history, state in sorted(branches, key=lambda b: b[0]):
        shared = 0
        while shared < len(previous) and previous[shared] == history[shared]:
            shared += 1
        del path[shared + 1:]
        for label in history[shared:]:
            path.append(_old_collide(table, path[-1], label) if label else path[-1])
            checked += 1
            mismatches += registers[label] != label
        mismatches += path[-1] != state
        previous = history
    return LabelSemanticsReport(steps, checked, mismatches == 0, mismatches)


def _outcome(check, table, steps, initial=None):
    try:
        return check(table, steps, initial)
    except StateSpaceError as err:
        return err


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_semantics_walk_matches_the_history_replay(kind):
    for n in range(2, 10):
        for table in _dyadic_tables(n, kind):
            for steps in range(5):
                report = history_label_semantics_check(table, steps)
                assert report == _old_semantics_check(table, steps)
                assert report.ok


def test_semantics_walk_matches_the_history_replay_from_every_start():
    table = _table(4, k0=0.9, dt=0.02)
    for state in enumerate_states(4):
        for steps in range(5):
            assert history_label_semantics_check(table, steps, initial=state) == (
                _old_semantics_check(table, steps, initial=state)
            )


def _corrupted_tables(n, kind, steps):
    # one table per state the run steps with two or more targets, that
    # state's first and last targets swapped in its kept children
    for pick in itertools.count():
        table = _dyadic_tables(n, kind)[pick % 2]
        op = table
        start = op.index(MassDistribution.monodisperse(n))
        prog = op.program([start], steps, sequential=True)
        stepping = [prog.ranks[at] for level in [[0]] + prog.levels[:-1] for at in level]
        rows = [k for k in stepping if sum(label > 0 for label, *_ in op.children(k)) > 1]
        if pick == len(rows):
            return
        kids = op._children[rows[pick]]
        (h1, t1, w1), (h2, t2, w2) = kids[0], kids[sum(label > 0 for label, *_ in kids) - 1]
        swapped = {kids[0]: (h1, t2, w1), (h2, t2, w2): (h2, t1, w2)}
        op._children[rows[pick]] = tuple(swapped.get(kid, kid) for kid in kids)
        yield table


def test_semantics_walk_matches_the_history_replay_on_corrupted_rows():
    outcomes = []
    for n, kind, steps in [
        (5, "constant", 4), (6, "sum", 4), (7, "sum", 3), (8, "product", 4),
        (9, "product", 3), (6, "product", 5),
    ]:
        for table in _corrupted_tables(n, kind, steps):
            want = _outcome(_old_semantics_check, table, steps)
            got = _outcome(history_label_semantics_check, table, steps)
            if isinstance(want, LabelSemanticsReport):
                assert got == want
            else:
                assert type(got) is type(want)
            outcomes.append(want)
    # every mutant is caught, by a mismatch or by a replay that cannot
    # apply the label the corrupted tree recorded
    assert len(outcomes) == 25
    assert not any(isinstance(o, LabelSemanticsReport) and o.ok for o in outcomes)
    assert any(isinstance(o, LabelSemanticsReport) for o in outcomes)
    assert any(isinstance(o, InfeasibleTransitionError) for o in outcomes)


def test_semantics_walk_keeps_the_error_messages():
    cases = [(_table(3), -1, None), (_table(4, dt=0.5), 2, None)]
    # K(i, j) = (ij)^2 at N = 8: each start sits exactly at sum_h r_h = 1 and
    # two to four of its successors go over it, so the message names the
    # first of them in tree order
    kernel = KernelSpec("table", table=tuple(
        tuple(Fraction((i * j) ** 2) for j in range(1, 9)) for i in range(1, 9)
    ))
    unit = build_transition_table(8, kernel, Fraction(1))
    for counts in [(1, 2, 1, 0, 0, 0, 0, 0), (2, 3, 0, 0, 0, 0, 0, 0), (6, 1, 0, 0, 0, 0, 0, 0)]:
        start = MassDistribution(counts)
        dt = 1 / total_transition_rate(unit, start)
        cases.append((build_transition_table(8, kernel, dt), 3, start))
    cases.append((build_transition_table(30, KernelSpec(k0=1.0), 0.0005), 12, None))
    raised = set()
    for table, steps, initial in cases:
        want = _outcome(_old_semantics_check, table, steps, initial)
        got = _outcome(history_label_semantics_check, table, steps, initial)
        assert isinstance(want, StateSpaceError)
        assert (type(got), str(got)) == (type(want), str(want))
        raised.add(type(want))
    assert raised == {StateSpaceError, StepSizeError, BranchCapError}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["constant", "sum", "product"]),
    st.integers(min_value=2, max_value=12),
    st.sampled_from([1.0, 0.999]) | st.floats(min_value=0.01, max_value=1.0),
    st.booleans(),
)
def test_checked_split_weights_are_the_rates(kind, n, share, exact):
    # sum_h r_h <= 1 gives s_{h+1} >= r_h, so no checked row's split is
    # clipped: each weight (r_h / s_{h+1}) * s_{h+1} is r_h exactly in Q
    # and within 2 ulp of it in floats, with dt up to the step-size limit
    one = Fraction(1) if exact else 1.0
    unit = build_transition_table(n, KernelSpec(kind, one), one)
    worst = max(total_transition_rate(unit, s) for s in enumerate_states(n))
    dt = Fraction(share).limit_denominator(1000) / worst if exact else share / worst
    op = build_transition_table(n, KernelSpec(kind, one), dt)
    checked = 0
    for state in enumerate_states(n):
        k = op.index(state)
        try:
            op._check(*op._row(k))
            row = scalar_rule.row(op, k)
        except StepSizeError:  # a float total rounded past the limit
            assert not exact and share > 0.999
            continue
        checked += 1
        rates = tuple(_read(op, p) * dt for p in row.propensities)
        split = {label: _read(op, w) for label, _, w in op.children(k)}
        weights = tuple(split.pop(label, 0 * dt) for label in row.labels)
        hold = split.pop(0, 0 * dt)
        assert len(weights) == len(rates) and hold >= 0 and not split
        if exact:
            assert weights == rates and hold == 1 - _read(op, row.total)
        else:
            assert all(abs(w - r) <= 2 * math.ulp(r) for w, r in zip(weights, rates))
    assert checked


def test_semantics_walk_builds_no_probability_tree(monkeypatch):
    def no_tree(*args, **kwargs):
        raise AssertionError("the register replay built a probability tree")

    monkeypatch.setattr(division, "run_tree", no_tree)
    table = build_transition_table(8, KernelSpec(k0=Fraction(1)), Fraction(1, 50))
    report = history_label_semantics_check(table, 4)
    assert report.ok and report.branches_checked > 0


def test_import_loads_only_the_solver_stack():
    # a fresh interpreter, since this one has imported every module: the
    # package root re-exports nothing, so division pulls in no circuit
    # module and no mpmath
    probe = ("import sys, cloudq.division; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('cloudq', 'mpmath')))")
    env = {**os.environ, "PYTHONPATH": str(Path(division.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "['cloudq', 'cloudq.division', 'cloudq.master', 'cloudq.states']\n"


def test_history_branch_keeps_its_fields_and_hash():
    # fields, their order, the positional constructor and the frozen
    # dataclass's hash, hash((history, state, prob)), all stay
    state = MassDistribution((1, 1, 0))
    branch = HistoryBranch((3, 0), state, Fraction(2, 7))
    assert HistoryBranch._fields == ("history", "state", "prob")
    assert (branch.history, branch.state, branch.prob) == ((3, 0), state, Fraction(2, 7))
    assert hash(branch) == hash(((3, 0), state, Fraction(2, 7)))
    assert branch == HistoryBranch((3, 0), MassDistribution((1, 1, 0)), Fraction(2, 7))
    table = build_transition_table(6, KernelSpec("sum", Fraction(1)), Fraction(1, 100))
    for got in run_tree(table, 3):
        assert type(got) is HistoryBranch
        assert hash(got) == hash((got.history, got.state, got.prob))
