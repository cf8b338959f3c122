import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudq.states import (
    DEFAULT_ENUMERATION_CAP,
    EmptyTableError,
    InfeasibleTransitionError,
    KernelSpec,
    LabelError,
    MassDistribution,
    ResourceLimitError,
    StateSpaceError,
    apply_pair,
    apply_transition,
    build_transition_table,
    enumerate_states,
    label_pair_count,
    partition_count_asymptotic,
    partition_count_exact,
    total_transition_rate,
    transition_rate,
)


def test_mass_distribution_invariants():
    MassDistribution((2, 0))
    MassDistribution((0, 0, 1))
    with pytest.raises(StateSpaceError):
        MassDistribution((1, 1))  # mass 3 in 2 bins
    with pytest.raises(StateSpaceError):
        MassDistribution((-1, 0, 1))
    with pytest.raises(StateSpaceError):
        MassDistribution(())


@pytest.mark.parametrize(
    "counts", [(1.5, 0.25), (2.0, 0), (Fraction(2), 0)],
    ids=["fractional-mass-two", "float-two", "fraction-two"],
)
def test_mass_distribution_rejects_non_integer_counts(counts):
    # (1.5, 0.25) has mass 1.5 + 2 * 0.25 = 2 = N, so only the type check refuses it
    with pytest.raises(StateSpaceError, match="^non-integer occupation in "):
        MassDistribution(counts)


def test_enumerate_states_n2():
    states = enumerate_states(2)
    assert {s.counts for s in states} == {(2, 0), (0, 1)}


def test_enumerate_states_n5_count():
    assert len(enumerate_states(5)) == 7


def test_enumerate_states_n40_count():
    assert len(enumerate_states(40)) == 37338


def test_enumerate_states_sorted_and_unique():
    states = enumerate_states(9)
    keys = [s.counts for s in states]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumerate_cap():
    with pytest.raises(ResourceLimitError) as err:
        enumerate_states(DEFAULT_ENUMERATION_CAP + 1)
    assert str(partition_count_exact(DEFAULT_ENUMERATION_CAP + 1)) in str(err.value)
    assert len(enumerate_states(45, cap=45)) == partition_count_exact(45)


def test_partition_count_exact():
    assert partition_count_exact(1) == 1
    assert partition_count_exact(5) == 7
    assert partition_count_exact(40) == 37338


def test_partition_count_exact_needs_no_deep_stack():
    assert partition_count_exact(1000) == 24061467864032622473692149727991


def test_enumerate_cap_far_past_it_names_the_count():
    with pytest.raises(ResourceLimitError) as err:
        enumerate_states(1200)
    assert f"would enumerate {partition_count_exact(1200)} states" in str(err.value)


@pytest.mark.parametrize("n", range(1, 31))
def test_enumeration_matches_partition_count(n):
    assert len(enumerate_states(n)) == partition_count_exact(n)


def test_partition_count_asymptotic():
    # direct evaluation of the closed form
    assert partition_count_asymptotic(1) == pytest.approx(
        math.exp(math.pi * math.sqrt(2 / 3)) / (4 * math.sqrt(3)), rel=1e-12
    )
    assert partition_count_asymptotic(40) == pytest.approx(3.99e4, rel=2e-2)
    ratio = partition_count_asymptotic(40) / partition_count_exact(40)
    assert 0.9 <= ratio <= 1.2


def test_build_transition_table_examples():
    table = build_transition_table(3, KernelSpec(), 0.1)
    assert table.pairs == ((1, 1), (1, 2))
    assert table.num_labels == 2
    assert build_transition_table(40, KernelSpec(), 0.1).num_labels == 400
    assert build_transition_table(2, KernelSpec(), 0.1).pairs == ((1, 1),)
    with pytest.raises(EmptyTableError):
        build_transition_table(1, KernelSpec(), 0.1)


@pytest.mark.parametrize("n", list(range(2, 30)) + [100, 255, 400])
def test_pair_count_parity_formula(n):
    table = build_transition_table(n, KernelSpec(), 0.1)
    expected = n * n // 4 if n % 2 == 0 else (n * n - 1) // 4
    assert table.num_labels == expected == label_pair_count(n)


def test_label_bijection():
    for n in (2, 5, 12, 40):
        table = build_transition_table(n, KernelSpec(), 0.1)
        for label in range(1, table.num_labels + 1):
            i, j = table.pair_of(label)
            # each first bin k < i has N+1-2k pairs
            assert (i - 1) * (n + 1 - i) + (j - i) + 1 == label
        with pytest.raises(LabelError):
            table.pair_of(0)
        with pytest.raises(LabelError):
            table.pair_of(table.num_labels + 1)


def test_transition_rate_examples():
    table = build_transition_table(2, KernelSpec(k0=1.0), 0.1)
    state = MassDistribution((2, 0))
    assert transition_rate(table, state, 1) == pytest.approx(0.1)

    table3 = build_transition_table(3, KernelSpec(k0=1.0), 0.1)
    state3 = MassDistribution((1, 1, 0))
    assert transition_rate(table3, state3, table3.pairs.index((1, 2)) + 1) == pytest.approx(0.1)

    empty_first = MassDistribution((0, 1))
    assert transition_rate(table, empty_first, 1) == 0


def test_transition_rate_zero_iff_underpopulated():
    table = build_transition_table(6, KernelSpec(k0=0.7), 0.05)
    for state in enumerate_states(6):
        for label in range(1, table.num_labels + 1):
            i, j = table.pair_of(label)
            rate = transition_rate(table, state, label)
            assert rate >= 0
            feasible = (
                state.counts[i - 1] >= 2
                if i == j
                else state.counts[i - 1] >= 1 and state.counts[j - 1] >= 1
            )
            assert (rate > 0) == feasible


def test_apply_transition_examples():
    assert apply_pair(MassDistribution((2, 0)), 1, 1).counts == (0, 1)
    n = 7
    mono = MassDistribution.monodisperse(n)
    assert apply_pair(mono, 1, 1).counts == (n - 2, 1, 0, 0, 0, 0, 0)
    assert apply_pair(MassDistribution((1, 1, 0)), 1, 2).counts == (0, 0, 1)
    with pytest.raises(InfeasibleTransitionError):
        apply_pair(MassDistribution((0, 1)), 1, 1)


def test_apply_transition_preserves_mass_exhaustively():
    for n in (2, 4, 6, 8):
        table = build_transition_table(n, KernelSpec(), 0.01)
        for state in enumerate_states(n):
            for label in range(1, table.num_labels + 1):
                if transition_rate(table, state, label) > 0:
                    child = apply_transition(table, state, label)
                    assert child.mass() == n


def test_kernel_kinds():
    assert KernelSpec("constant", 2.0).rate(3, 4) == 2.0
    assert KernelSpec("sum", 0.5).rate(3, 4) == pytest.approx(3.5)
    assert KernelSpec("product", 0.5).rate(3, 4) == pytest.approx(6.0)
    table = ((0.0, 1.0), (1.0, 2.0))
    assert KernelSpec("table", table=table).rate(2, 2) == 2.0
    with pytest.raises(StateSpaceError):
        KernelSpec("bogus")
    with pytest.raises(StateSpaceError):
        KernelSpec("constant", -1.0)


@settings(max_examples=100)
@given(
    n=st.integers(min_value=2, max_value=12),
    kind=st.sampled_from(["constant", "sum", "product"]),
    k0=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_total_rate_nonnegative(n, kind, k0):
    table = build_transition_table(n, KernelSpec(kind, k0), 0.001)
    for state in (MassDistribution.monodisperse(n), MassDistribution.absorbed(n)):
        assert total_transition_rate(table, state) >= 0


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
@pytest.mark.parametrize(
    "k0, dt", [(0.7, 0.013), (Fraction(7, 10), Fraction(13, 1000))], ids=["float", "fraction"]
)
def test_one_transition_rule(kind, k0, dt):
    # the compiled rows the solver, division and SSA read must hold exactly
    # the nonzero rates of transition_rate, in label order and number type,
    # their sum, and the post-collision states of apply_transition
    for n in range(2, 13):
        table = build_transition_table(n, KernelSpec(kind, k0), dt)
        op = table.operator
        for state in enumerate_states(n):
            row = op.row(op.index(state))
            rates = {h: transition_rate(table, state, h) for h in range(1, table.num_labels + 1)}
            nonzero = [h for h, rate in rates.items() if rate != 0]
            assert row.labels == tuple(nonzero)
            assert row.rates == tuple(rates[h] for h in nonzero)
            assert all(type(r) is type(rates[h]) for h, r in zip(row.labels, row.rates))
            # the per-pair formula summed over every label, zero rates included
            total = sum(rates.values())
            assert row.total == total and repr(row.total) == repr(total)
            assert repr(total_transition_rate(table, state)) == repr(total)
            for label, target in zip(row.labels, row.targets):
                assert op.states[target] == apply_transition(table, state, label)
