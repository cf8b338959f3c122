import builtins
import dataclasses
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudq import division, master, resources
from cloudq import states as states_module
from cloudq.presets import PRESET_CASES
import scalar_rule
from cloudq.states import (
    DEFAULT_ENUMERATION_CAP,
    EmptyTableError,
    InfeasibleTransitionError,
    KernelSpec,
    LabelError,
    MassDistribution,
    ResourceLimitError,
    StateSpaceError,
    StepSizeError,
    TransitionTable,
    apply_pair,
    build_transition_table,
    enumerate_states,
    label_pair_count,
    label_pairs,
    partition_count_asymptotic,
    partition_count_exact,
    total_transition_rate,
)


def _absorbed(n):
    # the single largest droplet: (0, ..., 0, 1)
    return MassDistribution((0,) * (n - 1) + (1,))


def _formula_rate(table, state, label):
    # r_h of the master equation: K n_i n_j dt, or K n_i (n_i - 1) dt / 2 for equal bins
    i, j = table.pair_of(label)
    kernel, n_i, n_j = table.kernel_values[label - 1], state.counts[i - 1], state.counts[j - 1]
    return kernel * n_i * (n_i - 1) * table.dt / 2 if i == j else kernel * n_i * n_j * table.dt


def _read(table, x):
    # a table's number as the value it stands for: an exact table's is an
    # int over its scale
    return x if table.is_float else Fraction(x, table.scale)


def _terms(table, counts):
    # the table's rate rule, (label, i, j, r_h / dt, r_h) off its compiled
    # row, each number read as the value it stands for
    return [(h, i, j, _read(table, p), _read(table, r))
            for h, i, j, p, r in scalar_rule.terms(table, counts)]


def _rule(table, state):
    # the table's rate rule as {label: r_h}, zero rates left out
    return {label: rate for label, *_, rate in _terms(table, state.counts)}


def _coefs(prog):
    # a program's coefficients as the values they stand for
    if prog.coef.dtype != object:
        return prog.coef
    return np.array([Fraction(c, prog.scale) for c in prog.coef.tolist()], dtype=object)


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


def test_enumerate_cap(monkeypatch):
    with pytest.raises(ResourceLimitError) as err:
        enumerate_states(DEFAULT_ENUMERATION_CAP + 1)
    assert str(partition_count_exact(DEFAULT_ENUMERATION_CAP + 1)) in str(err.value)
    # the cap is read at call time
    monkeypatch.setattr(states_module, "DEFAULT_ENUMERATION_CAP", 45)
    assert len(enumerate_states(45)) == partition_count_exact(45)
    with pytest.raises(ResourceLimitError, match="^N = 46 exceeds cap 45: would enumerate "):
        enumerate_states(46)


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


@pytest.mark.parametrize("dt", [0, -0.1, math.nan, math.inf, Fraction(0)])
def test_build_transition_table_rejects_bad_dt(dt):
    # an infinite dt made every under-populated pair's rate 0 * inf = nan
    with pytest.raises(StateSpaceError, match="^time step must be positive and finite, got "):
        build_transition_table(4, KernelSpec(), dt)


@pytest.mark.parametrize("dt", [0, -0.1, math.nan, math.inf, Fraction(0)])
def test_transition_table_built_directly_rejects_bad_dt(dt):
    with pytest.raises(StateSpaceError, match="^time step must be positive and finite, got "):
        TransitionTable(3, dt, (1.0, 1.0))


@pytest.mark.parametrize(
    "kernel_values, shown",
    [
        ((Fraction(-5), Fraction(9)), "-5"),
        ((1.0, -0.5), "-0.5"),
        ((math.nan, 1.0), "nan"),
        ((1.0, math.inf), "inf"),
    ],
)
def test_transition_table_built_directly_rejects_bad_kernel_values(kernel_values, shown):
    # such a table let state (3, 0, 0) pass `checked` with r_1 = -3/2, and
    # `children` split it into weight -3/2 and hold 5/2
    with pytest.raises(StateSpaceError) as err:
        TransitionTable(3, Fraction(1, 10), kernel_values)
    assert str(err.value) == f"kernel value must be finite and >= 0, got {shown}"
    assert TransitionTable(3, Fraction(1, 10), (0, 10**400)).kernel_values[1] > 0


@pytest.mark.parametrize(
    "n_bins, kernel_values, error, message",
    [
        (3, (1.0,), StateSpaceError, "need 2 kernel values for N = 3, got 1"),
        (3, (1.0, 1.0, 1.0), StateSpaceError, "need 2 kernel values for N = 3, got 3"),
        (6, (1.0,) * 6, StateSpaceError, "need 9 kernel values for N = 6, got 6"),
        (4.0, (1.0,) * 4, StateSpaceError, "N must be an int, got 4.0"),
        (True, (), StateSpaceError, "N must be an int, got True"),
        (np.int64(4), (1.0,) * 4, StateSpaceError, f"N must be an int, got {np.int64(4)!r}"),
        (1, (), EmptyTableError, "no collisions possible for N = 1"),
        (0, (), EmptyTableError, "no collisions possible for N = 0"),
        (-2, (), EmptyTableError, "no collisions possible for N = -2"),
    ],
    ids=["short-kernel", "long-kernel", "n6-kernel", "float-n", "bool-n", "int64-n", "n1", "n0",
         "negative-n"],
)
def test_transition_table_built_directly_checks_n_and_kernel_length(
    monkeypatch, n_bins, kernel_values, error, message
):
    # a kernel length other than H would index past kernel_values (or read a
    # neighbour's value) in the rate rule, a float N fail in label_pairs, and
    # N < 2 give an empty table: the table refuses each before any row
    def compile_(*args):
        raise AssertionError("a row compiled before the refusal")

    monkeypatch.setattr(TransitionTable, "_expand", compile_)
    with pytest.raises(StateSpaceError) as err:
        TransitionTable(n_bins, 0.1, kernel_values)
    assert type(err.value) is error and str(err.value) == message
    if error is EmptyTableError:  # the same refusal as build_transition_table's
        with pytest.raises(EmptyTableError, match=f"^{message}$"):
            build_transition_table(n_bins, KernelSpec(), 0.1)


@pytest.mark.parametrize("n_bins", [2, 3, 4, 7, 12])
def test_table_pairs_are_derived_from_n(n_bins):
    table = TransitionTable(n_bins, 0.01, (1.0,) * label_pair_count(n_bins))
    assert table.pairs == label_pairs(n_bins) == build_transition_table(
        n_bins, KernelSpec(), 0.01).pairs
    assert table == build_transition_table(n_bins, KernelSpec(), 0.01)
    assert dataclasses.replace(table, dt=0.02).pairs == table.pairs
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(table, pairs=((1, 1),))
    with pytest.raises(TypeError):
        TransitionTable(n_bins, 0.01, label_pairs(n_bins), table.kernel_values)


@pytest.mark.parametrize("dt", [Fraction(1, 10**400), 10**400])
def test_build_transition_table_takes_dt_past_the_float_range(dt):
    assert build_transition_table(4, KernelSpec(), dt).dt == dt


@pytest.mark.parametrize("k0", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
def test_kernel_constant_past_the_float_range_runs_exactly(k0):
    # finite, as a dt past the float range is; math.isfinite would overflow
    table = build_transition_table(4, KernelSpec("sum", k0), Fraction(1, 100 * k0))
    assert table.kernel_values[0] == 2 * k0 and not table.is_float
    merged = division.run_merged(table, 3)
    assert {type(v) for v in merged.entries.values()} == {Fraction}
    assert sum(merged.entries.values()) == 1


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
    assert _rule(table, state)[1] == pytest.approx(0.1)

    table3 = build_transition_table(3, KernelSpec(k0=1.0), 0.1)
    state3 = MassDistribution((1, 1, 0))
    assert _rule(table3, state3)[table3.pairs.index((1, 2)) + 1] == pytest.approx(0.1)

    empty_first = MassDistribution((0, 1))
    assert _rule(table, empty_first) == {}


def test_transition_rate_zero_iff_underpopulated():
    table = build_transition_table(6, KernelSpec(k0=0.7), 0.05)
    for state in enumerate_states(6):
        for label in range(1, table.num_labels + 1):
            i, j = table.pair_of(label)
            rate = _rule(table, state).get(label, 0)
            assert rate == _formula_rate(table, state, label) and rate >= 0
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
    with pytest.raises(InfeasibleTransitionError) as err:
        apply_pair(MassDistribution((3, 0, 1, 0, 0, 0)), 1, 2)
    assert str(err.value) == "bins (1,2) hold (3,0), need one each"


def test_apply_transition_preserves_mass_exhaustively():
    for n in (2, 4, 6, 8):
        table = build_transition_table(n, KernelSpec(), 0.01)
        for state in enumerate_states(n):
            for label in range(1, table.num_labels + 1):
                if _formula_rate(table, state, label) > 0:
                    child = apply_pair(state, *table.pair_of(label))
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
    for state in (MassDistribution.monodisperse(n), _absorbed(n)):
        assert total_transition_rate(table, state) >= 0


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
@pytest.mark.parametrize(
    "k0, dt", [(0.7, 0.013), (Fraction(7, 10), Fraction(13, 1000))], ids=["float", "fraction"]
)
def test_one_transition_rule(kind, k0, dt):
    # the rate rule and the compiled rows the solver, division and SSA read
    # must hold exactly the nonzero rates of the master equation's formula,
    # in label order and number type, their sum, and the post-collision
    # states of apply_pair
    for n in range(2, 13):
        table = build_transition_table(n, KernelSpec(kind, k0), dt)
        every_state = enumerate_states(n)
        # total_transition_rate reads the rule from counts: it meets no state
        swept = [total_transition_rate(table, state) for state in every_state]
        assert table.states == {} and not table._rows
        for state, swept_total in zip(every_state, swept):
            row = scalar_rule.row(table, table.index(state))
            rates = {h: _formula_rate(table, state, h) for h in range(1, table.num_labels + 1)}
            nonzero = [h for h, rate in rates.items() if rate != 0]
            assert row.labels == tuple(nonzero)
            propensities = [_read(table, p) for p in row.propensities]
            row_rates = tuple(p * dt for p in propensities)
            assert row_rates == tuple(rates[h] for h in nonzero)
            assert all(type(r) is type(rates[h]) for h, r in zip(row.labels, row_rates))
            rule = _terms(table, state.counts)
            assert [(h, (i, j)) for h, i, j, _, _ in rule] == [(h, table.pair_of(h)) for h in nonzero]
            assert list(map(repr, propensities)) == [repr(p) for *_, p, _ in rule]
            want = [repr(rates[h]) for h in nonzero]
            assert [repr(p * dt) for _, _, _, p, _ in rule] == want
            assert [repr(rate) for *_, rate in rule] == want
            # the per-pair formula summed over every label, zero rates included
            total = sum(rates.values())
            row_total = _read(table, row.total)
            assert row_total == total and repr(row_total) == repr(total)
            assert repr(swept_total) == repr(total)
            for label, target in zip(row.labels, row.targets):
                assert table.states[target] == apply_pair(state, *table.pair_of(label))


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
@pytest.mark.parametrize(
    "k0, dt", [(0.7, 0.013), (Fraction(7, 10), Fraction(13, 1000))], ids=["float", "fraction"]
)
def test_events_read_the_compiled_row(monkeypatch, kind, k0, dt):
    # once a row is compiled, the sampler's tables come from it with no
    # second pass of the rate rule, and equal, bit for bit, the ones built
    # on a dense vector of the rule's propensities
    walked = []
    expand = TransitionTable._expand

    def counted(self, *level):
        walked.append(level)
        return expand(self, *level)

    for n in range(2, 13):
        table = build_transition_table(n, KernelSpec(kind, k0), dt)
        wants = []
        for state in enumerate_states(n):
            k = table.index(state)
            scalar_rule.row(table, k)
            terms = _terms(table, state.counts)
            at = np.array([h for h, *_ in terms], dtype=np.intp) - 1
            dense = np.zeros(table.num_labels)
            dense[at] = [p for *_, p, _ in terms]
            event_rate = dense.sum()
            wants.append((k, event_rate, np.cumsum(dense)[at] / event_rate))
        with monkeypatch.context() as patch:
            patch.setattr(TransitionTable, "_expand", counted)
            got = [table.events(k) for k, _, _ in wants]
        for (k, event_rate, cdf), (got_rate, targets, got_cdf) in zip(wants, got):
            assert (type(got_rate), repr(got_rate)) == (type(event_rate), repr(event_rate))
            assert targets == scalar_rule.row(table, k).targets
            assert (got_cdf.dtype, got_cdf.tobytes()) == (cdf.dtype, cdf.tobytes())
    assert walked == []


@pytest.mark.parametrize(
    "k0, dt", [(0.7, 0.013), (Fraction(7, 10), Fraction(13, 1000))], ids=["float", "fraction"]
)
def test_table_compares_by_its_four_inputs_alone(k0, dt):
    # the indexed states, compiled rows, event tables and programs live on
    # the table but outside its fields
    used, fresh = (build_transition_table(6, KernelSpec("sum", k0), dt) for _ in range(2))
    start = used.index(MassDistribution.monodisperse(6))
    used.program([start], 5, sequential=True)
    used.events(start)
    assert used._rows and used._events and fresh.states == {} and not fresh._rows
    assert used == fresh and hash(used) == hash(fresh)
    assert len({used, fresh}) == 1
    assert [f.name for f in dataclasses.fields(used)] == ["num_bins", "dt", "pairs", "kernel_values"]
    assert repr(used) == repr(fresh) == (
        f"TransitionTable(num_bins=6, dt={dt!r}, pairs={used.pairs!r}, "
        f"kernel_values={used.kernel_values!r})"
    )


def test_replaced_table_compiles_its_own_rows():
    table = build_transition_table(6, KernelSpec("sum", 0.7), 0.013)
    mono = MassDistribution.monodisperse(6)
    total = scalar_rule.row(table, table.index(mono)).total
    halved = dataclasses.replace(table, dt=0.0065)
    assert halved.states == {} and not halved._rows and halved != table
    assert scalar_rule.row(halved, halved.index(mono)).total == total / 2  # a power of two
    # each table compiles its own rows, and both index a state by its rank
    assert halved._rows.keys() == table._rows.keys() == {table.index(mono)}
    assert halved._rows[table.index(mono)][0] is not table._rows[table.index(mono)][0]
    assert halved.states == table.states == {table.index(mono): mono}


def test_table_kernel_smaller_than_n_names_the_missing_entry():
    kernel = KernelSpec("table", table=((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(StateSpaceError, match=r"^kernel table has no entry K\(1,3\)$"):
        build_transition_table(4, kernel, 0.01)
    assert build_transition_table(3, kernel, 0.01).kernel_values == (1.0, 1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: KernelSpec("table"), "table kernel requires an explicit table",
                     id="table-missing"),
        pytest.param(
            lambda: build_transition_table(
                3, KernelSpec("table", table=((1.0, -0.5, 0.0), (-0.5, 1.0, 0.0), (0.0,) * 3)),
                0.01,
            ),
            "kernel table entry K(1,2) = -0.5 < 0", id="table-negative",
        ),
        pytest.param(
            lambda: build_transition_table(
                3, KernelSpec("table", table=((1.0, math.inf, 0.0), (math.inf, 1.0, 0.0),
                                              (0.0,) * 3)), 0.01,
            ),
            "kernel table entry K(1,2) = inf is not finite", id="table-inf",
        ),
        *[pytest.param(lambda k0=k0: KernelSpec("sum", k0),
                       f"kernel constant must be finite and >= 0, got {k0}", id=f"k0-{name}")
          for name, k0 in [("negative", -1), ("nan", math.nan), ("inf", math.inf)]],
        pytest.param(
            lambda: build_transition_table(3, KernelSpec(), 0.01).index(
                MassDistribution((2, 1, 0, 0))
            ),
            "state (2, 1, 0, 0) does not have 3 bins", id="index-wrong-n",
        ),
        pytest.param(
            lambda: total_transition_rate(build_transition_table(3, KernelSpec(), 0.01),
                                          MassDistribution((2, 1, 0, 0))),
            "state (2, 1, 0, 0) does not have 3 bins", id="total-rate-wrong-n",
        ),
        *[pytest.param(
            lambda run=run, steps=steps: run(build_transition_table(4, KernelSpec(), 0.01), steps,
                                             MassDistribution((3, 1, 0, 0, 0))),
            "state (3, 1, 0, 0, 0) does not have 4 bins", id=f"{name}-wrong-n-{steps}-steps")
          for name, run in [("tree", division.run_tree),
                            ("semantics", division.history_label_semantics_check)]
          for steps in (0, 1)],
        pytest.param(lambda: partition_count_exact(0), "need n >= 1, got 0", id="exact-zero"),
        pytest.param(lambda: partition_count_asymptotic(0), "need n >= 1, got 0",
                     id="asymptotic-zero"),
        pytest.param(lambda: enumerate_states(0), "need N >= 1, got 0", id="enumerate-zero"),
        pytest.param(lambda: enumerate_states(4.0), "N must be an int, got 4.0",
                     id="enumerate-float"),
        pytest.param(lambda: build_transition_table(3, KernelSpec(), 0.01).program([0], -1),
                     "need steps >= 0, got -1", id="program-negative-steps"),
    ],
)
def test_state_space_refusals_keep_their_messages(make, message):
    with pytest.raises(StateSpaceError) as err:
        make()
    assert type(err.value) is StateSpaceError and str(err.value) == message


def _table():
    return build_transition_table(4, KernelSpec(), 0.01)


def _merged():
    return division.run_merged(_table(), 2)


_CASE = PRESET_CASES["paper-case-1"]

# Every entry point that takes a count but checked only its floor: each
# names the count and raises its module's class.
_COUNT_SITES = [
    pytest.param(name, resources.ResourceModelError,
                 lambda v, name=name: dataclasses.replace(_CASE, **{name: v}),
                 id=f"EstimationCase.{name}")
    for name in ("n_bins", "time_steps", "n_eps", "degree", "pieces")
] + [
    pytest.param("n_runs", StateSpaceError,
                 lambda v: master.SsaConfig(n_runs=v, seed=1, t_end=1.0), id="SsaConfig.n_runs"),
    pytest.param("seed", StateSpaceError,
                 lambda v: master.SsaConfig(n_runs=3, seed=v, t_end=1.0), id="SsaConfig.seed"),
    pytest.param("steps", StateSpaceError,
                 lambda v: master.evolve(master.ProbabilityTable.point_mass(
                     MassDistribution.monodisperse(4)), _table(), v), id="evolve"),
    pytest.param("steps", StateSpaceError, lambda v: _table().program([0], v), id="program"),
    pytest.param("steps", StateSpaceError, lambda v: division.run_tree(_table(), v),
                 id="run_tree"),
    pytest.param("steps", StateSpaceError, lambda v: division.run_merged(_table(), v),
                 id="run_merged"),
    pytest.param("steps", StateSpaceError,
                 lambda v: division.history_label_semantics_check(_table(), v),
                 id="history_label_semantics_check"),
    pytest.param("n", StateSpaceError, partition_count_exact, id="partition_count_exact"),
    pytest.param("n", StateSpaceError, partition_count_asymptotic,
                 id="partition_count_asymptotic"),
    pytest.param("N", StateSpaceError, enumerate_states, id="enumerate_states"),
    pytest.param("N", StateSpaceError, lambda v: build_transition_table(v, KernelSpec(), 0.01),
                 id="build_transition_table"),
    pytest.param("bin", StateSpaceError, lambda v: master.expected_counts(_merged(), [1, v]),
                 id="expected_counts"),
    pytest.param("bin", StateSpaceError, lambda v: master.expected_count(_merged(), v),
                 id="expected_count"),
    pytest.param("bin", StateSpaceError, lambda v: division.amplitude_expectation(_merged(), v),
                 id="amplitude_expectation"),
    pytest.param("bin", resources.ResourceModelError, lambda v: resources.gate_cost_uc(_CASE, v),
                 id="gate_cost_uc"),
    pytest.param("bin", resources.ResourceModelError,
                 lambda v: resources.estimate_case(_CASE, v), id="estimate_case"),
]


@pytest.mark.parametrize("value", [2.0, True, np.int64(2)], ids=["float", "bool", "int64"])
@pytest.mark.parametrize("name, error, call", _COUNT_SITES)
def test_every_count_must_be_an_int(name, error, call, value):
    with pytest.raises(error) as err:
        call(value)
    assert type(err.value) is error
    assert str(err.value) == f"{name} must be an int, got {value!r}"


# The np.add.at step every run took before StepProgram.run: each step sums
# from zero and adds prob[col] * coef, the solver's unit diagonal carrying
# each old value; on Python numbers a term whose source is exactly 0 is
# skipped.
def _masked_step(prog, prob, out):
    row, col, coef = prog.row, prog.col, _coefs(prog)
    if prob.dtype == object:
        keep = (prob != 0)[col]
        row, col, coef = row[keep], col[keep], coef[keep]
    np.add.at(out, row, prob[col] * coef)


def _object_steps(prog, prob, steps):
    out = []
    for _ in range(steps):
        nxt = np.zeros(len(prob), dtype=prob.dtype)
        _masked_step(prog, prob, nxt)
        prob = nxt
        out.append(prob.tolist())
    return out


def _run_values(prog, prob, steps):
    every = np.arange(len(prob))
    return [read(every).tolist() for read in prog.run(prob, steps)]


def _types(runs):
    return {type(v) for values in runs for v in values}


def _share_table(n, kind, k0, share):
    # dt at ``share`` of the largest sum_h r_h: at share 1 that state's
    # total is exactly 1, so its hold is Fraction(0)
    unit = build_transition_table(n, KernelSpec(kind, Fraction(1)), Fraction(1))
    worst = max(total_transition_rate(unit, s) for s in enumerate_states(n))
    return build_transition_table(n, KernelSpec(kind, k0), share / (k0 * worst))


# a float start on an exact program is the rational it holds
_START_VALUES = [0, 0, 0, 1, 2, Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), 0.5, 0.0]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    kind=st.sampled_from(["constant", "sum", "product"]),
    k0=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2, 3), 1, 2]),
    share=st.sampled_from([Fraction(1), Fraction(9, 10), Fraction(1, 2)]),
    steps=st.integers(min_value=0, max_value=6),
    sequential=st.booleans(),
    data=st.data(),
)
def test_integer_kernel_is_the_object_step(n, kind, k0, share, steps, sequential, data):
    table = _share_table(n, kind, k0, share)
    assert not table.is_float
    every = enumerate_states(n)
    values = data.draw(st.lists(st.sampled_from(_START_VALUES), min_size=len(every),
                                max_size=len(every)))
    keys = [table.index(s) for s in every]
    prog = table.program(keys, steps, sequential)
    prob = prog.vector(len(table.states), keys, values)
    assert prob.tolist() == values and _types([prob.tolist()]) == {Fraction}
    runs = _run_values(prog, prob, steps)
    assert runs == _object_steps(prog, prob, steps)
    assert _types(runs) <= {Fraction}


@pytest.mark.parametrize("start", [[1], [Fraction(1)], [0], [Fraction(0)], [1.0]],
                         ids=["int", "fraction", "int-zero", "fraction-zero", "float"])
@pytest.mark.parametrize("coef", ["fraction", "int", "float"])
@pytest.mark.parametrize("sequential", [False, True], ids=["solver", "division"])
def test_integer_kernel_on_unit_tables(coef, start, sequential):
    # N = 2 at k0 = dt = 1: the one collision takes everything, so D = 1.
    # Int inputs make an exact table with int rates (an equal-bin rate
    # halves K n (n - 1) with //); float inputs a float64 program
    one = {"fraction": Fraction(1), "int": 1, "float": 1.0}[coef]
    table = build_transition_table(2, KernelSpec(k0=one), one)
    assert table.is_float is (coef == "float")
    keys = [table.index(MassDistribution((2, 0))), table.index(MassDistribution((0, 1)))]
    prog = table.program(keys, 3, sequential)
    number = float if coef == "float" else Fraction
    # an exact program holds ints over its scale, 1 here; a float one float64
    assert prog.scale == table.scale == 1
    assert {type(c) for c in prog.coef.tolist()} == {float if coef == "float" else int}
    assert {type(c) for c in _coefs(prog).tolist()} == {number}
    prob = prog.vector(len(table.states), keys, start + [0])
    runs = _run_values(prog, prob, 6)
    assert runs == _object_steps(prog, prob, 6)
    assert _types(runs) == {number}


def _counting_fractions(monkeypatch, built):
    # record every Fraction built: through the constructor, and on Pythons
    # whose arithmetic bypasses it, through _from_coprime_ints
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in vars(Fraction):
        coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, numerator, denominator):
            built.append((numerator, denominator))
            return coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
@pytest.mark.parametrize("k0", [1, Fraction(1, 200)], ids=["int-k0", "fraction-k0"])
@pytest.mark.parametrize("int_dt", [True, False], ids=["int-dt", "fraction-dt"])
def test_exact_tables_hold_ints_over_one_scale(monkeypatch, kind, k0, int_dt):
    # an exact table's rows hold ints over scale = lcm(kernel denominators) *
    # dt's denominator; total_transition_rate keeps its value and type; and
    # compiling rows, one program run and one run_tree build no Fraction but
    # the values they hand out
    unit = build_transition_table(12, KernelSpec(kind, Fraction(1)), Fraction(1))
    worst = max(total_transition_rate(unit, s) for s in enumerate_states(12))
    dt = 1 if int_dt else Fraction(9, 10) / (k0 * worst)
    ran = 0
    for n in range(2, 13):
        table = build_transition_table(n, KernelSpec(kind, k0), dt)
        dens = [Fraction(k).denominator for k in table.kernel_values]
        assert table.scale == math.lcm(*dens) * Fraction(dt).denominator
        every = enumerate_states(n)
        built = []
        with monkeypatch.context() as patch:
            _counting_fractions(patch, built)
            rows = [scalar_rule.row(table, table.index(s)) for s in every]
        assert built == []
        valid = True
        for state, row in zip(every, rows):
            rates = {h: _formula_rate(table, state, h) for h in range(1, table.num_labels + 1)}
            nonzero = [h for h, rate in rates.items() if rate != 0]
            assert row.labels == tuple(nonzero)
            assert {type(x) for x in row.propensities + (row.total,)} <= {int}
            assert [Fraction(p, table.scale) * dt for p in row.propensities] == [
                rates[h] for h in nonzero]
            assert Fraction(row.total, table.scale) == sum(rates.values())
            k = table.index(state)
            if row.total <= table.scale:
                # the split's weights are the rates, its hold 1 - total, as ints
                split = table.children(k)
                assert {type(w) for *_, w in split} <= {int}
                weights = {h: Fraction(w, table.scale) for h, _, w in split}
                assert [weights.pop(h) for h in nonzero] == [rates[h] for h in nonzero]
                assert weights.pop(0, 0) == 1 - sum(rates.values()) and not weights
            else:  # past the limit there is no split to read
                with pytest.raises(StepSizeError):
                    table.children(k)
                valid = False
            # the public total keeps the type exact arithmetic on the inputs
            # gives it: an int when dt and the kernel values involved are ints
            whole = type(dt) is int and all(type(table.kernel_values[h - 1]) is int
                                            for h in nonzero)
            total = total_transition_rate(table, state)
            assert total == sum(rates.values()) and type(total) is (int if whole else Fraction)
        if not valid:
            continue
        ran += 1
        keys = [table.index(s) for s in every]
        for sequential in (False, True):
            built = []
            with monkeypatch.context() as patch:
                _counting_fractions(patch, built)
                prog = table.program(keys, 3, sequential)
            assert built == [] and prog.scale == table.scale
            assert {type(c) for c in prog.coef.tolist()} <= {int}
            at = scalar_rule.positions(prog, keys)
            prob = prog.vector(len(prog.ranks), at, [Fraction(1, len(keys))] * len(keys))
            with monkeypatch.context() as patch:
                _counting_fractions(patch, built)
                reads = [read(at) for read in prog.run(prob, 3)]
            assert len(built) == sum(map(len, reads)) == 3 * len(keys)
        built = []
        with monkeypatch.context() as patch:
            _counting_fractions(patch, built)
            branches = division.run_tree(table, 3)
        assert len(built) == len({b.prob for b in branches})
        assert {type(b.prob) for b in branches} == {Fraction}
    # at k0 = dt = 1 the sum kernel's N = 2 row, r = 2, is past the limit
    assert ran or (kind == "sum" and type(k0) is type(dt) is int)


def test_rational_run_takes_the_integer_kernel(monkeypatch):
    # an exact run steps on ints: no Fraction arithmetic until it reads
    table = _share_table(6, "sum", Fraction(3, 2), Fraction(1))
    keys = [table.index(s) for s in enumerate_states(6)]
    prog = table.program(keys, 4)
    prob = prog.vector(len(table.states), keys, [Fraction(1, len(keys))] * len(keys))
    float_start = prog.vector(len(table.states), keys, [1.0] + [0] * (len(keys) - 1))
    want = [_object_steps(prog, start, 4) for start in (prob, float_start)]

    def fail(*args):
        raise AssertionError("stepped on Fractions")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, fail)
    got = [_run_values(prog, start, 4) for start in (prob, float_start)]
    monkeypatch.undo()
    assert got == want
    assert _types(got[0] + got[1]) == {Fraction}


@pytest.mark.parametrize("share", [Fraction(1), Fraction(9, 10), Fraction(1, 2)],
                         ids=["1", "9/10", "1/2"])
@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_step_maps_conserve_probability_column_by_column(kind, share):
    # conservation is a property of the maps: the solver's A = I + dt Q and
    # the division model's B each carry every unit of a column's mass
    for n in range(2, 13):
        table = _share_table(n, kind, Fraction(3, 2), share)
        mono = table.index(MassDistribution.monodisperse(n))
        for steps in (n // 2, n):
            solver, division = (table.program([mono], steps, seq) for seq in (False, True))
            levels = [[0]] + solver.levels  # the source is the first position
            closure = {k for level in levels for k in level}
            stepping = {k for level in levels[:steps] for k in level}
            for prog, columns in [(solver, closure), (division, stepping)]:
                sums = dict.fromkeys(columns, 0)
                for c, coef in zip(prog.col.tolist(), _coefs(prog).tolist()):
                    sums[c] += coef
                assert sums == dict.fromkeys(columns, 1), (n, steps)
                assert prog.scale == table.scale
            terms = list(zip(solver.row.tolist(), solver.col.tolist(), _coefs(solver).tolist()))
            first = {}
            for r, c, coef in terms:
                first.setdefault(r, (c, coef))
            assert first == {k: (k, 1) for k in closure}
            assert all(type(coef) is Fraction for _, _, coef in terms)
            assert all(type(coef) is int for coef in solver.coef.tolist())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_exact_vector_refuses_a_start_that_is_not_finite(value):
    # a float table runs the same check, so a nan start cannot step to nan
    for k0, dt in [(Fraction(1), Fraction(1, 10)), (1.0, 0.1)]:
        table = build_transition_table(3, KernelSpec(k0=k0), dt)
        prog = table.program([table.index(MassDistribution.monodisperse(3))], 1)
        with pytest.raises(StateSpaceError) as err:
            prog.vector(len(table.states), [0], [value])
        assert type(err.value) is StateSpaceError
        assert str(err.value) == f"start value {value} is not finite"


def _compensated_sum(values, start=0):
    # sum() as Python 3.12 takes it on floats: Neumaier-compensated
    values = list(values)
    if not values or not all(type(v) is float for v in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("n", [4, 8, 12])
def test_float_sums_fold_left_on_every_python(monkeypatch, n):
    # a compensated sum() must not reach the row totals, total_transition_rate,
    # ProbabilityTable.total or mass_expectation: 3.11's sum() is the left fold
    monkeypatch.setattr(states_module, "sum", _compensated_sum, raising=False)
    monkeypatch.setattr(master, "sum", _compensated_sum, raising=False)
    states = enumerate_states(n)
    table = build_transition_table(n, KernelSpec(k0=0.7), 0.9 / (n * (n - 1)))
    folded = compensated = 0
    for state in states:
        rates = [r for *_, r in _terms(table, state.counts)]
        want = functools.reduce(operator.add, rates, 0.0)
        row = scalar_rule.row(table, table.index(state))
        assert repr(row.total) == repr(want) == repr(total_transition_rate(table, state))
        compensated += _compensated_sum(rates, 0.0) != want
        folded += 1
    p0 = master.ProbabilityTable.point_mass(MassDistribution.monodisperse(n))
    for p in master.evolve_series(p0, table, 6):
        values = p.values.tolist()
        assert repr(p.total()) == repr(functools.reduce(operator.add, values, 0))
        terms = [s.mass() * v for s, v in p.entries.items()]
        assert repr(master.mass_expectation(p)) == repr(functools.reduce(operator.add, terms, 0))
    assert folded and (n < 12 or compensated)  # N=12 has rows the compensation moves


def _loop_split(rates, total, one):
    # the sequential split as a loop, labels H..1, clipped at 1
    weights, remaining = [0 * total] * len(rates), one
    for pos in reversed(range(len(rates))):
        if remaining <= 0:
            break
        modified = rates[pos] / remaining
        if modified > 1:
            modified = one
        weights[pos] = modified * remaining
        remaining = (1 - modified) * remaining
    return weights, remaining


def _unchecked_split(table, k):
    # state k's division split read off its level's arrays with the
    # step-size check bypassed, as children forms it
    level, i = table._row(k)
    a, b = level.start[i], level.start[i + 1]
    weights, hold = table._split(level.rates[a:b], np.array([b - a]), level.totals[i:i + 1])
    kept = weights.tolist() + hold.tolist()
    return tuple(itertools.compress(zip(
        level.labels[a:b].tolist() + [0], level.targets[a:b].tolist() + [k], kept), kept))


@pytest.mark.parametrize(
    "k0, dt",
    [(Fraction(3, 2), Fraction(1, 40)), (1, Fraction(1, 30)), (1, 1), (Fraction(1, 2), 1),
     (0.7, 0.02), (1.0, 0.5)],
    ids=["fraction", "int-k0", "int", "fraction-k0-int-dt", "float", "float-clipped"],
)
@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_rows_split_as_the_loop_does(kind, k0, dt):
    # a row stores only what the rate rule gives; its split, read through
    # children, is the loop's split bit for bit with its zero weights left
    # out: on an exact row with sum r_h <= 1, each rate as its weight and
    # the hold scale - total, ints over the scale; past the limit, the check
    # refuses the row before a split is formed, and a float row's clipped
    # split is read with the check bypassed
    for n in range(2, 10):
        table = build_transition_table(n, KernelSpec(kind, k0), dt)
        for state in enumerate_states(n):
            k = table.index(state)
            row = scalar_rule.row(table, k)
            assert row._fields == ("labels", "targets", "propensities", "total")
            rates = [_read(table, p) * dt for p in row.propensities]
            total = _read(table, row.total)
            if total > 1:
                for refused in (lambda k: table._check(*table._row(k)), table.children):
                    with pytest.raises(StepSizeError):
                        refused(k)
                if not table.is_float:
                    continue
            weights, hold = _loop_split(rates, total, table.one)
            want = [(h, t, type(w), repr(w)) for h, t, w in zip(
                row.labels + (0,), row.targets + (k,), weights + [hold]) if w != 0]
            split = _unchecked_split(table, k)
            if total <= 1:
                assert split == table.children(k)
            got = [(h, t, _read(table, w)) for h, t, w in split]
            assert [(h, t, type(w), repr(w)) for h, t, w in got] == want
            if not table.is_float:
                assert all(type(w) is int for *_, w in split) and type(row.total) is int
                assert [_read(table, w) for h, _, w in split if h] == rates
                held = dict((h, w) for h, _, w in split).get(0, 0)
                assert held == table.scale - row.total and _read(table, held) == 1 - total


def test_split_cases_are_covered():
    # the int table meets both exact branches: rows within the limit and past it
    table = build_transition_table(4, KernelSpec("constant", 1), 1)
    totals = [scalar_rule.row(table, table.index(s)).total for s in enumerate_states(4)]
    assert {type(t) for t in totals} == {int}
    assert min(totals) <= 1 < max(totals)


def _checked_state(state):
    fresh = MassDistribution(state.counts)
    assert type(state) is MassDistribution and state == fresh
    assert hash(state) == hash(fresh) == hash((state.counts,))
    assert vars(state) == vars(fresh)


@pytest.mark.parametrize("kind", ["constant", "product"])
def test_collided_states_are_the_checked_ones(kind):
    for n in range(2, 11):
        table = build_transition_table(n, KernelSpec(kind, Fraction(1, 2)), Fraction(1, 100))
        for state in enumerate_states(n):
            for label, target, _ in table.children(table.index(state)):
                _checked_state(table.states[target])
            for label in range(1, table.num_labels + 1):
                if _formula_rate(table, state, label):
                    _checked_state(apply_pair(state, *table.pair_of(label)))
        for state in table.states.values():
            _checked_state(state)


@pytest.mark.parametrize("counts, i, j", [
    ((2, 1, 0, 0), 0, 1), ((2, 1, 0, 0), 1, 0), ((2, 1, 0, 0), -1, 2), ((2, 1, 0, 0), 2, 3),
    ((2, 1, 0, 0), 1, 5), ((0, 0, 0, 1), 0, 4),  # bin 0 reads bin N from the end
])
def test_apply_pair_refuses_a_pair_outside_the_bins(counts, i, j):
    # the collided state is built unchecked, so the pair is checked first
    with pytest.raises(LabelError, match=rf"^\({i},{j}\) is not a collision pair of 4 bins$"):
        apply_pair(MassDistribution(counts), i, j)


def _oracle_kernels(n):
    # every kernel kind at float k0 of 0.7 and 1.3 (where the order of
    # operations shows), a Fraction and an int, over a float and a rational
    # dt; a table kernel with zero entries; and a table mixing Fraction
    # entries with one float
    specs = [(KernelSpec(kind, k0), number) for kind in ("constant", "sum", "product")
             for k0, number in [(0.7, float), (1.3, float), (Fraction(3, 2), Fraction),
                                (2, float), (2, Fraction)]]
    zeros = tuple(tuple(0.0 if (i + j) % 3 == 0 else 0.3 * (i + j) for j in range(1, n + 1))
                  for i in range(1, n + 1))
    mixed = tuple(tuple(0.25 if (i, j) == (1, 1) else Fraction(i * j, 3)
                        for j in range(1, n + 1)) for i in range(1, n + 1))
    return specs + [(KernelSpec("table", table=zeros), float),
                    (KernelSpec("table", table=mixed), Fraction),
                    (KernelSpec("table", table=mixed), float)]


def _bits(values):
    # each value as the oracle compares it: a float by its int64 view, an
    # exact number by its type and value
    return [("float", np.float64(v).view(np.int64).item()) if isinstance(v, float)
            else (type(v).__name__, v) for v in values]


@pytest.mark.parametrize("n", range(2, 21))
def test_array_pass_matches_the_scalar_oracle(n):
    # one array pass over every state of N gives, bit for bit, the scalar
    # rule's rows, its division split on every checked row and the
    # sampler's tables: labels, targets (as counts), propensities, totals,
    # split weights and hold, event rate and CDF
    every = enumerate_states(n)
    counts = np.array([s.counts for s in every])
    for spec, number in _oracle_kernels(n):
        unit = build_transition_table(n, spec, number(1))
        worst = max(total_transition_rate(unit, s) for s in every)
        dt = float(0.9 / worst) if number is float else Fraction(9, 10) / worst
        table = build_transition_table(n, spec, dt)
        level = table._level(np.arange(len(every)), counts)
        weights, hold = table._split(level.rates, np.diff(level.start), level.totals)
        for k, state in enumerate(every):
            want, got = scalar_rule.compile_row(table, state.counts), scalar_rule.row(table, k)
            assert got.labels == want.labels
            assert [every[t].counts for t in got.targets] == list(want.targets)
            assert _bits(got.propensities + (got.total,)) == _bits(
                want.propensities + (want.total,))
            a, b = level.start[k], level.start[k + 1]
            if want.total <= table.scale:
                split, held = scalar_rule.split(table, want)
                if table.is_float:  # a position the loop never reached holds 0
                    split = [float(w) for w in split]
                assert _bits(weights[a:b].tolist() + hold[k:k + 1].tolist()) == _bits(
                    split + [held])
            event_rate, cdf = scalar_rule.events(table, want)
            got_rate, targets, got_cdf = table.events(k)
            assert targets == got.targets
            assert (type(got_rate), got_rate.view(np.int64)) == (
                type(event_rate), event_rate.view(np.int64))
            assert got_cdf.view(np.int64).tolist() == cdf.view(np.int64).tolist()


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20, 30, 40])
def test_rank_is_the_enumeration_index(n):
    # the closed-form rank of every state is its place in ascending counts
    # order, which enumerate_states lists; unranking inverts it
    every = enumerate_states(n)
    counts = np.array([s.counts for s in every])
    assert len(every) == partition_count_exact(n)
    assert all(state.mass() == n for state in every)
    assert all(a.counts < b.counts for a, b in zip(every, every[1:]))  # strictly ascending
    table = states_module._ranking(n)[0]
    ranks = table.take(states_module._terms(n, counts)).sum(axis=1)
    assert ranks.tolist() == list(range(len(every)))
    assert states_module._unrank(n, ranks).tolist() == counts.tolist()
    if 2 <= n <= 30:
        op = build_transition_table(n, KernelSpec(), 0.01)
        assert [op.index(s) for s in every] == list(range(len(every)))
    if 2 <= n <= 12:  # a rank the table has not met is unranked on its first read
        fresh = build_transition_table(n, KernelSpec(), 0.01)
        assert [fresh.states[k].counts for k in range(len(every))] == [s.counts for s in every]


def test_rank_past_int64_holds_python_ints():
    # p(406) is the first partition count past int64, so the rank table of
    # N = 406 holds Python ints: the monodisperse state still ranks last,
    # ranks at or above 2**63 unrank to states that rank back to them, and
    # runs step on those ranks
    n = 406
    assert partition_count_exact(n - 1) < 2**63 <= partition_count_exact(n)
    assert states_module._ranking(n)[0].dtype == object
    table = build_transition_table(n, KernelSpec(), 1e-8)
    start = MassDistribution.monodisperse(n)
    assert table.index(start) == partition_count_exact(n) - 1
    last = partition_count_exact(n) - 1
    ranks = [2**63, 2**63 + 1, (2**63 + last) // 2, last - 1, last]
    counts = states_module._unrank(n, np.array(ranks, dtype=object)).tolist()
    fresh = build_transition_table(n, KernelSpec(), 1e-8)
    assert [fresh.index(MassDistribution(tuple(row))) for row in counts] == ranks
    assert [type(fresh.index(MassDistribution(tuple(row)))) for row in counts] == [int] * 5
    final = master.evolve(master.ProbabilityTable.point_mass(start), table, 2)
    assert len(final.entries) > 1 and abs(final.total() - 1) <= 1e-12
    exact = build_transition_table(n, KernelSpec(k0=1), Fraction(1, 10**8))
    assert master.evolve(master.ProbabilityTable.point_mass(start), exact, 2).total() == 1
