import csv
import math
import os
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudq import master
from cloudq.master import (
    ProbabilityTable,
    SsaConfig,
    StepSizeError,
    evolve,
    evolve_series,
    expected_count,
    expected_counts,
    mass_expectation,
    ssa_population_estimate,
    write_csv,
    write_expected_series,
    write_probability_series,
)
from cloudq.division import HistoryBranch, divide_step, merge_branches, run_tree
from cloudq.states import (
    KernelSpec,
    MassDistribution,
    StateSpaceError,
    build_transition_table,
    enumerate_states,
    total_transition_rate,
)


def _mono_table(n, k0=1.0, dt=0.1):
    table = build_transition_table(n, KernelSpec(k0=k0), dt)
    p0 = ProbabilityTable.point_mass(MassDistribution.monodisperse(n))
    return table, p0


def test_euler_step_two_state_chain():
    table, p0 = _mono_table(2, k0=1.0, dt=0.1)
    p1 = evolve(p0, table, 1)
    assert p1.entries[MassDistribution((2, 0))] == pytest.approx(0.9, abs=1e-15)
    assert p1.entries[MassDistribution((0, 1))] == pytest.approx(0.1, abs=1e-15)
    assert p1.step == 1


def test_absorbing_state_fixed_point():
    table, _ = _mono_table(4, dt=0.05)
    absorbed = ProbabilityTable.point_mass(MassDistribution.absorbed(4))
    stepped = evolve(absorbed, table, 1)
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
    p2 = evolve(evolve(p0, table, 1), table, 1)
    assert set(s.counts for s in p2.entries) == set(N3_TWO_STEP)
    for state, prob in p2.entries.items():
        assert prob == pytest.approx(N3_TWO_STEP[state.counts], abs=1e-15)


def test_step_size_error_reports_state():
    table, p0 = _mono_table(4, k0=1.0, dt=1.0)  # 6*K*dt > 1 for (4,0,0,0)
    with pytest.raises(StepSizeError) as err:
        evolve(p0, table, 1)
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
        evolve(p, table, 1)
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


def test_expected_count_examples():
    table, p0 = _mono_table(6)
    assert expected_count(p0, 1) == 6
    table2, p02 = _mono_table(2, k0=1.0, dt=0.1)
    p1 = evolve(p02, table2, 1)
    assert expected_count(p1, 1) == pytest.approx(2 * 0.9, abs=1e-14)


def test_mass_identity_along_trajectory():
    table, p0 = _mono_table(6, k0=0.8, dt=0.02)
    p = p0
    for _ in range(50):
        p = evolve(p, table, 1)
        assert mass_expectation(p) == pytest.approx(6.0, abs=1e-9)
        assert abs(p.total() - 1) <= 1e-12


def test_monotone_absorption():
    table, p0 = _mono_table(5, k0=1.0, dt=0.02)
    absorbed = MassDistribution.absorbed(5)
    last = 0.0
    p = p0
    for _ in range(200):
        p = evolve(p, table, 1)
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


def _exact_table(n, kind):
    # dt at 9/10 of the largest sum_h r_h over every state, so no step is too big
    k0 = Fraction(3, 4)
    unit = build_transition_table(n, KernelSpec(kind, k0), Fraction(1))
    worst = max(total_transition_rate(unit, s) for s in enumerate_states(n))
    return build_transition_table(n, KernelSpec(kind, k0), Fraction(9, 10) / worst)


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_fraction_solver_matches_tree_marginal(kind):
    # in Q the sequential split weights equal r_h exactly, so the history
    # tree summed over histories is the solver's distribution, computed
    # branch by branch without the step program
    for n in range(2, 9):
        table = _exact_table(n, kind)
        mixed = MassDistribution((n - 2, 1) + (0,) * (n - 2))
        for start in (MassDistribution.monodisperse(n), mixed):
            for steps in (1, 2, 3):
                solver = evolve(ProbabilityTable({start: Fraction(1)}), table, steps)
                tree = merge_branches(run_tree(table, steps, start), steps)
                assert all(type(v) is Fraction for v in solver.entries.values())
                for state in set(solver.entries) | set(tree.entries):
                    assert solver.entries.get(state, Fraction(0)) == tree.entries.get(
                        state, Fraction(0)
                    )


def test_float_series_pinned():
    # keys, insertion order and values recorded from the flow-by-flow loop
    # that the step program replaced; the zero-probability key stays in
    # place and is first reached at step 3
    n = 6
    table = build_transition_table(n, KernelSpec("sum", 0.37), 0.02)
    p0 = ProbabilityTable(
        {MassDistribution((3, 0, 1, 0, 0, 0)): 0.25, MassDistribution.absorbed(n): 0.0,
         MassDistribution.monodisperse(n): 0.75}
    )
    series = evolve_series(p0, table, 3)
    assert [[(s.counts, repr(v)) for s, v in p.entries.items()] for p in series[1:]] == [
        [((3, 0, 1, 0, 0, 0), "0.2167"), ((0, 0, 0, 0, 0, 1), "0.0"),
         ((6, 0, 0, 0, 0, 0), "0.5835"), ((1, 1, 1, 0, 0, 0), "0.011099999999999999"),
         ((2, 0, 0, 1, 0, 0), "0.022199999999999998"),
         ((4, 1, 0, 0, 0, 0), "0.16649999999999998")],
        [((3, 0, 1, 0, 0, 0), "0.20262076"), ((0, 0, 0, 0, 0, 1), "0.0"),
         ((6, 0, 0, 0, 0, 0), "0.453963"), ((1, 1, 1, 0, 0, 0), "0.019735799999999998"),
         ((2, 0, 0, 1, 0, 0), "0.039471599999999996"), ((4, 1, 0, 0, 0, 0), "0.2664666"),
         ((0, 0, 2, 0, 0, 0), "0.00024641999999999996"), ((0, 1, 0, 1, 0, 0), "0.00065712"),
         ((1, 0, 0, 0, 1, 0), "0.0020535"), ((2, 2, 0, 0, 0, 0), "0.014785199999999997")],
        [((3, 0, 1, 0, 0, 0), "0.19929390884800002"),
         ((0, 0, 0, 0, 0, 1), "0.000131292576"), ((6, 0, 0, 0, 0, 0), "0.353183214"),
         ((1, 1, 1, 0, 0, 0), "0.028292548464"), ((2, 0, 0, 1, 0, 0), "0.05439688732799999"),
         ((4, 1, 0, 0, 0, 0), "0.31992191783999996"),
         ((0, 0, 2, 0, 0, 0), "0.0006736137119999999"),
         ((0, 1, 0, 1, 0, 0), "0.001796303232"), ((1, 0, 0, 0, 1, 0), "0.0056134476"),
         ((2, 2, 0, 0, 0, 0), "0.036478045439999995"),
         ((0, 3, 0, 0, 0, 0), "0.00021882095999999995")],
    ]
    assert [p.step for p in series] == [0, 1, 2, 3]
    assert list(evolve(p0, table, 3).entries.items()) == list(series[3].entries.items())


def test_series_compiles_only_the_states_it_holds():
    # p(60) = 966,467 states; three steps from the monodisperse state reach a
    # handful, and only those stepped from have compiled rows
    table = build_transition_table(60, KernelSpec(), 1e-5)
    series = evolve_series(ProbabilityTable.point_mass(MassDistribution.monodisperse(60)), table, 3)
    op = table.operator
    compiled = {s for s, row in zip(op.states, op._rows) if row is not None}
    assert compiled == set(series[2].entries)
    assert set(op.states) == set(series[3].entries)
    assert len(series[3].entries) < 20


def test_step_size_checked_before_the_closure_compiles():
    # 30 droplets at dt = 1 are over the limit from the start; the check
    # must come before the rows of 200 steps' reach are compiled
    table, p0 = _mono_table(30, k0=1.0, dt=1.0)
    for run in (evolve, evolve_series):
        with pytest.raises(StepSizeError, match=r"\(30, 0,"):
            run(p0, table, 200)
    op = table.operator
    assert [s for s, row in zip(op.states, op._rows) if row is not None] == [p0.states()[0]]
    assert evolve(p0, table, 0) is p0 and evolve_series(p0, table, 0) == [p0]
    # a zero-probability key over the limit moves nothing and is not checked
    table = build_transition_table(4, KernelSpec(k0=1.0), 0.4)
    start = MassDistribution((1, 0, 1, 0))
    p = ProbabilityTable({MassDistribution((4, 0, 0, 0)): 0.0, start: 1.0})
    assert evolve(p, table, 1).entries[start] == 1 - total_transition_rate(table, start)


def _rising_table():
    # K(i, j) = (ij)^2 at N = 6, dt = 1/15: the start (6, 0, ...) sits exactly
    # at sum_h r_h = 1, and its one successor (4, 1, 0, 0, 0, 0) is over it
    kernel = KernelSpec("table", table=tuple(
        tuple(float((i * j) ** 2) for j in range(1, 7)) for i in range(1, 7)
    ))
    return build_transition_table(6, kernel, 1 / 15)


def test_step_size_checked_level_by_level_as_the_closure_compiles():
    p0 = ProbabilityTable.point_mass(MassDistribution.monodisperse(6))
    for run in (evolve, evolve_series):
        table = _rising_table()
        over = MassDistribution((4, 1, 0, 0, 0, 0))
        assert total_transition_rate(table, p0.states()[0]) == 1
        with pytest.raises(StepSizeError) as err:
            run(p0, table, 5)
        assert str(err.value) == (
            f"sum of transition probabilities {total_transition_rate(table, over)} > 1 "
            "for state (4, 1, 0, 0, 0, 0); reduce dt"
        )
        # the start's row and the failing row; nothing deeper is compiled
        assert sum(row is not None for row in table.operator._rows) == 2


def test_negative_steps_rejected():
    table, p0 = _mono_table(3)
    for run in (evolve, evolve_series):
        with pytest.raises(StateSpaceError, match="steps >= 0"):
            run(p0, table, -1)


def test_ssa_estimates_pinned():
    # values recorded from the per-event propensity computation that the
    # compiled rows replaced; a fixed seed must keep every trajectory
    table = build_transition_table(8, KernelSpec("sum", 0.5), 0.01)
    cfg = SsaConfig(n_runs=40, seed=2026, t_end=0.2)
    assert ssa_population_estimate(table, cfg) == [
        (2.8, 0.26360420991930217), (1.05, 0.1384437310486346),
        (0.35, 0.07637626158259733), (0.175, 0.060843430844447585),
        (0.15, 0.05717718748968655), (0.1, 0.04803844614152611), (0.0, 0.0), (0.0, 0.0),
    ]
    assert ssa_population_estimate(table, cfg, MassDistribution((2, 1, 0, 1, 0, 0, 0, 0))) == [
        (0.875, 0.10853039276555738), (0.425, 0.08687966921597319),
        (0.175, 0.060843430844447585), (0.3, 0.0816496580927726),
        (0.275, 0.07149950690165272), (0.1, 0.04803844614152611),
        (0.225, 0.06686668711812967), (0.125, 0.05295740910852021),
    ]


def _per_cell_csv(path, header, rows):
    # write_csv as it was: every row through csv.writer, one cell at a time
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [cell if isinstance(cell, (int, str)) else repr(cell) for cell in row] for row in rows
        )


def _same_csv_bytes(header, rows, chunk=master._CSV_CHUNK):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        with mock.patch.object(master, "_CSV_CHUNK", chunk):
            write_csv(got, header, iter(rows))
        _per_cell_csv(want, header, rows)
        with open(got, "rb") as a, open(want, "rb") as b:
            return a.read() == b.read()


_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]
)
_TEXT = st.text(
    alphabet=st.sampled_from(["a", "|", "0", ".", " ", ",", '"', "\n", "\r"]), max_size=4
)
_CELLS = {
    "float": _FLOATS,
    "int": st.integers(-(10**20), 10**20),
    "str": _TEXT,
    "fraction": st.fractions(max_denominator=1000),
    "numpy": _FLOATS.map(np.float64) | st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def _csv_rows(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(_CELLS[k] for k in kinds)), max_size=30))
    if draw(st.booleans()):  # ragged: cut some rows short, as lists
        rows = [list(r[: draw(st.integers(0, len(r)))]) if draw(st.booleans()) else r
                for r in rows]
    return rows


@settings(max_examples=300, deadline=None)
@given(_csv_rows(), st.sampled_from([1, 2, 3, 7, master._CSV_CHUNK]))
def test_write_csv_matches_per_cell_writer(rows, chunk):
    # floats, -0.0, inf, nan and subnormals; Fractions (quoted); numpy
    # scalars and bools; strings with , " \n \r and empty ones; ragged rows
    assert _same_csv_bytes(["a", "b"], rows, chunk)


@pytest.mark.parametrize(
    "rows",
    [
        [("",), ("",), ("x",)],
        [("", ""), ("", "")],
        [(1, 0.5), (2,), (3, 0.25, "x")],
        [(1, Fraction(1, 3)), (2, Fraction(-2))],
        [(i, i / 7, f"{i}|0") for i in range(5000)],
        [(i, i / 7, "a,b" if i == 3000 else "c") for i in range(5000)],
        [(i, -0.0) if i % 2 else (i,) for i in range(4500)],
    ],
    ids=["one-empty-column", "empty-cells", "ragged", "fraction", "long", "long-quoted",
         "long-ragged"],
)
def test_write_csv_edge_cases(rows):
    assert _same_csv_bytes(["a", "b", "c"], rows)


def _loop_expected(p, bin_index):
    # expected_count as it was: one Python sum per bin, in entry order
    total = 0.0
    for state, prob in p.entries.items():
        total += state.counts[bin_index - 1] * prob
    return total


@pytest.mark.parametrize(
    "probs",
    [(-0.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (-5e-324, 1.0, -1e-300), (0.5, -1e-17, 0.5),
     (Fraction(1, 3), Fraction(-1, 7), Fraction(17, 21)), (0, 1, 0)],
    ids=["negative-zeros", "mixed-zeros", "tiny-negative", "cancel", "fractions", "ints"],
)
def test_expected_counts_keep_the_loops_bits(probs, tmp_path):
    # a column summing to -0.0 must read 0.0, as the loop's 0.0 start gives;
    # a Fraction or int table reads floats, as 0.0 + Fraction and 0.0 + int are
    keys = [MassDistribution((3, 0, 0)), MassDistribution((1, 1, 0)), MassDistribution((0, 0, 1))]
    series = [ProbabilityTable(dict(zip(keys, probs)), step=0),
              ProbabilityTable(dict(zip(keys[::-1], probs)), step=1)]
    want = [[_loop_expected(p, b) for b in (1, 2, 3)] for p in series]
    for got in ([expected_counts(p) for p in series],
                [[expected_count(p, b) for b in (1, 2, 3)] for p in series]):
        assert list(map(repr, got)) == list(map(repr, want))
    path = tmp_path / "expected.csv"
    write_expected_series(series, str(path))
    _per_cell_csv(tmp_path / "loop.csv", ["step", "bin", "expected_count"],
                  [(p.step, b, want[i][b - 1]) for i, p in enumerate(series) for b in (1, 2, 3)])
    assert path.read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_expected_counts_need_a_state():
    with pytest.raises(StateSpaceError, match="^empty distribution$"):
        expected_count(ProbabilityTable({}), 99)


def test_expected_series_needs_a_state(tmp_path):
    p0 = ProbabilityTable.point_mass(MassDistribution.monodisperse(3))
    with pytest.raises(StateSpaceError, match="^empty distribution$"):
        write_expected_series([p0, ProbabilityTable({})], str(tmp_path / "e.csv"))


# The accumulation as it stood before both executors took one np.add.at
# into a zeroed array: bincount on float64, and on Python numbers a loop
# that starts each position at its first value.
def _old_accumulate(size, index, values):
    if values.dtype != object:
        return np.bincount(index, values, minlength=size)
    out = [None] * size
    for t, v in zip(index.tolist(), values.tolist()):
        out[t] = v if out[t] is None else out[t] + v
    return np.array([0 if v is None else v for v in out], dtype=object)


def _add_at(size, index, values):
    # what master._steps and division.run_merged do each step
    out = np.zeros(size, dtype=values.dtype)
    np.add.at(out, index, values)
    return out


@st.composite
def _terms(draw, number):
    size = draw(st.integers(min_value=1, max_value=12))
    # at least one term, as every step has (bincount gives int64 on none)
    index = draw(st.lists(st.integers(min_value=0, max_value=size - 1), min_size=1, max_size=40))
    values = draw(st.lists(number, min_size=len(index), max_size=len(index)))
    return size, np.array(index, dtype=np.intp), values


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_terms(_FLOATS))
def test_add_at_keeps_the_bincount_bits(terms):
    size, index, values = terms
    values = np.array(values, dtype=float)
    got, want = _add_at(size, index, values), _old_accumulate(size, index, values)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(_terms(st.one_of(st.integers(min_value=-10**20, max_value=10**20), st.fractions())))
def test_add_at_keeps_the_loops_numbers(terms):
    # 0 + Fraction is that Fraction and 0 + int is that int
    size, index, values = terms
    values = np.array(values, dtype=object)
    got, want = _add_at(size, index, values), _old_accumulate(size, index, values)
    assert got.dtype == want.dtype == object
    assert [(type(v), repr(v)) for v in got.tolist()] == [(type(v), repr(v)) for v in want.tolist()]


@pytest.mark.parametrize(
    "dt, one", [(0.01, 1.0), (0.01, 1), (Fraction(1, 100), Fraction(1))],
    ids=["float", "int-start", "fraction"],
)
def test_unreached_negative_zero_start_reads_positive_zero(dt, one):
    # each step sums from zero, so a -0.0 entry no flow reaches reads 0.0
    # after a step on Python numbers (int start, Fraction table), as on float64;
    # the first-value loop kept the -0.0 there
    n = 6
    start, far = MassDistribution.monodisperse(n), MassDistribution.absorbed(n)
    p0 = ProbabilityTable({start: one, far: -0.0})
    p1 = evolve(p0, build_transition_table(n, KernelSpec(), dt), 1)
    assert list(p1.entries) == [start, far, MassDistribution((4, 1, 0, 0, 0, 0))]
    assert repr(p1.entries[far]) == "0.0"
