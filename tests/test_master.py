import bisect
import csv
import hashlib
import math
import operator
import os
import tempfile
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudq import master
from cloudq.master import (
    ProbabilityTable,
    SsaConfig,
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
from cloudq.division import (
    amplitude_expectation,
    merge_branches,
    run_merged,
    run_tree,
)
import scalar_rule
from cloudq.states import (
    KernelSpec,
    MassDistribution,
    StateSpaceError,
    StepSizeError,
    TransitionTable,
    build_transition_table,
    enumerate_states,
    qubits_for_bin,
    total_transition_rate,
)


def _absorbed(n):
    # the single largest droplet: (0, ..., 0, 1)
    return MassDistribution((0,) * (n - 1) + (1,))


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
    absorbed = ProbabilityTable.point_mass(_absorbed(4))
    stepped = evolve(absorbed, table, 1)
    assert stepped.entries[_absorbed(4)] == 1.0


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
        run_tree(table, 1, first)
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
    assert p.entries[_absorbed(5)] > 0.99


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
    absorbed = _absorbed(5)
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


@pytest.mark.parametrize("k0, dt", [(1.0, 0.01), (Fraction(1), Fraction(1, 100))],
                         ids=["float", "exact"])
def test_solver_and_sampler_form_no_split(monkeypatch, k0, dt):
    # the division split is formed only where a division run reads it: a
    # solver series and the sampler on the same table never ask for it
    def refuse(self, *rows):
        raise AssertionError("split formed")

    monkeypatch.setattr(TransitionTable, "_split", refuse)
    n = 8
    table = build_transition_table(n, KernelSpec("constant", k0), dt)
    series = evolve_series(ProbabilityTable.point_mass(MassDistribution.monodisperse(n)), table, 6)
    assert len(series) == 7 and len(table.states) > 1
    ssa_population_estimate(table, SsaConfig(n_runs=20, seed=3, t_end=5.0))
    assert table._events and not table._children
    with pytest.raises(AssertionError, match="split formed"):  # the patch is the one reader
        run_merged(table, 1)


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
        {MassDistribution((3, 0, 1, 0, 0, 0)): 0.25, _absorbed(n): 0.0,
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
    op = table
    compiled = {op.states[k] for k in op._rows}
    assert compiled == set(series[2].entries)
    assert set(op.states.values()) == set(series[3].entries)
    assert len(series[3].entries) < 20


def test_step_size_checked_before_the_closure_compiles():
    # 30 droplets at dt = 1 are over the limit from the start; the check
    # must come before the rows of 200 steps' reach are compiled
    table, p0 = _mono_table(30, k0=1.0, dt=1.0)
    for run in (evolve, evolve_series):
        with pytest.raises(StepSizeError, match=r"\(30, 0,"):
            run(p0, table, 200)
    op = table
    assert [op.states[k] for k in op._rows] == [p0.states()[0]]
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
        # the start's level and the failing one; nothing deeper is compiled
        assert [len(level.ranks) for level in table._levels.values()] == [1, 1]
        assert {table.states[k] for k in table._rows} == {p0.states()[0], over}


@pytest.mark.parametrize("one", [1.0, Fraction(1)], ids=["float", "exact"])
def test_zero_and_empty_starts_step_to_zero(one):
    # a start with no populated state steps nothing: its keys stay listed at zero
    table = build_transition_table(5, KernelSpec(k0=one), one / 100)
    mono, other = MassDistribution.monodisperse(5), MassDistribution((3, 1, 0, 0, 0))
    zeros = ProbabilityTable({mono: 0 * one, other: 0 * one})
    for p in evolve_series(zeros, table, 3):
        assert list(p.entries) == [mono, other] and not any(p.entries.values())
    assert evolve(ProbabilityTable({}), table, 2).entries == {}


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


def _same_csv_bytes(header, rows, chunk=256):
    # the rows as column blocks of ``chunk`` rows each, and as one-row blocks
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        _per_cell_csv(want, header, rows)
        with open(want, "rb") as handle:
            expected = handle.read()
        for size in {chunk, 1}:
            blocks = (list(zip(*rows[i:i + size])) for i in range(0, len(rows), size))
            write_csv(got, header, blocks)
            with open(got, "rb") as handle:
                if handle.read() != expected:
                    return False
        return True


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
    return draw(st.lists(st.tuples(*(_CELLS[k] for k in kinds)), max_size=30))


@settings(max_examples=300, deadline=None)
@given(_csv_rows(), st.sampled_from([1, 2, 3, 7, 256]))
def test_write_csv_matches_per_cell_writer(rows, chunk):
    # floats, -0.0, inf, nan and subnormals; Fractions (quoted); numpy
    # scalars and bools; strings with , " \n \r and empty ones; one column
    assert _same_csv_bytes(["a", "b"], rows, chunk)


@pytest.mark.parametrize(
    "rows",
    [
        [("",), ("",), ("x",)],
        [("", ""), ("", "")],
        [(1, Fraction(1, 3)), (2, Fraction(-2))],
        [(i, i / 7, f"{i}|0") for i in range(5000)],
        [(i, i / 7, "a,b" if i == 3000 else "c") for i in range(5000)],
        [(0.1, 3, "paper-case-1", np.float64(0.5), True)],
        [(1e-12, 5, 15, 8.5e-13)],
    ],
    ids=["one-empty-column", "empty-cells", "fraction", "long", "long-quoted", "one-row",
         "one-row-numbers"],
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


@pytest.mark.parametrize("width", [1, 2, 3, 20])
@pytest.mark.parametrize("n_states", [8, 9, 100, 3000])
def test_float_expected_counts_add_state_by_state(n_states, width):
    # numpy sums 8 or more values pairwise in add.reduce, so a float64 table
    # of that many states tells an in-order sum from a reordered one; the
    # values span four decades in both signs, a fifth are -0.0, and bin 27
    # holds no droplet in any state (a column of signed zero terms)
    rng = np.random.default_rng([n_states, width])
    every = [s for s in enumerate_states(27) if not s.counts[-1]]
    states = [every[i] for i in rng.permutation(len(every))[:n_states].tolist()]
    values = rng.uniform(-1, 1, n_states) * 10.0 ** rng.integers(-3, 1, n_states)
    values[rng.random(n_states) < 0.2] = -0.0
    p = ProbabilityTable.listed(states, values, step=0)
    bins = [1] + sorted((rng.permutation(25)[:width - 1] + 2).tolist())
    want = [_loop_expected(p, b) for b in range(1, 28)]
    assert list(map(repr, expected_counts(p))) == list(map(repr, want))
    assert list(map(repr, expected_counts(p, bins))) == [repr(want[b - 1]) for b in bins]
    assert [repr(expected_count(p, b)) for b in bins] == [repr(want[b - 1]) for b in bins]
    assert repr(want[26]) == repr(expected_count(p, 27)) == "0.0"


_WRITERS = {"probability": write_probability_series, "expected": write_expected_series}
_READERS = {"expected_count": expected_count, "amplitude": amplitude_expectation,
            "mass": lambda p, bin_index: mass_expectation(p)}


@pytest.mark.parametrize("read", [*_WRITERS.values(), *_READERS.values()],
                         ids=[*_WRITERS, *_READERS])
def test_a_series_of_two_bin_counts_is_refused(read, tmp_path):
    # a writer refuses a series of 3-bin and 4-bin states before it opens
    # its file; a reader refuses one table of both, in either order, at any bin
    def refused():
        return pytest.raises(StateSpaceError, match="^series mixes 3-bin and 4-bin states$")

    a, b = (ProbabilityTable.point_mass(MassDistribution.monodisperse(n)) for n in (3, 4))
    mixed = ProbabilityTable({**a.entries, **b.entries})
    flipped = ProbabilityTable({**b.entries, **a.entries})
    path = tmp_path / "series.csv"
    if read in _WRITERS.values():
        for series in ([a, b], [b, a], [mixed], [flipped]):
            with refused():
                read(series, str(path))
            assert not path.exists()
    else:
        for p, bin_index in [(mixed, 1), (mixed, 4), (flipped, 1), (flipped, 4)]:
            with refused():
                read(p, bin_index)
    with refused():
        expected_counts(mixed)


def _cumsum_expected(counts, values):
    # _expected as one cumsum for every number type: on an object array,
    # Python's own int * Fraction and float + Fraction, term by term
    rows = np.vstack([np.zeros_like(counts[:1]), counts[:len(values)]]).astype(values.dtype)
    probs = np.concatenate([[0.0], values]).astype(values.dtype)
    return np.cumsum(rows * probs[:, None], axis=0)[-1].tolist()


def _product_amplitude(p, bin_index):
    # amplitude_expectation's loop on Python's float * Fraction
    d = 2 ** qubits_for_bin(p.listing[0].num_bins, bin_index)
    total = 0.0
    for state, prob in p.entries.items():
        total += (state.counts[bin_index - 1] / d) * prob
    return d * total


def _same_readout(p):
    # every reader, twice, in two orders: the view the first read builds
    # gives every later read the bits of the per-entry loops and folds
    counts = np.array([s.counts for s in p.listing], dtype=np.int64)
    bins = range(1, counts.shape[1] + 1)
    want = list(map(repr, _cumsum_expected(counts, p.values)))
    amplitudes = [repr(_product_amplitude(p, b)) for b in bins]
    mass = reduce(operator.add, (s.mass() * v for s, v in p.entries.items()), 0)
    reads = [
        lambda: (list(map(repr, expected_counts(p))), want),
        lambda: ([repr(expected_count(p, b)) for b in bins], want),
        lambda: ([repr(amplitude_expectation(p, b)) for b in bins], amplitudes),
        lambda: ((repr(mass_expectation(p)), type(mass_expectation(p))), (repr(mass), type(mass))),
    ]
    for read in reads + reads[::-1]:
        got, expected = read()
        assert got == expected


def _exact_runs(kind, k0, n, steps):
    unit = build_transition_table(n, KernelSpec(kind, k0), 1)
    worst = max(total_transition_rate(unit, s) for s in enumerate_states(n))
    table = build_transition_table(n, KernelSpec(kind, k0), Fraction(9, 10) / worst)
    p0 = ProbabilityTable({MassDistribution.monodisperse(n): Fraction(1)})
    return [run_merged(table, steps), evolve(p0, table, steps),
            merge_branches(run_tree(table, steps), steps)], evolve_series(p0, table, steps)


@pytest.mark.parametrize("k0", [1, Fraction(3, 2)], ids=["int", "fraction"])
@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_exact_readout_keeps_its_bits(kind, k0, tmp_path, monkeypatch):
    # each term's one integer division is the float Python's Fraction
    # arithmetic gave: every bin, repr for repr, and the series CSV bytes
    for n, steps in [(2, 3), (5, 4), (8, 5), (12, 5)]:
        tables, series = _exact_runs(kind, k0, n, steps)
        for p in tables + series:
            assert {type(v) for v in p.values.tolist()} == {Fraction}
            _same_readout(p)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_expected_series(series, str(got))
        with monkeypatch.context() as patched:
            patched.setattr(master, "_expected", _cumsum_expected)
            write_expected_series(series, str(want))
        assert got.read_bytes() == want.read_bytes()


def test_object_readout_of_floats_and_ints_keeps_its_bits():
    # Python floats keep count * P; ints and mixed tables add as Python does
    rng = np.random.default_rng(34)
    table = build_transition_table(9, KernelSpec("sum", 0.7), 0.9 / 72)
    p0 = ProbabilityTable.point_mass(MassDistribution.monodisperse(9))
    for p in evolve_series(p0, table, 8):
        floats = ProbabilityTable(dict(p.entries), p.step)
        assert floats.values.dtype == object and floats == p
        _same_readout(floats)
        ints = ProbabilityTable({s: int(v) for s, v in zip(p.entries, rng.integers(0, 9, 99))})
        _same_readout(ints)
        mixed = [Fraction(int(v), 7) if v % 3 else float(v) / 7 for v in rng.integers(0, 9, 99)]
        _same_readout(ProbabilityTable(dict(zip(p.entries, mixed))))


@pytest.mark.parametrize("n", [12, 20])
def test_float_run_readout_keeps_its_bits(n):
    # a float run's tables share one listing that runs past their values,
    # and one rows array of the step program's; each reads as its entries
    unit = build_transition_table(n, KernelSpec("sum", 0.7), 1.0)
    dt = 0.9 / max(total_transition_rate(unit, s) for s in enumerate_states(n))
    table = build_transition_table(n, KernelSpec("sum", 0.7), dt)
    series = evolve_series(ProbabilityTable.point_mass(MassDistribution.monodisperse(n)), table, 20)
    assert len(series[1].listing) > len(series[1].values)
    merged = run_merged(table, 20)
    assert {p.values.dtype for p in series[1:] + [merged]} == {np.dtype(float)}
    for p in series + [merged]:
        _same_readout(p)


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
    start, far = MassDistribution.monodisperse(n), _absorbed(n)
    p0 = ProbabilityTable({start: one, far: -0.0})
    p1 = evolve(p0, build_transition_table(n, KernelSpec(), dt), 1)
    assert list(p1.entries) == [start, far, MassDistribution((4, 1, 0, 0, 0, 0))]
    assert repr(p1.entries[far]) == "0.0"


@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_listed_float_run_keeps_the_masked_bits(kind):
    # every state is a start key, so the run is listed before its first step;
    # the float step adds every term, unit diagonal included, and a dead
    # source's products are +-0.0 and move no sum, so each step keeps the
    # bits of stepping the populated states only
    n, steps = 9, 8
    table = build_transition_table(n, KernelSpec(kind, 0.7), 0.002)
    cycle = [-0.0, 0.3, 5e-324, 0.0, 1e-310, 2.5e-324]  # some underflow after a step
    p0 = ProbabilityTable(
        {s: cycle[i % len(cycle)] for i, s in enumerate(enumerate_states(n))}
    )
    series = evolve_series(p0, table, steps)
    op = table
    keys = [op.index(s) for s in p0.entries]
    prog = op.program(keys, steps)
    prob = prog.vector(len(op.states), keys, list(p0.entries.values()))
    for table_at_step in series[1:]:
        nxt = np.zeros(len(prob))
        live = (prob != 0)[prog.col]
        np.add.at(nxt, prog.row[live], prob[prog.col[live]] * prog.coef[live])
        prob = nxt
        assert list(table_at_step.entries) == list(p0.entries)
        assert np.array(list(table_at_step.entries.values())).tobytes() == prob[keys].tobytes()


def test_exact_runs_hold_fractions_from_step_0(tmp_path):
    # an exact run's start table is read from the program's start vector, so
    # a point_mass start's 1.0 is Fraction(1) at step 0 as at every later step
    table = build_transition_table(4, KernelSpec(k0=1), Fraction(1, 100))
    mono = MassDistribution.monodisperse(4)
    p0 = ProbabilityTable.point_mass(mono)
    series, zero = evolve_series(p0, table, 2), evolve(p0, table, 0)
    for p in [zero] + series:
        assert {type(v) for v in p.entries.values()} == {Fraction}
    assert [repr(p.entries[mono]) for p in (zero, series[0])] == ["Fraction(1, 1)"] * 2
    assert series[0].step == zero.step == 0
    path = tmp_path / "probabilities.csv"
    write_probability_series(series, str(path))
    with open(path, newline="") as handle:
        cells = [row[2] for row in list(csv.reader(handle))[1:]]
    assert cells[0] == "Fraction(1, 1)"
    assert all(cell.startswith("Fraction(") for cell in cells)


def test_listed_rational_run_keeps_the_int_zeros_no_flow_reaches():
    # an exact run holds Fractions only: an int 0 start no flow has reached
    # yet reads as Fraction(0), and every reached state is positive
    n = 7
    table = build_transition_table(n, KernelSpec(k0=Fraction(1)), Fraction(1, 100))
    start = MassDistribution.monodisperse(n)
    p0 = ProbabilityTable({s: Fraction(1) if s == start else 0 for s in enumerate_states(n)})
    for step, p in enumerate(evolve_series(p0, table, n - 1)[1:], start=1):
        for state, prob in p.entries.items():
            reached = sum(state.counts) >= n - step  # one droplet fewer per collision
            assert type(prob) is Fraction and (prob > 0) is reached, (step, state)


def test_listed_states_are_the_programs_levels_not_the_nonzero_values():
    # at dt = 1e-40 the float flows underflow to 0.0 a few collisions out,
    # yet a run lists every state it can reach, as the rational run does:
    # after step s, the partitions of N into at least N - s parts
    n = 12
    series = {
        number: evolve_series(
            ProbabilityTable({MassDistribution.monodisperse(n): number(1)}),
            build_transition_table(n, KernelSpec(k0=number(1)), number(1) / 10**40), n,
        )
        for number in (float, Fraction)
    }
    for step, (p, exact) in enumerate(zip(series[float], series[Fraction])):
        assert set(map(type, exact.entries.values())) == {Fraction}
        assert list(p.entries) == list(exact.entries)
        assert set(exact.entries) == {
            s for s in enumerate_states(n) if sum(s.counts) >= n - step
        }
    assert 0.0 in series[float][-1].entries.values()
    merged = run_merged(build_transition_table(n, KernelSpec(), 1e-40), n)
    assert sorted(series[float][-1].entries, key=lambda s: s.counts) == list(merged.entries)
    assert len(merged.entries) == 77


def _per_cell_series(series, probs_path, expected_path):
    # the series writers as they were: each table's entries, sorted by
    # counts, through csv.writer cell by cell; expected counts by the loop
    rows = [(p.step, master.state_id(s), p.entries[s]) for p in series for s in p.states()]
    _per_cell_csv(probs_path, ["step", "state_id", "probability"], rows)
    if expected_path is not None:
        n_bins = next(iter(series[0].entries)).num_bins
        rows = [(p.step, b, _loop_expected(p, b)) for p in series for b in range(1, n_bins + 1)]
        _per_cell_csv(expected_path, ["step", "bin", "expected_count"], rows)


def _same_series_bytes(series, tmp_path, expected=True):
    names = ["p.csv", "e.csv", "want-p.csv", "want-e.csv"]
    got_p, got_e, want_p, want_e = (tmp_path / name for name in names)
    write_probability_series(series, str(got_p))
    _per_cell_series(series, want_p, want_e if expected else None)
    if expected:
        write_expected_series(series, str(got_e))
        assert got_e.read_bytes() == want_e.read_bytes()
    assert got_p.read_bytes() == want_p.read_bytes()


@pytest.mark.parametrize("number", [float, Fraction], ids=["float", "fraction"])
@pytest.mark.parametrize("kind", ["constant", "sum", "product"])
def test_run_series_csv_matches_the_per_cell_writer(kind, number, tmp_path):
    n = 7
    table = build_transition_table(n, KernelSpec(kind, number(1)), number(1) / 200)
    p0 = ProbabilityTable({MassDistribution((3, 2, 0, 0, 0, 0, 0)): number(1) / 2,
                           _absorbed(n): number(0),
                           MassDistribution.monodisperse(n): number(1) / 2})
    series = evolve_series(p0, table, 5)
    _same_series_bytes(series, tmp_path)
    _same_series_bytes(series[2:4] + [run_merged(table, 3), evolve(p0, table, 2)], tmp_path)


@pytest.mark.parametrize("number", [float, Fraction], ids=["float", "fraction"])
def test_two_digit_series_csv_matches_the_per_cell_writer(number, tmp_path):
    # at N = 12 the start state's id is 12|0|...|0: a count of two digits
    n = 12
    table = build_transition_table(n, KernelSpec("sum", number(1)), number(1) / 400)
    p0 = ProbabilityTable({MassDistribution.monodisperse(n): number(1), _absorbed(n): number(0)})
    series = evolve_series(p0, table, 4)
    assert master.state_id(MassDistribution.monodisperse(n)) == "12" + "|0" * 11
    _same_series_bytes(series, tmp_path)
    _same_series_bytes([run_merged(table, 4), series[2]], tmp_path)


def test_mixed_block_series_csv_matches_the_per_cell_writer(tmp_path):
    # a run's float64 tables and its merged table, joined directly, meet a
    # hand-built table of numpy scalars and a Fraction that csv.writer quotes
    n = 12
    table = build_transition_table(n, KernelSpec("product", 1.0), 0.002)
    series = evolve_series(ProbabilityTable.point_mass(MassDistribution.monodisperse(n)), table, 3)
    keys = series[-1].states()[1:]
    cells = [np.float64(0.25), np.float64(-0.0), Fraction(1, 3), 0.125, np.float64(5e-324), 2]
    hand = ProbabilityTable(dict(zip(keys, cells)), step=7)
    _same_series_bytes(series[1:] + [run_merged(table, 3), hand] + series[:2], tmp_path)


def test_hand_built_series_csv_matches_the_per_cell_writer(tmp_path):
    # shared states in different orders, some left out, and cells that
    # leave the column path: -0.0, subnormals, numpy scalars, Fractions
    keys = [MassDistribution(c) for c in [(4, 0, 0, 0), (2, 1, 0, 0), (0, 2, 0, 0),
                                          (1, 0, 1, 0), (0, 0, 0, 1)]]
    values = [-0.0, 5e-324, 0.25, 1e-310, 0.75]
    cells = [np.float64(0.5), np.float64(-0.0), Fraction(1, 3), 2, 0.125]
    series = [
        ProbabilityTable(dict(zip(keys, values)), step=0),
        ProbabilityTable(dict(zip(keys[::-1], values)), step=1),
        ProbabilityTable({keys[3]: 0.5, keys[0]: -0.0}, step=2),
        ProbabilityTable(dict(zip(keys[1:], cells[1:])), step=3),
        ProbabilityTable(dict(zip(keys[::2], cells)), step=4),
    ]
    _same_series_bytes(series, tmp_path)
    _same_series_bytes(series + [ProbabilityTable({}, step=5)], tmp_path, expected=False)
    _same_series_bytes([ProbabilityTable({}, step=0)], tmp_path, expected=False)


def _parent_steps(p0, table, steps, one):
    # the run's tables as each step's dict of every listed state, as the
    # solver kept them before it kept arrays; each step sums from the
    # table's zero, and the map's unit diagonal carries the old values
    op = table
    keys = [op.index(s) for s in p0.entries]
    prog = op.program([k for k, v in zip(keys, p0.entries.values()) if v != 0], steps)
    # a key no flow reaches keeps a zero slot of its own past the program's
    where = {k: p for p, k in enumerate(prog.ranks.tolist())}
    keys = [where.get(k, len(where) + n) for n, k in enumerate(keys)]
    names = dict(zip(keys, p0.entries))
    size, order, listed = len(where) + len(keys), list(keys), set(keys)
    prob = prog.vector(size, keys, list(p0.entries.values()))
    # an exact program's coefficients are ints over its scale
    coef = prog.coef if table.is_float else np.array(
        [Fraction(c, prog.scale) for c in prog.coef.tolist()], dtype=object)
    out = []
    for level in prog.levels:
        nxt = np.full(size, 0 * one)
        live = (prob != 0)[prog.col] if prob.dtype == object else slice(None)
        np.add.at(nxt, prog.row[live], prob[prog.col[live]] * coef[live])
        prob = nxt
        order.extend(k for k in level if k not in listed)
        out.append(dict(zip([names.get(p) or MassDistribution(tuple(prog.counts[p].tolist()))
                             for p in order], prob[order].tolist())))
    return out


@pytest.mark.parametrize("dt, one", [(0.003, 1.0), (Fraction(3, 1000), Fraction(1))],
                         ids=["float", "fraction"])
def test_run_table_entries_are_the_step_dicts(dt, one):
    n = 8
    table = build_transition_table(n, KernelSpec("sum", one), dt)
    p0 = ProbabilityTable({_absorbed(n): 0, MassDistribution.monodisperse(n): one})
    want = _parent_steps(p0, table, 6, one)
    series = evolve_series(p0, table, 6)
    for p, entries in zip(series[1:], want):
        assert [(s, type(v), repr(v)) for s, v in p.entries.items()] == [
            (s, type(v), repr(v)) for s, v in entries.items()
        ]
        assert p.states() == sorted(entries, key=lambda s: s.counts)
        assert p.total() == sum(entries.values())
    assert list(evolve(p0, table, 6).entries.items()) == list(want[-1].items())


def test_writing_a_series_builds_no_step_dict(tmp_path, monkeypatch):
    table, p0 = _mono_table(9, dt=0.01)
    series = evolve_series(p0, table, 8) + [run_merged(table, 8)]
    reads = []
    entries = ProbabilityTable.entries
    monkeypatch.setattr(ProbabilityTable, "entries", property(
        lambda table: reads.append(table.step) or entries.fget(table)
    ))
    write_probability_series(series, str(tmp_path / "p.csv"))
    write_expected_series(series, str(tmp_path / "e.csv"))
    expected_counts(series[-2])
    assert reads == []
    assert all(p._entries is None for p in series[1:])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_ssa_draws_match_uniform_and_searchsorted(seed):
    # rng.random() is rng.uniform() draw for draw, and bisect_left on the
    # cdf array is searchsorted's side 'left', ties included
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = [a.random() for _ in range(200)]
    assert draws == [b.uniform() for _ in range(200)]
    table = build_transition_table(9, KernelSpec("product", 0.7), 0.001)
    op = table
    tied = np.array([0.0, 0.25, 0.25, 0.5, 1.0])
    cdfs = [op.events(op.index(s))[2] for s in enumerate_states(9)] + [tied]
    for cdf in cdfs:
        for u in draws[:20] + tied.tolist():
            assert bisect.bisect_left(cdf, u) == int(np.searchsorted(cdf, u))


class _OneEvent:
    # waits 0 and then forever, so a trajectory takes exactly one event,
    # and every uniform draw is ``u``
    def __init__(self, u):
        self.u, self.waits = u, iter([0.0, math.inf])

    def exponential(self, scale):
        return next(self.waits)

    def random(self):
        return self.u


def test_ssa_event_on_a_tied_draw_takes_the_searchsorted_target():
    table = build_transition_table(7, KernelSpec("sum", 0.5), 0.01)
    op = table
    for state in enumerate_states(7):
        _, targets, cdf = op.events(op.index(state))
        for u in [0.0, *cdf.tolist()]:
            got = master.ssa_trajectory(table, 1.0, _OneEvent(u), state)
            if len(targets):
                assert got == op.states[targets[int(np.searchsorted(cdf, u))]]
            else:
                assert got == state


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: SsaConfig(n_runs=0, seed=1, t_end=1.0), "need n_runs >= 1, got 0",
                     id="no-runs"),
        pytest.param(lambda: SsaConfig(n_runs=5, seed=1, t_end=-0.5), "need t_end >= 0, got -0.5",
                     id="negative-t-end"),
        pytest.param(lambda: expected_counts(ProbabilityTable.point_mass(
            MassDistribution.monodisperse(3)), [0]), "bin 0 outside [1, 3]", id="bin-zero"),
        pytest.param(lambda: SsaConfig(n_runs=2.5, seed=1, t_end=1.0),
                     "n_runs must be an int, got 2.5", id="float-runs"),
        pytest.param(lambda: expected_counts(ProbabilityTable.point_mass(
            MassDistribution.monodisperse(3)), [1.0]), "bin must be an int, got 1.0",
            id="bin-float"),
        pytest.param(lambda: SsaConfig(n_runs=3, seed=2.5, t_end=1.0),
                     "seed must be an int, got 2.5", id="float-seed"),
        pytest.param(lambda: SsaConfig(n_runs=3, seed=True, t_end=1.0),
                     "seed must be an int, got True", id="bool-seed"),
        pytest.param(lambda: SsaConfig(n_runs=3, seed=-1, t_end=1.0),
                     "need seed >= 0, got -1", id="negative-seed"),
        pytest.param(lambda: evolve(*_mono_table(4)[::-1], 0.0),
                     "steps must be an int, got 0.0", id="float-zero-steps"),
        pytest.param(lambda: evolve(*_mono_table(4)[::-1], False),
                     "steps must be an int, got False", id="false-steps"),
        # program is the one steps check, for every run that steps on it
        pytest.param(lambda: evolve(*_mono_table(4)[::-1], -1),
                     "need steps >= 0, got -1", id="negative-steps"),
        pytest.param(lambda: evolve_series(*_mono_table(4)[::-1], 0.0),
                     "steps must be an int, got 0.0", id="series-float-zero-steps"),
        pytest.param(lambda: evolve_series(*_mono_table(4)[::-1], False),
                     "steps must be an int, got False", id="series-false-steps"),
        pytest.param(lambda: evolve_series(*_mono_table(4)[::-1], -1),
                     "need steps >= 0, got -1", id="series-negative-steps"),
        pytest.param(lambda: run_merged(_mono_table(4)[0], 0.0),
                     "steps must be an int, got 0.0", id="merged-float-zero-steps"),
        pytest.param(lambda: run_merged(_mono_table(4)[0], False),
                     "steps must be an int, got False", id="merged-false-steps"),
        pytest.param(lambda: run_merged(_mono_table(4)[0], -1),
                     "need steps >= 0, got -1", id="merged-negative-steps"),
    ],
)
def test_master_refusals_keep_their_messages(make, message):
    with pytest.raises(StateSpaceError) as err:
        make()
    assert type(err.value) is StateSpaceError and str(err.value) == message


def test_listed_table_equals_the_hand_built_one():
    table, p0 = _mono_table(5, dt=0.01)
    run = evolve(p0, table, 3)
    hand = ProbabilityTable(dict(run.entries), step=3)
    assert run == hand and hand == run
    assert run != ProbabilityTable(dict(run.entries), step=2)
    assert run.__eq__(dict(run.entries)) is NotImplemented
    assert run.__eq__("table") is NotImplemented


def test_hand_built_table_entries_are_its_dict():
    keys = [MassDistribution((4, 0, 0, 0)), MassDistribution((0, 0, 0, 1)),
            MassDistribution((2, 1, 0, 0))]
    given = dict(zip(keys, [Fraction(1, 3), np.float64(-0.0), 7]))
    p = ProbabilityTable(given, step=4)
    assert list(p.entries) == keys
    assert all(p.entries[k] is given[k] for k in keys)
    total = sum(given.values())
    assert p.states() == sorted(keys, key=lambda s: s.counts) and p.total() == total
    given[keys[0]] = 1  # the table is a snapshot, and its entries cannot drift from its arrays
    with pytest.raises(TypeError):
        p.entries[keys[0]] = 1
    assert p.entries[keys[0]] == Fraction(1, 3) and p.total() == total


# Closed-form references (Marcus-Lushnikov process).  For the constant and
# the sum kernel the total rate depends on the droplet count n alone, so n
# is a pure-death chain, and given n the masses follow a known law: a
# uniform composition of N into n parts (Kingman's coalescent) for the
# constant kernel, and Pitman's random forest law for the sum kernel.
def _compositions(m, k):
    """Compositions of ``m`` into ``k`` positive parts."""
    if k == 0:
        return int(m == 0)
    return math.comb(m - 1, k - 1) if m >= k else 0


def _forests(m, k):
    """Rooted forests on ``m`` labelled vertices with ``k`` trees."""
    return _compositions(m, k) * m ** (m - k) if m >= k else 0


def _constant_conditional(n_bins, n, b):
    return Fraction(n * _compositions(n_bins - b, n - 1), _compositions(n_bins, n))


def _sum_conditional(n_bins, n, b):
    forests = math.comb(n_bins, b) * b ** (b - 1) * _forests(n_bins - b, n - 1)
    return Fraction(forests, _forests(n_bins, n))


_CLOSED_FORMS = {
    "constant": (lambda n_bins, n: Fraction(n * (n - 1), 2), _constant_conditional),
    "sum": (lambda n_bins, n: (n - 1) * n_bins, _sum_conditional),
}


def _closed_form_expected(kind, n_bins, k0, dt, steps):
    """``E[n_b]`` after ``steps`` updates from the monodisperse state, bin
    by bin: the count chain's law times ``E[n_b | n]``, in the number
    type of ``k0 * dt``."""
    rate, conditional = _CLOSED_FORMS[kind]
    zero = 0 * k0 * dt
    step = [zero] + [k0 * dt * rate(n_bins, n) for n in range(1, n_bins + 1)]
    law = [zero] * n_bins + [zero + 1]  # law[n]: probability of n droplets
    for _ in range(steps):
        law = [law[n] * (1 - step[n]) + (law[n + 1] * step[n + 1] if n < n_bins else zero)
               for n in range(n_bins + 1)]
    number = type(zero)
    return [sum(law[n] * number(conditional(n_bins, n, b)) for n in range(1, n_bins + 1))
            for b in range(1, n_bins + 1)]


def _fraction_expected(p, n_bins):
    return [sum(state.counts[b] * prob for state, prob in p.entries.items())
            for b in range(n_bins)]


@pytest.mark.parametrize("n_bins", [8, 10, 12])
@pytest.mark.parametrize("kind", ["constant", "sum"])
def test_rational_runs_equal_the_closed_forms(kind, n_bins):
    # each run starts at total rate 1/2 and can reach a single droplet
    dt = Fraction(1, n_bins * (n_bins - 1) * (1 if kind == "constant" else 2))
    steps = 12
    table = build_transition_table(n_bins, KernelSpec(kind, Fraction(1)), dt)
    start = ProbabilityTable({MassDistribution.monodisperse(n_bins): Fraction(1)})
    expected = _closed_form_expected(kind, n_bins, Fraction(1), dt, steps)
    assert all(type(e) is Fraction for e in expected)
    assert _fraction_expected(evolve(start, table, steps), n_bins) == expected
    assert _fraction_expected(run_merged(table, steps), n_bins) == expected


@pytest.mark.parametrize("n_bins", [20, 30])
def test_float_solver_matches_the_constant_closed_form(n_bins):
    dt = 0.9 / (n_bins * (n_bins - 1) / 2)
    table, p0 = _mono_table(n_bins, dt=dt)
    expected = _closed_form_expected("constant", n_bins, 1.0, dt, 300)
    solved = expected_counts(evolve(p0, table, 300))
    assert max(abs(s - e) for s, e in zip(solved, expected)) <= 1e-12


def _typed_tables(tables):
    return repr([(t.step, [(s.counts, type(v).__name__, repr(v)) for s, v in t.entries.items()])
                 for t in tables])


def _sum_series(k0, dt, start):
    return evolve_series(ProbabilityTable(start), build_transition_table(
        6, KernelSpec("sum", k0), dt), 4)[1:]


# A run steps in its table's number type, whatever its start holds:
# point_mass's 1.0 on a Fraction table runs as Fraction(1) does, and int
# starts on a float table run as floats do.  A float kernel with a
# Fraction dt makes a float table: sha256 of its runs' typed entries,
# recorded when such a table still stepped on Python numbers.
_MIXED_STARTS = {
    "point-mass-on-fraction": lambda mono: [
        _sum_series(Fraction(1), Fraction(1, 40), start)
        for start in (ProbabilityTable.point_mass(mono).entries, {mono: Fraction(1)})],
    "int-start-on-float": lambda mono: [
        _sum_series(1.0, 1 / 40, {mono: one, _absorbed(6): 0 * one})
        for one in (1, 1.0)],
}
_MIXED_RUNS = {
    "float-kernel-fraction-dt": (
        lambda mono: [run_merged(build_transition_table(6, KernelSpec("product", 0.5),
                                                        Fraction(1, 40)), 4),
                      merge_branches(run_tree(build_transition_table(
                          6, KernelSpec("product", 0.5), Fraction(1, 40)), 3), 3)],
        "9ec476ff3369b5b032cf78d877b57a962027d431d3103df9b878ae73f151189d"),
}


@pytest.mark.parametrize("case", sorted(_MIXED_RUNS) + sorted(_MIXED_STARTS))
def test_mixed_object_runs_keep_their_entries(case):
    mono = MassDistribution.monodisperse(6)
    if case in _MIXED_RUNS:
        run, digest = _MIXED_RUNS[case]
        text = _typed_tables(run(mono))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert "'float'" in text and "'Fraction'" not in text
        return
    got, want = _MIXED_STARTS[case](mono)
    assert _typed_tables(got) == _typed_tables(want)
    number = Fraction if case == "point-mass-on-fraction" else float
    assert {type(v) for p in got for v in p.entries.values()} == {number}


# Inputs that are not all ints and Fractions make a float table, which
# runs on float64: sha256 of the typed entries of the solver from
# point_mass, merged division and the merged tree over three kernels and
# N = 4, 6, 9 and 12, recorded when such tables still stepped on Python
# numbers.  A Fraction dt with a float kernel gives the float dt's bits.
_FLOAT_TABLE_DIGESTS = {
    ("int", "float"): "5ad22b954f2b411cc4f31951742a6faedd0dd057d5dbf08e3fe4f83f3010a10f",
    ("fraction", "float"): "6a4cccc02a589211fc198b10a90c8a87292240c9e8bbeedab891bf55f90b44c6",
    ("float", "fraction"): "86a556384029d43dff223686ba7d01efe54811e76f2a58005ca2bdcc476af7be",
    ("float", "float"): "86a556384029d43dff223686ba7d01efe54811e76f2a58005ca2bdcc476af7be",
}


@pytest.mark.parametrize("k0_type, dt_type", sorted(_FLOAT_TABLE_DIGESTS),
                         ids=[f"{k}-k0-{d}-dt" for k, d in sorted(_FLOAT_TABLE_DIGESTS)])
def test_float_tables_keep_their_bits(k0_type, dt_type):
    k0 = {"int": 3, "fraction": Fraction(7, 3), "float": 0.7}[k0_type]
    text = []
    for kind in ("constant", "sum", "product"):
        for n in (4, 6, 9, 12):
            unit = build_transition_table(n, KernelSpec(kind, Fraction(1)), Fraction(1))
            worst = max(total_transition_rate(unit, s) for s in enumerate_states(n))
            dt = Fraction(9, 10) / (Fraction(k0) * worst)
            table = build_transition_table(n, KernelSpec(kind, k0), dt if dt_type == "fraction"
                                           else float(dt))
            assert table.is_float
            series = evolve_series(ProbabilityTable.point_mass(MassDistribution.monodisperse(n)),
                                   table, 4)
            text.append(_typed_tables(
                series + [run_merged(table, 4), merge_branches(run_tree(table, 3), 3)]))
    text = "".join(text)
    assert "'Fraction'" not in text and "'int'" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == _FLOAT_TABLE_DIGESTS[k0_type, dt_type]


def test_int_kernel_constant_runs_exactly():
    # K(1,1) n (n - 1) / 2 on an int kernel halves with //: every number of
    # the rule is an int over the table's scale, and every value of a run on
    # an int k0 and a Fraction dt is exact
    table = build_transition_table(4, KernelSpec(k0=1), Fraction(1, 100))
    assert not table.is_float
    pair = MassDistribution((2, 1, 0, 0))
    rule = [(h, p, r) for h, _, _, p, r in scalar_rule.terms(table, pair.counts)]
    assert {type(x) for _, p, r in rule for x in (p, r)} == {int}
    assert [(h, Fraction(p, table.scale), Fraction(r, table.scale)) for h, p, r in rule] == [
        (1, 1, Fraction(1, 100)), (2, 2, Fraction(1, 50))]
    mono = MassDistribution.monodisperse(4)
    starts = [{mono: Fraction(1)}, {mono: 1}, ProbabilityTable.point_mass(mono).entries]
    runs = [evolve(ProbabilityTable(start), table, 5) for start in starts]
    assert {type(v) for p in runs for v in p.entries.values()} == {Fraction}
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].entries[mono] == Fraction(94, 100) ** 5


@pytest.mark.parametrize("n_bins", [16, 20])
def test_rational_runs_equal_the_sum_closed_form_past_12(n_bins):
    # dt = 1/(N(N-1)) gives n droplets the total rate (n-1)/(N-1): exactly 1
    # at the start, which the first step empties; M = N steps
    dt = Fraction(1, n_bins * (n_bins - 1))
    table = build_transition_table(n_bins, KernelSpec("sum", Fraction(1)), dt)
    mono = MassDistribution.monodisperse(n_bins)
    solved = evolve(ProbabilityTable({mono: Fraction(1)}), table, n_bins)
    merged = run_merged(table, n_bins)
    assert {type(v) for p in (solved, merged) for v in p.entries.values()} == {Fraction}
    # the solver lists its emptied start; the division map drops its hold of 0
    assert solved.entries[mono] == 0 and mono not in merged.entries
    assert {s: v for s, v in solved.entries.items() if s != mono} == dict(merged.entries)
    expected = _closed_form_expected("sum", n_bins, Fraction(1), dt, n_bins)
    assert _fraction_expected(solved, n_bins) == expected


@pytest.mark.parametrize("n_bins", [16, 20])
def test_rational_runs_equal_the_constant_closed_form_past_12(n_bins):
    # an int k0 = 1 with a Fraction dt: the start's total rate is 1/2
    dt = Fraction(1, n_bins * (n_bins - 1))
    table = build_transition_table(n_bins, KernelSpec("constant", 1), dt)
    solved = evolve(ProbabilityTable({MassDistribution.monodisperse(n_bins): 1}), table, n_bins)
    merged = run_merged(table, n_bins)
    assert {type(v) for p in (solved, merged) for v in p.entries.values()} == {Fraction}
    assert {s: v for s, v in solved.entries.items() if v} == dict(merged.entries)
    expected = _closed_form_expected("constant", n_bins, 1, dt, n_bins)
    assert _fraction_expected(solved, n_bins) == _fraction_expected(merged, n_bins) == expected
