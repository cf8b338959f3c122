"""Probability-level simulation of the quantum division dynamics.

Each time step splits every branch across the collision labels in
descending order ``H..1``: label ``h`` claims the modified fraction
``r'_h = r_h / s_{h+1}`` of the probability still unclaimed, where
``s_h = 1 - sum_{k>=h} r_k``, and the leftover ``s_1 = r_0`` stays put.
All amplitudes of the underlying circuit are non-negative square roots
of these probabilities and distinct histories never interfere, so
squared-amplitude bookkeeping is an exact functional model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .master import ProbabilityTable, _require_bin
from .states import (
    MassDistribution,
    ResourceLimitError,
    StateSpaceError,
    TransitionTable,
    apply_pair,
    common_numerators,
    qubits_for_bin,
    require_count,
)


class BranchCapError(ResourceLimitError):
    """Tree mode would exceed the branch cap; use merged mode instead."""


_BRANCH_CAP = 500_000


class HistoryBranch(NamedTuple):
    """A single transition history with its state and probability."""

    history: tuple[int, ...]
    state: MassDistribution
    prob: float


def _check_cap(branches: int, table: TransitionTable, step: int) -> None:
    if branches * (table.num_labels + 1) > _BRANCH_CAP:
        raise BranchCapError(
            f"tree would exceed {_BRANCH_CAP} branches at step {step}; use merged mode"
        )


def merge_branches(branches: Sequence[HistoryBranch], step: int) -> ProbabilityTable:
    """Aggregate branch probabilities by state, in ascending counts order.

    Float branches are summed in (counts, history) order.  When every
    probability is an ``int`` or a ``Fraction``, each state's branches are
    summed as integer numerators over one common denominator, and each
    total is one ``Fraction``: rational sums are exact in any order.
    """
    probs = [b.prob for b in branches]
    if not set(map(type, probs)) <= {int, Fraction}:
        merged: dict[MassDistribution, float] = {}
        for branch in sorted(branches, key=lambda b: (b.state.counts, b.history)):
            total = merged.get(branch.state)
            merged[branch.state] = (0 * branch.prob if total is None else total) + branch.prob
        return ProbabilityTable(merged, step=step)
    nums, common = common_numerators(probs)
    sums = {}
    for branch, num in zip(branches, nums):
        sums[branch.state] = sums.get(branch.state, 0) + num
    return ProbabilityTable({
        state: Fraction(sums[state], common) for state in sorted(sums, key=lambda s: s.counts)
    }, step=step)


def run_tree(
    table: TransitionTable, steps: int, initial: MassDistribution | None = None
) -> list[HistoryBranch]:
    """Full history tree after ``steps`` divisions: each step splits every
    branch into its state's :meth:`~cloudq.states.TransitionTable.children`,
    each child's probability the branch's times its weight.  A step that
    would pass ``_BRANCH_CAP`` branches raises :class:`BranchCapError`.

    A float table multiplies each branch's probability out from ``1.0``.
    An exact table multiplies out the weights' integer numerators from
    ``1``, over ``scale ** steps``, and builds one ``Fraction`` per distinct
    product, at the end: the values of multiplying out from ``Fraction(1)``.
    """
    require_count("steps", steps, 0, StateSpaceError)
    start = initial or MassDistribution.monodisperse(table.num_bins)
    histories, at, probs = [()], [table.index(start)], [1.0 if table.is_float else 1]
    for step in range(1, steps + 1):
        _check_cap(len(histories), table, step)
        kids = list(map(table.children, at))  # a failing state raises, in branch order
        histories, at, probs = (
            [history + (label,) for history, row in zip(histories, kids) for label, _, _ in row],
            [target for row in kids for _, target, _ in row],
            [p * weight for p, row in zip(probs, kids) for _, _, weight in row])
    at = list(map(table.states.__getitem__, at))
    if not table.is_float:
        scale = table.scale ** steps
        shared = {p: Fraction(p, scale) for p in set(probs)}
        probs = list(map(shared.__getitem__, probs))
    new = tuple.__new__  # HistoryBranch's own __new__ is a Python call per branch
    return [new(HistoryBranch, branch) for branch in zip(histories, at, probs)]


def run_merged(table: TransitionTable, steps: int) -> ProbabilityTable:
    """State distribution after ``steps`` divisions from the monodisperse
    state, histories summed out.

    Valid because histories are orthogonal labels on non-negative
    probabilities: merging after each step commutes with the division.
    Each step is one :meth:`~cloudq.states.StepProgram.run` step: every
    state sums its hold child first, then its inflows in ascending label
    order, the order :func:`merge_branches` sorts float children into, so
    the sums agree bit for bit with dividing and merging branch by branch;
    a rational run sums them on integer numerators, exactly.  The
    support, which the table lists, is the rows of the terms from the last
    one; once a step repeats it, it is final.
    """
    start = table.index(MassDistribution.monodisperse(table.num_bins))
    prog = table.program([start], steps, sequential=True)
    size = len(prog.ranks)
    prob = prog.vector(size, [0], [table.one])  # the source is the program's first state
    read = prob.__getitem__
    present = np.zeros(size, dtype=bool)
    present[0] = True
    final = False
    for read in prog.run(prob, steps):
        if not final:
            reached = np.zeros(size, dtype=bool)
            reached[prog.row[present[prog.col]]] = True
            final, present = np.array_equal(reached, present), reached
    kept = np.flatnonzero(present)
    kept = kept[np.argsort(prog.ranks[kept])]  # ascending counts
    rows = np.take(prog.counts, kept, axis=0)
    return ProbabilityTable.listed(table.states.listing(prog.ranks[kept], rows),
                                   read(kept), steps, rows)


def amplitude_expectation(distribution: ProbabilityTable, bin_index: int):
    """Expected count read out through the amplitude-encoding identity.

    Mirrors the readout gate: the marked-state probability is
    ``sum_states (n_i / d) P(state)`` with ``d = 2**q_i``, and the
    expectation is ``d`` times that.  Algebraically equal to an ordinary
    expectation; kept separate to exercise the readout path.
    """
    rows, terms = distribution._read()
    values = distribution.values
    if not len(values):
        raise StateSpaceError("empty distribution")
    _require_bin(bin_index, rows.shape[1])
    d = 2 ** qubits_for_bin(rows.shape[1], bin_index)
    total = 0.0
    for count, prob in zip(rows[:len(values), bin_index - 1].tolist(), terms or values.tolist()):
        if type(prob) is tuple:  # as float * Fraction takes it: float(prob), num / den
            prob = prob[0] / prob[1]
        total += (count / d) * prob
    return d * total


@dataclass(frozen=True)
class LabelSemanticsReport:
    """Outcome of replaying the history-register bookkeeping."""

    steps: int
    branches_checked: int
    ok: bool
    mismatches: int


def _history_register(n_labels: int, fired: int) -> int:
    """Register after one step's divisions ``h = H..1``: the one that fires
    (``fired``, 0 for none) sets it to 1, and every division but the last
    then increments a register >= 1."""
    register = 0
    for division in range(n_labels, 0, -1):
        if division == fired:
            register = 1
        if division > 1 and register >= 1:
            register += 1
    return register


@cache
def _history_registers(n_labels: int) -> tuple[int, ...]:
    """:func:`_history_register` of each label ``0..H``."""
    return tuple(_history_register(n_labels, fired) for fired in range(n_labels + 1))


def history_label_semantics_check(
    table: TransitionTable,
    steps: int,
    initial: MassDistribution | None = None,
) -> LabelSemanticsReport:
    """Check the history-register encoding on every history :func:`run_tree`
    would emit, with its checks and branch cap.

    For every child of steps ``1..steps``, the register protocol must end
    at the child's label (0 for the hold child); it follows the step
    schedule ``resources.estimate_case`` charges, one ``U_add`` after every
    division but the last.  ``branches_checked`` counts those children.
    Each history is also replayed with :func:`~cloudq.states.apply_pair`
    on each label's pair, and every final replay must equal the history's
    state.  The table's rows are walked level by level, one entry per
    (state, replay) counting the histories that reach it: they share their
    future, so each entry is replayed once and counted with that
    multiplicity, and each (replay, label) is applied once.
    """
    require_count("steps", steps, 0, StateSpaceError)
    start = initial or MassDistribution.monodisperse(table.num_bins)
    registers, replays = _history_registers(table.num_labels), {}
    # (state rank, replay) -> histories, in run_tree's order
    level = {(table.index(start), start): 1}
    checked = mismatches = 0
    for step in range(1, steps + 1):
        _check_cap(sum(level.values()), table, step)
        nxt = {}
        for (k, replay), count in level.items():
            for label, target, _ in table.children(k):
                after = replays.get((replay, label)) if label else replay
                if after is None:
                    after = replays[replay, label] = apply_pair(replay, *table.pair_of(label))
                nxt[target, after] = nxt.get((target, after), 0) + count
                checked += count
                mismatches += count * (registers[label] != label)
        level = nxt
    mismatches += sum(count for (k, replay), count in level.items() if replay != table.states[k])
    return LabelSemanticsReport(
        steps=steps, branches_checked=checked, ok=mismatches == 0, mismatches=mismatches
    )
