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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .master import ProbabilityTable
from .states import (
    MassDistribution,
    StateSpaceError,
    TransitionTable,
    apply_transition,
    qubits_for_bin,
    require_count,
)


class BranchCapError(StateSpaceError):
    """Tree mode would exceed the branch cap; use merged mode instead."""


_BRANCH_CAP = 500_000


@dataclass(frozen=True)
class HistoryBranch:
    """A single transition history with its state and probability."""

    history: tuple[int, ...]
    state: MassDistribution
    prob: float


def _check_cap(branches: int, table: TransitionTable, step: int, branch_cap: int) -> None:
    if branches * (table.num_labels + 1) > branch_cap:
        raise BranchCapError(
            f"tree would exceed {branch_cap} branches at step {step}; use merged mode"
        )


def divide_step(
    branches: Sequence[HistoryBranch], table: TransitionTable, step: int
) -> list[HistoryBranch]:
    """Split every branch across labels ``H..1`` plus the hold child.

    ``step`` is the 1-based time step; incoming histories must have
    length ``step - 1``.  Children with exactly zero probability are not
    emitted.  Each branch's state must pass the step-size check.
    """
    out: list[HistoryBranch] = []
    for branch in branches:
        if len(branch.history) != step - 1:
            raise StateSpaceError(
                f"branch history length {len(branch.history)} != step-1 = {step - 1}"
            )
        out.extend([
            HistoryBranch(branch.history + (label,), table.states[target], branch.prob * weight)
            for label, target, weight in table.children(table.index(branch.state))
        ])
    return out


def merge_branches(branches: Sequence[HistoryBranch], step: int) -> ProbabilityTable:
    """Aggregate branch probabilities by state in deterministic order."""
    merged: dict[MassDistribution, float] = {}
    for branch in sorted(branches, key=lambda b: (b.state.counts, b.history)):
        total = merged.get(branch.state)
        merged[branch.state] = (0 * branch.prob if total is None else total) + branch.prob
    return ProbabilityTable(merged, step=step)


def run_tree(
    table: TransitionTable,
    steps: int,
    initial: MassDistribution | None = None,
    branch_cap: int = _BRANCH_CAP,
) -> list[HistoryBranch]:
    """Full history tree after ``steps`` divisions."""
    require_count("steps", steps, 0, StateSpaceError)
    state = initial or MassDistribution.monodisperse(table.num_bins)
    branches = [HistoryBranch(history=(), state=state, prob=table.one)]
    for step in range(1, steps + 1):
        _check_cap(len(branches), table, step, branch_cap)
        branches = divide_step(branches, table, step)
    return branches


def run_merged(table: TransitionTable, steps: int) -> ProbabilityTable:
    """State distribution after ``steps`` divisions from the monodisperse
    state, histories summed out.

    Valid because histories are orthogonal labels on non-negative
    probabilities: merging after each step commutes with the division.
    Each step is one :meth:`~cloudq.states.StepProgram.step`: every state
    sums its hold child first, then its inflows in ascending label order,
    the order :func:`merge_branches` sorts children into, so the sums
    agree bit for bit with dividing and merging branch by branch.  The
    support, which the table lists, is the rows of the terms from the last
    one; once a step repeats it, it is final.
    """
    start = table.index(MassDistribution.monodisperse(table.num_bins))
    prog = table.program([start], steps, sequential=True)
    size = len(table.states)
    prob = prog.vector(size, [start], [table.one])
    present = np.zeros(size, dtype=bool)
    present[start] = True
    final = False
    for _ in range(steps):
        nxt = np.zeros(size, dtype=prob.dtype)
        prog.step(prob, nxt)
        prob = nxt
        if not final:
            reached = np.zeros(size, dtype=bool)
            reached[prog.row[present[prog.col]]] = True
            final, present = np.array_equal(reached, present), reached
    kept = sorted(np.flatnonzero(present).tolist(), key=lambda k: table.states[k].counts)
    return ProbabilityTable.listed([table.states[k] for k in kept], prob[kept], steps)


def amplitude_expectation(distribution: ProbabilityTable, bin_index: int):
    """Expected count read out through the amplitude-encoding identity.

    Mirrors the readout gate: the marked-state probability is
    ``sum_states (n_i / d) P(state)`` with ``d = 2**q_i``, and the
    expectation is ``d`` times that.  Algebraically equal to an ordinary
    expectation; kept separate to exercise the readout path.
    """
    entries = distribution.entries
    if not entries:
        raise StateSpaceError("empty distribution")
    n_bins = next(iter(entries)).num_bins
    require_count("bin", bin_index, -math.inf, StateSpaceError)
    if not 1 <= bin_index <= n_bins:
        raise StateSpaceError(f"bin {bin_index} outside [1, {n_bins}]")
    d = 2 ** qubits_for_bin(n_bins, bin_index)
    total = 0.0
    for state, prob in entries.items():
        total += (state.counts[bin_index - 1] / d) * prob
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
    Each history is also replayed with :func:`~cloudq.states.apply_transition`,
    and every final replay must equal the history's state.  The table's
    rows are walked level by level, one entry per (state, replay) counting
    the histories that reach it: they share their future, so each entry is
    replayed once and counted with that multiplicity.
    """
    require_count("steps", steps, 0, StateSpaceError)
    start = initial or MassDistribution.monodisperse(table.num_bins)
    registers = [_history_register(table.num_labels, h) for h in range(table.num_labels + 1)]
    level = {(start, start): 1}  # (state, replay) -> histories, in run_tree's order
    checked = mismatches = 0
    for step in range(1, steps + 1):
        _check_cap(sum(level.values()), table, step, _BRANCH_CAP)
        nxt = {}
        for (state, replay), count in level.items():
            for label, target, _ in table.children(table.index(state)):
                after = apply_transition(table, replay, label) if label else replay
                key = (table.states[target], after)
                nxt[key] = nxt.get(key, 0) + count
                checked += count
                mismatches += count * (registers[label] != label)
        level = nxt
    mismatches += sum(count for (state, replay), count in level.items() if replay != state)
    return LabelSemanticsReport(
        steps=steps, branches_checked=checked, ok=mismatches == 0, mismatches=mismatches
    )
