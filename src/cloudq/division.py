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
from typing import Sequence

from .master import ProbabilityTable, step_rates
from .states import (
    MassDistribution,
    StateSpaceError,
    TransitionTable,
    apply_transition,
    qubits_for_bin,
)

SEQUENTIAL_TOL = 1e-12


class BranchCapError(StateSpaceError):
    """Tree mode would exceed the branch cap; use merged mode instead."""


@dataclass(frozen=True)
class HistoryBranch:
    """A single transition history with its state and probability."""

    history: tuple[int, ...]
    state: MassDistribution
    prob: float


def _split_weights(table: TransitionTable, state: MassDistribution):
    """Per-label split of one unit of probability for ``state``.

    Returns ``(weights, hold)`` where ``weights[h-1]`` is the sequential
    product that label ``h`` receives and ``hold`` is the no-transition
    remainder ``s_1``.  The sequential chain divides by the remaining
    fraction and multiplies back, so each weight must reproduce the
    direct rate ``r_h`` up to 1e-12; a mismatch raises.  Rates come from
    :func:`master.step_rates`, which raises ``StepSizeError`` first.
    """
    n_labels = table.num_labels
    rates, total = step_rates(table, state)
    weights = [0 * total] * n_labels
    remaining = 1 + 0 * total  # keeps Fraction inputs exact
    for label in range(n_labels, 0, -1):
        s_next = remaining
        if s_next <= 0:
            break
        modified = rates[label - 1] / s_next
        if modified > 1:
            modified = 1 + 0 * total
        weights[label - 1] = modified * s_next
        remaining = (1 - modified) * s_next
    for label in range(1, n_labels + 1):
        if abs(weights[label - 1] - rates[label - 1]) > SEQUENTIAL_TOL:
            raise StateSpaceError(
                f"sequential division drifted from direct rate at label {label}"
            )
    return weights, remaining


def divide_step(
    branches: Sequence[HistoryBranch], table: TransitionTable, step: int
) -> list[HistoryBranch]:
    """Split every branch across labels ``H..1`` plus the hold child.

    ``step`` is the 1-based time step; incoming histories must have
    length ``step - 1``.  Children with exactly zero probability are not
    emitted.
    """
    out: list[HistoryBranch] = []
    for branch in branches:
        if len(branch.history) != step - 1:
            raise StateSpaceError(
                f"branch history length {len(branch.history)} != step-1 = {step - 1}"
            )
        weights, hold = _split_weights(table, branch.state)
        for label, weight in enumerate(weights, start=1):
            if weight == 0:
                continue
            out.append(
                HistoryBranch(
                    history=branch.history + (label,),
                    state=apply_transition(table, branch.state, label),
                    prob=branch.prob * weight,
                )
            )
        if hold > 0:
            out.append(
                HistoryBranch(
                    history=branch.history + (0,),
                    state=branch.state,
                    prob=branch.prob * hold,
                )
            )
    return out


def merge_branches(branches: Sequence[HistoryBranch], step: int) -> ProbabilityTable:
    """Aggregate branch probabilities by state in deterministic order."""
    merged: dict[MassDistribution, float] = {}
    for branch in sorted(branches, key=lambda b: (b.state.counts, b.history)):
        merged[branch.state] = merged.get(branch.state, 0 * branch.prob) + branch.prob
    return ProbabilityTable(merged, step=step)


def run_tree(
    table: TransitionTable,
    steps: int,
    initial: MassDistribution | None = None,
    branch_cap: int = 500_000,
) -> list[HistoryBranch]:
    """Full history tree after ``steps`` divisions."""
    state = initial or MassDistribution.monodisperse(table.num_bins)
    # a Fraction seed keeps exact-rational tables exact; float tables are
    # unaffected since Fraction * float is a float
    branches = [HistoryBranch(history=(), state=state, prob=Fraction(1))]
    for step in range(1, steps + 1):
        if len(branches) * (table.num_labels + 1) > branch_cap:
            raise BranchCapError(
                f"tree would exceed {branch_cap} branches at step {step}; "
                "use merged mode"
            )
        branches = divide_step(branches, table, step)
    return branches


def run_merged(
    table: TransitionTable,
    steps: int,
    initial: MassDistribution | None = None,
) -> ProbabilityTable:
    """State distribution after ``steps`` divisions, histories summed out.

    Valid because histories are orthogonal labels on non-negative
    probabilities: merging after each step commutes with the division.
    """
    state = initial or MassDistribution.monodisperse(table.num_bins)
    current = ProbabilityTable({state: Fraction(1)}, step=0)
    for step in range(1, steps + 1):
        pieces = [
            HistoryBranch(history=(), state=s, prob=p)
            for s, p in sorted(current.entries.items(), key=lambda kv: kv[0].counts)
        ]
        children = divide_step(pieces, table, 1)
        current = merge_branches(children, step)
    return current


def amplitude_expectation(source, bin_index: int):
    """Expected count read out through the amplitude-encoding identity.

    Mirrors the readout gate: the marked-state probability is
    ``sum_states (n_i / d) P(state)`` with ``d = 2**q_i``, and the
    expectation is ``d`` times that.  Algebraically equal to an ordinary
    expectation; kept separate to exercise the readout path.
    """
    if isinstance(source, ProbabilityTable):
        entries = source.entries.items()
    else:
        entries = ((b.state, b.prob) for b in source)
    first = True
    total = 0.0
    for state, prob in entries:
        if first:
            d = 2 ** qubits_for_bin(state.num_bins, bin_index)
            first = False
        total += (state.counts[bin_index - 1] / d) * prob
    if first:
        raise StateSpaceError("empty distribution")
    return d * total


@dataclass(frozen=True)
class LabelSemanticsReport:
    """Outcome of replaying the history-register bookkeeping."""

    steps: int
    branches_checked: int
    ok: bool
    mismatches: int


def history_label_semantics_check(
    table: TransitionTable,
    steps: int,
    initial: MassDistribution | None = None,
    branch_cap: int = 500_000,
) -> LabelSemanticsReport:
    """Replay the per-step register protocol and check recorded labels.

    Within a step the divisions run ``h = H..1``; a branch that fires at
    division ``h`` sets its register to 1, every register >= 1 is then
    incremented once per remaining division (there is no increment after
    the last one), so the final register must equal ``h``.  Also replays
    each branch's history from the initial state to confirm state
    consistency.
    """
    start = initial or MassDistribution.monodisperse(table.num_bins)
    branches = [(start, Fraction(1), ())]  # (state, prob, history)
    mismatches = 0
    checked = 0
    for _ in range(steps):
        next_branches = []
        for state, prob, history in branches:
            if len(next_branches) > branch_cap:
                raise BranchCapError("register replay exceeded the branch cap")
            weights, hold = _split_weights(table, state)
            n_labels = table.num_labels
            # pieces: (register, fired_label, weight); register None = |0>
            pieces = [(0, None, Fraction(1))]
            for division in range(n_labels, 0, -1):
                updated = []
                for register, fired, weight in pieces:
                    if register == 0 and weights[division - 1] != 0:
                        share = weights[division - 1]
                        updated.append((1, division, weight * share))
                        rest = weight - share
                        if rest > 0:
                            updated.append((0, None, rest))
                    else:
                        updated.append((register, fired, weight))
                if division > 1:  # no increment after the final division
                    updated = [
                        (reg + 1 if reg >= 1 else reg, fired, weight)
                        for reg, fired, weight in updated
                    ]
                pieces = updated
            for register, fired, weight in pieces:
                checked += 1
                if fired is None:
                    if register != 0:
                        mismatches += 1
                    next_branches.append((state, prob * weight, history + (0,)))
                else:
                    if register != fired:
                        mismatches += 1
                    next_branches.append(
                        (
                            apply_transition(table, state, fired),
                            prob * weight,
                            history + (fired,),
                        )
                    )
        branches = next_branches
    # replay consistency: state equals initial state plus its history
    for state, _, history in branches:
        replay = start
        for label in history:
            if label:
                replay = apply_transition(table, replay, label)
        if replay != state:
            mismatches += 1
    return LabelSemanticsReport(
        steps=steps, branches_checked=checked, ok=mismatches == 0, mismatches=mismatches
    )
