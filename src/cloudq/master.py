"""Exact classical reference solver for the population master equation.

Evolves the full probability table over occupation vectors with the
explicit first-order update: each state loses ``r_h * P`` to the
post-collision state of every feasible transition ``h``.  Written as
probability flows, conservation holds to rounding error by construction.
A Gillespie sampler provides an independent continuous-time cross-check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .states import (
    MassDistribution,
    StateSpaceError,
    TransitionTable,
    apply_pair,
    propensities,
)

PROB_TOL = 1e-12


class StepSizeError(StateSpaceError):
    """The explicit update would move more probability than a state holds."""


@dataclass(frozen=True)
class ProbabilityTable:
    """One time slice of the state distribution.

    ``entries`` maps occupation vectors to probabilities; ``step`` counts
    applied updates (time is ``step * dt``).  Entries are kept even when
    tiny so that conservation checks stay exact.
    """

    entries: Mapping[MassDistribution, float]
    step: int = 0

    def total(self):
        return sum(self.entries.values())

    def states(self) -> list[MassDistribution]:
        return sorted(self.entries, key=lambda s: s.counts)

    @classmethod
    def point_mass(cls, state: MassDistribution) -> "ProbabilityTable":
        return cls({state: 1.0}, step=0)


@dataclass(frozen=True)
class SsaConfig:
    """Gillespie run configuration; ``seed`` fixes every trajectory."""

    n_runs: int
    seed: int
    t_end: float

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise StateSpaceError(f"need n_runs >= 1, got {self.n_runs}")
        if not self.t_end >= 0:
            raise StateSpaceError(f"need t_end >= 0, got {self.t_end}")


def step_rates(table: TransitionTable, state: MassDistribution):
    """Per-step probabilities ``r_h`` of ``state`` and their sum.

    Returns ``(rates, total)`` with ``rates[h-1] = r_h``.  Raises
    :class:`StepSizeError` when ``total = sum_h r_h > 1``: the explicit
    update would then move more probability than the state holds.
    """
    rates = [rate * table.dt for rate in propensities(table, state.counts)]
    total = sum(rates)
    if total > 1:
        raise StepSizeError(
            f"sum of transition probabilities {total} > 1 for state "
            f"{state.counts}; reduce dt"
        )
    return rates, total


def euler_step(p: ProbabilityTable, table: TransitionTable) -> ProbabilityTable:
    """One explicit update of the discretized master equation.

    Probability is moved flow-by-flow, which is algebraically identical to
    the gain/loss form of the update and conserves the total exactly up to
    rounding.  Populated states are visited in ascending counts order, and
    :class:`StepSizeError` names the first of them with ``sum_h r_h > 1``.
    """
    new = dict(p.entries)
    for state in sorted(p.entries, key=lambda s: s.counts):
        prob = p.entries[state]
        if prob == 0:
            continue
        rates, _ = step_rates(table, state)
        for (i, j), rate in zip(table.pairs, rates):
            if rate == 0:
                continue
            flow = prob * rate
            target = apply_pair(state, i, j)
            new[state] -= flow
            new[target] = new.get(target, 0 * flow) + flow
    return ProbabilityTable(new, step=p.step + 1)


def evolve(p0: ProbabilityTable, table: TransitionTable, steps: int) -> ProbabilityTable:
    """``steps``-fold composition of :func:`euler_step`."""
    if steps < 0:
        raise StateSpaceError(f"need steps >= 0, got {steps}")
    p = p0
    for _ in range(steps):
        p = euler_step(p, table)
    return p


def evolve_series(
    p0: ProbabilityTable, table: TransitionTable, steps: int
) -> list[ProbabilityTable]:
    """All intermediate tables from step 0 to ``steps`` inclusive."""
    series = [p0]
    for _ in range(steps):
        series.append(euler_step(series[-1], table))
    return series


def marginal(p: ProbabilityTable, bin_index: int, value: int):
    """Probability that bin ``bin_index`` holds exactly ``value`` droplets."""
    total = 0.0
    for state, prob in p.entries.items():
        if not 1 <= bin_index <= state.num_bins:
            raise StateSpaceError(f"bin {bin_index} outside [1, {state.num_bins}]")
        if state.counts[bin_index - 1] == value:
            total += prob
    return total


def expected_count(p: ProbabilityTable, bin_index: int):
    """Expected droplet count of bin ``bin_index``."""
    total = 0.0
    for state, prob in p.entries.items():
        if not 1 <= bin_index <= state.num_bins:
            raise StateSpaceError(f"bin {bin_index} outside [1, {state.num_bins}]")
        total += state.counts[bin_index - 1] * prob
    return total


def mass_expectation(p: ProbabilityTable):
    """``sum_i i * <n_i>``; conserved by every update."""
    return sum(state.mass() * prob for state, prob in p.entries.items())


def ssa_trajectory(
    table: TransitionTable,
    t_end: float,
    rng: np.random.Generator,
    initial: MassDistribution | None = None,
) -> MassDistribution:
    """One exact Gillespie trajectory, returning the state at ``t_end``."""
    state = initial or MassDistribution.monodisperse(table.num_bins)
    t = 0.0
    while True:
        props = np.array(propensities(table, state.counts), dtype=float)
        total = props.sum()
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t > t_end:
            break
        label = int(np.searchsorted(np.cumsum(props) / total, rng.uniform()))
        state = apply_pair(state, *table.pairs[label])
    return state


def ssa_population_estimate(
    table: TransitionTable,
    cfg: SsaConfig,
    initial: MassDistribution | None = None,
) -> list[tuple[float, float]]:
    """Per-bin (mean, standard error) at ``t_end`` from one trajectory set.

    Trajectories are seeded from ``(cfg.seed, run_index)`` spawn keys, so
    results are reproducible and independent of execution order.
    """
    if cfg.n_runs < 2:
        raise StateSpaceError("standard error needs n_runs >= 2")
    samples = np.empty((cfg.n_runs, table.num_bins))
    for run in range(cfg.n_runs):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(run,)))
        )
        final = ssa_trajectory(table, cfg.t_end, rng, initial)
        samples[run] = final.counts
    means = samples.mean(axis=0)
    stderrs = samples.std(axis=0, ddof=1) / math.sqrt(cfg.n_runs)
    return [(float(m), float(s)) for m, s in zip(means, stderrs)]


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV with LF line endings.

    ``int`` and ``str`` cells are written as they are; every other cell
    (floats, Fractions, numpy scalars) is written as its ``repr``, so
    floats round-trip exactly.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [cell if isinstance(cell, (int, str)) else repr(cell) for cell in row]
            for row in rows
        )


def state_id(state: MassDistribution) -> str:
    """Stable textual key for CSV output, e.g. ``2|0|1``."""
    return "|".join(str(c) for c in state.counts)


def write_expected_series(
    series: Sequence[ProbabilityTable], path: str
) -> None:
    """CSV export with columns (step, bin, expected_count)."""
    rows = (
        (table.step, bin_index, expected_count(table, bin_index))
        for table in series
        for bin_index in range(1, next(iter(table.entries)).num_bins + 1)
    )
    write_csv(path, ["step", "bin", "expected_count"], rows)


def write_probability_series(
    series: Sequence[ProbabilityTable], path: str
) -> None:
    """CSV export with columns (step, state_id, probability)."""
    rows = (
        (table.step, state_id(state), table.entries[state])
        for table in series
        for state in table.states()
    )
    write_csv(path, ["step", "state_id", "probability"], rows)
