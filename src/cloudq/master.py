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

from .states import MassDistribution, StateSpaceError, TransitionTable
from .states import StepSizeError  # noqa: F401  (callers catch master.StepSizeError)

PROB_TOL = 1e-12


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


def _steps(
    p0: ProbabilityTable, table: TransitionTable, steps: int, keep_all: bool
) -> list[ProbabilityTable]:
    """``steps`` explicit updates on the table's step program; the tables
    after each step (``keep_all``) or after the last.

    Only populated states move probability.  Each step accumulates, for
    every state, its old value, then its own outflows in label order, then
    its inflows in ascending (source, label) order.  A collision always
    lowers the counts vector, so this is the order of moving probability
    flow by flow through the populated states in ascending counts order.
    Entries keep their insertion order: the old keys, then new targets in
    the order first reached.
    """
    op = table.operator
    keys = [op.index(s) for s in p0.entries]
    prog = op.program(keys, [k for k, v in zip(keys, p0.entries.values()) if v != 0], steps)
    size = len(prog.states)
    order = [prog.where[k] for k in keys]
    present = np.zeros(size, dtype=bool)
    present[order] = True
    prob = prog.vector(order, list(p0.entries.values()))
    stay = np.arange(size)
    out = []
    for step in range(p0.step + 1, p0.step + steps + 1):
        moving = (prob != 0)[prog.src]
        src, dst = prog.src[moving], prog.dst[moving]
        flow = prob[src] * prog.rate[moving]
        fresh = list(dict.fromkeys(dst[~present[dst]].tolist()))
        order.extend(fresh)
        present[fresh] = True
        prob = prog.accumulate(
            np.concatenate([stay, src, dst]), np.concatenate([prob, -flow, flow])
        )
        if keep_all or step == p0.step + steps:
            out.append(ProbabilityTable(
                dict(zip([prog.states[i] for i in order], prob[order].tolist())), step=step
            ))
    return out


def euler_step(p: ProbabilityTable, table: TransitionTable) -> ProbabilityTable:
    """One explicit update of the discretized master equation.

    Every populated state loses ``r_h * P`` to each post-collision state,
    which is algebraically identical to the gain/loss form of the update
    and conserves the total exactly up to rounding; rational tables stay
    exact.  :class:`StepSizeError` names the first populated state, in
    ascending counts order, with ``sum_h r_h > 1``.
    """
    return _steps(p, table, 1, keep_all=False)[0]


def evolve(p0: ProbabilityTable, table: TransitionTable, steps: int) -> ProbabilityTable:
    """``steps``-fold composition of :func:`euler_step`."""
    return _steps(p0, table, steps, keep_all=False)[0] if steps else p0


def evolve_series(
    p0: ProbabilityTable, table: TransitionTable, steps: int
) -> list[ProbabilityTable]:
    """All intermediate tables from step 0 to ``steps`` inclusive."""
    return [p0] + _steps(p0, table, steps, keep_all=True)


def expected_count(p: ProbabilityTable, bin_index: int):
    """Expected droplet count of bin ``bin_index``."""
    if p.entries:
        n_bins = next(iter(p.entries)).num_bins
        if not 1 <= bin_index <= n_bins:
            raise StateSpaceError(f"bin {bin_index} outside [1, {n_bins}]")
    total = 0.0
    for state, prob in p.entries.items():
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
    op = table.operator
    k = op.index(initial or MassDistribution.monodisperse(table.num_bins))
    t = 0.0
    while True:
        row = op.row(k)
        if row.event_rate <= 0:
            break
        t += rng.exponential(1.0 / row.event_rate)
        if t > t_end:
            break
        k = row.targets[int(np.searchsorted(row.event_cdf, rng.uniform()))]
    return op.states[k]


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
    return "|".join(map(str, state.counts))


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
    ids = {state: state_id(state) for state in set().union(*(t.entries for t in series))}
    rows = (
        (table.step, ids[state], table.entries[state])
        for table in series
        for state in table.states()
    )
    write_csv(path, ["step", "state_id", "probability"], rows)
