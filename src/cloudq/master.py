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
from itertools import chain, count, islice, repeat
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

    Each step sums from zero, for every state, its old value, then the
    terms :meth:`~cloudq.states.StepProgram.step` adds: its own outflows
    in label order, then its inflows in ascending (source, label) order,
    the order of moving probability flow by flow in ascending counts order
    (a collision lowers the counts vector).  Entries keep their insertion
    order: the old keys, then each step's program level, the states the
    populated keys first reach at that step, whatever their values.
    """
    op = table.operator
    keys = [op.index(s) for s in p0.entries]
    prog = op.program([k for k, v in zip(keys, p0.entries.values()) if v != 0], steps)
    size = len(op.states)  # the operator may hold other runs' states too
    order, listed = list(keys), set(keys)
    prob = prog.vector(size, keys, list(p0.entries.values()))
    out = []
    for step, level in enumerate(prog.levels, start=p0.step + 1):
        nxt = np.zeros(size, dtype=prob.dtype) + prob
        prog.step(prob, nxt)
        prob = nxt
        order.extend(k for k in level if k not in listed)  # an empty key may be reached
        if keep_all or step == p0.step + steps:
            out.append(ProbabilityTable(
                dict(zip([op.states[k] for k in order], prob[order].tolist())), step=step
            ))
    return out


def evolve(p0: ProbabilityTable, table: TransitionTable, steps: int) -> ProbabilityTable:
    """``steps`` explicit updates of the discretized master equation.

    Every populated state loses ``r_h * P`` to each post-collision state,
    which is algebraically identical to the gain/loss form of the update
    and conserves the total exactly up to rounding; rational tables stay
    exact.  :class:`StepSizeError` names the first state to step, in
    ascending counts order, with ``sum_h r_h > 1``.
    """
    return _steps(p0, table, steps, keep_all=False)[0] if steps else p0


def evolve_series(
    p0: ProbabilityTable, table: TransitionTable, steps: int
) -> list[ProbabilityTable]:
    """All intermediate tables from step 0 to ``steps`` inclusive."""
    return [p0] + _steps(p0, table, steps, keep_all=True)


def expected_counts(p: ProbabilityTable, bins: Sequence[int] | None = None) -> list:
    """Expected droplet count of each bin in ``bins`` (every bin by default).

    Each is ``sum count * P`` taken state by state in entry order from
    ``0.0``: one sequential ``cumsum`` down the counts of the requested
    bins, whose first row, ``0 * 0.0``, is that ``0.0`` (it turns a
    ``-0.0`` sum into ``0.0``).  Float64 when every probability is a
    Python float; Python numbers otherwise, so other tables sum as Python
    does (``0.0 + Fraction`` is a float).
    """
    if not p.entries:
        raise StateSpaceError("empty distribution")
    n_bins = next(iter(p.entries)).num_bins
    keys = [s.counts for s in p.entries]
    if bins is None:
        width, cells = n_bins, chain.from_iterable(keys)
    else:
        for bin_index in bins:
            if not 1 <= bin_index <= n_bins:
                raise StateSpaceError(f"bin {bin_index} outside [1, {n_bins}]")
        width, cells = len(bins), (key[b - 1] for key in keys for b in bins)
    probs = [0.0, *p.entries.values()]
    number = float if set(map(type, probs)) == {float} else object
    counts = np.fromiter(
        chain(repeat(0, width), cells), np.int64, len(probs) * width
    ).reshape(len(probs), width)
    terms = counts.astype(number) * np.array(probs, dtype=number)[:, None]
    return np.cumsum(terms, axis=0)[-1].tolist()


def expected_count(p: ProbabilityTable, bin_index: int):
    """Expected droplet count of bin ``bin_index``."""
    return expected_counts(p, [bin_index])[0]


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
        event_rate, targets, cdf = op.events(k)
        if event_rate <= 0:
            break
        t += rng.exponential(1.0 / event_rate)
        if t > t_end:
            break
        k = targets[int(np.searchsorted(cdf, rng.uniform()))]
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


_CSV_CHUNK = 256  # rows transposed and written at once; more only adds peak memory
_CSV_QUOTED = (",", '"', "\n", "\r")  # csv may quote a cell holding one


def _csv_lines(chunk: list[tuple]) -> str | None:
    """``chunk`` as CSV lines, built one column at a time; None if its rows
    differ in length, have one cell, or hold a cell ``csv`` would quote."""
    if len(set(map(len, chunk))) != 1 or len(chunk[0]) < 2:
        return None
    columns = []
    for column in zip(*chunk):
        if set(map(type, column)) <= {int, float}:
            # a list's repr is its items' reprs joined by ", ", and no int
            # or float repr holds ", " or a quoted character
            columns.append(repr(list(column))[1:-1].split(", "))
            continue
        cells = [c if isinstance(c, str) else str(c) if isinstance(c, int) else repr(c)
                 for c in column]
        text = "".join(cells)
        if any(char in text for char in _CSV_QUOTED):
            return None
        columns.append(cells)
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV with LF line endings.

    ``int`` and ``str`` cells are written as they are; every other cell
    (floats, Fractions, numpy scalars) is written as its ``repr``, so
    floats round-trip exactly.  Rows are written ``_CSV_CHUNK`` at a time,
    a column at a time; a chunk :func:`_csv_lines` cannot build goes
    through ``csv.writer`` cell by cell, which writes the same bytes.
    """
    rows = iter(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        while chunk := list(map(tuple, islice(rows, _CSV_CHUNK))):
            lines = _csv_lines(chunk)
            if lines is None:
                writer.writerows(
                    [cell if isinstance(cell, (int, str)) else repr(cell) for cell in row]
                    for row in chunk
                )
            else:
                handle.write(lines)


def _counts_text(counts: tuple[int, ...]) -> str:
    return "|".join(["%d"] * len(counts)) % counts


def state_id(state: MassDistribution) -> str:
    """Stable textual key for CSV output, e.g. ``2|0|1``."""
    return _counts_text(state.counts)


def write_expected_series(
    series: Sequence[ProbabilityTable], path: str
) -> None:
    """CSV export with columns (step, bin, expected_count)."""
    rows = chain.from_iterable(
        zip(repeat(table.step), count(1), expected_counts(table)) for table in series
    )
    write_csv(path, ["step", "bin", "expected_count"], rows)


def write_probability_series(
    series: Sequence[ProbabilityTable], path: str
) -> None:
    """CSV export with columns (step, state_id, probability); each table's
    states in ascending counts order."""
    ids: dict[tuple[int, ...], str] = {}  # state_id of the state with these counts

    def table_rows(table: ProbabilityTable) -> Iterable[tuple]:
        keys = [s.counts for s in table.entries]
        for key in set(keys).difference(ids):
            ids[key] = _counts_text(key)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        probs = list(table.entries.values())
        return zip(
            repeat(table.step),
            map(ids.__getitem__, map(keys.__getitem__, order)),
            map(probs.__getitem__, order),
        )

    rows = chain.from_iterable(map(table_rows, series))
    write_csv(path, ["step", "state_id", "probability"], rows)
