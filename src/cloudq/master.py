"""Exact classical reference solver for the population master equation.

Evolves the full probability table over occupation vectors with the
explicit first-order update: each state loses ``r_h * P`` to the
post-collision state of every feasible transition ``h``.  Written as
probability flows, conservation holds to rounding error by construction.
A Gillespie sampler provides an independent continuous-time cross-check.
"""

from __future__ import annotations

import bisect
import csv
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .states import MassDistribution, StateSpaceError, TransitionTable, require_count

PROB_TOL = 1e-12
MERGED_TOL = 1e-12  # largest entry difference of the merged division model from the solver


class ProbabilityTable:
    """One time slice of the state distribution.

    ``listing`` is a list of states, which may run on past the values (a
    run's tables share one); ``values`` is an array of the probabilities
    of its first ``len(values)`` states; ``step`` counts applied updates
    (time is ``step * dt``).  Entries are kept even when tiny so that
    conservation checks stay exact.  ``ProbabilityTable(dict, step)``
    snapshots the dict into an object array; ``entries`` is built on first
    read, read-only, in listing order and with the same value objects.

    Every reader (``expected_counts``, ``mass_expectation``,
    ``amplitude_expectation``, the series writers) reads one private view,
    built on its first read and kept: the counts rows of the listing and,
    on an object table, each value as its integer ratio (a ``Fraction``'s;
    any other value as it is).  A run's tables share one rows array, taken
    from the step program's and handed to :meth:`listed`; a hand-built
    table builds its rows from its states.  Every reader refuses a table
    of two bin counts.  A table is not to be mutated once built: its view
    would not follow.
    """

    def __init__(self, entries: Mapping[MassDistribution, float], step: int = 0) -> None:
        self.listing, self.step, self._entries = list(entries), step, None
        self.values = np.fromiter(entries.values(), object, len(self.listing))
        self._rows = self._view = None

    @classmethod
    def listed(cls, listing: list[MassDistribution], values: np.ndarray, step: int,
               rows: np.ndarray | None = None):
        """A table over ``listing``, whose counts rows are ``rows`` when
        the caller holds them."""
        table = cls({}, step)
        table.listing, table.values, table._rows = listing, values, rows
        return table

    @property
    def entries(self) -> Mapping[MassDistribution, float]:
        if self._entries is None:
            self._entries = MappingProxyType(dict(zip(self.listing, self.values.tolist())))
        return self._entries

    def _read(self) -> tuple[np.ndarray, list | None]:
        """The read view: the listing's counts rows, and on an object table
        each value as its integer ratio (``None`` on float64)."""
        if self._view is None:
            rows = _rows(self.listing) if self._rows is None else self._rows
            terms = None if self.values.dtype != object else [
                v.as_integer_ratio() if type(v) is Fraction else v for v in self.values.tolist()]
            self._view = rows, terms
        return self._view

    def __eq__(self, other):
        if type(other) is not ProbabilityTable:
            return NotImplemented
        return (self.entries, self.step) == (other.entries, other.step)

    def total(self):
        return reduce(operator.add, self.values.tolist(), 0)  # sum() compensates from 3.12

    def states(self) -> list[MassDistribution]:
        return sorted(self.listing[:len(self.values)], key=lambda s: s.counts)

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
        require_count("n_runs", self.n_runs, 1, StateSpaceError)
        require_count("seed", self.seed, 0, StateSpaceError)
        if not self.t_end >= 0:
            raise StateSpaceError(f"need t_end >= 0, got {self.t_end}")


def _steps(
    p0: ProbabilityTable, table: TransitionTable, steps: int, keep_all: bool
) -> list[ProbabilityTable]:
    """The start table, then ``steps`` explicit updates on the table's step
    program: the tables after each step (``keep_all``) or after the last.

    Each step (:meth:`~cloudq.states.StepProgram.run`) sums from zero, for
    every state, the program's terms: its unit diagonal (its old value),
    its own outflows in label order, then its inflows in ascending
    (source, label) order, the order of moving probability flow by flow in
    ascending counts order (a collision lowers the counts vector); an
    exact run sums the same terms on integer numerators.  The tables share
    one listing: the old keys, then each step's program level, the states
    the populated keys first reach at that step, whatever their values.
    Each table holds the values of the listing's first states up to its
    step's level; the start table is ``p0`` on a float table, and the
    start vector's ``Fraction``s on an exact one.
    """
    keys, values = [table.index(s) for s in p0.entries], list(p0.entries.values())
    prog = table.program([k for k, v in zip(keys, values) if v != 0], steps)
    where, size = dict(zip(prog.ranks.tolist(), range(len(prog.ranks)))), len(prog.ranks)
    # a key the program does not hold reads zero, from a slot of its own past the program's
    keys = [where.get(k, size + n) for n, k in enumerate(keys)]
    order, ends, start = list(keys), [], set(keys)
    for level in prog.levels:
        order.extend(k for k in level if k not in start)  # an empty key may be reached
        ends.append(len(order))
    order, prob = np.array(order, dtype=np.intp), prog.vector(size + len(keys), keys, values)
    rows = np.empty((len(order), table.num_bins), prog.counts.dtype)  # the listing's counts
    if keys:
        rows[:len(keys)] = p0._read()[0][:len(keys)]
    np.take(prog.counts, order[len(keys):], axis=0, out=rows[len(keys):])
    listing = list(p0.entries) + table.states.listing(prog.ranks[order[len(keys):]],
                                                      rows[len(keys):])
    out = [p0 if table.is_float else ProbabilityTable.listed(listing, prob[keys], p0.step, rows)]
    for (step, end), read in zip(enumerate(ends, start=p0.step + 1), prog.run(prob, steps)):
        if keep_all or step == p0.step + steps:
            out.append(ProbabilityTable.listed(listing, read(order[:end]), step, rows))
    return out


def evolve(p0: ProbabilityTable, table: TransitionTable, steps: int) -> ProbabilityTable:
    """``steps`` explicit updates of the discretized master equation.

    Every populated state loses ``r_h * P`` to each post-collision state,
    which is algebraically identical to the gain/loss form of the update
    and conserves the total exactly up to rounding; rational tables stay
    exact, step 0 included.  :class:`StepSizeError` names the first state
    to step, in ascending counts order, with ``sum_h r_h > 1``.
    """
    return _steps(p0, table, steps, keep_all=False)[-1]


def evolve_series(
    p0: ProbabilityTable, table: TransitionTable, steps: int
) -> list[ProbabilityTable]:
    """All intermediate tables from step 0 to ``steps`` inclusive."""
    return _steps(p0, table, steps, keep_all=True)


def _expected(counts: np.ndarray, values: np.ndarray, terms: list | None = None) -> list:
    """``sum count * P`` down each column of ``counts``, state by state in
    entry order from ``0.0``: on float64, one sequential ``cumsum`` (not
    ``add.reduce``, which may sum pairwise) plus ``0.0`` (a ``-0.0`` sum
    reads ``0.0``); on an object array, a loop (``sum()`` compensates from
    Python 3.12) that adds as Python does, where ``total + count *
    Fraction`` is ``float(total)`` plus the one division ``count * num /
    den``.  ``terms`` are the values as a table's view holds them."""
    if values.dtype != object:
        return (np.cumsum(counts[:len(values)] * values[:, None], axis=0)[-1] + 0.0).tolist()
    if terms is None:
        terms = [v.as_integer_ratio() if type(v) is Fraction else v for v in values.tolist()]
    totals = []
    for column in counts[:len(values)].T.tolist():  # Python ints: numerators pass 2**63
        total = 0.0
        for count, v in zip(column, terms):
            total = float(total) + count * v[0] / v[1] if type(v) is tuple else total + count * v
        totals.append(total)
    return totals


def _require_bin(bin_index, n_bins: int) -> None:
    """Refuse a ``bin_index`` that is not an ``int`` in ``[1, n_bins]``."""
    require_count("bin", bin_index, -math.inf, StateSpaceError)
    if not 1 <= bin_index <= n_bins:
        raise StateSpaceError(f"bin {bin_index} outside [1, {n_bins}]")


def expected_counts(p: ProbabilityTable, bins: Sequence[int] | None = None) -> list:
    """Expected droplet count of each bin in ``bins`` (every bin by
    default), as :func:`_expected` sums it."""
    rows, terms = p._read()
    if not len(p.values):
        raise StateSpaceError("empty distribution")
    for bin_index in bins or ():
        _require_bin(bin_index, rows.shape[1])
    rows = rows[:len(p.values)]
    return _expected(rows if bins is None else rows[:, [b - 1 for b in bins]], p.values, terms)


def expected_count(p: ProbabilityTable, bin_index: int):
    """Expected droplet count of bin ``bin_index``."""
    return expected_counts(p, [bin_index])[0]


def mass_expectation(p: ProbabilityTable):
    """``sum_i i * <n_i>``; conserved by every update.  Every state's mass
    is ``N``, so this folds ``N * P`` in entry order from ``0``."""
    n_bins = p._read()[0].shape[1]
    return reduce(operator.add, (n_bins * prob for prob in p.values.tolist()), 0)


def ssa_trajectory(
    table: TransitionTable,
    t_end: float,
    rng: np.random.Generator,
    initial: MassDistribution | None = None,
) -> MassDistribution:
    """One exact Gillespie trajectory, returning the state at ``t_end``."""
    k = table.index(initial or MassDistribution.monodisperse(table.num_bins))
    t = 0.0
    while True:
        event_rate, targets, cdf = table.events(k)
        if event_rate <= 0:
            break
        t += rng.exponential(1.0 / event_rate)
        if t > t_end:
            break
        k = targets[bisect.bisect_left(cdf, rng.random())]
    return table.states[k]


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
    initial = initial or MassDistribution.monodisperse(table.num_bins)  # met once, by rank
    for run in range(cfg.n_runs):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(run,)))
        )
        final = ssa_trajectory(table, cfg.t_end, rng, initial)
        samples[run] = final.counts
    means = samples.mean(axis=0)
    stderrs = samples.std(axis=0, ddof=1) / math.sqrt(cfg.n_runs)
    return [(float(m), float(s)) for m, s in zip(means, stderrs)]


def _cells(column: Sequence) -> tuple[list[str], bool]:
    """``column`` as its written cells, and whether ``csv`` may quote one:
    a ``str`` cell as it is, an ``int`` as its ``str`` (rendered once for
    a column of one ``int``), anything else as its ``repr``.  No ``int``
    or ``float`` repr holds a character ``csv`` quotes."""
    kinds = set(map(type, column))
    if kinds == {int} and column.count(column[0]) == len(column):
        return [str(column[0])] * len(column), False
    if kinds <= {int, float}:
        return list(map(repr, column)), False
    cells = list(column) if kinds == {str} else [
        c if isinstance(c, str) else str(c) if isinstance(c, int) else repr(c) for c in column]
    text = "".join(cells)
    return cells, any(map(text.__contains__, ',"\n\r'))


def write_csv(path: str, header: Sequence[str], blocks: Iterable[Sequence[Sequence]]) -> None:
    """Write ``header``, then ``blocks`` (each a list of equal-length
    columns) as CSV with LF line endings.  Each column is rendered once by
    :func:`_cells`, so floats round-trip exactly; a block is joined
    directly unless ``csv`` would quote one of its cells, and otherwise
    goes through ``csv.writer`` as those strings: the same bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for block in blocks:
            if not len(block[0]):
                continue
            columns, quoted = zip(*map(_cells, block))
            if not any(quoted) and (len(columns) > 1 or all(columns[0])):  # csv quotes a lone ""
                handle.write("\n".join(map(",".join, zip(*columns))) + "\n")
            else:
                writer.writerows(zip(*columns))


def state_ids(counts) -> list[str]:
    """The :func:`state_id` of each counts row (of a matrix or a list of
    tuples): its counts' decimal digits, from one table, joined by ``|``."""
    if not isinstance(counts, np.ndarray):
        counts = np.array(counts, dtype=np.int64)
    digits = np.array([str(c) for c in range(int(counts.max(initial=0)) + 1)], dtype=object)
    return list(map("|".join, digits[counts].tolist()))


def state_id(state: MassDistribution) -> str:
    """Stable textual key for CSV output, e.g. ``2|0|1``."""
    return state_ids([state.counts])[0]


def _mixed(widths: Sequence[int]) -> None:
    """Refuse states of two bin counts, given their sorted bin counts."""
    if len(widths) > 1:
        raise StateSpaceError(f"series mixes {widths[0]}-bin and {widths[-1]}-bin states")


def _rows(states: Sequence[MassDistribution]) -> np.ndarray:
    """The counts matrix of ``states``, which share one bin count."""
    rows = [s.counts for s in states]
    widths = sorted(set(map(len, rows))) or [0]
    _mixed(widths)
    counts = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * widths[0])
    return counts.reshape(len(rows), widths[0])


def _series(series: Sequence[ProbabilityTable]) -> tuple[np.ndarray, list[int]]:
    """The counts rows of every listing in ``series``, once per listing
    (one listing's as its view holds them), and where each table's states
    start in them.  States of two bin counts are refused."""
    first, blocks, size = {}, [], 0
    for table in series:
        if id(table.listing) not in first:
            first[id(table.listing)], size = size, size + len(table.listing)
            blocks.append(table._read()[0])
    blocks = [rows for rows in blocks if len(rows)]
    _mixed(sorted({rows.shape[1] for rows in blocks}))
    narrow = min((rows.dtype for rows in blocks), key=lambda t: t.itemsize, default=None)
    counts = blocks[0] if len(blocks) == 1 else np.concatenate(  # every count fits: it is <= N
        blocks or [np.zeros((0, 0), int)], dtype=narrow)
    return counts, [first[id(t.listing)] for t in series]


def write_expected_series(series: Sequence[ProbabilityTable], path: str) -> None:
    """CSV export with columns (step, bin, expected_count), as one block."""
    counts, firsts = _series(series)
    if not all(len(t.values) for t in series):
        raise StateSpaceError("empty distribution")
    bins = range(1, counts.shape[1] + 1)
    write_csv(path, ["step", "bin", "expected_count"], [[
        [t.step for t in series for _ in bins],
        list(bins) * len(series),
        list(chain.from_iterable(_expected(counts[first:], t.values)
                                 for t, first in zip(series, firsts))),
    ]])


def write_probability_series(series: Sequence[ProbabilityTable], path: str) -> None:
    """CSV export with columns (step, state_id, probability); each table's
    states in ascending counts order, one block per table."""
    counts, firsts = _series(series)
    ranked = np.lexsort(counts.T[::-1]) if len(counts) else np.empty(0, np.intp)
    ids = np.array(state_ids(counts), dtype=object)
    blocks = (
        [[t.step] * len(at), ids[at].tolist(), t.values[at - first].tolist()]
        for t, first in zip(series, firsts)
        for at in [ranked[(first <= ranked) & (ranked < first + len(t.values))]]
    )
    write_csv(path, ["step", "state_id", "probability"], blocks)
