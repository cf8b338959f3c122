"""The scalar forms of the transition table's rate rule, row and division
split, kept as the oracle the array pass is pinned to.

Each works on one state's counts and on the table's own numbers
(``_kernel``, ``_up``, ``_dt``, ``scale``), in the scalar order of
operations: ``(K n_i) n_j`` and ``(K n)(n - 1) / 2``, then ``* dt``, with
the total a left fold.  Targets are the post-collision counts.  The
readers :func:`row` and :func:`terms` give the same from a table's compiled
arrays, and :func:`positions` finds states in a step program.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

import numpy as np

from cloudq.states import _collided


class Row(NamedTuple):
    labels: tuple
    targets: tuple
    propensities: tuple
    total: object


def _pair_propensity(kernel, counts, i, j):
    """``r_h / dt`` of pair ``(i, j)``: ``K n_i n_j``, or ``K n_i (n_i-1) / 2``
    for equal bins (halved with ``//`` on an ``int``, so it stays one);
    exactly zero whenever the source bins are under-populated."""
    if i == j:
        n = counts[i - 1]
        if n < 2:
            return 0
        twice = kernel * n * (n - 1)
        return twice // 2 if type(twice) is int else twice / 2
    ni, nj = counts[i - 1], counts[j - 1]
    if ni < 1 or nj < 1:
        return 0
    return kernel * ni * nj


def rule(table, counts):
    """``(label, i, j, r_h / dt, r_h)`` for each pair of occupied bins with
    ``r_h != 0``, in label order; ``int``s over ``scale`` on an exact table."""
    n, kernel, up, dt = table.num_bins, table._kernel, table._up, table._dt
    occupied = list(compress(range(1, n + 1), counts))
    for first, i in enumerate(occupied):
        for j in occupied[first:]:
            if i + j > n:
                break
            label = (i - 1) * (n - i) + j
            pair = _pair_propensity(kernel[label - 1], counts, i, j)
            rate = pair * dt
            if rate != 0:
                yield label, i, j, pair * up, rate


def compile_row(table, counts) -> Row:
    """The state's row from :func:`rule`, its targets as counts."""
    labels, targets, propensities, total = [], [], [], 0 * table._dt
    for label, i, j, propensity, rate in rule(table, counts):
        labels.append(label)
        targets.append(_collided(counts, i, j))
        propensities.append(propensity)
        total = total + rate
    return Row(tuple(labels), tuple(targets), tuple(propensities), total)


def rates(table, propensities) -> list:
    """Each ``r_h / dt`` as the rule's ``r_h``."""
    if table.is_float:
        return [p * table._dt for p in propensities]
    return [p // table._up * table._dt for p in propensities]


def split(table, row: Row) -> tuple[list, object]:
    """The division split of a checked row: one weight per label position
    (zero where the loop stopped) and the hold; labels visited ``H..1``."""
    row_rates = rates(table, row.propensities)
    if not table.is_float:
        return row_rates, table.scale - row.total
    weights, hold = [0] * len(row_rates), table.one
    for pos in reversed(range(len(row_rates))):
        if hold <= 0:
            break
        modified = min(row_rates[pos] / hold, table.one)
        weights[pos] = modified * hold
        hold = (1 - modified) * hold
    return weights, hold


def events(table, row: Row) -> tuple:
    """The sampler's event rate and label CDF, on the dense float vector."""
    dense = np.zeros(table.num_labels)
    stored = np.array(row.labels, dtype=np.intp) - 1
    dense[stored] = row.propensities if table.is_float else [
        p / table.scale for p in row.propensities]
    event_rate = dense.sum()
    return event_rate, np.cumsum(dense)[stored] / event_rate


def row(table, k) -> Row:
    """State ``k``'s compiled row read off the table's arrays: labels,
    target ranks, propensities and total, as Python numbers."""
    level, i = table._row(k)
    a, b = level.start[i], level.start[i + 1]
    return Row(tuple(level.labels[a:b].tolist()), tuple(level.targets[a:b].tolist()),
               tuple(level.props[a:b].tolist()), level.totals[i:i + 1].tolist()[0])


def terms(table, counts) -> list[tuple]:
    """The array pass's rule for the state ``counts``, read off its compiled
    row: ``(label, i, j, r_h / dt, r_h)``, as :func:`rule` gives them."""
    from cloudq.states import MassDistribution

    level, i = table._row(table.index(MassDistribution(tuple(counts))))
    a, b = level.start[i], level.start[i + 1]
    return [(h, *table.pair_of(h), p, r) for h, p, r in zip(
        level.labels[a:b].tolist(), level.props[a:b].tolist(), level.rates[a:b].tolist())]


def positions(prog, ranks) -> list[int]:
    """The positions in ``prog`` of the states of ranks ``ranks``."""
    where = {k: p for p, k in enumerate(prog.ranks.tolist())}
    return [where[k] for k in ranks]
