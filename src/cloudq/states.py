"""Discrete state space of the coalescing droplet population.

A population is an occupation vector ``(n_1, ..., n_N)`` where bin ``i``
holds droplets of mass ``i`` (in units of the smallest droplet) and the
total mass ``sum(i * n_i)`` equals ``N``.  Valid states are therefore the
integer partitions of ``N``.  Collisions are labelled by the ordered bin
pair ``(i, j)`` with ``i <= j`` and ``i + j <= N``; label ``0`` is
reserved for "no collision in this step".
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import compress, repeat
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 60


class StateSpaceError(ValueError):
    """Invalid state, label, or kernel input."""


class ResourceLimitError(StateSpaceError):
    """A run would pass a size cap: the enumeration cap or the tree's branch cap."""


class LabelError(StateSpaceError):
    """Transition label outside ``[1, H]``."""


class InfeasibleTransitionError(StateSpaceError):
    """Source bins are under-populated for the requested collision."""


class EmptyTableError(StateSpaceError):
    """No collisions are possible (``N < 2``)."""


class StepSizeError(StateSpaceError):
    """The explicit update would move more probability than a state holds."""


def require_count(name: str, value, floor, error: type[Exception]) -> None:
    """Raise ``error`` for a count that is not an ``int`` (a ``bool`` or a
    numpy integer is not one) or lies below ``floor``; a floor of
    ``-math.inf`` checks the type alone, ahead of a caller's own bounds."""
    if type(value) is not int:
        raise error(f"{name} must be an int, got {value!r}")
    if value < floor:
        raise error(f"need {name} >= {floor}, got {value}")


@dataclass(frozen=True)
class MassDistribution:
    """Occupation vector with conserved total mass.

    ``counts[i - 1]`` is the droplet count of bin ``i``, an integer; the
    vector length fixes ``N`` and the mass identity ``sum(i * n_i) == N``
    is enforced.  The hash is the dataclass's own, ``hash((counts,))``,
    computed once: tables key every state through it.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise StateSpaceError("occupation vector must not be empty")
        mass = self.mass()
        if not isinstance(mass, numbers.Integral):  # a float or Fraction count makes it one
            raise StateSpaceError(f"non-integer occupation in {self.counts}")
        if min(self.counts) < 0:
            raise StateSpaceError(f"negative occupation in {self.counts}")
        if mass != len(self.counts):
            raise StateSpaceError(f"mass {mass} != N {len(self.counts)} for {self.counts}")
        object.__setattr__(self, "_hash", hash((self.counts,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_bins(self) -> int:
        return len(self.counts)

    def mass(self) -> int:
        return sum(map(operator.mul, range(1, len(self.counts) + 1), self.counts))

    @classmethod
    def monodisperse(cls, n_bins: int) -> "MassDistribution":
        """All mass in the first bin: ``(N, 0, ..., 0)``."""
        return cls((n_bins,) + (0,) * (n_bins - 1))


@dataclass(frozen=True)
class KernelSpec:
    """Collection kernel ``K(i, j)`` selection.

    ``constant``: ``k0``;  ``sum``: ``k0 * (i + j)``;  ``product``:
    ``k0 * i * j``;  ``table``: explicit symmetric matrix indexed by bins.
    Units are a collision probability rate per pair per unit time.
    """

    kind: str = "constant"
    k0: float = 1.0
    table: tuple[tuple[float, ...], ...] | None = None

    _KINDS = ("constant", "sum", "product", "table")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise StateSpaceError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "table":
            if self.table is None:
                raise StateSpaceError("table kernel requires an explicit table")
        elif not 0 <= self.k0 < math.inf:  # as dt: isfinite overflows on a huge int
            raise StateSpaceError(f"kernel constant must be finite and >= 0, got {self.k0}")

    def rate(self, i: int, j: int) -> float:
        """``K(i, j)``; symmetric and non-negative."""
        if self.kind == "constant":
            return self.k0
        if self.kind == "sum":
            return self.k0 * (i + j)
        if self.kind == "product":
            return self.k0 * i * j
        try:
            value = self.table[i - 1][j - 1]
        except IndexError:
            raise StateSpaceError(f"kernel table has no entry K({i},{j})") from None
        if not value >= 0:
            raise StateSpaceError(f"kernel table entry K({i},{j}) = {value} < 0")
        if not value < math.inf:
            raise StateSpaceError(f"kernel table entry K({i},{j}) = {value} is not finite")
        return value


def label_pair_count(n_bins: int) -> int:
    """Closed-form pair count ``floor(N^2/4)``: ``(N^2-1)/4`` for odd ``N``."""
    return n_bins * n_bins // 4


@cache
def label_pairs(n_bins: int) -> tuple[tuple[int, int], ...]:
    """Collision pairs ``(i, j)``, ``i <= j``, ``i + j <= N``, in label order
    (built once per ``N``)."""
    return tuple(
        (i, j)
        for i in range(1, n_bins + 1)
        for j in range(i, n_bins + 1)
        if i + j <= n_bins
    )


def qubits_for_bin(n_bins: int, bin_index: int) -> int:
    """Width of bin ``i``'s register, ``ceil(log2(N // i + 1))``: ``N // i``'s bit length."""
    require_count("N", n_bins, 0, StateSpaceError)
    require_count("bin", bin_index, 1, StateSpaceError)
    return (n_bins // bin_index).bit_length()


def _table_pairs(n_bins: int) -> tuple[tuple[int, int], ...]:
    """:func:`label_pairs` of a table's ``N``, once ``N`` is an int of at
    least 2; both ways of building a table check ``N`` here."""
    require_count("N", n_bins, -math.inf, StateSpaceError)
    if n_bins < 2:
        raise EmptyTableError(f"no collisions possible for N = {n_bins}")
    return label_pairs(n_bins)


def build_transition_table(n_bins: int, kernel: KernelSpec, dt) -> TransitionTable:
    """The table of ``n_bins`` with the kernel's value at each collision pair."""
    values = tuple(kernel.rate(i, j) for i, j in _table_pairs(n_bins))
    return TransitionTable(n_bins, dt, values)


def total_transition_rate(table: TransitionTable, state: MassDistribution):
    """``sum_h r_h``, the scalar rate rule folded from zero over each pair of
    occupied bins with ``r_h != 0``, in label order, from the counts alone,
    as a row's ``total`` is; must stay <= 1 for a valid explicit step.  On
    an exact table it is the type the inputs give it: an ``int`` when
    ``dt`` and the kernel values of its nonzero rates are ints (so a
    caller's ``1 / total`` is a float), else a ``Fraction``."""
    if state.num_bins != table.num_bins:
        raise StateSpaceError(f"state {state.counts} does not have {table.num_bins} bins")
    n, counts, total, ints = table.num_bins, state.counts, 0 * table._dt, type(table.dt) is int
    occupied = list(compress(range(1, n + 1), counts))
    for first, i in enumerate(occupied):
        for j in occupied[first:]:
            if i + j > n:
                break
            if i == j and counts[i - 1] < 2:
                continue
            label = (i - 1) * (n - i) + j  # after the N + 1 - 2i' pairs of each i' < i
            pair = table._kernel[label - 1] * counts[i - 1] * (counts[j - 1] - (i == j))
            rate = (pair if i != j else pair // 2 if type(pair) is int else pair / 2) * table._dt
            if rate != 0:
                total = total + rate
                ints = ints and type(table.kernel_values[label - 1]) is int
    if table.is_float:
        return total
    return total // table.scale if ints else Fraction(total, table.scale)


def _collided(counts: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    """``counts`` after one droplet of bin ``i`` merges with one of bin ``j``."""
    after = list(counts)
    after[i - 1] -= 1
    after[j - 1] -= 1
    after[i + j - 1] += 1
    return tuple(after)


def _trusted(counts: tuple[int, ...]) -> MassDistribution:
    """``MassDistribution(counts)`` unchecked, for a collision from a valid state."""
    state = object.__new__(MassDistribution)
    object.__setattr__(state, "counts", counts)  # not through __dict__, which costs memory
    object.__setattr__(state, "_hash", hash((counts,)))
    return state


def apply_pair(state: MassDistribution, i: int, j: int) -> MassDistribution:
    """Post-collision state for the ``(i, j)`` collision."""
    counts = state.counts
    if not (1 <= i and 1 <= j and i + j <= len(counts)):  # so the result needs no check
        raise LabelError(f"({i},{j}) is not a collision pair of {len(counts)} bins")
    if i == j and counts[i - 1] < 2:
        raise InfeasibleTransitionError(f"bin {i} holds {counts[i - 1]} droplets, need 2")
    if i != j and (counts[i - 1] < 1 or counts[j - 1] < 1):
        raise InfeasibleTransitionError(
            f"bins ({i},{j}) hold ({counts[i - 1]},{counts[j - 1]}), need one each"
        )
    return _trusted(_collided(counts, i, j))


_SHARED_STATES = 16  # the largest level whose structure every table of its N shares
_COUNTS, _TERMS = np.int16, np.int32  # a level's counts and rank terms: small, as they are kept


@cache
def _ranking(n_bins: int) -> tuple:
    """The tables that rank the states of ``n_bins`` bins (Knuth, TAOCP 4A,
    7.2.1.4).  A state's rank, its index in ascending counts order, is
    ``sum_b S_b[R_b, n_b]``: ``R_b`` is the mass in bins ``b..N``, and
    ``S_b[R, c] = sum_{c' < c} P_b(R - b c')``, ``P_b(m)`` counting the
    partitions of ``m`` into parts above ``b``, is ``rows[base[b - 1] +
    c][R]``; ``table`` is ``rows`` flat (int64 while ``p(N)`` fits one,
    else Python ints), read at :func:`_terms`.  Per label: its bins, 0-based,
    whether they are one (``same``), and what a collision adds to counts
    (``moves``) and rank terms.  Last, the memo of :func:`_structure` that
    every table of ``N`` shares."""
    above, blocks = [1] + [0] * n_bins, []  # P_N: only the empty partition
    for b in range(n_bins, 0, -1):
        block = [[0] * (n_bins + 1)]
        for c in range(n_bins // b):
            block.append([s + (above[r - b * c] if r >= b * c else 0)
                          for r, s in enumerate(block[-1])])
        blocks.insert(0, block)
        for m in range(b, n_bins + 1):  # P_{b-1}: parts of size b join
            above[m] += above[m - b]
    rows = [row for block in blocks for row in block]
    base = np.cumsum([0] + [len(block) for block in blocks], dtype=_TERMS)[:-1]
    table = np.array(rows, dtype=np.int64 if above[n_bins] < 2**63 else object).ravel()
    first, second = (np.array(label_pairs(n_bins), dtype=np.intp).reshape(-1, 2) - 1).T
    moves, every = np.zeros((len(first), n_bins), dtype=np.int16), np.arange(len(first))
    moves[every, first] -= 1  # int16 holds every move and shift, and keeps these H x N small
    moves[every, second] -= 1
    moves[every, first + second + 1] += 1
    mass = moves * np.arange(1, n_bins + 1, dtype=np.int16)  # R_b moves by the mass below b
    shifts = moves * np.int16(n_bins + 1) - np.cumsum(mass, axis=1, dtype=np.int16) + mass
    return table, base, first, second, first == second, moves, shifts, {}


def _terms(n_bins: int, counts: np.ndarray) -> np.ndarray:
    """Where each bin's rank term of each state of ``counts`` (a row per
    state) sits in the flat table, ``(base[b - 1] + n_b) (N + 1) + R_b``,
    as int32: a state's rank is the sum of its row's entries there."""
    mass = counts * np.arange(1, n_bins + 1, dtype=_TERMS)
    left = n_bins - np.cumsum(mass, axis=1, dtype=_TERMS) + mass
    return ((_ranking(n_bins)[1] + counts) * (n_bins + 1) + left).astype(_TERMS, copy=False)


def _reach(n_bins: int, size: int, counts: np.ndarray, src: np.ndarray, col: np.ndarray,
           targets: np.ndarray) -> tuple:
    """Of edges with states ``src`` (ascending, of ``size`` states with
    ``counts``), label columns ``col`` and target ranks ``targets``: each
    state's first edge (``start``), and the distinct targets' first edges
    (``firsts``, by target rank) and counts."""
    order = targets.argsort(kind="stable")
    firsts = np.empty(len(order), dtype=bool)
    firsts[:1], firsts[1:] = True, targets[order[1:]] != targets[order[:-1]]
    firsts = order[firsts]
    return (src.searchsorted(np.arange(size + 1)), firsts,
            counts[src[firsts]] + _ranking(n_bins)[5][col[firsts]])


def _structure(n_bins: int, ranks: np.ndarray, counts: np.ndarray) -> tuple:
    """The kernel-free part of the rows of the states ``ranks`` (ascending,
    with ``counts``): per edge, one per feasible pair in (state, label)
    order, its state, label column, ``n_i`` and ``n_j`` (``n_i - 1`` where
    ``i = j``) and target rank, read at its source's :func:`_terms` shifted
    by its label; then the edges' :func:`_reach`.  It depends on ``N`` and
    the states alone, so tables of one ``N`` share a small level's, which
    spares many small tables the pass's fixed cost."""
    table, _, first, second, same, _, shifts, shared = _ranking(n_bins)
    key = tuple(ranks.tolist()) if len(ranks) <= _SHARED_STATES else None
    found = shared.get(key)
    if found is None:
        step = max(1, 2**18 // len(first))  # states a block, so its columns stay small
        edge = np.concatenate([  # n_i, and n_j or n_i - 1 where i = j, both above 0
            ((counts[a:a + step, first] > 0) & (counts[a:a + step, second] > same)).ravel()
            .nonzero()[0] + a * len(first) for a in range(0, len(ranks) or 1, step)])
        src, col = np.divmod(edge, len(first))
        held, other = counts[src, first[col]], counts[src, second[col]] - same[col]
        terms, step = _terms(n_bins, counts), max(1, 2**20 // n_bins)
        targets = np.concatenate([table.take(terms[src[e:e + step]] + shifts[col[e:e + step]])
                                  .sum(axis=1) for e in range(0, len(src) or 1, step)])
        found = (src, col, held, other, targets,
                 *_reach(n_bins, len(ranks), counts, src, col, targets))
        if key is not None and len(shared) < 4096:
            for part in found:
                part.flags.writeable = False
            shared[key] = found
    return found


def _unrank(n_bins: int, ranks: np.ndarray) -> np.ndarray:
    """The counts rows of the states ``ranks``: bin by bin, the largest count
    whose states do not all rank above what is left of the rank."""
    table, base = _ranking(n_bins)[:2]
    table, left = table.reshape(-1, n_bins + 1), np.full(len(ranks), n_bins)
    counts, ranks = np.zeros((len(ranks), n_bins), dtype=np.int64), np.array(ranks)
    for b, first in enumerate(base.tolist(), start=1):
        c = sum((s <= left // b) & (table[first + s, left] <= ranks)  # S_b ascends in c
                for s in range(1, n_bins // b + 1))
        ranks, left, counts[:, b - 1] = ranks - table[first + c, left], left - b * c, c
    return counts


class _Met(dict):
    """The states a table has met, by rank, with ``ranks`` by counts; a rank
    not met yet is unranked on its first read."""

    def __init__(self, n_bins: int) -> None:
        super().__init__()
        self.n_bins, self.ranks = n_bins, {}

    def meet(self, state: MassDistribution, rank: int) -> MassDistribution:
        self[rank], self.ranks[state.counts] = state, rank
        return state

    def __missing__(self, rank: int) -> MassDistribution:
        return self.meet(_trusted(tuple(_unrank(self.n_bins, [rank])[0].tolist())), rank)

    def listing(self, ranks: np.ndarray, counts: np.ndarray) -> list[MassDistribution]:
        """The states ``ranks``, each built from its ``counts`` row if new."""
        keys = ranks.tolist()
        fresh = [i for i, k in enumerate(keys) if k not in self]
        if fresh:
            for at, row in zip(fresh, counts[fresh].tolist()):
                self.meet(_trusted(tuple(row)), keys[at])
        return list(map(self.__getitem__, keys))


def common_numerators(numbers: Sequence) -> tuple[list[int], int]:
    """``numbers``, each an ``int`` or a ``Fraction``, as integer
    numerators over their least common denominator."""
    ratios = [x.as_integer_ratio() for x in numbers]
    dens = {den for _, den in ratios}
    common = math.lcm(*dens)
    factor = {den: common // den for den in dens}  # a few denominators among many numbers
    return [num * factor[den] for num, den in ratios], common


def _read_scaled(num: np.ndarray, scale: int, at) -> np.ndarray:
    """The values ``num[at] / scale``, one ``Fraction`` each."""
    return np.fromiter((Fraction(n, scale) for n in num[at].tolist()), object, len(at))


_halve_each = np.frompyfunc(lambda twice: twice // 2 if type(twice) is int else twice / 2, 1, 1)


def _halve(twice: np.ndarray) -> np.ndarray:
    """``twice`` halved as the rule halves: ``//`` on an ``int``, else ``/ 2``."""
    return twice / 2 if twice.dtype == float else _halve_each(twice)


class _Level(NamedTuple):
    """A batch of rows on arrays.  State ``i`` of ``ranks`` (ascending) has
    edges ``start[i]:start[i + 1]``, one per ``r_h != 0`` in label order,
    with ``labels``, target ranks, ``r_h / dt`` (``props``) and ``r_h``
    (``rates``), and its ``totals``; ``reach`` is the distinct targets with
    their first edges (``firsts``) and counts, from which the next level
    derives its rank terms (:func:`_terms`)."""

    ranks: np.ndarray
    start: np.ndarray
    labels: np.ndarray
    targets: np.ndarray
    props: np.ndarray
    rates: np.ndarray
    totals: np.ndarray
    firsts: np.ndarray
    reach: np.ndarray
    reach_counts: np.ndarray

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.start)


class StepProgram(NamedTuple):
    """A run's step as a sparse map over its positions: position ``p``
    is the state of rank ``ranks[p]``, with the counts ``counts[p]``.

    The positions are the sources, then each level's states, each in
    ascending rank (so ascending counts) order.  One step ``x' = A x``
    adds ``prob[col] * coef`` into ``row`` from zero, term by term, in
    stored order, so each state's sum runs in that order: for the solver,
    ``A = I + dt Q``, every closure state's unit diagonal ``(p, p, 1)``,
    then every outflow ``(src, src, -r_h)``, then every inflow ``(dst,
    src, r_h)``, each in ascending (source counts, label) order; for the
    division model, every :meth:`TransitionTable.children` term
    ``(target, p, weight)``, stably sorted by label from ascending counts
    order, so the holds ``(p, p, s_1)`` come first.  ``coef`` holds the
    table's numbers: float64 on a float table, and on an exact one ``int``
    numerators (``dtype=object``) over the table's ``scale``, which the
    program carries (``1`` on a float table).  ``levels[d]`` lists the
    positions of the states first reached at step ``d + 1``, in the order
    reached: each level's states in ascending counts order, each state's
    targets in label order.
    """

    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    levels: list[list[int]]
    scale: int
    ranks: np.ndarray
    counts: np.ndarray

    def vector(self, size: int, at: Sequence[int], values: Sequence) -> np.ndarray:
        """Length ``size``, ``values`` at indices ``at`` and zero elsewhere,
        in the program's number type: float64, or on an exact program each
        value as a ``Fraction``, so a float start is the rational it holds.
        A value that is not finite is refused on both."""
        for value in values:
            if not -math.inf < value < math.inf:
                raise StateSpaceError(f"start value {value} is not finite")
        if self.coef.dtype == object:
            values = list(map(Fraction, values))
        out = np.zeros(size, dtype=self.coef.dtype)
        out[at] = values
        return out

    def run(self, prob: np.ndarray, steps: int) -> Iterator[Callable]:
        """Take ``steps`` steps from ``prob``, a :meth:`vector`, each summing
        every state from zero; after each, yield a function that reads the
        values at an index array.

        A float64 run adds every term with one ``np.add.at``: a dead source
        adds ``±0.0``, which moves no sum, since each starts at ``0.0``.  An
        exact run steps the integer numerators ``x = B S^t P`` instead,
        where ``S`` is the program's ``scale`` and ``B`` the lcm of the
        start values' denominators: ``sum coef x[col]`` over the nonzero
        sources, on Python ints with no gcd, and one ``Fraction`` per value
        read.  Rational sums are exact in any order.
        """
        if self.coef.dtype != object:
            for _ in range(steps):
                nxt = np.zeros(len(prob))
                np.add.at(nxt, self.row, prob[self.col] * self.coef)
                prob = nxt
                yield prob.__getitem__
            return
        num, scale = common_numerators(prob.tolist())
        num = np.array(num, dtype=object)
        for _ in range(steps):
            live = (num != 0)[self.col]
            nxt = np.zeros(len(num), dtype=object)
            np.add.at(nxt, self.row[live], num[self.col[live]] * self.coef[live])
            num, scale = nxt, scale * self.scale
            yield partial(_read_scaled, num, scale)


@dataclass(frozen=True)
class TransitionTable:
    """Label <-> bin-pair bijection with kernel values and time step, and
    the sparse transition rows it compiles, a batch of states at a time.

    Labels ``1..H`` enumerate the pairs in lexicographic ``(i, j)`` order
    (``i <= j``, ``i + j <= N``); label 0 is the reserved no-transition
    case and is not stored.  ``pairs`` is ``label_pairs(num_bins)``.

    An exact table (``dt`` and every kernel value an ``int`` or a
    ``Fraction``) computes on integer numerators over one ``scale``: the
    lcm of the kernel values' denominators times ``dt``'s.  Its rows and
    step programs hold Python ``int``s over ``scale``, and ``Fraction``s
    are built only where values leave it.  A float table keeps its inputs,
    with ``scale`` 1; when ``dt`` and every kernel value are floats its
    rows are float64 arrays, and otherwise arrays of the Python numbers.

    A state's index is its rank, its place in ascending counts order, so
    ordering indices orders counts; ``states`` holds the states the table
    has met, by rank.  Rows are compiled a breadth-first level at a time,
    one array pass each, when a run first needs that level's outflows:
    only the support a run can reach is built.  The solver and the merged
    division model step on the one map :meth:`program` builds; the history
    tree reads :meth:`children`, and the Gillespie sampler :meth:`events`.
    The states and rows are not fields: equality, hash and repr read the
    four fields alone.
    """

    num_bins: int
    dt: float
    pairs: tuple[tuple[int, int], ...] = field(init=False)
    kernel_values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _table_pairs(self.num_bins))
        # comparisons, not isfinite, which overflows on a huge int or Fraction
        if not 0 < self.dt < math.inf:
            raise StateSpaceError(f"time step must be positive and finite, got {self.dt}")
        if len(self.kernel_values) != len(self.pairs):
            raise StateSpaceError(f"need {len(self.pairs)} kernel values for N = "
                                  f"{self.num_bins}, got {len(self.kernel_values)}")
        # exact when dt and every kernel value are ints or Fractions, so every
        # r_h is one; anything else makes the r_h floats, and runs float64
        types = {type(self.dt), *map(type, self.kernel_values)}
        is_float = not types <= {int, Fraction}
        for value in self.kernel_values:  # an exact value is finite: its sign is the check
            if not (0 <= value < math.inf if is_float else value.numerator >= 0):
                raise StateSpaceError(f"kernel value must be finite and >= 0, got {value}")
        if is_float:  # the rule's K, r_h / dt per unit K and dt, over scale 1
            numbers = (self.kernel_values, 1, self.dt, 1)
        else:  # K = k / L and dt = p / q: r_h / dt is (k n n) q and r_h (k n n) p over L q
            kernel, common = common_numerators(self.kernel_values)
            p, q = self.dt.as_integer_ratio()
            numbers = (tuple(kernel), q, p, common * q)
        for name, value in zip(("_kernel", "_up", "_dt", "scale"), numbers):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "is_float", is_float)
        object.__setattr__(self, "one", 1.0 if is_float else Fraction(1))
        # the rows' number type: float64 on float inputs, else Python's own
        object.__setattr__(self, "_number", float if types == {float} else object)
        object.__setattr__(self, "states", _Met(self.num_bins))
        for name in ("_rows", "_levels", "_walks", "_events", "_children"):
            object.__setattr__(self, name, {})
        object.__setattr__(self, "_next", ())

    @property
    def num_labels(self) -> int:
        """Total number of collision labels ``H``."""
        return len(self.pairs)

    def pair_of(self, label: int) -> tuple[int, int]:
        if not 1 <= label <= self.num_labels:
            raise LabelError(f"label {label} outside [1, {self.num_labels}]")
        return self.pairs[label - 1]

    def index(self, state: MassDistribution) -> int:
        """The rank of ``state``; O(1) once the table has met it."""
        if state.num_bins != self.num_bins:
            raise StateSpaceError(f"state {state.counts} does not have {self.num_bins} bins")
        found = self.states.ranks.get(state.counts)
        if found is None:
            terms = _terms(self.num_bins, np.array([state.counts], dtype=_COUNTS))
            found = int(_ranking(self.num_bins)[0].take(terms).sum())
            self.states.meet(state, found)
        return found

    @cached_property
    def _kernels(self) -> np.ndarray:
        return np.array(self._kernel, dtype=self._number)

    def _expand(self, ranks: np.ndarray, counts: np.ndarray) -> _Level:
        """The rows of the states ``ranks`` (ascending, with ``counts``): the
        :func:`_structure` of every state and label, and each ``r_h`` formed
        as the scalar rule forms it, ``(K n_i) n_j`` or ``(K n)(n - 1) / 2``
        (:func:`_halve` through one ``same`` mask), then ``* dt``; as in the
        rule, no edge where ``r_h`` is zero, those filtered out, reach recounted."""
        src, col, held, other, targets, *reach = _structure(self.num_bins, ranks, counts)
        pair, halved = self._kernels[col] * held * other, _ranking(self.num_bins)[4][col]
        pair[halved] = _halve(pair[halved])
        rates = pair * self._dt
        keep = rates != 0
        if not keep.all():
            src, col, targets, pair, rates = (a[keep] for a in (src, col, targets, pair, rates))
            reach = _reach(self.num_bins, len(ranks), counts, src, col, targets)
        start, firsts, reach_counts = reach
        totals = np.full(len(ranks), 0 * self._dt, dtype=self._number)
        np.add.at(totals, src, rates)  # in index order: each a left fold from zero
        return _Level(ranks, start, col + 1, targets, np.multiply(pair, self._up, out=pair),
                      rates, totals, firsts, targets[firsts], reach_counts)

    def _level(self, ranks: np.ndarray, counts: np.ndarray) -> _Level:
        """The level of the states ``ranks``, compiled on first use."""
        key = tuple(ranks.tolist())
        level = self._levels.get(key)
        if level is None:
            level = self._levels[key] = self._expand(ranks, counts)
            self._rows.update(zip(key, zip(repeat(level), range(len(key)))))
            object.__setattr__(self, "_next", level)
        return level

    def _row(self, k: int) -> tuple[_Level, int]:
        """The level holding state ``k``'s row, and its place there; a state
        not compiled yet is, with the last level's other new targets."""
        found = self._rows.get(k)
        if found is None:
            last, reach = self._next, self._next.reach.tolist() if self._next else ()
            if k in reach:
                fresh = [r not in self._rows for r in reach]
                reach = last.reach, last.reach_counts
                self._level(*(reach if all(fresh) else (part[fresh] for part in reach)))
            else:
                self._level(np.array([k]), np.array([self.states[k].counts], dtype=_COUNTS))
            found = self._rows[k]
        return found

    def _check(self, level: _Level, at: int | None = None) -> None:
        """The step-size check, ``sum_h r_h <= 1``, of the level's states (or
        its state ``at``), the first over the limit raising; it leaves the
        division split unclipped: ``s_{h+1} >= r_h``."""
        totals = level.totals.tolist()
        for at in range(len(totals)) if at is None else [at]:
            if (total := totals[at]) > self.scale:
                raise StepSizeError(
                    "sum of transition probabilities "
                    f"{total if self.is_float else Fraction(total, self.scale)} > 1 for state "
                    f"{self.states[level.ranks[at:at + 1].tolist()[0]].counts}; reduce dt")

    def _split(self, rates: np.ndarray, degree: np.ndarray, totals: np.ndarray) -> tuple:
        """The division split of checked rows (row ``i`` the next ``degree[i]``
        rates, with ``totals[i]``): labels visited ``H..1``, label ``h``
        claiming ``r_h / s_{h+1}`` of what is unclaimed; each edge's weight
        and each row's hold ``s_1``.  In Q they are ``r_h`` and ``scale -
        total``; a float row takes the loop, one label position at a time."""
        if not self.is_float:
            return rates, self.scale - totals
        at = np.repeat(np.arange(len(degree)), degree)
        pos = np.arange(len(rates)) - (np.cumsum(degree) - degree)[at]
        claims = np.zeros((len(degree), degree.max(initial=0)), dtype=rates.dtype)
        claims[at, pos] = rates
        weights, hold = np.zeros_like(claims), np.full(len(degree), self.one, dtype=rates.dtype)
        for p in reversed(range(claims.shape[1])):  # a zero-rate label leaves s unchanged
            live = np.flatnonzero((degree > p) & (hold > 0))
            modified = np.minimum(claims[live, p] / hold[live], self.one)
            weights[live, p] = modified * hold[live]
            hold[live] = (1 - modified) * hold[live]
        return weights[at, pos], hold

    def events(self, k: int) -> tuple[float, tuple[int, ...], np.ndarray]:
        """What the Gillespie sampler draws from in state ``k``: the event
        rate ``sum_h r_h / dt``, the row's targets, and the cumulative label
        distribution at the row's labels, both taken on the length-``H``
        float vector of the row's propensities, each correctly rounded; kept
        for every state of ``k``'s level from the first visit."""
        found = self._events.get(k)
        if found is None:
            level = self._row(k)[0]
            at = np.repeat(np.arange(len(level.ranks)), level.degree)
            dense = np.zeros((len(level.ranks), self.num_labels))
            dense[at, level.labels - 1] = level.props / self.scale  # scale 1 on a float table
            rate = dense.sum(axis=1)  # each row's own pairwise sum, as a vector's
            cdf = np.cumsum(dense, axis=1)[at, level.labels - 1] / rate[at]
            self.states.listing(level.reach, level.reach_counts)  # as the sampler returns them
            start, targets = level.start.tolist(), level.targets.tolist()
            for i, (rank, a, b) in enumerate(zip(level.ranks.tolist(), start, start[1:])):
                self._events[rank] = (rate[i], tuple(targets[a:b]), cdf[a:b])
            found = self._events[k]
        return found

    def children(self, k: int) -> tuple[tuple, ...]:
        """State ``k``'s children after the step-size check: its split's
        ``(label, target, weight)`` per nonzero weight, the labels in order,
        then the hold ``s_1`` as label 0 (ints over ``scale`` on an exact
        table); kept for each checked state of its level from the first visit."""
        found = self._children.get(k)
        if found is None:
            level, i = self._row(k)
            self._check(level, i)
            weights, hold = self._split(level.rates, level.degree, level.totals)
            self.states.listing(level.reach, level.reach_counts)  # as run_tree lists them
            start, labels, targets, weights, hold, totals = (a.tolist() for a in (
                level.start, level.labels, level.targets, weights, hold, level.totals))
            for rank, a, b, h, total in zip(level.ranks.tolist(), start, start[1:], hold, totals):
                if total <= self.scale:
                    kept = weights[a:b] + [h]
                    self._children[rank] = tuple(compress(zip(
                        labels[a:b] + [0], targets[a:b] + [rank], kept), kept))
            found = self._children[k]
        return found

    def _walk(self, sources: Sequence[int], steps: int) -> tuple:
        """The closure of ``steps`` steps from ``sources``, each level compiled
        and checked before it is expanded; kept once it passes.  It gives the
        positions first reached at each step, in the order reached; each
        position's rank and counts (the sources, then each level, by rank);
        the stepping states' positions, degrees and totals, by rank; and
        their edges by (source rank, label): source and target positions,
        labels and ``r_h``."""
        key = (tuple(sorted(set(sources))), steps)  # np.unique would import numpy.ma
        found = self._walks.get(key)
        if found is None:
            ranks = np.array(key[0], dtype=_ranking(self.num_bins)[0].dtype)
            counts = np.array([self.states[k].counts for k in key[0]],
                              dtype=_COUNTS).reshape(len(ranks), self.num_bins)
            parts, stepping, levels, reached = [(ranks, counts)], [], [], set(key[0])
            for _ in range(steps):
                level = self._level(ranks, counts)
                self._check(level)
                stepping.append(level)
                new = [r not in reached for r in level.reach.tolist()]
                ranks, counts, firsts = level.reach, level.reach_counts, level.firsts
                if not all(new):
                    ranks, counts, firsts = (part[new] for part in (ranks, counts, firsts))
                levels.append((len(reached) + firsts.argsort()).tolist())
                reached.update(ranks.tolist())
                parts.append((ranks, counts))
            ranks, counts = map(np.concatenate, zip(*parts))
            where = ranks.argsort()
            place = lambda r: where[ranks.searchsorted(r, sorter=where)]  # noqa: E731
            src, degree, targets, labels, rates, totals = (np.concatenate(
                [getattr(lv, name) for lv in stepping] or [np.zeros(0, dtype=int)])
                for name in ("ranks", "degree", "targets", "labels", "rates", "totals"))
            order, edges = src.argsort(), np.repeat(src, degree).argsort(kind="stable")
            found = self._walks[key] = (
                levels, ranks, counts, place(src[order]), degree[order], totals[order],
                place(np.repeat(src, degree)[edges]), place(targets[edges]), labels[edges],
                rates[edges])
        return found

    def program(self, sources: Sequence[int], steps: int, sequential: bool = False) -> StepProgram:
        """The step map for ``steps`` steps from the states of ranks
        ``sources``, over the states they reach, for the solver or,
        ``sequential``, the division model; where both runs are checked.

        Each level that will step is checked, in ascending counts order,
        before it is expanded: a state at depth ``d`` first steps at step
        ``d + 1``, so a run fails on the state its executor would meet
        first, without compiling deeper rows.  The ``levels`` are the depths
        ``1..steps``; the division map forms every stepping state's split."""
        require_count("steps", steps, 0, StateSpaceError)
        levels, ranks, counts, held, degree, totals, out, into, labels, rates = self._walk(
            sources, steps)
        number = float if self.is_float else object
        if not sequential:  # A = I + dt Q: unit diagonals lead the rows
            diag, rate = np.arange(len(ranks)), rates.astype(number)
            row, col = np.concatenate([diag, out, into]), np.concatenate([diag, out, out])
            coef = np.concatenate([np.full(len(diag), self.scale, number), -rate, rate])
        else:  # the holds, in ascending counts, then the moves by label
            weights, hold = self._split(rates, degree, totals)
            moved = np.flatnonzero(weights)
            moved, kept = moved[labels[moved].argsort(kind="stable")], hold != 0
            row = np.concatenate([held[kept], into[moved]])
            col = np.concatenate([held[kept], out[moved]])
            coef = np.concatenate([hold[kept], weights[moved]]).astype(number)
        return StepProgram(row, col, coef, levels, self.scale, ranks, counts)


def partition_count_exact(n: int) -> int:
    """Number of integer partitions ``p(n)``, counted one part size at a time."""
    require_count("n", n, 1, StateSpaceError)
    counts = [1] + [0] * n  # partitions of each total into the part sizes so far
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def partition_count_asymptotic(n: int) -> float:
    """Hardy-Ramanujan leading-order estimate of the partition count."""
    require_count("n", n, 1, StateSpaceError)
    return math.exp(math.pi * math.sqrt(2 * n / 3)) / (4 * n * math.sqrt(3))


def enumerate_states(n_bins: int) -> list[MassDistribution]:
    """All reachable occupation vectors for total mass ``n_bins``.

    Returned in ascending lexicographic order of the counts vector, so the
    monodisperse state is last and the fully coalesced one first.  Raises
    :class:`ResourceLimitError` past :data:`DEFAULT_ENUMERATION_CAP`, read
    at call time, since the state count grows like ``exp(sqrt(n))``.
    """
    require_count("N", n_bins, 1, StateSpaceError)
    if n_bins > DEFAULT_ENUMERATION_CAP:
        raise ResourceLimitError(
            f"N = {n_bins} exceeds cap {DEFAULT_ENUMERATION_CAP}: would enumerate "
            f"{partition_count_exact(n_bins)} states"
        )
    counts = _unrank(n_bins, np.arange(partition_count_exact(n_bins))).tolist()
    return [_trusted(tuple(row)) for row in counts]
