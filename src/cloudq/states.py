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
from functools import partial, reduce
from itertools import chain, compress
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 60


class StateSpaceError(ValueError):
    """Invalid state, label, or kernel input."""


class ResourceLimitError(StateSpaceError):
    """Enumeration would exceed the configured size cap."""


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
    """Closed-form pair count: ``N^2/4`` for even ``N``, ``(N^2-1)/4`` odd."""
    if n_bins % 2 == 0:
        return n_bins * n_bins // 4
    return (n_bins * n_bins - 1) // 4


def label_pairs(n_bins: int) -> tuple[tuple[int, int], ...]:
    """Collision pairs ``(i, j)``, ``i <= j``, ``i + j <= N``, in label order."""
    return tuple(
        (i, j)
        for i in range(1, n_bins + 1)
        for j in range(i, n_bins + 1)
        if i + j <= n_bins
    )


def qubits_for_bin(n_bins: int, bin_index: int) -> int:
    """Register width for bin ``bin_index``: ``ceil(log2(floor(N/i) + 1))``."""
    return math.ceil(math.log2(n_bins // bin_index + 1))


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


def _pair_propensity(kernel, counts: Sequence[int], i: int, j: int):
    """``r_h / dt`` of pair ``(i, j)``: ``K n_i n_j``, or ``K n_i (n_i-1) / 2``
    for equal bins (halved with ``//`` on an ``int``, so it stays one);
    exactly zero whenever the source bins are under-populated.
    """
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


def total_transition_rate(table: TransitionTable, state: MassDistribution):
    """``sum_h r_h(state)``, folded from the rate rule as a row's ``total``
    is, with no row compiled; must stay <= 1 for a valid explicit step.
    On an exact table it is the type the inputs give it: an ``int`` when
    ``dt`` and the kernel values of its nonzero rates are ints (so a
    caller's ``1 / total`` is a float), else a ``Fraction``."""
    if state.num_bins != table.num_bins:
        raise StateSpaceError(f"state {state.counts} does not have {table.num_bins} bins")
    rule = list(table._rule(state.counts))
    total = reduce(operator.add, (r for *_, r in rule), 0 * table._dt)
    if table.is_float:
        return total
    if type(table.dt) is int and all(type(table.kernel_values[h - 1]) is int for h, *_ in rule):
        return total // table.scale
    return Fraction(total, table.scale)


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


class OperatorRow(NamedTuple):
    """One compiled state: what the rate rule gives, for ``r_h != 0``, in label order.

    ``targets`` are the state indices of the post-collision states, and
    ``propensities`` each label's ``r_h / dt``; ``total`` is ``sum_h r_h``.
    On an exact table each is an ``int`` over the table's ``scale``.  No
    row holds the division split: a division run forms it from the checked
    row.  Only :class:`TransitionTable` reads a row; other modules see its
    :meth:`~TransitionTable.children`, :meth:`~TransitionTable.events` and
    step programs.
    """

    labels: tuple[int, ...]
    targets: tuple[int, ...]
    propensities: tuple
    total: object


def common_numerators(numbers: Sequence) -> tuple[list[int], int]:
    """``numbers``, each an ``int`` or a ``Fraction``, as integer
    numerators over their least common denominator."""
    ratios = [x.as_integer_ratio() for x in numbers]
    common = math.lcm(*{den for _, den in ratios})
    return [num * (common // den) for num, den in ratios], common


def _read_scaled(num: np.ndarray, scale: int, at) -> np.ndarray:
    """The values ``num[at] / scale``, one ``Fraction`` each."""
    return np.fromiter((Fraction(n, scale) for n in num[at].tolist()), object, len(at))


class StepProgram(NamedTuple):
    """A run's step as a sparse map over state indices.

    One step ``x' = A x`` adds ``prob[col] * coef`` into ``row`` from zero,
    term by term, in stored order, so each state's sum runs in that order:
    for the solver, ``A = I + dt Q``, every closure state's unit diagonal
    ``(k, k, 1)``, then every outflow ``(src, src, -r_h)``, then every
    inflow ``(dst, src, r_h)``, each in ascending (source counts, label)
    order; for the division model, every :meth:`TransitionTable.children`
    term ``(target, k, weight)``, stably sorted by label from ascending
    counts order, so the holds ``(k, k, s_1)`` come first.  ``coef`` holds
    the table's numbers: float64 on a float table, and on an exact one
    ``int`` numerators (``dtype=object``) over the table's ``scale``, which
    the program carries (``1`` on a float table).
    ``levels[d]`` lists the states first reached at step ``d + 1``, in the
    order reached: each level's states in ascending counts order, each
    state's targets in label order.
    """

    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    levels: list[list[int]]
    scale: int

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
    the sparse transition rows it compiles, per state on first use.

    Labels ``1..H`` enumerate the pairs in lexicographic ``(i, j)`` order
    (``i <= j``, ``i + j <= N``); label 0 is the reserved no-transition
    case and is not stored.  ``pairs`` is ``label_pairs(num_bins)``.

    An exact table (``dt`` and every kernel value an ``int`` or a
    ``Fraction``) computes on integer numerators over one ``scale``: the
    lcm of the kernel values' denominators times ``dt``'s.  Its rows and
    step programs hold ``int``s over ``scale``, and ``Fraction``s are
    built only where values leave it.  A float table keeps its inputs,
    with ``scale`` 1.

    A state gets an index when first seen, as a start state or as the
    target of a compiled row; its row is compiled when a run first needs
    its outflows.  Only the support a run can reach is ever built, never
    the whole state space.  The solver and the merged division model,
    float or rational, step on the one map :meth:`program` builds; the
    history tree reads :meth:`children`, and the Gillespie sampler
    :meth:`events`.  The indexed ``states`` and the compiled rows are not
    fields: equality, hash and repr read the four fields alone.
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
        is_float = not {type(self.dt), *map(type, self.kernel_values)} <= {int, Fraction}
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
        object.__setattr__(self, "states", [])
        object.__setattr__(self, "_rows", [])
        object.__setattr__(self, "_index", {})
        object.__setattr__(self, "_events", {})
        object.__setattr__(self, "_children", {})

    @property
    def num_labels(self) -> int:
        """Total number of collision labels ``H``."""
        return len(self.pairs)

    def pair_of(self, label: int) -> tuple[int, int]:
        if not 1 <= label <= self.num_labels:
            raise LabelError(f"label {label} outside [1, {self.num_labels}]")
        return self.pairs[label - 1]

    def index(self, state: MassDistribution) -> int:
        """State index of ``state``, assigned on first sight."""
        if state.num_bins != self.num_bins:
            raise StateSpaceError(f"state {state.counts} does not have {self.num_bins} bins")
        found = self._index.get(state.counts)
        if found is None:
            found = self._index[state.counts] = len(self.states)
            self.states.append(state)
            self._rows.append(None)
        return found

    def row(self, k: int) -> OperatorRow:
        """Row of state ``k``, compiled on first use."""
        row = self._rows[k]
        if row is None:
            row = self._rows[k] = self._compile(self.states[k].counts)
        return row

    def _rule(self, counts: tuple[int, ...]) -> Iterator[tuple]:
        """The one rate rule, on the table's numbers: ``(label, i, j, r_h /
        dt, r_h)`` for each pair of occupied bins with ``r_h != 0``, in label
        order, from ``counts`` alone; ``int``s over ``scale`` on an exact table."""
        n, kernel, up, dt = self.num_bins, self._kernel, self._up, self._dt
        occupied = list(compress(range(1, n + 1), counts))
        for first, i in enumerate(occupied):
            for j in occupied[first:]:
                if i + j > n:
                    break
                label = (i - 1) * (n - i) + j  # after the N + 1 - 2i' pairs of each i' < i
                pair = _pair_propensity(kernel[label - 1], counts, i, j)
                rate = pair * dt
                if rate != 0:
                    yield label, i, j, pair * up, rate

    def _compile(self, counts: tuple[int, ...]) -> OperatorRow:
        labels, targets, propensities, total = [], [], [], 0 * self._dt
        for label, i, j, propensity, rate in self._rule(counts):
            after = _collided(counts, i, j)
            target = self._index.get(after)
            labels.append(label)
            targets.append(self.index(_trusted(after)) if target is None else target)
            propensities.append(propensity)
            total = total + rate  # a left fold, as total_transition_rate's, on every Python
        return OperatorRow(*map(tuple, (labels, targets, propensities)), total)

    def _rates(self, propensities: Sequence) -> list:
        """Each ``r_h / dt`` in ``propensities`` as the rule's ``r_h``: ``p * dt``,
        or on an exact table the ``int`` over ``scale`` ``p // _up * _dt``."""
        if self.is_float:
            return [p * self._dt for p in propensities]
        return [p // self._up * self._dt for p in propensities]

    def _split(self, k: int) -> Iterator[tuple]:
        """The division model's split of :meth:`checked` row ``k``: labels
        visited ``H..1``, label ``h`` claiming ``r_h / s_{h+1}`` of what is
        unclaimed, as ``(label, target, weight)`` per nonzero weight, then
        the hold ``s_1`` as label 0; on an exact row, ``r_h`` and ``scale - total``."""
        row = self.checked(k)
        rates = self._rates(row.propensities)
        weights, hold = rates, self.scale - row.total  # unclipped: (r_h / s_{h+1}) s_{h+1} is r_h
        if self.is_float:  # the loop; a zero-rate label leaves s unchanged
            weights, hold = [0] * len(rates), self.one
            for pos in reversed(range(len(rates))):
                if hold <= 0:
                    break
                modified = min(rates[pos] / hold, self.one)
                weights[pos] = modified * hold
                hold = (1 - modified) * hold
        weights.append(hold)
        return compress(zip(row.labels + (0,), row.targets + (k,), weights), weights)

    def events(self, k: int) -> tuple[float, tuple[int, ...], np.ndarray]:
        """What the Gillespie sampler draws from in state ``k``: the event
        rate ``sum_h r_h / dt``, the row's targets, and the cumulative label
        distribution at the row's labels, both taken on the length-``H``
        float vector of the row's propensities, each correctly rounded.
        Built on the first visit and kept."""
        found = self._events.get(k)
        if found is None:
            row = self.row(k)
            dense = np.zeros(self.num_labels)
            stored = np.array(row.labels, dtype=np.intp) - 1
            dense[stored] = row.propensities if self.is_float else [
                p / self.scale for p in row.propensities]
            event_rate = dense.sum()
            cdf = np.cumsum(dense)[stored] / event_rate  # an absorbed state's is empty
            found = self._events[k] = (event_rate, row.targets, cdf)
        return found

    def checked(self, k: int) -> OperatorRow:
        """Row ``k`` after the step-size check, ``sum_h r_h <= 1``, which
        also leaves the division split unclipped: ``s_{h+1} >= r_h``."""
        row = self.row(k)
        if row.total > self.scale:
            total = row.total if self.is_float else Fraction(row.total, self.scale)
            raise StepSizeError(
                f"sum of transition probabilities {total} > 1 for state "
                f"{self.states[k].counts}; reduce dt"
            )
        return row

    def children(self, k: int) -> tuple[tuple, ...]:
        """Row ``k``'s children, its division split's ``(label, target,
        weight)`` per nonzero weight (a checked row has none below zero):
        the labels in order, then the hold ``s_1`` as label 0; an ``int``
        over ``scale`` on an exact table.  Built on the first visit and kept."""
        found = self._children.get(k)
        if found is None:
            found = self._children[k] = tuple(self._split(k))
        return found

    def program(self, sources: Sequence[int], steps: int, sequential: bool = False) -> StepProgram:
        """The step map for ``steps`` steps from ``sources``, over the
        state indices of the states they reach, for the solver or,
        ``sequential``, the division model; where both runs are checked.

        The closure is built breadth first, and each level that will step
        is :meth:`checked` in ascending counts order before it is
        expanded.  A state at depth
        ``d`` first steps at step ``d + 1``, so a run fails on the state
        its executor would meet first, without compiling deeper rows.
        The program's ``levels`` are the depths ``1..steps``.  The division
        model's map reads each state's split, formed here and not kept.
        """
        require_count("steps", steps, 0, StateSpaceError)
        reached = set(sources)
        level, stepping, levels = list(reached), [], []
        for _ in range(steps):
            level = sorted(level, key=lambda k: self.states[k].counts)
            stepping.extend(level)
            nxt = []
            for k in level:
                for target in self.checked(k).targets:
                    if target not in reached:
                        reached.add(target)
                        nxt.append(target)
            levels.append(nxt)
            level = nxt
        stepping.sort(key=lambda k: self.states[k].counts)
        number = float if self.is_float else object
        if sequential:  # each state's children, stably sorted by label: the holds come first
            label, dst, src, coef = [], [], [], []
            for k in stepping:
                for h, target, weight in self._split(k):
                    label.append(h)
                    dst.append(target)
                    src.append(k)
                    coef.append(weight)
            kids = np.argsort(np.array(label, dtype=np.intp), kind="stable")
            row, col = np.array(dst, dtype=np.intp)[kids], np.array(src, dtype=np.intp)[kids]
            return StepProgram(row, col, np.array(coef, dtype=number)[kids], levels, self.scale)
        rows = [self._rows[k] for k in stepping]  # A = I + dt Q: unit diagonals lead the rows
        src = np.repeat(np.array(stepping, dtype=np.intp), [len(row.labels) for row in rows])
        dst = np.fromiter(chain.from_iterable(row.targets for row in rows), np.intp, len(src))
        rate = np.array(self._rates([p for row in rows for p in row.propensities]), number)
        diag = np.array(sorted(reached), dtype=np.intp)
        unit = np.full(len(diag), self.scale, number)
        row, col = np.concatenate([diag, src, dst]), np.concatenate([diag, src, src])
        return StepProgram(row, col, np.concatenate([unit, -rate, rate]), levels, self.scale)


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


def _partitions(counts: list[int], size: int, left: int, out: list) -> None:
    """Append to ``out``, in ascending counts order, every state whose bins
    ``size..N`` hold the mass ``left``, with ``counts`` fixing the bins
    below ``size`` and every bin from ``size`` on empty: ``n_size``
    ascends, and what it leaves must be 0 or a larger part."""
    if left == 0:
        out.append(_trusted(tuple(counts)))
        return
    for count in range(left // size + 1):
        rest = left - count * size
        if rest == 0 or rest > size:
            counts[size - 1] = count
            _partitions(counts, size + 1, rest, out)
    counts[size - 1] = 0


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
    states = []
    _partitions([0] * n_bins, 1, n_bins, states)
    return states
