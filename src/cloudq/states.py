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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 60
SEQUENTIAL_TOL = 1e-12


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


@dataclass(frozen=True)
class MassDistribution:
    """Occupation vector with conserved total mass.

    ``counts[i - 1]`` is the droplet count of bin ``i``, an integer; the
    vector length fixes ``N`` and the mass identity ``sum(i * n_i) == N``
    is enforced.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise StateSpaceError("occupation vector must not be empty")
        mass = self.mass()
        if not isinstance(mass, numbers.Integral):  # a float or Fraction count makes it one
            raise StateSpaceError(f"non-integer occupation in {self.counts}")
        if any(c < 0 for c in self.counts):
            raise StateSpaceError(f"negative occupation in {self.counts}")
        if mass != len(self.counts):
            raise StateSpaceError(f"mass {mass} != N {len(self.counts)} for {self.counts}")

    @property
    def num_bins(self) -> int:
        return len(self.counts)

    def mass(self) -> int:
        return sum(map(operator.mul, range(1, len(self.counts) + 1), self.counts))

    @classmethod
    def monodisperse(cls, n_bins: int) -> "MassDistribution":
        """All mass in the first bin: ``(N, 0, ..., 0)``."""
        return cls((n_bins,) + (0,) * (n_bins - 1))

    @classmethod
    def absorbed(cls, n_bins: int) -> "MassDistribution":
        """Single largest droplet: ``(0, ..., 0, 1)``."""
        return cls((0,) * (n_bins - 1) + (1,))


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
        elif not (self.k0 >= 0 and math.isfinite(self.k0)):
            raise StateSpaceError(f"kernel constant must be finite and >= 0, got {self.k0}")

    def rate(self, i: int, j: int) -> float:
        """``K(i, j)``; symmetric and non-negative."""
        if self.kind == "constant":
            return self.k0
        if self.kind == "sum":
            return self.k0 * (i + j)
        if self.kind == "product":
            return self.k0 * i * j
        value = self.table[i - 1][j - 1]
        if not value >= 0:
            raise StateSpaceError(f"kernel table entry K({i},{j}) = {value} < 0")
        return value


@dataclass(frozen=True)
class TransitionTable:
    """Label <-> bin-pair bijection with kernel values and time step.

    Labels ``1..H`` enumerate the pairs in lexicographic ``(i, j)`` order
    (``i <= j``, ``i + j <= N``); label 0 is the reserved no-transition
    case and is not stored.
    """

    num_bins: int
    dt: float
    pairs: tuple[tuple[int, int], ...]
    kernel_values: tuple[float, ...]

    @property
    def num_labels(self) -> int:
        """Total number of collision labels ``H``."""
        return len(self.pairs)

    def pair_of(self, label: int) -> tuple[int, int]:
        if not 1 <= label <= self.num_labels:
            raise LabelError(f"label {label} outside [1, {self.num_labels}]")
        return self.pairs[label - 1]

    @cached_property
    def operator(self) -> "TransitionOperator":
        """The compiled transition operator; built once, lives with the table."""
        return TransitionOperator(self)


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


def build_transition_table(n_bins: int, kernel: KernelSpec, dt) -> TransitionTable:
    """Enumerate collision pairs for ``n_bins`` and attach kernel values."""
    if n_bins < 2:
        raise EmptyTableError(f"no collisions possible for N = {n_bins}")
    if not dt > 0:
        raise StateSpaceError(f"time step must be positive, got {dt}")
    pairs = label_pairs(n_bins)
    if len(pairs) != label_pair_count(n_bins):
        raise StateSpaceError("pair enumeration disagrees with the closed form")
    values = tuple(kernel.rate(i, j) for i, j in pairs)
    return TransitionTable(num_bins=n_bins, dt=dt, pairs=pairs, kernel_values=values)


def _pair_propensity(kernel, counts: Sequence[int], i: int, j: int):
    """``r_h / dt`` of pair ``(i, j)``: ``K n_i n_j``, or ``K n_i (n_i-1) / 2``
    for equal bins; exactly zero whenever the source bins are under-populated.
    """
    if i == j:
        n = counts[i - 1]
        if n < 2:
            return 0
        return kernel * n * (n - 1) / 2
    ni = counts[i - 1]
    nj = counts[j - 1]
    if ni < 1 or nj < 1:
        return 0
    return kernel * ni * nj


def transition_rate(table: TransitionTable, state: MassDistribution, label: int):
    """Per-step transition probability ``r_h`` of ``state`` under ``label``.

    ``K(i,j) n_i n_j dt`` for distinct bins and ``K(i,i) n_i (n_i-1) dt / 2``
    for equal bins; zero whenever the source bins are under-populated.
    """
    i, j = table.pair_of(label)
    return _pair_propensity(table.kernel_values[label - 1], state.counts, i, j) * table.dt


def total_transition_rate(table: TransitionTable, state: MassDistribution):
    """``sum_h r_h(state)``, read off the state's operator row (compiled
    on first use); must stay <= 1 for a valid explicit step."""
    op = table.operator
    return op.row(op.index(state)).total


def apply_pair(state: MassDistribution, i: int, j: int) -> MassDistribution:
    """Post-collision state for the ``(i, j)`` collision."""
    counts = list(state.counts)
    if i == j:
        if counts[i - 1] < 2:
            raise InfeasibleTransitionError(
                f"bin {i} holds {counts[i - 1]} droplets, need 2"
            )
        counts[i - 1] -= 2
    else:
        if counts[i - 1] < 1 or counts[j - 1] < 1:
            raise InfeasibleTransitionError(
                f"bins ({i},{j}) hold ({counts[i - 1]},{counts[j - 1]}), need one each"
            )
        counts[i - 1] -= 1
        counts[j - 1] -= 1
    counts[i + j - 1] += 1
    return MassDistribution(tuple(counts))


def apply_transition(table: TransitionTable, state: MassDistribution, label: int) -> MassDistribution:
    """Post-collision state for transition ``label``."""
    i, j = table.pair_of(label)
    return apply_pair(state, i, j)


class OperatorRow(NamedTuple):
    """One compiled state: its transitions with ``r_h != 0``, in label order.

    ``targets`` are operator indices of the post-collision states.
    ``weights`` and ``hold`` are the division model's sequential split
    (labels visited ``H..1``, label ``h`` claiming ``r_h / s_{h+1}`` of
    what is unclaimed) and its remainder ``s_1``; ``drift`` is the first
    label whose weight strays from ``r_h`` by more than ``SEQUENTIAL_TOL``
    (0 if none).  The Gillespie sampler's view of the row is
    :meth:`TransitionOperator.events`.
    """

    labels: tuple[int, ...]
    targets: tuple[int, ...]
    rates: tuple
    total: object
    weights: tuple
    hold: object
    drift: int


class StepProgram(NamedTuple):
    """Flat arrays for a run's steps over the states it can reach.

    ``states`` are in ascending counts order and ``where`` maps operator
    indices to their positions.  Edges (``src`` and ``dst`` positions,
    ``label``, ``rate``, ``weight``) come in ascending source, then label
    order.  ``hold`` is per position and reads zero for states the run
    never steps from.  ``rate``, ``weight`` and ``hold`` hold the table's
    number type: float64 on a float table, Python numbers
    (``dtype=object``) otherwise, so rational tables stay exact.
    """

    states: list[MassDistribution]
    where: dict[int, int]
    src: np.ndarray
    dst: np.ndarray
    label: np.ndarray
    rate: np.ndarray
    weight: np.ndarray
    hold: np.ndarray

    def vector(self, positions: Sequence[int], values: Sequence) -> np.ndarray:
        """``values`` at ``positions`` and zero elsewhere.

        Float64 when the program and every value are floats; Python
        numbers otherwise, so each entry follows Python's own arithmetic
        (an ``int`` or ``Fraction`` no step touches stays one).
        """
        values = np.array(values, dtype=object)
        exact = self.rate.dtype == object or any(type(v) is not float for v in values)
        out = np.zeros(len(self.states), dtype=object if exact else float)
        out[positions] = values
        return out


class TransitionOperator:
    """Sparse transition rows of one table, compiled per state on first use.

    A state gets an index when first seen, as a start state or as the
    target of a compiled row; its row is compiled when a run first needs
    its outflows.  Only the support a run can reach is ever built, never
    the whole state space.  The solver and the merged division model,
    float or rational, step on the flat arrays of :meth:`program`; the
    history tree reads :meth:`row` directly, and the Gillespie sampler
    :meth:`events`.
    """

    def __init__(self, table: TransitionTable) -> None:
        self.num_bins = table.num_bins
        self.num_labels = table.num_labels
        # programs run on float64 only when every r_h is a Python float
        self.is_float = type(table.dt) is float and all(
            type(k) is float for k in table.kernel_values
        )
        self.one = 1.0 if self.is_float else Fraction(1)  # keeps rationals exact
        self.states: list[MassDistribution] = []
        self._dt = table.dt
        self._kernel = table.kernel_values
        self._pairs = table.pairs
        self._first_label = {i: h for h, (i, j) in enumerate(table.pairs, start=1) if i == j}
        self._rows: list[OperatorRow | None] = []
        self._index: dict[tuple[int, ...], int] = {}
        self._events: dict[int, tuple[float, np.ndarray]] = {}

    def index(self, state: MassDistribution) -> int:
        """Operator index of ``state``, assigned on first sight."""
        if state.num_bins != self.num_bins:
            raise StateSpaceError(f"state {state.counts} does not have {self.num_bins} bins")
        found = self._index.get(state.counts)
        if found is None:
            found = self._index[state.counts] = len(self.states)
            self.states.append(state)
            self._rows.append(None)
        return found

    def _index_counts(self, counts: tuple[int, ...]) -> int:
        found = self._index.get(counts)
        return self.index(MassDistribution(counts)) if found is None else found

    def row(self, k: int) -> OperatorRow:
        """Row of state ``k``, compiled on first use."""
        row = self._rows[k]
        if row is None:
            row = self._rows[k] = self._compile(self.states[k].counts)
        return row

    def _compile(self, counts: tuple[int, ...]) -> OperatorRow:
        occupied = [b for b, c in enumerate(counts, start=1) if c]
        labels, targets, rates = [], [], []
        for first, i in enumerate(occupied):
            for j in occupied[first:]:
                if i + j > self.num_bins:
                    break
                label = self._first_label[i] + j - i
                rate = _pair_propensity(self._kernel[label - 1], counts, i, j) * self._dt
                if rate != 0:
                    after = list(counts)
                    after[i - 1] -= 1
                    after[j - 1] -= 1
                    after[i + j - 1] += 1
                    labels.append(label)
                    targets.append(self._index_counts(tuple(after)))
                    rates.append(rate)
        total = sum(rates, 0 * self._dt)
        # sequential split, labels H..1; a zero-rate label leaves s unchanged
        weights = [0 * total] * len(rates)
        remaining = 1 + 0 * total  # keeps Fraction inputs exact
        for pos in range(len(rates) - 1, -1, -1):
            s_next = remaining
            if s_next <= 0:
                break
            modified = rates[pos] / s_next
            if modified > 1:
                modified = 1 + 0 * total
            weights[pos] = modified * s_next
            remaining = (1 - modified) * s_next
        drift = next(
            (h for h, w, r in zip(labels, weights, rates) if abs(w - r) > SEQUENTIAL_TOL), 0
        )
        return OperatorRow(
            tuple(labels), tuple(targets), tuple(rates), total, tuple(weights), remaining, drift,
        )

    def events(self, k: int) -> tuple[float, np.ndarray]:
        """What the Gillespie sampler draws from in state ``k``: the event
        rate ``sum_h r_h / dt`` and the cumulative label distribution at
        the row's labels, both on the length-``H`` float propensity vector.
        Built on the first visit and kept."""
        found = self._events.get(k)
        if found is None:
            labels, counts = self.row(k).labels, self.states[k].counts
            dense = np.zeros(self.num_labels)
            stored = np.array(labels, dtype=np.intp) - 1
            dense[stored] = [
                _pair_propensity(self._kernel[h - 1], counts, *self._pairs[h - 1]) for h in labels
            ]
            event_rate = dense.sum()
            cdf = (np.cumsum(dense) / event_rate)[stored] if labels else dense[stored]
            found = self._events[k] = (event_rate, cdf)
        return found

    def checked(self, k: int, sequential: bool = False) -> OperatorRow:
        """Row ``k`` after the step-size check and, for the division model
        (``sequential``), the sequential-drift check."""
        row = self.row(k)
        if row.total > 1:
            raise StepSizeError(
                f"sum of transition probabilities {row.total} > 1 for state "
                f"{self.states[k].counts}; reduce dt"
            )
        if sequential and row.drift:
            raise StateSpaceError(
                f"sequential division drifted from direct rate at label {row.drift}"
            )
        return row

    def program(
        self, keys: Sequence[int], sources: Sequence[int], steps: int, sequential: bool = False
    ) -> StepProgram:
        """Flat arrays for ``steps`` steps from ``sources``, over the states
        they reach plus ``keys``; where the solver's and the merged
        division model's runs are checked.

        The closure is built breadth first, and each level that will step
        is :meth:`checked` (``sequential`` for the division model) in
        ascending counts order before it is expanded.  A state at depth
        ``d`` first steps at step ``d + 1``, so a run fails on the state
        its executor would meet first, without compiling deeper rows.
        """
        if steps < 0:
            raise StateSpaceError(f"need steps >= 0, got {steps}")
        reached = set(sources)
        level, stepping = list(reached), set()
        for _ in range(steps):
            if not level:
                break
            stepping.update(level)
            nxt = []
            for k in sorted(level, key=lambda k: self.states[k].counts):
                for target in self.checked(k, sequential).targets:
                    if target not in reached:
                        reached.add(target)
                        nxt.append(target)
            level = nxt
        ids = sorted(reached.union(keys), key=lambda k: self.states[k].counts)
        where = {k: pos for pos, k in enumerate(ids)}
        number = float if self.is_float else object
        src, dst, label, rate, weight = [], [], [], [], []
        hold = np.zeros(len(ids), dtype=number)
        for pos, k in enumerate(ids):
            if k not in stepping:
                continue
            row = self._rows[k]
            src.extend([pos] * len(row.labels))
            dst.extend(map(where.__getitem__, row.targets))
            label.extend(row.labels)
            rate.extend(row.rates)
            weight.extend(row.weights)
            hold[pos] = row.hold
        return StepProgram(
            [self.states[k] for k in ids], where,
            np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
            np.array(label, dtype=np.intp), np.array(rate, dtype=number),
            np.array(weight, dtype=number), hold,
        )


def partition_count_exact(n: int) -> int:
    """Number of integer partitions ``p(n)``, counted one part size at a time."""
    if n < 1:
        raise StateSpaceError(f"need n >= 1, got {n}")
    counts = [1] + [0] * n  # partitions of each total into the part sizes so far
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def partition_count_asymptotic(n: int) -> float:
    """Hardy-Ramanujan leading-order estimate of the partition count."""
    if n < 1:
        raise StateSpaceError(f"need n >= 1, got {n}")
    return math.exp(math.pi * math.sqrt(2 * n / 3)) / (4 * n * math.sqrt(3))


def _partition_parts(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n`` with parts <= ``largest``, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partition_parts(n - part, part):
            yield (part,) + rest


def enumerate_states(
    n_bins: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[MassDistribution]:
    """All reachable occupation vectors for total mass ``n_bins``.

    Returned in ascending lexicographic order of the counts vector, so the
    monodisperse state is last and the fully coalesced one first.  Raises
    :class:`ResourceLimitError` past ``cap`` since the state count grows
    like ``exp(sqrt(n))``.
    """
    if n_bins < 1:
        raise StateSpaceError(f"need N >= 1, got {n_bins}")
    if n_bins > cap:
        raise ResourceLimitError(
            f"N = {n_bins} exceeds cap {cap}: would enumerate "
            f"{partition_count_exact(n_bins)} states"
        )
    states = []
    for parts in _partition_parts(n_bins, n_bins):
        counts = [0] * n_bins
        for part in parts:
            counts[part - 1] += 1
        states.append(MassDistribution(tuple(counts)))
    states.sort(key=lambda s: s.counts)
    return states
