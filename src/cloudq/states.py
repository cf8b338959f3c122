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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

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


@dataclass(frozen=True)
class MassDistribution:
    """Occupation vector with conserved total mass.

    ``counts[i - 1]`` is the droplet count of bin ``i``; the vector length
    fixes ``N`` and the mass identity ``sum(i * n_i) == N`` is enforced.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise StateSpaceError("occupation vector must not be empty")
        if any(c < 0 for c in self.counts):
            raise StateSpaceError(f"negative occupation in {self.counts}")
        if self.mass() != len(self.counts):
            raise StateSpaceError(
                f"mass {self.mass()} != N {len(self.counts)} for {self.counts}"
            )

    @property
    def num_bins(self) -> int:
        return len(self.counts)

    def mass(self) -> int:
        return sum((i + 1) * c for i, c in enumerate(self.counts))

    def count(self, bin_index: int) -> int:
        """Droplet count of 1-based bin ``bin_index``."""
        if not 1 <= bin_index <= self.num_bins:
            raise StateSpaceError(f"bin {bin_index} outside [1, {self.num_bins}]")
        return self.counts[bin_index - 1]

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

    def label_of(self, i: int, j: int) -> int:
        """Inverse of :meth:`pair_of`; each first bin ``k < i`` has ``N+1-2k`` pairs."""
        if i > j:
            i, j = j, i
        if i < 1 or i + j > self.num_bins:
            raise LabelError(f"pair ({i},{j}) is not a valid collision")
        return (i - 1) * (self.num_bins + 1 - i) + (j - i) + 1


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


def propensities(table: TransitionTable, counts: Sequence[int]) -> list:
    """Continuous-time rates ``r_h / dt`` for every label, label order.

    The one place the transition rule is written: the solver, the division
    model and the Gillespie sampler all read their rates from here.  Values
    keep the kernel's number type, so rational tables stay exact.
    """
    return [
        _pair_propensity(kernel, counts, i, j)
        for (i, j), kernel in zip(table.pairs, table.kernel_values)
    ]


def transition_rate(table: TransitionTable, state: MassDistribution, label: int):
    """Per-step transition probability ``r_h`` of ``state`` under ``label``.

    ``K(i,j) n_i n_j dt`` for distinct bins and ``K(i,i) n_i (n_i-1) dt / 2``
    for equal bins; zero whenever the source bins are under-populated.
    """
    i, j = table.pair_of(label)
    return _pair_propensity(table.kernel_values[label - 1], state.counts, i, j) * table.dt


def total_transition_rate(table: TransitionTable, state: MassDistribution):
    """``sum_h r_h(state)``; must stay <= 1 for a valid explicit step."""
    return sum(rate * table.dt for rate in propensities(table, state.counts))


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


@lru_cache(maxsize=None)
def _partitions_at_most(n: int, largest: int) -> int:
    if n == 0:
        return 1
    if largest == 0:
        return 0
    if largest > n:
        largest = n
    return _partitions_at_most(n - largest, largest) + _partitions_at_most(n, largest - 1)


def partition_count_exact(n: int) -> int:
    """Number of integer partitions ``p(n)`` via the bounded-part recurrence."""
    if n < 1:
        raise StateSpaceError(f"need n >= 1, got {n}")
    return _partitions_at_most(n, n)


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
