"""Fault-tolerant gate-cost and qubit model for the coalescence circuit.

Composes closed-form T-gate counts of the fixed-point arithmetic
primitives into the per-label division gates, one full time step, the
``M``-step evolution, and the amplitude-estimation schedule, together
with the logical-register tally and the error budget.  All compositions
run in exact integer arithmetic; the two formulas involving logarithms
are evaluated in floats and ceiled.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

from .states import label_pair_count, qubits_for_bin


class ResourceModelError(ValueError):
    """Invalid case parameters or primitive request."""


@dataclass(frozen=True)
class GateCost:
    """(T-count, T-depth, ancilla) triple.

    Sequenced composition adds counts and depths; ancillas are scratch
    that later gates reuse, so they combine by maximum.
    """

    t_count: int
    t_depth: int
    ancilla: int

    def __add__(self, other: "GateCost") -> "GateCost":
        return GateCost(
            self.t_count + other.t_count,
            self.t_depth + other.t_depth,
            max(self.ancilla, other.ancilla),
        )

    def times(self, repetitions: int) -> "GateCost":
        return GateCost(
            self.t_count * repetitions, self.t_depth * repetitions, self.ancilla
        )


def _clamped(t: int, depth: int, ancilla: int, label: str, warnings: list[str] | None) -> GateCost:
    if (t <= 0 or depth <= 0) and warnings is not None:
        warnings.append(f"{label}: formula gave ({t}, {depth}), clamped at 0")
    return GateCost(max(t, 0), max(depth, 0), max(ancilla, 0))


def primitive_cost(
    op: str,
    n: int | None = None,
    m: int | None = None,
    degree: int | None = None,
    pieces: int | None = None,
    warnings: list[str] | None = None,
) -> GateCost:
    """Closed-form cost of one fixed-point arithmetic primitive.

    Width arguments follow the operation's convention (``n`` is the
    register width; ``MUL_INT`` and ``MUL_CONST_INT_UI`` take the pair
    ``n, m``).  Non-positive formula values are clamped to zero with a
    warning, which only happens at tiny widths.
    """
    if n is None or n < 1:
        raise ResourceModelError(f"{op}: need a width n >= 1, got {n}")
    if op == "Toffoli":
        return _clamped(4 * n - 8, n - 2, n - 1, op, warnings)
    if op in ("ADD", "SUB"):
        return _clamped(4 * n - 4, 2 * n - 2, n - 1, op, warnings)
    if op in ("cADD", "cSUB"):
        return _clamped(8 * n - 4, 4 * n - 2, 2 * n - 1, op, warnings)
    if op == "ADD_CONST":
        return _clamped(4 * n - 8, 2 * n - 4, 2 * n - 2, op, warnings)
    if op in ("COMP", "COMP_CONST"):
        return _clamped(8 * n - 16, 4 * n - 8, 2 * n - 1, op, warnings)
    if op == "MUL_INT":
        if m is None:
            raise ResourceModelError("MUL_INT needs widths n and m")
        return _clamped(
            8 * n * m - 4 * n * n, 4 * n * m - 2 * n * n, 2 * n - 1, op, warnings
        )
    if op == "MUL_UI":
        return _clamped(4 * n * n, 2 * n * n, 2 * n - 1, op, warnings)
    if op == "MUL_CONST_INT_UI":
        if m is None:
            raise ResourceModelError("MUL_CONST_INT_UI needs widths n and m")
        # The published closed form 8nm-4n^2-2m^2-4n-6m goes negative for
        # realistic widths (n=12, m=42); the adder-sum it was derived from
        # does not, so the model uses the adder sum and flags the gap.
        t = (m - n) * (4 * n - 4) + 2 * n * n - 2 * n
        depth = (m - n) * (2 * n - 2) + n * n - n
        printed = 8 * n * m - 4 * n * n - 2 * m * m - 4 * n - 6 * m
        if warnings is not None and printed != t:
            warnings.append(
                f"MUL_CONST_INT_UI({n},{m}): closed form gives {printed}, "
                f"using adder-sum value {t}"
            )
        return _clamped(t, depth, n - 1, op, warnings)
    if op == "SQRT":
        return _clamped(
            8 * n * n + 16 * n - 32, 4 * n * n + 8 * n - 16, 6 * n, op, warnings
        )
    if op == "DIV":
        return _clamped(18 * n * n - 30 * n, 9 * n * n - 15 * n, 2 * n - 1, op, warnings)
    if op == "ARCSIN":
        if degree is None or pieces is None:
            raise ResourceModelError("ARCSIN needs degree and pieces")
        log_m = math.ceil(math.log2(pieces)) if pieces > 1 else 0
        t = (
            32 * pieces * (n - 2)
            + 8 * degree * (n * n + n - 1)
            + 16 * degree * pieces * (log_m - 1)
        )
        depth = (
            4 * degree * max(2 * n * n, pieces * (log_m - 1))
            + 16 * pieces * (n - 2)
            + 4 * degree * (n - 1)
        )
        ancilla = (degree + 4) * n + 2 * log_m
        return _clamped(t, depth, ancilla, op, warnings)
    raise ResourceModelError(f"unknown primitive {op!r}")


@dataclass(frozen=True)
class EstimationCase:
    """Problem size and precision parameters of one resource estimate.

    ``eps_rotation`` is also the piecewise-arcsine target, as in the
    reference parameter sets.  ``eps_calculation`` defaults to the
    register truncation step plus that arcsine approximation error and
    can be overridden with a value measured by the fixed-point emulator.
    """

    n_bins: int
    time_steps: int
    n_eps: int
    degree: int
    pieces: int
    eps_rotation: float
    eps_estimation: float
    eps_c: float
    delta: float = 0.01
    eps_calculation: float | None = None

    def __post_init__(self) -> None:
        if self.n_bins < 2 or self.time_steps < 1:
            raise ResourceModelError("need n_bins >= 2 and time_steps >= 1")
        for name in ("eps_rotation", "eps_estimation", "eps_c", "delta"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ResourceModelError(f"{name} must lie in (0, 1), got {value}")

    @property
    def calculation_eps(self) -> float:
        if self.eps_calculation is not None:
            return self.eps_calculation
        return 2.0 ** (-self.n_eps + 1) + self.eps_rotation


def history_label_qubits(n_bins: int) -> int:
    return math.ceil(math.log2(label_pair_count(n_bins) + 1))


@dataclass(frozen=True)
class QubitBreakdown:
    """Logical-qubit tally by register role."""

    main: int
    history: int
    remainder: int          # register A holding s_h
    angle: int              # register B holding the computed angle
    scratch_printed: int    # register C, published 3*q1 + 5*n_eps + 1
    scratch_tallied: int    # register C, per-step tally 4*q1 + 5*n_eps + 1
    readout: int            # register D
    arithmetic: int
    arithmetic_source: str

    @property
    def auxiliary(self) -> int:
        return (
            self.remainder
            + self.angle
            + self.scratch_printed
            + self.readout
            + self.arithmetic
        )

    @property
    def total(self) -> int:
        return self.main + self.history + self.auxiliary


def register_counts(case: EstimationCase) -> QubitBreakdown:
    """Logical qubits by register role for one case.

    The scratch register C is reported both with the published size and
    with the slightly larger per-step tally of its nine slices; totals
    use the published value.  The arithmetic term is the worst scratch
    requirement over every primitive appearing in the circuit.
    """
    n = case.n_bins
    n_eps = case.n_eps
    q1 = qubits_for_bin(n, 1)
    main = sum(qubits_for_bin(n, i) for i in range(1, n + 1))
    history = case.time_steps * history_label_qubits(n)
    q_h = history_label_qubits(n)
    candidates = {
        "MUL_INT": primitive_cost("MUL_INT", n=q1, m=q1).ancilla,
        "MUL_CONST_INT_UI": primitive_cost("MUL_CONST_INT_UI", n=2 * q1, m=n_eps).ancilla,
        "COMP": primitive_cost("COMP", n=n_eps).ancilla,
        "cSUB": primitive_cost("cSUB", n=n_eps).ancilla,
        "SQRT": primitive_cost("SQRT", n=n_eps).ancilla,
        "DIV": primitive_cost("DIV", n=n_eps).ancilla,
        "ARCSIN": primitive_cost(
            "ARCSIN", n=n_eps, degree=case.degree, pieces=case.pieces
        ).ancilla,
        "U_sin": 5 * n_eps + 2,
        "ADD_CONST": primitive_cost("ADD_CONST", n=q_h).ancilla,
    }
    source, arithmetic = max(candidates.items(), key=lambda kv: kv[1])
    return QubitBreakdown(
        main=main,
        history=history,
        remainder=n_eps,
        angle=n_eps,
        scratch_printed=3 * q1 + 5 * n_eps + 1,
        scratch_tallied=4 * q1 + 5 * n_eps + 1,
        readout=1,
        arithmetic=arithmetic,
        arithmetic_source=source,
    )


def gate_cost_up(case: EstimationCase, warnings: list[str] | None = None) -> GateCost:
    """Rotation-angle computation: products, comparison, roots, division,
    and the piecewise arcsine."""
    q1 = qubits_for_bin(case.n_bins, 1)
    n_eps = case.n_eps
    return (
        primitive_cost("MUL_INT", n=q1, m=q1, warnings=warnings)
        + primitive_cost("MUL_CONST_INT_UI", n=2 * q1, m=n_eps, warnings=warnings)
        + primitive_cost("COMP", n=n_eps, warnings=warnings)
        + primitive_cost("cSUB", n=n_eps, warnings=warnings).times(2)
        + primitive_cost("SQRT", n=n_eps, warnings=warnings).times(2)
        + primitive_cost("DIV", n=n_eps, warnings=warnings)
        + primitive_cost(
            "ARCSIN", n=n_eps, degree=case.degree, pieces=case.pieces, warnings=warnings
        )
    )


def gate_cost_usin(case: EstimationCase) -> GateCost:
    """Controlled rotation driven by the angle register's bits."""
    n_eps = case.n_eps
    q_h = history_label_qubits(case.n_bins)
    eps_sin = case.eps_rotation
    t = 12 * n_eps + 6.6 * math.log2(4 / eps_sin) + 8 * q_h - 16
    depth = 3 * n_eps + 1.15 * math.log2(4 / eps_sin) + 2 * q_h - 3
    return GateCost(math.ceil(t), math.ceil(depth), 5 * n_eps + 2)


def gate_cost_uq(case: EstimationCase, warnings: list[str] | None = None) -> GateCost:
    """Uncompute of the angle pipeline plus the remainder update."""
    return gate_cost_up(case, warnings) + primitive_cost(
        "SUB", n=case.n_eps, warnings=warnings
    )


def gate_cost_uadd(case: EstimationCase, warnings: list[str] | None = None) -> GateCost:
    """History-register increment (add one, restore the zero branch)."""
    q_h = history_label_qubits(case.n_bins)
    return primitive_cost("ADD_CONST", n=q_h, warnings=warnings) + primitive_cost(
        "Toffoli", n=q_h, warnings=warnings
    )


def gate_cost_ur(case: EstimationCase, warnings: list[str] | None = None) -> GateCost:
    """Per-label restore of the remainder register to its step-start value."""
    q1 = qubits_for_bin(case.n_bins, 1)
    n_eps = case.n_eps
    return (
        primitive_cost("MUL_INT", n=q1, m=q1, warnings=warnings).times(2)
        + primitive_cost(
            "MUL_CONST_INT_UI", n=2 * q1, m=n_eps, warnings=warnings
        ).times(2)
        + primitive_cost("ADD", n=n_eps, warnings=warnings)
    )


def gate_cost_ushift(
    case: EstimationCase,
    pair: tuple[int, int],
    warnings: list[str] | None = None,
) -> GateCost:
    """Label-controlled mass update for one collision pair.

    Distinct bins decrement two counters and increment the sum bin; equal
    bins decrement one counter twice.  Both variants pay two label
    Toffolis, as in the summary cost listing; the gate walkthrough draws
    the equal-pair variant with one.
    """
    i, j = pair
    q_h = history_label_qubits(case.n_bins)
    toffoli = primitive_cost("Toffoli", n=q_h, warnings=warnings)
    if i != j:
        return (
            toffoli.times(2)
            + primitive_cost("cADD", n=qubits_for_bin(case.n_bins, i + j), warnings=warnings)
            + primitive_cost("cSUB", n=qubits_for_bin(case.n_bins, i), warnings=warnings)
            + primitive_cost("cSUB", n=qubits_for_bin(case.n_bins, j), warnings=warnings)
        )
    return (
        toffoli.times(2)
        + primitive_cost("cADD", n=qubits_for_bin(case.n_bins, 2 * i), warnings=warnings)
        + primitive_cost("cSUB", n=qubits_for_bin(case.n_bins, i), warnings=warnings)
    )


def gate_cost_uc(case: EstimationCase, bin_index: int = 1) -> GateCost:
    """Amplitude-encoding readout rotations for one bin."""
    if not 1 <= bin_index <= case.n_bins:
        raise ResourceModelError(f"bin must lie in 1..{case.n_bins}, got {bin_index}")
    max_count = case.n_bins // bin_index
    t = math.ceil(1.15 * max_count * math.log2(max_count / case.eps_c))
    # No published depth separation; the rotations run back to back.
    return GateCost(t, t, 0)


def oracle_iterations(eps_estimation: float, delta: float) -> int:
    """Upper bound on Grover-oracle calls of the iterative estimation."""
    if not 0 < delta < 1:
        raise ResourceModelError(f"delta must lie in (0, 1), got {delta}")
    ratio = math.pi / (4 * eps_estimation)
    if ratio <= 1:
        raise ResourceModelError(
            f"eps_estimation {eps_estimation} at or beyond the pi/4 domain edge"
        )
    inner = (2 / delta) * math.log2(ratio)
    count = math.ceil((1.4 / eps_estimation) * math.log(inner))
    if count < 1:
        raise ResourceModelError("oracle iteration bound collapsed to zero")
    return count


def error_budget(case: EstimationCase) -> float:
    """Total-error upper bound across the whole schedule; a measured
    calculation error goes in as ``case.eps_calculation``."""
    n_oracle = oracle_iterations(case.eps_estimation, case.delta)
    pair_count = label_pair_count(case.n_bins)
    return (
        2 * n_oracle * case.time_steps * pair_count
        * (case.calculation_eps + case.eps_rotation)
        + 2 * n_oracle * case.eps_c
        + case.eps_estimation
    )


@dataclass(frozen=True)
class ResourceReport:
    """Composed totals with the per-level breakdown."""

    case: EstimationCase
    per_gate: dict[str, GateCost]
    division: GateCost          # one probability division (labels share it)
    step: GateCost              # one full time step
    evolution: GateCost         # M steps
    readout: GateCost           # amplitude encoding of the target bin
    oracle: GateCost            # one Grover oracle (forward + inverse)
    oracle_calls: int
    total: GateCost
    qubits: QubitBreakdown
    eps_max: float
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        case = self.case
        return {
            "schema_version": 1,
            "case": {
                **asdict(case),
                "eps_arcsin": case.eps_rotation,
                "eps_calculation": case.calculation_eps,
            },
            "t_count": {
                "total": self.total.t_count,
                "breakdown": {
                    "probability_division": self.division.t_count,
                    "transition_rules": label_pair_count(case.n_bins),
                    "time_steps": case.time_steps,
                    "amplitude_estimation": self.oracle_calls,
                },
                "per_gate": {name: c.t_count for name, c in self.per_gate.items()},
                "per_step": self.step.t_count,
                "per_evolution": self.evolution.t_count,
                "per_oracle": self.oracle.t_count,
            },
            "t_depth": {
                "total": self.total.t_depth,
                "per_step": self.step.t_depth,
                "per_evolution": self.evolution.t_depth,
                "per_oracle": self.oracle.t_depth,
            },
            "qubits": {
                "total": self.qubits.total,
                "main": self.qubits.main,
                "history": self.qubits.history,
                "auxiliary": {
                    "remainder": self.qubits.remainder,
                    "angle": self.qubits.angle,
                    "scratch": self.qubits.scratch_printed,
                    "scratch_tallied": self.qubits.scratch_tallied,
                    "readout": self.qubits.readout,
                    "arithmetic": self.qubits.arithmetic,
                    "arithmetic_source": self.qubits.arithmetic_source,
                    "total": self.qubits.auxiliary,
                },
            },
            "eps_max": self.eps_max,
            "oracle_calls": self.oracle_calls,
            "warnings": list(self.warnings),
        }


def estimate_case(case: EstimationCase, bin_index: int = 1) -> ResourceReport:
    """Full resource estimate for reading out one bin's expectation.

    One time step runs the four division gates once per label, the
    history increment once per label but the last, and one mass shift per
    pair (:func:`gate_cost_ushift`, summed by register width: one cost per
    width times how often it occurs); the evolution repeats the step ``M``
    times; each oracle call contains the evolution and readout twice
    (forward and inverse); one unamplified preparation is added on top of
    the amplified schedule.
    """
    warnings: list[str] = []
    pair_count = label_pair_count(case.n_bins)
    up = gate_cost_up(case, warnings)
    usin = gate_cost_usin(case)
    uq = gate_cost_uq(case, warnings)
    ur = gate_cost_ur(case, warnings)
    uadd = gate_cost_uadd(case, warnings)
    division = up + usin + uq + ur
    # U_shift by register width: per pair two label Toffolis, a cADD on bin
    # i+j, a cSUB on bin i and one on j if i != j.  Bin b is the sum of b//2
    # pairs, the first of N-2b+1 and the unequal second of min(b-1, N-b)
    n = case.n_bins
    c_add: Counter[int] = Counter()
    c_sub: Counter[int] = Counter()
    for b in range(1, n + 1):
        width = qubits_for_bin(n, b)
        if b >= 2:
            c_add[width] += b // 2
        if b < n:
            c_sub[width] += max(n - 2 * b + 1, 0) + max(min(b - 1, n - b), 0)
    shift_total = primitive_cost(
        "Toffoli", n=history_label_qubits(case.n_bins), warnings=warnings
    ).times(2 * pair_count)
    for op, counts in (("cADD", c_add), ("cSUB", c_sub)):
        for width, count in counts.items():
            shift_total = shift_total + primitive_cost(op, n=width, warnings=warnings).times(count)
    step = division.times(pair_count) + uadd.times(pair_count - 1) + shift_total
    evolution = step.times(case.time_steps)
    readout = gate_cost_uc(case, bin_index)
    oracle = (evolution + readout).times(2)
    calls = oracle_iterations(case.eps_estimation, case.delta)
    total = oracle.times(calls) + evolution + readout
    qubits = register_counts(case)
    unamplified_share = (evolution + readout).t_count / total.t_count
    warnings.append(
        f"total includes one unamplified preparation ({unamplified_share:.2e} "
        "of the T-count)"
    )
    return ResourceReport(
        case=case,
        per_gate={
            "U_P": up, "U_sin": usin, "U_Q": uq, "U_R": ur, "U_add": uadd,
            "U_shift_total": shift_total, "U_c": readout,
        },
        division=division,
        step=step,
        evolution=evolution,
        readout=readout,
        oracle=oracle,
        oracle_calls=calls,
        total=total,
        qubits=qubits,
        eps_max=error_budget(case),
        warnings=tuple(dict.fromkeys(warnings)),
    )


@dataclass(frozen=True)
class ScalingReport:
    """T-count ratios and the log-log growth exponent across cases."""

    n_bins: tuple[int, ...]
    t_counts: tuple[int, ...]
    end_to_end_ratio: float
    loglog_slope: float


def scaling_report(cases: Sequence[EstimationCase]) -> ScalingReport:
    """Growth of the T-count across cases of increasing ``n_bins``.

    The slope is the least-squares gradient of log T-count against
    log N over the supplied cases.
    """
    if len(cases) < 2:
        raise ResourceModelError("need at least two cases for a scaling report")
    ns = [case.n_bins for case in cases]
    ts = [estimate_case(case).total.t_count for case in cases]
    logs_n = [math.log(n) for n in ns]
    logs_t = [math.log(t) for t in ts]
    mean_n = sum(logs_n) / len(logs_n)
    mean_t = sum(logs_t) / len(logs_t)
    slope = sum((ln - mean_n) * (lt - mean_t) for ln, lt in zip(logs_n, logs_t)) / sum(
        (ln - mean_n) ** 2 for ln in logs_n
    )
    return ScalingReport(
        n_bins=tuple(ns),
        t_counts=tuple(ts),
        end_to_end_ratio=ts[-1] / ts[0],
        loglog_slope=slope,
    )
