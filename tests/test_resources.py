import dataclasses
import math

import pytest

from cloudq.presets import EXPECTED_RESOURCES, PRESET_CASES, RESOURCE_BANDS
from cloudq.resources import (
    EstimationCase,
    GateCost,
    ResourceModelError,
    error_budget,
    estimate_case,
    gate_cost_uadd,
    gate_cost_uc,
    gate_cost_up,
    gate_cost_uq,
    gate_cost_ur,
    gate_cost_ushift,
    gate_cost_usin,
    history_label_qubits,
    oracle_iterations,
    primitive_cost,
    register_counts,
    scaling_report,
)
from cloudq.states import StateSpaceError, label_pairs, qubits_for_bin

CASE1 = PRESET_CASES["paper-case-1"]


def test_gate_cost_algebra():
    a = GateCost(10, 5, 3)
    b = GateCost(1, 1, 7)
    assert a + b == GateCost(11, 6, 7)
    assert a.times(4) == GateCost(40, 20, 3)
    # notes keep their first-seen order, each once
    noted = GateCost(1, 1, 1, ("x", "y"))
    assert (noted + a + GateCost(0, 0, 0, ("y", "z"))).notes == ("x", "y", "z")
    assert noted.times(0).notes == noted.notes


def test_primitive_cost_closed_forms():
    assert primitive_cost("ADD", n=42).t_count == 4 * 42 - 4 == 164
    assert primitive_cost("DIV", n=42).t_count == 18 * 42 * 42 - 30 * 42 == 30492
    assert primitive_cost("SQRT", n=42) == GateCost(14752, 7376, 252)
    assert primitive_cost("COMP", n=42).t_count == 8 * 42 - 16
    assert primitive_cost("cSUB", n=42).t_count == 8 * 42 - 4
    assert primitive_cost("MUL_INT", n=6, m=6).t_count == 8 * 36 - 4 * 36 == 144
    assert primitive_cost("MUL_UI", n=42).t_count == 4 * 42 * 42


def test_primitive_cost_clamp_warns():
    cost = primitive_cost("Toffoli", n=2)
    assert cost.t_count == 0
    assert cost.notes and "clamped" in cost.notes[0]


def test_mul_const_int_ui_uses_adder_sum():
    cost = primitive_cost("MUL_CONST_INT_UI", n=12, m=42)
    assert cost.t_count == (42 - 12) * (4 * 12 - 4) + 2 * 144 - 24 == 1584
    assert cost.t_depth == (42 - 12) * (2 * 12 - 2) + 144 - 12 == 792
    # the published closed form is negative here; the model must say so
    assert 8 * 12 * 42 - 4 * 144 - 2 * 42 * 42 - 4 * 12 - 6 * 42 < 0
    assert any("adder-sum" in w for w in cost.notes)


def test_arcsin_cost_case1_widths():
    cost = primitive_cost("ARCSIN", n=42, degree=5, pieces=15)
    expected = 32 * 15 * 40 + 8 * 5 * (42 * 42 + 42 - 1) + 16 * 5 * 15 * (4 - 1)
    assert cost.t_count == expected == 95000
    assert cost.ancilla == (5 + 4) * 42 + 2 * 4


def test_unknown_primitive():
    with pytest.raises(ResourceModelError):
        primitive_cost("ROTATE", n=4)


def test_register_widths_case1():
    assert qubits_for_bin(40, 1) == 6
    assert history_label_qubits(40) == 9
    # past 2**49 a float log2 rounds floor(N/i) + 1 down to a power of two
    assert qubits_for_bin(2**49, 1) == 50
    assert history_label_qubits(2**26) == 51


@pytest.mark.parametrize("n_bins, bin_index, message", [
    (40, 0, "need bin >= 1, got 0"),
    (40, -1, "need bin >= 1, got -1"),  # a bit length would be a width for -40
    (-1, 1, "need N >= 0, got -1"),
    (40, 1.5, "bin must be an int, got 1.5"),
])
def test_register_width_of_no_bin_is_refused(n_bins, bin_index, message):
    with pytest.raises(StateSpaceError) as err:
        qubits_for_bin(n_bins, bin_index)
    assert str(err.value) == message


def test_usin_case1():
    cost = gate_cost_usin(CASE1)
    raw = 12 * 42 + 6.6 * math.log2(4 / 1e-13) + 8 * 9 - 16
    assert cost.t_count == math.ceil(raw) == 859
    assert cost.ancilla == 5 * 42 + 2


def test_uadd_case1():
    assert gate_cost_uadd(CASE1).t_count == 28 + 28 == 56


def test_uc_bin1_case1():
    cost = gate_cost_uc(CASE1, 1)
    raw = 1.15 * 40 * math.log2(40 / 1e-8)
    assert cost.t_count == math.ceil(raw) == 1468


@pytest.mark.parametrize("bin_index", [0, 41, -1])
def test_uc_checks_its_bin(bin_index):
    # bin 0 divided by zero, and bins past N or below 1 took the log of N // bin <= 0
    with pytest.raises(ResourceModelError, match=rf"^bin must lie in 1\.\.40, got {bin_index}$"):
        gate_cost_uc(CASE1, bin_index)
    with pytest.raises(ResourceModelError, match="^bin must lie in"):
        estimate_case(CASE1, bin_index=bin_index)


def test_up_composition_case1():
    total = gate_cost_up(CASE1).t_count
    assert total == 144 + 1584 + 320 + 2 * 332 + 2 * 14752 + 30492 + 95000
    assert gate_cost_uq(CASE1).t_count == total + 164
    assert gate_cost_ur(CASE1).t_count == 2 * 144 + 2 * 1584 + 164


def test_ushift_variants():
    unequal = gate_cost_ushift(CASE1, (1, 2))
    q = lambda i: qubits_for_bin(40, i)
    expected = (
        2 * (4 * 9 - 8)
        + (8 * q(3) - 4)
        + (8 * q(1) - 4)
        + (8 * q(2) - 4)
    )
    assert unequal.t_count == expected
    equal = gate_cost_ushift(CASE1, (5, 5))
    assert equal.t_count == 2 * (4 * 9 - 8) + (8 * q(10) - 4) + (8 * q(5) - 4)


def test_estimate_case_reports_every_gate_clamp_once():
    # N = 3 has a 2-qubit history register, so U_add's ADD_CONST and the
    # U_add/U_shift Toffolis hit their clamps; U_P, U_Q and U_R share one note
    case = EstimationCase(
        n_bins=3, time_steps=10, n_eps=20, degree=5, pieces=15,
        eps_rotation=1e-13, eps_estimation=9.9e-3, eps_c=1e-8, delta=0.01,
    )
    warnings = estimate_case(case).warnings
    for message in (
        "ADD_CONST: formula gave (0, 0), clamped at 0",
        "Toffoli: formula gave (0, 0), clamped at 0",
        "MUL_CONST_INT_UI(4,20): closed form gives -360, using adder-sum value 216",
    ):
        assert warnings.count(message) == 1


def test_register_counts_case1():
    breakdown = register_counts(CASE1)
    assert breakdown.history == 2000 * 9 == 18000
    assert breakdown.main == sum(qubits_for_bin(40, i) for i in range(1, 41))
    assert breakdown.remainder == 42
    assert breakdown.scratch_printed == 3 * 6 + 5 * 42 + 1
    assert breakdown.scratch_tallied == 4 * 6 + 5 * 42 + 1
    assert breakdown.arithmetic_source == "ARCSIN"
    assert breakdown.total == (
        breakdown.main + breakdown.history + breakdown.auxiliary
    )


def test_register_counts_case4_scale():
    total = register_counts(PRESET_CASES["paper-case-4"]).total
    assert abs(total / 1.8e5 - 1) <= 0.10


def test_oracle_iterations():
    assert oracle_iterations(9.9e-3, 0.01) == 1010
    # direct evaluation of the bound for the tighter tolerance
    eps = 9.9e-4
    raw = (1.4 / eps) * math.log((2 / 0.01) * math.log2(math.pi / (4 * eps)))
    assert oracle_iterations(eps, 0.01) == math.ceil(raw) == 10696
    with pytest.raises(ResourceModelError):
        oracle_iterations(math.pi / 4, 0.01)
    with pytest.raises(ResourceModelError):
        oracle_iterations(1e-3, 1.5)


def test_error_budget_case1():
    # with the calculation error pinned at the register truncation step
    value = error_budget(dataclasses.replace(CASE1, eps_calculation=2.0**-41))
    assert abs(value / 1.0e-2 - 1) <= 0.20
    only_estimation = error_budget(
        EstimationCase(
            n_bins=40, time_steps=2000, n_eps=42, degree=5, pieces=15,
            eps_rotation=1e-18, eps_estimation=9.9e-3, eps_c=1e-18,
            eps_calculation=0.0,
        )
    )
    assert only_estimation == pytest.approx(9.9e-3, rel=1e-6)


def test_error_budget_linear_in_steps():
    base = error_budget(CASE1) - CASE1.eps_estimation - 2 * 1010 * CASE1.eps_c
    doubled_case = dataclasses.replace(CASE1, time_steps=4000)
    doubled = (
        error_budget(doubled_case) - CASE1.eps_estimation - 2 * 1010 * CASE1.eps_c
    )
    assert doubled == pytest.approx(2 * base, rel=1e-12)


@pytest.mark.parametrize("name", sorted(PRESET_CASES))
def test_resource_totals_in_bands(name):
    report = estimate_case(PRESET_CASES[name])
    eps_max, t_count, t_depth, qubits = EXPECTED_RESOURCES[name]
    assert abs(report.eps_max / eps_max - 1) <= RESOURCE_BANDS["eps_max"]
    assert abs(report.total.t_count / t_count - 1) <= RESOURCE_BANDS["t_count"]
    assert abs(report.total.t_depth / t_depth - 1) <= RESOURCE_BANDS["t_depth"]
    assert abs(report.qubits.total / qubits - 1) <= RESOURCE_BANDS["logical_qubits"]


def test_report_self_consistency():
    report = estimate_case(CASE1)
    pair_count = 400
    rebuilt_step = (
        report.division.times(pair_count)
        + report.per_gate["U_add"].times(pair_count - 1)
        + report.per_gate["U_shift_total"]
    )
    assert rebuilt_step.t_count == report.step.t_count
    assert report.evolution.t_count == report.step.t_count * 2000
    assert report.oracle.t_count == 2 * (report.evolution.t_count + report.readout.t_count)
    assert (
        report.total.t_count
        == report.oracle.t_count * report.oracle_calls
        + report.evolution.t_count
        + report.readout.t_count
    )
    payload = report.to_json_dict()
    assert payload["schema_version"] == 1
    assert payload["t_count"]["total"] == report.total.t_count
    assert payload["qubits"]["total"] == report.qubits.total


def test_monotonicity():
    import dataclasses

    base = estimate_case(CASE1).total.t_count
    assert estimate_case(dataclasses.replace(CASE1, n_bins=80)).total.t_count > base
    assert estimate_case(dataclasses.replace(CASE1, time_steps=4000)).total.t_count > base
    assert (
        estimate_case(dataclasses.replace(CASE1, eps_estimation=9.9e-4)).total.t_count
        > base
    )


def test_scaling_report_over_presets():
    report = scaling_report(
        [PRESET_CASES["paper-case-1"], PRESET_CASES["paper-case-2"], PRESET_CASES["paper-case-3"]]
    )
    assert 120 <= report.end_to_end_ratio <= 230
    assert 1.8 <= report.loglog_slope <= 2.4
    with pytest.raises(ResourceModelError):
        scaling_report([CASE1])


def test_ushift_total_sums_the_pair_formula():
    for n_bins in [*range(2, 61), 400]:
        case = dataclasses.replace(CASE1, n_bins=n_bins)
        report = estimate_case(case)
        # the notes in the order the gates are costed, one U_shift per pair
        notes: list[str] = []
        for gate in (gate_cost_up, gate_cost_uq, gate_cost_ur, gate_cost_uadd):
            notes += gate(case).notes
        shift_total = GateCost(0, 0, 0)
        for pair in label_pairs(n_bins):
            shift = gate_cost_ushift(case, pair)
            notes += shift.notes
            shift_total = shift_total + shift
        assert report.per_gate["U_shift_total"] == shift_total, n_bins
        assert report.warnings[:-1] == tuple(dict.fromkeys(notes)), n_bins


_CASE_REFUSALS = [
    ("n_eps", 0, "need n_eps >= 1, got 0"),
    ("n_eps", -3, "need n_eps >= 1, got -3"),
    ("degree", 0, "need degree >= 1, got 0"),
    ("degree", -2, "need degree >= 1, got -2"),
    ("pieces", 0, "need pieces >= 1, got 0"),
    ("pieces", -3, "need pieces >= 1, got -3"),
    ("n_bins", 1, "need n_bins >= 2 and time_steps >= 1"),
    ("time_steps", 0, "need n_bins >= 2 and time_steps >= 1"),
    ("eps_rotation", 0.0, "eps_rotation must lie in (0, 1), got 0.0"),
    ("eps_c", 1.0, "eps_c must lie in (0, 1), got 1.0"),
    ("delta", -0.1, "delta must lie in (0, 1), got -0.1"),
    ("n_bins", 40.5, "n_bins must be an int, got 40.5"),
    ("n_eps", 42.0, "n_eps must be an int, got 42.0"),
    ("degree", True, "degree must be an int, got True"),
]


@pytest.mark.parametrize("field, value, message", _CASE_REFUSALS,
                         ids=[f"{field}={value}" for field, value, _ in _CASE_REFUSALS])
def test_estimation_case_refusals_keep_their_messages(field, value, message):
    with pytest.raises(ResourceModelError) as err:
        dataclasses.replace(CASE1, **{field: value})
    assert str(err.value) == message


def test_mul_int_needs_both_widths():
    with pytest.raises(ResourceModelError) as err:
        primitive_cost("MUL_INT", n=4)
    assert str(err.value) == "MUL_INT needs widths n and m"


@pytest.mark.parametrize(
    "op, widths, message",
    [
        ("ADD", {"n": 0}, "ADD: need a width n >= 1, got 0"),
        ("MUL_CONST_INT_UI", {"n": 4}, "MUL_CONST_INT_UI needs widths n and m"),
        ("ARCSIN", {"n": 4, "degree": 3}, "ARCSIN needs degree and pieces"),
    ],
)
def test_primitive_refusals_keep_their_messages(op, widths, message):
    with pytest.raises(ResourceModelError) as err:
        primitive_cost(op, **widths)
    assert str(err.value) == message


def test_arithmetic_scratch_is_the_widest_stage():
    # U_P's primitives, the rotation U_sin and the history increment's adder
    # are the only scratch users
    grid = [
        EstimationCase(n_bins, 3, n_eps, degree, pieces, 1e-10, 1e-3, 1e-6)
        for n_bins in range(2, 416, 29)
        for n_eps in (1, 2, 3, 12, 42, 49)
        for degree, pieces in ((1, 1), (5, 15), (8, 10))
    ]
    for case in [*PRESET_CASES.values(), *grid]:
        stages = (
            gate_cost_up(case).ancilla,
            gate_cost_usin(case).ancilla,
            primitive_cost("ADD_CONST", n=history_label_qubits(case.n_bins)).ancilla,
        )
        assert register_counts(case).arithmetic == max(stages), case
