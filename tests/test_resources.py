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
from cloudq.states import label_pairs, qubits_for_bin

CASE1 = PRESET_CASES["paper-case-1"]


def test_gate_cost_algebra():
    a = GateCost(10, 5, 3)
    b = GateCost(1, 1, 7)
    assert a + b == GateCost(11, 6, 7)
    assert a.times(4) == GateCost(40, 20, 3)


def test_primitive_cost_closed_forms():
    assert primitive_cost("ADD", n=42).t_count == 4 * 42 - 4 == 164
    assert primitive_cost("DIV", n=42).t_count == 18 * 42 * 42 - 30 * 42 == 30492
    assert primitive_cost("SQRT", n=42) == GateCost(14752, 7376, 252)
    assert primitive_cost("COMP", n=42).t_count == 8 * 42 - 16
    assert primitive_cost("cSUB", n=42).t_count == 8 * 42 - 4
    assert primitive_cost("MUL_INT", n=6, m=6).t_count == 8 * 36 - 4 * 36 == 144
    assert primitive_cost("MUL_UI", n=42).t_count == 4 * 42 * 42


def test_primitive_cost_clamp_warns():
    warnings: list[str] = []
    cost = primitive_cost("Toffoli", n=2, warnings=warnings)
    assert cost.t_count == 0
    assert warnings and "clamped" in warnings[0]


def test_mul_const_int_ui_uses_adder_sum():
    warnings: list[str] = []
    cost = primitive_cost("MUL_CONST_INT_UI", n=12, m=42, warnings=warnings)
    assert cost.t_count == (42 - 12) * (4 * 12 - 4) + 2 * 144 - 24 == 1584
    assert cost.t_depth == (42 - 12) * (2 * 12 - 2) + 144 - 12 == 792
    # the published closed form is negative here; the model must say so
    assert 8 * 12 * 42 - 4 * 144 - 2 * 42 * 42 - 4 * 12 - 6 * 42 < 0
    assert any("adder-sum" in w for w in warnings)


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
        # the warnings in the order the gates are costed, one U_shift per pair
        warnings: list[str] = []
        for gate in (gate_cost_up, gate_cost_uq, gate_cost_ur, gate_cost_uadd):
            gate(case, warnings)
        shift_total = GateCost(0, 0, 0)
        for pair in label_pairs(n_bins):
            shift_total = shift_total + gate_cost_ushift(case, pair, warnings)
        assert report.per_gate["U_shift_total"] == shift_total, n_bins
        assert report.warnings[:-1] == tuple(dict.fromkeys(warnings)), n_bins
