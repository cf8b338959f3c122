import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudq.arcsine import min_pieces
from cloudq.fixedpoint import (
    CarryOutError,
    DivisionByZeroError,
    FixedPointError,
    FixedPointRangeError,
    FixedPointValue,
    build_quantized_arcsine,
    emulate_up_pipeline,
    estimate_eps_calculation,
    fp_add,
    fp_arcsin_pp,
    fp_compare,
    fp_div,
    fp_encode,
    fp_mul_const_int_ui,
    fp_mul_int,
    fp_mul_ui,
    fp_sqrt,
    fp_sub,
    quantize_arcsine,
)

WIDTH = 42
ULP = 2.0 ** -(WIDTH - 1)


def _pipeline_bound(eps):
    """Worst-case angle-pipeline error at ``WIDTH`` bits, stage by stage.

    The fit's own error ``eps`` plus register steps: the square roots
    (s >= 1/2 in the sweep) and the division through the arcsine slope
    2/sqrt(3), the Horner chain's truncations (< 4 steps), and the
    truncated pi/2 of the complement branch; the terms of the acceptance
    criterion.
    """
    roots = (1 + math.sqrt(2)) * 2 / math.sqrt(3)
    return eps + (roots + 4 + 1) * ULP


@pytest.fixture(scope="module")
def arcsine_table():
    return build_quantized_arcsine(5, 1e-12, WIDTH)


def test_encode_examples():
    assert fp_encode(0.5, 4).bits == 0b0100
    assert fp_encode(1.0, 4).bits == 0b1000
    assert fp_encode(5, 4, "integer").bits == 0b0101
    with pytest.raises(FixedPointRangeError):
        fp_encode(2.0, 4)
    with pytest.raises(FixedPointRangeError):
        fp_encode(-0.1, 4)
    with pytest.raises(FixedPointRangeError):
        fp_encode(16, 4, "integer")


@given(st.floats(min_value=0.0, max_value=1.9999, allow_nan=False))
def test_encode_decode_within_one_ulp(x):
    v = fp_encode(x, WIDTH)
    assert 0 <= x - v.value < ULP


def test_compare():
    a = fp_encode(0.25, WIDTH)
    assert fp_compare(a, a)
    assert fp_compare(fp_encode(0.5, WIDTH), a)
    assert not fp_compare(a, fp_encode(0.5, WIDTH))


def test_add_sub_and_overflow():
    a = fp_encode(0.75, WIDTH)
    b = fp_encode(0.5, WIDTH)
    assert fp_add(a, b).value == 1.25
    assert fp_sub(a, b).value == 0.25
    with pytest.raises(CarryOutError):
        fp_add(fp_encode(1.5, WIDTH), fp_encode(0.75, WIDTH))
    with pytest.raises(FixedPointRangeError):
        fp_sub(b, a)
    with pytest.raises(FixedPointError):
        fp_add(a, fp_encode(0.5, WIDTH + 1))


def test_mul_int():
    a = fp_encode(5, 4, "integer")
    b = fp_encode(6, 4, "integer")
    product = fp_mul_int(a, b)
    assert product.bits == 30
    assert product.width == 8


def test_mul_const_int_ui_frozen():
    # exact rational oracle: floor(2**41/10) = 219902325555
    a = fp_encode(6, 4, "integer")
    result = fp_mul_const_int_ui(a, Fraction(1, 10), WIDTH)
    assert result.bits == 6 * ((1 << 41) // 10) == 1319413953330
    assert abs(result.exact - Fraction(6, 10)) <= 6 * Fraction(1, 1 << 41)


def test_mul_const_int_ui_range():
    a = fp_encode(8, 4, "integer")
    with pytest.raises(FixedPointRangeError):
        fp_mul_const_int_ui(a, 0.5, WIDTH)


def test_mul_ui_examples():
    a = fp_encode(0.5, WIDTH)
    assert fp_mul_ui(a, a).value == 0.25
    with pytest.raises(FixedPointRangeError):
        fp_mul_ui(fp_encode(1.5, WIDTH), a)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=(1 << (WIDTH - 1))),
    st.integers(min_value=0, max_value=(1 << (WIDTH - 1))),
)
def test_mul_ui_truncation_monotone(abits, bbits):
    a = FixedPointValue(abits, WIDTH)
    b = FixedPointValue(bbits, WIDTH)
    result = fp_mul_ui(a, b)
    exact = a.exact * b.exact
    assert 0 <= exact - result.exact < WIDTH * Fraction(1, 1 << (WIDTH - 1))


def test_sqrt_examples():
    assert fp_sqrt(fp_encode(0.25, WIDTH)).value == 0.5
    assert fp_sqrt(fp_encode(1.0, WIDTH)).value == 1.0
    root = fp_sqrt(fp_encode(0.5, WIDTH))
    assert abs(root.value - math.sqrt(0.5)) < ULP


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=(1 << (WIDTH - 1))))
def test_sqrt_matches_isqrt_and_bound(bits):
    a = FixedPointValue(bits, WIDTH)
    root = fp_sqrt(a)
    assert root.bits == math.isqrt(bits << (WIDTH - 1))
    assert abs(root.exact * root.exact - a.exact) <= Fraction(4, 1 << WIDTH) * 2
    assert root.exact * root.exact <= a.exact  # truncation never overshoots


def test_div_examples():
    num = fp_encode(0.25, WIDTH)
    den = fp_encode(0.5, WIDTH)
    assert fp_div(num, den).value == 0.5
    assert fp_div(den, den).value == 1.0
    q = fp_div(fp_encode(0.3, WIDTH), fp_encode(0.7, WIDTH))
    expected = fp_encode(0.3, WIDTH).exact / fp_encode(0.7, WIDTH).exact
    assert 0 <= expected - q.exact < Fraction(1, 1 << (WIDTH - 1))
    with pytest.raises(DivisionByZeroError):
        fp_div(num, fp_encode(0.0, WIDTH))
    with pytest.raises(FixedPointRangeError):
        fp_div(den, num)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=(1 << (WIDTH - 1))),
    st.integers(min_value=1, max_value=(1 << (WIDTH - 1))),
)
def test_div_matches_floor(nbits, dbits):
    if nbits > dbits:
        nbits, dbits = dbits, nbits
    q = fp_div(FixedPointValue(nbits, WIDTH), FixedPointValue(dbits, WIDTH))
    assert q.bits == (nbits << (WIDTH - 1)) // dbits


def test_arcsin_pp_point_values(arcsine_table):
    zero = fp_arcsin_pp(fp_encode(0.0, WIDTH), arcsine_table)
    assert zero.bits == 0
    # the fit error plus the Horner chain's truncations, each < 1 step
    # and damped by u <= 1/2 in the steps after it
    for x, target in ((0.5, math.pi / 6), (0.1, 0.100167421161559796)):
        out = fp_arcsin_pp(fp_encode(x, WIDTH), arcsine_table)
        assert abs(out.value - target) <= 1e-12 + 4 * ULP
    with pytest.raises(FixedPointRangeError):
        fp_arcsin_pp(fp_encode(0.9, WIDTH), arcsine_table)


def test_arcsin_pp_deterministic(arcsine_table):
    a = fp_encode(0.37, WIDTH)
    assert fp_arcsin_pp(a, arcsine_table).bits == fp_arcsin_pp(a, arcsine_table).bits


def test_pipeline_zero_rate(arcsine_table):
    result = emulate_up_pipeline(0, 3, Fraction(1, 100), 1.0, WIDTH, arcsine_table)
    assert result.theta.bits == 0
    assert result.error == 0.0


def test_pipeline_branch_boundary(arcsine_table):
    # r'/s = 1/4 exactly: both comparison branches express the same angle;
    # their register results differ only by the independent piece errors
    low = emulate_up_pipeline(
        1, 1, Fraction(1, 4), 1.0, WIDTH, arcsine_table, force_branch=False
    )
    high = emulate_up_pipeline(
        1, 1, Fraction(1, 4), 1.0, WIDTH, arcsine_table, force_branch=True
    )
    bound = _pipeline_bound(arcsine_table.source_eps)
    assert low.error <= bound
    assert high.error <= bound
    assert abs(low.theta.bits - high.theta.bits) <= 2 * bound / ULP
    assert low.trace.z != high.trace.z


def test_pipeline_trace_replay(arcsine_table):
    result = emulate_up_pipeline(6, 5, 0.001, 0.93, WIDTH, arcsine_table)
    trace = result.trace
    assert trace.product.bits == 30
    assert trace.r.bits == 30 * fp_encode(0.001, WIDTH).bits
    assert trace.w.bits == (
        trace.s_next.bits - trace.r.bits if trace.z else trace.r.bits
    )
    assert trace.sqrt_w.bits == math.isqrt(trace.w.bits << (WIDTH - 1))
    assert trace.quotient.bits == (trace.sqrt_w.bits << (WIDTH - 1)) // trace.sqrt_s.bits
    assert result.theta.bits == trace.theta.bits


def test_pipeline_requires_valid_inputs(arcsine_table):
    with pytest.raises(FixedPointRangeError):
        emulate_up_pipeline(10, 10, 0.5, 0.6, WIDTH, arcsine_table)
    with pytest.raises(DivisionByZeroError):
        emulate_up_pipeline(1, 1, 0.001, 1e-14, WIDTH, arcsine_table)


def test_sweep_regression_width_42(arcsine_table):
    report = estimate_eps_calculation(WIDTH, arcsine_table, samples=4000)
    assert report.max_error <= _pipeline_bound(arcsine_table.source_eps)


def test_sweep_width_scaling():
    reports = {}
    for width in (20, 30):
        table = build_quantized_arcsine(5, 1e-12, width)
        reports[width] = estimate_eps_calculation(width, table, samples=1500)
    assert reports[20].max_error / reports[30].max_error >= 2**5


def test_sweep_arcsine_error_floor():
    # with 1e-12 pieces the sweep flattens near the fit error once the
    # register steps fall well below it
    reports = {}
    for width in (50, 60):
        table = build_quantized_arcsine(5, 1e-12, width)
        reports[width] = estimate_eps_calculation(width, table, samples=1500)
    assert 3e-13 <= reports[50].max_error <= 1.5e-12
    assert 3e-13 <= reports[60].max_error <= 1.5e-12
    assert reports[50].max_error / reports[60].max_error <= 1.25


def test_sweep_gap_needs_extension():
    core_only = quantize_arcsine(min_pieces(5, 1e-12), WIDTH)
    with pytest.raises(FixedPointError):
        estimate_eps_calculation(WIDTH, core_only, samples=10, include_gap=True)


def test_sweep_deterministic(arcsine_table):
    a = estimate_eps_calculation(WIDTH, arcsine_table, samples=500)
    b = estimate_eps_calculation(WIDTH, arcsine_table, samples=500)
    assert a == b
