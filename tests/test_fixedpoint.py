import math
import random
import re
import signal
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudq import fixedpoint
from cloudq.arcsine import PiecewisePolynomial, PolynomialPiece, min_pieces
from cloudq.fixedpoint import (
    CarryOutError,
    DivisionByZeroError,
    EpsSweepReport,
    FixedPointError,
    FixedPointRangeError,
    QuantizedArcsine,
    QuantizedPiece,
    _arcsin_bits,
    _div_bits,
    _encode_bits,
    _in_register,
    _mul_bits,
    _sqrt_bits,
    _sub_bits,
    build_quantized_arcsine,
    emulate_up_pipeline,
    estimate_eps_calculation,
    quantize_arcsine,
    sweep_inputs,
)
from cloudq.states import require_count

WIDTH = 42
ONE = 1 << (WIDTH - 1)  # the register bits of 1.0
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
    assert _encode_bits(0.5, 4) == 0b0100
    assert _encode_bits(1.0, 4) == 0b1000
    assert _in_register(5, 4) == 0b0101
    with pytest.raises(FixedPointRangeError):
        _encode_bits(2.0, 4)
    with pytest.raises(FixedPointRangeError):
        _encode_bits(-0.1, 4)
    with pytest.raises(FixedPointRangeError):
        _in_register(16, 4)


@given(st.floats(min_value=0.0, max_value=1.9999, allow_nan=False))
def test_encode_decode_within_one_ulp(x):
    assert 0 <= x - _encode_bits(x, WIDTH) / ONE < ULP


def test_add_sub_and_overflow():
    a = _encode_bits(0.75, WIDTH)
    b = _encode_bits(0.5, WIDTH)
    assert _sub_bits(a, b) / ONE == 0.25
    with pytest.raises(FixedPointRangeError):
        _sub_bits(b, a)


def test_mul_const_int_ui_frozen():
    # exact rational oracle: floor(2**41/10) = 219902325555
    result = _mul_bits(6, _encode_bits(Fraction(1, 10), WIDTH), WIDTH)
    assert result == 6 * ((1 << 41) // 10) == 1319413953330
    assert abs(Fraction(result, ONE) - Fraction(6, 10)) <= 6 * Fraction(1, 1 << 41)


def test_mul_const_int_ui_range():
    with pytest.raises(FixedPointRangeError):
        _mul_bits(8, _encode_bits(0.5, WIDTH), WIDTH)


def test_mul_const_int_ui_keeps_the_constant_register():
    # the product may reach 1 exactly; one step past it overflows
    half = _encode_bits(0.5, 8)
    assert _mul_bits(2, half, 8) == 1 << 7
    with pytest.raises(FixedPointRangeError, match=r"^product 3 \* 0\.5 exceeds 1$"):
        _mul_bits(3, half, 8)


def test_sqrt_refuses_an_operand_above_one():
    with pytest.raises(FixedPointRangeError, match=r"^fp_sqrt operand must lie in \[0, 1\]$"):
        _sqrt_bits(ONE + 1, WIDTH)


def test_sqrt_examples():
    assert _sqrt_bits(_encode_bits(0.25, WIDTH), WIDTH) / ONE == 0.5
    assert _sqrt_bits(_encode_bits(1.0, WIDTH), WIDTH) / ONE == 1.0
    root = _sqrt_bits(_encode_bits(0.5, WIDTH), WIDTH)
    assert abs(root / ONE - math.sqrt(0.5)) < ULP


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=ONE))
def test_sqrt_matches_isqrt_and_bound(bits):
    a = Fraction(bits, ONE)
    root = _sqrt_bits(bits, WIDTH)
    assert root == math.isqrt(bits << (WIDTH - 1))
    root = Fraction(root, ONE)
    assert abs(root * root - a) <= Fraction(4, 1 << WIDTH) * 2
    assert root * root <= a  # truncation never overshoots


def test_div_examples():
    num = _encode_bits(0.25, WIDTH)
    den = _encode_bits(0.5, WIDTH)
    assert _div_bits(num, den, WIDTH) / ONE == 0.5
    assert _div_bits(den, den, WIDTH) / ONE == 1.0
    a, b = _encode_bits(0.3, WIDTH), _encode_bits(0.7, WIDTH)
    q = Fraction(_div_bits(a, b, WIDTH), ONE)
    assert 0 <= Fraction(a, b) - q < Fraction(1, ONE)
    with pytest.raises(DivisionByZeroError):
        _div_bits(num, _encode_bits(0.0, WIDTH), WIDTH)
    with pytest.raises(FixedPointRangeError):
        _div_bits(den, num, WIDTH)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=ONE),
    st.integers(min_value=1, max_value=ONE),
)
def test_div_matches_floor(nbits, dbits):
    if nbits > dbits:
        nbits, dbits = dbits, nbits
    assert _div_bits(nbits, dbits, WIDTH) == (nbits << (WIDTH - 1)) // dbits


def test_arcsin_pp_point_values(arcsine_table):
    assert _arcsin_bits(_encode_bits(0.0, WIDTH), WIDTH, arcsine_table) == 0
    # the fit error plus the Horner chain's truncations, each < 1 step
    # and damped by u <= 1/2 in the steps after it
    for x, target in ((0.5, math.pi / 6), (0.1, 0.100167421161559796)):
        out = _arcsin_bits(_encode_bits(x, WIDTH), WIDTH, arcsine_table)
        assert abs(out / ONE - target) <= 1e-12 + 4 * ULP
    with pytest.raises(FixedPointRangeError):
        _arcsin_bits(_encode_bits(0.9, WIDTH), WIDTH, arcsine_table)


def test_arcsin_pp_refuses_a_register_of_another_width(arcsine_table):
    with pytest.raises(FixedPointError, match="^operand does not match the quantized table$"):
        _arcsin_bits(_encode_bits(0.1, WIDTH - 1), WIDTH - 1, arcsine_table)


def test_arcsin_pp_deterministic(arcsine_table):
    a = _encode_bits(0.37, WIDTH)
    assert _arcsin_bits(a, WIDTH, arcsine_table) == _arcsin_bits(a, WIDTH, arcsine_table)


def _crafted_table(*consts):
    # one 8-bit piece on [0, 1] with no shift, so u is the input's bits
    piece = QuantizedPiece(0, 1 << 7, 0, True, consts)
    return QuantizedArcsine(8, (piece,), 0.0)


def test_arcsin_accumulator_overflow_is_a_carry_out():
    # u = 1: the first Horner step gives 255 * 1 + 255, past the 8-bit register
    with pytest.raises(CarryOutError, match="^arcsine accumulator overflow$") as err:
        _arcsin_bits(1 << 7, 8, _crafted_table(0, 255, 255))
    assert type(err.value) is CarryOutError


def test_arcsin_accumulator_underflow_is_a_range_error():
    # u = 1/2 and zero coefficients: the offset subtraction goes below zero
    with pytest.raises(FixedPointRangeError, match="^arcsine accumulator underflow$") as err:
        _arcsin_bits(1 << 6, 8, _crafted_table(0, 0, 0))
    assert type(err.value) is FixedPointRangeError


def test_pipeline_zero_rate(arcsine_table):
    result = emulate_up_pipeline(0, 3, Fraction(1, 100), 1.0, WIDTH, arcsine_table)
    assert result.theta == 0
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
    assert abs(low.theta - high.theta) <= 2 * bound / ULP
    assert low.z != high.z


def test_pipeline_at_the_step_size_limit(arcsine_table):
    # r = s: the complement branch takes all of the remainder, w = 0
    result = emulate_up_pipeline(1, 1, 0.5, 0.5, WIDTH, arcsine_table)
    assert result.r == result.s_next
    assert result.z
    assert result.w == 0
    assert result.error <= _pipeline_bound(arcsine_table.source_eps)


def test_pipeline_trace_replay(arcsine_table):
    trace = emulate_up_pipeline(6, 5, 0.001, 0.93, WIDTH, arcsine_table)
    assert trace.product == 30
    assert trace.r == 30 * _encode_bits(0.001, WIDTH)
    assert trace.w == (trace.s_next - trace.r if trace.z else trace.r)
    assert trace.sqrt_w == math.isqrt(trace.w << (WIDTH - 1))
    assert trace.quotient == (trace.sqrt_w << (WIDTH - 1)) // trace.sqrt_s


def test_pipeline_encodes_each_input_once(arcsine_table, monkeypatch):
    # the multiply consumes the k_dt register the trace reports
    seen = []
    encode = fixedpoint._encode_bits
    monkeypatch.setattr(fixedpoint, "_encode_bits", lambda x, w: seen.append(x) or encode(x, w))
    trace = emulate_up_pipeline(6, 5, 0.001, 0.93, WIDTH, arcsine_table)
    assert seen == [0.93, 0.001]
    assert trace.r == 30 * trace.k_dt


def test_pipeline_refuses_a_rate_above_the_remainder(arcsine_table):
    with pytest.raises(
        FixedPointRangeError, match="^transition probability exceeds the remainder$"
    ):
        emulate_up_pipeline(6, 10, 0.01, 0.5, WIDTH, arcsine_table)


def test_pipeline_requires_valid_inputs(arcsine_table):
    with pytest.raises(FixedPointRangeError):
        emulate_up_pipeline(10, 10, 0.5, 0.6, WIDTH, arcsine_table)
    with pytest.raises(DivisionByZeroError):
        emulate_up_pipeline(1, 1, 0.001, 1e-14, WIDTH, arcsine_table)


@pytest.mark.parametrize("width", [0, -3, 2.5, True])
def test_width_below_one_is_refused_before_any_shift(arcsine_table, width):
    # a shift by width - 1 < 0 raises a bare ValueError, a shift by a float a
    # bare TypeError, and True would pass as the width 1
    if type(width) is int:
        message = f"^need width >= 1, got {width}$"
    else:
        message = f"^width must be an int, got {re.escape(repr(width))}$"
    with pytest.raises(FixedPointError, match=message):
        _encode_bits(0.5, width)
    with pytest.raises(FixedPointError, match=message):
        emulate_up_pipeline(1, 1, 0.1, 0.5, width, arcsine_table)
    with pytest.raises(FixedPointError, match=message.replace("width", "samples")):
        estimate_eps_calculation(WIDTH, arcsine_table, samples=width)


@pytest.mark.parametrize("bits", [2.5, 2.0, Fraction(5, 2), "3", True, np.int64(3)])
@pytest.mark.parametrize("register", ["integer"])
def test_register_refuses_non_int_bits(arcsine_table, bits, register):
    # the circuit's integer registers hold the droplet counts, which the
    # emulator takes as plain ints; the real registers are only ever filled
    # by the pipeline's own encodes, so a caller never hands it their bits
    message = "^droplet counts must be non-negative ints, got "
    with pytest.raises(FixedPointError, match=message):
        emulate_up_pipeline(bits, 3, 0.001, 0.9, WIDTH, arcsine_table)


@pytest.mark.parametrize("n_i, n_j", [(True, 3), (3, True), (-1, 3), (3, -2), (2.5, -1)])
def test_pipeline_refuses_bad_counts_before_any_encode(arcsine_table, n_i, n_j):
    # s_next = 5.0 and width 0 would each fail their encode, so this pins
    # that the counts are checked first
    message = f"^droplet counts must be non-negative ints, got {n_i!r} and {n_j!r}$"
    for s_next, width in ((0.9, WIDTH), (5.0, WIDTH), (0.9, 0)):
        with pytest.raises(FixedPointError, match=message):
            emulate_up_pipeline(n_i, n_j, 0.001, s_next, width, arcsine_table)


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


def _sweep_outcome(sweep):
    """``(max_error, mean_error)`` of a sweep, or its error's class and message."""
    try:
        return sweep()
    except FixedPointError as exc:
        return type(exc), str(exc)


def _looped_sweep(width, table, samples, include_gap):
    """``estimate_eps_calculation`` as a plain loop over the pipeline."""
    worst = total = 0.0
    for n_i, n_j, kdt, s in sweep_inputs(samples, include_gap=include_gap):
        error = emulate_up_pipeline(n_i, n_j, kdt, s, width, table).error
        worst = max(worst, error)
        total += error
    return worst, total / samples


def test_sweep_matches_a_loop_over_the_pipeline():
    # two tables at one width share the registers before the arcsine; the
    # d=7 gap sweep overflows at sample 96 and must raise there, and width
    # 1 encodes s to zero, which raises before any arcsine
    fixedpoint._kept_register_stage.cache_clear()
    width = 46
    tables = [build_quantized_arcsine(degree, 1e-13, width) for degree in (6, 7)]
    cases = [(width, table, samples, include_gap)
             for samples in (96, 97, 300) for include_gap in (False, True) for table in tables]
    cases.append((1, tables[0], 10, False))
    raised = 0
    for case in cases:
        got = _sweep_outcome(lambda: estimate_eps_calculation(*case))
        want = _sweep_outcome(lambda: _looped_sweep(*case))
        if isinstance(got, EpsSweepReport):
            got = got.max_error, got.mean_error
        assert got == want, case[2:]
        raised += isinstance(want[0], type)
    assert raised == 3  # 97 and 300 gap samples of d=7, and width 1
    assert fixedpoint._kept_register_stage.cache_info().hits >= 6


def _restoring_sqrt(radicand, out_bits):
    """The circuit's digit-by-digit square root, restoring form."""
    result = 0
    remainder = 0
    for k in reversed(range(out_bits)):
        remainder = (remainder << 2) | ((radicand >> (2 * k)) & 3)
        trial = (result << 2) | 1
        if trial <= remainder:
            remainder -= trial
            result = (result << 1) | 1
        else:
            result <<= 1
    return result


def _restoring_div(num, den, width):
    """The circuit's restoring long division: one integer bit, then width-1
    fraction bits."""
    quotient = 0
    remainder = num
    for _ in range(width):
        quotient <<= 1
        if remainder >= den:
            remainder -= den
            quotient |= 1
        remainder <<= 1
    return quotient


@pytest.mark.parametrize("width", [1, 2, 3, 8, 42, 64])
def test_sqrt_matches_restoring_loop(width):
    rng = random.Random(width)
    # isqrt equals the w-digit loop for every radicand below 2**(2w)
    radicands = [rng.randrange(1 << (2 * width)) for _ in range(300)]
    for root in [0, 1, 2, rng.randrange(1 << width), (1 << width) - 1]:
        radicands += [root * root - 1, root * root, root * root + 1]
    for radicand in radicands:
        if 0 <= radicand < 1 << (2 * width):
            assert math.isqrt(radicand) == _restoring_sqrt(radicand, width)
    one = 1 << (width - 1)
    for bits in [0, 1, one - 1, one] + [rng.randint(0, one) for _ in range(200)]:
        assert _sqrt_bits(bits, width) == _restoring_sqrt(bits << (width - 1), width)


@pytest.mark.parametrize("width", [1, 2, 3, 8, 42, 64])
def test_div_matches_restoring_loop(width):
    rng = random.Random(width)
    top = (1 << width) - 1
    pairs = [(top, top), (0, 1), (1, 1), (top - 1, top), (1, top)]
    for _ in range(300):
        den = rng.randint(1, top)
        pairs += [(rng.randint(0, den), den), (den, den)]
    for num, den in pairs:
        assert _div_bits(num, den, width) == _restoring_div(num, den, width)


def test_piece_lookup_matches_linear_scan(arcsine_table):
    # two domains: the core pieces on [0, 1/2], then the extension past it
    assert arcsine_table.extension_piece_count > 0
    for piece in arcsine_table.pieces:
        for bits in (piece.lower_bits, piece.upper_bits - 1, piece.upper_bits,
                     piece.upper_bits + 1):
            if 0 <= bits <= arcsine_table.domain_end_bits:
                first = next(p for p in arcsine_table.pieces if bits <= p.upper_bits)
                assert arcsine_table.piece_for(bits) is first


def _fraction_encode(x, width):
    """Real-mode encoding through Fraction arithmetic, as the encode once ran."""
    exact = Fraction(x)
    if exact < 0 or exact >= 2:
        raise FixedPointRangeError(f"{x} outside the real-mode range [0, 2)")
    return int(exact * (1 << (width - 1)))


@pytest.mark.parametrize("width", [1, 2, 24, 42, 53, 64, 1100])
def test_encode_float_matches_fraction_path(width):
    rng = random.Random(width)
    values = [rng.uniform(0.0, 2.0) for _ in range(300)]
    values += [rng.random() * 2.0 ** -rng.randint(0, 1080) for _ in range(100)]
    values += [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1.0,
               math.nextafter(2.0, 0.0), Fraction(1, 3), Fraction(7, 4), 0, 1]
    for x in values:
        assert _encode_bits(x, width) == _fraction_encode(x, width)
    for x in (2.0, 3.5, -5e-324, -0.5, float("nan"), float("inf"), float("-inf"),
              Fraction(2), Fraction(-1, 3), 2, -1):
        if math.isfinite(x):
            with pytest.raises(Exception) as expected:
                _fraction_encode(x, width)
            want = expected.type, re.escape(str(expected.value))
        else:  # Fraction(x) has no value to refuse; the range error refuses x itself
            want = FixedPointRangeError, re.escape(f"{x} outside the real-mode range [0, 2)")
        with pytest.raises(want[0], match=f"^{want[1]}$") as got:
            _encode_bits(x, width)
        assert type(got.value) is want[0]


def test_pipeline_refuses_a_non_finite_input(arcsine_table):
    # a caller that catches FixedPointError catches a nan rate as well
    with pytest.raises(FixedPointError, match=r"^nan outside the real-mode range \[0, 2\)$"):
        emulate_up_pipeline(1, 1, k_dt=float("nan"), s_next=1.0, width=WIDTH,
                            table=arcsine_table)


@pytest.mark.parametrize("width", [WIDTH, 60])
def test_pipeline_error_matches_fraction_ratio(arcsine_table, width):
    # past 53 bits the registers are no longer exact floats
    table = arcsine_table if width == WIDTH else build_quantized_arcsine(5, 1e-12, width)
    for n_i, n_j, kdt, s in sweep_inputs(300, include_gap=True):
        result = emulate_up_pipeline(n_i, n_j, kdt, s, width, table)
        ratio = float(Fraction(result.r, result.s_next))
        theta = float(Fraction(result.theta, 1 << (width - 1)))
        assert result.error == abs(theta - math.asin(math.sqrt(ratio)))


def test_sweep_pinned(arcsine_table):
    # values recorded with the Fraction encode, the bit-serial square root
    # and division, the linear piece scan and the Fraction ratio
    plain = estimate_eps_calculation(WIDTH, arcsine_table, samples=2000)
    gap = estimate_eps_calculation(WIDTH, arcsine_table, samples=2000, include_gap=True)
    assert (plain.max_error, plain.mean_error) == (1.7690848785889557e-12, 7.875726338452127e-13)
    assert (gap.max_error, gap.mean_error) == (1.7172929744901921e-12, 6.539877944744532e-13)


def _fraction_power_coeffs(piece):
    """The Fraction recurrence the power coefficients once ran on: each
    ``T_k(slope * t - 1)`` built as a Fraction polynomial in ``t``."""
    slope = Fraction(2) / (Fraction(piece.upper) - Fraction(piece.lower))
    beta = [Fraction(0)] * len(piece.coefficients)
    prev = []
    cur = [Fraction(1)]
    for k, c in enumerate(piece.coefficients):
        for j, a in enumerate(cur):
            beta[j] += Fraction(c) * a
        scale = 1 if k == 0 else 2
        nxt = [-scale * a for a in cur] + [Fraction(0)]
        for j, a in enumerate(cur):
            nxt[j + 1] += scale * slope * a
        for j, a in enumerate(prev):
            nxt[j] -= a
        prev, cur = cur, nxt
    return beta


def _power_coeffs(piece):
    """The integer power ratios as Fractions."""
    return [Fraction(num, den) for num, den in fixedpoint._power_ratios(piece)]


@pytest.mark.parametrize("degree, eps", [(1, 1e-6), (4, 1e-12), (6, 1e-13), (9, 1e-15)])
def test_integer_power_coeffs_match_fraction_recurrence(degree, eps):
    domains = [(0.0, 0.5), fixedpoint.EXTENSION_DOMAIN] if degree < 9 else [(0.0, 0.5)]
    for domain in domains:
        for piece in min_pieces(degree, eps, domain=domain).pieces:
            assert _power_coeffs(piece) == _fraction_power_coeffs(piece)


_COEFFICIENT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e-300, max_value=1e-300),
)


@settings(max_examples=200)
@given(
    st.lists(_COEFFICIENT, min_size=1, max_size=12),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=1e-12, max_value=1.0),
)
def test_integer_power_coeffs_match_on_any_dyadic_piece(coefficients, lower, width):
    upper = lower + width
    piece = PolynomialPiece(lower, upper, tuple(coefficients), 0.0)
    assert _power_coeffs(piece) == _fraction_power_coeffs(piece)


@contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in this process once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("lower, upper", [(0.25, 0.125), (0.25, 0.25)])
def test_quantize_refuses_an_empty_piece_before_any_loop(lower, upper):
    # upper < lower ran the max_shift loop forever, and upper == lower
    # raised a bare ZeroDivisionError from the slope
    piece = PolynomialPiece(lower, upper, (0.2, 0.06), 0.0)
    pp = PiecewisePolynomial((piece,), degree=1, eps=1e-6)
    message = f"^arcsine piece \\[{lower}, {upper}\\] needs lower < upper$"
    with _deadline(2.0), pytest.raises(FixedPointError, match=message) as err:
        quantize_arcsine(pp, WIDTH)
    assert type(err.value) is FixedPointError


def _fraction_quantize_piece(piece, width):
    """``_quantize_piece`` as it ran on Fractions: every candidate shift
    scales each coefficient as a Fraction, and ``int`` truncates each
    offset constant toward zero."""
    one = 1 << (width - 1)
    beta = _fraction_power_coeffs(piece)
    piece_width = Fraction(piece.upper) - Fraction(piece.lower)
    max_shift = 0
    while piece_width * (1 << (max_shift + 1)) <= Fraction(1, 2):
        max_shift += 1
    for t_shift in range(0, max_shift + 1):
        scaled = [b / (1 << (k * t_shift)) for k, b in enumerate(beta)]
        if all(Fraction(-1, 8) <= b <= Fraction(7, 8) for b in scaled[1:]):
            break
    else:
        raise FixedPointError("arcsine coefficients too large to scale")
    biased_constant = scaled[0] < Fraction(7, 8)
    consts = [int((Fraction(1) + b) * one) for b in scaled]
    if not biased_constant:
        consts[0] = int(scaled[0] * one)
    return fixedpoint.QuantizedPiece(
        lower_bits=_fraction_encode(piece.lower, width),
        upper_bits=_fraction_encode(piece.upper, width),
        t_shift=t_shift,
        biased_constant=biased_constant,
        consts=tuple(consts),
    )


def _same_outcome(run, expected_run):
    """Both calls return equal values, or raise the same class and message."""
    try:
        expected = expected_run()
    except FixedPointError as exc:
        with pytest.raises(type(exc)) as err:
            run()
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    assert run() == expected


@pytest.mark.parametrize("degree, eps", [(1, 1e-6), (5, 1e-12), (9, 1e-15)])
@pytest.mark.parametrize("width", [8, 42, 64])
def test_integer_quantize_matches_fraction_quantize(degree, eps, width):
    for piece in min_pieces(degree, eps).pieces:
        _same_outcome(
            lambda: fixedpoint._quantize_piece(piece, width),
            lambda: _fraction_quantize_piece(piece, width),
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_COEFFICIENT, min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=1e-12, max_value=1.0),
    st.integers(min_value=1, max_value=70),
)
def test_integer_quantize_matches_on_any_dyadic_piece(coefficients, lower, width, bits):
    # negative constants included: int() truncated them toward zero
    piece = PolynomialPiece(lower, lower + width, tuple(coefficients), 0.0)
    _same_outcome(
        lambda: fixedpoint._quantize_piece(piece, bits),
        lambda: _fraction_quantize_piece(piece, bits),
    )


def _scanned_arcsin(a, width, table):
    """The offset Horner recurrence on the first piece a linear scan finds,
    with Fraction products floored to the register."""
    if width != table.width:
        raise FixedPointError("operand does not match the quantized table")
    one = 1 << (width - 1)
    if a > table.pieces[-1].upper_bits:
        raise FixedPointRangeError(f"arcsine input {a / one} outside the quantized domain")
    piece = next(p for p in table.pieces if a <= p.upper_bits)
    u = (a - piece.lower_bits) * 2**piece.t_shift
    acc = piece.consts[-1]
    for const in piece.consts[-2:0:-1]:
        acc = math.floor(Fraction(u * acc, one)) + const
        if acc >= 2 * one:
            raise CarryOutError("arcsine accumulator overflow")
        acc -= u
        if acc < 0:
            raise FixedPointRangeError("arcsine accumulator underflow")
    theta = math.floor(Fraction(u * acc, one)) + piece.consts[0]
    if theta >= 2 * one:
        raise CarryOutError("arcsine result overflow")
    return max(theta - u - (one if piece.biased_constant else 0), 0)


def _composed_pipeline(n_i, n_j, k_dt, s_next, width, table, force_branch=None):
    """The angle pipeline composed from this file's references: the
    Fraction encode, the bit-serial square root and division, the scanned
    arcsine and a Fraction ratio, ``(theta bits, error)``."""
    if not all(type(n) is int and n >= 0 for n in (n_i, n_j)):
        raise FixedPointError(
            f"droplet counts must be non-negative ints, got {n_i!r} and {n_j!r}"
        )
    require_count("width", width, 1, FixedPointError)
    one = 1 << (width - 1)
    s = _fraction_encode(s_next, width)
    if s == 0:
        raise DivisionByZeroError("remaining probability encoded to zero")
    k = _fraction_encode(k_dt, width)
    r = n_i * n_j * k
    if r > one:
        raise FixedPointRangeError(f"product {n_i * n_j} * {float(Fraction(k, one))} exceeds 1")
    if r > s:
        raise FixedPointRangeError("transition probability exceeds the remainder")
    z = r >= s // 4 if force_branch is None else force_branch
    w = s - r if z else r
    if max(w, s) > one:
        raise FixedPointRangeError("fp_sqrt operand must lie in [0, 1]")
    sqrt_w = _restoring_sqrt(w * one, width)
    quotient = _restoring_div(sqrt_w, _restoring_sqrt(s * one, width), width)
    theta = _scanned_arcsin(quotient, width, table)
    if z:
        with mp.workdps(width + 20):
            theta = int(mp.floor(mp.pi / 2 * one)) - theta
        if not 0 <= theta < 2 * one:
            raise FixedPointRangeError(f"bits {theta} outside [0, 2**{width})")
    ratio = float(Fraction(r, s))
    return theta, abs(float(Fraction(theta, one)) - math.asin(math.sqrt(ratio)))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-1, max_value=45),
    st.integers(min_value=0, max_value=45),
    st.one_of(st.floats(min_value=0.0, max_value=0.05), st.just(2.5)),
    st.one_of(st.floats(min_value=0.0, max_value=1.2), st.sampled_from([1e-14, 2.0])),
    st.sampled_from([WIDTH, WIDTH - 1, 0]),
    st.sampled_from([None, False, True]),
)
@example(1, 1, 0.25, 1.0, WIDTH, None)  # r = s/4: the comparison's own boundary
def test_pipeline_core_matches_the_composed_operations(
    arcsine_table, n_i, n_j, k_dt, s_next, width, force_branch
):
    # every result and every error class and message, in the checks' order
    args = (n_i, n_j, k_dt, s_next, width, arcsine_table, force_branch)

    def traced():
        trace = emulate_up_pipeline(*args)
        return trace.theta, trace.error

    _same_outcome(traced, lambda: _composed_pipeline(*args))
