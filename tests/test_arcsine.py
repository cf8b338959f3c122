import dataclasses
import math
import random
import time

import mpmath as mp
import numpy as np
import pytest

from cloudq import arcsine

from cloudq.arcsine import (
    DegreeTooLowError,
    FitError,
    chebyshev_fit,
    linf_error,
    min_pieces,
    verify,
)
from cloudq.presets import choose_config


def test_fit_nearly_linear_region():
    coeffs = chebyshev_fit(0.0, 0.01, 1)
    assert linf_error(coeffs, 0.0, 0.01) <= 1e-6


def test_fit_degenerate_interval():
    coeffs = chebyshev_fit(0.3, 0.3, 4)
    assert linf_error(coeffs, 0.3, 0.3) == 0.0


def test_single_piece_insufficient_at_degree5():
    coeffs = chebyshev_fit(0.0, 0.5, 5)
    assert linf_error(coeffs, 0.0, 0.5) > 1e-12


def test_linf_error_zero_polynomial():
    err = linf_error([0.0], 0.0, 0.5)
    assert err == pytest.approx(math.pi / 6, rel=1e-12)


def test_min_pieces_reference_rows():
    assert min_pieces(5, 1e-12).piece_count == 15
    assert min_pieces(7, 1e-13).piece_count == 7
    # reference value is 27; this row sits within the documented +-2 band
    assert abs(min_pieces(6, 1e-15).piece_count - 27) <= 2


def test_pieces_tile_domain():
    pp = min_pieces(5, 1e-12)
    assert pp.pieces[0].lower == 0.0
    assert pp.pieces[-1].upper == 0.5
    for left, right in zip(pp.pieces, pp.pieces[1:]):
        assert left.upper == right.lower
    for piece in pp.pieces:
        assert piece.max_error < pp.eps


def test_monotonicity_in_degree_and_eps():
    m_d5 = min_pieces(5, 1e-12).piece_count
    m_d6 = min_pieces(6, 1e-12).piece_count
    assert m_d6 <= m_d5
    m_tight = min_pieces(5, 1e-13).piece_count
    assert m_tight >= m_d5


def test_degree_too_low():
    # below the double-precision measurement floor no subdomain converges
    with pytest.raises(DegreeTooLowError, match=r"eps=1e-17 .* double-precision floor 5\.55e-17"):
        min_pieces(1, 1e-17)
    # a reachable eps that would need an absurd number of linear pieces
    with pytest.raises(DegreeTooLowError):
        min_pieces(1, 1e-9, max_pieces=16)


def test_invalid_inputs():
    with pytest.raises(FitError):
        min_pieces(5, 0.0)
    with pytest.raises(FitError):
        chebyshev_fit(0.4, 0.2, 5)
    with pytest.raises(FitError):
        chebyshev_fit(0.0, 0.5, 0)


@pytest.mark.parametrize("domain", [(0.0, 1.5), (0.9, 2.0)])
def test_domain_past_one_is_refused_fast(domain):
    # arcsin is nan past 1, and nan errors used to bisect toward 1 forever
    start = time.monotonic()
    with pytest.raises(FitError, match=r"invalid domain"):
        min_pieces(5, 1e-12, domain=domain)
    with pytest.raises(FitError, match=r"invalid domain \[0\.9, 1\.5\]"):
        chebyshev_fit(0.9, 1.5, 5)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("position", [0, 1])
def test_verify_refuses_a_nan_piece_anywhere(position):
    pp = min_pieces(5, 1e-12)
    piece = pp.pieces[position]
    broken = dataclasses.replace(piece, coefficients=(math.nan,) + piece.coefficients[1:])
    pieces = pp.pieces[:position] + (broken,) + pp.pieces[position + 1:]
    with pytest.raises(FitError, match=rf"piece {position} on \[{piece.lower}, {piece.upper}\] .* nan"):
        verify(dataclasses.replace(pp, pieces=pieces), grid_factor=1)


@pytest.fixture(scope="module")
def fit_d5():
    return min_pieces(5, 1e-12)


# verify's answer at grid_factor 1 when piece 0 or 1 holds a non-finite
# number: a nan or an infinite last coefficient gives a nan reference error,
# an infinite coefficient 0 or 1 an infinite one, and a nan lower bound reads
# as a zero reference series, so the polynomial's own grid max comes back
NON_FINITE_PINNED = {
    (0, "lower", math.nan): 0.0625407617958108,
    (1, "lower", math.nan): 0.11745739213205436,
    **{(position, index, value): math.inf
       for position in (0, 1) for index in (0, 1) for value in (math.inf, -math.inf)},
    **{(position, index, value): FitError
       for position in (0, 1) for index in (0, 1, 5) for value in (math.nan,)},
    **{(position, 5, value): FitError for position in (0, 1) for value in (math.inf, -math.inf)},
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("position, where, value", list(NON_FINITE_PINNED))
def test_verify_keeps_its_answer_on_non_finite_pieces(fit_d5, position, where, value):
    piece = fit_d5.pieces[position]
    if where == "lower":
        broken = dataclasses.replace(piece, lower=value)
    else:
        coefficients = list(piece.coefficients)
        coefficients[where] = value
        broken = dataclasses.replace(piece, coefficients=tuple(coefficients))
    pp = dataclasses.replace(
        fit_d5, pieces=fit_d5.pieces[:position] + (broken,) + fit_d5.pieces[position + 1:]
    )
    expected = NON_FINITE_PINNED[position, where, value]
    if expected is FitError:
        with pytest.raises(FitError, match=rf"piece {position} on .* nan reference error"):
            verify(pp, grid_factor=1)
    else:
        assert verify(pp, grid_factor=1) == expected


def test_verification_pass_meets_eps():
    pp = min_pieces(6, 1e-13)
    assert verify(pp, grid_factor=2) <= 1.05 * pp.eps


def _reference_error(coefficients, a, b, grid):
    # grid max of |poly - arcsin| against the 45-digit reference series
    return arcsine._grid_max(arcsine._diff_series(coefficients, a, b), grid)


def test_reference_error_agrees_with_grid_error():
    coeffs = chebyshev_fit(0.0, 0.125, 5)
    grid = linf_error(coeffs, 0.0, 0.125, grid=2048)
    precise = _reference_error(coeffs, 0.0, 0.125, grid=2048)
    assert precise == pytest.approx(grid, rel=1e-2)


def test_choose_config_examples():
    assert choose_config(1e-13, 46) == (6, 12)
    assert choose_config(1e-12, 42) == (5, 15)
    assert choose_config(1e-13, 46, rows=[(1e-13, 7, 7)]) == (7, 7)
    with pytest.raises(FitError):
        choose_config(3e-7, 42)


def _per_piece_series(a, b, order):
    """The truth series with every cosine computed per piece, as before
    the shared table."""
    a_, b_ = mp.mpf(a), mp.mpf(b)
    mid, rad = (a_ + b_) / 2, (b_ - a_) / 2
    n = 2 * order + 8
    nodes = [mp.cos(mp.pi * (2 * k + 1) / (2 * n)) for k in range(n)]
    values = [mp.asin(mid + rad * u) for u in nodes]
    series = []
    for j in range(order + 1):
        acc = mp.fsum(
            values[k] * mp.cos(mp.pi * j * (2 * k + 1) / (2 * n)) for k in range(n)
        )
        coeff = 2 * acc / n
        if j == 0:
            coeff /= 2
        series.append(coeff)
    return series


@pytest.mark.parametrize("degree, a, b", [(4, 0.25, 0.3125), (8, 0.375, 0.5)])
def test_shared_cosine_table_is_bit_identical(degree, a, b):
    coeffs = tuple(float(c) for c in chebyshev_fit(a, b, degree))
    order = degree + arcsine.VERIFY_EXTRA_ORDER
    with mp.workdps(arcsine.VERIFY_DPS):
        expected = _per_piece_series(a, b, order)
        for _ in range(2):  # built, then reused
            assert arcsine._truth_series(a, b, order) == expected
        padded = [mp.mpf(c) for c in coeffs] + [mp.mpf(0)] * (order + 1 - len(coeffs))
        diff = np.array([float(c - t) for c, t in zip(padded, expected)])
    u = np.linspace(-1.0, 1.0, 257)
    expected_error = float(np.max(np.abs(np.polynomial.chebyshev.chebval(u, diff))))
    assert _reference_error(coeffs, a, b, 257) == expected_error
    assert arcsine._cosine_table.cache_info().currsize == 1


def test_verify_pinned():
    # values recorded with the per-piece cosine series
    assert verify(min_pieces(5, 1e-12), 10) == 8.857503545428922e-13
    assert verify(min_pieces(8, 1e-15), 10) == 8.050598901662439e-16


def _man_exp(x):
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man, exp)


@pytest.mark.parametrize("prec", [8, 16, 153])
def test_cosine_table_matches_mp_cos(prec):
    n, order = 10, 4
    with mp.workprec(prec):
        expected = [
            [_man_exp(mp.cos(mp.pi * j * (2 * k + 1) / (2 * n))) for k in range(n)]
            for j in range(order + 1)
        ]
    assert [list(row) for row in arcsine._cosine_table(n, order, prec)] == expected


def _cancelling_sums(prec):
    """Products whose sum mpf_sum's drop limit decides: a lone term ``shift``
    bits below a cancelling pair, across the shifts where that limit
    (``2 * prec`` bits) falls, in both orders.  Every product rounds and
    sheds a trailing zero, so the drop tests see the rounded terms'
    exponents and bit counts."""
    odd = (1 << prec) - 1  # odd * odd rounds to 2**prec - 2
    with mp.workprec(prec):
        for shift in range(prec - 2, 5 * prec):
            lone = (mp.ldexp(odd, -shift), mp.mpf(odd))
            pair = [(mp.mpf(odd), mp.mpf(odd)), (mp.mpf(-odd), mp.mpf(odd))]
            yield [lone, *pair]
            yield [pair[0], lone, pair[1]]


def _random_sums(prec):
    """Mixed signs, zero terms, and exponents close together or up to
    ``6 * prec`` apart."""
    rng = random.Random(prec)
    with mp.workprec(prec):
        for trial in range(300):
            spread = 3 * prec if trial % 3 == 0 else 4
            yield [
                tuple(
                    mp.ldexp(rng.choice([-1, 1]) * rng.getrandbits(prec) * (rng.random() > 0.1),
                             rng.randint(-spread, spread))
                    for _ in range(2)
                )
                for _ in range(rng.randint(1, 12))
            ]


@pytest.mark.parametrize("prec", [8, 16, 153])
def test_fsum_products_matches_mpf_products(prec):
    # the comparand is the mpf product loop _truth_series used to run
    ties = 0
    for pairs in [*_random_sums(prec), *_cancelling_sums(prec)]:
        with mp.workprec(prec):
            expected = mp.fsum(x * y for x, y in pairs)
        xs = [_man_exp(x) for x, _ in pairs]
        ys = [_man_exp(y) for _, y in pairs]
        assert arcsine._fsum_products(xs, ys, prec) == expected._mpf_
        for (x, _), (y, _) in zip(xs, ys):
            shift = abs(x * y).bit_length() - prec
            ties += shift > 0 and abs(x * y) % (1 << shift) == 1 << (shift - 1)
    if prec < 153:
        assert ties > 0  # rounding ties were exercised
