import math

import pytest

from cloudq.arcsine import (
    DegreeTooLowError,
    FitError,
    chebyshev_fit,
    choose_config,
    linf_error,
    min_pieces,
    reference_error,
    verify,
)


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
    with pytest.raises(DegreeTooLowError):
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


def test_evaluate_and_piece_lookup():
    pp = min_pieces(5, 1e-12)
    for x in (0.0, 0.1234, 0.25, 0.4999, 0.5):
        assert pp.evaluate(x) == pytest.approx(math.asin(x), abs=2e-12)
    with pytest.raises(FitError):
        pp.piece_for(0.6)


def test_verification_pass_meets_eps():
    pp = min_pieces(6, 1e-13)
    assert verify(pp, grid_factor=2) <= 1.05 * pp.eps


def test_reference_error_agrees_with_grid_error():
    coeffs = chebyshev_fit(0.0, 0.125, 5)
    grid = linf_error(coeffs, 0.0, 0.125, grid=2048)
    precise = reference_error(coeffs, 0.0, 0.125, grid=2048)
    assert precise == pytest.approx(grid, rel=1e-2)


def test_choose_config_examples():
    assert choose_config(1e-13, 46) == (6, 12)
    assert choose_config(1e-12, 42) == (5, 15)
    assert choose_config(1e-13, 46, rows=[(1e-13, 7, 7)]) == (7, 7)
    with pytest.raises(FitError):
        choose_config(3e-7, 42)
