"""Piecewise polynomial approximation of arcsine on [0, 0.5].

Pieces are produced greedily: starting from the left edge, the candidate
subdomain is the whole remainder and its right endpoint is halved toward
the left edge until the degree-``d`` fit meets the target ``eps``; the
subdomain is then frozen and construction continues from its right edge.

The per-candidate fit is a least-squares Chebyshev-basis polynomial over
a dense uniform grid with the error measured in double precision, which
is what the reference piece-count table was produced with (a noise floor
near 1e-15 is part of that data).  A candidate that a certified lower
bound already dooms is halved without a fit.  A separate verification
pass re-measures every assembled piece against an extended-precision
arcsine (difference of Chebyshev series), so construction speed never
compromises the certified error; it runs the extended-precision series
and the dense grid only for the pieces whose float upper bound can still
raise the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath import libmp

from .states import require_count

_cheb = np.polynomial.chebyshev

FIT_POINTS = 2001
DEFAULT_ERROR_GRID = 4096
MAX_BISECTIONS = 64
MAX_PIECES = 4096
VERIFY_DPS = 45  # working precision (digits) of the arcsine reference
VERIFY_EXTRA_ORDER = 40  # reference series terms beyond the fit's degree
_SHARED_DEGREE = 9  # fits up to this degree share one reference order
_UNIT = 2.0**-53  # unit roundoff of float64
_FIXED_BITS = 200  # fraction bits of the Taylor terms in _prebound


class FitError(ValueError):
    """Invalid fit request or domain."""


class DegreeTooLowError(FitError):
    """The degree cannot reach ``eps``: a subdomain failed to converge after
    the bisection limit, the piece budget ran out, or ``eps`` lies below
    the double-precision floor."""


@dataclass(frozen=True)
class PolynomialPiece:
    """One subdomain with its Chebyshev-basis coefficients.

    Coefficients act on ``u = (2x - lower - upper) / (upper - lower)``.
    ``max_error`` is the construction-time grid measurement.
    """

    lower: float
    upper: float
    coefficients: tuple[float, ...]
    max_error: float


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Contiguous pieces tiling ``domain`` with per-piece error <= eps."""

    pieces: tuple[PolynomialPiece, ...]
    degree: int
    eps: float
    domain: tuple[float, float] = (0.0, 0.5)

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    def max_recorded_error(self) -> float:
        return max(piece.max_error for piece in self.pieces)


def chebyshev_fit(a: float, b: float, degree: int) -> np.ndarray:
    """Near-minimax degree-``degree`` fit of arcsine on ``[a, b]``.

    Least squares in the Chebyshev basis over a uniform grid; returns the
    basis coefficients.  A degenerate interval yields the exact constant.
    """
    if not 0 <= a <= b <= 1:
        raise FitError(f"invalid domain [{a}, {b}]")
    require_count("degree", degree, 1, FitError)
    if a == b:
        return np.array([float(np.arcsin(a))] + [0.0] * degree)
    xs = np.linspace(a, b, FIT_POINTS)
    u = (2 * xs - a - b) / (b - a)
    return _cheb.chebfit(u, np.arcsin(xs), degree)


def linf_error(coefficients: Sequence[float], a: float, b: float) -> float:
    """Max |poly - arcsin| over the :data:`DEFAULT_ERROR_GRID`-point uniform
    grid on ``[a, b]``."""
    xs = np.linspace(a, b, DEFAULT_ERROR_GRID)
    if a == b:
        return float(abs(_cheb.chebval(0.0, np.array(coefficients)) - np.arcsin(a)))
    u = (2 * xs - a - b) / (b - a)
    values = _cheb.chebval(u, np.array(coefficients))
    return float(np.max(np.abs(values - np.arcsin(xs))))


def _fit_is_doomed(a: float, b: float, degree: int, eps: float, reach: float | None = None) -> bool:
    """Whether every degree-``d`` fit on ``[a, b]`` certainly has
    ``linf_error >= eps``, so :func:`min_pieces` may halve ``b`` unfitted;
    with ``reach``, every fit as wide or wider inside ``[a, reach]`` (README).

    De la Vallee Poussin: with ``w_k = 1 / prod_{m != k} (u_k - u_m)`` at
    the ``d + 2`` grid points nearest the extrema of ``T_{d+1}``, every
    degree-``d`` polynomial errs there by at least ``L = |sum w_k f_k| /
    sum |w_k|`` (``f`` shifted by ``f_0``, as ``sum w_k = 0``).  Doomed
    means ``L`` beyond ``eps`` plus the rounding slack that the README
    derives.  That derivation needs distinct, evenly spread points with
    finite weights and no underflow, so a narrower candidate never dooms.
    """
    grid, top = DEFAULT_ERROR_GRID, b if reach is None else reach
    if not b - a >= max(16 * (grid - 1) * math.ulp(top), 2.0**-900) or 2 * degree**2 >= grid - 1:
        return False
    index = [
        round((1 - math.cos(k * math.pi / (degree + 1))) / 2 * (grid - 1))
        for k in range(degree + 2)
    ]
    points = np.linspace(a, b, grid)[index].tolist()
    u = [(2 * x - a - b) / (b - a) for x in points]  # the same operations as linf_error
    weights = []
    for k, u_k in enumerate(u):
        product = 1.0
        for m, u_m in enumerate(u):
            if m != k:
                product *= u_k - u_m
        weights.append(1 / product)
    f_0 = math.asin(points[0])
    shifted = [math.asin(x) - f_0 for x in points]
    bound = abs(sum(w * g for w, g in zip(weights, shifted))) / sum(map(abs, weights))
    asin_b = math.asin(top)
    fit_norm = 1.01 * (asin_b + eps) / (1 - 2 * degree**2 / (grid - 1))
    slack = (
        8 * (degree + 2) * _UNIT * max(map(abs, shifted))  # L's own rounding
        + 8 * math.ulp(asin_b)  # math.asin here against np.arcsin there
        + 2 * _UNIT * eps  # linf_error's subtraction
        # chebval's Clenshaw rounding of a fit that would pass
        + 6 * (degree + 1) ** 2 * (1 + math.sqrt(2 * degree)) * _UNIT * fit_norm
    )
    return bound / (1 if reach is None else 2) > eps + slack


def min_pieces(
    degree: int, eps: float, domain: tuple[float, float] = (0.0, 0.5)
) -> PiecewisePolynomial:
    """Greedy left-to-right assembly of the minimum piece count.

    Each subdomain's right endpoint is bisected toward its left edge until
    the fit error drops below ``eps``; a candidate that
    :func:`_fit_is_doomed` rejects is halved without a fit, and still
    counts as a halving.  More than :data:`MAX_BISECTIONS` halvings of a
    single subdomain, or a piece budget past :data:`MAX_PIECES`, raises
    :class:`DegreeTooLowError`, the budget's as soon as the lower bound
    proves it cannot hold.  So does an ``eps`` at or below half an ulp
    of ``arcsin(hi)``, before any fit: no grid measurement in double
    precision can certify it.  The degree must be an int of at least one,
    ``eps`` a number above zero (not ``nan``), and the domain must lie in
    ``[0, 1]``.
    """
    require_count("degree", degree, 1, FitError)
    if not eps > 0:
        raise FitError(f"need eps > 0, got {eps}")
    lo, hi = domain
    if not 0 <= lo < hi <= 1:
        raise FitError(f"invalid domain {domain}")
    # the grid error is measured against float64 arcsin, whose rounding
    # alone reaches half an ulp of arcsin(hi)
    floor = float(np.spacing(np.arcsin(hi))) / 2
    if eps <= floor:
        raise DegreeTooLowError(
            f"eps={eps} is at or below the double-precision floor {floor:.3g} "
            f"of the grid error on {domain}"
        )
    pieces: list[PolynomialPiece] = []
    a = lo
    while a < hi:
        left = MAX_PIECES - len(pieces)  # one of `left` more pieces must be `wide`
        wide = (hi - a) / max(left, 1)
        if left < 1 or (pieces and pieces[-1].upper - pieces[-1].lower < wide
                        and _fit_is_doomed(a, min(hi, a + wide), degree, eps, reach=hi)):
            raise DegreeTooLowError(
                f"degree {degree} needs more than {MAX_PIECES} pieces for eps={eps}"
            )
        b = hi
        for _ in range(MAX_BISECTIONS):
            if _fit_is_doomed(a, b, degree, eps):
                b = (a + b) / 2
                continue
            coeffs = chebyshev_fit(a, b, degree)
            err = linf_error(coeffs, a, b)
            if err < eps:
                break
            b = (a + b) / 2
        else:
            raise DegreeTooLowError(
                f"degree {degree} cannot reach eps={eps} near {a} after "
                f"{MAX_BISECTIONS} bisections"
            )
        pieces.append(
            PolynomialPiece(
                lower=a, upper=b, coefficients=tuple(float(c) for c in coeffs),
                max_error=err,
            )
        )
        a = b
    return PiecewisePolynomial(
        pieces=tuple(pieces), degree=degree, eps=eps, domain=domain
    )


@lru_cache(maxsize=1)
def _cosine_table(n: int, order: int, prec: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``cos(pi j (2k+1) / 2n)`` for ``j <= order``, ``k < n`` at binary
    precision ``prec``, each as a signed mantissa and an exponent; row 1
    holds the Chebyshev nodes.  The ``libmp`` calls are the ones
    ``mp.cos(mp.pi * j * (2k+1) / (2n))`` makes, so the bits are the same.
    Every piece of every fit up to degree :data:`_SHARED_DEGREE` reads one
    table (:func:`_reference_order`), so keeping only the latest builds one
    per pass over the piece-count table's rows."""
    rnd = libmp.round_nearest
    pi, den = libmp.mpf_pi(prec, rnd), libmp.from_int(2 * n)

    def row(j: int) -> tuple[tuple[int, int], ...]:
        pi_j = libmp.mpf_mul_int(pi, j, prec, rnd)
        return tuple(
            _signed(libmp.mpf_cos(libmp.mpf_div(
                libmp.mpf_mul_int(pi_j, 2 * k + 1, prec, rnd), den, prec, rnd
            ), prec, rnd))
            for k in range(n)
        )

    return tuple(row(j) for j in range(order + 1))


def _reference_order(coefficients: Sequence[float]) -> int:
    """The last term of a polynomial's reference series:
    :data:`VERIFY_EXTRA_ORDER` past its degree, or past
    :data:`_SHARED_DEGREE` for every lower degree, so those fits share one
    cosine table and are checked against no fewer terms."""
    return max(len(coefficients) - 1, _SHARED_DEGREE) + VERIFY_EXTRA_ORDER


def _reference_table(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cosine table of an ``order`` reference series, on ``n = 2 order
    + 8`` nodes at the working precision."""
    return _cosine_table(2 * order + 8, order, mp.mp.prec)


def _signed(x: tuple) -> tuple[int, int]:
    """A raw ``mpf`` as (signed mantissa, exponent)."""
    sign, man, exp, _ = x
    return (-man if sign else man, exp)


def _scaled(man: int, exp: int) -> int:
    """``floor(man * 2**exp)``."""
    return man << exp if exp >= 0 else man >> -exp


def _fsum_products(xs: Sequence[tuple[int, int]], ys: Sequence[tuple[int, int]], prec: int):
    """``mp.fsum(x * y for x, y in zip(xs, ys))`` at precision ``prec`` on
    normalized ``(signed mantissa, exponent)`` pairs, as a raw ``mpf``.
    Each exact product is rounded to ``prec`` bits, nearest with ties to
    even, and stripped of trailing zeros, as ``mpf.__mul__`` does; the terms
    go to ``libmp.mpf_sum`` with their true bit counts, as in ``mp.fsum``."""
    terms = []
    for (x_man, x_exp), (y_man, y_exp) in zip(xs, ys):
        man = x_man * y_man
        if not man:
            continue
        sign, man = man < 0, abs(man)
        exp, shift = x_exp + y_exp, man.bit_length() - prec
        if shift > 0:
            half = man >> (shift - 1)  # up past half, or at half to an even result
            man = (half >> 1) + bool(half & 1 and (half & 2 or man & ((1 << (shift - 1)) - 1)))
            zeros = (man & -man).bit_length() - 1
            man, exp = man >> zeros, exp + shift + zeros
        terms.append((sign, man, exp, man.bit_length()))
    return libmp.mpf_sum(terms, prec, libmp.round_nearest)


def _node_values(a: float, b: float, order: int) -> list[tuple[int, int]]:
    """Arcsine at the ``order`` reference nodes of ``[a, b]`` at the working
    precision, as (signed mantissa, exponent) pairs.  The ``libmp`` calls
    are the ones ``mp.asin(mid + rad * node)`` makes on ``mid, rad = (a +
    b) / 2, (b - a) / 2``, so the bits are the same."""
    prec, rnd = mp.mp.prec, libmp.round_nearest
    a_, b_ = libmp.from_float(a), libmp.from_float(b)
    mid = libmp.mpf_shift(libmp.mpf_add(a_, b_, prec, rnd), -1)
    rad = libmp.mpf_shift(libmp.mpf_sub(b_, a_, prec, rnd), -1)
    return [
        _signed(libmp.mpf_asin(libmp.mpf_add(
            mid, libmp.mpf_mul(rad, libmp.from_man_exp(man, exp), prec, rnd), prec, rnd
        ), prec, rnd))
        for man, exp in _reference_table(order)[1]
    ]


def _truth_series(a: float, b: float, order: int) -> list[mp.mpf]:
    """Chebyshev series of arcsine on [a, b] to ``order`` in mpmath, from
    its :func:`_node_values`.

    The cosine table depends only on ``(n, order)`` and the working
    precision, so it is built once and reused by every piece; each
    coefficient is :func:`_fsum_products` of ``values[k] * row[k]`` in
    ``k`` order, the same bits as ``mp.fsum`` of the ``mpf`` products.
    """
    values = _node_values(a, b, order)
    n, prec = len(values), mp.mp.prec
    series = []
    for j, row in enumerate(_reference_table(order)):
        coeff = 2 * mp.make_mpf(_fsum_products(values, row, prec)) / n
        if j == 0:
            coeff /= 2
        series.append(coeff)
    return series


def _diff_series(coefficients: Sequence[float], a: float, b: float) -> np.ndarray:
    """The polynomial minus the 45-digit arcsine series on ``[a, b]``, as
    float Chebyshev coefficients in ``u``."""
    with mp.workdps(VERIFY_DPS):
        order = _reference_order(coefficients)
        truth = _truth_series(a, b, order)
        return np.array(
            [
                float((mp.mpf(coefficients[j]) if j < len(coefficients) else mp.mpf(0)) - truth[j])
                for j in range(order + 1)
            ]
        )


def _grid_max(diff: np.ndarray, grid: int) -> float:
    """Grid max of ``|poly - arcsin|`` from their :func:`_diff_series`: a
    short series with tiny coefficients, which double precision evaluates
    to ~1e-18 absolute accuracy; the reference series' tail is negligible
    because the nearest arcsine singularity is far outside the piece."""
    u = np.linspace(-1.0, 1.0, grid)
    return float(np.max(np.abs(_cheb.chebval(u, diff))))


def _series_bound(diff: np.ndarray) -> float:
    """``sum |diff_j| (1 + 8 n^2 u)``, at least ``_grid_max(diff, grid)``
    on every grid: ``|T_j| <= 1``, and ``8 n^2 u`` covers chebval's
    Clenshaw rounding and this sum's own (README).  ``nan`` stays ``nan``.
    :func:`_prebound` bounds it from above without the series.
    """
    n = len(diff)
    return math.fsum(map(abs, diff.tolist())) * (1 + 8 * n * n * _UNIT)


def _taylor_terms(mid: int, rad: int, b: float, last: int) -> tuple[list[int], int] | None:
    """Lower bounds ``D_m`` on ``d_m 2**F`` (``F`` = :data:`_FIXED_BITS`)
    for the Taylor terms ``d_m u**m`` of ``asin(x0 + rad u)``, with ``x0,
    rad = mid, rad / 2**F``, and ``tail >= (asin(b) - sum d_m) 2**F``;
    ``None`` if ``tail`` stays above ``2**(F - 140)`` through ``m = last``.
    Each ``D_m`` is one floor division of the recurrence the README
    derives; the two arcsines are ``F + 20``-bit ``mpf_asin`` values."""
    prec, rnd = _FIXED_BITS + 20, libmp.round_nearest

    def asin_floor(x: tuple) -> int:
        return _scaled(*_signed(libmp.mpf_shift(libmp.mpf_asin(x, prec, rnd), _FIXED_BITS)))

    q = (1 << 2 * _FIXED_BITS) - mid * mid  # (1 - x0^2) 2**2F
    d = [
        asin_floor(libmp.from_man_exp(mid, -_FIXED_BITS)) - 1,
        (rad << _FIXED_BITS) // (math.isqrt(q - 1) + 1),
    ]
    tail = asin_floor(libmp.from_float(b)) + 2 - d[0] - d[1]
    rise, curve = mid * rad, rad * rad
    while tail > 1 << (_FIXED_BITS - 140):
        m = len(d)
        if m > last:
            return None
        step = (m - 1) * (2 * m - 3) * rise * d[-1] + (m - 2) ** 2 * curve * d[-2]
        d.append(step // (m * (m - 1) * q))
        tail -= d[-1]
    return d, tail


def _prebound(coefficients: Sequence[float], a: float, b: float) -> float:
    """An upper bound on ``_series_bound(_diff_series(coefficients, a,
    b))`` without the 45-digit series: ``sum_j |c_j - g_j| + 2 N tail``
    and the 45-digit slack, for the exact Chebyshev coefficients ``g_j``
    of the :func:`_taylor_terms` polynomial (``u**m = 2**(1-m) sum_i C(m,
    i) T_(m-2i)``, ``T_0`` halved).  ``inf`` for a non-finite piece, one
    too large to bound, ``b = 1``, a midpoint or radius not exact at
    ``2**-F``, or a series that has not settled below ``2 n - order``
    terms.  The README derives it.
    """
    if not (0 <= a <= b < 1 and sum(map(abs, coefficients)) < 2.0**1000):
        return math.inf
    scale = 1 << (_FIXED_BITS - 1)
    mid, rad = (Fraction(b) + Fraction(a)) * scale, (Fraction(b) - Fraction(a)) * scale
    order = _reference_order(coefficients)
    terms = order + 1
    series = (
        mid.denominator == rad.denominator == 1
        and _taylor_terms(mid.numerator, rad.numerator, b, 3 * order + 15)
    )
    if not series:
        return math.inf
    d, tail = series
    top = len(d) - 1  # g_j and c_j as integers over 2**(F + top)
    total = 2 * terms * tail << top
    for j in range(terms):
        g = sum(
            d[m] * math.comb(m, (m - j) // 2) << (top + 1 - m - (j == 0))
            for m in range(j, top + 1, 2)
        )
        if j < len(coefficients):
            num, den = coefficients[j].as_integer_ratio()
            g -= _scaled(num, _FIXED_BITS + top + 1 - den.bit_length())
        total += abs(g)
    slack = 2.0**-140 * terms * (terms + 1 / math.sqrt(1 - b * b))  # 45-digit roundings
    bound = total / (1 << (_FIXED_BITS + top)) + slack
    return bound * (1 + 8 * _UNIT) * (1 + 8 * terms * terms * _UNIT)


def verify(pp: PiecewisePolynomial, grid_factor: int = 10) -> float:
    """Worst per-piece error on a ``grid_factor`` x denser verified grid
    (``-inf`` for no pieces).

    The 45-digit series and dense grids run in descending order of
    :func:`_prebound` and stop at the first finite bound no larger than
    the maximum so far.  A piece outside ``[0, 1]``, or whose reference
    error is ``nan``, raises :class:`FitError`, as does a ``grid_factor``
    that is not an int of at least one, before any piece is read.
    """
    require_count("grid_factor", grid_factor, 1, FitError)
    grid = grid_factor * DEFAULT_ERROR_GRID
    bounds = []
    for index, piece in enumerate(pp.pieces):
        if not 0 <= piece.lower <= piece.upper <= 1:
            raise FitError(f"piece {index} on [{piece.lower}, {piece.upper}] is outside [0, 1]")
        bounds.append((_prebound(piece.coefficients, piece.lower, piece.upper), index))
    worst = -math.inf
    for bound, index in sorted(bounds, key=lambda entry: -entry[0]):
        if bound <= worst < math.inf:
            break
        piece = pp.pieces[index]
        error = _grid_max(_diff_series(piece.coefficients, piece.lower, piece.upper), grid)
        if math.isnan(error):
            raise FitError(
                f"piece {index} on [{piece.lower}, {piece.upper}] has a nan reference error"
            )
        worst = max(worst, error)
    return worst
