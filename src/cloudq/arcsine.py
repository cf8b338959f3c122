"""Piecewise polynomial approximation of arcsine on [0, 0.5].

Pieces are produced greedily: starting from the left edge, the candidate
subdomain is the whole remainder and its right endpoint is halved toward
the left edge until the degree-``d`` fit meets the target ``eps``; the
subdomain is then frozen and construction continues from its right edge.

The per-candidate fit is a least-squares Chebyshev-basis polynomial over
a dense uniform grid with the error measured in double precision, which
is what the reference piece-count table was produced with (a noise floor
near 1e-15 is part of that data).  A separate verification pass
re-measures every assembled piece against an extended-precision arcsine
(difference of Chebyshev series), so construction speed never compromises
the certified error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath import libmp

_cheb = np.polynomial.chebyshev

FIT_POINTS = 2001
DEFAULT_ERROR_GRID = 4096
MAX_BISECTIONS = 64
VERIFY_DPS = 45  # working precision (digits) of the arcsine reference
VERIFY_EXTRA_ORDER = 40  # reference series terms beyond the fit's degree


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
    if not 0 <= a <= b:
        raise FitError(f"invalid subdomain [{a}, {b}]")
    if degree < 1:
        raise FitError(f"need degree >= 1, got {degree}")
    if a == b:
        return np.array([float(np.arcsin(a))] + [0.0] * degree)
    xs = np.linspace(a, b, FIT_POINTS)
    u = (2 * xs - a - b) / (b - a)
    return _cheb.chebfit(u, np.arcsin(xs), degree)


def linf_error(
    coefficients: Sequence[float], a: float, b: float, grid: int = DEFAULT_ERROR_GRID
) -> float:
    """Max |poly - arcsin| over a uniform grid on ``[a, b]``."""
    xs = np.linspace(a, b, grid)
    if a == b:
        return float(abs(_cheb.chebval(0.0, np.array(coefficients)) - np.arcsin(a)))
    u = (2 * xs - a - b) / (b - a)
    values = _cheb.chebval(u, np.array(coefficients))
    return float(np.max(np.abs(values - np.arcsin(xs))))


def min_pieces(
    degree: int,
    eps: float,
    domain: tuple[float, float] = (0.0, 0.5),
    max_pieces: int = 4096,
) -> PiecewisePolynomial:
    """Greedy left-to-right assembly of the minimum piece count.

    Each subdomain's right endpoint is bisected toward its left edge until
    the fit error drops below ``eps``; more than :data:`MAX_BISECTIONS`
    halvings of a single subdomain, or a piece budget past ``max_pieces``,
    raises :class:`DegreeTooLowError`.  So does an ``eps`` at or below half
    an ulp of ``arcsin(hi)``, before any fit: no grid measurement in
    double precision can certify it.
    """
    if eps <= 0:
        raise FitError(f"need eps > 0, got {eps}")
    lo, hi = domain
    if not 0 <= lo < hi:
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
        if len(pieces) >= max_pieces:
            raise DegreeTooLowError(
                f"degree {degree} needs more than {max_pieces} pieces for eps={eps}"
            )
        b = hi
        for _ in range(MAX_BISECTIONS):
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
    Every piece of a fit shares one table, and only the latest is kept."""
    rnd = libmp.round_nearest
    pi, den = libmp.mpf_pi(prec, rnd), libmp.from_int(2 * n)

    def entry(j: int, k: int) -> tuple[int, int]:
        arg = libmp.mpf_mul_int(libmp.mpf_mul_int(pi, j, prec, rnd), 2 * k + 1, prec, rnd)
        return _signed(libmp.mpf_cos(libmp.mpf_div(arg, den, prec, rnd), prec, rnd))

    return tuple(tuple(entry(j, k) for k in range(n)) for j in range(order + 1))


def _signed(x: tuple) -> tuple[int, int]:
    """A raw ``mpf`` as (signed mantissa, exponent)."""
    sign, man, exp, _ = x
    return (-man if sign else man, exp)


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


def _truth_series(a: float, b: float, order: int) -> list[mp.mpf]:
    """Chebyshev series of arcsine on [a, b] to ``order`` in mpmath.

    The cosine table depends only on ``(n, order)`` and the working
    precision, so it is built once and reused by every piece; each
    coefficient is :func:`_fsum_products` of ``values[k] * row[k]`` in
    ``k`` order, the same bits as ``mp.fsum`` of the ``mpf`` products.
    """
    a_, b_ = mp.mpf(a), mp.mpf(b)
    mid, rad = (a_ + b_) / 2, (b_ - a_) / 2
    n = 2 * order + 8
    prec = mp.mp.prec
    table = _cosine_table(n, order, prec)
    values = [_signed(mp.asin(mid + rad * mp.mpf(node))._mpf_) for node in table[1]]
    series = []
    for j, row in enumerate(table):
        coeff = 2 * mp.make_mpf(_fsum_products(values, row, prec)) / n
        if j == 0:
            coeff /= 2
        series.append(coeff)
    return series


def reference_error(coefficients: Sequence[float], a: float, b: float, grid: int) -> float:
    """Grid max of |poly - arcsin| against the extended-precision reference.

    The polynomial minus a high-order arcsine Chebyshev series is itself a
    short Chebyshev series with tiny coefficients, which double precision
    evaluates to ~1e-18 absolute accuracy; the series tail is negligible
    because the nearest arcsine singularity is far outside ``[a, b]``.
    """
    with mp.workdps(VERIFY_DPS):
        order = len(coefficients) - 1 + VERIFY_EXTRA_ORDER
        truth = _truth_series(a, b, order)
        diff = np.array(
            [
                float((mp.mpf(coefficients[j]) if j < len(coefficients) else mp.mpf(0)) - truth[j])
                for j in range(order + 1)
            ]
        )
    u = np.linspace(-1.0, 1.0, grid)
    return float(np.max(np.abs(_cheb.chebval(u, diff))))


def verify(pp: PiecewisePolynomial, grid_factor: int = 10) -> float:
    """Worst per-piece error on a ``grid_factor`` x denser verified grid."""
    return max(
        reference_error(
            piece.coefficients, piece.lower, piece.upper, grid_factor * DEFAULT_ERROR_GRID
        )
        for piece in pp.pieces
    )
