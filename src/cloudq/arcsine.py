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
_UNIT = 2.0**-53  # unit roundoff of float64
_FIXED_BITS = 200  # fraction bits of the node errors in _prebound


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


def _fit_is_doomed(a: float, b: float, degree: int, eps: float) -> bool:
    """Whether every degree-``d`` fit on ``[a, b]`` certainly has
    ``linf_error >= eps``, so :func:`min_pieces` may halve ``b`` unfitted.

    De la Vallee Poussin: with ``w_k = 1 / prod_{m != k} (u_k - u_m)`` at
    the ``d + 2`` grid points nearest the extrema of ``T_{d+1}``, every
    degree-``d`` polynomial errs there by at least ``L = |sum w_k f_k| /
    sum |w_k|`` (``f`` shifted by ``f_0``, as ``sum w_k = 0``).  Doomed
    means ``L`` beyond ``eps`` plus the rounding slack that the README
    derives.  That derivation needs distinct, evenly spread points with
    finite weights and no underflow, so a narrower candidate never dooms.
    """
    grid = DEFAULT_ERROR_GRID
    if not b - a >= max(16 * (grid - 1) * math.ulp(b), 2.0**-900) or 2 * degree**2 >= grid - 1:
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
    asin_b = math.asin(b)
    fit_norm = 1.01 * (asin_b + eps) / (1 - 2 * degree**2 / (grid - 1))
    slack = (
        8 * (degree + 2) * _UNIT * max(map(abs, shifted))  # L's own rounding
        + 8 * math.ulp(asin_b)  # math.asin here against np.arcsin there
        + 2 * _UNIT * eps  # linf_error's subtraction
        # chebval's Clenshaw rounding of a fit that would pass
        + 6 * (degree + 1) ** 2 * (1 + math.sqrt(2 * degree)) * _UNIT * fit_norm
    )
    return bound > eps + slack


def min_pieces(
    degree: int,
    eps: float,
    domain: tuple[float, float] = (0.0, 0.5),
    max_pieces: int = 4096,
) -> PiecewisePolynomial:
    """Greedy left-to-right assembly of the minimum piece count.

    Each subdomain's right endpoint is bisected toward its left edge until
    the fit error drops below ``eps``; a candidate that
    :func:`_fit_is_doomed` rejects is halved without a fit, and still
    counts as a halving.  More than :data:`MAX_BISECTIONS` halvings of a
    single subdomain, or a piece budget past ``max_pieces``, raises
    :class:`DegreeTooLowError`.  So does an ``eps`` at or below half an ulp
    of ``arcsin(hi)``, before any fit: no grid measurement in double
    precision can certify it.  The domain must lie in ``[0, 1]``.
    """
    if eps <= 0:
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
        if len(pieces) >= max_pieces:
            raise DegreeTooLowError(
                f"degree {degree} needs more than {max_pieces} pieces for eps={eps}"
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


class _CosineTable(tuple):
    """Rows of ``(signed mantissa, exponent)`` entries; ``floats`` holds the
    same entries rounded to float64."""

    floats: np.ndarray


@lru_cache(maxsize=1)
def _cosine_table(n: int, order: int, prec: int) -> _CosineTable:
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

    table = _CosineTable(tuple(entry(j, k) for k in range(n)) for j in range(order + 1))
    table.floats = np.array([[math.ldexp(man, exp) for man, exp in row] for row in table])
    return table


def _reference_order(coefficients: Sequence[float]) -> int:
    """The last term of a polynomial's reference series."""
    return len(coefficients) - 1 + VERIFY_EXTRA_ORDER


def _reference_table(order: int) -> _CosineTable:
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
    """Arcsine at the ``order`` reference nodes of ``[a, b]`` in mpmath, as
    (signed mantissa, exponent) pairs."""
    a_, b_ = mp.mpf(a), mp.mpf(b)
    mid, rad = (a_ + b_) / 2, (b_ - a_) / 2
    return [_signed(mp.asin(mid + rad * mp.mpf(node))._mpf_) for node in _reference_table(order)[1]]


def _truth_series(
    a: float, b: float, order: int, values: list[tuple[int, int]] | None = None
) -> list[mp.mpf]:
    """Chebyshev series of arcsine on [a, b] to ``order`` in mpmath, from
    its :func:`_node_values` (computed unless given).

    The cosine table depends only on ``(n, order)`` and the working
    precision, so it is built once and reused by every piece; each
    coefficient is :func:`_fsum_products` of ``values[k] * row[k]`` in
    ``k`` order, the same bits as ``mp.fsum`` of the ``mpf`` products.
    """
    table = _reference_table(order)
    if values is None:
        values = _node_values(a, b, order)
    n, prec = len(values), mp.mp.prec
    series = []
    for j, row in enumerate(table):
        coeff = 2 * mp.make_mpf(_fsum_products(values, row, prec)) / n
        if j == 0:
            coeff /= 2
        series.append(coeff)
    return series


def _diff_series(
    coefficients: Sequence[float], a: float, b: float,
    values: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """The polynomial minus the 45-digit arcsine series on ``[a, b]``, as
    float Chebyshev coefficients in ``u``."""
    with mp.workdps(VERIFY_DPS):
        order = _reference_order(coefficients)
        truth = _truth_series(a, b, order, values)
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


def _prebound(
    coefficients: Sequence[float], a: float, b: float,
    values: list[tuple[int, int]] | None = None,
) -> float:
    """An upper bound on ``_series_bound(_diff_series(coefficients, a,
    b))`` without the 45-digit series, from the piece's
    :func:`_node_values` (computed unless given); ``inf`` for a
    non-finite piece or one too large to bound.

    For ``j <= order``, ``c_j - t_j`` is the discrete Chebyshev coefficient
    of the node errors ``e_k = p(nu_k) - f_k``, as ``degree + order < 2n``.
    The ``e_k`` are exact to :data:`_FIXED_BITS` bits (Clenshaw on
    integers); their transform runs in float64 on the float cosine table,
    and the README derives the terms that cover its rounding.
    """
    weight = sum((j + 1) ** 2 * abs(c) for j, c in enumerate(coefficients))
    if not (math.isfinite(a) and math.isfinite(b) and weight < 2.0**1000):
        return math.inf
    with mp.workdps(VERIFY_DPS):
        order = _reference_order(coefficients)
        table = _reference_table(order)
        if values is None:
            values = _node_values(a, b, order)
    fixed = [
        _scaled(num, _FIXED_BITS + 1 - den.bit_length())
        for num, den in (c.as_integer_ratio() for c in coefficients)
    ]
    errors = []
    for (man, exp), (f_man, f_exp) in zip(table[1], values):
        b_1 = b_2 = 0
        for c in reversed(fixed[1:]):
            b_1, b_2 = c + _scaled(man * b_1, exp + 1) - b_2, b_1
        p = fixed[0] + _scaled(man * b_1, exp) - b_2
        errors.append((p - _scaled(f_man, f_exp + _FIXED_BITS)) / (1 << _FIXED_BITS))
    n, terms = len(errors), order + 1
    transform = table.floats @ np.array(errors) * (2 / n)
    transform[0] /= 2
    e_1 = 2 * math.fsum(map(abs, errors)) / n * (1 + 8 * _UNIT)
    gamma = (n + 6) * _UNIT / (1 - (n + 6) * _UNIT)
    slack = 2.0**-140 * terms * (2 + weight)  # 45-digit and fixed-point roundings
    total = math.fsum(map(abs, transform.tolist())) + terms * (gamma * e_1 + slack)
    return total * (1 + 8 * _UNIT) * (1 + 8 * terms * terms * _UNIT)


def verify(pp: PiecewisePolynomial, grid_factor: int = 10) -> float:
    """Worst per-piece error on a ``grid_factor`` x denser verified grid
    (``-inf`` for no pieces).

    The 45-digit series and dense grids run in descending order of
    :func:`_prebound` and stop at the first finite bound no larger than
    the maximum so far.  A piece whose reference error is ``nan`` raises
    :class:`FitError`.
    """
    grid = grid_factor * DEFAULT_ERROR_GRID
    bounds = []
    with mp.workdps(VERIFY_DPS):
        for index, piece in enumerate(pp.pieces):
            values = _node_values(piece.lower, piece.upper, _reference_order(piece.coefficients))
            bound = _prebound(piece.coefficients, piece.lower, piece.upper, values)
            bounds.append((bound, index, values))
    worst = -math.inf
    for bound, index, values in sorted(bounds, key=lambda entry: -entry[0]):
        if bound <= worst < math.inf:
            break
        piece = pp.pieces[index]
        error = _grid_max(_diff_series(piece.coefficients, piece.lower, piece.upper, values), grid)
        if math.isnan(error):
            raise FitError(
                f"piece {index} on [{piece.lower}, {piece.upper}] has a nan reference error"
            )
        worst = max(worst, error)
    return worst
