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
and the dense grid only for the pieces whose certified bounds let them
hold the maximum, and each grid only where its maximum can lie.  mpmath
is imported by the functions that call it, so importing this module
does not load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .states import require_count

FIT_POINTS = 2001
DEFAULT_ERROR_GRID = 4096
MAX_BISECTIONS = 64
MAX_PIECES = 4096
VERIFY_DPS = 45  # working precision (digits) of the arcsine reference
VERIFY_EXTRA_ORDER = 40  # reference series terms beyond the fit's degree
_SHARED_DEGREE = 9  # fits up to this degree share one reference order
_UNIT = 2.0**-53  # unit roundoff of float64
_FIXED_BITS = 200  # fraction bits of the Taylor terms in _prebound
_STRIDE = 32  # _grid_max evaluates every 32nd point first


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
    The steps are ``chebfit``'s own, so the bits and the ``RankWarning``
    of a rank-deficient fit are too: the rows ``T_i(u)`` by the
    recurrence, scaled to unit norm, solved by ``lstsq`` with ``rcond =
    FIT_POINTS * eps``, and unscaled.
    """
    if not 0 <= a <= b <= 1:
        raise FitError(f"invalid domain [{a}, {b}]")
    require_count("degree", degree, 1, FitError)
    if a == b:
        return np.array([float(np.arcsin(a))] + [0.0] * degree)
    xs = np.linspace(a, b, FIT_POINTS)
    u = (2 * xs - a - b) / (b - a)
    rows, u2 = np.empty((degree + 1, FIT_POINTS)), 2 * u
    rows[0], rows[1] = 1.0, u
    for i in range(2, degree + 1):
        rows[i] = rows[i - 1] * u2 - rows[i - 2]
    scale = np.sqrt(np.square(rows).sum(1))
    coefficients, _, rank, _ = np.linalg.lstsq(
        rows.T / scale, np.arcsin(xs), FIT_POINTS * np.finfo(float).eps
    )
    if rank != degree + 1:
        # the class chebfit warns with: numpy.exceptions names it from numpy
        # 2.0 on, polyutils before (numpy 1.x imports numpy.polynomial itself)
        rank_warning = (getattr(np.exceptions, "RankWarning", None)
                        or np.polynomial.polyutils.RankWarning)
        warnings.warn("The fit may be poorly conditioned", rank_warning, stacklevel=2)
    return coefficients / scale


def _chebval(u, c: np.ndarray):
    """``numpy.polynomial.chebyshev.chebval(u, c)`` by its own Clenshaw
    steps, so the bits are the same, without importing ``numpy.polynomial``
    (about 0.8 MB of resident memory)."""
    c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0.0)
    u2 = 2 * u
    for c_k in c[-3::-1]:
        c0, c1 = c_k - c1, c0 + c1 * u2
    return c0 + c1 * u


def _grid_points(a: float, b: float, index: np.ndarray) -> np.ndarray:
    """``np.linspace(a, b, DEFAULT_ERROR_GRID)[index]`` for ascending
    ``index`` ending at the last point, by linspace's own operations:
    ``i * step + a`` with ``step = (b - a) / (grid - 1)``, and ``b`` last."""
    step = (b - a) / (DEFAULT_ERROR_GRID - 1)
    if step == 0:  # linspace scales a subnormal span otherwise
        return np.linspace(a, b, DEFAULT_ERROR_GRID)[index]
    points = index * step + a
    points[-1] = b
    return points


def _grid_error(coefficients: Sequence[float], a: float, b: float, xs: np.ndarray) -> float:
    """Max |poly - arcsin| over the points ``xs`` of ``[a, b]``."""
    u = (2 * xs - a - b) / (b - a)
    values = _chebval(u, np.asarray(coefficients, dtype=float))
    return float(np.max(np.abs(values - np.arcsin(xs))))


def linf_error(coefficients: Sequence[float], a: float, b: float) -> float:
    """Max |poly - arcsin| over the :data:`DEFAULT_ERROR_GRID`-point uniform
    grid on ``[a, b]``."""
    if a == b:
        value = _chebval(0.0, np.asarray(coefficients, dtype=float))
        return float(abs(value - np.arcsin(a)))
    return _grid_error(coefficients, a, b, np.linspace(a, b, DEFAULT_ERROR_GRID))


# grid points a probe checks before the whole grid: the first and last 16 and every 65th
_PROBE_INDEX = np.array(sorted(
    {*range(16), *range(DEFAULT_ERROR_GRID - 16, DEFAULT_ERROR_GRID),
     *range(0, DEFAULT_ERROR_GRID, 65)}
))


@lru_cache(maxsize=None)
def _extrema_index(degree: int) -> np.ndarray:
    """The ``degree + 2`` grid indices nearest the extrema of ``T_(degree+1)``."""
    return np.array([
        round((1 - math.cos(k * math.pi / (degree + 1))) / 2 * (DEFAULT_ERROR_GRID - 1))
        for k in range(degree + 2)
    ])


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
    points = _grid_points(a, b, _extrema_index(degree)).tolist()
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
    proves it cannot hold, or when the halving reaches ``b == a``, where a
    piece would not move ``a``.  So does an ``eps`` at or below half an ulp
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
    over_budget = f"degree {degree} needs more than {MAX_PIECES} pieces for eps={eps}"
    pieces: list[PolynomialPiece] = []
    a = lo
    while a < hi:
        left = MAX_PIECES - len(pieces)  # one of `left` more pieces must be `wide`
        wide = (hi - a) / max(left, 1)
        if left < 1 or (pieces and pieces[-1].upper - pieces[-1].lower < wide
                        and _fit_is_doomed(a, min(hi, a + wide), degree, eps, reach=hi)):
            raise DegreeTooLowError(over_budget)
        b = hi
        for _ in range(MAX_BISECTIONS):
            if b == a:  # a piece [a, a] would pass and leave `a` where it is, forever
                raise DegreeTooLowError(over_budget)
            if _fit_is_doomed(a, b, degree, eps):
                b = (a + b) / 2
                continue
            coeffs = chebyshev_fit(a, b, degree)
            # a probe at or above eps (or nan) on some grid points fails the grid too
            if _grid_error(coeffs, a, b, _grid_points(a, b, _PROBE_INDEX)) < eps:
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
    from mpmath import libmp

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


def _reference_table(order: int, prec: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cosine table of an ``order`` reference series, on ``n = 2 order
    + 8`` nodes at binary precision ``prec``."""
    return _cosine_table(2 * order + 8, order, prec)


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
    from mpmath import libmp

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


def _node_values(a: float, b: float, order: int, prec: int) -> list[tuple[int, int]]:
    """Arcsine at the ``order`` reference nodes of ``[a, b]`` at binary
    precision ``prec``, as (signed mantissa, exponent) pairs.  The ``libmp``
    calls are the ones ``mp.asin(mid + rad * node)`` makes on ``mid, rad =
    (a + b) / 2, (b - a) / 2``, so the bits are the same."""
    from mpmath import libmp

    rnd = libmp.round_nearest
    a_, b_ = libmp.from_float(a), libmp.from_float(b)
    mid = libmp.mpf_shift(libmp.mpf_add(a_, b_, prec, rnd), -1)
    rad = libmp.mpf_shift(libmp.mpf_sub(b_, a_, prec, rnd), -1)
    return [
        _signed(libmp.mpf_asin(libmp.mpf_add(
            mid, libmp.mpf_mul(rad, libmp.from_man_exp(man, exp), prec, rnd), prec, rnd
        ), prec, rnd))
        for man, exp in _reference_table(order, prec)[1]
    ]


def _truth_series(a: float, b: float, order: int) -> list:
    """Chebyshev series of arcsine on [a, b] to ``order`` in mpmath, from
    its :func:`_node_values`.

    The cosine table depends only on ``(n, order)`` and the working
    precision, so it is built once and reused by every piece; each
    coefficient is :func:`_fsum_products` of ``values[k] * row[k]`` in
    ``k`` order, the same bits as ``mp.fsum`` of the ``mpf`` products.
    """
    import mpmath as mp

    prec = mp.mp.prec
    values = _node_values(a, b, order, prec)
    n, series = len(values), []
    for j, row in enumerate(_reference_table(order, prec)):
        coeff = 2 * mp.make_mpf(_fsum_products(values, row, prec)) / n
        if j == 0:
            coeff /= 2
        series.append(coeff)
    return series


def _diff_series(coefficients: Sequence[float], a: float, b: float) -> np.ndarray:
    """The polynomial minus the 45-digit arcsine series on ``[a, b]``, as
    float Chebyshev coefficients in ``u``."""
    import mpmath as mp

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
    because the nearest arcsine singularity is far outside the piece.

    Every :data:`_STRIDE`-th point and the last go first; the points
    between two of them are evaluated only if Markov's ``|T_j'| <= j^2``
    and two Clenshaw terms let them reach the maximum so far (README).
    Each point's value takes the same elementwise float operations as on
    the whole grid, so the bits are the same; a non-finite series takes
    the whole grid, so ``nan`` stays ``nan``.
    """
    u = np.linspace(-1.0, 1.0, grid)
    size = np.abs(diff).tolist()
    total = sum(size)
    if not len(size) * total < 2.0**1000:  # nan, inf, or near overflow in Clenshaw
        return float(np.max(np.abs(_chebval(u, diff))))
    values = np.abs(_chebval(u[np.append(np.arange(0, grid - 1, _STRIDE), grid - 1)], diff))
    slope = sum(j * j * s for j, s in enumerate(size))  # Markov: |T_j'| <= j^2
    reach = (_STRIDE + 2) / max(grid - 1, 1) * slope + 16 * len(size) ** 2 * _UNIT * total
    top = values.max()
    cells = (values[:-1] + values[1:]) / 2 + reach > top
    fine = np.repeat(np.append(cells, False), _STRIDE)[:grid]
    if fine.any():
        top = max(top, np.abs(_chebval(u[fine], diff)).max())
    return float(top)


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
    from mpmath import libmp

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


def _taylor_gaps(coefficients: Sequence[float], a: float, b: float):
    """The exact gaps ``c_j - g_j`` (``j <= order``) between the fit and the
    Chebyshev coefficients ``g_j`` of the :func:`_taylor_terms` polynomial
    (``u**m = 2**(1-m) sum_i C(m, i) T_(m-2i)``, ``T_0`` halved) and ``2 N
    tail``, as integers over ``2**shift``, with the 45-digit slack ``R``:
    ``(gaps, spread, shift, R)``.  ``None`` for a non-finite piece, one too
    large to bound, ``b = 1``, a midpoint or radius not exact at ``2**-F``,
    or a series that has not settled below ``2 n - order`` terms (README).
    """
    if not (0 <= a <= b < 1 and sum(map(abs, coefficients)) < 2.0**1000):
        return None
    scale = 1 << (_FIXED_BITS - 1)
    mid, rad = (Fraction(b) + Fraction(a)) * scale, (Fraction(b) - Fraction(a)) * scale
    order = _reference_order(coefficients)
    terms = order + 1
    series = (
        mid.denominator == rad.denominator == 1
        and _taylor_terms(mid.numerator, rad.numerator, b, 3 * order + 15)
    )
    if not series:
        return None
    d, tail = series
    top = len(d) - 1  # g_j and c_j as integers over 2**(F + top)
    gaps = []
    for j in range(terms):
        gap = -sum(
            d[m] * math.comb(m, (m - j) // 2) << (top + 1 - m - (j == 0))
            for m in range(j, top + 1, 2)
        )
        if j < len(coefficients):
            num, den = coefficients[j].as_integer_ratio()
            gap += _scaled(num, _FIXED_BITS + top + 1 - den.bit_length())
        gaps.append(gap)
    slack = 2.0**-140 * terms * (terms + 1 / math.sqrt(1 - b * b))  # 45-digit roundings
    return gaps, 2 * terms * tail << top, _FIXED_BITS + top, slack


def _prebound(coefficients: Sequence[float], a: float, b: float) -> float:
    """An upper bound on ``_series_bound(_diff_series(coefficients, a,
    b))`` without the 45-digit series: :func:`_gap_bound` of the
    :func:`_taylor_gaps`.  The README derives it."""
    return _gap_bound(_taylor_gaps(coefficients, a, b))


def _gap_bound(found) -> float:
    """``sum_j |c_j - g_j| + 2 N tail + R`` from :func:`_taylor_gaps`,
    rounded up past ``_series_bound``'s own factor; ``inf`` for ``None``."""
    if found is None:
        return math.inf
    gaps, spread, shift, slack = found
    terms = len(gaps)
    bound = (sum(map(abs, gaps)) + spread) / (1 << shift) + slack
    return bound * (1 + 8 * _UNIT) * (1 + 8 * terms * terms * _UNIT)


def _grid_bounds(found, grid: int) -> tuple[float, float]:
    """``[L, U]`` around ``_grid_max(_diff_series(...), grid)`` from the
    piece's :func:`_taylor_gaps`, without a node value: :func:`_grid_max`
    of the float gaps, widened by both series' Clenshaw terms, ``2 N tail
    + R`` and the conversions (README).  ``U`` is at most
    :func:`_gap_bound`; ``(-inf, inf)`` for ``None``."""
    if found is None:
        return -math.inf, math.inf
    gaps, spread, shift, slack = found
    n, unit, bound = len(gaps), 1 << shift, _gap_bound(found)
    middle = _grid_max(np.array([gap / unit for gap in gaps]), grid)
    width = (spread / unit + slack + (16 * n * n + 3) * _UNIT * bound) * (1 + 8 * _UNIT)
    return middle - width, min(middle + width, bound)


def verify(pp: PiecewisePolynomial, grid_factor: int = 10) -> float:
    """Worst per-piece error on a ``grid_factor`` x denser verified grid
    (``-inf`` for no pieces).

    In descending order of :func:`_prebound`, pieces take a
    :func:`_grid_bounds` interval ``[L, U]`` while the pre-bound exceeds
    the largest ``L`` so far; the others cannot hold the maximum.  The
    45-digit series and grids then run in descending ``U``, infinite
    first, and stop at the first finite ``U`` no larger than the maximum
    so far (README).  A piece outside ``[0, 1]``, or whose reference
    error is ``nan``, raises :class:`FitError`, as does a ``grid_factor``
    that is not an int of at least one, before any piece is read.
    """
    require_count("grid_factor", grid_factor, 1, FitError)
    grid = grid_factor * DEFAULT_ERROR_GRID
    found = []
    for index, piece in enumerate(pp.pieces):
        if not 0 <= piece.lower <= piece.upper <= 1:
            raise FitError(f"piece {index} on [{piece.lower}, {piece.upper}] is outside [0, 1]")
        found.append(_taylor_gaps(piece.coefficients, piece.lower, piece.upper))
    bounds = sorted(((_gap_bound(f), i) for i, f in enumerate(found)), key=lambda e: -e[0])
    floor, uppers = -math.inf, []
    for bound, index in bounds:
        if bound <= floor:
            break
        lower, upper = _grid_bounds(found[index], grid)
        floor = max(floor, lower)
        uppers.append((upper, index))
    worst = -math.inf
    for bound, index in sorted(uppers, key=lambda e: -e[0]):
        if bound <= worst and bound < math.inf:
            break
        piece = pp.pieces[index]
        error = _grid_max(_diff_series(piece.coefficients, piece.lower, piece.upper), grid)
        if math.isnan(error):
            raise FitError(
                f"piece {index} on [{piece.lower}, {piece.upper}] has a nan reference error"
            )
        worst = max(worst, error)
    return worst
