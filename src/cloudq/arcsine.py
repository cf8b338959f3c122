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
from typing import Sequence

import mpmath as mp
import numpy as np

_cheb = np.polynomial.chebyshev

DEFAULT_FIT_POINTS = 2001
DEFAULT_ERROR_GRID = 4096
MAX_BISECTIONS = 64
VERIFY_DPS = 45  # working precision (digits) of the arcsine reference


class FitError(ValueError):
    """Invalid fit request or domain."""


class DegreeTooLowError(FitError):
    """A subdomain failed to converge after the bisection limit."""


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

    def evaluate(self, x):
        u = (2.0 * np.asarray(x) - self.lower - self.upper) / (self.upper - self.lower)
        return _cheb.chebval(u, np.array(self.coefficients))


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

    def piece_for(self, x: float) -> PolynomialPiece:
        if not self.domain[0] <= x <= self.domain[1]:
            raise FitError(f"{x} outside domain {self.domain}")
        for piece in self.pieces:
            if x <= piece.upper:
                return piece
        return self.pieces[-1]

    def evaluate(self, x: float) -> float:
        return float(self.piece_for(x).evaluate(x))

    def max_recorded_error(self) -> float:
        return max(piece.max_error for piece in self.pieces)


def chebyshev_fit(
    a: float, b: float, degree: int, fit_points: int = DEFAULT_FIT_POINTS
) -> np.ndarray:
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
    xs = np.linspace(a, b, fit_points)
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
    grid: int = DEFAULT_ERROR_GRID,
    fit_points: int = DEFAULT_FIT_POINTS,
    max_pieces: int = 4096,
) -> PiecewisePolynomial:
    """Greedy left-to-right assembly of the minimum piece count.

    Each subdomain's right endpoint is bisected toward its left edge until
    the fit error drops below ``eps``; more than :data:`MAX_BISECTIONS`
    halvings of a single subdomain, or a piece budget past ``max_pieces``,
    raises :class:`DegreeTooLowError`.
    """
    if eps <= 0:
        raise FitError(f"need eps > 0, got {eps}")
    lo, hi = domain
    if not 0 <= lo < hi:
        raise FitError(f"invalid domain {domain}")
    pieces: list[PolynomialPiece] = []
    a = lo
    while a < hi:
        if len(pieces) >= max_pieces:
            raise DegreeTooLowError(
                f"degree {degree} needs more than {max_pieces} pieces for eps={eps}"
            )
        b = hi
        for _ in range(MAX_BISECTIONS):
            coeffs = chebyshev_fit(a, b, degree, fit_points)
            err = linf_error(coeffs, a, b, grid)
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


def _truth_series(a: float, b: float, order: int) -> list[mp.mpf]:
    """Chebyshev series of arcsine on [a, b] to ``order`` in mpmath."""
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


def reference_error(
    coefficients: Sequence[float],
    a: float,
    b: float,
    grid: int,
    extra_order: int = 40,
) -> float:
    """Grid max of |poly - arcsin| against the extended-precision reference.

    The polynomial minus a high-order arcsine Chebyshev series is itself a
    short Chebyshev series with tiny coefficients, which double precision
    evaluates to ~1e-18 absolute accuracy; the series tail is negligible
    because the nearest arcsine singularity is far outside ``[a, b]``.
    """
    with mp.workdps(VERIFY_DPS):
        order = len(coefficients) - 1 + extra_order
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


def choose_config(
    eps: float,
    n_bits: int,
    rows: Sequence[tuple[float, int, int]] | None = None,
) -> tuple[int, int]:
    """Pick the ``(degree, pieces)`` row minimizing the arcsine gate cost.

    Candidates default to the bundled piece-count table rows matching
    ``eps``; ties break toward the smaller degree.
    """
    from .presets import PIECEWISE_ARCSINE_TABLE
    from .resources import primitive_cost

    if rows is None:
        rows = PIECEWISE_ARCSINE_TABLE
    candidates = [(d, m) for e, d, m in rows if e == eps]
    if not candidates:
        raise FitError(f"no table rows for eps={eps}")
    best = min(
        candidates,
        key=lambda dm: (
            primitive_cost("ARCSIN", n=n_bits, degree=dm[0], pieces=dm[1]).t_count,
            dm[0],
        ),
    )
    return best
