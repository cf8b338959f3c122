"""Bit-exact emulation of the unsigned fixed-point arithmetic pipeline.

Registers are ``n``-bit unsigned words with one integer bit:
``value = bits * 2**-(n-1)`` on ``[0, 2 - 2**-(n-1)]``.  The droplet
counts and their product are exact Python ints.  Every operation
truncates toward zero, the cheapest convention for the corresponding
reversible circuits, so no result ever exceeds its exact real value.
Each register is held as its bits, a plain ``int``.

The Horner steps of ``_arcsin_bits`` (``ARCSIN``, about n full-width
controlled adders per step) keep every partial-product bit, so each
product is formed in full and truncated once.

The transition-probability pipeline computed here follows the circuit
decomposition: ``r = n_i n_j * (K dt)``, a comparison against ``s/4``
choosing the complement branch, two square roots, one division, and the
piecewise arcsine, ending with ``theta ~ arcsin(sqrt(r/s))``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp

from .arcsine import PiecewisePolynomial, min_pieces
from .states import require_count

EXTENSION_DOMAIN = (0.5, 0.875)
SWEEP_MAX_COUNT = 40  # largest bin count the error sweep draws


class FixedPointError(ValueError):
    """Invalid fixed-point operand or result."""


class FixedPointRangeError(FixedPointError):
    """Value outside the representable or contracted range."""


class CarryOutError(FixedPointError):
    """Addition overflowed the register width."""


class DivisionByZeroError(FixedPointError):
    """Division with a zero divisor."""


def _in_register(bits: int, width: int) -> int:
    """``bits`` if they fit a ``width``-bit register."""
    if not 0 <= bits < (1 << width):
        raise FixedPointRangeError(f"bits {bits} outside [0, 2**{width})")
    return bits


def _encode_bits(x, width: int) -> int:
    """Truncate ``x`` toward zero onto an ``width``-bit register."""
    require_count("width", width, 1, FixedPointError)
    if not 0 <= x < 2:  # exact comparisons, which also refuse nan and ±inf
        raise FixedPointRangeError(f"{x} outside the real-mode range [0, 2)")
    # exactly num/den, as Fraction(x) reads a float
    num, den = (x if isinstance(x, float) else Fraction(x)).as_integer_ratio()
    return (num << (width - 1)) // den  # floor for non-negative values


def _sub_bits(a: int, b: int) -> int:
    """Ripple subtraction; borrows below zero raise."""
    if a < b:
        raise FixedPointRangeError("subtraction underflow on an unsigned register")
    return a - b


def _mul_bits(n: int, constant: int, width: int) -> int:
    """Integer ``n`` times an encoded real constant, exact in [0, 1]."""
    if n * constant > 1 << (width - 1):
        raise FixedPointRangeError(f"product {n} * {constant / (1 << (width - 1))} exceeds 1")
    return n * constant


def _sqrt_bits(a: int, width: int) -> int:
    """Square root of a value in [0, 1], truncated at the last bit."""
    if a > 1 << (width - 1):
        raise FixedPointRangeError("fp_sqrt operand must lie in [0, 1]")
    # result/2**(w-1) ~ sqrt(bits/2**(w-1)), so take isqrt(bits << (w-1)); the
    # radicand is below 2**(2w), so the circuit's w-digit square root agrees
    return math.isqrt(a << (width - 1))


def _div_bits(a: int, b: int, width: int) -> int:
    """Real quotient ``a / b`` with ``a <= b`` (result in [0, 1])."""
    if b == 0:
        raise DivisionByZeroError("division by zero")
    if a > b:
        raise FixedPointRangeError("fp_div needs a <= b so the quotient fits [0, 1]")
    # for a <= b the circuit's restoring division (one integer bit, then
    # w-1 fraction bits) yields exactly this floor
    return (a << (width - 1)) // b


@dataclass(frozen=True)
class QuantizedPiece:
    """One arcsine piece prepared for register evaluation.

    The evaluation variable is ``u = (x - lower) * 2**t_shift``, an exact
    register shift with ``u <= 1/2``.  ``consts[k]`` encodes
    ``1 + beta_k / 2**(k * t_shift)`` for ``k >= 1`` (offset by one so a
    slightly negative fit coefficient never underflows the register) and
    the constant term either shares the offset (``biased_constant``) or,
    when ``arcsin(lower)`` is too large for the offset form, is stored
    directly.
    """

    lower_bits: int
    upper_bits: int
    t_shift: int
    biased_constant: bool
    consts: tuple[int, ...]  # ascending power order, length degree+1


@dataclass(frozen=True)
class QuantizedArcsine:
    """Piecewise arcsine quantized onto ``width``-bit registers."""

    width: int
    degree: int = field(init=False)  # read off the first piece's constants
    pieces: tuple[QuantizedPiece, ...]
    source_eps: float
    extension_piece_count: int = 0
    # the pieces' upper edges, non-decreasing, for the bisect in piece_for
    upper_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", len(self.pieces[0].consts) - 1)
        object.__setattr__(self, "upper_bits", tuple(p.upper_bits for p in self.pieces))

    @property
    def domain_end_bits(self) -> int:
        return self.pieces[-1].upper_bits

    def piece_for(self, bits: int) -> QuantizedPiece:
        """The first piece whose upper edge is at or above ``bits``."""
        return self.pieces[bisect_left(self.upper_bits, bits)]


@lru_cache(maxsize=None)
def _shifted_chebyshev(count: int) -> tuple[tuple[int, ...], ...]:
    """Integer coefficients of ``T_k(s - 1)``, ascending in ``s``, for
    ``k < count``, by ``T_{k+1} = 2 (s - 1) T_k - T_{k-1}``."""
    rows = [(1,), (-1, 1)]
    while len(rows) < count:
        nxt = [0] * (len(rows[-1]) + 1)
        for j, a in enumerate(rows[-1]):
            nxt[j] -= 2 * a
            nxt[j + 1] += 2 * a
        for j, a in enumerate(rows[-2]):
            nxt[j] -= a
        rows.append(tuple(nxt))
    return tuple(rows[:count])


def _power_ratios(piece) -> list[tuple[int, int]]:
    """Exact coefficients ``beta_j = num_j / den_j`` of ``sum beta_j (x -
    lower)**j``, with ``den_j > 0``.

    With ``t = x - lower`` and ``slope = 2 / (upper - lower) = p / q``, the
    Chebyshev variable is ``u = s - 1`` with ``s = slope * t``, so
    ``beta_j = slope**j * sum_k c_k tau_kj`` for the integer coefficients
    ``tau_kj`` of ``T_k(s - 1)``.  The float coefficients are dyadic,
    ``c_k = m_k / 2**E``, so the sum is an integer ``acc_j`` and
    ``beta_j = acc_j p**j / (2**E q**j)`` rounds nothing.
    """
    slope = Fraction(2) / (Fraction(piece.upper) - Fraction(piece.lower))
    ratios = [c.as_integer_ratio() for c in piece.coefficients]
    exponent = max(den.bit_length() - 1 for _, den in ratios)
    acc = [0] * len(ratios)
    for (num, den), row in zip(ratios, _shifted_chebyshev(len(ratios))):
        mantissa = num << (exponent - den.bit_length() + 1)
        for j, tau in enumerate(row):
            acc[j] += mantissa * tau
    p, q = slope.numerator, slope.denominator
    return [(a * p**j, q**j << exponent) for j, a in enumerate(acc)]


def _quantize_piece(piece, width: int) -> QuantizedPiece:
    if not piece.lower < piece.upper:  # else no shift would end the max_shift loop
        raise FixedPointError(f"arcsine piece [{piece.lower}, {piece.upper}] needs lower < upper")
    ratios = _power_ratios(piece)
    span = Fraction(piece.upper) - Fraction(piece.lower)
    max_shift = 0
    while span.numerator << (max_shift + 2) <= span.denominator:  # span 2**(shift+1) <= 1/2
        max_shift += 1
    # smallest shift keeping every higher coefficient in [-1/8, 7/8]:
    # small u damps multiply truncation, so prefer the tightest fit
    for t_shift in range(0, max_shift + 1):
        scaled = [(num, den << (k * t_shift)) for k, (num, den) in enumerate(ratios)]
        if all(-den <= 8 * num <= 7 * den for num, den in scaled[1:]):
            break
    else:
        raise FixedPointError("arcsine coefficients too large to scale")
    consts = [((num + den) << (width - 1)) // den for num, den in scaled]
    num, den = scaled[0]
    biased_constant = 8 * num < 7 * den
    stored = (num + den if biased_constant else num) << (width - 1)
    consts[0] = stored // den if stored >= 0 else -(-stored // den)  # toward zero, as everywhere
    return QuantizedPiece(
        lower_bits=_encode_bits(piece.lower, width),
        upper_bits=_encode_bits(piece.upper, width),
        t_shift=t_shift,
        biased_constant=biased_constant,
        consts=tuple(consts),
    )


def quantize_arcsine(
    pp: PiecewisePolynomial,
    width: int,
    extension: PiecewisePolynomial | None = None,
) -> QuantizedArcsine:
    """Prepare piecewise arcsine coefficients for register evaluation."""
    require_count("width", width, 1, FixedPointError)
    pieces: list[QuantizedPiece] = []
    for source in (pp, extension):
        if source is None:
            continue
        for piece in source.pieces:
            pieces.append(_quantize_piece(piece, width))
    return QuantizedArcsine(
        width=width,
        pieces=tuple(pieces),
        source_eps=pp.eps,
        extension_piece_count=0 if extension is None else extension.piece_count,
    )


def build_quantized_arcsine(degree: int, eps: float, width: int) -> QuantizedArcsine:
    """Fit and quantize arcsine pieces on ``[0, 0.5]`` and past its edge.

    The circuit's complement branch feeds ``sqrt(1 - r')`` into the
    arcsine, which exceeds the stated 0.5 domain edge whenever
    ``1/4 <= r' < 3/4``; the extension pieces cover that gap so the
    emulator can report the incurred error instead of failing.  A width
    below one is refused before any fit.
    """
    require_count("width", width, 1, FixedPointError)
    core = min_pieces(degree, eps)
    return quantize_arcsine(core, width, min_pieces(degree, eps, domain=EXTENSION_DOMAIN))


def _arcsin_bits(a: int, width: int, table: QuantizedArcsine) -> int:
    """Piecewise arcsine of a register value within the quantized domain.

    Selects the piece by register comparisons, then runs the offset
    Horner recurrence ``acc <- acc * u + (1 + beta_k) - u`` which needs
    only multiplies, additions and exact subtractions of the evaluation
    variable; the offset is removed at the constant term.  Each Horner
    product ``acc * u`` is formed at full width and truncated once, as the
    full-width adders charged by the ``ARCSIN`` cost do, so it errs by less
    than one register step.
    """
    if width != table.width:
        raise FixedPointError("operand does not match the quantized table")
    one = 1 << (width - 1)
    if a > table.domain_end_bits:
        raise FixedPointRangeError(f"arcsine input {a / one} outside the quantized domain")
    piece = table.piece_for(a)
    u_bits = (a - piece.lower_bits) << piece.t_shift  # exact shift
    consts = piece.consts
    acc = consts[-1]
    for k in reversed(range(1, len(consts) - 1)):
        acc = (u_bits * acc) >> (width - 1)
        acc += consts[k]
        if acc >= (1 << width):
            raise CarryOutError("arcsine accumulator overflow")
        acc -= u_bits
        if acc < 0:
            raise FixedPointRangeError("arcsine accumulator underflow")
    theta = ((u_bits * acc) >> (width - 1)) + consts[0]
    if theta >= (1 << width):
        raise CarryOutError("arcsine result overflow")
    theta -= u_bits  # removes the offset carried through the multiply
    if piece.biased_constant:
        theta -= one
    return max(theta, 0)  # fit undershoot below one resolution step near x = 0


@lru_cache(maxsize=None)
def _pi_half_bits(width: int) -> int:
    with mp.workdps(width + 20):
        return int(mp.floor(mp.pi / 2 * (1 << (width - 1))))


class PipelineTrace(NamedTuple):
    """Every register of one angle evaluation as its bits, the count
    product and the branch bit ``z``, then the angle's error."""

    n_i: int
    n_j: int
    k_dt: int
    s_next: int
    product: int
    r: int
    z: bool
    w: int
    sqrt_w: int
    sqrt_s: int
    quotient: int
    arcsin_out: int
    theta: int
    error: float


def emulate_up_pipeline(
    n_i: int,
    n_j: int,
    k_dt,
    s_next,
    width: int,
    table: QuantizedArcsine,
    force_branch: bool | None = None,
) -> PipelineTrace:
    """Run the full rotation-angle pipeline on ``width``-bit registers.

    Returns the trace of every register, ending with the angle ``theta``
    and its ``error``, the deviation from ``arcsin(sqrt(r/s))`` evaluated
    on the encoded inputs, so the error reflects the arithmetic itself
    rather than input rounding; each int true division there rounds
    once, as ``float`` of the exact ``Fraction`` does.  Checks run, and
    raise, in the order of the operations the circuit applies.
    ``force_branch`` overrides the comparison outcome for boundary tests.
    """
    if not all(type(n) is int and n >= 0 for n in (n_i, n_j)):
        raise FixedPointError(
            f"droplet counts must be non-negative ints, got {n_i!r} and {n_j!r}"
        )
    s = _encode_bits(s_next, width)
    if s == 0:
        raise DivisionByZeroError("remaining probability encoded to zero")
    k = _encode_bits(k_dt, width)
    product = n_i * n_j
    r = _mul_bits(product, k, width)
    if r > s:
        raise FixedPointRangeError("transition probability exceeds the remainder")
    z = r >= (s >> 2) if force_branch is None else force_branch
    w = _sub_bits(s, r) if z else r
    sqrt_w = _sqrt_bits(w, width)
    sqrt_s = _sqrt_bits(s, width)
    quotient = _div_bits(sqrt_w, sqrt_s, width)
    arcsin_out = _arcsin_bits(quotient, width, table)
    theta = _in_register(_pi_half_bits(width) - arcsin_out, width) if z else arcsin_out
    error = abs(theta / (1 << (width - 1)) - math.asin(math.sqrt(r / s)))
    return PipelineTrace(
        n_i, n_j, k, s, product, r, z, w, sqrt_w, sqrt_s, quotient, arcsin_out, theta, error
    )


@dataclass(frozen=True)
class EpsSweepReport:
    """Empirical pipeline-error summary over a deterministic sweep."""

    width: int
    eps_arcsin: float
    max_error: float
    mean_error: float
    samples: int


_LATTICE_ALPHA = (
    math.sqrt(2) - 1,
    math.sqrt(3) - 1,
    math.sqrt(5) - 2,
    math.sqrt(7) - 2,
)


def _lattice_point(k: int) -> tuple[float, ...]:
    return tuple((0.5 + (k + 1) * a) % 1.0 for a in _LATTICE_ALPHA)


def sweep_inputs(
    samples: int, include_gap: bool = False
) -> list[tuple[int, int, float, float]]:
    """Deterministic quasi-random pipeline inputs ``(n_i, n_j, kdt, s)``.

    The modified probability ``r' = r/s`` is steered either across the
    full range or, when the gap is excluded, across the two bands
    ``[0, 1/4]`` and ``[3/4, 1]`` where the arcsine argument stays within
    the circuit's stated domain.
    """
    points = []
    for k in range(samples):
        u1, u2, u3, u4 = _lattice_point(k)
        n_i = 1 + int(u1 * SWEEP_MAX_COUNT)
        n_j = 1 + int(u2 * SWEEP_MAX_COUNT)
        if include_gap:
            modified = u3 * 0.999
        elif u3 < 0.5:
            modified = u3 * 2 * 0.25
        else:
            modified = 0.750001 + (u3 - 0.5) * 2 * 0.2499
        s = 0.5 + 0.5 * u4
        kdt = modified * s / (n_i * n_j)
        points.append((n_i, n_j, kdt, s))
    return points


def estimate_eps_calculation(
    width: int,
    table: QuantizedArcsine,
    samples: int = 10_000,
    include_gap: bool = False,
) -> EpsSweepReport:
    """Max and mean pipeline error over the deterministic input sweep."""
    require_count("samples", samples, 1, FixedPointError)
    if include_gap and table.extension_piece_count == 0:
        raise FixedPointError("sweeping the gap needs extension pieces")
    worst = 0.0
    total = 0.0
    for n_i, n_j, kdt, s_next in sweep_inputs(samples, include_gap=include_gap):
        error = emulate_up_pipeline(n_i, n_j, kdt, s_next, width, table).error
        worst = max(worst, error)
        total += error
    return EpsSweepReport(
        width=width,
        eps_arcsin=table.source_eps,
        max_error=worst,
        mean_error=total / samples,
        samples=samples,
    )
