"""Bit-exact emulation of the unsigned fixed-point arithmetic pipeline.

Registers are ``n``-bit unsigned words.  Real mode carries one integer
bit: ``value = bits * 2**-(n-1)`` on ``[0, 2 - 2**-(n-1)]``; integer mode
is a plain unsigned integer.  Every operation truncates toward zero, the
cheapest convention for the corresponding reversible circuits, so no
result ever exceeds its exact real value.

The Horner steps of ``fp_arcsin_pp`` (``ARCSIN``, about n full-width
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

import mpmath as mp

from .arcsine import PiecewisePolynomial, min_pieces

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


def require_positive(name: str, value: int) -> None:
    """Refuse a register width or sample count below one."""
    if value < 1:
        raise FixedPointError(f"need {name} >= 1, got {value}")


@dataclass(frozen=True)
class FixedPointValue:
    """An ``width``-bit unsigned word in real or integer mode."""

    bits: int
    width: int
    mode: str = "real"

    def __post_init__(self) -> None:
        require_positive("width", self.width)
        if not 0 <= self.bits < (1 << self.width):
            raise FixedPointRangeError(
                f"bits {self.bits} outside [0, 2**{self.width})"
            )
        if self.mode not in ("real", "integer"):
            raise FixedPointError(f"unknown mode {self.mode!r}")

    @property
    def exact(self) -> Fraction:
        if self.mode == "integer":
            return Fraction(self.bits)
        return Fraction(self.bits, 1 << (self.width - 1))

    @property
    def value(self) -> float:
        return float(self.exact)


def fp_encode(x, width: int, mode: str = "real") -> FixedPointValue:
    """Truncate ``x`` toward zero onto an ``width``-bit register."""
    if mode == "integer":
        if x != int(x):
            raise FixedPointError(f"integer mode needs an integer, got {x}")
        bits = int(x)
        if not 0 <= bits < (1 << width):
            raise FixedPointRangeError(f"{x} outside [0, 2**{width})")
        return FixedPointValue(bits, width, "integer")
    # exactly num/den, as Fraction(x) reads a float (NaN and inf raise alike)
    num, den = (x if isinstance(x, float) else Fraction(x)).as_integer_ratio()
    if num < 0 or num >= 2 * den:
        raise FixedPointRangeError(f"{x} outside the real-mode range [0, 2)")
    bits = (num << (width - 1)) // den  # floor for non-negative values
    return FixedPointValue(bits, width, "real")


def _require(a: FixedPointValue, b: FixedPointValue) -> None:
    if a.width != b.width or a.mode != b.mode:
        raise FixedPointError(
            f"operand mismatch: {a.width}-bit {a.mode} vs {b.width}-bit {b.mode}"
        )


def fp_sub(a: FixedPointValue, b: FixedPointValue) -> FixedPointValue:
    """Ripple subtraction; borrows below zero raise."""
    _require(a, b)
    bits = a.bits - b.bits
    if bits < 0:
        raise FixedPointRangeError("subtraction underflow on an unsigned register")
    return FixedPointValue(bits, a.width, a.mode)


def fp_mul_int(a: FixedPointValue, b: FixedPointValue) -> FixedPointValue:
    """Integer product on an ``n+m``-bit result register (exact)."""
    if a.mode != "integer" or b.mode != "integer":
        raise FixedPointError("fp_mul_int needs integer-mode operands")
    return FixedPointValue(a.bits * b.bits, a.width + b.width, "integer")


def fp_mul_const_int_ui(
    a: FixedPointValue, constant, const_width: int
) -> FixedPointValue:
    """Integer times a real constant, on a ``const_width``-bit register.

    The constant is truncated onto the register first; the product of the
    integer with the encoded constant is then exact provided it stays in
    [0, 1].
    """
    if a.mode != "integer":
        raise FixedPointError("fp_mul_const_int_ui needs an integer operand")
    encoded = fp_encode(constant, const_width, "real")
    bits = a.bits * encoded.bits
    if bits > (1 << (const_width - 1)):
        raise FixedPointRangeError(
            f"product {a.bits} * {encoded.value} exceeds 1"
        )
    return FixedPointValue(bits, const_width, "real")


def fp_sqrt(a: FixedPointValue) -> FixedPointValue:
    """Square root of a real value in [0, 1], truncated at the last bit."""
    if a.mode != "real":
        raise FixedPointError("fp_sqrt needs a real-mode operand")
    one = 1 << (a.width - 1)
    if a.bits > one:
        raise FixedPointRangeError("fp_sqrt operand must lie in [0, 1]")
    # result/2**(w-1) ~ sqrt(bits/2**(w-1)), so take isqrt(bits << (w-1)); the
    # radicand is below 2**(2w), so the circuit's w-digit square root agrees
    bits = math.isqrt(a.bits << (a.width - 1))
    return FixedPointValue(bits, a.width, "real")


def fp_div(a: FixedPointValue, b: FixedPointValue) -> FixedPointValue:
    """Real quotient ``a / b`` with ``a <= b`` (result in [0, 1])."""
    _require(a, b)
    if a.mode != "real":
        raise FixedPointError("fp_div needs real-mode operands")
    if b.bits == 0:
        raise DivisionByZeroError("division by zero")
    if a.bits > b.bits:
        raise FixedPointRangeError("fp_div needs a <= b so the quotient fits [0, 1]")
    # for a <= b the circuit's restoring division (one integer bit, then
    # w-1 fraction bits) yields exactly this floor
    bits = (a.bits << (a.width - 1)) // b.bits
    return FixedPointValue(bits, a.width, "real")


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
    degree: int
    pieces: tuple[QuantizedPiece, ...]
    source_eps: float
    extension_piece_count: int = 0
    # the pieces' upper edges, non-decreasing, for the bisect in piece_for
    upper_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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


def _exact_power_coeffs(piece) -> list[Fraction]:
    """Exact coefficients ``beta_j`` of ``sum beta_j (x - lower)**j``.

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
    return [Fraction(a * p**j, q**j << exponent) for j, a in enumerate(acc)]


def _quantize_piece(piece, width: int) -> QuantizedPiece:
    one = 1 << (width - 1)
    beta = _exact_power_coeffs(piece)
    piece_width = Fraction(piece.upper) - Fraction(piece.lower)
    max_shift = 0
    while piece_width * (1 << (max_shift + 1)) <= Fraction(1, 2):
        max_shift += 1
    # smallest shift keeping every higher coefficient in [-1/8, 7/8]:
    # small u damps multiply truncation, so prefer the tightest fit
    for t_shift in range(0, max_shift + 1):
        scaled = [b / (1 << (k * t_shift)) for k, b in enumerate(beta)]
        if all(
            Fraction(-1, 8) <= b <= Fraction(7, 8) for b in scaled[1:]
        ):
            break
    else:
        raise FixedPointError("arcsine coefficients too large to scale")
    biased_constant = scaled[0] < Fraction(7, 8)
    if not biased_constant and scaled[0] < 0:
        raise FixedPointError("negative constant term cannot be stored directly")
    consts = [int((Fraction(1) + b) * one) for b in scaled]
    if not biased_constant:
        consts[0] = int(scaled[0] * one)
    return QuantizedPiece(
        lower_bits=fp_encode(piece.lower, width).bits,
        upper_bits=fp_encode(piece.upper, width).bits,
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
    require_positive("width", width)
    pieces: list[QuantizedPiece] = []
    for source in (pp, extension):
        if source is None:
            continue
        for piece in source.pieces:
            pieces.append(_quantize_piece(piece, width))
    return QuantizedArcsine(
        width=width,
        degree=pp.degree,
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
    require_positive("width", width)
    core = min_pieces(degree, eps)
    return quantize_arcsine(core, width, min_pieces(degree, eps, domain=EXTENSION_DOMAIN))


def fp_arcsin_pp(a: FixedPointValue, table: QuantizedArcsine) -> FixedPointValue:
    """Piecewise arcsine of a real value within the quantized domain.

    Selects the piece by register comparisons, then runs the offset
    Horner recurrence ``acc <- acc * u + (1 + beta_k) - u`` which needs
    only multiplies, additions and exact subtractions of the evaluation
    variable; the offset is removed at the constant term.  Each Horner
    product ``acc * u`` is formed at full width and truncated once, as the
    full-width adders charged by the ``ARCSIN`` cost do, so it errs by less
    than one register step.
    """
    if a.mode != "real" or a.width != table.width:
        raise FixedPointError("operand does not match the quantized table")
    if a.bits > table.domain_end_bits:
        raise FixedPointRangeError(
            f"arcsine input {a.value} outside the quantized domain"
        )
    piece = table.piece_for(a.bits)
    width = table.width
    one = 1 << (width - 1)
    u_bits = (a.bits - piece.lower_bits) << piece.t_shift  # exact shift
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
    if theta < 0:
        theta = 0  # fit undershoot below one resolution step near x = 0
    return FixedPointValue(theta, width, "real")


@lru_cache(maxsize=None)
def _pi_half_bits(width: int) -> int:
    with mp.workdps(width + 20):
        return int(mp.floor(mp.pi / 2 * (1 << (width - 1))))


@dataclass(frozen=True)
class PipelineTrace:
    """Every intermediate of one transition-probability evaluation."""

    n_i: int
    n_j: int
    k_dt: FixedPointValue
    s_next: FixedPointValue
    product: FixedPointValue
    r: FixedPointValue
    z: bool
    w: FixedPointValue
    sqrt_w: FixedPointValue
    sqrt_s: FixedPointValue
    quotient: FixedPointValue
    arcsin_out: FixedPointValue
    theta: FixedPointValue


@dataclass(frozen=True)
class UpPipelineResult:
    theta: FixedPointValue
    error: float
    trace: PipelineTrace


def emulate_up_pipeline(
    n_i: int,
    n_j: int,
    k_dt,
    s_next,
    width: int,
    table: QuantizedArcsine,
    force_branch: bool | None = None,
) -> UpPipelineResult:
    """Run the full rotation-angle pipeline on ``width``-bit registers.

    Returns the computed angle together with its deviation from
    ``arcsin(sqrt(r/s))`` evaluated on the encoded inputs, so the error
    reflects the arithmetic itself rather than input rounding.
    ``force_branch`` overrides the comparison outcome for boundary tests.
    """
    if n_i < 0 or n_j < 0:
        raise FixedPointError("droplet counts must be non-negative")
    s_fp = fp_encode(s_next, width)
    if s_fp.bits == 0:
        raise DivisionByZeroError("remaining probability encoded to zero")
    k_fp = fp_encode(k_dt, width)
    q1 = max(n_i.bit_length(), n_j.bit_length(), 1)
    product = fp_mul_int(
        FixedPointValue(n_i, q1, "integer"), FixedPointValue(n_j, q1, "integer")
    )
    r_fp = fp_mul_const_int_ui(product, k_dt, width)
    if r_fp.bits > s_fp.bits:
        raise FixedPointRangeError("transition probability exceeds the remainder")
    z = r_fp.bits >= (s_fp.bits >> 2)
    if force_branch is not None:
        z = force_branch
    w_fp = fp_sub(s_fp, r_fp) if z else r_fp
    sqrt_w = fp_sqrt(w_fp)
    sqrt_s = fp_sqrt(s_fp)
    quotient = fp_div(sqrt_w, sqrt_s)
    arcsin_out = fp_arcsin_pp(quotient, table)
    if z:
        theta = FixedPointValue(_pi_half_bits(width) - arcsin_out.bits, width, "real")
    else:
        theta = arcsin_out
    modified = r_fp.bits / s_fp.bits  # float(r/s): int true division rounds correctly
    reference = math.asin(math.sqrt(modified))
    error = abs(theta.value - reference)
    trace = PipelineTrace(
        n_i=n_i, n_j=n_j, k_dt=k_fp, s_next=s_fp, product=product, r=r_fp, z=z,
        w=w_fp, sqrt_w=sqrt_w, sqrt_s=sqrt_s, quotient=quotient,
        arcsin_out=arcsin_out, theta=theta,
    )
    return UpPipelineResult(theta=theta, error=error, trace=trace)


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
    require_positive("samples", samples)
    if include_gap and table.extension_piece_count == 0:
        raise FixedPointError("sweeping the gap needs extension pieces")
    worst = 0.0
    total = 0.0
    for n_i, n_j, kdt, s in sweep_inputs(samples, include_gap=include_gap):
        result = emulate_up_pipeline(n_i, n_j, kdt, s, width, table)
        worst = max(worst, result.error)
        total += result.error
    return EpsSweepReport(
        width=width,
        eps_arcsin=table.source_eps,
        max_error=worst,
        mean_error=total / samples,
        samples=samples,
    )
