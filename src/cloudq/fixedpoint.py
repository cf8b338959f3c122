"""Bit-exact emulation of the unsigned fixed-point arithmetic pipeline.

Registers are ``n``-bit unsigned words.  Real mode carries one integer
bit: ``value = bits * 2**-(n-1)`` on ``[0, 2 - 2**-(n-1)]``; integer mode
is a plain unsigned integer.  Every operation truncates toward zero, the
cheapest convention for the corresponding reversible circuits, so no
result ever exceeds its exact real value.

Multiplies come in two forms, each matching what ``resources`` charges.
``fp_mul_ui`` (``MUL_UI``, 4n^2 T) is the chain of controlled adders of
decreasing width: each partial product loses its bits below the register
resolution, so one multiply may drop up to one step per set control bit.
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
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .arcsine import PiecewisePolynomial, min_pieces

EXTENSION_DOMAIN = (0.5, 0.875)


class FixedPointError(ValueError):
    """Invalid fixed-point operand or result."""


class FixedPointRangeError(FixedPointError):
    """Value outside the representable or contracted range."""


class CarryOutError(FixedPointError):
    """Addition overflowed the register width."""


class DivisionByZeroError(FixedPointError):
    """Division with a zero divisor."""


@dataclass(frozen=True)
class FixedPointValue:
    """An ``width``-bit unsigned word in real or integer mode."""

    bits: int
    width: int
    mode: str = "real"

    def __post_init__(self) -> None:
        if self.width < 1:
            raise FixedPointError(f"need width >= 1, got {self.width}")
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

    def ulp(self) -> Fraction:
        return Fraction(1) if self.mode == "integer" else Fraction(1, 1 << (self.width - 1))


def fp_encode(x, width: int, mode: str = "real") -> FixedPointValue:
    """Truncate ``x`` toward zero onto an ``width``-bit register."""
    if mode == "integer":
        if x != int(x):
            raise FixedPointError(f"integer mode needs an integer, got {x}")
        bits = int(x)
        if not 0 <= bits < (1 << width):
            raise FixedPointRangeError(f"{x} outside [0, 2**{width})")
        return FixedPointValue(bits, width, "integer")
    exact = Fraction(x)
    if exact < 0 or exact >= 2:
        raise FixedPointRangeError(f"{x} outside the real-mode range [0, 2)")
    bits = int(exact * (1 << (width - 1)))  # floor for non-negative values
    return FixedPointValue(bits, width, "real")


def _require(a: FixedPointValue, b: FixedPointValue) -> None:
    if a.width != b.width or a.mode != b.mode:
        raise FixedPointError(
            f"operand mismatch: {a.width}-bit {a.mode} vs {b.width}-bit {b.mode}"
        )


def fp_add(a: FixedPointValue, b: FixedPointValue) -> FixedPointValue:
    """Ripple addition; a carry past the top bit raises."""
    _require(a, b)
    bits = a.bits + b.bits
    if bits >= (1 << a.width):
        raise CarryOutError(f"addition carry-out at width {a.width}")
    return FixedPointValue(bits, a.width, a.mode)


def fp_sub(a: FixedPointValue, b: FixedPointValue) -> FixedPointValue:
    """Ripple subtraction; borrows below zero raise."""
    _require(a, b)
    bits = a.bits - b.bits
    if bits < 0:
        raise FixedPointRangeError("subtraction underflow on an unsigned register")
    return FixedPointValue(bits, a.width, a.mode)


def fp_compare(a: FixedPointValue, b: FixedPointValue) -> bool:
    """``a >= b`` on matching registers."""
    _require(a, b)
    return a.bits >= b.bits


def fp_mul_int(a: FixedPointValue, b: FixedPointValue) -> FixedPointValue:
    """Integer product on an ``n+m``-bit result register (exact)."""
    if a.mode != "integer" or b.mode != "integer":
        raise FixedPointError("fp_mul_int needs integer-mode operands")
    return FixedPointValue(a.bits * b.bits, a.width + b.width, "integer")


def _mul_real_bits(control_bits: int, operand_bits: int, width: int) -> int:
    """Shift-and-add product of two real-mode words, truncating partials.

    Each set bit ``i`` of the control word adds the operand shifted so
    that bits falling below the register resolution are dropped, exactly
    as the chained controlled adders of decreasing width (the 4n^2 T that
    ``MUL_UI`` charges) do.
    """
    acc = 0
    for i in range(width):
        if (control_bits >> i) & 1:
            acc += operand_bits >> (width - 1 - i)
    return acc


def fp_mul_ui(a: FixedPointValue, b: FixedPointValue) -> FixedPointValue:
    """Real product with both operands and the product in [0, 1]."""
    _require(a, b)
    if a.mode != "real":
        raise FixedPointError("fp_mul_ui needs real-mode operands")
    one = 1 << (a.width - 1)
    if a.bits > one or b.bits > one:
        raise FixedPointRangeError("fp_mul_ui operands must lie in [0, 1]")
    bits = _mul_real_bits(a.bits, b.bits, a.width)
    return FixedPointValue(bits, a.width, "real")


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


def _sqrt_bits(radicand: int, out_bits: int) -> int:
    """Digit-by-digit square root: floor(sqrt(radicand)), restoring form."""
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


def fp_sqrt(a: FixedPointValue) -> FixedPointValue:
    """Square root of a real value in [0, 1], truncated at the last bit."""
    if a.mode != "real":
        raise FixedPointError("fp_sqrt needs a real-mode operand")
    one = 1 << (a.width - 1)
    if a.bits > one:
        raise FixedPointRangeError("fp_sqrt operand must lie in [0, 1]")
    # result/2**(w-1) ~ sqrt(bits/2**(w-1)), so take isqrt(bits << (w-1))
    bits = _sqrt_bits(a.bits << (a.width - 1), a.width)
    return FixedPointValue(bits, a.width, "real")


def _div_bits(num: int, den: int, width: int) -> int:
    """Restoring long division: one integer bit then width-1 fraction bits."""
    quotient = 0
    remainder = num
    for _ in range(width):
        quotient <<= 1
        if remainder >= den:
            remainder -= den
            quotient |= 1
        remainder <<= 1
    return quotient


def fp_div(a: FixedPointValue, b: FixedPointValue) -> FixedPointValue:
    """Real quotient ``a / b`` with ``a <= b`` (result in [0, 1])."""
    _require(a, b)
    if a.mode != "real":
        raise FixedPointError("fp_div needs real-mode operands")
    if b.bits == 0:
        raise DivisionByZeroError("division by zero")
    if a.bits > b.bits:
        raise FixedPointRangeError("fp_div needs a <= b so the quotient fits [0, 1]")
    bits = _div_bits(a.bits, b.bits, a.width)
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
    core_piece_count: int
    extension_piece_count: int = 0

    @property
    def domain_end_bits(self) -> int:
        return self.pieces[-1].upper_bits


_CHEB_POWER_CACHE: dict[int, list[list[int]]] = {}


def _cheb_power_rows(order: int) -> list[list[int]]:
    """Integer power-basis coefficients of T_0..T_order."""
    rows = _CHEB_POWER_CACHE.get(order)
    if rows is not None:
        return rows
    rows = [[1], [0, 1]]
    while len(rows) <= order:
        prev2, prev1 = rows[-2], rows[-1]
        nxt = [0] + [2 * c for c in prev1]
        for idx, c in enumerate(prev2):
            nxt[idx] -= c
        rows.append(nxt)
    _CHEB_POWER_CACHE[order] = rows
    return rows


def _exact_power_coeffs(piece) -> list[Fraction]:
    """Exact coefficients ``beta_k`` of ``sum beta_k (x - lower)**k``.

    The float Chebyshev coefficients are exact binary rationals, so the
    basis change is carried out in Fraction arithmetic and introduces no
    rounding at all.
    """
    degree = len(piece.coefficients) - 1
    rows = _cheb_power_rows(degree)
    in_u = [Fraction(0)] * (degree + 1)
    for k, c in enumerate(piece.coefficients):
        ck = Fraction(c)
        for j, t in enumerate(rows[k]):
            in_u[j] += ck * t
    # substitute u = (2/width) * t - 1 and expand
    slope = Fraction(2) / (Fraction(piece.upper) - Fraction(piece.lower))
    beta = [Fraction(0)] * (degree + 1)
    basis = [Fraction(1)]  # ((2/w) t - 1)**j, ascending in t
    for j in range(degree + 1):
        for idx, c in enumerate(basis):
            beta[idx] += in_u[j] * c
        new = [Fraction(0)] * (len(basis) + 1)
        for idx, c in enumerate(basis):
            new[idx] -= c
            new[idx + 1] += c * slope
        basis = new
    return beta


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
    if biased_constant:
        consts[0] = int((Fraction(1) + scaled[0]) * one)
    else:
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
        core_piece_count=pp.piece_count,
        extension_piece_count=0 if extension is None else extension.piece_count,
    )


def build_quantized_arcsine(
    degree: int, eps: float, width: int, extended: bool = True
) -> QuantizedArcsine:
    """Fit and quantize arcsine pieces, optionally past the 0.5 edge.

    The circuit's complement branch feeds ``sqrt(1 - r')`` into the
    arcsine, which exceeds the stated 0.5 domain edge whenever
    ``1/4 <= r' < 3/4``; the extension pieces cover that gap so the
    emulator can report the incurred error instead of failing.
    """
    core = min_pieces(degree, eps)
    ext = min_pieces(degree, eps, domain=EXTENSION_DOMAIN) if extended else None
    return quantize_arcsine(core, width, ext)


def fp_arcsin_pp(a: FixedPointValue, table: QuantizedArcsine) -> FixedPointValue:
    """Piecewise arcsine of a real value within the quantized domain.

    Selects the piece by register comparisons, then runs the offset
    Horner recurrence ``acc <- acc * u + (1 + beta_k) - u`` which needs
    only multiplies, additions and exact subtractions of the evaluation
    variable; the offset is removed at the constant term.  Each Horner
    product ``acc * u`` is formed at full width and truncated once, as the
    full-width adders charged by the ``ARCSIN`` cost do, so it errs by less
    than one register step (``fp_mul_ui`` keeps the cheaper per-partial
    truncation that ``MUL_UI`` pays for).
    """
    if a.mode != "real" or a.width != table.width:
        raise FixedPointError("operand does not match the quantized table")
    if a.bits > table.domain_end_bits:
        raise FixedPointRangeError(
            f"arcsine input {a.value} outside the quantized domain"
        )
    piece = next(p for p in table.pieces if a.bits <= p.upper_bits)
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


_PI_HALF_CACHE: dict[int, int] = {}


def _pi_half_bits(width: int) -> int:
    bits = _PI_HALF_CACHE.get(width)
    if bits is None:
        with mp.workdps(width + 20):
            bits = int(mp.floor(mp.pi / 2 * (1 << (width - 1))))
        _PI_HALF_CACHE[width] = bits
    return bits


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
    modified = float(r_fp.exact / s_fp.exact)
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
    samples: int, max_count: int = 40, include_gap: bool = False
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
        n_i = 1 + int(u1 * max_count)
        n_j = 1 + int(u2 * max_count)
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
