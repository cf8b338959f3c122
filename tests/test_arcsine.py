import dataclasses
import itertools
import math
import random
import signal
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from cloudq import arcsine
from cloudq.fixedpoint import EXTENSION_DOMAIN
from cloudq.presets import ARCSINE_NOISE_ROW, PIECEWISE_ARCSINE_TABLE

from cloudq.arcsine import (
    DegreeTooLowError,
    FitError,
    chebyshev_fit,
    linf_error,
    min_pieces,
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


def test_degree_too_low(monkeypatch):
    # below the double-precision measurement floor no subdomain converges
    with pytest.raises(DegreeTooLowError, match=r"eps=1e-17 .* double-precision floor 5\.55e-17"):
        min_pieces(1, 1e-17)
    # a reachable eps that would need an absurd number of linear pieces
    monkeypatch.setattr(arcsine, "MAX_PIECES", 16)
    with pytest.raises(DegreeTooLowError):
        min_pieces(1, 1e-9)


def _expired(*_):
    raise TimeoutError("min_pieces did not fail fast")


@pytest.mark.parametrize("eps", [6e-17, 2e-16])
def test_piece_budget_fails_fast(eps):
    # just above the double-precision floor a degree-1 fit needs millions of
    # pieces, so the budget's error must come long before the 4096th piece
    previous = signal.signal(signal.SIGPROF, _expired)
    signal.setitimer(signal.ITIMER_PROF, 0.25)
    try:
        with pytest.raises(DegreeTooLowError) as err:
            min_pieces(1, eps)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    assert str(err.value) == f"degree 1 needs more than 4096 pieces for eps={eps}"


def test_invalid_inputs():
    with pytest.raises(FitError):
        min_pieces(5, 0.0)
    with pytest.raises(FitError):
        chebyshev_fit(0.4, 0.2, 5)
    with pytest.raises(FitError):
        chebyshev_fit(0.0, 0.5, 0)


def _no_fit(*args, **kwargs):
    raise AssertionError("a fit or a node value ran before the refusal")


@pytest.mark.parametrize(
    "degree, eps, message",
    [
        (5, math.nan, "need eps > 0, got nan"),
        (5, -math.inf, "need eps > 0, got -inf"),
        (2.5, 1e-12, "degree must be an int, got 2.5"),
        (True, 1e-12, "degree must be an int, got True"),
        (np.int64(5), 1e-12, f"degree must be an int, got {np.int64(5)!r}"),
        (0, 1e-12, "need degree >= 1, got 0"),
        (-3, 1e-12, "need degree >= 1, got -3"),
    ],
)
def test_min_pieces_refuses_before_any_fit(monkeypatch, degree, eps, message):
    monkeypatch.setattr(arcsine, "chebyshev_fit", _no_fit)
    monkeypatch.setattr(arcsine, "_fit_is_doomed", _no_fit)
    with pytest.raises(FitError) as err:
        min_pieces(degree, eps)
    assert str(err.value) == message
    assert type(err.value) is FitError


@pytest.mark.parametrize(
    "grid_factor, message",
    [
        (0, "need grid_factor >= 1, got 0"),
        (-1, "need grid_factor >= 1, got -1"),
        (1.5, "grid_factor must be an int, got 1.5"),
        (True, "grid_factor must be an int, got True"),
        (np.int64(10), f"grid_factor must be an int, got {np.int64(10)!r}"),
    ],
)
def test_verify_refuses_a_bad_grid_factor_before_any_work(fit_d5, monkeypatch, grid_factor, message):
    monkeypatch.setattr(arcsine, "_node_values", _no_fit)
    with pytest.raises(FitError) as err:
        verify(fit_d5, grid_factor=grid_factor)
    assert str(err.value) == message


def test_chebyshev_fit_refuses_a_degree_that_is_not_an_int():
    with pytest.raises(FitError, match=r"^degree must be an int, got 2\.5$"):
        chebyshev_fit(0.0, 0.5, 2.5)


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
# number or leaves [0, 1]: a nan or an infinite last coefficient gives a nan
# reference error, an infinite coefficient 0 or 1 an infinite one, and a
# bound outside [0, 1] (nan and +-inf among them) is refused before its
# node values
OUTSIDE = "outside"
NON_FINITE_PINNED = {
    **{(position, "lower", value): OUTSIDE
       for position in (0, 1) for value in (math.nan, math.inf, -math.inf)},
    **{(position, "upper", 1.5): OUTSIDE for position in (0, 1)},
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
    if where in ("lower", "upper"):
        broken = dataclasses.replace(piece, **{where: value})
    else:
        coefficients = list(piece.coefficients)
        coefficients[where] = value
        broken = dataclasses.replace(piece, coefficients=tuple(coefficients))
    pp = dataclasses.replace(
        fit_d5, pieces=fit_d5.pieces[:position] + (broken,) + fit_d5.pieces[position + 1:]
    )
    expected = NON_FINITE_PINNED[position, where, value]
    if expected is OUTSIDE:
        with pytest.raises(FitError, match=rf"piece {position} on .* is outside \[0, 1\]"):
            verify(pp, grid_factor=1)
    elif expected is FitError:
        with pytest.raises(FitError, match=rf"piece {position} on .* nan reference error"):
            verify(pp, grid_factor=1)
    else:
        assert verify(pp, grid_factor=1) == expected


def _with_coefficient(pp, position, value):
    piece = pp.pieces[position]
    broken = dataclasses.replace(piece, coefficients=(value,) + piece.coefficients[1:])
    pieces = pp.pieces[:position] + (broken,) + pp.pieces[position + 1:]
    return dataclasses.replace(pp, pieces=pieces)


def test_verify_stops_once_the_maximum_is_infinite(fit_d5, monkeypatch):
    # an infinite reference error is the maximum: no finite bound can raise it
    truth_series, runs = arcsine._truth_series, []
    monkeypatch.setattr(
        arcsine, "_truth_series", lambda *args: runs.append(args) or truth_series(*args)
    )
    assert verify(_with_coefficient(fit_d5, 0, math.inf), grid_factor=1) == math.inf
    assert len(runs) == 1


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("nan_at", [0, 2], ids=["before", "after"])
def test_a_nan_piece_raises_beside_an_infinite_one(fit_d5, nan_at):
    pp = _with_coefficient(_with_coefficient(fit_d5, 1, math.inf), nan_at, math.nan)
    piece = pp.pieces[nan_at]
    message = rf"piece {nan_at} on \[{piece.lower}, {piece.upper}\] has a nan reference error"
    with pytest.raises(FitError, match=message):
        verify(pp, grid_factor=1)


def _peak_between_coarse_points(center):
    # 1 - (u - center)^2 in the Chebyshev basis: (u^2 = (T_0 + T_2) / 2)
    return np.array([0.5 - center * center, 2 * center, -0.5])


GRID_MAX_SERIES = {
    "max-at-plus-one": np.array([1e-13, 1e-13]),
    "max-at-minus-one": np.array([1e-13, -1e-13, 2e-15]),
    "max-between-coarse-points": _peak_between_coarse_points(0.1),
    "all-zero": np.zeros(50),
    "constant-only": np.array([-2.5e-13]),
    "large-top-coefficient": np.r_[np.full(49, 1e-17), 1e-9],
    **{f"random-{seed}": np.random.default_rng(seed).normal(size=50) * 0.7 ** np.arange(50) * 1e-13
       for seed in range(4)},
}
GRID_MAX_AT = {"max-at-plus-one": -1, "max-at-minus-one": 0}  # grid index of the maximum


@pytest.mark.parametrize("grid", [257, 4096, 40960])
@pytest.mark.parametrize("name", list(GRID_MAX_SERIES))
def test_pruned_grid_max_is_the_whole_grid(name, grid):
    series = GRID_MAX_SERIES[name]
    u = np.linspace(-1.0, 1.0, grid)
    values = np.abs(arcsine._chebval(u, series))
    if name in GRID_MAX_AT:
        assert values.argmax() == range(grid)[GRID_MAX_AT[name]]
    if name == "max-between-coarse-points":  # the case the cells exist for
        assert values[::arcsine._STRIDE].max() < values.max()
    assert arcsine._grid_max(series, grid) == np.max(values)


@pytest.mark.parametrize("grid", [257, 4096, 40960])
def test_pruned_grid_max_keeps_a_nan(grid):
    series = np.r_[1e-13, math.nan, np.zeros(10)]
    assert math.isnan(arcsine._grid_max(series, grid))


def test_verification_pass_meets_eps():
    pp = min_pieces(6, 1e-13)
    assert verify(pp, grid_factor=2) <= 1.05 * pp.eps


def _reference_error(coefficients, a, b, grid):
    # grid max of |poly - arcsin| against the 45-digit reference series
    return arcsine._grid_max(arcsine._diff_series(coefficients, a, b), grid)


def test_reference_error_agrees_with_grid_error(monkeypatch):
    coeffs = chebyshev_fit(0.0, 0.125, 5)
    monkeypatch.setattr(arcsine, "DEFAULT_ERROR_GRID", 2048)
    grid = linf_error(coeffs, 0.0, 0.125)
    precise = _reference_error(coeffs, 0.0, 0.125, grid=2048)
    assert precise == pytest.approx(grid, rel=1e-2)


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


def test_one_cosine_table_serves_every_table_degree():
    # every degree of the piece-count table (4..9) verifies against the
    # same 49-term series, so a pass over its rows builds the table once
    fits = [min_pieces(degree, 1e-12, domain=(0.0, 0.125)) for degree in range(4, 10)]
    arcsine._cosine_table.cache_clear()
    for pp in fits:
        assert verify(pp, grid_factor=1) < pp.eps
    info = arcsine._cosine_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    for degree in range(1, 10):
        assert arcsine._reference_order((0.0,) * (degree + 1)) == 49
    assert arcsine._reference_order((0.0,) * 13) == 52


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


def _drawn_intervals(seed, count):
    """``count`` intervals in ``[0, 1]``: log-uniform widths, and widths of
    a few ulps of the left edge (subnormal ones at zero)."""
    rng = random.Random(seed)
    drawn = 0
    while drawn < count:
        a = rng.choice([0.0, rng.random(), 1 - rng.random() ** 4])
        if drawn % 2:
            b = a + rng.randint(1, 8) * math.ulp(a)
        else:
            b = a + 10 ** rng.uniform(-12, 0)
        if a < b <= 1:
            drawn += 1
            yield a, b


def _warned(call):
    """The result of ``call()`` and the (class, message) of every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


def _chebfit(a, b, degree):
    xs = np.linspace(a, b, arcsine.FIT_POINTS)
    return np.polynomial.chebyshev.chebfit((2 * xs - a - b) / (b - a), np.arcsin(xs), degree)


def test_chebyshev_fit_is_chebfit_bit_for_bit():
    # chebyshev_fit runs chebfit's steps itself; the bits and the warnings
    # must stay numpy's, narrow intervals and their rank deficit included
    warned = 0
    for (a, b), degree in zip(_drawn_intervals(1, 300), itertools.cycle(range(1, 10))):
        got, got_warnings = _warned(lambda: chebyshev_fit(a, b, degree))
        want, want_warnings = _warned(lambda: _chebfit(a, b, degree))
        assert got.tobytes() == want.tobytes(), (a, b, degree)
        assert got_warnings == want_warnings, (a, b, degree)
        warned += bool(want_warnings)
    assert warned > 0


def test_a_narrow_fit_warns_as_chebfit_does():
    a = 0.3
    b = a + 2 * math.ulp(a)
    _, got = _warned(lambda: chebyshev_fit(a, b, 5))
    _, want = _warned(lambda: _chebfit(a, b, 5))
    assert got == want
    assert [(category.__name__, message) for category, message in got] == [
        ("RankWarning", "The fit may be poorly conditioned")
    ]


def test_chebval_is_numpys_bit_for_bit():
    # _chebval runs chebval's Clenshaw steps itself, for the fits' short
    # series and verify's 49-term ones, on grids and at the point u = 0
    rng = np.random.default_rng(7)
    grids = [np.linspace(-1.0, 1.0, 4096), rng.uniform(-1.0, 1.0, 257)]
    for length in [*range(1, 12), 49, 50, 53]:
        for scale in (1.0, 1e-16):
            coefficients = rng.standard_normal(length) * scale / np.arange(1, length + 1) ** 2
            for u in [*grids, 0.0]:
                got = arcsine._chebval(u, coefficients)
                want = np.polynomial.chebyshev.chebval(u, coefficients)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (length, scale)


def test_grid_points_are_linspace_points():
    # the doom check's and the probe's points must be linf_error's grid points
    grid = arcsine.DEFAULT_ERROR_GRID
    indices = [arcsine._extrema_index(d) for d in range(1, 46)] + [arcsine._PROBE_INDEX]
    # on these two the last i * step + a misses b, which linspace puts last
    missed = [(0.0, 0.06248884988977388), (0.0005693553207764546, 0.5101620655322282)]
    assert all((grid - 1) * ((b - a) / (grid - 1)) + a != b for a, b in missed)
    cases = [*zip(_drawn_intervals(2, 400), itertools.cycle(indices)),
             *itertools.product(missed, indices)]
    for (a, b), index in cases:
        want = np.linspace(a, b, grid)[index]
        assert arcsine._grid_points(a, b, index).tobytes() == want.tobytes(), (a, b)
    assert len(arcsine._PROBE_INDEX) == 94


def test_probe_rejects_only_fits_that_fail_the_grid(monkeypatch):
    # over the benchmark's 13 rows: a probe never reads above the whole grid,
    # so every fit it rejects has linf_error >= eps
    probes = []
    grid_error = arcsine._grid_error

    def recorded(coefficients, a, b, xs):
        error = grid_error(coefficients, a, b, xs)
        if len(xs) == len(arcsine._PROBE_INDEX):
            probes.append((tuple(coefficients), a, b, error))
        return error

    monkeypatch.setattr(arcsine, "_grid_error", recorded)
    rejected = 0
    for eps, degree, _ in PIECEWISE_ARCSINE_TABLE:
        if (eps, degree) == ARCSINE_NOISE_ROW:
            continue
        for domain in ((0.0, 0.5), EXTENSION_DOMAIN):
            probes.clear()
            min_pieces(degree, eps, domain)
            for coefficients, a, b, probe in probes:
                error = linf_error(coefficients, a, b)
                assert probe <= error or math.isnan(error), (eps, degree, a, b)
                if not probe < eps:
                    rejected += 1
                    assert not error < eps, (eps, degree, a, b)
    assert rejected > 0


@pytest.mark.filterwarnings("ignore:The fit may be poorly conditioned")
def test_probe_leaves_point_intervals_to_linf_error(monkeypatch):
    # near the noise floor the halving reaches b == a, which must end in
    # the budget's error: a probe there would read 0/0 = nan and reject,
    # ending the crawl at the bisection limit instead
    monkeypatch.setattr(arcsine, "MAX_PIECES", 256)
    with pytest.raises(DegreeTooLowError) as err:
        min_pieces(3, 3e-16, (0.9, 1.0))
    assert str(err.value) == "degree 3 needs more than 256 pieces for eps=3e-16"


@pytest.mark.filterwarnings("ignore:The fit may be poorly conditioned")
@pytest.mark.parametrize("degree, domain", [(4, (0.5, 0.875)), (3, (0.9, 1.0))])
def test_noise_floor_crawl_stops_at_its_first_zero_width_piece(degree, domain):
    # every piece after the first [a, a] repeated it until the budget of
    # 4096 pieces ran out, about 40 s per call; the first one now raises
    start = time.perf_counter()
    with pytest.raises(DegreeTooLowError) as err:
        min_pieces(degree, 3e-16, domain)
    assert time.perf_counter() - start < 1.0
    assert type(err.value) is DegreeTooLowError
    assert str(err.value) == f"degree {degree} needs more than 4096 pieces for eps=3e-16"
