"""Bundled benchmark cases and their expected results.

Five named parameter sets exercise the resource model across problem
size, step count, and target error; the expected resource totals and the
piecewise-arcsine piece counts are regression targets for
``reproduce-tables``.  The ``(eps=1e-15, d=9)`` arcsine row is known to
sit on a measurement noise floor and is reported but not asserted.
"""

from __future__ import annotations

from .resources import EstimationCase

PRESET_CASES: dict[str, EstimationCase] = {
    "paper-case-1": EstimationCase(
        n_bins=40, time_steps=2000, n_eps=42, degree=5, pieces=15,
        eps_rotation=1e-13, eps_estimation=9.9e-3, eps_c=1e-8,
    ),
    "paper-case-2": EstimationCase(
        n_bins=126, time_steps=2000, n_eps=46, degree=6, pieces=12,
        eps_rotation=1e-14, eps_estimation=9.9e-3, eps_c=1e-8,
    ),
    "paper-case-3": EstimationCase(
        n_bins=400, time_steps=2000, n_eps=49, degree=8, pieces=10,
        eps_rotation=1e-15, eps_estimation=9.9e-3, eps_c=1e-8,
    ),
    "paper-case-4": EstimationCase(
        n_bins=40, time_steps=20000, n_eps=46, degree=6, pieces=12,
        eps_rotation=1e-14, eps_estimation=9.9e-3, eps_c=1e-9,
    ),
    "paper-case-5": EstimationCase(
        n_bins=40, time_steps=2000, n_eps=49, degree=8, pieces=10,
        eps_rotation=1e-15, eps_estimation=9.9e-4, eps_c=1e-10,
    ),
}

# Expected (eps_max, t_count, t_depth, logical_qubits) per preset, with
# relative acceptance bands reflecting composition details the totals are
# not sensitive to.
EXPECTED_RESOURCES: dict[str, tuple[float, float, float, float]] = {
    "paper-case-1": (1.0e-2, 4.9e14, 3.5e14, 1.9e4),
    "paper-case-2": (1.0e-2, 6.1e15, 4.7e15, 2.5e4),
    "paper-case-3": (1.0e-2, 8.2e16, 6.5e16, 3.4e4),
    "paper-case-4": (1.0e-2, 6.2e15, 4.7e15, 1.8e5),
    "paper-case-5": (1.0e-3, 8.7e15, 6.9e15, 1.9e4),
}

RESOURCE_BANDS = {
    "eps_max": 0.20,
    "t_count": 0.15,
    "t_depth": 0.30,
    "logical_qubits": 0.10,
}

# (eps, degree, minimum piece count) rows of the reference table.
PIECEWISE_ARCSINE_TABLE: tuple[tuple[float, int, int], ...] = (
    (1e-12, 4, 43),
    (1e-12, 5, 15),
    (1e-12, 6, 9),
    (1e-13, 5, 25),
    (1e-13, 6, 12),
    (1e-13, 7, 7),
    (1e-14, 5, 35),
    (1e-14, 6, 18),
    (1e-14, 7, 10),
    (1e-14, 8, 7),
    (1e-15, 6, 27),
    (1e-15, 7, 13),
    (1e-15, 8, 10),
    (1e-15, 9, 11),
)


# Degree-monotonicity breaks at this row in the reference data (11 pieces
# after 10 at degree 8), a signature of fit noise; excluded from exact
# matching.
ARCSINE_NOISE_ROW: tuple[float, int] = (1e-15, 9)

ARCSINE_EXACT_MINIMUM = 10  # of the 13 asserted rows
ARCSINE_PIECE_SLACK = 2
