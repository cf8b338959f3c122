"""Solver, quantum-dynamics simulator, and resource model for the
stochastic collision-coalescence master equation."""

from .states import (
    KernelSpec,
    MassDistribution,
    TransitionTable,
    apply_transition,
    build_transition_table,
    enumerate_states,
    partition_count_asymptotic,
    partition_count_exact,
    transition_rate,
)
from .master import (
    ProbabilityTable,
    SsaConfig,
    evolve,
    expected_count,
    expected_counts,
)
from .division import (
    HistoryBranch,
    amplitude_expectation,
    divide_step,
    history_label_semantics_check,
    merge_branches,
    run_merged,
    run_tree,
)
from .arcsine import PiecewisePolynomial, chebyshev_fit, linf_error, min_pieces, verify
from .fixedpoint import (
    FixedPointValue,
    QuantizedArcsine,
    build_quantized_arcsine,
    emulate_up_pipeline,
    estimate_eps_calculation,
    fp_arcsin_pp,
    fp_div,
    fp_encode,
    fp_mul_const_int_ui,
    fp_mul_int,
    fp_sqrt,
    fp_sub,
)
from .resources import (
    EstimationCase,
    GateCost,
    ResourceReport,
    error_budget,
    estimate_case,
    oracle_iterations,
    primitive_cost,
    register_counts,
    scaling_report,
)
from .presets import EXPECTED_RESOURCES, PIECEWISE_ARCSINE_TABLE, PRESET_CASES, choose_config

__version__ = "0.1.0"
