"""Worst-case pricing for claims on finite-state chains with generator uncertainty.

The package follows one pipeline: build rate matrices (:mod:`.generators`),
turn an uncertainty interval into a finite operator family, push a payoff
through either the dyadic flow-envelope (:mod:`.semigroup`) or a nonlinear
ODE solver (:mod:`.ode`), and read off upper/lower price curves
(:mod:`.pricing`).  :mod:`.cli` exposes the same pipeline as a command-line
tool.
"""

from .linalg import (
    AffineFlow,
    affine_flow,
    euler_product_exp,
    mat_exp,
    op_norm_inf,
)
from .generators import (
    GeneratorFamily,
    InvalidGeneratorError,
    InvalidRateMatrixError,
    PmpReport,
    RateMatrixViolation,
    StateGrid,
    apply_q_operator,
    build_drift,
    build_laplacian,
    check_pmp,
    interval_generator,
    rate_matrix_violations,
    read_matrix_file,
    read_vector_file,
    validate_rate_matrix,
    write_matrix_file,
)
from .semigroup import (
    Control,
    ControlStep,
    EnvelopeDiagnostics,
    EnvelopeLevel,
    control_evaluate,
    envelope,
    envelope_pair,
    envelope_refined,
    extract_worst_case_control,
    iterate_partition,
    one_step,
    one_step_argmax,
)
from .ode import Trajectory, solve_euler, solve_rk4
from .pricing import (
    METHODS,
    ComparisonReport,
    Payoff,
    PriceBounds,
    compare_methods,
    linear_reference,
    payoff_bull,
    payoff_butterfly,
    payoff_custom,
    price_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFlow",
    "affine_flow",
    "euler_product_exp",
    "mat_exp",
    "op_norm_inf",
    "GeneratorFamily",
    "InvalidGeneratorError",
    "InvalidRateMatrixError",
    "PmpReport",
    "RateMatrixViolation",
    "StateGrid",
    "apply_q_operator",
    "build_drift",
    "build_laplacian",
    "check_pmp",
    "interval_generator",
    "rate_matrix_violations",
    "read_matrix_file",
    "read_vector_file",
    "validate_rate_matrix",
    "write_matrix_file",
    "Control",
    "ControlStep",
    "EnvelopeDiagnostics",
    "EnvelopeLevel",
    "control_evaluate",
    "envelope",
    "envelope_pair",
    "envelope_refined",
    "extract_worst_case_control",
    "iterate_partition",
    "one_step",
    "one_step_argmax",
    "Trajectory",
    "solve_euler",
    "solve_rk4",
    "METHODS",
    "ComparisonReport",
    "Payoff",
    "PriceBounds",
    "compare_methods",
    "linear_reference",
    "payoff_bull",
    "payoff_butterfly",
    "payoff_custom",
    "price_bounds",
]
