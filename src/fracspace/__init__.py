"""Weighted function spaces on the line and half line, numerically.

Grids and power weights, Fourier multipliers and smoothness norms, the
fractional Laplacian in spectral and difference-quotient form, reflection
extension and trace operators, and the resolvent calculus of the first
derivative on the weighted half line, together with a verification CLI
(``fracspace``) that exercises the package's analytic guarantees.
"""

from .grid import (
    AdmissibilityError,
    DegenerateInputError,
    FULL_LINE,
    Grid,
    GridFunction,
    GridMismatchError,
    HALF_LINE,
    PowerWeight,
    ResolutionError,
    dual_exponent,
    dual_pairing,
    mollify,
    weighted_lp_norm,
)
from .fourier import (
    apply_multiplier,
    bessel_potential,
    fractional_laplacian_spectral,
    hsp_norm,
    spectral_derivative,
    wkp_norm,
    wkp_seminorm,
)
from .kernels import (
    bessel_kernel,
    hardy_hilbert_apply,
    schur_constant,
)
from .singular import (
    c_sigma,
    fractional_laplacian_singular,
)
from .halfline import (
    ReflectionCoefficients,
    TraceVector,
    coextend,
    factor_norm_upper,
    gn_check,
    hardy_embedding_check,
    indicator_multiply,
    project_H0,
    reflect_extend,
    reflect_extend_dual,
    restrict_minus,
    restrict_plus,
    solve_reflection_coefficients,
    support_projection,
    trace,
    zero_extend,
)
from .opcalc import (
    DIRICHLET,
    MINUS,
    HalfLineOperator,
    SectorProbe,
    domain_norm_ratio,
    fractional_power,
    integration_by_parts_check,
    resolvent,
    riemann_liouville,
    sectoriality_probe,
)
from .harness import SuiteConfig, SuiteReport, generate_test_family, run_suite

__all__ = [
    "AdmissibilityError", "DegenerateInputError", "DIRICHLET", "FULL_LINE",
    "Grid", "GridFunction", "GridMismatchError", "HALF_LINE",
    "HalfLineOperator", "MINUS", "PowerWeight",
    "ReflectionCoefficients", "ResolutionError", "SectorProbe", "SuiteConfig",
    "SuiteReport", "TraceVector", "apply_multiplier", "bessel_kernel",
    "bessel_potential", "c_sigma", "coextend", "domain_norm_ratio",
    "dual_exponent", "dual_pairing", "factor_norm_upper",
    "fractional_laplacian_singular", "fractional_laplacian_spectral",
    "fractional_power", "generate_test_family", "gn_check",
    "hardy_embedding_check", "hardy_hilbert_apply", "hsp_norm",
    "indicator_multiply", "integration_by_parts_check", "mollify",
    "project_H0", "reflect_extend", "reflect_extend_dual", "resolvent",
    "restrict_minus", "restrict_plus", "riemann_liouville", "run_suite",
    "schur_constant", "sectoriality_probe", "solve_reflection_coefficients",
    "spectral_derivative", "support_projection", "trace", "weighted_lp_norm",
    "wkp_norm", "wkp_seminorm", "zero_extend",
]

__version__ = "0.1.0"
