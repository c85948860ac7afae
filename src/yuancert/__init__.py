"""Certificates for max-of-quadratic-forms nonnegativity on first-order cones.

The package decides, for a family of symmetric matrices and a cone that
is a subspace plus an optional ray, whether some convex combination of
the matrices is positive semidefinite on the cone, and constructs either
the combination or a direction refuting it. The same machinery yields
single-multiplier second-order optimality certificates for nonlinear
programs whose multiplier-vertex Hessians form a set of rank at most 2,
and for a class of quadratically-constrained problems.
"""

from .cone import FirstOrderCone, cone_contains, restrict, span_basis
from .errors import (
    ConeNotCriticalError,
    DegenerateBasisError,
    EmptyMultiplierSetError,
    HypothesisViolatedError,
    InfeasibleError,
    InputError,
    MfcqFailedError,
    NotInSpanError,
    NumericalFailureError,
    UnboundedError,
)
from .lp import lp_solve
from .nlp import (
    KKTData,
    MultiplierPoint,
    SecondOrderResult,
    check_mfcq,
    critical_cone_lineality,
    lagrangian_hessian,
    multiplier_vertices,
    second_order_certificate,
)
from .numeric_core import (
    MatrixFamily,
    MatrixSetRank,
    Spectrum,
    SymMatrix,
    express_in_basis,
    matrix_set_rank,
    min_eigenvalue,
    numerical_rank,
    quad_form,
    sym_eigen,
)
from .oracle import (
    NoWitnessFound,
    Witness,
    sample_max_nonneg,
    simplex_grid_search,
)
from .quadprob import (
    Delta,
    Equal,
    JacobianRankReduction,
    JacobianRankViolation,
    NotDependent,
    QuadProblem,
    RankIncreaseCheck,
    extract_dependence,
    jacobian_at,
    jacobian_rank_reduce,
    rank_increase_check,
    quad_certificate,
    to_kkt,
)
from .yuan import (
    CertificateReport,
    Certified,
    HypothesisViolated,
    Refuted,
    SimplexWeights,
    certify_rank2,
    make_weights,
    yuan_two,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "Certified",
    "ConeNotCriticalError",
    "DegenerateBasisError",
    "Delta",
    "EmptyMultiplierSetError",
    "Equal",
    "FirstOrderCone",
    "HypothesisViolated",
    "HypothesisViolatedError",
    "InfeasibleError",
    "InputError",
    "KKTData",
    "JacobianRankReduction",
    "JacobianRankViolation",
    "MatrixFamily",
    "MatrixSetRank",
    "MfcqFailedError",
    "MultiplierPoint",
    "NoWitnessFound",
    "NotDependent",
    "NotInSpanError",
    "NumericalFailureError",
    "QuadProblem",
    "RankIncreaseCheck",
    "Refuted",
    "SecondOrderResult",
    "SimplexWeights",
    "Spectrum",
    "SymMatrix",
    "UnboundedError",
    "Witness",
    "certify_rank2",
    "check_mfcq",
    "cone_contains",
    "critical_cone_lineality",
    "express_in_basis",
    "extract_dependence",
    "jacobian_at",
    "lagrangian_hessian",
    "jacobian_rank_reduce",
    "lp_solve",
    "make_weights",
    "matrix_set_rank",
    "min_eigenvalue",
    "multiplier_vertices",
    "numerical_rank",
    "quad_form",
    "rank_increase_check",
    "restrict",
    "sample_max_nonneg",
    "second_order_certificate",
    "simplex_grid_search",
    "span_basis",
    "sym_eigen",
    "quad_certificate",
    "to_kkt",
    "yuan_two",
]
