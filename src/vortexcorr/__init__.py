"""Point-vortex equilibria in the plane and their correlation coefficient.

The library models configurations of point vortices, evaluates their
logarithmic pair energy and forces, constructs equilibria (symmetric
families, Adler-Moser polynomial chains, Newton refinement), and estimates
the correlation coefficient as a principal-value integral, reproducing its
vanishing at equilibria.
"""

from .core import (
    ConfigurationError,
    Similarity,
    Vortex,
    VortexConfiguration,
    energy,
    force,
    forces,
    gradient,
    is_equilibrium,
    residual,
    transform,
)
from .rational import (
    EvaluationPoint,
    PoleEvaluationError,
    cross_term,
    eval_G_double_sum,
    eval_G_partial_fractions,
    eval_T,
    integrand,
)
from .equilibria import (
    AdlerMoserChain,
    DegenerateParametersError,
    NearMultipleRootWarning,
    NewtonSettings,
    Polynomial,
    RefinementResult,
    RootConvergenceError,
    adler_moser_chain,
    collinear_triple,
    config_from_adler_moser,
    refine_equilibrium,
    roots,
)
from .quadrature import DiskExcision, QuadratureResult, QuadratureSpec
from .correlation import (
    CorrelationReport,
    MoebiusParams,
    correlation_A_eps,
    correlation_limit,
    cross_pair_truncated,
    default_epsilon_list,
    default_quadrature_spec,
    moebius_params,
    pair_integral,
)

__version__ = "0.3.1"

__all__ = [
    "__version__",
    "ConfigurationError",
    "Similarity",
    "Vortex",
    "VortexConfiguration",
    "energy",
    "force",
    "forces",
    "gradient",
    "is_equilibrium",
    "residual",
    "transform",
    "EvaluationPoint",
    "PoleEvaluationError",
    "cross_term",
    "eval_G_double_sum",
    "eval_G_partial_fractions",
    "eval_T",
    "integrand",
    "AdlerMoserChain",
    "DegenerateParametersError",
    "NearMultipleRootWarning",
    "NewtonSettings",
    "Polynomial",
    "RefinementResult",
    "RootConvergenceError",
    "adler_moser_chain",
    "collinear_triple",
    "config_from_adler_moser",
    "refine_equilibrium",
    "roots",
    "DiskExcision",
    "QuadratureResult",
    "QuadratureSpec",
    "CorrelationReport",
    "MoebiusParams",
    "correlation_A_eps",
    "correlation_limit",
    "cross_pair_truncated",
    "default_epsilon_list",
    "default_quadrature_spec",
    "moebius_params",
    "pair_integral",
]
