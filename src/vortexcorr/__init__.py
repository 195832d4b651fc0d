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
    forces,
    gradient,
    residual,
    transform,
)
from .equilibria import (
    AdlerMoserChain,
    DegenerateParametersError,
    NewtonSettings,
    RefinementResult,
    RootConvergenceError,
    adler_moser_chain,
    collinear_triple,
    config_from_adler_moser,
    refine_equilibrium,
    roots,
)
from .quadrature import QuadratureResult, QuadratureSpec
from .correlation import (
    CorrelationReport,
    MoebiusParams,
    correlation_A_eps,
    correlation_limit,
    default_epsilon_list,
    default_quadrature_spec,
    moebius_params,
    pair_integral,
)

__version__ = "0.24.0"

__all__ = [
    "__version__",
    "ConfigurationError",
    "Similarity",
    "Vortex",
    "VortexConfiguration",
    "energy",
    "forces",
    "gradient",
    "residual",
    "transform",
    "AdlerMoserChain",
    "DegenerateParametersError",
    "NewtonSettings",
    "RefinementResult",
    "RootConvergenceError",
    "adler_moser_chain",
    "collinear_triple",
    "config_from_adler_moser",
    "refine_equilibrium",
    "roots",
    "QuadratureResult",
    "QuadratureSpec",
    "CorrelationReport",
    "MoebiusParams",
    "correlation_A_eps",
    "correlation_limit",
    "default_epsilon_list",
    "default_quadrature_spec",
    "moebius_params",
    "pair_integral",
]
