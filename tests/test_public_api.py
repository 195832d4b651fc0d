"""The public surface is pinned: any change to it shows up as a diff here."""

import re
from pathlib import Path

import vortexcorr
import vortexcorr.quadrature
import vortexcorr.rational

PUBLIC_NAMES = [
    "AdlerMoserChain",
    "ConfigurationError",
    "CorrelationReport",
    "DegenerateParametersError",
    "MoebiusParams",
    "NewtonSettings",
    "QuadratureResult",
    "QuadratureSpec",
    "RefinementResult",
    "RootConvergenceError",
    "Similarity",
    "Vortex",
    "VortexConfiguration",
    "__version__",
    "adler_moser_chain",
    "collinear_triple",
    "config_from_adler_moser",
    "correlation_A_eps",
    "correlation_limit",
    "cross_pair_truncated",
    "default_epsilon_list",
    "default_quadrature_spec",
    "energy",
    "forces",
    "gradient",
    "moebius_params",
    "pair_integral",
    "refine_equilibrium",
    "residual",
    "roots",
    "transform",
]


def test_public_surface_is_pinned():
    assert sorted(vortexcorr.__all__) == PUBLIC_NAMES
    for name in vortexcorr.__all__:
        assert hasattr(vortexcorr, name), name
    assert vortexcorr.rational.__all__ == ["integrand_values"]
    assert vortexcorr.quadrature.__all__ == [
        "QuadratureSpec",
        "QuadratureResult",
        "integrate_excised_disk",
    ]


def test_package_version_matches_pyproject():
    # replay's "bit-exact only within a version" relies on the two agreeing;
    # a regex, because Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == vortexcorr.__version__
