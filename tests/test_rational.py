import math

import numpy as np
import pytest

from vortexcorr import (
    EvaluationPoint,
    PoleEvaluationError,
    VortexConfiguration,
    adler_moser_chain,
    collinear_triple,
    config_from_adler_moser,
    cross_term,
    eval_G_double_sum,
    eval_G_partial_fractions,
    eval_T,
    integrand,
)
from vortexcorr.rational import exclusion_floor, integrand_values

from conftest import random_configuration, random_point_clear_of


@pytest.fixture
def two_vortices():
    return VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)])


@pytest.fixture(scope="module")
def cube_roots():
    return config_from_adler_moser(adler_moser_chain(2, [-1.0]))


def test_G_single_vortex_is_zero():
    config = VortexConfiguration.from_pairs([(0.5j, 3.0)])
    assert eval_G_double_sum(config, 2.0) == 0j
    assert eval_G_partial_fractions(config, 2.0) == 0j


def test_G_two_vortices_at_two(two_vortices):
    assert eval_G_double_sum(two_vortices, 2.0) == pytest.approx(1.0)
    assert eval_G_partial_fractions(two_vortices, 2.0) == pytest.approx(1.0)


def test_G_vanishes_on_equilibrium(cube_roots, rng):
    for _ in range(100):
        z = random_point_clear_of(rng, cube_roots, box=10.0, clearance=0.1)
        assert abs(eval_G_double_sum(cube_roots, z)) < 1e-12


def test_G_not_zero_off_equilibrium(two_vortices, rng):
    # a configuration with residual 1 shows a sizable G somewhere
    assert any(
        abs(eval_G_double_sum(two_vortices, random_point_clear_of(rng, two_vortices)))
        > 1e-3
        for _ in range(50)
    )


def test_partial_fraction_identity(rng):
    for _ in range(20):
        config = random_configuration(rng, int(rng.integers(2, 9)))
        for _ in range(20):
            z = random_point_clear_of(rng, config)
            ds = eval_G_double_sum(config, z)
            pf = eval_G_partial_fractions(config, z)
            assert abs(ds - pf) <= 1e-10 * max(abs(ds), abs(pf))


def test_G_raises_at_pole(two_vortices):
    with pytest.raises(PoleEvaluationError):
        eval_G_double_sum(two_vortices, 1.0)
    with pytest.raises(PoleEvaluationError):
        eval_G_partial_fractions(two_vortices, 0.0)


def test_evaluation_point_validation(two_vortices):
    EvaluationPoint(0.5 + 0.5j, 0.1).require_clear_of(two_vortices)
    with pytest.raises(PoleEvaluationError):
        EvaluationPoint(0.95, 0.1).require_clear_of(two_vortices)
    with pytest.raises(ValueError):
        EvaluationPoint(0.5, 0.0).require_clear_of(two_vortices)
    assert 0 < exclusion_floor(two_vortices) < 1e-10


def test_T_values():
    config = VortexConfiguration.from_pairs([(0.0, 1.0), (3.0, 2.0)])
    assert eval_T(config, 0, 1.0) == pytest.approx(1.0)
    # d = 2 at the origin evaluated at 2i: 4 / (2i)^2 = -1
    shifted = VortexConfiguration.from_pairs([(0.0, 2.0), (3.0, 1.0)])
    assert eval_T(shifted, 0, 2.0j) == pytest.approx(-1.0)


def test_T_modulus_oracle(rng):
    config = random_configuration(rng, 4)
    for _ in range(30):
        z = random_point_clear_of(rng, config)
        j = int(rng.integers(0, 4))
        expected = config.circulations[j] ** 2 / abs(z - config.positions[j]) ** 2
        assert abs(eval_T(config, j, z)) == pytest.approx(expected, rel=1e-12)


def test_T_errors(two_vortices):
    with pytest.raises(IndexError):
        eval_T(two_vortices, 5, 2.0)
    with pytest.raises(PoleEvaluationError):
        eval_T(two_vortices, 0, 0.0)


def test_integrand_single_vortex_vanishes(rng):
    config = VortexConfiguration.from_pairs([(0.2 - 0.3j, 1.7)])
    for _ in range(20):
        z = random_point_clear_of(rng, config)
        assert integrand(config, z) == 0.0


def test_integrand_two_vortices_midpoint(two_vortices):
    # the field cancels at the midpoint, leaving -(16 + 16)
    assert integrand(two_vortices, 0.5) == -32.0


def test_cross_term_values(two_vortices):
    single = VortexConfiguration.from_pairs([(0.0, 1.0)])
    assert cross_term(single, 2.0) == 0.0
    # T_1 = T_2 = 4 at the midpoint: ordered sum is 2 * 16
    assert cross_term(two_vortices, 0.5) == 32.0


def test_nonequilibrium_counterexample(two_vortices):
    # integrand and cross term differ by sign here, witnessing that the
    # pointwise identity needs an equilibrium
    assert integrand(two_vortices, 0.5) == -32.0
    assert cross_term(two_vortices, 0.5) == 32.0


def test_equilibrium_identity_collinear(rng):
    config = collinear_triple()
    for _ in range(100):
        z = random_point_clear_of(rng, config)
        a = integrand(config, z)
        b = cross_term(config, z)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)


def test_equilibrium_identity_cube_roots(cube_roots, rng):
    for _ in range(100):
        z = random_point_clear_of(rng, cube_roots)
        a = integrand(cube_roots, z)
        b = cross_term(cube_roots, z)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)


def test_integrand_far_field_decay(two_vortices):
    # |z|^4 * integrand -> (sum d)^4 - sum d^4 = 16 - 2
    coefficient = 14.0
    for radius, tol in ((1e3, 1e-2), (1e4, 1e-3)):
        z = radius * complex(math.cos(0.7), math.sin(0.7))
        value = abs(z) ** 4 * integrand(two_vortices, z)
        assert abs(value - coefficient) / coefficient < tol


def test_vectorised_matches_scalar(rng):
    config = random_configuration(rng, 5)
    zs = np.array([random_point_clear_of(rng, config) for _ in range(40)])
    vals = integrand_values(config, zs)
    for z, v in zip(zs, vals):
        assert v == pytest.approx(integrand(config, complex(z)), rel=1e-12, abs=1e-300)
