import math

import numpy as np
import pytest

from vortexcorr import (
    VortexConfiguration,
    adler_moser_chain,
    collinear_triple,
    config_from_adler_moser,
)
from vortexcorr.rational import integrand_values

from conftest import random_configuration, random_point_clear_of
from oracles import G_double_sum, G_partial_fractions, cross_term, integrand


@pytest.fixture
def two_vortices():
    return VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)])


@pytest.fixture(scope="module")
def cube_roots():
    return config_from_adler_moser(adler_moser_chain(2, [-1.0]))


def test_G_single_vortex_is_zero():
    config = VortexConfiguration.from_pairs([(0.5j, 3.0)])
    assert G_double_sum(config, 2.0) == 0j
    assert G_partial_fractions(config, 2.0) == 0j


def test_G_two_vortices_at_two(two_vortices):
    assert G_double_sum(two_vortices, 2.0) == pytest.approx(1.0)
    assert G_partial_fractions(two_vortices, 2.0) == pytest.approx(1.0)


def test_G_vanishes_on_equilibrium(cube_roots, rng):
    for _ in range(100):
        z = random_point_clear_of(rng, cube_roots, box=10.0, clearance=0.1)
        assert abs(G_double_sum(cube_roots, z)) < 1e-12


def test_G_not_zero_off_equilibrium(two_vortices, rng):
    # a configuration with residual 1 shows a sizable G somewhere
    assert any(
        abs(G_double_sum(two_vortices, random_point_clear_of(rng, two_vortices)))
        > 1e-3
        for _ in range(50)
    )


def test_partial_fraction_identity(rng):
    for _ in range(20):
        config = random_configuration(rng, int(rng.integers(2, 9)))
        for _ in range(20):
            z = random_point_clear_of(rng, config)
            ds = G_double_sum(config, z)
            pf = G_partial_fractions(config, z)
            assert abs(ds - pf) <= 1e-10 * max(abs(ds), abs(pf))


def integrand_at(config, z):
    """The library's vectorised integrand at one point."""
    return float(integrand_values(config, np.array([z]))[0])


def test_integrand_single_vortex_vanishes(rng):
    config = VortexConfiguration.from_pairs([(0.2 - 0.3j, 1.7)])
    zs = np.array([random_point_clear_of(rng, config) for _ in range(20)])
    assert (integrand_values(config, zs) == 0.0).all()


def test_integrand_two_vortices_midpoint(two_vortices):
    # the field cancels at the midpoint, leaving -(16 + 16)
    assert integrand_at(two_vortices, 0.5) == -32.0


def test_cross_term_values(two_vortices):
    single = VortexConfiguration.from_pairs([(0.0, 1.0)])
    assert cross_term(single, 2.0) == 0.0
    # T_1 = T_2 = 4 at the midpoint: ordered sum is 2 * 16
    assert cross_term(two_vortices, 0.5) == 32.0


def test_nonequilibrium_counterexample(two_vortices):
    # integrand and cross term differ by sign here, witnessing that the
    # pointwise identity needs an equilibrium
    assert integrand_at(two_vortices, 0.5) == -32.0
    assert cross_term(two_vortices, 0.5) == 32.0


def assert_equilibrium_identity(config, rng):
    zs = [random_point_clear_of(rng, config) for _ in range(100)]
    for z, a in zip(zs, integrand_values(config, np.array(zs))):
        b = cross_term(config, z)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)


def test_equilibrium_identity_collinear(rng):
    assert_equilibrium_identity(collinear_triple(), rng)


def test_equilibrium_identity_cube_roots(cube_roots, rng):
    assert_equilibrium_identity(cube_roots, rng)


def test_integrand_far_field_decay(two_vortices):
    # |z|^4 * integrand -> (sum d)^4 - sum d^4 = 16 - 2
    coefficient = 14.0
    for radius, tol in ((1e3, 1e-2), (1e4, 1e-3)):
        z = radius * complex(math.cos(0.7), math.sin(0.7))
        value = abs(z) ** 4 * integrand_at(two_vortices, z)
        assert abs(value - coefficient) / coefficient < tol


@pytest.mark.parametrize("n", [2, 3, 8, 9, 16])
def test_vectorised_matches_scalar(rng, n):
    # non-unit circulations of both signs: with |d| = 1 a d^2 in place of
    # d^4 would go unnoticed
    positions = random_configuration(rng, n).positions
    signs = [(-1.0) ** k for k in range(n)]
    circulations = rng.uniform(0.5, 2.0, size=n) * signs
    config = VortexConfiguration.from_pairs(list(zip(positions, circulations)))
    zs = np.array([random_point_clear_of(rng, config) for _ in range(40)])
    vals = integrand_values(config, zs)
    assert vals.shape == zs.shape
    for z, v in zip(zs, vals):
        assert v == pytest.approx(integrand(config, complex(z)), rel=1e-12, abs=1e-300)
    # 0-d and 2-D points come back in their own shape, with the same values
    point = integrand_values(config, zs[0])
    assert point.shape == () and point == vals[0]
    grid = integrand_values(config, zs.reshape(5, 8))
    assert grid.shape == (5, 8) and np.array_equal(grid.ravel(), vals)
