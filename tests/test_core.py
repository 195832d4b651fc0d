import math
import warnings

import pytest

from vortexcorr import (
    ConfigurationError,
    Similarity,
    Vortex,
    VortexConfiguration,
    collinear_triple,
    energy,
    forces,
    gradient,
    residual,
    transform,
)

from conftest import random_configuration


def brute_force_energy(config):
    """Independent oracle: plain double loop over ordered pairs."""
    pos = config.positions
    circ = config.circulations
    total = 0.0
    for j in range(len(pos)):
        for k in range(len(pos)):
            if j != k:
                total += circ[j] * circ[k] * math.log(1.0 / abs(pos[j] - pos[k]))
    return total


def brute_force_force(config, j):
    """Independent oracle: direct substitution into the force sum."""
    pos = config.positions
    circ = config.circulations
    return sum(
        circ[j] * circ[k] / (pos[j] - pos[k]) for k in range(len(pos)) if k != j
    )


def fd_gradient(config, h):
    """Central finite differences of the energy, step h in each coordinate."""
    out = []
    for j in range(len(config)):
        parts = []
        for direction in (1.0, 1j):
            shifted = []
            for sign in (+1.0, -1.0):
                pairs = [
                    (v.position + (sign * h * direction if i == j else 0.0), v.circulation)
                    for i, v in enumerate(config.vortices)
                ]
                shifted.append(energy(VortexConfiguration.from_pairs(pairs)))
            parts.append((shifted[0] - shifted[1]) / (2.0 * h))
        out.append(complex(parts[0], parts[1]))
    return out


def test_energy_unit_distance_is_zero():
    config = VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)])
    assert energy(config) == 0.0


def test_energy_distance_e():
    config = VortexConfiguration.from_pairs([(0.0, 1.0), (math.e, 1.0)])
    assert energy(config) == pytest.approx(-2.0, abs=1e-14)


def test_energy_of_a_far_apart_pair_is_finite():
    # squaring a separation of 2e160 would overflow before the log
    config = VortexConfiguration.from_pairs([(-1e160, 1.0), (1e160, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert energy(config) == pytest.approx(-2.0 * math.log(2e160), rel=1e-15)


def test_positions_whose_distance_overflows_are_rejected():
    # the difference 2e308 overflows; so does the hypot of two finite ones
    for pairs in (
        [(-1e308, 1.0), (1e308, 1.0)],
        [(-1.2e308 + 0j, 1.0), (1.5e308j, 1.0)],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="too far apart"):
                VortexConfiguration.from_pairs(pairs)


def test_energy_collinear_triple_matches_oracle():
    config = collinear_triple()
    # only the (+-1, +-1) pair at distance 2 contributes: W = -2 log 2
    assert energy(config) == pytest.approx(-1.3862943611198906, abs=1e-15)
    assert energy(config) == pytest.approx(brute_force_energy(config), abs=1e-14)


def test_energy_matches_oracle_on_random_configs(rng):
    for _ in range(25):
        config = random_configuration(rng, int(rng.integers(2, 8)))
        assert energy(config) == pytest.approx(brute_force_energy(config), rel=1e-13, abs=1e-13)


def test_configuration_rejects_coincident_vortices():
    with pytest.raises(ConfigurationError, match="0 and 2 coincide"):
        VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0), (0.0, 1.0)])


def test_configuration_rejects_a_coincident_pair_alone():
    # the floor scales with the diameter, which is 0 here
    with pytest.raises(ConfigurationError, match="0 and 1 coincide"):
        VortexConfiguration.from_pairs([(0.5 + 0.5j, 1.0), (0.5 + 0.5j, -2.0)])


def test_configuration_names_first_close_pair_in_row_major_order():
    # (0, 3) and (1, 2) both fall below the floor; (0, 3) comes first
    with pytest.raises(ConfigurationError, match="vortices 0 and 3 "):
        VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (0.0, 2.0)])


def test_configuration_names_the_floor_for_close_vortices():
    # a nonzero distance at or below the floor is reported against the floor
    message = "separated by 1.000e-12, not above the floor 1.000e-09"
    with pytest.raises(ConfigurationError, match=message):
        VortexConfiguration.from_pairs([(0.0, 1.0), (1e-12, 1.0), (1.0, 1.0)])


def test_diameter_and_min_separation_match_python_abs(rng):
    # bit-exact against a scalar double loop: default radii and eps derive
    # from these, so correlation results depend on their last bit
    for _ in range(50):
        config = random_configuration(rng, int(rng.integers(2, 12)))
        pos = config.positions
        gaps = [abs(pos[j] - pos[k]) for j in range(len(pos)) for k in range(j + 1, len(pos))]
        assert config.diameter == max(gaps)
        assert config.min_separation == min(gaps)
    single = VortexConfiguration.from_pairs([(0.3 + 0.1j, 2.0)])
    assert single.diameter == 0.0
    assert single.min_separation == math.inf


def test_configuration_rejects_zero_circulation():
    with pytest.raises(ConfigurationError, match="circulation"):
        VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 0.0)])


def test_configuration_rejects_nonfinite():
    with pytest.raises(ConfigurationError):
        VortexConfiguration.from_pairs([(complex("nan"), 1.0)])
    with pytest.raises(ConfigurationError):
        VortexConfiguration.from_pairs([(0.0, math.inf)])


def test_configuration_requires_a_vortex():
    with pytest.raises(ConfigurationError):
        VortexConfiguration(())


def test_configuration_rejects_an_entry_that_is_not_a_vortex():
    with pytest.raises(ConfigurationError, match="entry 1 is not a Vortex"):
        VortexConfiguration((Vortex(0j, 1.0), (1.0, 1.0)))


def test_force_single_vortex_is_zero():
    config = VortexConfiguration.from_pairs([(0.3 + 0.1j, 2.0)])
    assert forces(config)[0] == 0j


def test_force_two_vortices():
    config = VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)])
    assert forces(config)[0] == pytest.approx(-1.0)
    assert forces(config)[1] == pytest.approx(1.0)


def test_collinear_triple_forces_vanish():
    config = collinear_triple()
    for j, f in enumerate(forces(config)):
        assert abs(f) < 1e-14
        assert f == brute_force_force(config, j)


def test_force_matches_oracle_on_random_configs(rng):
    for _ in range(25):
        config = random_configuration(rng, int(rng.integers(2, 8)))
        for j, f in enumerate(forces(config)):
            assert f == pytest.approx(brute_force_force(config, j), rel=1e-13)


@pytest.mark.parametrize(
    "pairs, named",
    [
        # d_j d_k / (a_j - a_k) = 1e312
        ([(0.0, 1e125), (1e-62, 1e125)], "vortices 0 and 1"),
        # d_1 d_2 = 1e320 overflows before the division; the pairs with vortex 0 do not
        ([(0.0, 1.0), (5.0, 1e160), (6.0, 1e160)], "vortices 1 and 2"),
    ],
)
def test_force_out_of_range_names_its_pair_without_warnings(pairs, named):
    config = VortexConfiguration.from_pairs(pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"force term of {named} overflows"):
            forces(config)


def test_gradient_two_vortex_values():
    config = VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)])
    assert gradient(config) == [2.0 + 0j, -2.0 + 0j]


def test_gradient_matches_finite_differences(rng):
    for _ in range(8):
        config = random_configuration(rng, int(rng.integers(2, 7)))
        h = 1e-6 * config.diameter
        analytic = gradient(config)
        numeric = fd_gradient(config, h)
        num = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(analytic, numeric)))
        den = math.sqrt(sum(abs(a) ** 2 for a in analytic))
        assert num / den < 1e-6


def test_gradient_zero_at_equilibrium():
    assert all(abs(g) < 1e-13 for g in gradient(collinear_triple()))


def test_residual_examples():
    assert residual(collinear_triple()) < 1e-14
    config = VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)])
    assert residual(config) == pytest.approx(1.0)


def test_residual_scaling_law(rng):
    for s in (2.0, 3.5, 0.25):
        config = random_configuration(rng, 5)
        scaled = transform(config, Similarity(scale=s))
        assert residual(scaled) == pytest.approx(residual(config) / s, rel=1e-12)


def test_is_equilibrium():
    assert residual(collinear_triple()) <= 1e-10
    config = VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)])
    assert residual(config) > 1e-10
    single = VortexConfiguration.from_pairs([(0.0, 1.0)])
    assert residual(single) <= 1e-300


def test_transform_identity():
    config = collinear_triple()
    assert transform(config, Similarity()) == config


def test_transform_scaling_keeps_equilibrium():
    scaled = transform(collinear_triple(), Similarity(scale=2.0))
    assert [v.position for v in scaled.vortices] == [-2.0 + 0j, 0j, 2.0 + 0j]
    assert residual(scaled) < 1e-14


def test_transform_translation_preserves_energy():
    config = collinear_triple()
    moved = transform(config, Similarity(translation=5.0 + 5.0j))
    assert energy(moved) == pytest.approx(energy(config), abs=1e-13)


def test_similarity_validation():
    with pytest.raises(ValueError):
        Similarity(scale=0.0)
    with pytest.raises(ValueError):
        Similarity(scale=-2.0)
    for rotation in (math.inf, math.nan):
        with pytest.raises(ValueError, match="rotation must be finite"):
            Similarity(rotation=rotation)
    for translation in (complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="translation must be finite"):
            Similarity(translation=translation)


def test_translation_invariance_of_energy(rng):
    for _ in range(100):
        config = random_configuration(rng, int(rng.integers(2, 6)))
        t = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        moved = transform(config, Similarity(translation=t))
        assert energy(moved) == pytest.approx(energy(config), abs=1e-11, rel=1e-12)


def test_exact_scaling_law_of_energy(rng):
    # W(s c) = W(c) - log(s) * sum_{ordered j != k} d_j d_k
    for _ in range(20):
        config = random_configuration(rng, int(rng.integers(2, 6)))
        s = float(rng.uniform(0.2, 5.0))
        d = config.circulations
        pair_sum = sum(d) ** 2 - sum(x * x for x in d)
        expected = energy(config) - math.log(s) * pair_sum
        assert energy(transform(config, Similarity(scale=s))) == pytest.approx(
            expected, rel=1e-12, abs=1e-12
        )


def test_force_antisymmetry(rng):
    for _ in range(50):
        config = random_configuration(rng, int(rng.integers(2, 8)))
        f = forces(config)
        total = sum(f)
        scale = sum(abs(x) for x in f)
        assert abs(total) <= 1e-13 * max(scale, 1.0)


def test_energy_and_forces_order_insensitive(rng):
    # compensated pair sums make results bit-identical under any reordering
    config = random_configuration(rng, 7)
    order = list(range(7))
    rng.shuffle(order)
    shuffled = VortexConfiguration.from_pairs(
        [(config.positions[i], config.circulations[i]) for i in order]
    )
    assert energy(shuffled) == energy(config)
    for new_j, old_j in enumerate(order):
        assert forces(shuffled)[new_j] == forces(config)[old_j]


def test_equilibrium_invariance_under_similarity(rng):
    config = collinear_triple()
    for _ in range(10):
        s = float(rng.uniform(0.1, 10.0))
        sim = Similarity(
            scale=s,
            rotation=float(rng.uniform(0, 2 * math.pi)),
            translation=complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
        )
        # the residual scales by 1/s, so the tolerance must follow
        assert residual(transform(config, sim)) <= 1e-12 / s
