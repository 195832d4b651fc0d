import cmath
import json
import math

import numpy as np
import pytest

from vortexcorr import VortexConfiguration


# an equilibrium with generic real circulations (diameter 14.2), from a
# Gauss-Newton solve of v_j = sum_{k != j} d_k/(a_j - a_k) = 0 in positions
# and circulations together; kept exactly as found
GENERIC_N5 = json.loads(
    '{"vortices": ['
    '{"x": 7.011786438118802, "y": -5.579557592950711, "d": 1.9181449643497057}, '
    '{"x": 1.5947710165322673, "y": 2.313332075971045, "d": -0.26272407055998614}, '
    '{"x": -1.2496325214903738, "y": 4.244544261312464, "d": 0.6471437454534819}, '
    '{"x": -6.428002150573331, "y": -0.9317608349728624, "d": 0.6112243327058589}, '
    '{"x": -2.2483475710131136, "y": -0.7505270345756404, "d": -0.677720994449256}]}'
)


def random_configuration(rng, n, box=2.5, min_sep=0.4) -> VortexConfiguration:
    """Well-separated random configuration with |d| in [0.5, 2]."""
    while True:
        pts = rng.uniform(-box, box, size=(n, 2))
        zs = pts[:, 0] + 1j * pts[:, 1]
        if all(abs(zs[i] - zs[j]) > min_sep for i in range(n) for j in range(i + 1, n)):
            break
    ds = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return VortexConfiguration.from_pairs(list(zip(zs, ds)))


def polygon_plus_centre(sides) -> VortexConfiguration:
    """Unit vortices at the ``sides``-th roots of unity and ``-(sides - 1)/2``
    at the origin: each vertex feels ``(sides - 1)/(2 a)`` from the others."""
    ring = [(cmath.exp(2j * math.pi * k / sides), 1.0) for k in range(sides)]
    return VortexConfiguration.from_pairs(ring + [(0j, -(sides - 1) / 2)])


def random_point_clear_of(rng, config, box=4.0, clearance=0.1) -> complex:
    """Random plane point keeping its distance from every vortex."""
    while True:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if min(abs(z - a) for a in config.positions) > clearance:
            return z


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
