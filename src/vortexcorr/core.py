"""Planar point-vortex configurations and their logarithmic pair energy.

Positions live in the complex plane (``x + iy``); circulations are nonzero
reals.  The energy uses the ordered-pair convention: the sum runs over all
ordered pairs ``j != k``, so every unordered pair is counted twice.  Under
that convention the energy gradient with respect to the j-th position is
``-2 * conj(f_j)`` where ``f_j`` is the j-th force returned by :func:`forces`.

Every pair quantity reads one cached, read-only table per configuration:
the N x N differences ``a_j - a_k`` and the distances derived from them.
Validation, ``diameter``, ``min_separation``, :func:`energy`, :func:`forces`
and the Newton Jacobian in :mod:`vortexcorr.equilibria` all use it.
Distances are ``np.hypot(re, im)``, which rounds exactly like Python's
complex ``abs`` (``np.abs`` does not), so every radius derived from them
keeps its bits.  The energy and each force are compensated sums
(``math.fsum``) of their pair terms, so their bits do not depend on the
order of the vortices.

Everything here is an immutable value or a pure function; concurrent use
needs no synchronisation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "CIRCULATION_FLOOR",
    "SEPARATION_FLOOR_SCALE",
    "ConfigurationError",
    "Vortex",
    "VortexConfiguration",
    "Similarity",
    "energy",
    "forces",
    "gradient",
    "residual",
    "transform",
]

# Circulations with |d| below this are rejected as effectively zero.
CIRCULATION_FLOOR = 1e-12

# Vortices no farther apart than this fraction of the diameter are rejected:
# the energy and forces blow up and quadrature excision disks cannot separate
# the points.  Relative to the diameter alone, so the rule is scale-free.
SEPARATION_FLOOR_SCALE = 1e-9


class ConfigurationError(ValueError):
    """A vortex configuration violates one of its invariants."""


@dataclass(frozen=True)
class Vortex:
    """A point vortex: a plane position carrying a nonzero real circulation."""

    position: complex
    circulation: float


@dataclass(frozen=True)
class VortexConfiguration:
    """Ordered collection of pairwise-distinct point vortices.

    Invariants (checked on construction):

    * at least one vortex, all coordinates and pairwise distances finite;
    * every ``|circulation| >= CIRCULATION_FLOOR``;
    * the minimum pairwise distance exceeds
      ``SEPARATION_FLOOR_SCALE * diameter``.
    """

    vortices: tuple[Vortex, ...]

    def __post_init__(self) -> None:
        if not self.vortices:
            raise ConfigurationError("a configuration needs at least one vortex")
        for j, v in enumerate(self.vortices):
            if not isinstance(v, Vortex):
                raise ConfigurationError(f"entry {j} is not a Vortex")
            if not cmath.isfinite(v.position):
                raise ConfigurationError(f"vortex {j} has a non-finite position")
            if not math.isfinite(v.circulation):
                raise ConfigurationError(f"vortex {j} has a non-finite circulation")
            if abs(v.circulation) < CIRCULATION_FLOOR:
                raise ConfigurationError(
                    f"vortex {j} has circulation {v.circulation!r}; "
                    f"|d| must be at least {CIRCULATION_FLOOR}"
                )
        # builds the pair tables; a distance that overflows is rejected here
        with np.errstate(over="ignore"):
            diameter = self.diameter
        if not math.isfinite(diameter):
            j, k = np.argwhere(np.isinf(self._distances))[0]
            raise ConfigurationError(
                f"vortices {j} and {k} are too far apart: their distance "
                "overflows the floating-point range"
            )
        floor = SEPARATION_FLOOR_SCALE * diameter
        # at or below: two coincident vortices alone have diameter 0
        close = np.argwhere(np.triu(self._distances <= floor, 1))
        if len(close):
            j, k = close[0]  # the first pair in row-major (j < k) order
            distance = self._distances[j, k]
            if distance == 0.0:
                raise ConfigurationError(f"vortices {j} and {k} coincide")
            raise ConfigurationError(
                f"vortices {j} and {k} are separated by "
                f"{distance:.3e}, not above the floor {floor:.3e}"
            )

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[complex, float]]
    ) -> "VortexConfiguration":
        """Build from ``(position, circulation)`` pairs; positions may be any complex-like."""
        return cls(tuple(Vortex(complex(p), float(d)) for p, d in pairs))

    @classmethod
    def from_coordinates(
        cls, rows: Iterable[tuple[float, float, float]]
    ) -> "VortexConfiguration":
        """Build from ``(x, y, d)`` triples."""
        return cls(tuple(Vortex(complex(x, y), float(d)) for x, y, d in rows))

    def __len__(self) -> int:
        return len(self.vortices)

    @cached_property
    def positions(self) -> tuple[complex, ...]:
        return tuple(v.position for v in self.vortices)

    @cached_property
    def circulations(self) -> tuple[float, ...]:
        return tuple(v.circulation for v in self.vortices)

    @cached_property
    def _differences(self) -> np.ndarray:
        """The pairwise table ``a_j - a_k`` (N x N complex, zero diagonal)."""
        pos = np.array(self.positions, dtype=np.complex128)
        table = pos[:, None] - pos[None, :]
        table.flags.writeable = False
        return table

    @cached_property
    def _distances(self) -> np.ndarray:
        """``|a_j - a_k|``, rounded as Python's complex ``abs`` rounds."""
        diff = self._differences
        table = np.hypot(diff.real, diff.imag)
        table.flags.writeable = False
        return table

    @cached_property
    def diameter(self) -> float:
        """Largest pairwise distance (0 for a single vortex)."""
        return float(self._distances.max())

    @cached_property
    def min_separation(self) -> float:
        """Smallest pairwise distance (``inf`` for a single vortex)."""
        upper = np.triu_indices(len(self), 1)
        return float(self._distances[upper].min(initial=math.inf))


@dataclass(frozen=True)
class Similarity:
    """Orientation-preserving similarity ``z -> scale * exp(i*rotation) * z + translation``."""

    scale: float = 1.0
    rotation: float = 0.0
    translation: complex = 0j

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("scale must be positive and finite")
        if not math.isfinite(self.rotation):
            raise ValueError("rotation must be finite")
        if not cmath.isfinite(self.translation):
            raise ValueError("translation must be finite")

    def apply(self, z: complex) -> complex:
        return self.scale * cmath.exp(1j * self.rotation) * z + self.translation


def energy(config: VortexConfiguration) -> float:
    """Logarithmic pair energy ``sum_{j != k} d_j d_k log(1/|a_j - a_k|)``.

    Ordered-pair convention: each unordered pair contributes twice.  Terms
    are accumulated with exact (compensated) summation, so the result does
    not depend on vortex ordering beyond rounding of the individual terms.
    """
    d = np.asarray(config.circulations)
    j, k = np.triu_indices(len(config), 1)
    # the distance itself, not its square, so no pair overflows
    return math.fsum(-2.0 * (d[j] * d[k]) * np.log(config._distances[j, k]))


def forces(config: VortexConfiguration) -> list[complex]:
    """All forces ``f_j = sum_{k != j} d_j d_k / (a_j - a_k)``, each a
    compensated sum."""
    n = len(config)
    d = np.asarray(config.circulations)
    off = ~np.eye(n, dtype=bool)
    terms = (np.outer(d, d)[off] / config._differences[off]).reshape(n, n - 1)
    # Python floats: fsum walks a list faster than a numpy row
    rows = zip(terms.real.tolist(), terms.imag.tolist())
    return [complex(math.fsum(re), math.fsum(im)) for re, im in rows]


def gradient(config: VortexConfiguration) -> list[complex]:
    """Gradient of :func:`energy` with respect to each position.

    Returned as complex numbers ``dW/dx_j + i dW/dy_j``; under the
    ordered-pair convention this equals ``-2 * conj(f_j)``.
    """
    return [-2.0 * f.conjugate() for f in forces(config)]


def residual(config: VortexConfiguration) -> float:
    """Scalar distance from equilibrium: ``max_j |f_j|``."""
    return max(abs(f) for f in forces(config))


def transform(config: VortexConfiguration, similarity: Similarity) -> VortexConfiguration:
    """Apply a similarity to every position; circulations are unchanged."""
    return VortexConfiguration(
        tuple(
            Vortex(similarity.apply(v.position), v.circulation)
            for v in config.vortices
        )
    )
