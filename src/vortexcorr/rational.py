"""Pointwise evaluation of the rational functions built from a vortex field.

The central objects are the field ``sum_j d_j/(z - a_j)``, the rational
function ``G(z) = sum_{j != k} d_j d_k / ((z - a_j)(z - a_k))`` (ordered
pairs) whose identical vanishing characterises equilibria, the singular
terms ``T_j(z) = d_j^2/(z - a_j)^2``, and the correlation integrand
``|sum_j d_j/(z - a_j)|^4 - sum_j d_j^4/|z - a_j|^4``.

Scalar entry points validate that the evaluation point keeps a minimal
distance from every vortex and raise :class:`PoleEvaluationError`
otherwise.  :func:`integrand_values` evaluates on numpy arrays without
per-point validation; quadrature drives it over points that are known to
stay clear of the poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import VortexConfiguration, forces

__all__ = [
    "EXCLUSION_FLOOR_SCALE",
    "PoleEvaluationError",
    "EvaluationPoint",
    "exclusion_floor",
    "eval_G_double_sum",
    "eval_G_partial_fractions",
    "eval_T",
    "integrand",
    "cross_term",
    "integrand_values",
]

# Evaluation closer than this fraction of (1 + diameter) to a vortex is
# rejected rather than returning an overflowed value.
EXCLUSION_FLOOR_SCALE = 1e-12


class PoleEvaluationError(ValueError):
    """The evaluation point lies inside the exclusion disk of a vortex."""


@dataclass(frozen=True)
class EvaluationPoint:
    """A field point together with its minimum allowed distance to any vortex."""

    z: complex
    exclusion_distance: float

    def require_clear_of(self, config: VortexConfiguration) -> None:
        if not self.exclusion_distance > 0.0:
            raise ValueError("exclusion_distance must be positive")
        for j, a in enumerate(config.positions):
            if abs(self.z - a) < self.exclusion_distance:
                raise PoleEvaluationError(
                    f"evaluation point {self.z} is within {self.exclusion_distance:.3e} "
                    f"of vortex {j} at {a}"
                )


def exclusion_floor(config: VortexConfiguration) -> float:
    """Minimum admissible distance between an evaluation point and a vortex."""
    return EXCLUSION_FLOOR_SCALE * (1.0 + config.diameter)


def _checked(config: VortexConfiguration, z: complex) -> complex:
    z = complex(z)
    EvaluationPoint(z, exclusion_floor(config)).require_clear_of(config)
    return z


def _abs2(w: complex) -> float:
    return w.real * w.real + w.imag * w.imag


def eval_G_double_sum(config: VortexConfiguration, z: complex) -> complex:
    """``G(z)`` as the ordered double sum ``sum_{j != k} d_j d_k/((z-a_j)(z-a_k))``."""
    z = _checked(config, z)
    pos = config.positions
    circ = config.circulations
    n = len(pos)
    re_terms = []
    im_terms = []
    for j in range(n):
        for k in range(j + 1, n):
            # the (j,k) and (k,j) terms coincide
            term = 2.0 * circ[j] * circ[k] / ((z - pos[j]) * (z - pos[k]))
            re_terms.append(term.real)
            im_terms.append(term.imag)
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def eval_G_partial_fractions(config: VortexConfiguration, z: complex) -> complex:
    """``G(z)`` via its partial fractions ``2 * sum_j f_j/(z - a_j)``.

    The residue of the ordered double sum at ``a_j`` is ``2 f_j``, hence the
    factor 2 relative to the force.
    """
    z = _checked(config, z)
    pos = config.positions
    re_terms = []
    im_terms = []
    for j, fj in enumerate(forces(config)):
        term = 2.0 * fj / (z - pos[j])
        re_terms.append(term.real)
        im_terms.append(term.imag)
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def eval_T(config: VortexConfiguration, j: int, z: complex) -> complex:
    """Singular term ``T_j(z) = d_j^2/(z - a_j)^2``."""
    n = len(config)
    if not 0 <= j < n:
        raise IndexError(f"vortex index {j} out of range for {n} vortices")
    z = complex(z)
    a = config.positions[j]
    if abs(z - a) < exclusion_floor(config):
        raise PoleEvaluationError(
            f"evaluation point {z} is too close to vortex {j} at {a}"
        )
    d = config.circulations[j]
    w = z - a
    return (d * d) / (w * w)


def integrand(config: VortexConfiguration, z: complex) -> float:
    """Correlation integrand ``|sum_j d_j/(z-a_j)|^4 - sum_j d_j^4/|z-a_j|^4``.

    Fourth powers are formed as squared squared-moduli, avoiding square
    roots.
    """
    z = _checked(config, z)
    pos = config.positions
    circ = config.circulations
    re_terms = []
    im_terms = []
    quartic_terms = []
    for j in range(len(pos)):
        w = circ[j] / (z - pos[j])
        re_terms.append(w.real)
        im_terms.append(w.imag)
        # d_j^4/|z - a_j|^4 == |w|^4; sharing w makes the two terms coincide
        # exactly for a single vortex
        quartic_terms.append(_abs2(w) ** 2)
    field2 = math.fsum(re_terms) ** 2 + math.fsum(im_terms) ** 2
    return field2 * field2 - math.fsum(quartic_terms)


def cross_term(config: VortexConfiguration, z: complex) -> float:
    """Real part of the ordered sum ``sum_{j != k} conj(T_j) T_k``.

    Equals ``|sum_j T_j|^2 - sum_j |T_j|^2``; the imaginary parts cancel in
    conjugate pairs and are checked to stay below ``1e-12`` of the summed
    term magnitudes.
    """
    z = _checked(config, z)
    n = len(config)
    ts = [eval_T(config, j, z) for j in range(n)]
    re_terms = []
    im_terms = []
    magnitude_terms = []
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            term = ts[j].conjugate() * ts[k]
            re_terms.append(term.real)
            im_terms.append(term.imag)
            magnitude_terms.append(abs(ts[j]) * abs(ts[k]))
    imag = math.fsum(im_terms)
    magnitude = math.fsum(magnitude_terms)
    if abs(imag) > 1e-12 * max(magnitude, 1e-300):
        raise ArithmeticError(
            f"imaginary part {imag!r} of the ordered cross sum failed to cancel"
        )
    return math.fsum(re_terms)


def integrand_values(config: VortexConfiguration, zs: np.ndarray) -> np.ndarray:
    """Vectorised correlation integrand (real-valued array)."""
    a = np.asarray(config.positions, dtype=np.complex128)
    d = np.asarray(config.circulations, dtype=np.float64)
    terms = d / (np.asarray(zs, dtype=np.complex128)[..., None] - a)
    field = terms.sum(axis=-1)
    field2 = field.real**2 + field.imag**2
    quartic = (terms.real**2 + terms.imag**2) ** 2
    return field2 * field2 - quartic.sum(axis=-1)
