"""The correlation integrand of a vortex field, evaluated on arrays.

The integrand is ``|sum_j d_j/(z - a_j)|^4 - sum_j d_j^4/|z - a_j|^4``.
:func:`integrand_values` is its one evaluator: it works on numpy arrays
without per-point validation, and quadrature drives it over points that
are known to stay clear of the poles.  The pointwise references for the
paper's identities (the rational function ``G`` in its double-sum and
partial-fraction forms, the singular terms ``T_j = d_j^2/(z - a_j)^2``
and the cross term ``sum_{j != k} conj(T_j) T_k``) are test oracles and
live in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .core import VortexConfiguration

__all__ = ["integrand_values"]


def integrand_values(config: VortexConfiguration, zs: np.ndarray) -> np.ndarray:
    """Vectorised correlation integrand (real-valued array)."""
    a = np.asarray(config.positions, dtype=np.complex128)
    d = np.asarray(config.circulations, dtype=np.float64)
    terms = d / (np.asarray(zs, dtype=np.complex128)[..., None] - a)
    field = terms.sum(axis=-1)
    field2 = field.real**2 + field.imag**2
    quartic = (terms.real**2 + terms.imag**2) ** 2
    return field2 * field2 - quartic.sum(axis=-1)
