"""The correlation integrand of a vortex field, evaluated on arrays.

The integrand is ``|sum_j d_j/(z - a_j)|^4 - sum_j d_j^4/|z - a_j|^4``.
:func:`integrand_values` is its one evaluator: it works on numpy arrays
without per-point validation, and quadrature drives it over points that
are known to stay clear of the poles.  It loops over the vortices and is
vectorised over the points, in real arithmetic: with ``u = z - a_j`` and
``r^2 = |u|^2`` each term ``d_j/u`` is ``d_j (Re u, -Im u) / r^2``, and
both field components and the quartic sum accumulate in arrays of the
points' shape.  Its temporaries grow with the number of points only, not
with the number of vortices times points.

The pointwise references for the paper's identities (the rational
function ``G`` in its double-sum and partial-fraction forms, the singular
terms ``T_j = d_j^2/(z - a_j)^2`` and the cross term
``sum_{j != k} conj(T_j) T_k``) are test oracles and live in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .core import VortexConfiguration

__all__ = ["integrand_values"]


def integrand_values(config: VortexConfiguration, zs: np.ndarray) -> np.ndarray:
    """Vectorised correlation integrand: a real array of the shape of ``zs``."""
    zs = np.asarray(zs, dtype=np.complex128)
    x, y = zs.real, zs.imag
    # the field's real part, minus its imaginary part, and sum_j |d_j/u|^4
    fx, fy, quartic = np.zeros(zs.shape), np.zeros(zs.shape), np.zeros(zs.shape)
    tx, ty, r2, sq = (np.empty(zs.shape) for _ in range(4))
    for a, d in zip(config.positions, config.circulations):
        np.subtract(x, a.real, out=tx)
        np.subtract(y, a.imag, out=ty)
        np.multiply(tx, tx, out=r2)
        r2 += np.multiply(ty, ty, out=sq)
        np.divide(d, r2, out=r2)
        tx *= r2
        ty *= r2
        fx += tx
        fy += ty
        # |d/u|^2 from the term itself, so a lone vortex cancels exactly
        np.multiply(tx, tx, out=r2)
        r2 += np.multiply(ty, ty, out=sq)
        r2 *= r2
        quartic += r2
    fx *= fx
    fx += np.multiply(fy, fy, out=fy)
    fx *= fx
    fx -= quartic
    return fx
