"""Pointwise reference evaluations for the identity tests.

Scalar ``math.fsum`` forms of the rational functions built from a vortex
field, written independently of the library's vectorised integrand
``vortexcorr.rational.integrand_values``:

* ``G(z) = sum_{j != k} d_j d_k / ((z - a_j)(z - a_k))`` as the ordered
  double sum and as the partial fractions ``2 sum_j f_j/(z - a_j)`` built
  from the library's forces (``G`` vanishes identically exactly at
  equilibria);
* the singular terms ``T_j(z) = d_j^2/(z - a_j)^2``;
* the correlation integrand ``|sum_j d_j/(z - a_j)|^4 - sum_j d_j^4/|z - a_j|^4``;
* the cross term ``sum_{j != k} conj(T_j) T_k``, which equals the integrand
  wherever ``G`` vanishes.

Callers keep the evaluation point away from the vortices; nothing here
checks it.
"""

import math

from vortexcorr import forces


def G_double_sum(config, z):
    """``G(z)`` as the ordered double sum."""
    pos = config.positions
    circ = config.circulations
    re_terms = []
    im_terms = []
    for j in range(len(pos)):
        for k in range(j + 1, len(pos)):
            # the (j,k) and (k,j) terms coincide
            term = 2.0 * circ[j] * circ[k] / ((z - pos[j]) * (z - pos[k]))
            re_terms.append(term.real)
            im_terms.append(term.imag)
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def G_partial_fractions(config, z):
    """``G(z)`` as ``2 sum_j f_j/(z - a_j)``: the residue of the ordered
    double sum at ``a_j`` is twice the force ``f_j``."""
    terms = [2.0 * fj / (z - a) for fj, a in zip(forces(config), config.positions)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def T(config, j, z):
    """Singular term ``T_j(z) = d_j^2/(z - a_j)^2``."""
    d = config.circulations[j]
    w = z - config.positions[j]
    return (d * d) / (w * w)


def integrand(config, z):
    """Correlation integrand; fourth powers are squared squared-moduli."""
    ws = [d / (z - a) for a, d in zip(config.positions, config.circulations)]
    field2 = math.fsum(w.real for w in ws) ** 2 + math.fsum(w.imag for w in ws) ** 2
    # d_j^4/|z - a_j|^4 == |w_j|^4; sharing w_j makes the two terms coincide
    # exactly for a single vortex
    return field2 * field2 - math.fsum((w.real * w.real + w.imag * w.imag) ** 2 for w in ws)


def cross_term(config, z):
    """Real part of the ordered sum ``sum_{j != k} conj(T_j) T_k``.

    The imaginary parts cancel in conjugate pairs; they are checked to stay
    below ``1e-12`` of the summed term magnitudes.
    """
    ts = [T(config, j, z) for j in range(len(config))]
    terms = [tj.conjugate() * tk for j, tj in enumerate(ts) for k, tk in enumerate(ts) if j != k]
    imag = math.fsum(t.imag for t in terms)
    magnitude = math.fsum(abs(t) for t in terms)
    assert abs(imag) <= 1e-12 * max(magnitude, 1e-300), f"imaginary part {imag!r} left over"
    return math.fsum(t.real for t in terms)
