"""Reference evaluations for the identity and error-bar tests.

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
  wherever ``G`` vanishes;
* ``A_eps`` of an equilibrium as its exact series in ``eps``, which needs
  no quadrature and so checks the library's error bars;
* the finite part ``F`` of ``A_eps = alpha log eps + F + O(eps^2)`` for any
  configuration, in closed form from the forces;
* the integrand's far-field tail beyond a radius ``R`` as a series in the
  moments ``M_m = sum_j d_j a_j^m``, independent of the library's closed
  form;
* the pair kernel ``1/(conj(z-p)^2 (z-q)^2)`` over a disk that holds
  neither pole, in closed form.

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


def eps_series(config, epsilon, terms=40):
    """``A_eps`` at an equilibrium as the exact series in ``eps``:

    ``-pi sum_m sum_n eps^(2n+2)/(n+1) (|sum_{j!=m} c_jmn|^2 - sum_{j!=m} |c_jmn|^2)``
    with ``c_jmn = d_j^2 (n+1) (-1)^n / (a_m - a_j)^(n+2)``.

    Where ``G`` vanishes the integrand is ``sum_{j!=k} conj(T_j) T_k``; each
    ordered pair integrates to zero over the plane minus its own two disks,
    so only the other vortices' disks remain, and on the disk about ``a_m``
    the pair terms sum to ``|h_m|^2 - sum_{j!=m} |T_j|^2`` with ``h_m`` the
    Taylor series ``sum_n (sum_j c_jmn) (z - a_m)^n``.  The terms fall like
    ``(eps / |a_m - a_j|)^(2n)``; the fixed ``terms`` count leaves under
    ``0.04^40`` at ``eps`` up to a fifth of the minimum separation.
    """
    pos = config.positions
    circ = config.circulations
    total = []
    for m, am in enumerate(pos):
        others = [(d * d, am - a) for j, (a, d) in enumerate(zip(pos, circ)) if j != m]
        for n in range(terms):
            sign = -1.0 if n % 2 else 1.0
            cs = [d2 * (n + 1) * sign / gap ** (n + 2) for d2, gap in others]
            h = complex(math.fsum(c.real for c in cs), math.fsum(c.imag for c in cs))
            diagonal = math.fsum(abs(c) ** 2 for c in cs)
            total.append(epsilon ** (2 * n + 2) / (n + 1) * (abs(h) ** 2 - diagonal))
    return -math.pi * math.fsum(total)


def finite_part(config):
    """The finite part ``F`` of ``A_eps = alpha log eps + F + O(eps^2)``:

    ``F = -pi sum_{m!=j} Re(g_m conj(g_j)) log|b_jm|^2
    - 2 pi Re sum_m conj(g_m) sum_{j!=m} d_j^2/b_jm``

    with ``g_m = 2 f_m`` the residues of ``G`` and ``b_jm = a_j - a_m``.  On
    the circle about ``a_m`` the residue term ``(conj(g_m) log eps^2 +
    V_m(a_m)) g_m`` of the contour form gives ``alpha log eps`` and, through
    the logarithms in ``V_m(a_m)``, the double sum; the analytic part of
    ``conj(g_j) log|z - a_j|^2`` against ``d_m^2/(z - a_m)^2`` gives the
    single sum.  Everything else is a function of ``eps^2``.  ``F`` is zero
    wherever every force is.
    """
    pos = config.positions
    circ = config.circulations
    g = [2.0 * f for f in forces(config)]
    pairs = [(m, j) for m in range(len(pos)) for j in range(len(pos)) if j != m]
    quadratic = [
        (g[m] * g[j].conjugate()).real * 2.0 * math.log(abs(pos[j] - pos[m])) for m, j in pairs
    ]
    linear = [(g[m].conjugate() * circ[j] ** 2 / (pos[j] - pos[m])).real for m, j in pairs]
    return -math.pi * math.fsum(quadratic) - 2.0 * math.pi * math.fsum(linear)


def far_field_tail(config, radius, terms=60):
    """The integral of the correlation integrand over ``|z| > radius`` as
    the moment series

    ``pi sum_k R^(-2k-2)/(k+1) (|c_k|^2 - sum_j d_j^4 (k+1)^2 |a_j|^(2k))``

    with ``c_k = sum_{m+n=k} M_m M_n`` the coefficients of
    ``phi^2 = sum_k c_k z^(-k-2)`` and ``M_m = sum_j d_j a_j^m``.  The angular
    average keeps the diagonal terms of ``|phi^2|^2`` and of each
    ``d_j^4/|z - a_j|^4``.  Positions are taken about the centre of the
    truncation disk; the terms fall like ``(max_j |a_j| / R)^(2k)``.
    """
    pos = config.positions
    circ = config.circulations
    moments = []
    for m in range(terms):
        powers = [d * a**m for a, d in zip(pos, circ)]
        moments.append(
            complex(math.fsum(t.real for t in powers), math.fsum(t.imag for t in powers))
        )
    total = []
    for k in range(terms):
        products = [moments[m] * moments[k - m] for m in range(k + 1)]
        c = complex(math.fsum(t.real for t in products), math.fsum(t.imag for t in products))
        diagonal = math.fsum(d**4 * (k + 1) ** 2 * abs(a) ** (2 * k) for a, d in zip(pos, circ))
        total.append((abs(c) ** 2 - diagonal) / (k + 1) * radius ** (-2 * k - 2))
    return math.pi * math.fsum(total)


def pair_kernel_over_disk(p, q, center, radius):
    """The integral of ``1/(conj(z-p)^2 (z-q)^2)`` over the disk
    ``|z - center| < radius``, which holds neither ``p`` nor ``q``:

    ``pi radius^2 / (conj(p - c)(q - c) - radius^2)^2``.

    With ``w = z - c`` each factor is the series ``sum_n (n+1) w^n /
    (q-c)^(n+2)`` (and its conjugate), the disk keeps only the diagonal
    terms, ``|w|^(2n)`` integrates to ``pi radius^(2n+2)/(n+1)``, and
    ``sum_n (n+1) u^n = 1/(1-u)^2`` at ``u = radius^2/(conj(p-c)(q-c))``.
    """
    pc = complex(p) - center
    qc = complex(q) - center
    return math.pi * radius * radius / (pc.conjugate() * qc - radius * radius) ** 2
