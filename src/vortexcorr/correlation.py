"""The correlation coefficient of a vortex configuration.

``A_eps`` integrates ``|sum_j d_j/(z-a_j)|^4 - sum_j d_j^4/|z-a_j|^4`` over
the plane with a disk of radius ``eps`` removed around every vortex; the
correlation coefficient ``A`` is its ``eps -> 0`` limit.  At every
equilibrium that limit is zero, which this module reproduces numerically:
truncate to a disk ``B_R``, integrate adaptively, add the exact
far-field tail, and extrapolate a short list of shrinking ``eps`` values.
For every configuration ``A_eps = alpha log eps + F + O(eps^2)`` with
``alpha`` known from the forces, so one model fits every input: subtract
``alpha log eps`` and extrapolate in ``eps^2`` to ``F``, which is zero at
an equilibrium.

:func:`correlation_limit` integrates adaptively once, at the largest
``eps_1``.  Every smaller ``eps_i`` adds the rings ``eps_i < |z - a_k| <
eps_1`` as ``C(eps_i) - C(eps_1)``, where ``C`` is the contour form of
``A_eps`` (:func:`_contour_A_eps`): by Stokes' theorem ``A_eps`` is a sum
of integrals over the ``eps``-circles, which the trapezoid rule evaluates
to rounding with a bound, and no truncation radius or cell enters.  So
``A_eps_i = A_eps_1 + C(eps_i) - C(eps_1)``, and every estimate rests on
the one adaptive run: its error is common to every estimate, cancels in
differences and passes through the extrapolation once (the Lagrange
weights sum to one); only the ring bounds are independent noise,
amplified by the extrapolation weights.

Every integral of a configuration runs in the frame ``(z - t) / 2^k``
that :func:`_frame` picks from the centroid and the diameter, so a
configuration far from the origin, or at any scale, meets the same
floating-point range as one of unit size.  Values and errors come back
to the caller's units by a power-of-two factor, which is exact, and so do
the lengths in the message when the holes do not fit: quadrature alone
rejects an ``eps`` that leaves a hole no room or a hole outside ``B_R``.

The pair kernel ``1/(conj(z-p)^2 (z-q)^2)`` integrates to zero over the
plane minus eps-disks at ``p`` and ``q`` (the two-disk identity), which one
framed routine checks by quadrature: :func:`pair_integral` for a lone pair,
:func:`cross_pair_truncated` weighted by ``d_j^2 d_k^2`` for one ordered
pair of a configuration.  The kernel's exact tail beyond ``R`` also builds
that of ``A_eps``.  :func:`moebius_params` exposes the fractional-linear
map that turns the two-disk geometry into a round annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import VortexConfiguration, forces
from .rational import integrand_values
from .quadrature import QuadratureResult, QuadratureSpec, _Misfit, integrate_excised_disk

__all__ = [
    "MoebiusParams",
    "moebius_params",
    "pair_integral",
    "correlation_A_eps",
    "cross_pair_truncated",
    "CorrelationReport",
    "correlation_limit",
    "default_quadrature_spec",
    "default_epsilon_list",
]


@dataclass(frozen=True)
class MoebiusParams:
    """Parameters of the annulus map for the normalised two-disk geometry.

    For excision radius ``epsilon`` at the points 0 and 1, the map
    ``S(z) = (z - a)/(b - z)`` carries the plane minus the two disks onto
    the annulus ``r1 < |w| < r2``; its inverse is
    ``T(w) = (b w + a)/(1 + w)``.  The radii satisfy ``a b = epsilon^2``,
    ``a + b = 1`` and ``r1 r2 = 1``.
    """

    epsilon: float
    a: float
    b: float
    r1: float
    r2: float

    def to_annulus(self, z: complex) -> complex:
        return (z - self.a) / (self.b - z)

    def from_annulus(self, w: complex) -> complex:
        return (self.b * w + self.a) / (1.0 + w)


def moebius_params(epsilon: float) -> MoebiusParams:
    """Annulus-map parameters for excision radius ``epsilon`` in (0, 1/2).

    ``a`` is evaluated as ``2 eps^2 / (1 + sqrt(1 - 4 eps^2))``, algebraically
    identical to ``(1 - sqrt(1 - 4 eps^2))/2`` but free of cancellation for
    small ``eps``; for ``eps -> 0``, ``a = eps^2 + O(eps^4)``.
    """
    if not (math.isfinite(epsilon) and 0.0 < epsilon < 0.5):
        raise ValueError(
            f"epsilon must lie in (0, 1/2); at 1/2 the two disks touch (got {epsilon!r})"
        )
    s = math.sqrt(1.0 - 4.0 * epsilon * epsilon)
    a = 2.0 * epsilon * epsilon / (1.0 + s)
    b = 0.5 * (1.0 + s)
    r1 = (epsilon - a) / (b - epsilon)
    return MoebiusParams(epsilon=epsilon, a=a, b=b, r1=r1, r2=1.0 / r1)


def _pair_tail(p: complex, q: complex, radius: float) -> complex:
    """Exact integral of the pair kernel over ``|z| > radius``, elementwise.

    For ``|p|, |q| < R`` the expansions of ``1/conj(z-p)^2`` and
    ``1/(z-q)^2`` in powers of ``1/z`` converge there, and the angular
    integral keeps only their diagonal terms:
    ``pi sum_n (n+1) (conj(p) q)^n / R^(2n+2) = pi R^2 / (R^2 - conj(p) q)^2``.
    """
    r2 = radius * radius
    # divided twice rather than by the square, which overflows for large R
    denominator = r2 - p.conjugate() * q
    return math.pi * (r2 / denominator) / denominator


def _far_field_tail(frame: VortexConfiguration, radius: float) -> float:
    """Exact integral of the correlation integrand over ``|z| > radius``.

    With ``phi^2 = sum_j T_j + G``, ``T_j = d_j^2/(z - a_j)^2`` and
    ``G = sum_j g_j/(z - a_j)``, whose residues ``g_j = 2 f_j`` sum to zero,
    the integrand is ``sum_{j!=k} conj(T_j) T_k + 2 Re(conj(sum_j T_j) G) +
    |G|^2``.  For every ``|a_j| < R`` the angular integral keeps the
    diagonal terms of their ``1/z`` expansions, which sum to
    ``sum_{j!=k} d_j^2 d_k^2 P(a_j, a_k) + 2 Re sum_{j,k} d_j^2 g_k pi a_k /
    (R^2 - conj(a_j) a_k) - pi sum_{j,k} conj(g_j) g_k log(1 - conj(a_j)
    a_k / R^2)`` with ``P`` the pair tail :func:`_pair_tail`; ``sum_j g_j =
    0`` removes the divergent ``|z|^-2`` term of ``|G|^2``.
    """
    a = np.asarray(frame.positions)
    d2 = np.square(frame.circulations)
    g = 2.0 * np.asarray(forces(frame))
    r2 = radius * radius
    pair = _pair_tail(a[:, None], a, radius)
    np.fill_diagonal(pair, 0.0)
    overlap = a.conj()[:, None] * a
    cross = math.pi * a / (r2 - overlap)
    # log(1 - u) without rounding 1 - u: u is of order (diameter / R)^2
    u = overlap / r2
    log_modulus = 0.5 * np.log1p(u.real * (u.real - 2.0) + u.imag**2)
    log = log_modulus + 1j * np.arctan2(-u.imag, 1.0 - u.real)
    total = d2 @ pair @ d2 + 2.0 * (d2 @ cross @ g) - math.pi * (g.conj() @ log @ g)
    return float(total.real)


def _contour_A_eps(frame: VortexConfiguration, epsilon: float) -> tuple[float, float, float]:
    """``A_eps`` of a framed configuration by Stokes' theorem, with a bound.

    ``U = V phi^2 + sum_j d_j^4 / (conj(z-a_j) (z-a_j)^2)`` with ``V = -sum_j
    d_j^2/conj(z-a_j) + sum_j conj(g_j) log|z-a_j|^2`` has ``dU/dz-bar`` equal
    to the integrand and is ``O(|z|^-3)``, so ``A_eps = -(1/2i) sum_m
    oint_{|z-a_m|=eps} U dz``.  On circle ``m`` vortex ``m``'s own terms of
    ``V`` and of the sum cancel; ``(conj(g_m) log eps^2 + V_m(a_m)) phi^2``,
    ``V_m(a_m)`` the rest of ``V`` at the centre, is done by residues.  The
    remainder is analytic in ``w = z - a_m`` for ``eps/rho < |w| < eps rho``,
    ``rho`` the minimum separation over ``eps``.  With ``s = sqrt(rho)`` the
    ``M``-node trapezoid rule errs by at most ``4 pi K / (s^M - 1)``, ``K``
    bounding the remainder times ``w`` on ``eps/s <= |w| <= eps s``
    (Trefethen & Weideman, SIAM Rev. 56, 2014); ``M`` is the least count
    that puts their sum below ``2^-53 pi S``, ``S`` bounding the summed
    magnitudes.

    Returns ``(value, trapezoid, rounding)``: that bound, ``K`` bounded term
    by term, and the first-order rounding estimate ``(N + M + 8) 2^-53 pi S``.
    """
    n = len(frame)
    if n == 1:
        # no other vortex: U vanishes on the circle
        return 0.0, 0.0, 0.0
    a = np.asarray(frame.positions)
    d = np.asarray(frame.circulations)
    g = 2.0 * np.asarray(forces(frame))
    # axes: circle m, node, the vortices j != m
    j = np.array([[k for k in range(n) if k != m] for m in range(n)])[:, None, :]
    b, dj, gj = a[j] - a[:, None, None], d[j], g[j]
    dist = np.abs(b)

    def k_max(x: float, inner: float) -> np.ndarray:
        # |remainder w| per circle on inner <= |w| <= x, with eps^2/|w| <= x, so
        # that |u| >= dist - x and |w/b|, |eps^2/(w conj(b))| <= x/dist
        room = dist - x
        v_max = dj * dj * x / (dist * room) - 2.0 * np.abs(gj) * np.log1p(-x / dist)
        phi_max = np.abs(d) / inner + (np.abs(dj) / room).sum(axis=(1, 2))
        squares = (dj**4 / room**3).sum(axis=(1, 2))
        return x * (v_max.sum(axis=(1, 2)) * phi_max**2 + squares)

    s = math.sqrt(frame.min_separation / epsilon)
    outer = math.fsum(k_max(epsilon * s, epsilon / s))
    centre_max = (dj * dj / dist + np.abs(gj * np.log(dist * dist))).sum(axis=(1, 2))
    residue_max = np.abs(g) * (np.abs(g) * abs(math.log(epsilon * epsilon)) + centre_max)
    # bounds every summed magnitude, on the circle and in the residues
    scale = math.fsum(k_max(epsilon, epsilon) + residue_max)
    # the least node count whose trapezoid bound is below 2^-53 pi scale
    nodes = math.ceil(math.log1p(2.0**54 * outer / scale) / math.log(s))
    w = epsilon * np.exp(2j * math.pi / nodes * np.arange(nodes))

    u, ratio = w[:, None] - b, w[:, None] / b
    # V_m - V_m(a_m), with log|1 - w/b|^2 taken without rounding 1 - w/b
    log = np.log1p(ratio.real * (ratio.real - 2.0) + ratio.imag**2)
    v = (-dj * dj * np.conj(ratio) / np.conj(u) + np.conj(gj) * log).sum(axis=2)
    phi = d[:, None] / w + (dj / u).sum(axis=2)
    f = (v * phi * phi + (dj**4 / (np.conj(u) * u * u)).sum(axis=2)) * w
    centre = (dj * dj / np.conj(b) + np.conj(gj) * np.log(dist * dist)).sum(axis=(1, 2))
    residue = (np.conj(g) * math.log(epsilon * epsilon) + centre) * g
    value = -math.pi * float((f.mean(axis=1) + residue).sum().real)
    trapezoid = 2.0 * math.pi * outer / (s**nodes - 1.0)
    return value, trapezoid, (n + nodes + 8) * 2.0**-53 * math.pi * scale


def _frame(
    config: VortexConfiguration, spec: QuadratureSpec
) -> tuple[VortexConfiguration, QuadratureSpec, float]:
    """``config`` and ``spec`` in the frame ``w = (z - t) / 2^k``, and ``2^-k``.

    ``2^k`` is the binade of the diameter and ``t`` the centroid rounded to a
    multiple of ``2^k`` per component, so the frame diameter lies in
    ``[1/2, 1)`` and ``B_R`` is centred at ``t``.  Lengths scale by ``2^-k`` and integrals
    by ``4^-k``, exactly; ``t = 0`` when the centroid lies within ``2^(k-1)``
    of the origin, so such configurations keep their bits.
    """
    k = math.frexp(config.diameter)[1]
    shrink = math.ldexp(1.0, -k)
    target = spec.target_abs_error / shrink / shrink
    if not target < math.inf:
        raise ValueError(
            f"the coordinate scale 2**{k} puts the error target "
            f"{spec.target_abs_error} out of floating-point range"
        )
    xy = np.array([(a.real, a.imag) for a in config.positions])
    xy = (xy - np.round(xy.mean(axis=0) * shrink) / shrink) * shrink
    frame = VortexConfiguration.from_coordinates(
        (x, y, d) for (x, y), d in zip(xy.tolist(), config.circulations)
    )
    eps, radius = spec.epsilon * shrink, spec.cutoff_radius * shrink
    spec = replace(spec, epsilon=eps, cutoff_radius=radius, target_abs_error=target)
    return frame, spec, shrink


def _integrate(
    f: Callable[[np.ndarray], np.ndarray],
    centers: Sequence[complex],
    spec: QuadratureSpec,
    shrink: float,
) -> tuple[complex, float, int, bool]:
    """:func:`integrate_excised_disk` on a framed spec, misfits in caller units."""
    try:
        return integrate_excised_disk(
            f, centers, spec.epsilon, spec.cutoff_radius, spec.target_abs_error, spec.max_cells
        )
    except _Misfit as misfit:
        template, *lengths = misfit.args
        raise _Misfit(template, *(x / shrink for x in lengths)) from None


def _pair(
    config: VortexConfiguration, j: int, k: int, epsilon: float, spec: QuadratureSpec
) -> tuple[complex, float, float, int, bool]:
    """The two-disk integral of ``d_j^2 d_k^2 / (conj(z-a_j)^2 (z-a_k)^2)``.

    Integrates over ``B_R`` minus the two ``epsilon``-disks in the frame of
    ``config`` and adds the exact tail; an ``epsilon`` that leaves the disks
    no room fails in quadrature, restated in the caller's units.  Returns
    the fields of a :class:`QuadratureResult` in the caller's units, with
    the corrected complex estimate as the value and the real part of the
    tail as the tail correction.
    """
    frame, spec, shrink = _frame(config, replace(spec, epsilon=epsilon))
    p, q = frame.positions[j], frame.positions[k]
    weight = (config.circulations[j] * config.circulations[k]) ** 2

    def f(zs: np.ndarray) -> np.ndarray:
        # the square of the reciprocal: the fourth-degree denominator itself
        # overflows at |z| near 1e77
        g = 1.0 / (np.conj(zs - p) * (zs - q))
        return weight * (g * g)

    raw, err, cells, converged = _integrate(f, [p, q], spec, shrink)
    tail = weight * _pair_tail(p, q, spec.cutoff_radius)
    area = shrink * shrink
    return (raw + tail) * area, err * area, tail.real * area, cells, converged


def pair_integral(
    p: complex, q: complex, epsilon: float, spec: QuadratureSpec
) -> QuadratureResult:
    """Quadrature check of the two-disk identity for the pair kernel.

    Integrates ``1/(conj(z-p)^2 (z-q)^2)`` over the disk of radius
    ``spec.cutoff_radius`` about the pair midpoint minus the two
    ``epsilon``-disks and adds the exact tail ``pi R^2 / (R^2 - conj(p) q)^2``
    (about the midpoint), so the error estimate is the adaptive one alone.
    Like :func:`cross_pair_truncated` it runs in the pair's power-of-two
    frame, so a pair of any size and position is integrated like a unit one.
    The plane integral is zero, so the value -- the modulus of the corrected
    complex estimate -- should not exceed the error estimate.
    """
    mid = 0.5 * (complex(p) + complex(q))
    pair = VortexConfiguration.from_pairs([(p - mid, 1.0), (q - mid, 1.0)])
    estimate, *rest = _pair(pair, 0, 1, epsilon, spec)
    return QuadratureResult(abs(estimate), *rest)


def correlation_A_eps(
    config: VortexConfiguration, spec: QuadratureSpec
) -> QuadratureResult:
    """Truncated principal-value estimate of the correlation coefficient.

    Integrates the correlation integrand over ``B_R`` minus an
    ``spec.epsilon``-disk around every vortex, then adds the exact far-field
    tail of :func:`_far_field_tail` (its leading term is
    ``pi * ((sum d_j)^4 - sum d_j^4) / R^2``), so the error estimate is the
    adaptive one alone.  A single vortex gives exactly zero without
    quadrature.
    """
    if len(config) == 1:
        return QuadratureResult(
            value=0.0, abs_error_estimate=0.0, tail_correction=0.0, cells_used=0
        )
    frame, spec, shrink = _frame(config, spec)

    def f(zs: np.ndarray) -> np.ndarray:
        return integrand_values(frame, zs)

    raw, err, cells, converged = _integrate(f, frame.positions, spec, shrink)
    area = shrink * shrink
    tail = _far_field_tail(frame, spec.cutoff_radius)
    return QuadratureResult(
        value=(raw.real + tail) * area,
        abs_error_estimate=err * area,
        tail_correction=tail * area,
        cells_used=cells,
        converged=converged,
    )


def cross_pair_truncated(
    config: VortexConfiguration, j: int, k: int, epsilon: float, spec: QuadratureSpec
) -> QuadratureResult:
    """Truncated integral of ``conj(T_j) T_k`` with only the (j, k) disks excised.

    By the two-disk identity (scaled by ``d_j^2 d_k^2``) the plane integral
    vanishes, so after the tail correction the value should be zero within
    the error estimate.  The value is the real part of the complex
    estimate: the ordered-pair sum over (j, k) and (k, j) is real, and the
    imaginary residue is folded into the error estimate.
    """
    n = len(config)
    if not (0 <= j < n and 0 <= k < n):
        raise IndexError(f"vortex indices ({j}, {k}) out of range for {n} vortices")
    if j == k:
        raise ValueError("the pair indices must differ")
    estimate, error, *rest = _pair(config, j, k, epsilon, spec)
    return QuadratureResult(estimate.real, error + abs(estimate.imag), *rest)


@dataclass(frozen=True)
class CorrelationReport:
    """A_eps estimates over a shrinking eps-list with an extrapolated limit.

    Every estimate after the first adds exact contour rings to the first
    one's excised-disk run, so all of them report that run's cells.

    ``extrapolated_limit`` is the finite part ``F`` of ``A_eps = alpha log
    eps + F + O(eps^2)``, which is zero at an equilibrium, and
    ``extrapolation_error`` its error bar.
    """

    epsilons: tuple[float, ...]
    estimates: tuple[QuadratureResult, ...]
    extrapolated_limit: float
    extrapolation_error: float

    @property
    def fit_degenerate(self) -> bool:
        """No error bar is claimed: the main run estimated nothing."""
        return not math.isfinite(self.extrapolation_error)


def _lagrange_at_zero(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Polynomial extrapolation of ``(x, y)`` data to ``x = 0``.

    Returns the value and the sum of absolute Lagrange weights (the noise
    amplification factor).  One point is its own extrapolation.
    """
    total = 0.0
    amplification = 0.0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        w = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                w *= xj / (xj - xi)
        total += w * yi
        amplification += abs(w)
    return total, amplification


def correlation_limit(
    config: VortexConfiguration, epsilons: Sequence[float], spec: QuadratureSpec
) -> CorrelationReport:
    """Estimate ``lim A_eps`` from estimates over a shrinking eps-list.

    One excised-disk run at the largest ``eps_1`` gets all of ``spec``'s
    target and cells; every smaller ``eps_i`` adds contour rings to it (see
    the module docstring).  For every configuration ``A_eps = alpha log eps
    + F + O(eps^2)`` with ``alpha = -2 pi sum_m |2 f_m|^2`` known from the
    forces: the circle integrals of :func:`_contour_A_eps` give ``alpha log
    eps`` and ``F`` by residues, and the rest is a series in ``eps^2``.  So
    ``alpha log eps_i`` (``eps_i`` in the caller's units) is subtracted from
    every estimate and the remainder is Richardson-extrapolated in ``x =
    eps^2`` through the last (up to three) points.  The limit is ``F``; both
    ``alpha`` and ``F`` vanish at an equilibrium.

    The error bar is the main run's error (common to every estimate, so it
    passes through the weights, which sum to one, once), plus the largest
    ring bound times the sum of absolute Lagrange weights, plus the model
    spread: the change in the limit when the first point of the fit is
    dropped.  A main run that estimated nothing (an infinite error) gives an
    infinite bar, which :attr:`CorrelationReport.fit_degenerate` reports.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two epsilon values")
    for a, b in zip(eps, eps[1:]):
        if not b < a:
            raise ValueError("epsilons must be strictly decreasing")
    if not eps[-1] > 0.0:
        raise ValueError("epsilons must be positive")
    main = correlation_A_eps(config, replace(spec, epsilon=eps[0]))
    frame, _, shrink = _frame(config, spec)
    area = shrink * shrink
    (value_1, *bound_1), *rest = [_contour_A_eps(frame, e * shrink) for e in eps]
    # ring i is C(eps_i) - C(eps_1), bounded by the sum of both contour bounds
    rings = [
        ((value - value_1) * area, math.fsum(bound + bound_1) * area)
        for value, *bound in rest
    ]
    estimates = (main,) + tuple(
        QuadratureResult(
            value=main.value + ring,
            abs_error_estimate=main.abs_error_estimate + noise,
            tail_correction=main.tail_correction,
            cells_used=main.cells_used,
            converged=main.converged,
        )
        for ring, noise in rings
    )
    noises = [0.0] + [noise for _, noise in rings]

    # alpha in the caller's units, from the frame's forces: those of a tiny
    # configuration would overflow when squared
    alpha = -8.0 * math.pi * math.fsum(abs(f) ** 2 for f in forces(frame)) * area
    use = min(3, len(eps))
    xs = [e * e for e in eps[-use:]]
    ys = [est.value - alpha * math.log(e) for est, e in zip(estimates[-use:], eps[-use:])]
    limit, amplification = _lagrange_at_zero(xs, ys)
    shallow, _ = _lagrange_at_zero(xs[1:], ys[1:])
    extrap_error = (
        main.abs_error_estimate + amplification * max(noises[-use:]) + abs(limit - shallow)
    )
    return CorrelationReport(tuple(eps), estimates, limit, extrap_error)


def default_quadrature_spec(config: VortexConfiguration) -> QuadratureSpec:
    """Defaults: ``eps = 0.1 * min separation``, ``R = 50 * (1 + diameter)``,
    and :class:`QuadratureSpec`'s own target and cell budget."""
    sep = config.min_separation
    return QuadratureSpec(
        epsilon=0.1 * sep if math.isfinite(sep) else 0.1,
        cutoff_radius=50.0 * (1.0 + config.diameter),
    )


def default_epsilon_list(config: VortexConfiguration) -> list[float]:
    """The default shrinking eps-list ``{0.2, 0.1, 0.05} * min separation``."""
    sep = config.min_separation
    base = sep if math.isfinite(sep) else 1.0
    return [0.2 * base, 0.1 * base, 0.05 * base]
