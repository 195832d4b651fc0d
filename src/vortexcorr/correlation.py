"""The correlation coefficient of a vortex configuration.

``A_eps`` integrates ``|sum_j d_j/(z-a_j)|^4 - sum_j d_j^4/|z-a_j|^4`` over
the plane with a disk of radius ``eps`` removed around every vortex; the
correlation coefficient ``A`` is its ``eps -> 0`` limit.  At every
equilibrium that limit is zero, which this module reproduces numerically:
evaluate ``A_eps`` at a short list of shrinking ``eps`` values and
extrapolate.
For every configuration ``A_eps = alpha log eps + F + O(eps^2)`` with
``alpha`` known from the forces, so one model fits every input: subtract
``alpha log eps`` and extrapolate in ``eps^2`` to ``F``, which is zero at
an equilibrium.

:func:`correlation_limit` takes every ``A_eps`` from its contour form
(:func:`_contour_A_eps`): by Stokes' theorem ``A_eps`` is a sum of
integrals over the ``eps``-circles, which the trapezoid rule evaluates to
rounding with a proven bound, and no truncation radius or cell enters.
:func:`correlation_A_eps` is the independent 2D check of the same values:
it truncates to a disk ``B_R``, integrates adaptively and adds the exact
far-field tail.

Every integral of a configuration runs in the frame ``(z - t) / 2^k``
that :func:`_frame` picks from the centroid and the diameter, so a
configuration far from the origin, or at any scale within ``2^+-500``,
meets the floating-point range of one of unit size.  Values and errors come
back to the caller's units by a power-of-two factor, which is exact, and so
do the lengths in a misfit's message.  Each engine owns its rule on
``eps``: the 2D one rejects a hole with no room in ``B_R``, and
:func:`correlation_limit` an ``eps`` of half the minimum separation or more.

The pair kernel ``1/(conj(z-p)^2 (z-q)^2)`` integrates to zero over the
plane minus eps-disks at ``p`` and ``q`` (the two-disk identity), which
:func:`pair_integral` checks by quadrature in the pair's frame.  The
kernel's exact tail beyond ``R`` also builds that of ``A_eps``, so ``R``
moves no result beyond the quadrature's error; by default it is 4 in the
frame.  :func:`moebius_params` exposes the fractional-linear map that
turns the two-disk geometry into a round annulus.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import VortexConfiguration, forces
from .rational import integrand_values
from .quadrature import QuadratureResult, QuadratureSpec, _Misfit, integrate_excised_disk

__all__ = [
    "MoebiusParams",
    "moebius_params",
    "pair_integral",
    "correlation_A_eps",
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
    # a tiny eps or huge circulations overflow the bounds: rejected below, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        outer = math.fsum(k_max(epsilon * s, epsilon / s))
        centre_max = (dj * dj / dist + np.abs(gj * np.log(dist * dist))).sum(axis=(1, 2))
        residue_max = np.abs(g) * (np.abs(g) * abs(math.log(epsilon * epsilon)) + centre_max)
        # bounds every summed magnitude, on the circle and in the residues
        scale = math.fsum(k_max(epsilon, epsilon) + residue_max)
    excess = 2.0**54 * outer / scale
    if not math.isfinite(excess):
        raise _Misfit("the contour form's bound at excision radius {} is not finite", epsilon)
    # the least node count whose trapezoid bound is below 2^-53 pi scale
    nodes = math.ceil(math.log1p(excess) / math.log(s))
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


def _binade(config: VortexConfiguration) -> int:
    """``k`` with the diameter in ``[2^(k-1), 2^k)``; 0 for a single vortex."""
    return math.frexp(config.diameter)[1]


def _frame(config: VortexConfiguration) -> tuple[VortexConfiguration, float]:
    """``config`` in the frame ``w = (z - t) / 2^k``, and ``2^-k``.

    ``2^k`` is the binade of the diameter and ``t`` the centroid rounded to a
    multiple of ``2^k`` per component, so the frame diameter lies in
    ``[1/2, 1)`` and ``B_R`` is centred at ``t``.  Lengths scale by ``2^-k`` and integrals
    by ``4^-k``, exactly; ``t = 0`` when the centroid lies within ``2^(k-1)``
    of the origin, so such configurations keep their bits.  This is the one
    rule on the positions' scale: ``|k| <= 500`` keeps ``4^-k`` within
    ``2^+-1000``, among the normal floats.  The 2D engine also checks its
    framed target, and :func:`correlation_limit` the range of its results.
    """
    k = _binade(config)
    if abs(k) > 500:
        raise ValueError(f"the coordinate scale 2**{k} is out of floating-point range")
    shrink = math.ldexp(1.0, -k)
    xy = np.array([(a.real, a.imag) for a in config.positions])
    xy = (xy - np.round(xy.mean(axis=0) * shrink) / shrink) * shrink
    frame = VortexConfiguration.from_coordinates(
        (x, y, d) for (x, y), d in zip(xy.tolist(), config.circulations)
    )
    return frame, shrink


@contextmanager
def _caller_units(shrink: float) -> Iterator[None]:
    """Restate a misfit of framed lengths in the caller's units."""
    try:
        yield
    except _Misfit as misfit:
        template, *lengths = misfit.args
        raise _Misfit(template, *(x / shrink for x in lengths)) from None


def _integrate(
    config: VortexConfiguration,
    spec: QuadratureSpec,
    kernel: Callable[[VortexConfiguration, np.ndarray], np.ndarray],
    tail: Callable[[VortexConfiguration, float], complex],
) -> tuple[complex, float, complex, int, bool]:
    """The one 2D entry: ``kernel(frame, z)`` over ``B_R`` minus the holes plus
    ``tail(frame, R)``, in the frame of :func:`_frame`, with eps and ``R``
    moved there by ``2^-k`` and the target, which must stay a positive float,
    by ``4^k``.  Returns ``(value with tail, error, tail, cells_used,
    converged)`` in the caller's units; a misfit names the caller's lengths.
    Near a tiny hole the kernel overflows, unwarned: a value that is not
    finite is a misfit too.
    """
    frame, shrink = _frame(config)
    eps, radius = spec.epsilon * shrink, spec.cutoff_radius * shrink
    target = spec.target_abs_error / shrink / shrink
    if not 0.0 < target < math.inf:
        message = f"the coordinate scale 2**{_binade(config)} puts the error target"
        raise ValueError(f"{message} {spec.target_abs_error} out of floating-point range")
    with _caller_units(shrink), np.errstate(all="ignore"):
        raw, err, cells, converged = integrate_excised_disk(
            lambda zs: kernel(frame, zs), frame.positions, eps, radius, target, spec.max_cells
        )
        if not cmath.isfinite(raw):
            raise _Misfit("the 2D integral at excision radius {} is not finite", eps)
    exact, area = tail(frame, radius), shrink * shrink
    return (raw + exact) * area, err * area, exact * area, cells, converged


def pair_integral(
    p: complex, q: complex, epsilon: float, spec: QuadratureSpec
) -> QuadratureResult:
    """Quadrature check of the two-disk identity for the pair kernel.

    Integrates ``1/(conj(z-p)^2 (z-q)^2)`` over the disk of radius
    ``spec.cutoff_radius`` about the pair midpoint minus the two
    ``epsilon``-disks and adds the exact tail ``pi R^2 / (R^2 - conj(p) q)^2``
    (about the midpoint), so the error estimate is the adaptive one alone.
    It runs in the pair's power-of-two frame, so a pair of any size and
    position is integrated like a unit one; an ``epsilon`` that leaves the
    disks no room fails in quadrature, restated in the caller's units.  The
    plane integral is zero, so the value -- the modulus of the corrected
    complex estimate -- should not exceed the error estimate.  Weighted by
    ``d_j^2 d_k^2`` it is the cross term ``conj(T_j) T_k`` of ``A_eps``.
    """
    mid = 0.5 * (complex(p) + complex(q))
    pair = VortexConfiguration.from_pairs([(p - mid, 1.0), (q - mid, 1.0)])

    def kernel(frame: VortexConfiguration, zs: np.ndarray) -> np.ndarray:
        a, b = frame.positions
        # the square of the reciprocal: the fourth-degree denominator itself
        # overflows at |z| near 1e77
        g = 1.0 / (np.conj(zs - a) * (zs - b))
        return g * g

    value, err, tail, cells, converged = _integrate(
        pair, replace(spec, epsilon=epsilon), kernel, lambda f, r: _pair_tail(*f.positions, r)
    )
    return QuadratureResult(abs(value), err, tail.real, cells, converged)


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
        return QuadratureResult(0.0, 0.0, 0.0, 0)
    value, *rest = _integrate(config, spec, integrand_values, _far_field_tail)
    return QuadratureResult(value.real, *rest)


@dataclass(frozen=True)
class CorrelationReport:
    """A_eps estimates over a shrinking eps-list with an extrapolated limit.

    Every estimate is the contour form's: its error is the trapezoid bound
    plus the rounding estimate, and it uses no cells and no tail.

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
        """No error bar is claimed: the bar is not finite."""
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


def _extrapolate(
    epsilons: Sequence[float], values: Sequence[float], alpha: float
) -> tuple[float, float, float]:
    """Richardson fit of ``values - alpha log eps`` in ``x = eps^2`` to ``x = 0``.

    Fits through the last (up to three) points and returns ``(limit,
    amplification, spread)``: the sum of absolute Lagrange weights, and the
    model spread, the change in the limit when the first point is dropped.
    """
    use = min(3, len(epsilons))
    xs = [e * e for e in epsilons[-use:]]
    ys = [v - alpha * math.log(e) for v, e in zip(values[-use:], epsilons[-use:])]
    limit, amplification = _lagrange_at_zero(xs, ys)
    shallow, _ = _lagrange_at_zero(xs[1:], ys[1:])
    return limit, amplification, abs(limit - shallow)


def correlation_limit(
    config: VortexConfiguration, epsilons: Sequence[float], spec: QuadratureSpec | None = None
) -> CorrelationReport:
    """Estimate ``lim A_eps`` from estimates over a shrinking eps-list.

    Every ``A_eps_i`` is the contour form :func:`_contour_A_eps` in the frame
    of :func:`_frame` with its trapezoid and rounding bound, all finite in
    the caller's units, as are the limit and bar.  The contour form's rule
    on ``eps``: the largest must lie below half the minimum separation, so
    the trapezoid factor ``sqrt(sep / eps)`` is at least ``sqrt(2)`` and the
    node count stays bounded; a single vortex takes any positive ``eps``.
    ``spec`` is ignored: ``bench/workloads.py`` still passes one, and the
    parameter goes when the benchmark changes.

    For every configuration ``A_eps = alpha log eps + F + O(eps^2)`` with
    ``alpha = -2 pi sum_m |2 f_m|^2`` known from the forces: the circle
    integrals give ``alpha log eps`` and ``F`` by residues, and the rest is
    a series in ``eps^2``.  So ``alpha log eps_i`` (``eps_i`` in the caller's
    units) is subtracted from every estimate and the remainder is
    Richardson-extrapolated in ``x = eps^2`` through the last (up to three)
    points.  The limit is ``F``; both ``alpha`` and ``F`` vanish at an
    equilibrium.  The error bar is the largest bound over the fitted points
    times the sum of absolute Lagrange weights, plus the model spread: the
    change in the limit when the first point of the fit is dropped.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two epsilon values")
    for a, b in zip(eps, eps[1:]):
        if not b < a:
            raise ValueError("epsilons must be strictly decreasing")
    if not eps[-1] > 0.0:
        raise ValueError("epsilons must be positive")
    half = 0.5 * config.min_separation
    if not eps[0] < half:
        raise ValueError(f"excision radius {eps[0]} is not below half the separation, {half}")
    frame, shrink = _frame(config)
    area = shrink * shrink
    estimates = []
    with _caller_units(shrink):
        for e in eps:
            value, trapezoid, rounding = _contour_A_eps(frame, e * shrink)
            estimates.append(QuadratureResult(value * area, (trapezoid + rounding) * area, 0.0, 0))

    # alpha in the caller's units, from the frame's forces: those of a tiny
    # configuration would overflow when squared
    alpha = -8.0 * math.pi * math.fsum(abs(f) ** 2 for f in forces(frame)) * area
    limit, amplification, spread = _extrapolate(eps, [est.value for est in estimates], alpha)
    bar = amplification * max(est.abs_error_estimate for est in estimates[-3:]) + spread
    sizes = [abs(est.value) + est.abs_error_estimate for est in estimates] + [abs(limit) + bar]
    if not np.isfinite(sizes).all():
        raise ValueError(f"A_eps at the excision radii {eps} is out of floating-point range")
    return CorrelationReport(tuple(eps), tuple(estimates), limit, bar)


def default_quadrature_spec(config: VortexConfiguration) -> QuadratureSpec:
    """Defaults: ``eps = 0.1 * min separation``, ``R = 4 * 2^k`` with ``2^k``
    the binade of the diameter (so ``R`` is 4 in the frame of :func:`_frame`),
    and :class:`QuadratureSpec`'s own target and cell budget."""
    sep = config.min_separation
    return QuadratureSpec(
        epsilon=0.1 * sep if math.isfinite(sep) else 0.1,
        cutoff_radius=math.ldexp(4.0, _binade(config)),
    )


def default_epsilon_list(config: VortexConfiguration) -> list[float]:
    """The default shrinking eps-list ``{0.2, 0.1, 0.05} * min separation``."""
    sep = config.min_separation
    base = sep if math.isfinite(sep) else 1.0
    return [0.2 * base, 0.1 * base, 0.05 * base]
