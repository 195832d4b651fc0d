"""The correlation coefficient of a vortex configuration.

``A_eps`` integrates ``|sum_j d_j/(z-a_j)|^4 - sum_j d_j^4/|z-a_j|^4`` over
the plane with a disk of radius ``eps`` removed around every vortex; the
correlation coefficient ``A`` is its ``eps -> 0`` limit.  At every
equilibrium that limit is zero, which this module reproduces numerically:
truncate to a disk ``B_R``, integrate adaptively, add the exact
far-field tail, and extrapolate a short list of shrinking ``eps`` values.

:func:`correlation_limit` integrates the eps-independent part once.  One
excised-disk run gives ``A_eps`` at the largest ``eps_1``; every smaller
``eps_i`` adds the rings ``eps_i < |z - a_k| < eps_1``, integrated together
in one adaptive run with a polar region per vortex.  This is exact, not an
approximation: the main run covers exactly ``B_R`` minus the
``eps_1``-disks, and the rings fill the part of those disks outside the
``eps_i``-disks, disjointly because ``eps_1`` is below half the minimum
separation.  So ``A_eps_i = A_eps_1 + sum_k ring_k(eps_i, eps_1)``.
Estimate ``i`` reports the cells its value rests on -- the main run's,
which every estimate shares, plus its own ring's -- and the sum of the two
adaptive errors.  Because the main run's error is common to every estimate
it cancels in differences and passes through the extrapolation once (the
Lagrange weights sum to one); only the ring errors are independent noise,
amplified by the extrapolation weights.

Every integral of a configuration runs in the frame ``(z - t) / 2^k``
that :func:`_frame` picks from the centroid and the diameter, so a
configuration far from the origin, or at any scale, meets the same
floating-point range as one of unit size.  Values and errors come back
to the caller's units by a power-of-two factor, which is exact.

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
from typing import Sequence

import numpy as np

from .core import VortexConfiguration, forces
from .rational import integrand_values
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    _integrate_annuli,
    integrate_excised_disk,
)

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


def _validate_excision(config: VortexConfiguration, spec: QuadratureSpec) -> None:
    if not spec.epsilon < 0.5 * config.min_separation:
        raise ValueError(
            f"epsilon {spec.epsilon} must be below half the minimum pairwise "
            f"distance {0.5 * config.min_separation}; the excised disks overlap"
        )


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


def _pair(
    config: VortexConfiguration, j: int, k: int, epsilon: float, spec: QuadratureSpec
) -> tuple[complex, float, float, int, bool]:
    """The two-disk integral of ``d_j^2 d_k^2 / (conj(z-a_j)^2 (z-a_k)^2)``.

    Checks ``epsilon`` in the caller's units, integrates over ``B_R`` minus
    the two ``epsilon``-disks in the frame of ``config`` and adds the exact
    tail.  Returns the fields of a :class:`QuadratureResult` in the
    caller's units, with the corrected complex estimate as the value and
    the real part of the tail as the tail correction.
    """
    half = 0.5 * abs(config.positions[j] - config.positions[k])
    if not epsilon < half:
        raise ValueError(
            f"epsilon {epsilon} must be below half the pair separation {half}"
        )
    frame, spec, shrink = _frame(config, replace(spec, epsilon=epsilon))
    p, q = frame.positions[j], frame.positions[k]
    weight = (config.circulations[j] * config.circulations[k]) ** 2

    def f(zs: np.ndarray) -> np.ndarray:
        # the square of the reciprocal: the fourth-degree denominator itself
        # overflows at |z| near 1e77
        g = 1.0 / (np.conj(zs - p) * (zs - q))
        return weight * (g * g)

    raw, err, cells, converged = integrate_excised_disk(
        f, [p, q], spec.epsilon, spec.cutoff_radius, spec.target_abs_error, spec.max_cells
    )
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
    _validate_excision(config, spec)
    frame, spec, shrink = _frame(config, spec)
    radius = spec.cutoff_radius

    def f(zs: np.ndarray) -> np.ndarray:
        return integrand_values(frame, zs)

    raw, err, cells, converged = integrate_excised_disk(
        f, frame.positions, spec.epsilon, radius, spec.target_abs_error, spec.max_cells
    )
    area = shrink * shrink
    tail = _far_field_tail(frame, radius)
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

    Every estimate after the first shares the first one's excised-disk run:
    its ``cells_used`` counts those shared cells plus its own ring cells.

    ``order_estimate`` is the empirical decay order fitted from the ratio
    of successive differences.  ``fit_degenerate`` is set when the
    estimates do not support extrapolation -- differences below quadrature
    noise, or a non-contracting difference ratio -- in which case the last
    estimate is reported as the limit.
    """

    epsilons: tuple[float, ...]
    estimates: tuple[QuadratureResult, ...]
    extrapolated_limit: float
    extrapolation_error: float
    fit_degenerate: bool = False
    order_estimate: float | None = None

    def __post_init__(self) -> None:
        if len(self.epsilons) != len(self.estimates):
            raise ValueError("epsilons and estimates must have equal length")
        if len(self.epsilons) < 2:
            raise ValueError("at least two epsilon values are required")
        for a, b in zip(self.epsilons, self.epsilons[1:]):
            if not b < a:
                raise ValueError("epsilons must be strictly decreasing")


def _lagrange_at_zero(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Polynomial extrapolation of ``(x, y)`` data to ``x = 0``.

    Returns the value and the sum of absolute Lagrange weights (the noise
    amplification factor).
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

    The estimates share one excised-disk run at the largest ``eps_1`` and
    add rings for every smaller ``eps_i`` (see the module docstring).  The
    rings run first at half of ``spec.target_abs_error``; the main run then
    gets the target minus the largest ring error, so every estimate's
    adaptive error stays within the target, and ``spec.max_cells`` minus
    the largest ring's cells.

    At an equilibrium the excision dependence expands in even powers of
    ``eps``: each removed disk subtracts disk integrals of functions that
    are smooth there, and the two singular disks of every ordered pair
    contribute exactly zero at any radius by the two-disk identity.  The
    limit is therefore obtained by Richardson extrapolation in
    ``x = eps^2`` through the last (up to three) estimates.

    The main run's error enters the extrapolation error once and the ring
    errors are amplified by the Lagrange weights (see the module
    docstring).  The empirical decay order from the ratio of successive
    differences is reported as a diagnostic; when the differences fail to
    contract (as for non-equilibria, where the truncated values grow like
    ``log(1/eps)``) or sit below three times the ring noise, the fit is
    flagged degenerate and the last estimate is reported unchanged.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two epsilon values")
    for a, b in zip(eps, eps[1:]):
        if not b < a:
            raise ValueError("epsilons must be strictly decreasing")
    if not eps[-1] > 0.0:
        raise ValueError("epsilons must be positive")
    target = spec.target_abs_error
    # a single vortex has no rings to integrate: every estimate is exactly 0
    rings = [(0.0, 0.0, 0, True)] * (len(eps) - 1)
    main_spec = replace(spec, epsilon=eps[0])
    if len(config) > 1:
        _validate_excision(config, main_spec)
        frame, frame_spec, shrink = _frame(config, main_spec)
        area = shrink * shrink
        half = 0.5 * frame_spec.target_abs_error

        def f(zs: np.ndarray) -> np.ndarray:
            return integrand_values(frame, zs)

        rings = []
        for e in eps[1:]:
            raw, err, cells, converged = _integrate_annuli(
                f, frame.positions, e * shrink, frame_spec.epsilon, half, spec.max_cells
            )
            # only the real part is used, in the caller's units
            rings.append((raw.real * area, err * area, cells, converged))
        # a ring that missed its half of the target is flagged unconverged;
        # the main run still keeps at least the other half
        worst = max(err for _, err, _, _ in rings)
        main_spec = replace(
            main_spec,
            target_abs_error=target - min(worst, 0.5 * target),
            max_cells=max(spec.max_cells - max(cells for _, _, cells, _ in rings), 1),
        )
    main = correlation_A_eps(config, main_spec)
    estimates = (main,) + tuple(
        QuadratureResult(
            value=main.value + raw,
            abs_error_estimate=main.abs_error_estimate + err,
            tail_correction=main.tail_correction,
            cells_used=main.cells_used + cells,
            converged=main.converged and converged,
        )
        for raw, err, cells, converged in rings
    )
    values = [est.value for est in estimates]
    noises = [0.0] + [err for _, err, _, _ in rings]

    use = min(3, len(eps))
    xs = [e * e for e in eps[-use:]]
    ys = values[-use:]
    noise = math.fsum(noises[-use:])

    d_last = values[-1] - values[-2]
    if abs(d_last) <= 3.0 * noise:
        return CorrelationReport(
            epsilons=tuple(eps),
            estimates=estimates,
            extrapolated_limit=values[-1],
            extrapolation_error=estimates[-1].abs_error_estimate,
            fit_degenerate=True,
        )

    order = None
    if len(eps) >= 3:
        d1 = values[-2] - values[-3]
        d2 = d_last
        ratio = d2 / d1 if d1 != 0.0 else math.inf
        if not 0.0 < ratio < 1.0:
            return CorrelationReport(
                epsilons=tuple(eps),
                estimates=estimates,
                extrapolated_limit=values[-1],
                extrapolation_error=estimates[-1].abs_error_estimate + abs(d2),
                fit_degenerate=True,
            )
        order = math.log(ratio) / math.log(eps[-1] / eps[-2])

    limit, amplification = _lagrange_at_zero(xs, ys)
    if use == 3:
        shallow, _ = _lagrange_at_zero(xs[-2:], ys[-2:])
        model_spread = abs(limit - shallow)
    else:
        model_spread = abs(limit - values[-1]) * (xs[-1] / xs[-2])
    extrap_error = (
        main.abs_error_estimate + amplification * max(noises[-use:]) + model_spread
    )
    return CorrelationReport(
        epsilons=tuple(eps),
        estimates=estimates,
        extrapolated_limit=limit,
        extrapolation_error=extrap_error,
        fit_degenerate=False,
        order_estimate=order,
    )


def default_quadrature_spec(config: VortexConfiguration) -> QuadratureSpec:
    """Defaults: ``eps = 0.1 * min separation``, ``R = 50 * (1 + diameter)``,
    target ``1e-5``, two million cells."""
    sep = config.min_separation
    return QuadratureSpec(
        epsilon=0.1 * sep if math.isfinite(sep) else 0.1,
        cutoff_radius=50.0 * (1.0 + config.diameter),
        target_abs_error=1e-5,
        max_cells=2_000_000,
    )


def default_epsilon_list(config: VortexConfiguration) -> list[float]:
    """The default shrinking eps-list ``{0.2, 0.1, 0.05} * min separation``."""
    sep = config.min_separation
    base = sep if math.isfinite(sep) else 1.0
    return [0.2 * base, 0.1 * base, 0.05 * base]
