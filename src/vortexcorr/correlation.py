"""The correlation coefficient of a vortex configuration.

``A_eps`` integrates ``|sum_j d_j/(z-a_j)|^4 - sum_j d_j^4/|z-a_j|^4`` over
the plane with a disk of radius ``eps`` removed around every vortex; the
correlation coefficient ``A`` is its ``eps -> 0`` limit.  At every
equilibrium that limit is zero, which this module reproduces numerically:
truncate to a large disk ``B_R``, integrate adaptively, add the analytic
far-field tail, and extrapolate a short list of shrinking ``eps`` values.

The two-disk identity -- the integral of
``1/(conj(z-p)^2 (z-q)^2)`` over the plane minus eps-disks at ``p`` and
``q`` vanishes -- is checked by direct quadrature in :func:`pair_integral`,
and :func:`moebius_params` exposes the fractional-linear map that turns
that two-disk geometry into a round annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import VortexConfiguration
from .rational import integrand_values
from .quadrature import (
    DiskExcision,
    QuadratureResult,
    QuadratureSpec,
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


def _excisions_for(points: Sequence[complex], epsilon: float) -> list[DiskExcision]:
    """Partition-of-unity excisions around the given points.

    The cutoff plateau must cover the excised radius and the supports of
    neighbouring excisions must stay disjoint, which restricts ``epsilon``
    to slightly less than half the minimum pairwise distance.
    """
    points = [complex(p) for p in points]
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    out = []
    for i, c in enumerate(points):
        mdist = min(abs(c - q) for j, q in enumerate(points) if j != i)
        if epsilon >= 0.5 * mdist:
            raise ValueError(
                f"excision radius {epsilon} overlaps a neighbour: half the "
                f"distance from point {i} to its nearest neighbour is {0.5 * mdist}"
            )
        plateau = max(1.05 * epsilon, 0.25 * mdist)
        support = 0.45 * mdist
        if plateau >= 0.98 * support:
            support = min(0.495 * mdist, 1.35 * plateau)
        if plateau >= 0.98 * support:
            raise ValueError(
                f"excision radius {epsilon} leaves no room for the cutoff "
                f"around point {i} (nearest neighbour at distance {mdist})"
            )
        out.append(DiskExcision(center=c, radius=epsilon, plateau=plateau, support=support))
    return out


def _pair_kernel(p: complex, q: complex):
    """Vectorised ``1 / (conj(z - p)^2 (z - q)^2)``."""

    def f(zs: np.ndarray) -> np.ndarray:
        left = np.conj(zs - p)
        right = zs - q
        return 1.0 / (left * left * right * right)

    return f


def _pair_tail(p: complex, q: complex, radius: float) -> complex:
    """Analytic integral of the pair kernel over ``|z| > radius``.

    From the large-``|z|`` expansion only the rotation-invariant terms
    survive the angular integral:
    ``pi/R^2 + 2 pi conj(p) q / R^4 + O(R^-6)``.
    """
    r2 = radius * radius
    return math.pi / r2 + 2.0 * math.pi * complex(p).conjugate() * q / (r2 * r2)


def _pair_tail_budget(p: complex, q: complex, radius: float) -> float:
    # conservative cover for the dropped expansion terms
    return 100.0 * (1.0 + max(abs(p), abs(q))) ** 4 / radius**4


def pair_integral(
    p: complex, q: complex, epsilon: float, spec: QuadratureSpec
) -> QuadratureResult:
    """Quadrature check of the two-disk identity for the pair kernel.

    Integrates ``1/(conj(z-p)^2 (z-q)^2)`` over the disk of radius
    ``spec.cutoff_radius`` centred at the pair midpoint, minus the two
    ``epsilon``-disks, then adds the analytic far-field tail.  The exact
    plane integral is zero, so the reported value -- the modulus of the
    corrected complex estimate -- should not exceed the error estimate.
    """
    p = complex(p)
    q = complex(q)
    sep = abs(p - q)
    if not epsilon < 0.5 * sep:
        raise ValueError(
            f"epsilon must be below half the pair separation {0.5 * sep} (got {epsilon})"
        )
    if not spec.cutoff_radius > 2.0 * (sep + 1.0):
        raise ValueError(
            f"cutoff_radius must exceed 2 * (separation + 1) = {2.0 * (sep + 1.0)}"
        )
    mid = 0.5 * (p + q)
    p0 = p - mid
    q0 = q - mid
    excisions = _excisions_for([p0, q0], epsilon)
    raw, err, cells, converged = integrate_excised_disk(
        _pair_kernel(p0, q0),
        excisions,
        spec.cutoff_radius,
        spec.target_abs_error,
        spec.max_cells,
    )
    tail = _pair_tail(p0, q0, spec.cutoff_radius)
    estimate = raw + tail
    total_err = err + _pair_tail_budget(p0, q0, spec.cutoff_radius)
    return QuadratureResult(
        value=abs(estimate),
        abs_error_estimate=total_err,
        tail_correction=complex(tail).real,
        cells_used=cells,
        converged=converged,
    )


def _validate_radius(config: VortexConfiguration, spec: QuadratureSpec) -> None:
    need = 2.0 * (config.diameter + 1.0)
    if not spec.cutoff_radius > need:
        raise ValueError(
            f"cutoff_radius {spec.cutoff_radius} must exceed "
            f"2 * (diameter + 1) = {need}"
        )


def correlation_A_eps(
    config: VortexConfiguration, spec: QuadratureSpec
) -> QuadratureResult:
    """Truncated principal-value estimate of the correlation coefficient.

    Integrates the correlation integrand over ``B_R`` minus an
    ``spec.epsilon``-disk around every vortex, then adds the analytic tail
    ``pi * ((sum d_j)^4 - sum d_j^4) / R^2``; the residual far-field error
    is budgeted at ``10 * (sum |d_j|)^4 * diameter / R^3`` inside the error
    estimate.  A single vortex gives exactly zero without quadrature.
    """
    d = config.circulations
    if len(config) == 1:
        return QuadratureResult(
            value=0.0, abs_error_estimate=0.0, tail_correction=0.0, cells_used=0
        )
    if not spec.epsilon < 0.5 * config.min_separation:
        raise ValueError(
            f"epsilon {spec.epsilon} must be below half the minimum pairwise "
            f"distance {0.5 * config.min_separation}; the excised disks overlap"
        )
    _validate_radius(config, spec)
    excisions = _excisions_for(config.positions, spec.epsilon)

    def f(zs: np.ndarray) -> np.ndarray:
        return integrand_values(config, zs)

    raw, err, cells, converged = integrate_excised_disk(
        f, excisions, spec.cutoff_radius, spec.target_abs_error, spec.max_cells
    )
    r2 = spec.cutoff_radius * spec.cutoff_radius
    tail = math.pi * (sum(d) ** 4 - sum(x**4 for x in d)) / r2
    return QuadratureResult(
        value=raw.real + tail,
        abs_error_estimate=err + _far_field_budget(config, spec.cutoff_radius),
        tail_correction=tail,
        cells_used=cells,
        converged=converged,
    )


def cross_pair_truncated(
    config: VortexConfiguration,
    j: int,
    k: int,
    epsilon: float,
    spec: QuadratureSpec,
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
    _validate_radius(config, spec)
    p = config.positions[j]
    q = config.positions[k]
    if not epsilon < 0.5 * abs(p - q):
        raise ValueError(
            f"epsilon {epsilon} must be below half the pair separation {0.5 * abs(p - q)}"
        )
    weight = (config.circulations[j] * config.circulations[k]) ** 2
    excisions = _excisions_for([p, q], epsilon)
    for exc in excisions:
        if abs(exc.center) + exc.support >= spec.cutoff_radius:
            raise ValueError(
                "cutoff_radius too small to contain the pair excisions"
            )
    kernel = _pair_kernel(p, q)

    def f(zs: np.ndarray) -> np.ndarray:
        return weight * kernel(zs)

    raw, err, cells, converged = integrate_excised_disk(
        f, excisions, spec.cutoff_radius, spec.target_abs_error, spec.max_cells
    )
    tail = weight * _pair_tail(p, q, spec.cutoff_radius)
    estimate = raw + tail
    total_err = (
        err
        + weight * _pair_tail_budget(p, q, spec.cutoff_radius)
        + abs(estimate.imag)
    )
    return QuadratureResult(
        value=estimate.real,
        abs_error_estimate=total_err,
        tail_correction=complex(tail).real,
        cells_used=cells,
        converged=converged,
    )


@dataclass(frozen=True)
class CorrelationReport:
    """A_eps estimates over a shrinking eps-list with an extrapolated limit.

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


def _far_field_budget(config: VortexConfiguration, cutoff_radius: float) -> float:
    d = config.circulations
    return 10.0 * sum(abs(x) for x in d) ** 4 * config.diameter / cutoff_radius**3


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
    config: VortexConfiguration,
    epsilons: Sequence[float],
    spec: QuadratureSpec,
) -> CorrelationReport:
    """Estimate ``lim A_eps`` from estimates over a shrinking eps-list.

    At an equilibrium the excision dependence expands in even powers of
    ``eps``: each removed disk subtracts disk integrals of functions that
    are smooth there, and the two singular disks of every ordered pair
    contribute exactly zero at any radius by the two-disk identity.  The
    limit is therefore obtained by Richardson extrapolation in
    ``x = eps^2`` through the last (up to three) estimates.

    The empirical decay order from the ratio of successive differences is
    reported as a diagnostic; when the differences fail to contract (as for
    non-equilibria, where the truncated values grow like ``log(1/eps)``) or
    sit below three times the quadrature noise, the fit is flagged
    degenerate and the last estimate is reported unchanged.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two epsilon values")
    for a, b in zip(eps, eps[1:]):
        if not b < a:
            raise ValueError("epsilons must be strictly decreasing")
    estimates = tuple(
        correlation_A_eps(config, replace(spec, epsilon=e)) for e in eps
    )
    values = [est.value for est in estimates]
    # the conservative far-field budget is systematic and identical across
    # the eps-list; only the adaptive part acts as noise on differences
    tail_budget = _far_field_budget(config, spec.cutoff_radius)
    noises = [max(est.abs_error_estimate - tail_budget, 0.0) for est in estimates]

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
    extrap_error = tail_budget + amplification * max(noises[-use:], default=0.0) + model_spread
    return CorrelationReport(
        epsilons=tuple(eps),
        estimates=estimates,
        extrapolated_limit=limit,
        extrapolation_error=extrap_error,
        fit_degenerate=False,
        order_estimate=order,
    )


def default_quadrature_spec(
    config: VortexConfiguration, epsilon: float | None = None
) -> QuadratureSpec:
    """Defaults: ``eps = 0.1 * min separation``, ``R = 50 * (1 + diameter)``,
    target ``1e-5``, two million cells."""
    if epsilon is None:
        sep = config.min_separation
        epsilon = 0.1 * sep if math.isfinite(sep) else 0.1
    return QuadratureSpec(
        epsilon=float(epsilon),
        cutoff_radius=50.0 * (1.0 + config.diameter),
        target_abs_error=1e-5,
        max_cells=2_000_000,
    )


def default_epsilon_list(config: VortexConfiguration) -> list[float]:
    """The default shrinking eps-list ``{0.2, 0.1, 0.05} * min separation``."""
    sep = config.min_separation
    base = sep if math.isfinite(sep) else 1.0
    return [0.2 * base, 0.1 * base, 0.05 * base]
