"""Construction of point-vortex equilibria.

Two routes are provided:

* the polynomial route: chains of Adler-Moser polynomials linked by the
  Wronskian recurrence ``P_{k+1}' P_{k-1} - P_{k+1} P_{k-1}' = (2k+1) P_k^2``
  with ``P_0 = 1`` and ``P_1 = z``.  Placing circulation ``-1`` at the roots
  of ``P_{n-1}`` and ``+1`` at the roots of ``P_n`` yields an equilibrium;
* a damped Newton refiner that drives every force ``f_j`` to zero while a
  chosen subset of positions moves.

The root finder is a simultaneous Aberth-Ehrlich iteration: deterministic,
all roots at once, robust for the modest degrees that occur here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigurationError,
    Vortex,
    VortexConfiguration,
    forces,
    residual,
)

__all__ = [
    "DegenerateParametersError",
    "RootConvergenceError",
    "NearMultipleRootWarning",
    "Polynomial",
    "AdlerMoserChain",
    "adler_moser_chain",
    "roots",
    "config_from_adler_moser",
    "NewtonSettings",
    "RefinementResult",
    "refine_equilibrium",
    "collinear_triple",
]


class DegenerateParametersError(ValueError):
    """Chain parameters give colliding or multiple roots; no usable configuration."""


class RootConvergenceError(RuntimeError):
    """The simultaneous root iteration hit its cap with unconverged roots."""

    def __init__(self, message: str, failed_indices: tuple[int, ...]):
        super().__init__(message)
        self.failed_indices = failed_indices


class NearMultipleRootWarning(UserWarning):
    """Two computed roots are close enough to suggest a multiple root."""


@dataclass(frozen=True)
class Polynomial:
    """Dense complex polynomial; coefficients ordered lowest degree first.

    The representation is normalised: trailing zero coefficients are
    trimmed on construction so the leading coefficient is nonzero (the
    constant zero polynomial keeps the single coefficient ``0``).
    """

    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_roots(cls, root_list: Sequence[complex], leading: complex = 1.0) -> "Polynomial":
        coeffs = np.array([complex(leading)], dtype=np.complex128)
        for r in root_list:
            coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0]))
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        """Horner evaluation; works for scalars and numpy arrays alike."""
        result = self.coefficients[-1]
        if isinstance(z, np.ndarray):
            result = np.full_like(z, result, dtype=np.complex128)
        for c in reversed(self.coefficients[:-1]):
            result = result * z + c
        return result

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(
            tuple(i * c for i, c in enumerate(self.coefficients) if i > 0)
        )

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            prod = np.convolve(
                np.asarray(self.coefficients), np.asarray(other.coefficients)
            )
            return Polynomial(tuple(prod))
        return Polynomial(tuple(complex(other) * c for c in self.coefficients))

    __rmul__ = __mul__

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [0j] * (n - len(self.coefficients))
        b = list(other.coefficients) + [0j] * (n - len(other.coefficients))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1.0) * other


def _wronskian_coeffs(p: Polynomial, q: Polynomial) -> np.ndarray:
    """Coefficients of ``p' q - p q'``."""
    pa = np.asarray(p.coefficients)
    qa = np.asarray(q.coefficients)
    dpa = np.asarray(p.derivative().coefficients)
    dqa = np.asarray(q.derivative().coefficients)
    left = np.convolve(dpa, qa)
    right = np.convolve(pa, dqa)
    n = max(len(left), len(right))
    out = np.zeros(n, dtype=np.complex128)
    out[: len(left)] += left
    out[: len(right)] -= right
    return out


@dataclass(frozen=True)
class AdlerMoserChain:
    """Polynomials ``P_0 .. P_n`` satisfying the Wronskian recurrence.

    ``deg P_k = k(k+1)/2`` and consecutive triples satisfy
    ``P_{k+1}' P_{k-1} - P_{k+1} P_{k-1}' = (2k+1) P_k^2`` coefficient-wise.
    The parameter ``tau_{k+1}`` enters linearly: it multiplies the ``P_{k-1}``
    direction, which spans the kernel of the recurrence at each step.
    """

    n: int
    parameters: tuple[complex, ...]
    polynomials: tuple[Polynomial, ...]

    def wronskian_defect(self, k: int) -> float:
        """Relative coefficient error of the recurrence at step ``k`` (1-based)."""
        lhs = _wronskian_coeffs(self.polynomials[k + 1], self.polynomials[k - 1])
        rhs = np.asarray(
            ((2 * k + 1) * (self.polynomials[k] * self.polynomials[k])).coefficients
        )
        n = max(len(lhs), len(rhs))
        diff = np.zeros(n, dtype=np.complex128)
        diff[: len(lhs)] += lhs
        diff[: len(rhs)] -= rhs
        scale = max(np.abs(rhs).max(), 1e-300)
        return float(np.abs(diff).max() / scale)


def _next_chain_polynomial(
    p_prev: Polynomial, p_mid: Polynomial, k: int, tau: complex
) -> Polynomial:
    """Solve ``Q' P_{k-1} - Q P_{k-1}' = (2k+1) P_k^2`` for ``Q = P_{k+1}``.

    Matching powers gives a triangular system for the coefficients of ``Q``:
    the unknown ``q_i`` appears on the row of degree ``i + p - 1`` with
    diagonal factor ``(i - p) * c_p`` (``p`` the degree of ``P_{k-1}``, ``c_p``
    its leading coefficient).  The single zero diagonal at ``i = p`` is the
    free direction; we set it to zero and add ``tau * P_{k-1}`` afterwards.
    """
    p = p_prev.degree
    m = (k + 1) * (k + 2) // 2
    c = np.zeros(p + 1, dtype=np.complex128)
    c[: len(p_prev.coefficients)] = p_prev.coefficients
    rhs_poly = (2 * k + 1) * (p_mid * p_mid)
    rhs = np.zeros(m + p, dtype=np.complex128)
    rhs[: len(rhs_poly.coefficients)] = rhs_poly.coefficients

    q = np.zeros(m + 1, dtype=np.complex128)
    for i in range(m, -1, -1):
        if i == p:
            continue  # free coefficient, carried by tau below
        s = i + p - 1
        acc = 0j
        for i2 in range(i + 1, min(m, s + 1) + 1):
            ridx = s - i2 + 1
            if 0 <= ridx <= p:
                acc += q[i2] * (2 * i2 - s - 1) * c[ridx]
        q[i] = (rhs[s] - acc) / ((i - p) * c[p])

    q[: p + 1] += complex(tau) * c
    return Polynomial(tuple(q))


def adler_moser_chain(n: int, parameters: Sequence[complex] = ()) -> AdlerMoserChain:
    """Build the chain ``P_0 .. P_n`` for parameters ``tau_2 .. tau_n``.

    ``parameters`` must have length ``max(n - 1, 0)``.  The construction is
    validated against the chain invariants (degrees and the Wronskian
    recurrence to relative coefficient error ``1e-10``).
    """
    if n < 0:
        raise ValueError("chain index must be nonnegative")
    params = tuple(complex(t) for t in parameters)
    if len(params) != max(n - 1, 0):
        raise ValueError(
            f"chain of index {n} needs {max(n - 1, 0)} parameters, got {len(params)}"
        )
    polys = [Polynomial((1 + 0j,))]
    if n >= 1:
        polys.append(Polynomial((0j, 1 + 0j)))
    for k in range(1, n):
        polys.append(_next_chain_polynomial(polys[k - 1], polys[k], k, params[k - 1]))
    chain = AdlerMoserChain(n=n, parameters=params, polynomials=tuple(polys))

    for k, poly in enumerate(chain.polynomials):
        expected = k * (k + 1) // 2
        if poly.degree != expected:
            raise ArithmeticError(
                f"chain polynomial {k} has degree {poly.degree}, expected {expected}"
            )
    for k in range(1, n):
        defect = chain.wronskian_defect(k)
        if defect > 1e-10:
            raise ArithmeticError(
                f"chain recurrence defect {defect:.3e} at step {k} exceeds 1e-10"
            )
    return chain


def _close_pairs(z: np.ndarray, threshold: float) -> np.ndarray:
    """Index pairs ``(i, j)``, ``i < j``, with ``|z_i - z_j| < threshold``, in row-major order."""
    return np.argwhere(np.triu(np.abs(z[:, None] - z[None, :]) < threshold, 1))


def roots(p: Polynomial, tol: float = 1e-12) -> list[complex]:
    """All roots of ``p`` (with multiplicity) by simultaneous Aberth iteration.

    Starting points sit on the circle given by the Cauchy coefficient bound
    with a fixed phase offset of 0.376 rad to break symmetry ties; the
    iteration is capped at 200 sweeps and each root receives one final
    Newton polish.  Each returned root ``r`` satisfies
    ``|p(r)| <= tol * sum_i |c_i| max(1, |r|)^i``.

    Raises :class:`RootConvergenceError` when some roots fail to converge;
    emits :class:`NearMultipleRootWarning` when two roots end up closer than
    ``1e-6 * (1 + max |root|)``.
    """
    if p.degree < 1:
        raise ValueError("the polynomial must have degree at least 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    n = p.degree
    dp = p.derivative()
    abs_c = np.abs(np.asarray(p.coefficients, dtype=np.complex128))

    bound = 1.0 + float(abs_c[:-1].max()) / float(abs_c[-1])
    angles = 2.0 * np.pi * np.arange(n) / n + 0.376
    z = bound * np.exp(1j * angles)

    done = np.zeros(n, dtype=bool)
    for _ in range(200):
        pv = p(z)
        # coefficient scale anchored at 1 so roots at the origin stay reachable
        scale = np.polynomial.polynomial.polyval(np.maximum(1.0, np.abs(z)), abs_c)
        done = np.abs(pv) <= tol * scale
        if done.all():
            break
        dv = dp(z)
        dv = np.where(dv == 0, 1e-300, dv)
        newton = pv / dv
        pairwise = z[:, None] - z[None, :]
        np.fill_diagonal(pairwise, 1.0)
        inv = 1.0 / pairwise
        np.fill_diagonal(inv, 0.0)
        repel = inv.sum(axis=1)
        step = newton / (1.0 - newton * repel)
        z = np.where(done, z, z - step)
    else:
        failed = tuple(int(i) for i in np.nonzero(~done)[0])
        raise RootConvergenceError(
            f"root iteration did not converge for indices {failed} after 200 sweeps",
            failed,
        )

    # one Newton polish per root
    pv = p(z)
    dv = dp(z)
    safe = dv != 0
    z = np.where(safe, z - pv / np.where(safe, dv, 1.0), z)

    for i, j in _close_pairs(z, 1e-6 * (1.0 + float(np.abs(z).max()))):
        warnings.warn(
            f"roots {i} and {j} are within 1e-6 of each other; "
            "they may form a multiple root",
            NearMultipleRootWarning,
            stacklevel=2,
        )
    return [complex(r) for r in z]


def config_from_adler_moser(chain: AdlerMoserChain) -> VortexConfiguration:
    """Equilibrium with circulation ``-1`` at the roots of ``P_{n-1}`` and ``+1`` at those of ``P_n``.

    The root sets must be simple and disjoint; degenerate parameters (for
    example ``tau_2 = 0``, which gives ``P_2 = z^3`` with a triple root)
    raise :class:`DegenerateParametersError`.  The result is an equilibrium
    up to root-finding accuracy; callers may refine it further.
    """
    if chain.n < 1:
        raise ValueError("the chain must reach index 1 to define a configuration")
    p_low = chain.polynomials[chain.n - 1]
    p_high = chain.polynomials[chain.n]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearMultipleRootWarning)
            negative = roots(p_low) if p_low.degree >= 1 else []
            positive = roots(p_high)
    except RootConvergenceError as exc:
        raise DegenerateParametersError(
            f"root finding failed ({exc}); the parameters look degenerate"
        ) from exc

    points = np.array(negative + positive, dtype=np.complex128)
    if len(_close_pairs(points, 1e-6 * (1.0 + float(np.abs(points).max())))):
        raise DegenerateParametersError(
            "two roots of the chain polynomials collide; "
            "the parameters are degenerate"
        )
    # a simple root whose derivative value is negligible against the
    # derivative's coefficient scale cannot be located reliably: treat it
    # as a multiple root (tau_2 = 0 gives P_2 = z^3 with a triple root)
    for poly, root_list in ((p_low, negative), (p_high, positive)):
        if poly.degree < 2:
            continue
        dp = poly.derivative()
        dscale = [abs(c) for c in dp.coefficients]
        for r in root_list:
            anchor = max(1.0, abs(r))
            bound = math.fsum(s * anchor**i for i, s in enumerate(dscale))
            if abs(dp(r)) <= 1e-6 * bound:
                raise DegenerateParametersError(
                    f"root {r:.6g} of a chain polynomial looks multiple "
                    "(derivative vanishes there); the parameters are degenerate"
                )

    try:
        config = VortexConfiguration(
            tuple(Vortex(r, -1.0) for r in negative)
            + tuple(Vortex(r, +1.0) for r in positive)
        )
    except ConfigurationError as exc:
        raise DegenerateParametersError(str(exc)) from exc

    # near-multiple roots that slip past the distance check show up as a
    # grossly non-equilibrium force balance
    force_scale = len(config) ** 2 / config.min_separation
    if residual(config) > 1e-6 * force_scale:
        raise DegenerateParametersError(
            "the constructed configuration is far from equilibrium; "
            "the chain parameters look degenerate"
        )
    return config


@dataclass(frozen=True)
class NewtonSettings:
    """Controls for the damped Newton refinement."""

    max_iterations: int = 50
    tolerance: float = 1e-12
    damping: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of :func:`refine_equilibrium`, best iterate included."""

    configuration: VortexConfiguration
    residual: float
    iterations: int
    converged: bool
    message: str = ""
    residual_history: tuple[float, ...] = ()


def _force_jacobian(config: VortexConfiguration, free_idx: Sequence[int]) -> np.ndarray:
    """Real Jacobian of the stacked (Re f_j, Im f_j) with respect to free positions.

    ``d f_j / d a_k = d_j d_k / (a_j - a_k)^2`` for ``k != j`` and minus the
    row sum for ``k == j``; each complex derivative ``h`` becomes the 2x2
    block ``[[Re h, -Im h], [Im h, Re h]]``.
    """
    d = np.asarray(config.circulations)
    sq = config._differences ** 2
    np.fill_diagonal(sq, 1.0)
    h = np.outer(d, d) / sq
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(h, -h.sum(axis=1))
    cols = h[:, free_idx]
    jac = np.empty((2 * len(config), 2 * len(free_idx)))
    jac[0::2, 0::2] = cols.real
    jac[0::2, 1::2] = -cols.imag
    jac[1::2, 0::2] = cols.imag
    jac[1::2, 1::2] = cols.real
    return jac


def _config_with_positions(
    template: VortexConfiguration, positions: Sequence[complex]
) -> VortexConfiguration:
    return VortexConfiguration(
        tuple(
            Vortex(complex(p), v.circulation)
            for p, v in zip(positions, template.vortices)
        )
    )


def refine_equilibrium(
    initial: VortexConfiguration,
    free: Sequence[int],
    settings: NewtonSettings = NewtonSettings(),
) -> RefinementResult:
    """Drive every force to zero by moving the positions listed in ``free``.

    Newton steps solve the least-squares system for the full force vector
    (2N real equations) over the free coordinates (2 |free| unknowns) via an
    SVD with singular values below ``1e-10`` of the largest truncated; the
    minimum-norm step leaves out the translations, which never change the
    forces.  A backtracking line search only accepts steps that strictly
    decrease the residual.

    The SVD does not fix the scale.  The forces are homogeneous of degree
    -1, so ``J a = -f`` exactly: when at most one vortex is pinned, the
    dilation ``a -> 2a`` about the centroid (or about the pinned vortex)
    solves the Newton system, and the least-squares step is close to it.
    Each step then halves every force while the configuration doubles, so
    the residual can fall below the tolerance far from any equilibrium
    (Adler-Moser n=3 perturbed by ``1e-3`` of its minimum separation, all
    vortices free: 31 iterations, diameter 3.15 -> 6.8e9, residual times
    ``min_separation`` still 1.6e-3).  Pinning two vortices fixes the scale.

    Circulations never change.  On non-convergence the best iterate is
    returned with ``converged=False`` and a diagnostic message.
    """
    free_idx = sorted(set(int(i) for i in free))
    if not free_idx:
        raise ValueError("the free index set must be nonempty")
    n = len(initial)
    if free_idx[0] < 0 or free_idx[-1] >= n:
        raise IndexError(f"free indices {free_idx} out of range for {n} vortices")

    current = initial
    cur_res = residual(current)
    history = [cur_res]
    iterations = 0
    message = ""

    while cur_res > settings.tolerance and iterations < settings.max_iterations:
        # (Re f_1, Im f_1, Re f_2, ...): the row order of the Jacobian
        rhs = -np.array(forces(current), dtype=np.complex128).view(np.float64)
        jac = _force_jacobian(current, free_idx)
        step, *_ = np.linalg.lstsq(jac, rhs, rcond=1e-10)
        # (Re, Im) pairs of the step back to one complex shift per free vortex
        shift = step.view(np.complex128)

        alpha = settings.damping
        accepted = False
        while alpha >= 1e-12:
            cand_pos = np.array(current.positions, dtype=np.complex128)
            cand_pos[free_idx] += alpha * shift
            try:
                candidate = _config_with_positions(current, cand_pos)
            except ConfigurationError:
                alpha *= 0.5
                continue
            new_res = residual(candidate)
            if new_res < cur_res:
                current = candidate
                cur_res = new_res
                accepted = True
                break
            alpha *= 0.5
        iterations += 1
        if not accepted:
            message = f"line search stalled at residual {cur_res:.3e}"
            break
        history.append(cur_res)

    converged = cur_res <= settings.tolerance
    if not converged and not message:
        message = (
            f"residual {cur_res:.3e} above tolerance {settings.tolerance:.3e} "
            f"after {iterations} iterations"
        )
    return RefinementResult(
        configuration=current,
        residual=cur_res,
        iterations=iterations,
        converged=converged,
        message=message,
        residual_history=tuple(history),
    )


def collinear_triple() -> VortexConfiguration:
    """The symmetric three-vortex equilibrium on the real axis.

    Unit circulations at -1 and +1 with circulation -1/2 at the origin;
    direct substitution makes every force vanish.
    """
    return VortexConfiguration.from_pairs(
        [(-1.0, 1.0), (0.0, -0.5), (1.0, 1.0)]
    )
