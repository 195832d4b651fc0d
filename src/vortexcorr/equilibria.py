"""Construction of point-vortex equilibria.

Two routes are provided:

* the polynomial route: chains of Adler-Moser polynomials linked by the
  Wronskian recurrence ``P_{k+1}' P_{k-1} - P_{k+1} P_{k-1}' = (2k+1) P_k^2``
  with ``P_0 = 1`` and ``P_1 = z``.  Placing circulation ``-1`` at the roots
  of ``P_{n-1}`` and ``+1`` at the roots of ``P_n`` yields an equilibrium;
* a damped (Levenberg-Marquardt) Newton refiner that drives every force
  ``f_j`` to zero while a chosen subset of positions moves.

Polynomials are coefficient tuples, lowest degree first.  Roots are the
companion eigenvalues (numpy's ``polyroots``, LAPACK underneath), each
Newton-polished once and checked against a backward-error bound; their
last bits depend on the LAPACK build.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial import polyutils as pu

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
    """The companion eigenvalues failed or some roots miss the backward-error bound."""

    def __init__(self, message: str, failed_indices: tuple[int, ...]):
        super().__init__(message)
        self.failed_indices = failed_indices


class _ChainGateError(ArithmeticError):
    """A chain step misses its degree or recurrence gate."""


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of ``p'`` for the coefficients ``c`` of ``p`` (``[0]`` for a constant)."""
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1, c.dtype)


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_i c_i x^i`` at every ``x``, by Horner's rule as ``P.polyval`` runs it."""
    value = c[-1] + x * 0
    for coefficient in c[-2::-1]:
        value = coefficient + value * x
    return value


def _padded_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of ``a - b``, the shorter one padded with zeros."""
    out = np.zeros(max(len(a), len(b)), dtype=np.complex128)
    out[: len(a)] += a
    out[: len(b)] -= b
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
    polynomials: tuple[tuple[complex, ...], ...]

    def wronskian_defect(self, k: int) -> float:
        """Relative coefficient error of the recurrence at step ``k`` (1-based)."""
        high, mid, low = (
            np.array(self.polynomials[i], dtype=np.complex128) for i in (k + 1, k, k - 1)
        )
        lhs = _padded_difference(
            np.convolve(_derivative(high), low), np.convolve(high, _derivative(low))
        )
        rhs = (2 * k + 1) * np.convolve(mid, mid)
        diff = _padded_difference(lhs, rhs)
        scale = max(np.abs(rhs).max(), 1e-300)
        return float(np.abs(diff).max() / scale)


def _next_chain_polynomial(
    p_prev: tuple[complex, ...], p_mid: tuple[complex, ...], k: int, tau: complex
) -> tuple[complex, ...]:
    """Solve ``Q' P_{k-1} - Q P_{k-1}' = (2k+1) P_k^2`` for ``Q = P_{k+1}``.

    Matching powers gives a triangular system for the coefficients of ``Q``:
    the unknown ``q_i`` appears on the row of degree ``i + p - 1`` with
    diagonal factor ``(i - p) * c_p`` (``p`` the degree of ``P_{k-1}``, ``c_p``
    its leading coefficient).  The single zero diagonal at ``i = p`` is the
    free direction; we set it to zero and add ``tau * P_{k-1}`` afterwards.
    """
    p = len(p_prev) - 1
    m = (k + 1) * (k + 2) // 2
    c = list(p_prev)
    # one entry per row s = i + p - 1 of the system, i = 0 .. m
    rhs = ((2 * k + 1) * np.convolve(p_mid, p_mid)).tolist()
    rhs += [0j] * (m + p - len(rhs))

    # Python complex arithmetic rounds as numpy's scalar arithmetic does, but
    # a complex quotient does not: each division stays numpy's
    q = [0j] * (m + 1)
    for i in range(m, -1, -1):
        if i == p:
            continue  # free coefficient, carried by tau below
        s = i + p - 1
        acc = 0j
        for i2 in range(i + 1, min(m, i + p) + 1):
            acc += q[i2] * (2 * i2 - s - 1) * c[i + p - i2]
        q[i] = complex(np.complex128(rhs[s] - acc) / ((i - p) * c[p]))

    out = np.array(q)
    # an array operation: numpy's array multiply rounds unlike its scalar one
    out[: p + 1] += complex(tau) * np.array(c)
    # trimmed, so the degree gate sees a vanished leading coefficient
    return tuple(pu.trimseq(out).tolist())


def adler_moser_chain(n: int, parameters: Sequence[complex] = ()) -> AdlerMoserChain:
    """Build the chain ``P_0 .. P_n`` for parameters ``tau_2 .. tau_n``.

    ``parameters`` must be finite and have length ``max(n - 1, 0)``.  The
    construction is validated against the chain invariants (degrees and the
    Wronskian recurrence to relative coefficient error ``1e-10``).
    """
    if n < 0:
        raise ValueError("chain index must be nonnegative")
    params = tuple(complex(t) for t in parameters)
    if len(params) != max(n - 1, 0):
        raise ValueError(
            f"chain of index {n} needs {max(n - 1, 0)} parameters, got {len(params)}"
        )
    if not all(cmath.isfinite(t) for t in params):
        raise ValueError(f"chain parameters must be finite (got {params})")
    chain = AdlerMoserChain(n, params, ((1 + 0j,), (0j, 1 + 0j))[: n + 1])
    # each step is gated as it is built: the coefficients past a failing step
    # grow until they overflow, and only the gate reports that
    for k in range(1, n):
        with np.errstate(all="ignore"):
            poly = _next_chain_polynomial(*chain.polynomials[k - 1 :], k, params[k - 1])
            chain = replace(chain, polynomials=(*chain.polynomials, poly))
            defect = chain.wronskian_defect(k)
        expected = (k + 1) * (k + 2) // 2
        if len(poly) - 1 != expected:
            raise _ChainGateError(
                f"chain polynomial {k + 1} has degree {len(poly) - 1}, expected {expected}"
            )
        # a NaN defect fails the gate too
        if not defect <= 1e-10:
            raise _ChainGateError(
                f"chain recurrence defect {defect:.3e} at step {k} exceeds 1e-10"
            )
    return chain


# backward-error bound that every returned root must meet
_ROOT_TOL = 1e-12


def roots(coefficients: Sequence[complex]) -> list[complex]:
    """All roots of ``p(z) = sum_i c_i z^i`` (with multiplicity): companion
    eigenvalues plus one Newton polish.

    ``coefficients`` lists ``c_0, c_1, ...``; trailing zeros are trimmed,
    and the degree left must be at least 1.  The companion eigenvalues come
    from ``numpy.polynomial.polynomial.polyroots`` (LAPACK), in its sorted
    order; each then receives one Newton step.  Each returned root ``r``
    satisfies ``|p(r)| <= 1e-12 * sum_i |c_i| |r|^i``, a bound on the size of
    ``p``'s terms at ``r`` that scales with ``p`` under ``z -> lambda z``.

    Raises :class:`RootConvergenceError` when the eigenvalue solver fails,
    the companion matrix is not finite, or some polished root misses that
    bound.  Multiple roots are returned as computed, without a diagnostic.
    """
    # exact zeros only: polytrim would also drop a NaN leading coefficient
    c = pu.trimseq(np.asarray(coefficients, dtype=np.complex128))
    degree = len(c) - 1
    if degree < 1:
        raise ValueError("the polynomial must have degree at least 1")

    # overflow in the companion matrix or in the polish is reported below,
    # not as a RuntimeWarning
    with np.errstate(all="ignore"):
        try:
            z = P.polyroots(c)
        except np.linalg.LinAlgError as exc:
            raise RootConvergenceError(
                f"companion eigenvalues failed: {exc}", tuple(range(degree))
            ) from exc
        pv = _horner(c, z)
        dv = _horner(_derivative(c), z)
        safe = dv != 0
        z = np.where(safe, z - pv / np.where(safe, dv, 1.0), z)
        bound = _ROOT_TOL * _horner(np.abs(c), np.abs(z))
        ok = np.isfinite(z) & (np.abs(_horner(c, z)) <= bound)
    if not ok.all():
        failed = tuple(int(i) for i in np.nonzero(~ok)[0])
        raise RootConvergenceError(
            f"roots {failed} miss the backward-error bound after the Newton polish",
            failed,
        )
    return [complex(r) for r in z]


def config_from_adler_moser(chain: AdlerMoserChain) -> VortexConfiguration:
    """Equilibrium with circulation ``-1`` at the roots of ``P_{n-1}`` and ``+1`` at those of ``P_n``.

    The root sets must be simple and disjoint; degenerate parameters (for
    example ``tau_2 = 0``, which gives ``P_2 = z^3`` with a triple root)
    raise :class:`DegenerateParametersError`.  One scale-free test finds
    them: a root ``r`` is multiple when ``|P'(r)| <= 1e-6 sum_i |c'_i| |r|^i``
    (``c'`` the derivative's coefficients), and by the Wronskian recurrence
    a root shared by ``P_{n-1}`` and ``P_n`` is multiple in one of them.
    A root-finder failure propagates as :class:`RootConvergenceError`.  The
    result is an equilibrium up to root-finding accuracy; callers may refine
    it further.
    """
    if chain.n < 1:
        raise ValueError("the chain must reach index 1 to define a configuration")
    p_low = chain.polynomials[chain.n - 1]
    p_high = chain.polynomials[chain.n]
    negative = roots(p_low) if len(p_low) > 1 else []
    positive = roots(p_high)

    # a root whose derivative value is negligible against the size of the
    # derivative's terms there is multiple (tau_2 = 0 gives P_2 = z^3);
    # both sides scale alike under z -> lambda z
    for poly, root_list in ((p_low, negative), (p_high, positive)):
        if len(poly) < 3:
            continue
        dp = _derivative(np.array(poly, dtype=np.complex128))
        r = np.array(root_list)
        flat = np.abs(_horner(dp, r)) <= 1e-6 * _horner(np.abs(dp), np.abs(r))
        if flat.any():
            raise DegenerateParametersError(
                f"root {complex(r[flat][0]):.6g} of a chain polynomial looks multiple "
                "(derivative vanishes there); the parameters are degenerate"
            )

    try:
        config = VortexConfiguration(
            tuple(Vortex(r, -1.0) for r in negative)
            + tuple(Vortex(r, +1.0) for r in positive)
        )
    except ConfigurationError as exc:
        raise DegenerateParametersError(str(exc)) from exc

    # near-multiple roots that slip past the derivative test show up as a
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

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


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
    """Complex Jacobian ``d f_j / d a_k`` of the forces over the free positions.

    The forces are holomorphic in the positions, so this N x |free| complex
    matrix is the whole derivative: ``d f_j / d a_k = d_j d_k / (a_j - a_k)^2``
    for ``k != j`` and minus the row sum for ``k == j``.
    """
    d = np.asarray(config.circulations)
    sq = config._differences ** 2
    np.fill_diagonal(sq, 1.0)
    h = np.outer(d, d) / sq
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(h, -h.sum(axis=1))
    return h[:, free_idx]


def _gauge_rows(positions: np.ndarray, free_idx: Sequence[int]) -> np.ndarray:
    """Rows ``g`` with ``g @ shift = 0`` that fix the similarity gauge of a step.

    All vortices free: ``sum shift = 0`` (translation) and
    ``sum conj(a_k - mean a) shift_k = 0`` (rotation and dilation about the
    centroid).  One vortex ``p`` pinned: ``sum conj(a_k - a_p) shift_k = 0``
    (rotation and dilation about ``a_p``).  Two or more pinned: none.
    """
    free_pos = positions[free_idx]
    pinned = len(positions) - len(free_idx)
    if pinned == 0:
        return np.array([np.ones_like(free_pos), np.conj(free_pos - free_pos.mean())])
    if pinned == 1:
        anchor = positions[np.setdiff1d(np.arange(len(positions)), free_idx)[0]]
        return np.conj(free_pos - anchor)[None, :]
    return np.empty((0, len(free_idx)), dtype=np.complex128)


def refine_equilibrium(
    initial: VortexConfiguration,
    free: Sequence[int],
    settings: NewtonSettings = NewtonSettings(),
) -> RefinementResult:
    """Drive every force to zero by moving the positions listed in ``free``.

    Each step is a Levenberg-Marquardt step for the complex least-squares
    system ``J shift = -f`` of the N forces over the |free| free positions
    (the forces are holomorphic, so ``J`` is complex-linear).  From one SVD
    of the stacked system ``A = [J; gauge]`` (gauge rows below) with
    right-hand side ``b``, the step is ``sum_i f_i (u_i^H b) v_i`` with
    filter factors ``f_i = sigma_i / (sigma_i^2 + mu^2)``; singular values at
    or below ``1e-10`` of the largest are dropped.  The damping
    ``mu = max_j |f_j| / diameter`` has the units of ``J``, so the step is
    scale-free and commutes with similarities; at ``mu = 0`` it is the
    pseudo-inverse (Gauss-Newton) step.  Equilibria are often not isolated
    (Adler-Moser ones form continua), and ``J`` then has singular values
    near zero along them; the filter damps those directions instead of
    inverting them.  Damping by the residual (``lambda = mu^2 ~ |f|^2``)
    keeps local quadratic convergence without a nonsingular Jacobian,
    under a local error bound (N. Yamashita and M. Fukushima, *Computing
    Suppl.* 15, 2001; J. Fan and Y. Yuan, *Computing* 74, 2005).  A
    backtracking line search only accepts steps that strictly decrease the
    residual ``max_j |f_j|``; the accepted candidate's forces are the next
    step's right-hand side.  A candidate that breaks a configuration
    invariant, or whose forces leave the floating-point range, is rejected
    like one that does not decrease the residual.

    Similarities map equilibria to equilibria, and the forces are
    homogeneous of degree -1, so ``J a = -f``: without a gauge the
    least-squares step is nearly the dilation ``a -> 2a``, which halves the
    residual while the configuration grows without bound.  Extra rows with
    a zero right-hand side, scaled to ``max |J|``, fix the gauge instead.
    With all vortices free, the step keeps the centroid
    (``sum shift = 0``) and is orthogonal to rotations and dilations about
    it (``sum conj(a_k - mean a) shift_k = 0``).  With exactly one vortex
    ``p`` pinned, the step is orthogonal to rotations and dilations about
    ``a_p`` (``sum conj(a_k - a_p) shift_k = 0``).  Two or more pinned
    vortices fix the gauge themselves and add no rows.  So the refined
    configuration stays near the input's position and scale, and
    refinement commutes with similarities.

    Circulations never change.  On non-convergence the best iterate is
    returned with ``converged=False`` and a diagnostic message.  A Jacobian
    that overflows the floating-point range raises ``ValueError``.
    """
    free_idx = sorted(set(int(i) for i in free))
    if not free_idx:
        raise ValueError("the free index set must be nonempty")
    n = len(initial)
    if free_idx[0] < 0 or free_idx[-1] >= n:
        raise IndexError(f"free indices {free_idx} out of range for {n} vortices")

    current = initial
    cur_forces = forces(current)
    cur_res = max(map(abs, cur_forces))
    history = [cur_res]
    iterations = 0
    message = ""

    while cur_res > settings.tolerance and iterations < settings.max_iterations:
        positions = np.array(current.positions, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jac = _force_jacobian(current, free_idx)
            gauge = _gauge_rows(positions, free_idx)
            gauge *= np.abs(jac).max() / np.abs(gauge).max(axis=1, keepdims=True)
            system = np.vstack([jac, gauge])
        if not np.isfinite(system).all():
            d = np.abs(np.asarray(current.circulations))
            raise ValueError(
                "the Newton Jacobian overflows the floating-point range: "
                f"circulations up to {d.max():.3e} at separations down to "
                f"{current.min_separation:.3e}"
            )
        rhs = -np.concatenate([cur_forces, np.zeros(len(gauge))])
        u, sigma, vh = np.linalg.svd(system, full_matrices=False)
        kept = int(np.count_nonzero(sigma > 1e-10 * sigma[0]))
        # sigma / (sigma^2 + mu^2) without squaring, which could overflow
        h = np.hypot(sigma[:kept], cur_res / current.diameter)
        coefficients = (sigma[:kept] / h) / h * (u[:, :kept].conj().T @ rhs)
        shift = vh[:kept].conj().T @ coefficients

        alpha = 1.0
        accepted = False
        while alpha >= 1e-12:
            cand_pos = positions.copy()
            cand_pos[free_idx] += alpha * shift
            try:
                candidate = VortexConfiguration.from_pairs(
                    zip(cand_pos.tolist(), current.circulations)
                )
                cand_forces = forces(candidate)
            except ValueError:  # a broken invariant or a force out of range
                alpha *= 0.5
                continue
            new_res = max(map(abs, cand_forces))
            if new_res < cur_res:
                current, cur_forces, cur_res = candidate, cand_forces, new_res
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
