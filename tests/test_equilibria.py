import cmath
import math
import random
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from vortexcorr import (
    DegenerateParametersError,
    NewtonSettings,
    RootConvergenceError,
    Similarity,
    VortexConfiguration,
    adler_moser_chain,
    collinear_triple,
    config_from_adler_moser,
    forces,
    refine_equilibrium,
    residual,
    roots,
    transform,
)
import vortexcorr.equilibria as equilibria
from vortexcorr.equilibria import _force_jacobian

from conftest import random_configuration


# ------------------------------------------------------------------- chains


def test_chain_base_cases():
    ch0 = adler_moser_chain(0)
    assert ch0.polynomials == ((1.0 + 0j,),)
    ch1 = adler_moser_chain(1)
    assert ch1.polynomials == ((1.0 + 0j,), (0j, 1.0 + 0j))


def test_chain_parameter_count_validation():
    with pytest.raises(ValueError):
        adler_moser_chain(2, [])
    with pytest.raises(ValueError):
        adler_moser_chain(1, [1.0])
    with pytest.raises(ValueError):
        adler_moser_chain(-1)


def test_chain_rejects_non_finite_parameters():
    for tau in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            adler_moser_chain(3, [tau, 1.0])


def test_chain_defect_gate_fails_on_nan(monkeypatch):
    monkeypatch.setattr(equilibria.AdlerMoserChain, "wronskian_defect", lambda self, k: math.nan)
    with pytest.raises(ArithmeticError, match="defect nan"):
        adler_moser_chain(3, [1.0, 1.0])


def test_chain_gate_fails_at_the_first_failing_step():
    # with every tau = 1 step 7 misses the gate; the steps after it would
    # overflow, and tier-1 turns numpy's warnings into errors
    with pytest.raises(ArithmeticError, match="recurrence defect .* at step 7 exceeds 1e-10"):
        adler_moser_chain(20, [1.0] * 19)


def test_chain_degree_gate_sees_a_vanished_leading_coefficient(monkeypatch):
    # P_1 = 1e-200 z squares to zero, so every coefficient above the tau
    # direction vanishes and the step comes back trimmed to degree 0
    step = equilibria._next_chain_polynomial((1 + 0j,), (0j, 1e-200 + 0j), 1, 2.0)
    assert step == (2 + 0j,)
    monkeypatch.setattr(equilibria, "_next_chain_polynomial", lambda *args: step)
    with pytest.raises(ArithmeticError, match="degree 0, expected 3"):
        adler_moser_chain(2, [2.0])


def test_chain_n2_explicit():
    tau = 0.7 + 0.2j
    ch = adler_moser_chain(2, [tau])
    assert ch.polynomials[2] == (tau, 0j, 0j, 1.0 + 0j)
    # recurrence at k=1: P_2' P_0 - P_2 P_0' = 3 z^2 = 3 P_1^2
    assert ch.wronskian_defect(1) < 1e-14


def _wronskian_matrix(base, rows: int, cols: int) -> np.ndarray:
    """Matrix of Q -> Q' base - Q base' acting on coefficient vectors."""
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i in range(cols):
        mono = (0j,) * i + (1.0 + 0j,)
        image = P.polysub(P.polymul(P.polyder(mono), base), P.polymul(mono, P.polyder(base)))
        for s, c in enumerate(image):
            if s < rows:
                out[s, i] = c
    return out


def test_chain_n3_matches_independent_linear_solve():
    tau, sigma = 0.7 + 0.2j, -1.1j
    ch = adler_moser_chain(3, [tau, sigma])
    # hand-derived closed form: z^6 + 5 tau z^3 + sigma z - 5 tau^2
    expected = np.zeros(7, dtype=np.complex128)
    expected[6] = 1.0
    expected[3] = 5.0 * tau
    expected[1] = sigma
    expected[0] = -5.0 * tau * tau
    assert np.allclose(np.array(ch.polynomials[3]), expected, atol=1e-12)

    # independent oracle: assemble the full linear system and least-squares it;
    # the kernel direction is P_1 = z, so the minimum-norm particular solution
    # has no z-component and the parameter enters as sigma * P_1
    p1 = ch.polynomials[1]
    rhs_poly = 5.0 * P.polymul(ch.polynomials[2], ch.polynomials[2])
    rhs = np.zeros(7, dtype=np.complex128)
    rhs[: len(rhs_poly)] = rhs_poly
    matrix = _wronskian_matrix(p1, 7, 7)
    particular, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    oracle = particular.copy()
    oracle[1] += sigma
    assert np.allclose(np.array(ch.polynomials[3]), oracle, atol=1e-10)


def test_chain_invariants_to_n5(rng):
    for _ in range(5):
        n = 5
        params = [
            complex(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]), rng.uniform(-0.5, 0.5))
            for _ in range(n - 1)
        ]
        ch = adler_moser_chain(n, params)
        for k, poly in enumerate(ch.polynomials):
            assert len(poly) - 1 == k * (k + 1) // 2
        for k in range(1, n):
            assert ch.wronskian_defect(k) < 1e-10


# -------------------------------------------------------------------- roots


def test_roots_cube_roots_of_minus_one():
    p = (1.0, 0.0, 0.0, 1.0)
    found = sorted(roots(p), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    expected = sorted(
        [cmath.exp(1j * math.pi / 3), -1.0 + 0j, cmath.exp(-1j * math.pi / 3)],
        key=lambda z: (round(z.real, 6), round(z.imag, 6)),
    )
    for a, b in zip(found, expected):
        assert abs(a - b) < 1e-12
    assert all(abs(P.polyval(r, p)) < 1e-12 for r in found)


def test_roots_double_root_flagged():
    # a double root comes back as two nearby roots, with no warning
    p = (1.0, -2.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = roots(p)
    assert len(found) == 2
    assert all(abs(r - 1.0) < 1e-5 for r in found)


def test_roots_recovers_random_multisets(rng):
    for degree in (8, 12):
        chosen = []
        while len(chosen) < degree:
            cand = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(cand - c) > 0.35 for c in chosen):
                chosen.append(cand)
        p = complex(rng.uniform(0.5, 2.0)) * P.polyfromroots(chosen)
        found = roots(p)
        remaining = list(found)
        for target in chosen:
            best = min(remaining, key=lambda r: abs(r - target))
            assert abs(best - target) < 1e-8
            remaining.remove(best)


def test_roots_validation():
    with pytest.raises(ValueError):
        roots((1.0,))
    # trailing zeros are trimmed before the degree is read
    with pytest.raises(ValueError):
        roots((1.0, 0.0, 0.0))
    assert roots((2.0, 1.0, 0.0)) == [-2.0 + 0j]
    # only exact zeros are trimmed: a NaN leading coefficient still fails
    with pytest.raises(RootConvergenceError):
        roots((1.0, 2.0, math.nan))


def test_roots_meet_backward_error_bound_on_chain_polynomials():
    chain = adler_moser_chain(7, [1.0] * 6)
    for p in chain.polynomials[1:]:
        found = roots(p)
        assert len(found) == len(p) - 1
        for r in found:
            bound = math.fsum(abs(c) * abs(r) ** i for i, c in enumerate(p))
            assert abs(P.polyval(r, p)) <= 1e-12 * bound


def test_roots_bound_rejects_a_wrong_root_below_unit_scale(monkeypatch):
    # the roots of z^3 + 1e-27 have modulus 1e-9; after its Newton polish a
    # companion eigenvalue of 9e-5 leaves |p| = 2.2e-13, small in absolute
    # terms but far above 1e-12 times the size of p's terms there (2.2e-25)
    p = (1e-27, 0.0, 0.0, 1.0)
    true_roots = [1e-9 * cmath.exp(1j * math.pi * (2 * k + 1) / 3) for k in range(3)]
    wrong = np.array([9e-5] + true_roots[1:], dtype=np.complex128)
    monkeypatch.setattr(equilibria.P, "polyroots", lambda c: wrong.copy())
    with pytest.raises(RootConvergenceError) as info:
        roots(p)
    assert info.value.failed_indices == (0,)


def test_roots_overflowing_companion_raises_without_runtime_warning():
    # the companion matrix holds -c_0/c_2 = -1e600, which overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RootConvergenceError) as info:
            roots((1e300, 0.0, 1e-300))
    assert info.value.failed_indices == (0, 1)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ----------------------------------------------------------- configurations


def test_config_from_chain_needs_index_1():
    with pytest.raises(ValueError, match="chain must reach index 1"):
        config_from_adler_moser(adler_moser_chain(0))


def test_config_from_chain_n1_single_vortex():
    config = config_from_adler_moser(adler_moser_chain(1))
    assert len(config) == 1
    assert config.vortices[0].circulation == 1.0
    assert abs(config.vortices[0].position) < 1e-12


def test_config_from_chain_n2():
    config = config_from_adler_moser(adler_moser_chain(2, [-1.0]))
    negatives = [v for v in config.vortices if v.circulation == -1.0]
    positives = [v for v in config.vortices if v.circulation == +1.0]
    assert len(negatives) == 1 and abs(negatives[0].position) < 1e-12
    cube_roots = sorted(
        (cmath.exp(2j * math.pi * k / 3) for k in range(3)),
        key=lambda z: (round(z.real, 6), round(z.imag, 6)),
    )
    found = sorted(
        (v.position for v in positives),
        key=lambda z: (round(z.real, 6), round(z.imag, 6)),
    )
    for a, b in zip(found, cube_roots):
        assert abs(a - b) < 1e-10
    assert residual(config) < 1e-10


def test_config_from_chain_degenerate_parameters():
    with pytest.raises(DegenerateParametersError):
        config_from_adler_moser(adler_moser_chain(2, [0.0]))


def _degenerate_tau3():
    """The tau_3 that make P_3 degenerate for tau_2 = 1.

    With ``Q = P_3`` at ``tau_3 = 0``, ``P_3 = Q + tau_3 z``.  It has a double
    root at each root ``r`` of ``Q - z Q'`` when ``tau_3 = -Q'(r)``, and shares
    the root ``r`` of ``P_2`` when ``tau_3 = -Q(r) / r``.
    """
    q = adler_moser_chain(3, [1.0, 0.0]).polynomials[3]
    p2 = adler_moser_chain(2, [1.0]).polynomials[2]
    dq = P.polyder(q)
    double = [-P.polyval(r, dq) for r in P.polyroots(P.polysub(q, P.polymulx(dq)))]
    shared = [-P.polyval(r, q) / r for r in P.polyroots(p2)]
    return [complex(t) for t in double + shared]


@pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-10, 1e-8, 1e-6])
def test_config_from_chain_near_degenerate_tau3(offset):
    taus = _degenerate_tau3()
    assert len(taus) == 9
    for tau3 in taus:
        chain = adler_moser_chain(3, [1.0, tau3 + offset])
        if offset <= 1e-10:
            with pytest.raises(DegenerateParametersError):
                config_from_adler_moser(chain)
        else:
            config = config_from_adler_moser(chain)
            assert len(config) == 9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_config_from_chain_is_scale_free(n):
    # z -> lam z maps the chain with tau_k = lam^(2k-1) onto the tau = 1 one
    base = np.array(config_from_adler_moser(adler_moser_chain(n, [1.0] * (n - 1))).positions)
    for lam in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6):
        taus = [lam ** (2 * k - 1) for k in range(2, n + 1)]
        scaled = np.array(config_from_adler_moser(adler_moser_chain(n, taus)).positions)
        target = lam * base
        # matched as a set: each scaled root is nearest to a distinct target
        gaps = np.abs(scaled[:, None] - target[None, :])
        nearest = gaps.argmin(axis=1)
        assert sorted(nearest) == list(range(len(target)))
        assert gaps.min(axis=1).max() <= 1e-12 * np.abs(target).max()


def test_config_from_chain_n3():
    config = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    assert len(config) == 9
    assert sum(1 for v in config.vortices if v.circulation == -1.0) == 3
    assert sum(1 for v in config.vortices if v.circulation == +1.0) == 6
    assert residual(config) < 1e-8


def test_config_from_chain_propagates_root_failure(monkeypatch):
    def fail(p):
        raise RootConvergenceError("no roots", (0,))

    monkeypatch.setattr(equilibria, "roots", fail)
    with pytest.raises(RootConvergenceError):
        config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))


def test_config_from_chain_generic_parameters(rng):
    for _ in range(5):
        params = [
            rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(2)
        ]
        config = config_from_adler_moser(adler_moser_chain(3, params))
        force_scale = len(config) ** 2 / config.min_separation
        assert residual(config) <= 1e-6 * force_scale


# --------------------------------------------------------------- refinement


def test_refine_perturbed_collinear_middle():
    perturbed = VortexConfiguration.from_pairs(
        [(-1.0, 1.0), (0.00073 - 0.00041j, -0.5), (1.0, 1.0)]
    )
    out = refine_equilibrium(perturbed, free=[1])
    assert out.converged
    assert out.residual < 1e-12
    # the ends were pinned and the middle returns to the origin
    assert out.configuration.positions[0] == -1.0 + 0j
    assert out.configuration.positions[2] == 1.0 + 0j
    assert abs(out.configuration.positions[1]) < 1e-10


def test_refine_exact_input_returns_immediately():
    # forces scale like 1/scale, so the construction residual of AM n=3
    # (about 4e-16) scaled by 1e-2 or 1e3 stays under the absolute 1e-12
    am3 = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    configs = [collinear_triple()]
    configs += [transform(am3, Similarity(scale=s)) for s in (1e-2, 1e3)]
    for config in configs:
        out = refine_equilibrium(config, free=range(len(config)))
        assert out.converged
        assert out.iterations == 0
        assert out.configuration == config


def test_refine_all_free_with_gauge_fixing(rng):
    base = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    pairs = [
        (v.position + 1e-4 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), v.circulation)
        for v in base.vortices
    ]
    noisy = VortexConfiguration.from_pairs(pairs)
    out = refine_equilibrium(noisy, free=range(len(noisy)))
    assert out.converged
    assert out.residual < 1e-12
    assert out.iterations >= 1


def test_refine_all_free_keeps_scale():
    base = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    step = 1e-3 * base.min_separation
    pattern = random.Random(0)
    perturbed = VortexConfiguration.from_pairs(
        (v.position + step * cmath.exp(2j * math.pi * pattern.random()), v.circulation)
        for v in base.vortices
    )
    out = refine_equilibrium(perturbed, free=range(len(perturbed)))
    assert out.residual < 1e-12
    assert out.configuration.diameter == pytest.approx(base.diameter, rel=0.01)


def _perturbed_adler_moser(n):
    """Adler-Moser n (tau all 1) and its copy moved by ``1e-3 * min_separation``,
    as in the benchmark's equilibria workload: one ``random.Random(0)`` stream
    gives a unit direction per vortex for n = 2, 3, ... in turn."""
    pattern = random.Random(0)
    for m in range(2, n):
        for _ in range(m * m):
            pattern.random()
    base = config_from_adler_moser(adler_moser_chain(n, [1.0] * (n - 1)))
    step = 1e-3 * base.min_separation
    perturbed = VortexConfiguration.from_pairs(
        (v.position + step * cmath.exp(2j * math.pi * pattern.random()), v.circulation)
        for v in base.vortices
    )
    return base, perturbed


@pytest.mark.parametrize("pinned", [(), (0,)], ids=["all-free", "vortex-0-pinned"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_refine_adler_moser_in_few_iterations_at_scale(n, pinned):
    base, perturbed = _perturbed_adler_moser(n)
    free = [k for k in range(len(perturbed)) if k not in pinned]
    out = refine_equilibrium(perturbed, free=free)
    assert out.converged
    assert out.residual <= 1e-12
    assert out.iterations <= 8
    assert out.configuration.diameter == pytest.approx(base.diameter, rel=0.01)
    for k in pinned:
        assert out.configuration.positions[k] == perturbed.positions[k]


@pytest.mark.parametrize("pinned", [(), (0,)], ids=["all-free", "vortex-0-pinned"])
def test_refine_commutes_with_similarities(pinned):
    _, perturbed = _perturbed_adler_moser(3)
    free = [k for k in range(len(perturbed)) if k not in pinned]
    similarity = Similarity(scale=4.0, rotation=0.7, translation=2.5 - 1.25j)
    out = refine_equilibrium(perturbed, free=free)
    moved = refine_equilibrium(transform(perturbed, similarity), free=free)
    assert out.converged and moved.converged
    assert moved.iterations == out.iterations
    expected = np.array(transform(out.configuration, similarity).positions)
    got = np.array(moved.configuration.positions)
    assert np.abs(got - expected).max() <= 1e-9 * moved.configuration.diameter


def test_refine_respects_iteration_cap():
    far = VortexConfiguration.from_pairs([(-1.0, 1.0), (0.4 + 0.3j, -0.5), (1.0, 1.0)])
    out = refine_equilibrium(far, free=[1], settings=NewtonSettings(max_iterations=1))
    assert not out.converged
    assert out.iterations == 1
    assert out.message
    assert out.residual < residual(far)  # the best iterate improved


def test_refine_stalls_below_rounding():
    # a tolerance under the rounding floor of the forces: every step of the
    # line search halves down to 1e-12 without a decrease, and the best
    # iterate comes back with the stall named
    am3 = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    out = refine_equilibrium(am3, range(9), NewtonSettings(tolerance=1e-20))
    assert not out.converged
    assert out.message.startswith("line search stalled at residual")
    assert out.iterations == len(out.residual_history) >= 1
    assert out.residual == out.residual_history[-1] <= out.residual_history[0] < 1e-14


@pytest.mark.xfail(
    strict=True,
    reason="the Newton tolerance is absolute: AM n=3 scaled by 1e-6 has a "
    "construction residual of 3.9e-10, and refinement stalls at about 2.1e-10, "
    "above the default 1e-12 (ROADMAP item 9)",
)
def test_refine_converges_at_scale_1e_minus_6():
    am3 = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    out = refine_equilibrium(transform(am3, Similarity(scale=1e-6)), range(9))
    assert out.converged, out.message


def test_refine_monotone_residual_history(rng):
    far = VortexConfiguration.from_pairs([(-1.0, 1.0), (0.3 - 0.2j, -0.5), (1.0, 1.0)])
    out = refine_equilibrium(far, free=[1])
    assert out.converged
    history = out.residual_history
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_refine_validates_free_set():
    config = collinear_triple()
    with pytest.raises(ValueError):
        refine_equilibrium(config, free=[])
    with pytest.raises(IndexError):
        refine_equilibrium(config, free=[5])


def test_newton_settings_validation():
    with pytest.raises(ValueError):
        NewtonSettings(max_iterations=0)
    with pytest.raises(ValueError):
        NewtonSettings(tolerance=0.0)


def test_force_jacobian_matches_finite_differences(rng):
    # the forces are holomorphic: moving a_k by h or by i h changes f_j by
    # J[j, k] h and J[j, k] i h, so one complex column is the whole derivative
    config = random_configuration(rng, 4)
    pos = np.asarray(config.positions, dtype=np.complex128)
    circ = np.asarray(config.circulations)
    free = [0, 2, 3]
    analytic = _force_jacobian(config, free)
    assert analytic.shape == (4, 3)
    h = 1e-7
    for direction in (1.0, 1j):
        numeric = np.zeros_like(analytic)
        for col, k in enumerate(free):
            plus = pos.copy()
            plus[k] += h * direction
            minus = pos.copy()
            minus[k] -= h * direction
            fp = forces(VortexConfiguration.from_pairs(list(zip(plus, circ))))
            fm = forces(VortexConfiguration.from_pairs(list(zip(minus, circ))))
            for j in range(len(pos)):
                numeric[j, col] = (fp[j] - fm[j]) / (2 * h * direction)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-7)


def test_force_jacobian_matches_pair_loop(rng):
    # reference: the scalar pair loop, up to summation order on the diagonal
    config = random_configuration(rng, 6)
    pos = config.positions
    circ = config.circulations
    free = [1, 2, 5]
    analytic = _force_jacobian(config, free)
    for col, k in enumerate(free):
        for j in range(len(pos)):
            if j == k:
                h = -sum(
                    circ[k] * circ[l] / (pos[k] - pos[l]) ** 2
                    for l in range(len(pos))
                    if l != k
                )
            else:
                h = circ[j] * circ[k] / (pos[j] - pos[k]) ** 2
            assert analytic[j, col] == pytest.approx(h, rel=1e-13, abs=1e-13)
