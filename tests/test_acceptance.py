"""Acceptance gate: one test per headline criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The centrepiece is the vanishing of the correlation coefficient at vortex
equilibria, reproduced at desk scale for the symmetric collinear triple
and for a polynomial-chain equilibrium with no reflection symmetry in its
construction; the remaining criteria are property checks on the library's
algebraic identities and numerics.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from vortexcorr import (
    QuadratureSpec,
    Similarity,
    VortexConfiguration,
    adler_moser_chain,
    collinear_triple,
    config_from_adler_moser,
    correlation_A_eps,
    correlation_limit,
    energy,
    gradient,
    moebius_params,
    pair_integral,
    refine_equilibrium,
    residual,
    transform,
)
from vortexcorr.rational import integrand_values

from conftest import random_configuration, random_point_clear_of
from oracles import G_double_sum, G_partial_fractions, cross_term

EPS_LIST = [0.2, 0.1, 0.05]
RADIUS = 50.0
TARGET = 1e-5


def verdict(number, ok, description, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {description} {detail}".rstrip())
    assert ok, f"criterion {number}: {description} {detail}"


def run_collinear_pipeline():
    spec = QuadratureSpec(
        epsilon=EPS_LIST[0],
        cutoff_radius=RADIUS,
        target_abs_error=TARGET,
        max_cells=2_000_000,
    )
    return correlation_limit(collinear_triple(), EPS_LIST, spec)


@pytest.fixture(scope="module")
def collinear_report():
    start = time.monotonic()
    report = run_collinear_pipeline()
    return report, time.monotonic() - start


def test_criterion_1_collinear_limit_vanishes(collinear_report):
    config = collinear_triple()
    assert residual(config) < 1e-12
    report, elapsed = collinear_report
    magnitudes = [abs(e.value) for e in report.estimates]
    ok = (
        abs(report.extrapolated_limit) < 1e-3
        and magnitudes[0] > magnitudes[1] > magnitudes[2]
        and elapsed < 60.0
    )
    verdict(
        1,
        ok,
        "collinear equilibrium: extrapolated correlation limit vanishes",
        f"(limit={report.extrapolated_limit:+.3e}, |A_eps|={magnitudes}, {elapsed:.1f}s)",
    )


def test_criterion_2_adler_moser_limit_vanishes():
    config = config_from_adler_moser(adler_moser_chain(2, [-1.0]))
    spec = QuadratureSpec(
        epsilon=EPS_LIST[0],
        cutoff_radius=RADIUS,
        target_abs_error=TARGET,
        max_cells=2_000_000,
    )
    report = correlation_limit(config, EPS_LIST, spec)
    ok = abs(report.extrapolated_limit) < 1e-3
    verdict(
        2,
        ok,
        "polynomial-chain equilibrium (cube roots + center): limit vanishes",
        f"(limit={report.extrapolated_limit:+.3e})",
    )


def test_criterion_3_pair_integral_vanishes():
    spec = QuadratureSpec(
        epsilon=0.2, cutoff_radius=100.0, target_abs_error=1e-6, max_cells=2_000_000
    )
    details = []
    ok = True
    for eps in EPS_LIST:
        start = time.monotonic()
        result = pair_integral(0.0, 1.0, eps, spec)
        elapsed = time.monotonic() - start
        ok = ok and result.value <= result.abs_error_estimate and elapsed < 10.0
        details.append(f"eps={eps}: |I|={result.value:.2e} ({elapsed:.1f}s)")
    verdict(3, ok, "two-disk pair integral vanishes within its error", "; ".join(details))


def test_criterion_4_rational_function_identity():
    rng = np.random.default_rng(2718281828)
    worst = 0.0
    for _ in range(20):
        config = random_configuration(rng, int(rng.integers(2, 9)))
        for _ in range(100):
            z = random_point_clear_of(rng, config)
            ds = G_double_sum(config, z)
            pf = G_partial_fractions(config, z)
            worst = max(worst, abs(ds - pf) / max(abs(ds), abs(pf)))
    verdict(4, worst < 1e-10, "double-sum and partial-fraction forms agree", f"(worst rel={worst:.2e})")


def test_criterion_5_gradient_matches_finite_differences():
    rng = np.random.default_rng(314159265)
    worst = 0.0
    for _ in range(20):
        config = random_configuration(rng, int(rng.integers(2, 7)))
        h = 1e-6 * config.diameter
        analytic = gradient(config)
        numeric = []
        for j in range(len(config)):
            parts = []
            for direction in (1.0, 1j):
                values = []
                for sign in (+1.0, -1.0):
                    pairs = [
                        (
                            v.position + (sign * h * direction if i == j else 0.0),
                            v.circulation,
                        )
                        for i, v in enumerate(config.vortices)
                    ]
                    values.append(energy(VortexConfiguration.from_pairs(pairs)))
                parts.append((values[0] - values[1]) / (2.0 * h))
            numeric.append(complex(parts[0], parts[1]))
        num = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(analytic, numeric)))
        den = math.sqrt(sum(abs(a) ** 2 for a in analytic))
        worst = max(worst, num / den)
    verdict(5, worst < 1e-6, "analytic gradient matches central differences", f"(worst rel={worst:.2e})")


def test_criterion_6_integrand_decomposition():
    rng = np.random.default_rng(1618033988)
    fixtures = [
        collinear_triple(),
        config_from_adler_moser(adler_moser_chain(2, [-1.0])),
        config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0])),
    ]
    worst = 0.0
    for config in fixtures:
        zs = [random_point_clear_of(rng, config) for _ in range(100)]
        for z, a in zip(zs, integrand_values(config, np.array(zs))):
            b = cross_term(config, z)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    two = VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)])
    exact = integrand_values(two, np.array([0.5]))[0] == -32.0 and cross_term(two, 0.5) == 32.0
    verdict(
        6,
        worst < 1e-10 and exact,
        "integrand equals the cross-term sum at equilibria; counterexample exact",
        f"(worst rel={worst:.2e}, two-vortex -32/+32 ok={exact})",
    )


def test_criterion_7_moebius_identities():
    rng = np.random.default_rng(141421356)
    worst = 0.0
    for _ in range(50):
        eps = float(rng.uniform(1e-4, 0.49))
        mp = moebius_params(eps)
        worst = max(
            worst,
            abs(mp.a * mp.b - eps * eps) / (eps * eps),
            abs(mp.a + mp.b - 1.0),
            abs(mp.r1 * mp.r2 - 1.0),
        )
        for _ in range(2):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(1.0 + w) < 0.2:
                continue
            worst = max(
                worst, abs(mp.to_annulus(mp.from_annulus(w)) - w) / max(1.0, abs(w))
            )
    verdict(7, worst < 1e-13, "annulus-map identities at machine precision", f"(worst={worst:.2e})")


def test_criterion_8_polynomial_chain():
    chain = adler_moser_chain(4, [1.0, 0.8, 1.2])
    defect = max(chain.wronskian_defect(k) for k in range(1, 4))
    degrees_ok = all(len(p) - 1 == k * (k + 1) // 2 for k, p in enumerate(chain.polynomials))
    raw_residuals = []
    refined_residuals = []
    for n, params in ((2, [-1.0]), (3, [1.0, 1.0]), (4, [1.0, 0.8, 1.2])):
        config = config_from_adler_moser(adler_moser_chain(n, params))
        raw_residuals.append(residual(config))
        refined = refine_equilibrium(config, range(len(config)))
        refined_residuals.append(refined.residual)
    ok = (
        defect < 1e-10
        and degrees_ok
        and max(raw_residuals) < 1e-8
        and max(refined_residuals) < 1e-12
    )
    verdict(
        8,
        ok,
        "chain recurrence holds to n=4; configurations reach equilibrium",
        f"(defect={defect:.1e}, raw<={max(raw_residuals):.1e}, refined<={max(refined_residuals):.1e})",
    )


def test_criterion_9_similarity_covariance():
    scale = 3.0
    base_cfg = collinear_triple()
    scaled_cfg = transform(base_cfg, Similarity(scale=scale))
    details = []
    ok = True
    for eps in EPS_LIST:
        base = correlation_A_eps(
            base_cfg, QuadratureSpec(eps, RADIUS, TARGET, 2_000_000)
        )
        scaled = correlation_A_eps(
            scaled_cfg, QuadratureSpec(eps * scale, RADIUS * scale, TARGET, 2_000_000)
        )
        # the integrand is |z|^-4 homogeneous and the area element scales by
        # s^2, so the truncated integral scales by s^-2
        gap = abs(base.value - scale * scale * scaled.value)
        budget = base.abs_error_estimate + scale * scale * scaled.abs_error_estimate
        ok = ok and gap <= budget and gap <= 50.0 * TARGET
        details.append(f"eps={eps}: gap={gap:.1e}")
    verdict(
        9,
        ok,
        "A_eps transforms covariantly under scaling (s^2-weighted match)",
        "; ".join(details),
    )


def test_criterion_10_determinism(collinear_report):
    report, _ = collinear_report
    repeat = run_collinear_pipeline()
    identical = report == repeat
    serialized_match = json.dumps(asdict(report), sort_keys=True) == json.dumps(
        asdict(repeat), sort_keys=True
    )
    verdict(
        10,
        identical and serialized_match,
        "repeated runs produce bit-identical reports",
        f"(dataclass equal={identical}, serialized equal={serialized_match})",
    )
