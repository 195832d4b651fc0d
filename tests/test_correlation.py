import cmath
import functools
import json
import math
from dataclasses import replace

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
    cross_pair_truncated,
    default_epsilon_list,
    default_quadrature_spec,
    forces,
    moebius_params,
    pair_integral,
    residual,
    transform,
)
from vortexcorr.correlation import (
    _contour_A_eps,
    _far_field_tail,
    _frame,
    _lagrange_at_zero,
    _pair_tail,
)
from vortexcorr.quadrature import integrate_excised_disk

from conftest import random_configuration
from oracles import eps_series, far_field_tail, finite_part, pair_kernel_over_disk


@pytest.fixture(scope="module")
def cube_roots():
    return config_from_adler_moser(adler_moser_chain(2, [-1.0]))


# ------------------------------------------------------------------ moebius


def test_moebius_closed_form_at_04():
    mp = moebius_params(0.4)
    assert mp.a == pytest.approx(0.2, abs=1e-15)
    assert mp.b == pytest.approx(0.8, abs=1e-15)
    assert mp.r1 == pytest.approx(0.5, abs=1e-15)
    assert mp.r2 == pytest.approx(2.0, abs=1e-15)


def test_moebius_small_epsilon_asymptotics():
    mp = moebius_params(1e-3)
    assert abs(mp.a / 1e-6 - 1.0) < 1e-5
    assert abs(mp.b - (1.0 - 1e-6)) < 1e-11


def test_moebius_identities_random(rng):
    for _ in range(50):
        eps = float(rng.uniform(1e-3, 0.49))
        mp = moebius_params(eps)
        assert abs(mp.a * mp.b - eps * eps) <= 1e-13 * eps * eps
        assert abs(mp.a + mp.b - 1.0) <= 1e-13
        assert abs(mp.r1 * mp.r2 - 1.0) <= 1e-13
        assert mp.r1 < 1.0 < mp.r2


def test_moebius_round_trip(rng):
    mp = moebius_params(0.3)
    for _ in range(100):
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(1.0 + w) < 0.2:
            continue
        assert abs(mp.to_annulus(mp.from_annulus(w)) - w) <= 1e-13 * max(1.0, abs(w))


def test_moebius_maps_boundaries():
    eps = 0.2
    mp = moebius_params(eps)
    # the boundary circles land on the annulus radii
    assert abs(mp.to_annulus(eps)) == pytest.approx(mp.r1, rel=1e-13)
    assert abs(mp.to_annulus(1.0 - eps)) == pytest.approx(mp.r2, rel=1e-13)


def test_moebius_domain_errors():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            moebius_params(bad)


# ------------------------------------------------------------ pair integral


def test_pair_integral_vanishes():
    spec = QuadratureSpec(epsilon=0.1, cutoff_radius=100.0, target_abs_error=1e-5)
    result = pair_integral(0.0, 1.0, 0.1, spec)
    assert result.converged
    assert result.value <= result.abs_error_estimate
    assert result.value < 1e-5


def test_pair_integral_homothety():
    spec = QuadratureSpec(epsilon=0.2, cutoff_radius=200.0, target_abs_error=1e-5)
    result = pair_integral(0.0, 2.0, 0.2, spec)
    assert result.converged
    assert result.value <= result.abs_error_estimate


def test_pair_integral_preconditions():
    spec = QuadratureSpec(epsilon=0.6, cutoff_radius=100.0)
    with pytest.raises(ValueError, match="leaves no room for the cutoff"):
        pair_integral(0.0, 1.0, 0.6, spec)


def test_pair_tail_is_exact_on_an_annulus():
    # the difference of two tails is the pair kernel's integral over
    # 3 < |z| < 6; a truncated tail series misses it by 6e-4 or more.  The
    # kernel is analytic well beyond the annulus, so 40 Gauss nodes in r and
    # 128 trapezoid nodes in theta leave far less than 1e-12.
    x, weights = np.polynomial.legendre.leggauss(40)
    r = 4.5 + 1.5 * x
    zs = r[:, None] * np.exp(2j * np.pi * np.arange(128) / 128)
    for p, q in ((0.2j, 1.0 + 0.5j), (-1.0, -0.5 + 0j), (0.7 - 0.4j, -0.3 + 1.1j)):
        kernel = 1.0 / (np.conj(zs - p) ** 2 * (zs - q) ** 2)
        value = 1.5 * (2.0 * np.pi / 128) * np.sum((weights * r)[:, None] * kernel)
        assert abs(_pair_tail(p, q, 3.0) - _pair_tail(p, q, 6.0) - value) < 1e-12


def test_engine_against_contour_oracle():
    """Quadrature smoke test: the conjugation-free kernel over the two-disk
    domain has a closed form via boundary contour integrals."""
    eps = 0.15
    radius = 8.0

    def kernel(zs):
        return 1.0 / (zs**2 * (zs - 1.0) ** 2)

    value, err, cells, converged = integrate_excised_disk(
        kernel, [0j, 1 + 0j], eps, radius, 1e-9, 10**6
    )
    assert converged

    def circle_integral(center, r):
        n = 8192
        theta = 2.0 * np.pi * np.arange(n) / n
        z = center + r * np.exp(1j * theta)
        dz = 1j * r * np.exp(1j * theta) * (2.0 * np.pi / n)
        return np.sum(np.conj(z) * kernel(z) * dz)

    oracle = (
        circle_integral(0.0, radius)
        - circle_integral(0.0, eps)
        - circle_integral(1.0, eps)
    ) / 2j
    assert abs(value - oracle) < 1e-8
    # closed form by residues: 2 pi - 6 pi eps^2
    assert value.real == pytest.approx(2 * math.pi - 6 * math.pi * eps * eps, abs=1e-8)
    assert abs(value.imag) < 1e-10


# ----------------------------------------------------------------- A_eps


def test_single_vortex_is_exactly_zero():
    config = VortexConfiguration.from_pairs([(0.3, 2.0)])
    result = correlation_A_eps(config, QuadratureSpec(0.1, 50.0))
    assert result.value == 0.0
    assert result.abs_error_estimate == 0.0
    assert result.cells_used == 0


def test_a_eps_overlap_rejected():
    config = collinear_triple()
    with pytest.raises(ValueError, match="leaves no room for the cutoff"):
        correlation_A_eps(config, QuadratureSpec(0.6, 50.0))


def test_a_eps_at_a_radius_below_the_diameter():
    # the far-field tail is exact for any R whose disk holds every hole
    configs = [
        collinear_triple(),
        config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0])),
        VortexConfiguration.from_pairs([(-1.0, 1.0), (0.05j, -0.5), (1.0, 1.0)]),
    ]
    for config in configs:
        spec = default_quadrature_spec(config)
        wide = correlation_A_eps(config, spec)
        tight = correlation_A_eps(
            config, replace(spec, cutoff_radius=0.75 * config.diameter)
        )
        assert tight.converged
        bar = wide.abs_error_estimate + tight.abs_error_estimate
        assert abs(tight.value - wide.value) <= bar
    with pytest.raises(ValueError, match="does not fit inside the cutoff radius"):
        correlation_A_eps(collinear_triple(), QuadratureSpec(0.1, 0.9))


def test_two_radius_tail_consistency(cube_roots):
    """The analytic far-field correction must match the mass the quadrature
    actually finds between two truncation radii."""
    r_small, r_big = 25.0, 50.0
    a = correlation_A_eps(cube_roots, QuadratureSpec(0.1, r_small, 1e-5))
    b = correlation_A_eps(cube_roots, QuadratureSpec(0.1, r_big, 1e-5))
    # the exact tail; its leading term 12 pi / R^2 ((sum d)^4 - sum d^4 =
    # 16 - 4 = 12) is 8e-4 short of it at R = 25
    assert a.tail_correction == pytest.approx(far_field_tail(cube_roots, r_small), rel=1e-12)
    # corrected values agree within combined error estimates
    assert abs(a.value - b.value) <= a.abs_error_estimate + b.abs_error_estimate
    # uncorrected values differ by the annulus mass 12 pi (1/r^2 - 1/(2r)^2)
    uncorrected_gap = (a.value - a.tail_correction) - (b.value - b.tail_correction)
    assert uncorrected_gap == pytest.approx(-9.0 * math.pi / r_small**2, rel=2e-2)


def test_far_field_tail_matches_the_moment_series():
    # off equilibrium the residues g_j of G add cross and log terms to the
    # pair tails
    configs = [
        VortexConfiguration.from_pairs([(-1.0, 1.0), (0.05j, -0.5), (1.0, 1.0)]),
        VortexConfiguration.from_pairs(
            [(0.3, 1.0), (0.2 + 0.9j, 2.0), (-0.7 - 0.1j, -0.7), (0.1 - 0.5j, 1.3)]
        ),
    ]
    for config in configs:
        for radius in (5.0, 50.0, 1e8):
            tail = _far_field_tail(config, radius)
            assert tail == pytest.approx(far_field_tail(config, radius), rel=1e-12)


def test_similarity_covariance():
    """A(s c; s eps, s R) = s^-2 A(c; eps, R) to quadrature accuracy."""
    base_cfg = collinear_triple()
    s = 3.0
    scaled_cfg = transform(base_cfg, Similarity(scale=s))
    base = correlation_A_eps(base_cfg, QuadratureSpec(0.2, 50.0, 1e-5))
    scaled = correlation_A_eps(scaled_cfg, QuadratureSpec(0.2 * s, 50.0 * s, 1e-5))
    assert abs(base.value - s * s * scaled.value) < 1e-4


def test_translation_and_binary_scaling_keep_bits():
    """The quadrature frame absorbs a translation and a power-of-two scale
    exactly, so such copies reproduce the collinear triple's and a lone
    pair's bits."""
    base = collinear_triple()
    eps = default_epsilon_list(base)
    spec = default_quadrature_spec(base)
    report = correlation_limit(base, eps, spec)
    pair = cross_pair_truncated(base, 0, 1, 0.1, spec)

    # dyadic coordinates, so that the translated midpoint is exact too
    p, q, pair_spec = 0.25j, 1.0 + 0.5j, QuadratureSpec(0.1, 20.0, 1e-4)
    alone = pair_integral(p, q, 0.1, pair_spec)

    shift = 1000.0 - 3000.0j
    moved = transform(base, Similarity(translation=shift))
    assert correlation_limit(moved, eps, spec) == report
    assert cross_pair_truncated(moved, 0, 1, 0.1, spec) == pair
    assert pair_integral(p + shift, q + shift, 0.1, pair_spec) == alone

    # the separation floor scales with the diameter, so a tiny copy is valid
    for s in (2.0**300, 2.0**-30):
        scaled = transform(base, Similarity(scale=s))
        scaled_spec = QuadratureSpec(
            spec.epsilon * s, spec.cutoff_radius * s, spec.target_abs_error / (s * s)
        )
        scaled_report = correlation_limit(scaled, [e * s for e in eps], scaled_spec)
        assert scaled_report.extrapolated_limit == report.extrapolated_limit / (s * s)
        assert scaled_report.extrapolation_error == report.extrapolation_error / (s * s)
        for est, unit in zip(scaled_report.estimates, report.estimates):
            _assert_scaled_bits(est, unit, s)
        scaled_pair = cross_pair_truncated(scaled, 0, 1, 0.1 * s, scaled_spec)
        _assert_scaled_bits(scaled_pair, pair, s)
        scaled_pair_spec = QuadratureSpec(0.1 * s, 20.0 * s, 1e-4 / (s * s))
        scaled_alone = pair_integral(p * s, q * s, 0.1 * s, scaled_pair_spec)
        _assert_scaled_bits(scaled_alone, alone, s)


def _assert_scaled_bits(result, unit, s):
    """``result`` is ``unit`` computed on a copy scaled by ``s``."""
    assert result.value == unit.value / (s * s)
    assert result.abs_error_estimate == unit.abs_error_estimate / (s * s)
    assert result.cells_used == unit.cells_used


def test_a_eps_budget_exhaustion():
    result = correlation_A_eps(
        collinear_triple(), QuadratureSpec(0.1, 50.0, 1e-9, max_cells=300)
    )
    assert not result.converged
    assert result.cells_used <= 300


def test_budget_below_starting_mesh_claims_no_error_bar():
    # the collinear triple's starting mesh has 120 cells: a 10-cell budget
    # cannot hold it, so nothing is estimated and no error bar is claimed
    config = collinear_triple()
    spec = QuadratureSpec(0.2, 25.0, 1e-4, max_cells=10)
    result = correlation_A_eps(config, spec)
    assert result.cells_used == 0
    assert not result.converged
    assert result.abs_error_estimate == math.inf
    report = correlation_limit(config, [0.2, 0.1, 0.05], spec)
    for est in report.estimates:
        assert est.cells_used <= spec.max_cells
        assert not est.converged
    assert report.fit_degenerate
    assert report.extrapolation_error == math.inf


def test_a_eps_deterministic():
    spec = QuadratureSpec(0.1, 50.0, 1e-5)
    assert correlation_A_eps(collinear_triple(), spec) == correlation_A_eps(
        collinear_triple(), spec
    )


def test_a_eps_error_tracks_target():
    """Tightening the target keeps the realized error inside it.

    The realized error fluctuates beneath whatever target is requested, so
    it is bounded by the target at every level of a halving sequence (the
    exact gap at one level can sit below the gap of the next: only the
    envelope is monotone)."""
    config = collinear_triple()
    reference = correlation_A_eps(config, QuadratureSpec(0.1, 25.0, 1e-9)).value
    target = 4e-3
    while target > 1e-5:
        value = correlation_A_eps(config, QuadratureSpec(0.1, 25.0, target)).value
        assert abs(value - reference) <= target
        target *= 0.5


# -------------------------------------------------------------- cross pairs


def test_cross_pair_rejects_equal_indices():
    spec = QuadratureSpec(0.1, 50.0)
    with pytest.raises(ValueError):
        cross_pair_truncated(collinear_triple(), 1, 1, 0.1, spec)
    with pytest.raises(IndexError):
        cross_pair_truncated(collinear_triple(), 0, 7, 0.1, spec)


def test_cross_pair_reports_the_callers_units():
    # the collinear triple scaled by 1000: vortices 0 and 1 are 1000 apart
    config = transform(collinear_triple(), Similarity(scale=1000.0))
    spec = QuadratureSpec(600.0, 50_000.0)
    with pytest.raises(ValueError, match="leaves no room for the cutoff") as caught:
        cross_pair_truncated(config, 0, 1, 600.0, spec)
    assert "600" in str(caught.value) and "1000" in str(caught.value)


def test_cross_pair_vanishes():
    spec = QuadratureSpec(0.1, 50.0, 1e-5)
    result = cross_pair_truncated(collinear_triple(), 0, 2, 0.1, spec)
    assert result.converged
    assert abs(result.value) <= result.abs_error_estimate


def test_cross_pair_decomposition_matches_a_eps():
    """Ordered-pair sum of two-disk integrals equals A_eps once the disks
    excised around third vortices are added back (the cross-term decomposition identity)."""
    config = collinear_triple()
    eps = 0.1
    spec = QuadratureSpec(eps, 50.0, 1e-5)
    pairs = [(j, k) for j in range(3) for k in range(3) if j != k]
    cross = {jk: cross_pair_truncated(config, jk[0], jk[1], eps, spec) for jk in pairs}
    total = correlation_A_eps(config, spec)

    pos = config.positions
    d = config.circulations
    # the third vortex's disk, added back in closed form
    corrections = [
        ((d[j] * d[k]) ** 2 * pair_kernel_over_disk(pos[j], pos[k], pos[l], eps)).real
        for (j, k) in pairs
        for l in range(3)
        if l not in (j, k)
    ]

    sum_cross = math.fsum(cross[jk].value for jk in pairs)
    lhs = sum_cross - math.fsum(corrections)
    budget = math.fsum(cross[jk].abs_error_estimate for jk in pairs) + total.abs_error_estimate
    assert abs(lhs - total.value) <= budget
    # the individual two-disk integrals all vanish, so their sum is tiny
    # even though A_eps itself is only O(eps^2)
    assert abs(sum_cross) < 1e-4
    assert abs(total.value) > 0.01


# -------------------------------------------------------------------- limit


def test_correlation_limit_collinear_fast():
    spec = QuadratureSpec(0.2, 25.0, 1e-4)
    report = correlation_limit(collinear_triple(), [0.2, 0.1, 0.05], spec)
    assert not report.fit_degenerate
    assert abs(report.extrapolated_limit) < 1e-3
    values = [abs(e.value) for e in report.estimates]
    assert values[0] > values[1] > values[2]


def test_correlation_limit_single_vortex():
    config = VortexConfiguration.from_pairs([(0.0, 1.5)])
    report = correlation_limit(config, [0.2, 0.1, 0.05], QuadratureSpec(0.2, 50.0))
    assert not report.fit_degenerate
    assert report.extrapolated_limit == 0.0
    assert report.extrapolation_error == 0.0
    assert all(e.value == 0.0 for e in report.estimates)


def test_correlation_limit_two_points():
    spec = QuadratureSpec(0.2, 25.0, 1e-4)
    report = correlation_limit(collinear_triple(), [0.2, 0.1], spec)
    assert len(report.estimates) == 2
    assert abs(report.extrapolated_limit) < 0.02


TWO_POINT_CASES = {
    "collinear": collinear_triple(),
    "cube_roots": config_from_adler_moser(adler_moser_chain(2, [-1.0])),
    "adler_moser_3": config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0])),
}


@pytest.mark.parametrize("fractions", [(0.2, 0.1), (0.1, 0.05), (0.2, 0.05)], ids=str)
@pytest.mark.parametrize("name", sorted(TWO_POINT_CASES))
def test_two_point_error_bars_cover_the_limit(name, fractions):
    # with two points the model spread is the change from the one-point
    # "fit" (the last estimate); the limit of an equilibrium is 0
    config = TWO_POINT_CASES[name]
    eps = [f * config.min_separation for f in fractions]
    report = correlation_limit(config, eps, default_quadrature_spec(config))
    assert abs(report.extrapolated_limit) <= report.extrapolation_error


def _random_cases(seed, sizes):
    # one generator for every size, with circulations of random sign
    rng = np.random.default_rng(seed)
    return {f"random_{n}": (random_configuration(rng, n), None) for n in sizes}


# (configuration, spec or None for the default spec), at the default eps list
FINITE_PART_CASES = {
    # like-signed: the truncated values grow like log(1/eps)
    "like_signed_pair": (
        VortexConfiguration.from_pairs([(0.0, 1.0), (1.0, 1.0)]),
        QuadratureSpec(0.2, 25.0, 1e-4),
    ),
    "nonequilibrium_triple": (
        VortexConfiguration.from_pairs([(-1.0, 1.0), (0.05j, -0.5), (1.0, 1.0)]),
        None,
    ),
    **_random_cases(11, range(3, 7)),
}


@pytest.mark.parametrize("name", sorted(FINITE_PART_CASES))
def test_correlation_limit_is_the_finite_part_off_equilibrium(name):
    # A_eps = alpha log eps + F + O(eps^2) for every configuration, so the
    # limit is the closed-form F, within the bar, with no degeneracy flag
    config, spec = FINITE_PART_CASES[name]
    spec = spec or default_quadrature_spec(config)
    report = correlation_limit(config, default_epsilon_list(config), spec)
    assert not report.fit_degenerate
    assert abs(report.extrapolated_limit - finite_part(config)) <= report.extrapolation_error


def test_correlation_limit_validates_epsilons():
    spec = QuadratureSpec(0.2, 25.0, 1e-4)
    with pytest.raises(ValueError):
        correlation_limit(collinear_triple(), [0.2], spec)
    with pytest.raises(ValueError):
        correlation_limit(collinear_triple(), [0.1, 0.2], spec)


# ------------------------------------------------- shared-eps estimates

SHARED_CONFIGS = {
    "collinear": collinear_triple(),
    "cube_roots": config_from_adler_moser(adler_moser_chain(2, [-1.0])),
    "nonequilibrium": VortexConfiguration.from_pairs(
        [(-1.0, 1.0), (0.05j, -0.5), (1.0, 1.0)]
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED_CONFIGS))
def test_shared_estimates_match_independent_runs(name):
    # every estimate below eps_1 is the eps_1 run plus its rings; an
    # independent excised-disk run at that eps must agree within the errors
    config = SHARED_CONFIGS[name]
    spec = QuadratureSpec(0.2, 25.0, 1e-4)
    report = correlation_limit(config, [0.2, 0.1, 0.05], spec)
    for eps, est in zip(report.epsilons[1:], report.estimates[1:]):
        alone = correlation_A_eps(config, replace(spec, epsilon=eps))
        assert abs(est.value - alone.value) <= (
            est.abs_error_estimate + alone.abs_error_estimate
        )


@pytest.mark.parametrize("max_cells", [500, 2_000_000])
@pytest.mark.parametrize("name", sorted(SHARED_CONFIGS))
def test_shared_estimates_keep_target_and_budget(name, max_cells):
    config = SHARED_CONFIGS[name]
    spec = QuadratureSpec(0.2, 25.0, 1e-6, max_cells)
    report = correlation_limit(config, [0.2, 0.1, 0.05], spec)
    for est in report.estimates:
        assert est.cells_used <= spec.max_cells
        if est.converged:
            # the far-field tail is exact, so the error is the adaptive one;
            # the slack covers rounding in the error sums, not the method
            assert est.abs_error_estimate <= spec.target_abs_error * (1.0 + 1e-12)
    # the main run's cells are shared: later estimates only add ring cells
    cells = [est.cells_used for est in report.estimates]
    assert cells == sorted(cells)
    assert all(est.converged for est in report.estimates) == (max_cells > 500)


# equilibria with their rigid motions (rotation, translation)
SERIES_CASES = {
    "collinear": (collinear_triple, 1.3, 2.5 - 1.25j),
    "cube_roots": (lambda: config_from_adler_moser(adler_moser_chain(2, [-1.0])), 2.3, -4.0j),
    "adler_moser_3": (
        lambda: config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0])),
        3.3,
        -1.0 + 0.75j,
    ),
    "adler_moser_4": (
        lambda: config_from_adler_moser(adler_moser_chain(4, [1.0, 1.0, 1.0])),
        4.3,
        0.5 + 2.0j,
    ),
}


@pytest.mark.parametrize("name", sorted(SERIES_CASES))
def test_error_bars_cover_the_exact_series(name):
    # every A_eps estimate at the default eps list, alone and as one of
    # correlation_limit's shared estimates, must lie within its error
    # estimate of the exact eps-series
    build, rotation, translation = SERIES_CASES[name]
    config = transform(build(), Similarity(rotation=rotation, translation=translation))
    eps = default_epsilon_list(config)
    spec = default_quadrature_spec(config)
    report = correlation_limit(config, eps, spec)
    for e, shared in zip(eps, report.estimates):
        exact = eps_series(config, e)
        checked = [shared]
        # at N = 16 the one correlation_limit run (about 3 s) is enough
        if name != "adler_moser_4":
            checked.append(correlation_A_eps(config, replace(spec, epsilon=e)))
        for est in checked:
            assert est.converged
            assert abs(est.value - exact) <= est.abs_error_estimate


# main-run cells at the default spec under one-cell-at-a-time greedy
# refinement (version 0.15.0); rounds of eight splits may overshoot the
# target by a few cells, not by more than 2%
GREEDY_CELLS = {
    "collinear": 392,
    "cube_roots": 624,
    "adler_moser_3": 4_524,
    "adler_moser_4": 20_304,
}


@pytest.mark.parametrize("name", sorted(GREEDY_CELLS))
def test_batched_refinement_keeps_the_cell_count(name):
    config = SERIES_CASES[name][0]()
    spec = default_quadrature_spec(config)
    report = correlation_limit(config, default_epsilon_list(config), spec)
    assert report.estimates[0].converged
    assert report.estimates[0].cells_used <= 1.02 * GREEDY_CELLS[name]
    assert abs(report.extrapolated_limit) <= report.extrapolation_error


def _moved_series_case(name):
    build, rotation, translation = SERIES_CASES[name]
    return transform(build(), Similarity(rotation=rotation, translation=translation))


def _polygon_plus_centre(sides):
    """Unit vortices at the ``sides``-th roots of unity and ``-(sides - 1)/2``
    at the origin: each vertex feels ``(sides - 1)/(2 a)`` from the others."""
    ring = [(cmath.exp(2j * math.pi * k / sides), 1.0) for k in range(sides)]
    return VortexConfiguration.from_pairs(ring + [(0j, -(sides - 1) / 2)])


# the contour form is cheap, so it also runs beyond N = 16 and on a second
# family; the new cases are unmoved.  Adler-Moser n = 7 waits for a more
# accurate chain: its construction residual is 2.8e-12.
CONTOUR_CASES = {
    **{name: functools.partial(_moved_series_case, name) for name in SERIES_CASES},
    "adler_moser_5": lambda: config_from_adler_moser(adler_moser_chain(5, [1.0] * 4)),
    "adler_moser_6": lambda: config_from_adler_moser(adler_moser_chain(6, [1.0] * 5)),
    "polygon_centre_13": lambda: _polygon_plus_centre(12),
    "polygon_centre_49": lambda: _polygon_plus_centre(48),
}


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_contour_sum_matches_the_exact_series(name):
    # the contour form of A_eps, which correlation_limit's rings rest on,
    # against the independent eps-series; its bound covers the difference
    config = CONTOUR_CASES[name]()
    frame, _, shrink = _frame(config, default_quadrature_spec(config))
    area = shrink * shrink
    for e in default_epsilon_list(config):
        value, trapezoid, rounding = _contour_A_eps(frame, e * shrink)
        exact = eps_series(config, e)
        assert abs(value * area - exact) <= 1e-10 * abs(exact)
        assert abs(value * area - exact) <= (trapezoid + rounding) * area


@pytest.mark.parametrize("n", [6, 7])
def test_finite_part_explains_the_gap_to_the_exact_series(n):
    # eps_series assumes that every force vanishes; the residual forces of a
    # numerical equilibrium leave C(eps) - eps_series(eps) = F + O(eps^2).
    # The gap already lies within the contour bound, so only this sees F
    config = config_from_adler_moser(adler_moser_chain(n, [1.0] * (n - 1)))
    frame, _, shrink = _frame(config, default_quadrature_spec(config))
    e = default_epsilon_list(config)[-1]
    gap = _contour_A_eps(frame, e * shrink)[0] * shrink * shrink - eps_series(config, e)
    assert abs(gap - finite_part(config)) <= 0.05 * abs(gap)


def test_remainder_after_the_finite_part_falls_like_eps_squared():
    # A_eps - alpha log eps - F = O(eps^2) for every configuration: over a
    # decade of eps the remainder falls 100-fold, with no stray log or
    # constant.  Each remainder is far above the contour bound, so the
    # ratio measures the law, not the rounding
    rng = np.random.default_rng(3)
    ratios = []
    for n in (3, 5, 8, 13, 21, 34, 50):
        for _ in range(2):
            config = random_configuration(rng, n, box=1.5 * math.sqrt(n))
            frame, _, shrink = _frame(config, default_quadrature_spec(config))
            area = shrink * shrink
            alpha = -8.0 * math.pi * math.fsum(abs(f) ** 2 for f in forces(config))
            remainders = []
            for fraction in (1e-2, 1e-3, 1e-4):
                e = fraction * config.min_separation
                value, trapezoid, rounding = _contour_A_eps(frame, e * shrink)
                remainder = value * area - alpha * math.log(e) - finite_part(config)
                assert abs(remainder) > 100.0 * (trapezoid + rounding) * area
                remainders.append(remainder)
            ratios += [r / r_next for r, r_next in zip(remainders, remainders[1:])]
    assert len(ratios) == 28
    assert all(90.0 <= ratio <= 110.0 for ratio in ratios), ratios


def test_contour_sum_matches_quadrature_off_equilibrium():
    # off equilibrium the residues g_j enter the contour sum; the 2D engine
    # is the independent check
    configs = [
        VortexConfiguration.from_pairs([(-1.0, 1.0), (0.05j, -0.5), (1.0, 1.0)]),
        random_configuration(np.random.default_rng(6), 6),
    ]
    for config in configs:
        spec = default_quadrature_spec(config)
        frame, _, shrink = _frame(config, spec)
        area = shrink * shrink
        for e in default_epsilon_list(config):
            value, trapezoid, rounding = _contour_A_eps(frame, e * shrink)
            quadrature = correlation_A_eps(config, replace(spec, epsilon=e))
            assert quadrature.converged
            bar = quadrature.abs_error_estimate + (trapezoid + rounding) * area
            assert abs(value * area - quadrature.value) <= bar


# an equilibrium with generic real circulations (diameter 14.2), from a
# Gauss-Newton solve of v_j = sum_{k != j} d_k/(a_j - a_k) = 0 in positions
# and circulations together; kept exactly as found
GENERIC_N5 = json.loads(
    '{"vortices": ['
    '{"x": 7.011786438118802, "y": -5.579557592950711, "d": 1.9181449643497057}, '
    '{"x": 1.5947710165322673, "y": 2.313332075971045, "d": -0.26272407055998614}, '
    '{"x": -1.2496325214903738, "y": 4.244544261312464, "d": 0.6471437454534819}, '
    '{"x": -6.428002150573331, "y": -0.9317608349728624, "d": 0.6112243327058589}, '
    '{"x": -2.2483475710131136, "y": -0.7505270345756404, "d": -0.677720994449256}]}'
)


@pytest.fixture(scope="module")
def generic_n5():
    return VortexConfiguration.from_pairs(
        [(complex(v["x"], v["y"]), v["d"]) for v in GENERIC_N5["vortices"]]
    )


def test_generic_equilibrium_has_zero_finite_part(generic_n5):
    config = generic_n5
    assert residual(config) <= 1e-12
    # O'Neil's necessary condition for an equilibrium: sum_{j<k} d_j d_k = 0
    d = config.circulations
    assert abs(math.fsum(d[j] * d[k] for j in range(5) for k in range(j + 1, 5))) <= 1e-11
    assert abs(finite_part(config)) <= 1e-12
    # the contour form, extrapolated as correlation_limit does, lands within
    # its model spread of F = 0
    frame, _, shrink = _frame(config, default_quadrature_spec(config))
    eps = default_epsilon_list(config)
    alpha = -8.0 * math.pi * math.fsum(abs(f) ** 2 for f in forces(config))
    xs = [e * e for e in eps]
    ys = [
        _contour_A_eps(frame, e * shrink)[0] * shrink * shrink - alpha * math.log(e)
        for e in eps
    ]
    limit, _ = _lagrange_at_zero(xs, ys)
    shallow, _ = _lagrange_at_zero(xs[1:], ys[1:])
    assert abs(limit) <= abs(limit - shallow)


@pytest.mark.xfail(
    strict=True,
    reason="the 2D main run's error estimate understates its true error 1.6-fold "
    "here (both Gauss rules agree on a feature neither resolves): limit -1.304e-5 "
    "against a bar of 1.028e-5; the contour-form limit (ROADMAP item 2) covers it",
)
def test_generic_equilibrium_limit_within_its_bar(generic_n5):
    config = generic_n5
    report = correlation_limit(
        config, default_epsilon_list(config), default_quadrature_spec(config)
    )
    assert abs(report.extrapolated_limit) <= report.extrapolation_error


def test_shared_error_counted_once():
    # with three independent per-eps runs (version 0.1.0) the error bar was
    # 5.2044e-4; counting the shared main-run error once must not widen it
    config = collinear_triple()
    report = correlation_limit(
        config, default_epsilon_list(config), default_quadrature_spec(config)
    )
    assert not report.fit_degenerate
    assert report.extrapolation_error <= 5.2044e-4
    assert abs(report.extrapolated_limit) <= report.extrapolation_error


def test_report_invariants():
    spec = QuadratureSpec(0.2, 25.0, 1e-4)
    report = correlation_limit(collinear_triple(), [0.2, 0.1, 0.05], spec)
    assert len(report.epsilons) == len(report.estimates) == 3
    assert report.epsilons[0] > report.epsilons[1] > report.epsilons[2]


def test_defaults_helpers():
    config = collinear_triple()
    spec = default_quadrature_spec(config)
    assert spec.cutoff_radius == pytest.approx(150.0)
    assert spec.epsilon == pytest.approx(0.1)
    eps = default_epsilon_list(config)
    assert eps == pytest.approx([0.2, 0.1, 0.05])
