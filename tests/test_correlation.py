import functools
import math
import random
import re
import warnings
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
    _extrapolate,
    _far_field_tail,
    _pair_tail,
    _shrink,
)
from vortexcorr.quadrature import integrate_excised_disk

from conftest import GENERIC_N5, polygon_plus_centre, random_configuration
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


def test_pair_integral_reports_the_callers_units():
    # a pair 1000 apart runs in a frame 1024 times smaller; the message
    # restates the caller's lengths
    spec = QuadratureSpec(600.0, 50_000.0)
    with pytest.raises(ValueError, match="leaves no room for the cutoff") as caught:
        pair_integral(0.0, 1000.0, 600.0, spec)
    assert "600" in str(caught.value) and "1000" in str(caught.value)
    assert "integration frame" not in str(caught.value)


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


def test_radius_far_beyond_the_configuration():
    # the background mesh doubles its rings out to R, so a huge R still
    # resolves the near field; beyond 2^340 in the frame the polar cell
    # weights would overflow, and the message gives the caller's radius
    config = collinear_triple()
    spec = replace(default_quadrature_spec(config), cutoff_radius=1e100)
    report = correlation_limit(config, default_epsilon_list(config), spec)
    assert abs(report.extrapolated_limit) <= report.extrapolation_error
    with pytest.raises(ValueError, match="out of floating-point range") as caught:
        correlation_A_eps(config, replace(spec, cutoff_radius=1e110))
    assert "cutoff radius 1e+110" in str(caught.value)


def test_a_scale_beyond_two_to_the_500_is_rejected():
    # integrals come back by 4^-k, so the frame takes the diameter's binade
    # 2^k only for |k| <= 500: the collinear triple x1e155 and x1e-160 (k =
    # 516 and -530) are rejected by the default spec and by every engine,
    # whose spec is built by hand, naming the scale
    base = collinear_triple()
    for s, k in ((1e155, 516), (1e-160, -530)):
        scaled = transform(base, Similarity(scale=s))
        spec = QuadratureSpec(0.1 * s, 4.0 * s)
        runs = (
            lambda: default_quadrature_spec(scaled),
            lambda: correlation_limit(scaled, default_epsilon_list(scaled)),
            lambda: correlation_A_eps(scaled, spec),
            lambda: pair_integral(0j, 2.0 * s, 0.1 * s, spec),
        )
        for run in runs:
            with pytest.raises(ValueError, match=rf"coordinate scale 2\*\*{k} is out of"):
                run()


def test_a_framed_target_out_of_range_is_rejected():
    # the 2D engine moves the target into the frame by 4^k; it must stay a
    # positive float there
    base = collinear_triple()
    for s, target in ((1e-30, 1e-300), (1e30, 1e300)):
        scaled = transform(base, Similarity(scale=s))
        spec = replace(default_quadrature_spec(scaled), target_abs_error=target)
        message = re.escape(f"puts the error target {target} out of")
        with pytest.raises(ValueError, match=message):
            correlation_A_eps(scaled, spec)


def test_an_eps_too_small_for_the_contour_bound_is_rejected():
    # near eps = 1e-110 the contour form's trapezoid bound leaves the
    # floating-point range; the eps is named in the caller's units
    base = collinear_triple()
    spec = default_quadrature_spec(base)
    assert not correlation_limit(base, [1e-90, 1e-91], spec).fit_degenerate
    for s in (1.0, 2.0**-60):
        config = transform(base, Similarity(scale=s))
        message = re.escape(f"bound at excision radius {1e-110 * s} is not finite")
        with pytest.raises(ValueError, match=message):
            correlation_limit(config, [1e-100 * s, 1e-110 * s], default_quadrature_spec(config))


def test_huge_circulations_meet_the_contour_bound_before_alpha():
    # alpha squares the forces, which for circulations of 1e77 overflow as a
    # float's ** does, by raising; the bound is checked first and names the eps
    for d in (1e77, 1e80):
        pair = VortexConfiguration.from_coordinates([(0, 0, d), (1, 0, d)])
        with pytest.raises(ValueError, match="bound at excision radius 0.2 is not finite"):
            correlation_limit(pair, default_epsilon_list(pair))


def test_an_eps_too_small_for_the_2d_engine_is_rejected():
    # at tiny eps the kernels overflow near the holes: the 2D value is not
    # finite, and the misfit names the caller's eps without a numpy warning
    config = collinear_triple()
    spec = default_quadrature_spec(config)
    with pytest.raises(ValueError, match="2D integral at excision radius 1e-80 is not finite"):
        correlation_A_eps(config, replace(spec, epsilon=1e-80))
    pair = VortexConfiguration.from_pairs([(0j, 1.0), (1024.0, 1.0)])
    with pytest.raises(ValueError, match="2D integral at excision radius 1e-197 is not finite"):
        pair_integral(0j, 1024.0, 1e-197, default_quadrature_spec(pair))


def test_a_2d_total_out_of_float_range_is_rejected():
    # circulations of 1e90 carry the exact tail past the float range: the
    # total with its tail is checked, not only the adaptive part, and the
    # tail is formed without a numpy warning.  A budget below the starting
    # mesh keeps the adaptive part cheap
    config = VortexConfiguration.from_pairs([(0j, 1e90), (1.0, 1e90), (3j, -1e90)])
    spec = QuadratureSpec(0.1, 8.0, 1e-5, max_cells=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="2D integral at excision radius 0.1 is not finite"):
            correlation_A_eps(config, spec)
    assert caught == []


def test_a_limit_out_of_float_range_is_rejected():
    # A_eps grows like d^4 / s^2: circulations of 60 carry the collinear
    # triple's A_eps past the float range at scale 1e-151 but not at 1e-150
    def triple(s):
        return VortexConfiguration.from_coordinates([(-s, 0, 60), (0, 0, -30), (s, 0, 60)])

    assert math.isfinite(_default_limit(triple(1e-150)).extrapolation_error)
    with pytest.raises(ValueError, match="is out of floating-point range"):
        _default_limit(triple(1e-151))


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

    # dyadic coordinates, so that the translated midpoint is exact too
    p, q, pair_spec = 0.25j, 1.0 + 0.5j, QuadratureSpec(0.1, 20.0, 1e-4)
    alone = pair_integral(p, q, 0.1, pair_spec)

    shift = 1000.0 - 3000.0j
    moved = transform(base, Similarity(translation=shift))
    assert correlation_limit(moved, eps, spec) == report
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


def test_cross_pair_decomposition_matches_a_eps():
    """A_eps is the ordered-pair sum of the two-disk integrals weighted by
    d_j^2 d_k^2, once the disks excised around third vortices are taken out
    (the cross-term decomposition identity).  Every two-disk integral
    vanishes, so A_eps plus those disks lies within the pair values and the
    errors."""
    config = collinear_triple()
    eps = 0.1
    spec = QuadratureSpec(eps, 50.0, 1e-5)
    pairs = [(j, k) for j in range(3) for k in range(3) if j != k]
    pos = config.positions
    d = config.circulations
    weight = {(j, k): (d[j] * d[k]) ** 2 for j, k in pairs}
    cross = {(j, k): pair_integral(pos[j], pos[k], eps, spec) for j, k in pairs}
    total = correlation_A_eps(config, spec)

    # the third vortex's disk, added back in closed form
    corrections = [
        (weight[j, k] * pair_kernel_over_disk(pos[j], pos[k], pos[l], eps)).real
        for (j, k) in pairs
        for l in range(3)
        if l not in (j, k)
    ]

    # pair_integral reports the modulus |I_jk|, which bounds the real part
    # that enters A_eps
    budget = (
        math.fsum(weight[jk] * (cross[jk].value + cross[jk].abs_error_estimate) for jk in pairs)
        + total.abs_error_estimate
    )
    assert abs(total.value + math.fsum(corrections)) <= budget
    # the individual two-disk integrals all vanish, so their sum is tiny
    # even though A_eps itself is only O(eps^2)
    assert math.fsum(weight[jk] * cross[jk].value for jk in pairs) < 1e-4
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
    for eps in ([0.2, 0.0], [0.2, -0.1]):
        with pytest.raises(ValueError, match="epsilons must be positive"):
            correlation_limit(collinear_triple(), eps, spec)
    # a value that is not finite is named before the order is checked, which
    # at 0.22.1 called nan in either place "not strictly decreasing"
    for eps in ([math.nan, 0.1], [0.1, math.nan], [math.inf, 0.1], [0.2, -math.inf]):
        bad = next(e for e in eps if not math.isfinite(e))
        with pytest.raises(ValueError, match=f"excision radius {bad} is not finite"):
            correlation_limit(collinear_triple(), eps, spec)


# correlation_limit at the default eps list, as version 0.23.0 computes it:
# the limit, its bar and every estimate's (value, error)
LIMIT_GOLDENS = {
    "collinear": (
        collinear_triple,
        "-0x1.31771ba020400p-16",
        "0x1.1b74351f2d8fep-12",
        [
            ("-0x1.0f7081914c0c1p-2", "0x1.632d5b7d41e80p-44"),
            ("-0x1.1cc845a3ee3dap-4", "0x1.34030e7852bbep-45"),
            ("-0x1.2053e89871efbp-6", "0x1.87fc09877668ap-46"),
        ],
    ),
    "adler_moser_3": (
        lambda: config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0])),
        "0x1.43f932bab4a00p-14",
        "0x1.05954f4ff964bp-9",
        [
            ("0x1.ded34d1376487p-3", "0x1.9a470501df29ap-39"),
            ("0x1.51be62fcb137fp-4", "0x1.51861f6719184p-40"),
            ("0x1.6b375d511a03ep-6", "0x1.9414550501207p-41"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(LIMIT_GOLDENS))
def test_correlation_limit_golden_values(name):
    build, limit, bar, estimates = LIMIT_GOLDENS[name]
    config = build()
    report = correlation_limit(config, default_epsilon_list(config))
    assert report.extrapolated_limit.hex() == limit
    assert report.extrapolation_error.hex() == bar
    got = [(e.value.hex(), e.abs_error_estimate.hex()) for e in report.estimates]
    assert got == estimates


@pytest.mark.parametrize("name", sorted(LIMIT_GOLDENS))
def test_correlation_limit_ignores_the_spec(name):
    # the contour form has no truncation radius: any R, even one below the
    # diameter, or no spec gives the same report
    config = LIMIT_GOLDENS[name][0]()
    eps = default_epsilon_list(config)
    spec = default_quadrature_spec(config)
    reports = [
        correlation_limit(config, eps, replace(spec, cutoff_radius=r))
        for r in (0.75 * config.diameter, spec.cutoff_radius, 1e100)
    ]
    assert all(report == correlation_limit(config, eps) for report in reports)


@pytest.mark.parametrize("name", sorted(TWO_POINT_CASES))
def test_correlation_limit_takes_eps_below_half_the_separation(name):
    # sep / eps >= 2 keeps the trapezoid factor sqrt(sep / eps) at sqrt(2)
    # or more; the rule is checked in the caller's units
    config = TWO_POINT_CASES[name]
    half = 0.5 * config.min_separation
    message = re.escape(f"excision radius {half} is not below half the separation, {half}")
    with pytest.raises(ValueError, match=message):
        correlation_limit(config, [half, 0.2 * half])
    report = correlation_limit(config, [f * half for f in (0.98, 0.49, 0.245)])
    assert abs(report.extrapolated_limit) <= report.extrapolation_error
    # one vortex has no separation and takes any positive eps, even one whose
    # square overflows: at 0.21.0 the fit squared 1e300 and the limit was out
    # of floating-point range; or two whose fitted squares underflow to 0,
    # which divided by zero at 0.21.1
    single = VortexConfiguration.from_pairs([(0.3, 2.0)])
    for eps in ([10.0, 1.0], [1e300, 1.0], [1e200, 1e100, 1.0], [1.0, 1e-170, 1e-180]):
        report = correlation_limit(single, eps)
        assert report.extrapolated_limit == report.extrapolation_error == 0.0
        assert all(est.value == est.abs_error_estimate == 0.0 for est in report.estimates)


def test_correlation_limit_takes_the_forces_once(monkeypatch):
    # alpha and every eps share the contour pass's one forces call; 0.21.0
    # made one per eps and one more for alpha
    calls = []

    def counted(config):
        calls.append(config)
        return forces(config)

    monkeypatch.setattr("vortexcorr.correlation.forces", counted)
    am3 = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    correlation_limit(am3, default_epsilon_list(am3))
    assert len(calls) == 1


def test_correlation_limit_builds_no_configuration(monkeypatch):
    # the contour form reads the configuration as given: its cached
    # differences and forces, scaled by 2^-k and 2^k, with no translated copy
    am3 = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    built = []
    validate = VortexConfiguration.__post_init__

    def counted(config):
        built.append(config)
        validate(config)

    monkeypatch.setattr(VortexConfiguration, "__post_init__", counted)
    correlation_limit(am3, default_epsilon_list(am3))
    assert built == []


# ------------------------------------------ contour estimates against 2D

SHARED_CONFIGS = {
    "collinear": collinear_triple(),
    "cube_roots": config_from_adler_moser(adler_moser_chain(2, [-1.0])),
    "nonequilibrium": VortexConfiguration.from_pairs(
        [(-1.0, 1.0), (0.05j, -0.5), (1.0, 1.0)]
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED_CONFIGS))
def test_shared_estimates_match_independent_runs(name):
    # every estimate is the contour form's; an independent excised-disk run
    # at that eps must agree within the errors
    config = SHARED_CONFIGS[name]
    spec = QuadratureSpec(0.2, 25.0, 1e-4)
    report = correlation_limit(config, [0.2, 0.1, 0.05], spec)
    for eps, est in zip(report.epsilons, report.estimates):
        alone = correlation_A_eps(config, replace(spec, epsilon=eps))
        assert abs(est.value - alone.value) <= (
            est.abs_error_estimate + alone.abs_error_estimate
        )


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
    # every A_eps estimate at the default eps list, from the 2D engine and
    # from correlation_limit's contour form, must lie within its error
    # estimate of the exact eps-series
    build, rotation, translation = SERIES_CASES[name]
    config = transform(build(), Similarity(rotation=rotation, translation=translation))
    eps = default_epsilon_list(config)
    spec = default_quadrature_spec(config)
    report = correlation_limit(config, eps, spec)
    for e, contour in zip(eps, report.estimates):
        exact = eps_series(config, e)
        checked = [contour]
        # at N = 16 three 2D runs would take about 3 s
        if name != "adler_moser_4":
            checked.append(correlation_A_eps(config, replace(spec, epsilon=e)))
        for est in checked:
            assert est.converged
            assert abs(est.value - exact) <= est.abs_error_estimate


# 2D cells at eps_1 and the default spec (version 0.19.0, R = 4 in the
# frame), with 2% slack for rounds of eight splits that overshoot
GREEDY_CELLS = {
    "collinear": 216,
    "cube_roots": 326,
    "adler_moser_3": 1_493,
    "adler_moser_4": 3_838,
}


@pytest.mark.parametrize("name", sorted(GREEDY_CELLS))
def test_batched_refinement_keeps_the_cell_count(name):
    config = SERIES_CASES[name][0]()
    spec = default_quadrature_spec(config)
    eps = default_epsilon_list(config)
    main = correlation_A_eps(config, replace(spec, epsilon=eps[0]))
    assert main.converged
    assert main.cells_used <= 1.02 * GREEDY_CELLS[name]
    report = correlation_limit(config, eps, spec)
    assert abs(report.extrapolated_limit) <= report.extrapolation_error


def _moved_series_case(name):
    build, rotation, translation = SERIES_CASES[name]
    return transform(build(), Similarity(rotation=rotation, translation=translation))


# the contour form is cheap, so it also runs beyond N = 16 and on a second
# family; the new cases are unmoved.  Adler-Moser n = 7 waits for a more
# accurate chain: its construction residual is 2.8e-12.
CONTOUR_CASES = {
    **{name: functools.partial(_moved_series_case, name) for name in SERIES_CASES},
    "adler_moser_5": lambda: config_from_adler_moser(adler_moser_chain(5, [1.0] * 4)),
    "adler_moser_6": lambda: config_from_adler_moser(adler_moser_chain(6, [1.0] * 5)),
    "polygon_centre_13": lambda: polygon_plus_centre(12),
    "polygon_centre_49": lambda: polygon_plus_centre(48),
}


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_contour_sum_matches_the_exact_series(name):
    # the contour form of A_eps, which correlation_limit's estimates are,
    # against the independent eps-series; its bound covers the difference
    config = CONTOUR_CASES[name]()
    eps = default_epsilon_list(config)
    for e, est in zip(eps, _contour_A_eps(config, eps)[0]):
        exact = eps_series(config, e)
        assert abs(est.value - exact) <= 1e-10 * abs(exact)
        assert abs(est.value - exact) <= est.abs_error_estimate


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_contour_bound_covers_the_exact_series_at_the_ends_of_the_eps_range(name):
    # the wider annulus rho^(7/8) reaches within a tenth of the separation of
    # the other vortices at 0.45 sep, and takes 11 nodes or fewer at 1e-3 sep;
    # 80 terms leave under 0.45^160 of the series.  At 1e-3 sep the two agree
    # only to about 1e-9 relative: no 1e-10 here
    config = CONTOUR_CASES[name]()
    eps = [f * config.min_separation for f in (0.45, 0.3, 1e-3)]
    for e, est in zip(eps, _contour_A_eps(config, eps)[0]):
        assert abs(est.value - eps_series(config, e, terms=80)) <= est.abs_error_estimate


def test_exact_series_takes_any_term_count():
    # 0.22.1 formed gap^-(n+2), whose square overflowed here from 80 terms
    config = transform(collinear_triple(), Similarity(scale=1e-2))
    e = 0.2 * config.min_separation
    assert eps_series(config, e, terms=400) == pytest.approx(eps_series(config, e), rel=1e-14)


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_contour_pass_keeps_the_bits_of_single_eps_calls(name):
    # the eps-free geometry is built once per configuration, and no estimate
    # depends on the other eps of the list
    config = CONTOUR_CASES[name]()
    eps = default_epsilon_list(config)
    estimates, alpha = _contour_A_eps(config, eps)
    for e, est in zip(eps, estimates):
        [alone], alone_alpha = _contour_A_eps(config, [e])
        assert alone.value.hex() == est.value.hex()
        assert alone.abs_error_estimate.hex() == est.abs_error_estimate.hex()
        assert alone_alpha.hex() == alpha.hex()


@pytest.mark.parametrize("name", sorted(CONTOUR_CASES))
def test_correlation_limit_estimates_match_the_exact_series(name):
    # every estimate lies within 1e-10 relative of the eps-series and within
    # its own bound, and the limit, zero at an equilibrium, within its bar
    config = CONTOUR_CASES[name]()
    eps = default_epsilon_list(config)
    report = correlation_limit(config, eps, default_quadrature_spec(config))
    for e, est in zip(eps, report.estimates):
        exact = eps_series(config, e)
        assert abs(est.value - exact) <= 1e-10 * abs(exact)
        assert abs(est.value - exact) <= est.abs_error_estimate
        assert est.converged and est.cells_used == 0 and est.tail_correction == 0.0
    assert abs(report.extrapolated_limit) <= report.extrapolation_error


def _default_limit(config):
    return correlation_limit(config, default_epsilon_list(config), default_quadrature_spec(config))


def test_correlation_limit_at_any_scale():
    # A_eps scales like s^-2.  At s = 1e-12 the 2D main run of version
    # 0.19.0 chased the caller's 1e-5 error target, about 1e-28 in the
    # frame, for over a minute; the contour form meets the unit values
    am3 = config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0]))
    unit = _default_limit(am3)
    for s in (1e-12, 1e-9, 1e-150, 1e150):
        scaled = _default_limit(transform(am3, Similarity(scale=s)))
        limit, bar = scaled.extrapolated_limit * s * s, scaled.extrapolation_error * s * s
        assert limit == pytest.approx(unit.extrapolated_limit, rel=1e-6)
        assert bar == pytest.approx(unit.extrapolation_error, rel=1e-6)
    # a power of two keeps every bit, and so the bar's share of A_eps_1
    collinear = collinear_triple()
    for config in (am3, collinear):
        base = _default_limit(config)
        scaled = _default_limit(transform(config, Similarity(scale=1024.0)))
        assert scaled.extrapolated_limit * 1024.0**2 == base.extrapolated_limit
        assert scaled.extrapolation_error * 1024.0**2 == base.extrapolation_error
        share = scaled.extrapolation_error / abs(scaled.estimates[0].value)
        assert share == base.extrapolation_error / abs(base.estimates[0].value)
    assert share == pytest.approx(1.02e-3, rel=0.01)


@pytest.mark.parametrize("n", [6, 7])
def test_finite_part_explains_the_gap_to_the_exact_series(n):
    # eps_series assumes that every force vanishes; the residual forces of a
    # numerical equilibrium leave C(eps) - eps_series(eps) = F + O(eps^2).
    # The gap already lies within the contour bound, so only this sees F
    config = config_from_adler_moser(adler_moser_chain(n, [1.0] * (n - 1)))
    e = default_epsilon_list(config)[-1]
    gap = _contour_A_eps(config, [e])[0][0].value - eps_series(config, e)
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
            alpha = -8.0 * math.pi * math.fsum(abs(f) ** 2 for f in forces(config))
            remainders = []
            eps = [fraction * config.min_separation for fraction in (1e-2, 1e-3, 1e-4)]
            for e, est in zip(eps, _contour_A_eps(config, eps)[0]):
                remainder = est.value - alpha * math.log(e) - finite_part(config)
                assert abs(remainder) > 100.0 * est.abs_error_estimate
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
        eps = default_epsilon_list(config)
        for e, est in zip(eps, _contour_A_eps(config, eps)[0]):
            quadrature = correlation_A_eps(config, replace(spec, epsilon=e))
            assert quadrature.converged
            bar = quadrature.abs_error_estimate + est.abs_error_estimate
            assert abs(est.value - quadrature.value) <= bar


def _scattered(seed, count, box, separations):
    """``count`` configurations from ``random.Random(seed)``.  Each draws n =
    2 ... 8, then its minimum separation from ``separations`` (a single one
    draws nothing), then points uniform in ``[-box, box]^2``, keeping a point
    only if it is farther than that from the kept ones and then drawing its
    ``d = +-U(0.2, 2)``."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        n = rng.randint(2, 8)
        sep = rng.choice(separations) if len(separations) > 1 else separations[0]
        pairs = []
        while len(pairs) < n:
            z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
            if all(abs(z - a) > sep for a, _ in pairs):
                pairs.append((z, rng.choice([-1, 1]) * rng.uniform(0.2, 2)))
        configs.append(VortexConfiguration.from_pairs(pairs))
    return configs


def _quadrature_and_contour(config, fraction):
    """The 2D ``A_eps`` and the contour form's, at ``eps = fraction * sep``."""
    spec = default_quadrature_spec(config)
    e = fraction * config.min_separation
    quadrature = correlation_A_eps(config, replace(spec, epsilon=e))
    return quadrature, _contour_A_eps(config, [e])[0][0].value


def test_error_estimate_covers_the_contour_value(generic_n5):
    # the contour form is exact to rounding, so it measures the 2D engine's
    # true error.  At 0.18.0 the estimate missed on configuration 35 (from
    # 0) of the seed-11 set (3.7-fold), on the generic N = 5 equilibrium
    # (1.6-fold) and 6 times in the 25 of the seed-5 set (up to 26-fold)
    runs = [(config, 0.2) for config in _scattered(11, 40, 3.0, [0.3]) + [generic_n5]]
    runs += [(config, 0.4) for config in _scattered(5, 25, 2.0, [0.05, 0.1, 0.3])]
    for config, fraction in runs:
        quadrature, contour = _quadrature_and_contour(config, fraction)
        assert quadrature.converged
        assert abs(quadrature.value - contour) <= quadrature.abs_error_estimate


@pytest.mark.xfail(
    strict=True,
    reason="crowded regime: at eps = 0.45 sep (97% of the largest accepted eps) "
    "the cutoff ramp is short, and the 2D estimate misses on configurations 4, 5 "
    "and 24 of the seed-5 set (64.7, 1.0 and 1.9-fold; 0.18.0 missed on 4, 8 and "
    "24, 2.6, 1.9 and 7.6-fold)",
)
def test_crowded_error_estimate_covers_the_contour_value():
    config = _scattered(5, 5, 2.0, [0.05, 0.1, 0.3])[4]
    quadrature, contour = _quadrature_and_contour(config, 0.45)
    assert quadrature.converged
    assert abs(quadrature.value - contour) <= quadrature.abs_error_estimate


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
    eps = default_epsilon_list(config)
    alpha = -8.0 * math.pi * math.fsum(abs(f) ** 2 for f in forces(config))
    values = [est.value for est in _contour_A_eps(config, eps)[0]]
    limit, _, spread = _extrapolate(eps, values, alpha)
    assert abs(limit) <= spread


def test_generic_equilibrium_limit_within_its_bar(generic_n5):
    # at 0.18.0 the 2D main run's error estimate understated its true error
    # 1.6-fold here (limit -1.304e-5 against a bar of 1.028e-5)
    config = generic_n5
    report = correlation_limit(
        config, default_epsilon_list(config), default_quadrature_spec(config)
    )
    assert abs(report.extrapolated_limit) <= report.extrapolation_error


def test_shared_error_counted_once():
    # with three independent per-eps runs (version 0.1.0) the error bar was
    # 5.2044e-4; no later engine may widen it
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
    assert spec.cutoff_radius == 16.0
    assert spec.epsilon == pytest.approx(0.1)
    eps = default_epsilon_list(config)
    assert eps == pytest.approx([0.2, 0.1, 0.05])


def test_default_radius_is_four_in_the_frame():
    # R = 4 * 2^k, 2^k the binade of the diameter (k = 0 for one vortex)
    configs = [
        VortexConfiguration.from_pairs([(1e6 + 3j, 2.0)]),
        VortexConfiguration.from_pairs([(0j, 1.0), (1.0, 1.0)]),
        collinear_triple(),
        config_from_adler_moser(adler_moser_chain(3, [1.0, 1.0])),
        random_configuration(np.random.default_rng(8), 7),
    ]
    configs += [transform(collinear_triple(), Similarity(scale=s)) for s in (1e-12, 3e100)]
    for config in configs:
        spec = default_quadrature_spec(config)
        assert spec.cutoff_radius == math.ldexp(4.0, math.frexp(config.diameter)[1])
        assert spec.cutoff_radius * _shrink(config) == 4.0
