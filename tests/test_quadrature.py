import cmath
import math

import numpy as np
import pytest

import vortexcorr.correlation as correlation
from vortexcorr.core import VortexConfiguration
from vortexcorr.correlation import correlation_A_eps, default_quadrature_spec, pair_integral
from vortexcorr.quadrature import (
    QuadratureResult,
    QuadratureSpec,
    _add,
    _background_cells,
    _cell_estimates,
    _cutoff,
    _hole_weight,
    _Region,
    _smooth_step,
    integrate_excised_disk,
)
from vortexcorr.rational import integrand_values

from conftest import random_configuration
from oracles import pair_kernel_over_disk


def test_spec_validation():
    QuadratureSpec(epsilon=0.1, cutoff_radius=10.0)
    with pytest.raises(ValueError):
        QuadratureSpec(epsilon=0.0, cutoff_radius=10.0)
    with pytest.raises(ValueError):
        QuadratureSpec(epsilon=0.1, cutoff_radius=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(epsilon=0.1, cutoff_radius=10.0, target_abs_error=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(epsilon=0.1, cutoff_radius=10.0, max_cells=0)


def test_result_validation():
    QuadratureResult(1.0, 0.1, 0.0, 5)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, -0.1, 0.0, 5)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, 0.1, 0.0, -1)


def test_smooth_step_shape():
    ts = np.linspace(-0.5, 1.5, 101)
    vals = _smooth_step(ts)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= 0.0)
    assert _smooth_step(np.array([0.5]))[0] == pytest.approx(0.5)


def test_cutoff_is_a_partition_of_unity():
    plateau, support = 0.3, 0.7
    r = np.linspace(0.0, 1.0, 10_001)
    w = _cutoff(r, plateau, support)
    assert np.all(w[r <= plateau] == 1.0)
    assert np.all(w[r >= support] == 0.0)
    assert np.all(np.diff(w) <= 0.0)
    # the patch's s and the background's 1 - s meet at one point, exactly
    assert _smooth_step(np.array([0.5]))[0] == 0.5
    ts = np.linspace(-0.5, 1.5, 20_001)
    gap = _smooth_step(ts) + _smooth_step(1.0 - ts) - 1.0
    assert np.max(np.abs(gap)) <= 4.0 * np.finfo(np.float64).eps


def hole_weight_reference(zs, holes):
    """The background weight as one N x holes table, the form of version 0.15.0."""
    centers, plateaus, supports = holes
    dist = np.abs(zs[:, None] - centers)
    node, hole = np.nonzero(dist < supports)
    w = np.ones(len(zs))
    w[node] = 1.0 - _cutoff(dist[node, hole], plateaus[hole], supports[hole])
    return w


def test_hole_weight_keeps_its_bits(rng):
    # a hole at the origin with dyadic radii puts nodes at exactly the
    # plateau and support distances; the random ones have disjoint supports
    hole_sets = [(np.array([0j]), np.array([0.25]), np.array([0.375]))]
    for n in (2, 5, 9):
        centers = np.array(random_configuration(rng, n).positions)
        gaps = np.abs(centers[:, None] - centers)
        np.fill_diagonal(gaps, np.inf)
        room = gaps.min(axis=1)
        hole_sets.append((centers, 0.25 * room, 0.45 * room))
    for holes in hole_sets:
        zs = [rng.uniform(-3.0, 3.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400)]
        for c, p, s in zip(*holes):
            direction = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 40))
            zs.append(c + rng.uniform(0.0, 1.2 * s, 40) * direction)
            # one ulp inside and outside the support, on it, and on the plateau
            for r in (np.nextafter(s, 0.0), s, np.nextafter(s, np.inf), p):
                zs.append(c + r * np.concatenate([direction, [1.0, -1.0, 1j, -1j]]))
        zs = np.concatenate(zs)
        patches = [_Region(c, p, s) for c, p, s in zip(*(a.tolist() for a in holes))]
        weights = _hole_weight(zs, patches)
        assert np.array_equal(weights, hole_weight_reference(zs, holes))
        # the nodes cover the plateau, the ramp and the outside of the holes
        assert (weights == 0.0).any() and (weights == 1.0).any()
        assert ((0.0 < weights) & (weights < 1.0)).any()


def ones(z):
    return np.ones_like(z.real)


def test_area_with_excisions():
    # the partition of unity must reproduce plain areas exactly
    two = [0j, 1 + 0j]
    # ten holes: a 3x3 grid 0.5 apart plus one more 0.22 from a grid point;
    # their supports straddle the background's radial breakpoints that the
    # neighbouring holes put there
    ten = [complex(0.5 * i, 0.5 * j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    ten.append(1.2 + 0.4j)
    for centers, eps, radius, target in ((two, 0.1, 10.0, 1e-8), (ten, 0.05, 4.0, 1e-7)):
        value, err, cells, converged = integrate_excised_disk(
            ones, centers, eps, radius, target, 10**6
        )
        exact = math.pi * (radius**2 - len(centers) * eps**2)
        assert converged
        assert abs(value.real - exact) < 1e-7
        assert value.imag == 0.0


def test_area_over_random_centre_sets(rng):
    # whatever the centres, the derived supports are disjoint and lie inside
    # B_R, also where the truncation circle is a hole's nearest neighbour
    for n in (1, 2, 3, 4, 5, 6):
        centers = np.array(random_configuration(rng, n).positions)
        far = max(abs(centers))
        radius = far * rng.uniform(1.05, 2.0)
        gaps = [abs(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]]
        eps = 0.2 * min(gaps + [2.0 * (radius - far)])
        value, err, cells, converged = integrate_excised_disk(
            ones, centers, eps, radius, 1e-8, 10**6
        )
        assert converged
        assert abs(value.real - math.pi * (radius**2 - n * eps**2)) < 1e-7


def test_small_hole_error_bar_covers_area():
    # two holes 0.09 apart at |c| = 1: a 45-degree starting panel would hold
    # both, and its Gauss nodes missed part of each dip with both rules
    # agreeing; the background's panels are bisected down to the holes' width
    c = cmath.exp(0.39j)
    value, err, cells, converged = integrate_excised_disk(
        ones, [c, c + 0.09j * c], 0.018, 5.0, 1e-8, 10**6
    )
    assert converged
    assert abs(value.real - math.pi * (25.0 - 2 * 0.018**2)) <= err


def test_pair_kernel_over_a_disk_without_holes():
    # with no centres the background alone covers B_R; its closed form is the
    # oracle that adds back the third vortex's disk in the decomposition test
    p, q = 1.7 + 0.4j, -0.9 + 1.6j
    value, err, cells, converged = integrate_excised_disk(
        lambda z: 1.0 / (np.conj(z - p) ** 2 * (z - q) ** 2), [], 0.1, 1.2, 1e-12, 10**5
    )
    assert converged
    assert abs(value - pair_kernel_over_disk(p, q, 0j, 1.2)) <= err


def test_error_ledger_is_exact(rng):
    # additions and removals over 600 decades, with exact cancellations: after
    # every step the partials sum to the live terms, correctly rounded
    partials, live = [], []
    for step in range(3000):
        if live and rng.random() < 0.4:
            x = live.pop(int(rng.integers(len(live))))
            _add(partials, -x)
        else:
            x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))
            if step % 7 == 0:
                # a term that cancels part of the sum to the last bit
                x = -math.fsum(live[-3:])
            live.append(x)
            _add(partials, x)
        assert math.fsum(partials) == math.fsum(live)
    for x in live:
        _add(partials, -x)
    assert math.fsum(partials) == 0.0
    assert all(p == 0.0 for p in partials)


def test_error_ledger_keeps_one_nan_for_a_non_finite_term():
    # Shewchuk's recipe would add a NaN partial at every later call, so a
    # starting mesh of 10,000 cells would take seconds once one error overflowed
    for bad in (math.inf, -math.inf, math.nan):
        partials = []
        for x in [1.0, 1e-300, bad] + [2.0**-k for k in range(100)]:
            _add(partials, x)
        assert len(partials) == 1 and math.isnan(partials[0])


def test_nan_integrand_stops_unconverged():
    # a NaN cell error never leaves the error total, so no split can meet the
    # target: the run stops on its starting mesh, unconverged and non-finite
    def f(z):
        return np.where((np.abs(z) < 0.3) & (z.real > 0.0), np.nan, 1.0)

    start = integrate_excised_disk(ones, [0j], 0.1, 5.0, 1e300, 10**4)
    value, err, cells, converged = integrate_excised_disk(f, [0j], 0.1, 5.0, 1e-8, 10**4)
    assert not converged
    assert not math.isfinite(err)
    assert cells == start[2]


def test_unresolvable_cells_freeze_and_the_budget_ends_the_run():
    # a pole of 1/r^3 inside the disk: its cells shrink to the least splittable
    # size and freeze, their error kept in the total; the run spends its budget
    # and stops unconverged.  Splitting them further divides by zero, which
    # the suite's warning filter turns into an error
    pole = 0.5 + 0.3j
    nearest = []

    def f(z):
        nearest.append(np.abs(z - pole).min())
        return 1.0 / np.abs(z - pole) ** 3

    value, err, cells, converged = integrate_excised_disk(f, [0j], 0.1, 2.0, 1e-6, 2000)
    assert not converged
    assert 2000 - 3 <= cells <= 2000
    assert 1e-6 < err < math.inf
    assert math.isfinite(value.real)
    assert min(nearest) < 1e-9


def test_excisions_must_fit_inside_domain():
    for center in (10.0 + 0j, 6.0 - 8.5j):
        with pytest.raises(ValueError, match="fit inside"):
            integrate_excised_disk(ones, [0j, center], 0.1, 10.0, 1e-6, 10**5)


def test_budget_exhaustion_flag():
    # each round splits up to eight cells, none past the budget, so an
    # exhausted run stops within one split (four cells) of it; the budgets
    # are not multiples of the 32 cells of a full round, and the run would
    # converge in 416
    for max_cells in (200, 203, 301):
        value, err, cells, converged = integrate_excised_disk(
            lambda z: 1.0 / (z.real**2 + z.imag**2),
            [0j],
            0.01,
            10.0,
            1e-12,
            max_cells=max_cells,
        )
        assert not converged
        assert max_cells - 3 <= cells <= max_cells
        assert err > 1e-12


def test_bit_identical_repeat_runs():
    def f(z):
        return 1.0 / ((z.real - 0.3) ** 2 + (z.imag - 0.2) ** 2 + 0.01)

    first = integrate_excised_disk(f, [0.3 + 0.2j], 0.05, 5.0, 1e-7, 10**6)
    second = integrate_excised_disk(f, [0.3 + 0.2j], 0.05, 5.0, 1e-7, 10**6)
    assert first == second


def test_bit_exact_golden_values():
    # float.hex of (value, error, cells) pinned from the single-cell estimator;
    # any change to nodes, weights, hole cutoffs, reductions or refinement
    # order shows up here
    def f(z):
        return np.exp(-0.25 * (z.real**2 + z.imag**2)) * (1.0 + z) / (z - 3.0 - 2.0j)

    centers = [0j, 0.8 + 0.3j, -0.6 + 0.9j]
    value, err, cells, converged = integrate_excised_disk(f, centers, 0.05, 6.0, 1e-6, 10**5)
    assert (value.real.hex(), value.imag.hex(), err.hex(), cells, converged) == (
        "-0x1.25c8c53ced1b5p+1",
        "0x1.db32ddf8590acp+0",
        "0x1.f6de728ea2223p-21",
        796,
        True,
    )

    res = pair_integral(
        0.2j,
        1.0 + 0.5j,
        0.1,
        QuadratureSpec(epsilon=0.1, cutoff_radius=20.0, target_abs_error=1e-4),
    )
    assert (
        res.value.hex(),
        res.abs_error_estimate.hex(),
        res.tail_correction.hex(),
        res.cells_used,
        res.converged,
    ) == (
        "0x1.0988339740000p-23",
        "0x1.9f62188589d7dp-16",
        "0x1.01024c4334cafp-7",
        144,
        True,
    )


# the non-equilibrium triple of the benchmark's corr-small workload
MOVED_TRIPLE = VortexConfiguration.from_pairs([(-1.0, 1.0), (0.05j, -0.5), (1.0, 1.0)])


def _hex(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def test_one_call_on_32_cells_keeps_every_bit(rng):
    # the starting mesh goes to f in runs of up to 32 cells: each cell's
    # value and error must not depend on the cells estimated beside it
    centers = np.array(MOVED_TRIPLE.positions)
    gaps = np.abs(centers[:, None] - centers)
    np.fill_diagonal(gaps, np.inf)
    supports = 0.49 * gaps.min(axis=1)
    holes = [_Region(c, 0.105, s) for c, s in zip(centers.tolist(), supports.tolist())]
    a, b = centers[0], centers[2]
    kernels = {
        "integrand": lambda zs: integrand_values(MOVED_TRIPLE, zs),
        "pair": lambda zs: (1.0 / (np.conj(zs - a) * (zs - b))) ** 2,
    }
    regions = {
        # a patch's cells run from its plateau out past its support
        "patch": (_Region(complex(a), 0.105, float(supports[0])), 0.1, float(supports[0])),
        "background": (_Region(0j, holes=holes), 0.0, 4.0),
    }
    for kernel in kernels.values():
        for region, inner, outer in regions.values():
            r = np.sort(rng.uniform(inner, outer, (32, 2)), axis=1)
            t = np.sort(rng.uniform(0.0, 2.0 * np.pi, (32, 2)), axis=1)
            cells = [(r0, r1, t0, t1) for (r0, r1), (t0, t1) in zip(r.tolist(), t.tolist())]
            values, errs = _cell_estimates(kernel, region, cells)
            alone = [_cell_estimates(kernel, region, [cell]) for cell in cells]
            assert _hex(values) == _hex(v[0] for v, _ in alone)
            assert [e.hex() for e in errs] == [e[0].hex() for _, e in alone]


@pytest.fixture
def f_calls(monkeypatch):
    """The node count of every call of ``f`` by the 2D engine of ``correlation``."""
    calls = []

    def counted(f, *args):
        def g(zs):
            calls.append(zs.size)
            return f(zs)

        return integrate_excised_disk(g, *args)

    monkeypatch.setattr(correlation, "integrate_excised_disk", counted)
    return calls


def test_starting_mesh_goes_to_f_in_round_sized_batches(f_calls):
    # one ring per call took 19 calls for the pair and 20-21 for A_eps; runs
    # of up to 32 cells take 8 and 9 with the same cells and bits
    spec = QuadratureSpec(epsilon=0.1, cutoff_radius=100.0, target_abs_error=1e-6)
    res = pair_integral(0j, cmath.exp(0.7j), 0.1, spec)
    assert res.converged and len(f_calls) == 8
    f_calls.clear()
    res = correlation_A_eps(MOVED_TRIPLE, default_quadrature_spec(MOVED_TRIPLE))
    assert res.converged and len(f_calls) == 9
    assert max(f_calls) <= 32 * 170


def test_no_call_of_f_takes_more_than_32_cells():
    # a small hole far out: its angular alignment bisects each ring it meets
    # into more than 32 cells, which once went to f whole
    center, eps, radius = 999.9 + 0j, 0.01, 1000.0
    support = 0.49 * 2.0 * (radius - abs(center))
    patch = _Region(center, 1.05 * eps, support)
    rings = {}
    for r0, r1, _, _ in _background_cells([patch], radius):
        rings[r0, r1] = rings.get((r0, r1), 0) + 1
    assert max(rings.values()) > 32
    calls = []

    def f(zs):
        calls.append(zs.size)
        return np.ones(zs.shape)

    value, err, cells, converged = integrate_excised_disk(f, [center], eps, radius, 1e-3, 10**4)
    assert converged
    assert abs(value.real - math.pi * (radius**2 - eps**2)) <= err
    assert max(calls) <= 32 * 170
