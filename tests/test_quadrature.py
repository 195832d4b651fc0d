import math

import numpy as np
import pytest

from vortexcorr.correlation import pair_integral
from vortexcorr.quadrature import (
    DiskExcision,
    QuadratureResult,
    QuadratureSpec,
    _smooth_step,
    integrate_disk,
    integrate_excised_disk,
)


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


def test_excision_validation():
    DiskExcision(0j, 0.1, 0.2, 0.4)
    with pytest.raises(ValueError):
        DiskExcision(0j, 0.3, 0.2, 0.4)  # plateau below excised radius
    with pytest.raises(ValueError):
        DiskExcision(0j, 0.1, 0.5, 0.4)  # support below plateau


def test_smooth_step_shape():
    ts = np.linspace(-0.5, 1.5, 101)
    vals = _smooth_step(ts)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= 0.0)
    assert _smooth_step(np.array([0.5]))[0] == pytest.approx(0.5)


def test_area_with_excisions():
    # the partition of unity must reproduce plain areas exactly
    two = [
        DiskExcision(0j, 0.1, 0.25, 0.45),
        DiskExcision(1 + 0j, 0.1, 0.25, 0.45),
    ]
    # ten holes: a 3x3 grid whose supports are 0.02 apart, plus one more;
    # their supports straddle the background's radial breakpoints
    # (0.467, 0.5, 0.707, 0.74, ...) that the neighbouring holes put there
    ten = [
        DiskExcision(complex(0.5 * i, 0.5 * j), 0.05, 0.12, 0.24)
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
    ]
    ten.append(DiskExcision(1.2 + 0.4j, 0.03, 0.08, 0.2))
    for excisions, radius, target in ((two, 10.0, 1e-8), (ten, 4.0, 1e-7)):
        value, err, cells, converged = integrate_excised_disk(
            lambda z: np.ones_like(z.real), excisions, radius, target, 10**6
        )
        exact = math.pi * (radius**2 - sum(e.radius**2 for e in excisions))
        assert converged
        assert abs(value.real - exact) < 1e-7
        assert value.imag == 0.0


def test_gaussian_over_disk():
    value, err, cells, converged = integrate_disk(
        lambda z: np.exp(-(z.real**2 + z.imag**2)), 0j, 8.0, 1e-10
    )
    assert converged
    assert value.real == pytest.approx(math.pi * (1.0 - math.exp(-64.0)), abs=1e-9)


def test_quadratic_moment_over_disk():
    value, *_ = integrate_disk(lambda z: z.real**2 + z.imag**2, 0.5j, 1.0, 1e-10)
    # translating the disk center shifts the moment: pi/2 + pi |c|^2
    assert value.real == pytest.approx(math.pi / 2 + math.pi * 0.25, abs=1e-9)


def test_excisions_must_fit_inside_domain():
    excisions = [DiskExcision(9.9 + 0j, 0.1, 0.25, 0.45)]
    with pytest.raises(ValueError, match="fit inside"):
        integrate_excised_disk(lambda z: np.ones_like(z.real), excisions, 10.0, 1e-6, 10**5)


def test_excisions_must_not_overlap():
    excisions = [
        DiskExcision(0j, 0.1, 0.3, 0.6),
        DiskExcision(1 + 0j, 0.1, 0.3, 0.6),
    ]
    with pytest.raises(ValueError, match="overlap"):
        integrate_excised_disk(lambda z: np.ones_like(z.real), excisions, 10.0, 1e-6, 10**5)


def test_budget_exhaustion_flag():
    excisions = [DiskExcision(0j, 0.01, 0.05, 0.2)]
    value, err, cells, converged = integrate_excised_disk(
        lambda z: 1.0 / (z.real**2 + z.imag**2),
        excisions,
        10.0,
        1e-12,
        max_cells=200,
    )
    assert not converged
    assert cells <= 200
    assert err > 1e-12


def test_bit_identical_repeat_runs():
    excisions = [DiskExcision(0.3 + 0.2j, 0.05, 0.1, 0.2)]

    def f(z):
        return 1.0 / ((z.real - 0.3) ** 2 + (z.imag - 0.2) ** 2 + 0.01)

    first = integrate_excised_disk(f, excisions, 5.0, 1e-7, 10**6)
    second = integrate_excised_disk(f, excisions, 5.0, 1e-7, 10**6)
    assert first == second


def test_bit_exact_golden_values():
    # float.hex of (value, error, cells) pinned from the single-cell estimator;
    # any change to nodes, weights, hole cutoffs, reductions or refinement
    # order shows up here
    def f(z):
        return np.exp(-0.25 * (z.real**2 + z.imag**2)) * (1.0 + z) / (z - 3.0 - 2.0j)

    excisions = [
        DiskExcision(0j, 0.05, 0.1, 0.3),
        DiskExcision(0.8 + 0.3j, 0.05, 0.12, 0.35),
        DiskExcision(-0.6 + 0.9j, 0.04, 0.1, 0.25),
    ]
    value, err, cells, converged = integrate_excised_disk(f, excisions, 6.0, 1e-6, 10**5)
    assert (value.real.hex(), value.imag.hex(), err.hex(), cells, converged) == (
        "-0x1.25d4a03dd08e4p+1",
        "0x1.db17935ea4f70p+0",
        "0x1.07fa8574856fcp-20",
        996,
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
        "0x1.ceea252c00000p-24",
        "0x1.c3f2753b933a7p-9",
        "0x1.010234cd02041p-7",
        296,
        True,
    )

    value, err, cells, converged = integrate_disk(
        lambda z: (1.0 + 1j * z.real) / (1.0 + 16.0 * np.abs(z - 0.5) ** 2),
        0.3j,
        2.0,
        1e-11,
    )
    assert (value.real.hex(), value.imag.hex(), err.hex(), cells, converged) == (
        "0x1.9b05b41126873p-1",
        "0x1.382d377407954p-2",
        "0x1.025ac0e49b6bdp-37",
        80,
        True,
    )
