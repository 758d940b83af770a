import math

import numpy as np
import pytest

from oracles import beta_inc_by_quadrature
from physbc.certify import (
    GeometryFactor,
    beta_inc,
    beta_inc_inv,
    check_deterministic,
    check_probabilistic,
    min_violation_level,
)
from physbc.errors import (
    DomainError,
    GeometrySaturationError,
    InsufficientSamplesError,
)


@pytest.mark.parametrize("lam,gam,nu", [
    (1.0, 1.0, 0.37),
    (2.0, 3.0, 0.5),
    (6.0, 100.0, 0.05),
    (6.0, 10_000.0, 5e-4),
    (10.0, 150_000.0, 1e-4),
    (0.5, 0.5, 0.2),
])
def test_beta_inc_matches_quadrature(lam, gam, nu):
    ours = beta_inc(nu, lam, gam)
    reference = beta_inc_by_quadrature(nu, lam, gam)
    assert ours == pytest.approx(reference, abs=1e-9)


@pytest.mark.parametrize("gam", [1.0, 100.0, 10_000.0, 150_000.0])
@pytest.mark.parametrize("nu", [1e-6, 1e-4, 0.01, 0.5])
def test_beta_inc_shape_one_closed_form(gam, nu):
    # lam = 1 reduces to 1 - (1 - nu)^gam
    expected = -math.expm1(gam * math.log1p(-nu))
    assert beta_inc(nu, 1.0, gam) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("lam", [1.0, 2.0, 6.0, 10.0])
@pytest.mark.parametrize("gam", [1.0, 100.0, 10_000.0, 150_000.0])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
def test_inverse_round_trip(lam, gam, p):
    nu = beta_inc_inv(p, lam, gam)
    assert 0.0 < nu < 1.0
    assert beta_inc(nu, lam, gam) == pytest.approx(p, abs=1e-10)


def test_inverse_frozen_values():
    # lam = 1 inverse has a closed form: 1 - (1 - p)^(1/gam)
    assert beta_inc_inv(0.95, 1.0, 10.0) == pytest.approx(
        1.0 - 0.05 ** 0.1, abs=1e-13)
    # large-sample regime typical of certification runs
    assert beta_inc_inv(0.95, 6.0, 130_229.0) == pytest.approx(
        8.072249e-05, abs=1e-10)
    assert beta_inc_inv(0.95, 6.0, 259_995.0) == pytest.approx(
        4.043432e-05, abs=1e-10)


def test_beta_inc_edges_and_domain():
    assert beta_inc(0.0, 2.0, 3.0) == 0.0
    assert beta_inc(1.0, 2.0, 3.0) == 1.0
    for bad in (-0.1, 1.1):
        with pytest.raises(DomainError):
            beta_inc(bad, 2.0, 3.0)
    with pytest.raises(DomainError):
        beta_inc(0.5, 0.0, 3.0)
    with pytest.raises(DomainError):
        beta_inc(0.5, 2.0, -1.0)
    # inverse endpoints are exact, out-of-range probabilities are rejected
    assert beta_inc_inv(0.0, 2.0, 3.0) == 0.0
    assert beta_inc_inv(1.0, 2.0, 3.0) == 1.0
    with pytest.raises(DomainError):
        beta_inc_inv(-0.2, 2.0, 3.0)
    with pytest.raises(DomainError):
        beta_inc_inv(1.2, 2.0, 3.0)


def test_min_violation_level_reference_points():
    assert min_violation_level(0.05, 6, 130_234) == pytest.approx(
        8.072249e-05, abs=2e-10)
    assert min_violation_level(0.05, 6, 260_000) == pytest.approx(
        4.043432e-05, abs=2e-10)


def test_min_violation_level_monotone():
    counts = [10_000, 40_000, 160_000, 640_000]
    levels = [min_violation_level(0.05, 6, p) for p in counts]
    assert all(a > b for a, b in zip(levels, levels[1:]))
    by_c = [min_violation_level(0.05, c, 100_000) for c in (3, 6, 12, 24)]
    assert all(a < b for a, b in zip(by_c, by_c[1:]))


def test_min_violation_level_needs_more_samples_than_decisions():
    with pytest.raises(InsufficientSamplesError):
        min_violation_level(0.05, 6, 6)
    with pytest.raises(InsufficientSamplesError):
        min_violation_level(0.05, 6, 5)
    with pytest.raises(DomainError):
        min_violation_level(0.0, 6, 100)
    with pytest.raises(DomainError):
        min_violation_level(0.05, 0, 100)


def test_geometry_mass_interval_coefficient():
    # fraction of an interval of length a covered by a radius-r ball at an
    # endpoint: mass(r) = r / a exactly
    for a, coeff in ((2.2, 1 / 2.2), (0.9, 1 / 0.9)):
        factor = GeometryFactor(a)
        r = 1e-3
        assert factor.mass(r) / r == pytest.approx(coeff, rel=1e-12)


def test_geometry_mass_clamps_at_one():
    factor = GeometryFactor(0.9)
    assert factor.mass(10.0) == 1.0
    assert factor.mass(0.0) == 0.0


def test_geometry_radius_inverts_mass():
    factor = GeometryFactor(2.2)
    for phi in (1e-5, 1e-3, 0.1, 0.9):
        assert factor.mass(factor.radius(phi)) == pytest.approx(phi, rel=1e-12)


def test_geometry_radius_error_paths():
    factor = GeometryFactor(2.2)
    with pytest.raises(DomainError):
        factor.radius(-1e-9)
    with pytest.raises(GeometrySaturationError):
        factor.radius(1.0)
    with pytest.raises(GeometrySaturationError):
        factor.radius(1.5)


def test_geometry_rejects_unsupported_dimension():
    from physbc.models import RegionBox
    with pytest.raises(ValueError):
        GeometryFactor.from_region(RegionBox(np.zeros(2), np.ones(2)))
    for length in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="length must be positive"):
            GeometryFactor(length)


def test_geometry_from_region():
    from physbc.models import RegionBox
    factor = GeometryFactor.from_region(RegionBox.interval(0.5, 2.7))
    assert factor.length == 2.2


def test_deterministic_check_arithmetic():
    report = check_deterministic(slack=-0.05, lipschitz=100.0, covering_radius=4e-4)
    assert report.condition == pytest.approx(100.0 * 4e-4 - 0.05)
    assert report.passed
    assert report.confidence == 1.0
    assert report.mode == "deterministic"
    failing = check_deterministic(slack=-0.01, lipschitz=100.0, covering_radius=4e-4)
    assert failing.condition > 0 and not failing.passed
    boundary = check_deterministic(slack=-0.04, lipschitz=100.0, covering_radius=4e-4)
    assert boundary.condition == pytest.approx(0.0, abs=1e-15)
    assert boundary.passed


def test_deterministic_check_requires_positive_radius():
    with pytest.raises(DomainError):
        check_deterministic(slack=-0.1, lipschitz=1.0, covering_radius=0.0)


def test_probabilistic_check_arithmetic():
    geometry = GeometryFactor(2.2)
    level = min_violation_level(0.05, 6, 150_260)
    report = check_probabilistic(slack=-0.2094, lipschitz=11.51,
                                 violation_level=level, geometry=geometry,
                                 risk=0.05, decision_count=6)
    expected = -0.2094 + 11.51 * geometry.radius(level)
    assert report.condition == pytest.approx(expected, rel=1e-12)
    assert report.passed
    assert report.confidence == pytest.approx(0.95)
    assert report.mode == "probabilistic"
    assert report.violation_level == level
    data = report.to_dict()
    assert data["verdict"] == "pass"
    assert data["risk"] == pytest.approx(0.05)


def test_probabilistic_check_fails_when_slack_too_small():
    geometry = GeometryFactor(2.2)
    report = check_probabilistic(slack=-1e-6, lipschitz=50.0,
                                 violation_level=1e-4, geometry=geometry,
                                 risk=0.05)
    assert not report.passed
