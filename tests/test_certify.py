import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import beta_inc_by_quadrature, binomial_tail
from physbc.certify import check_deterministic, check_probabilistic, min_violation_level
from physbc.errors import PhysbcError


def _counts(lam, gam):
    """Scenario counts ``(c, P)`` whose level is the Beta(lam, gam) ``1 - risk`` quantile."""
    return int(lam), int(lam + gam) - 1


def assert_level_is_the_tail_root(risk, c, count):
    """The exact tail is at most ``risk`` at the level and above it 1e-11 lower."""
    level = min_violation_level(risk, c, count)
    assert binomial_tail(level, c, count) <= Decimal(risk)
    assert binomial_tail(level * (1.0 - 1e-11), c, count) > Decimal(risk)
    return level


@settings(max_examples=200, deadline=None)
@given(risk=st.floats(1e-10, 0.99), c=st.integers(1, 30), draw=st.data())
def test_level_is_the_safe_side_root_of_the_binomial_tail(risk, c, draw):
    count = draw.draw(st.integers(c + 1, 10**6), label="retained_count")
    assert_level_is_the_tail_root(risk, c, count)


@pytest.mark.parametrize("risk,c,count", [
    (1e-9, 5, 2000),  # off by 5.1e-7 relative before the tail was solved directly
    (0.05, 5, 130_203),  # lg-prob-phys at scale 1.0
    (0.05, 5, 260_000),  # lg-prob-trad
    (0.05, 5, 150_402),  # sd-prob-phys
    (0.05, 5, 300_000),  # sd-prob-trad
])
def test_level_pinned_cases(risk, c, count):
    assert_level_is_the_tail_root(risk, c, count)


@pytest.mark.parametrize("lam,gam,nu", [
    (1.0, 1.0, 0.37),
    (2.0, 3.0, 0.5),
    (6.0, 100.0, 0.05),
    (6.0, 10_000.0, 5e-4),
    (10.0, 150_000.0, 1e-4),
])
def test_beta_inc_matches_quadrature(lam, gam, nu):
    # the level is the 1 - risk quantile of Beta(c, P - c + 1); gam = 1 is P = c
    c, count = _counts(lam, gam)
    risk = 1.0 - beta_inc_by_quadrature(nu, lam, gam)
    if count == c:
        with pytest.raises(PhysbcError, match="retained samples cannot support"):
            min_violation_level(risk, c, count)
        return
    level = min_violation_level(risk, c, count)
    assert beta_inc_by_quadrature(level, lam, gam) == pytest.approx(1.0 - risk, abs=1e-9)
    assert level == pytest.approx(nu, rel=1e-6)


@pytest.mark.parametrize("gam", [1.0, 100.0, 10_000.0, 150_000.0])
@pytest.mark.parametrize("risk", [1e-6, 1e-4, 0.01, 0.5])
def test_beta_inc_shape_one_closed_form(gam, risk):
    # one decision variable: the tail is (1 - level)^P, so level = 1 - risk^(1/P)
    c, count = _counts(1.0, gam)
    if count == c:
        with pytest.raises(PhysbcError, match="retained samples cannot support"):
            min_violation_level(risk, c, count)
        return
    expected = -math.expm1(math.log(risk) / count)
    assert min_violation_level(risk, c, count) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("lam", [1.0, 2.0, 6.0, 10.0])
@pytest.mark.parametrize("gam", [1.0, 100.0, 10_000.0, 150_000.0])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
def test_inverse_round_trip(lam, gam, p):
    c, count = _counts(lam, gam)
    if count == c:
        with pytest.raises(PhysbcError, match="retained samples cannot support"):
            min_violation_level(1.0 - p, c, count)
        return
    level = assert_level_is_the_tail_root(1.0 - p, c, count)
    assert 0.0 < level < 1.0


def test_inverse_frozen_values():
    # one decision variable has a closed form: 1 - risk^(1/P)
    assert min_violation_level(0.05, 1, 10) == pytest.approx(1.0 - 0.05 ** 0.1, rel=1e-12)
    # large-sample regime typical of certification runs
    assert min_violation_level(0.05, 6, 130_234) == pytest.approx(8.072249e-05, abs=1e-10)
    assert min_violation_level(0.05, 6, 260_000) == pytest.approx(4.043432e-05, abs=1e-10)


def test_min_violation_level_edges_and_domain():
    # the level tends to 0 as the risk tends to 1, and to 1 as it tends to 0
    assert 0.0 < min_violation_level(math.nextafter(1.0, 0.0), 1, 2) < 1e-16
    assert min_violation_level(1e-20, 1, 2) == pytest.approx(1.0 - 1e-10, abs=1e-15)
    assert min_violation_level(1e-300, 1, 2) == 1.0  # the root, 1 - 1e-150, rounds up to 1
    for bad in (0.0, 1.0, -0.2, 1.2, math.nan):
        with pytest.raises(PhysbcError, match="risk"):
            min_violation_level(bad, 2, 10)
    # counts are integers, numpy's among them, bool excluded
    assert min_violation_level(0.05, np.int64(5), 1000) == min_violation_level(0.05, 5, 1000)
    assert min_violation_level(0.05, 1, np.int64(1000)) == min_violation_level(0.05, 1, 1000)
    # the binomials stay exact Python integers: C(130 234, 5) overflows an int64
    assert (min_violation_level(0.05, np.int64(6), np.int64(130_234))
            == min_violation_level(0.05, 6, 130_234))
    for bad in (5.5, 5.0, np.float64(5.0), True, np.bool_(True), "5", None):
        with pytest.raises(PhysbcError, match="decision_count must be an integer"):
            min_violation_level(0.05, bad, 100)
        with pytest.raises(PhysbcError, match="retained_count must be an integer"):
            min_violation_level(0.05, 1, bad)
    for bad in (0, -3):
        with pytest.raises(PhysbcError, match="decision_count must be positive"):
            min_violation_level(0.05, bad, 100)


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
    with pytest.raises(PhysbcError, match="6 retained samples cannot support 6 decision"):
        min_violation_level(0.05, 6, 6)
    with pytest.raises(PhysbcError, match="5 retained samples cannot support 6 decision"):
        min_violation_level(0.05, 6, 5)
    with pytest.raises(PhysbcError, match="risk must lie strictly between 0 and 1"):
        min_violation_level(0.0, 6, 100)
    with pytest.raises(PhysbcError, match="decision_count must be positive"):
        min_violation_level(0.05, 0, 100)


def _radius(level, length):
    return check_probabilistic(slack=0.0, lipschitz=1.0, violation_level=level,
                               domain_length=length, risk=0.05).radius


def test_geometry_mass_interval_coefficient():
    # a radius-r ball at an endpoint of an interval of length a covers the mass
    # r / a, so the level's radius is level * a exactly
    for a, coeff in ((2.2, 1 / 2.2), (0.9, 1 / 0.9)):
        assert 1e-3 / _radius(1e-3, a) == pytest.approx(coeff, rel=1e-12)
        for level in (0.0, 1e-5, 0.1, 0.9):
            assert _radius(level, a) == level * a


def test_geometry_radius_error_paths():
    with pytest.raises(PhysbcError, match="level must be non-negative"):
        _radius(-1e-9, 2.2)
    with pytest.raises(PhysbcError, match="violation level 1.0 saturates the domain"):
        _radius(1.0, 2.2)
    with pytest.raises(PhysbcError, match="violation level 1.5 saturates the domain"):
        _radius(1.5, 2.2)


def test_geometry_rejects_unsupported_dimension():
    from physbc.models import RegionBox
    # a region is an interval: bounds with two axes never make one
    with pytest.raises(ValueError, match="bound must be a real number"):
        RegionBox(np.zeros(2), np.ones(2))
    for length in (-1.0, 0.0, math.nan):
        with pytest.raises(PhysbcError, match="domain length must be positive"):
            _radius(1e-3, length)


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
    with pytest.raises(PhysbcError, match="covering radius must be positive"):
        check_deterministic(slack=-0.1, lipschitz=1.0, covering_radius=0.0)


def test_probabilistic_check_arithmetic():
    level = min_violation_level(0.05, 6, 150_260)
    report = check_probabilistic(slack=-0.2094, lipschitz=11.51,
                                 violation_level=level, domain_length=2.2,
                                 risk=0.05, decision_count=6)
    expected = -0.2094 + 11.51 * level * 2.2
    assert report.condition == pytest.approx(expected, rel=1e-12)
    assert report.passed
    assert report.confidence == pytest.approx(0.95)
    assert report.mode == "probabilistic"
    assert report.violation_level == level
    data = report.to_dict()
    assert data["verdict"] == "pass"
    assert data["risk"] == pytest.approx(0.05)


def test_probabilistic_check_fails_when_slack_too_small():
    report = check_probabilistic(slack=-1e-6, lipschitz=50.0,
                                 violation_level=1e-4, domain_length=2.2,
                                 risk=0.05)
    assert not report.passed
