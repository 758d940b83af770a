import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import extreme_value_whole_array, pairwise_all_pairs, pairwise_whole_array
from physbc.barrier import BarrierCertificate, BarrierTemplate, sample_values
from physbc.errors import DegenerateDataError, ModelMismatchError
from physbc.lipschitz import (
    _CHUNK,
    METHOD_EXTREME,
    METHOD_PAIRWISE,
    LipschitzSpec,
    estimate_extreme_value,
    estimate_pairwise,
)
from physbc.models import RegionBox, SystemModel, supply_demand
from physbc.sampling import SCHEME_GRID, Dataset, sample_grid, sample_iid

DOMAIN = RegionBox.interval(0.5, 2.7)


def linear_barrier(slope, decay=0.83):
    """B(x) = slope * x over the affine template (x, 1)."""
    return BarrierCertificate(
        template=BarrierTemplate.from_degree(1, 1),
        coefficients=np.array([slope, 0.0]),
        decay=decay,
        initial_level=0.0,
        unsafe_level=1.0,
    )


def test_linear_barrier_slopes_are_exact():
    data = sample_grid(supply_demand(), DOMAIN, 200)
    config = LipschitzSpec(pair_budget=20_000, seed=1, multiplier=1.0)
    estimate = estimate_pairwise(sample_values(linear_barrier(3.0), data), data, config)
    # every finite difference of B(x) = 3x has slope exactly 3
    assert estimate.barrier == pytest.approx(3.0, rel=1e-12)
    # flow expression: 3(0.8x + 0.5) - 0.83 * 3x has slope |2.4 - 2.49|
    assert estimate.flow == pytest.approx(0.09, rel=1e-9)
    assert estimate.overall == pytest.approx(3.0)
    assert estimate.method == METHOD_PAIRWISE


def test_multiplier_scales_the_estimate():
    data = sample_grid(supply_demand(), DOMAIN, 150)
    base = LipschitzSpec(pair_budget=10_000, seed=2, multiplier=1.0)
    padded = LipschitzSpec(pair_budget=10_000, seed=2, multiplier=1.1)
    lo = estimate_pairwise(sample_values(linear_barrier(3.0), data), data, base)
    hi = estimate_pairwise(sample_values(linear_barrier(3.0), data), data, padded)
    assert hi.barrier == pytest.approx(1.1 * lo.barrier)
    assert hi.safety_multiplier == 1.1


def test_quadratic_barrier_estimate_brackets_true_constant():
    template = BarrierTemplate.quadratic(1)
    cert = BarrierCertificate(template, np.array([1.0, 0.0, 0.0]), 0.83, 0.0, 1.0)
    box = RegionBox.interval(0.0, 1.0)

    class Identity:
        dimension = 1

        @staticmethod
        def step_many(x):
            return x.copy()

    data = sample_grid(Identity(), box, 600)
    config = LipschitzSpec(pair_budget=300_000, seed=3, multiplier=1.1)
    estimate = estimate_pairwise(sample_values(cert, data), data, config)
    # sup |B'| = 2 on [0, 1]; secant slopes approach but never exceed it
    assert 1.8 <= estimate.barrier / 1.1 <= 2.0
    assert estimate.barrier <= 2.0 * 1.1 + 1e-9


def test_pairwise_is_deterministic_per_seed():
    data = _plane_data()
    cert = _quadratic_certificate(2)
    config = LipschitzSpec(pair_budget=5_000, seed=9)
    a = estimate_pairwise(sample_values(cert, data), data, config)
    b = estimate_pairwise(sample_values(cert, data), data, config)
    assert (a.barrier, a.flow, a.samples_used) == (b.barrier, b.flow, b.samples_used)


def test_extreme_value_never_undercuts_observed_max():
    data = sample_grid(supply_demand(), DOMAIN, 400)
    template = BarrierTemplate.quadratic(1)
    cert = BarrierCertificate(template, np.array([2.0, -1.0, 0.5]), 0.83, 0.0, 1.0)
    config = LipschitzSpec(pair_budget=50_000, seed=4, batches=40)
    values = sample_values(cert, data)
    extreme = estimate_extreme_value(values, data, config)
    # the maximum over the same random draw
    raw = pairwise_whole_array(values, data, LipschitzSpec(pair_budget=50_000, seed=4,
                                                           multiplier=1.0))
    assert extreme.barrier >= raw.barrier - 1e-12
    assert extreme.flow >= raw.flow - 1e-12
    assert extreme.method == METHOD_EXTREME
    assert extreme.safety_multiplier == 1.0


def test_extreme_value_collapses_to_mean_for_constant_slopes():
    # linear barrier: every batch maximum equals 3, spread is zero
    data = sample_grid(supply_demand(), DOMAIN, 300)
    config = LipschitzSpec(pair_budget=30_000, seed=5, batches=30)
    estimate = estimate_extreme_value(sample_values(linear_barrier(3.0), data), data, config)
    assert estimate.barrier == pytest.approx(3.0, rel=1e-12)


def test_extreme_value_needs_enough_observations():
    data = sample_grid(supply_demand(), DOMAIN, 5)
    config = LipschitzSpec(pair_budget=20, seed=6, batches=50)
    with pytest.raises(DegenerateDataError):
        estimate_extreme_value(sample_values(linear_barrier(1.0), data), data, config)


def test_degenerate_datasets_are_rejected():
    cert = linear_barrier(1.0)
    one = Dataset(np.array([[1.0]]), np.array([[1.3]]), SCHEME_GRID, DOMAIN)
    with pytest.raises(DegenerateDataError):
        estimate_pairwise(sample_values(cert, one), one, LipschitzSpec(pair_budget=100, seed=0))
    same = Dataset(np.full((5, 1), 1.0), np.full((5, 1), 1.3), SCHEME_GRID, DOMAIN)
    with pytest.raises(DegenerateDataError):
        estimate_pairwise(sample_values(cert, same), same, LipschitzSpec(pair_budget=100, seed=0))


def test_dimension_mismatch_is_rejected():
    square = RegionBox(np.zeros(2), np.ones(2))
    xs = np.array([[0.1, 0.2], [0.8, 0.9]])
    data = Dataset(xs, xs, SCHEME_GRID, square)
    with pytest.raises(ModelMismatchError):
        sample_values(linear_barrier(1.0), data)
    values = sample_values(_quadratic_certificate(2), data)
    longer = Dataset(np.vstack([xs, xs]), np.vstack([xs, xs]), SCHEME_GRID, square)
    with pytest.raises(ModelMismatchError, match="sizes differ"):
        estimate_pairwise(values, longer, LipschitzSpec(pair_budget=100, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        LipschitzSpec(pair_budget=0)
    with pytest.raises(ValueError):
        LipschitzSpec(multiplier=0.9)
    with pytest.raises(ValueError):
        LipschitzSpec(batches=1)
    with pytest.raises(ValueError):
        LipschitzSpec(shape=0.0)


def _outcome(estimator, certificate, data, config):
    """Compared fields of an estimate, or the error type it raised."""
    try:
        estimate = estimator(sample_values(certificate, data), data, config)
    except DegenerateDataError as exc:
        return type(exc)
    return estimate.barrier, estimate.flow, estimate.samples_used


def _line_data():
    return sample_grid(supply_demand(), DOMAIN, 300)


def _plane_data():
    square = RegionBox(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    quad = np.zeros((2, 2, 2))
    quad[0, 0, 1] = 0.3
    quad[1, 0, 0] = -0.2
    model = SystemModel.quadratic_polynomial(quad, np.array([[0.9, 0.1], [0.0, 0.7]]),
                                             np.array([0.05, 0.0]))
    return sample_iid(model, square, 500, seed=11)


def _repeated(data, distinct=40, copies=4):
    """The first ``distinct`` pairs of ``data``, each repeated ``copies`` times."""
    return Dataset(np.repeat(data.states[:distinct], copies, axis=0),
                   np.repeat(data.successors[:distinct], copies, axis=0),
                   SCHEME_GRID, data.domain)


def _duplicated_data():
    return _repeated(_line_data())


def _duplicated_plane_data():
    return _repeated(_plane_data())


def _quadratic_certificate(dimension):
    template = BarrierTemplate.quadratic(dimension)
    coefficients = np.linspace(-1.5, 2.0, template.size)
    return BarrierCertificate(template, coefficients, 0.83, 0.0, 1.0)


# The random-pair path and its whole-array oracles: pairwise-max for n >= 2,
# the extreme-value method in every dimension.
RANDOM_PAIR_CASES = [
    (estimate_pairwise, pairwise_whole_array, _plane_data),
    (estimate_extreme_value, extreme_value_whole_array, _line_data),
    (estimate_extreme_value, extreme_value_whole_array, _plane_data),
]


@pytest.mark.parametrize("budget", [1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 12_345])
@pytest.mark.parametrize("estimator, oracle, make_data", RANDOM_PAIR_CASES)
def test_streamed_slopes_match_whole_array_oracle(budget, estimator, oracle, make_data):
    data = make_data()
    cert = _quadratic_certificate(data.dimension)
    for seed in (0, 1):
        config = LipschitzSpec(pair_budget=budget, seed=seed, batches=20)
        streamed = _outcome(estimator, cert, data, config)
        assert streamed == _outcome(oracle, cert, data, config)
        # one slope cannot fill the extreme-value batches; everything else estimates
        assert isinstance(streamed, tuple) != (budget == 1 and estimator is estimate_extreme_value)


@pytest.mark.parametrize("estimator, oracle, make_data", [
    (estimate_pairwise, pairwise_whole_array, _duplicated_plane_data),
    (estimate_extreme_value, extreme_value_whole_array, _duplicated_data),
    (estimate_extreme_value, extreme_value_whole_array, _duplicated_plane_data),
])
def test_streamed_slopes_match_oracle_with_duplicates(estimator, oracle, make_data):
    data = make_data()
    cert = _quadratic_certificate(data.dimension)
    config = LipschitzSpec(pair_budget=_CHUNK + 777, seed=3)
    streamed = _outcome(estimator, cert, data, config)
    assert isinstance(streamed, tuple)
    assert streamed == _outcome(oracle, cert, data, config)


def test_duplicate_states_drop_zero_gap_pairs():
    data = _duplicated_plane_data()
    config = LipschitzSpec(pair_budget=10_000, seed=2)
    estimate = estimate_pairwise(sample_values(_quadratic_certificate(2), data), data, config)
    # 40 distinct states, each 4 times: about 1 in 40 pairs has a zero gap
    assert 9_600 < estimate.samples_used < 9_850


@pytest.mark.parametrize("estimator", [estimate_pairwise, estimate_extreme_value])
def test_all_coincident_pairs_raise(estimator):
    same = Dataset(np.full((5, 1), 1.0), np.full((5, 1), 1.3), SCHEME_GRID, DOMAIN)
    config = LipschitzSpec(pair_budget=_CHUNK + 5, seed=0, batches=2)
    with pytest.raises(DegenerateDataError, match="coincide"):
        estimator(sample_values(linear_barrier(1.0), same), same, config)


# two-decimal coordinates on a short interval, so that states coincide often
_COORDINATE = st.integers(-40, 40).map(lambda k: k / 20)
_LINE = RegionBox.interval(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=2, max_size=60),
    ascending=st.booleans(),
)
def test_1d_pairwise_is_the_exact_all_pairs_maximum(pairs, ascending):
    if ascending:
        pairs = sorted(pairs)  # the order a grid sample comes in
    states, successors = np.array(pairs).T
    data = Dataset(states[:, None], successors[:, None], SCHEME_GRID, _LINE)
    # strictly quadratic, so no three barrier values are collinear and the
    # comparison with the brute-force maximum is free of one-ulp rounding ties
    cert = _quadratic_certificate(1)
    config = LipschitzSpec(multiplier=1.0)
    if np.unique(states).size == 1:
        with pytest.raises(DegenerateDataError, match="coincide"):
            estimate_pairwise(sample_values(cert, data), data, config)
        return
    estimate = estimate_pairwise(sample_values(cert, data), data, config)
    assert (estimate.barrier, estimate.flow) == pairwise_all_pairs(cert, data)
    assert estimate.samples_used == np.unique(states).size - 1
