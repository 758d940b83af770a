from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    extreme_value_whole_array,
    neighbour_maxima_grouped,
    pairwise_all_pairs,
    pairwise_whole_array,
)
from physbc.barrier import BarrierCertificate, sample_values
from physbc.config import preset
from physbc.errors import PhysbcError
from physbc.lipschitz import (
    _CHUNK,
    METHOD_EXTREME,
    _neighbour_maxima,
    METHOD_PAIRWISE,
    LipschitzSpec,
    estimate_extreme_value,
    estimate_pairwise,
)
from physbc.models import RegionBox, supply_demand
from physbc.sampling import SCHEME_GRID, Dataset, sample_grid, sample_iid

DOMAIN = RegionBox(0.5, 2.7)


def linear_barrier(slope, decay=0.83):
    """B(x) = slope * x over the affine basis (x, 1)."""
    return BarrierCertificate(
        coefficients=np.array([slope, 0.0]),
        decay=decay,
        initial_level=0.0,
        unsafe_level=1.0,
    )


def test_linear_barrier_flow_slopes_are_exact():
    data = sample_grid(supply_demand(), DOMAIN, 200)
    config = LipschitzSpec(pair_budget=20_000, seed=1, multiplier=1.0)
    estimate = estimate_pairwise(sample_values(linear_barrier(3.0), data), data, config)
    # flow expression: 3(0.8x + 0.5) - 0.83 * 3x has slope |2.4 - 2.49|
    assert estimate.flow == pytest.approx(0.09, rel=1e-9)
    # the flow term alone is the constant the certification uses
    assert estimate.overall == estimate.flow
    assert estimate.method == METHOD_PAIRWISE


def test_multiplier_scales_the_estimate():
    data = sample_grid(supply_demand(), DOMAIN, 150)
    base = LipschitzSpec(pair_budget=10_000, seed=2, multiplier=1.0)
    padded = LipschitzSpec(pair_budget=10_000, seed=2, multiplier=1.1)
    lo = estimate_pairwise(sample_values(linear_barrier(3.0), data), data, base)
    hi = estimate_pairwise(sample_values(linear_barrier(3.0), data), data, padded)
    assert hi.flow == pytest.approx(1.1 * lo.flow)
    assert hi.safety_multiplier == 1.1


def test_quadratic_flow_estimate_brackets_true_constant():
    cert = BarrierCertificate(np.array([1.0, 0.0, 0.0]), 0.83, 0.0, 1.0)
    box = RegionBox(0.0, 1.0)

    class Identity:
        @staticmethod
        def step_many(x):
            return x.copy()

    data = sample_grid(Identity(), box, 600)
    config = LipschitzSpec(pair_budget=300_000, seed=3, multiplier=1.1)
    estimate = estimate_pairwise(sample_values(cert, data), data, config)
    # the flow expression is (1 - 0.83) x^2, whose sup |slope| on [0, 1] is
    # 0.34; secant slopes approach but never exceed it
    assert 0.33 <= estimate.flow / 1.1 <= 0.34 + 1e-12


def test_pairwise_is_deterministic_per_seed():
    data = sample_iid(supply_demand(), DOMAIN, 500, seed=11)
    flow = sample_values(_quadratic_certificate(), data)
    config = LipschitzSpec(pair_budget=5_000, seed=9)
    a = estimate_pairwise(flow, data, config)
    b = estimate_pairwise(flow, data, config)
    assert (a.flow, a.samples_used) == (b.flow, b.samples_used)
    # the exact estimate draws no pairs, so the seed does not move it
    c = estimate_pairwise(flow, data, replace(config, seed=10))
    assert (c.flow, c.samples_used) == (a.flow, a.samples_used)


def test_extreme_value_never_undercuts_observed_max():
    data = sample_grid(supply_demand(), DOMAIN, 400)
    cert = BarrierCertificate(np.array([2.0, -1.0, 0.5]), 0.83, 0.0, 1.0)
    config = LipschitzSpec(pair_budget=50_000, seed=4, batches=40)
    flow = sample_values(cert, data)
    extreme = estimate_extreme_value(flow, data, config)
    # the maximum over the same random draw
    raw = pairwise_whole_array(flow, data, LipschitzSpec(pair_budget=50_000, seed=4,
                                                           multiplier=1.0))
    assert extreme.flow >= raw.flow - 1e-12
    assert extreme.method == METHOD_EXTREME
    assert extreme.safety_multiplier == 1.0


def test_extreme_value_collapses_to_mean_for_constant_slopes():
    # linear barrier: every flow slope is 0.09 up to rounding, so the spread
    # of the batch maxima is (almost) zero
    data = sample_grid(supply_demand(), DOMAIN, 300)
    config = LipschitzSpec(pair_budget=30_000, seed=5, batches=30)
    estimate = estimate_extreme_value(sample_values(linear_barrier(3.0), data), data, config)
    assert estimate.flow == pytest.approx(0.09, rel=1e-9)


def test_extreme_value_needs_enough_observations():
    data = sample_grid(supply_demand(), DOMAIN, 5)
    config = LipschitzSpec(pair_budget=20, seed=6, batches=50)
    with pytest.raises(PhysbcError, match="slope observations cannot fill 50 batches"):
        estimate_extreme_value(sample_values(linear_barrier(1.0), data), data, config)


def test_degenerate_datasets_are_rejected():
    cert = linear_barrier(1.0)
    one = Dataset(np.array([1.0]), np.array([1.3]), SCHEME_GRID, DOMAIN)
    with pytest.raises(PhysbcError, match="need at least two states to form slope pairs"):
        estimate_pairwise(sample_values(cert, one), one, LipschitzSpec(pair_budget=100, seed=0))
    same = Dataset(np.full(5, 1.0), np.full(5, 1.3), SCHEME_GRID, DOMAIN)
    with pytest.raises(PhysbcError, match="all sample states coincide"):
        estimate_pairwise(sample_values(cert, same), same, LipschitzSpec(pair_budget=100, seed=0))


def test_dimension_mismatch_is_rejected():
    # a slope over sampled pairs would only bound an n-D constant from below, so
    # no dataset holds more than one state column
    xs = np.array([[0.6, 0.7], [0.8, 0.9]])
    with pytest.raises(ValueError, match=r"\(N,\) arrays"):
        Dataset(xs, xs, SCHEME_GRID, DOMAIN)
    # flow values of another dataset
    line = sample_grid(supply_demand(), DOMAIN, 4)
    longer = Dataset(np.concatenate([line.states] * 2), np.concatenate([line.successors] * 2),
                     SCHEME_GRID, DOMAIN)
    flow = sample_values(linear_barrier(1.0), line)
    for estimator in (estimate_pairwise, estimate_extreme_value):
        with pytest.raises(PhysbcError, match="sample values and dataset sizes differ"):
            estimator(flow, longer, LipschitzSpec(pair_budget=100, seed=0, batches=2))


def test_config_validation():
    # the run config checks its lipschitz section
    base = preset("supply-demand")
    for spec, message in ((LipschitzSpec(pair_budget=0), "pair_budget must be positive"),
                          (LipschitzSpec(multiplier=0.9), "multiplier must be at least 1"),
                          (LipschitzSpec(batches=1), "batches must be at least 2"),
                          (LipschitzSpec(shape=0.0), "shape must be positive")):
        with pytest.raises(ValueError, match=message):
            replace(base, lipschitz=spec)


def _outcome(estimator, certificate, data, config):
    """Compared fields of an estimate, or the message of the error it raised."""
    try:
        estimate = estimator(sample_values(certificate, data), data, config)
    except PhysbcError as exc:
        return str(exc)
    return estimate.flow, estimate.samples_used


def _line_data():
    return sample_grid(supply_demand(), DOMAIN, 300)


def _repeated(data, distinct=40, copies=4):
    """The first ``distinct`` pairs of ``data``, each repeated ``copies`` times."""
    return Dataset(np.repeat(data.states[:distinct], copies, axis=0),
                   np.repeat(data.successors[:distinct], copies, axis=0),
                   SCHEME_GRID, data.domain)


def _duplicated_data():
    return _repeated(_line_data())


def _quadratic_certificate():
    return BarrierCertificate(np.linspace(-1.5, 2.0, 3), 0.83, 0.0, 1.0)


# The random-pair draw, which only the extreme-value method makes, and its
# whole-array oracle.
RANDOM_PAIR_CASES = [
    (estimate_extreme_value, extreme_value_whole_array, _line_data),
]


@pytest.mark.parametrize("budget", [1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 12_345])
@pytest.mark.parametrize("estimator, oracle, make_data", RANDOM_PAIR_CASES)
def test_streamed_slopes_match_whole_array_oracle(budget, estimator, oracle, make_data):
    data = make_data()
    cert = _quadratic_certificate()
    for seed in (0, 1):
        config = LipschitzSpec(pair_budget=budget, seed=seed, batches=20)
        streamed = _outcome(estimator, cert, data, config)
        assert streamed == _outcome(oracle, cert, data, config)
        # one slope cannot fill the extreme-value batches; everything else estimates
        assert isinstance(streamed, tuple) != (budget == 1 and estimator is estimate_extreme_value)


@pytest.mark.parametrize("estimator, oracle, make_data", [
    (estimate_extreme_value, extreme_value_whole_array, _duplicated_data),
])
def test_streamed_slopes_match_oracle_with_duplicates(estimator, oracle, make_data):
    data = make_data()
    cert = _quadratic_certificate()
    config = LipschitzSpec(pair_budget=_CHUNK + 777, seed=3)
    streamed = _outcome(estimator, cert, data, config)
    assert isinstance(streamed, tuple)
    assert streamed == _outcome(oracle, cert, data, config)


def test_duplicate_states_drop_zero_gap_pairs():
    data = _duplicated_data()
    config = LipschitzSpec(pair_budget=10_000, seed=2, batches=2)
    estimate = estimate_extreme_value(sample_values(_quadratic_certificate(), data), data, config)
    # 40 distinct states, each 4 times: about 1 in 40 pairs has a zero gap;
    # two batches use every kept pair but at most one
    assert 9_600 < estimate.samples_used < 9_850


@pytest.mark.parametrize("estimator", [estimate_pairwise, estimate_extreme_value])
def test_all_coincident_pairs_raise(estimator):
    same = Dataset(np.full(5, 1.0), np.full(5, 1.3), SCHEME_GRID, DOMAIN)
    config = LipschitzSpec(pair_budget=_CHUNK + 5, seed=0, batches=2)
    # the exact all-pairs scan sees coincident states, the drawn pairs coincide
    message = ("all sample states coincide" if estimator is estimate_pairwise
               else "all drawn state pairs coincide")
    with pytest.raises(PhysbcError, match=message):
        estimator(sample_values(linear_barrier(1.0), same), same, config)


# two-decimal coordinates on a short interval, so that states coincide often
_COORDINATE = st.integers(-40, 40).map(lambda k: k / 20)
_LINE = RegionBox(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=2, max_size=60),
    ascending=st.booleans(),
)
def test_1d_pairwise_is_the_exact_all_pairs_maximum(pairs, ascending):
    if ascending:
        pairs = sorted(pairs)  # the order a grid sample comes in
    states, successors = np.array(pairs).T
    data = Dataset(states, successors, SCHEME_GRID, _LINE)
    # strictly quadratic, so no three barrier values are collinear and the
    # comparison with the brute-force maximum is free of one-ulp rounding ties
    cert = _quadratic_certificate()
    config = LipschitzSpec(multiplier=1.0)
    if np.unique(states).size == 1:
        with pytest.raises(PhysbcError, match="all sample states coincide"):
            estimate_pairwise(sample_values(cert, data), data, config)
        return
    estimate = estimate_pairwise(sample_values(cert, data), data, config)
    assert estimate.flow == pairwise_all_pairs(cert, data)
    assert estimate.samples_used == np.unique(states).size - 1


@pytest.mark.parametrize("make_data", [
    lambda: sample_iid(supply_demand(), DOMAIN, 5000, seed=3),  # every state distinct
    _line_data,
    _duplicated_data,
], ids=["iid", "grid", "duplicates"])
def test_neighbour_maxima_equal_the_grouped_form(make_data):
    data = make_data()
    flow = sample_values(_quadratic_certificate(), data)
    assert _neighbour_maxima(flow, data) == neighbour_maxima_grouped(flow, data)


# coordinates with both zeros, so that sorted states hold -0.0 next to 0.0
_SORTED_COORDINATE = st.one_of(_COORDINATE, st.sampled_from([0.0, -0.0]))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_SORTED_COORDINATE, _COORDINATE), min_size=2, max_size=60),
       seed=st.integers(0, 2**32 - 1))
def test_neighbour_maxima_on_sorted_states_equal_the_sorted_form(pairs, seed):
    pairs = sorted(pairs, key=lambda pair: pair[0])  # duplicates keep their draw order
    states, successors = np.array(pairs).T
    if np.unique(states).size == 1:
        return
    data = Dataset(states, successors, SCHEME_GRID, _LINE)
    flow = sample_values(_quadratic_certificate(), data)
    # the same pairs shuffled, which the estimator must sort
    shuffle = np.random.default_rng(seed).permutation(data.count)
    shuffled = Dataset(states[shuffle], successors[shuffle], SCHEME_GRID, _LINE)
    expected = neighbour_maxima_grouped(flow, data)
    assert _neighbour_maxima(flow, data) == expected
    assert _neighbour_maxima(flow[shuffle], shuffled) == expected


def test_neighbour_maxima_do_not_sort_sorted_states(monkeypatch):
    cases = []
    for data in (_line_data(), _duplicated_data()):
        flow = sample_values(_quadratic_certificate(), data)
        cases.append((flow, data, neighbour_maxima_grouped(flow, data)))

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted states were sorted again")

    monkeypatch.setattr(np, "argsort", no_sort)
    for flow, data, expected in cases:
        assert _neighbour_maxima(flow, data) == expected
