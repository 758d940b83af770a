import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physbc.filtering import _longest_run, apply_filter, discrepancies
from physbc.models import RegionBox, supply_demand
from physbc.sampling import SCHEME_IID, Dataset

DOMAIN = RegionBox(0.5, 2.7)


def _dataset_with_deviations(deviations):
    """Pairs whose recorded successors deviate from physics by given amounts."""
    model = supply_demand()
    xs = np.linspace(0.6, 2.6, len(deviations))
    ys = model.step_many(xs) + np.asarray(deviations)
    return Dataset(xs, ys, SCHEME_IID, DOMAIN, seed=0)


def test_filter_keeps_boundary_pairs():
    data = _dataset_with_deviations([0.0, 0.005, -0.005, 0.0051, -0.02])
    out = apply_filter(data, supply_demand(), 0.005)
    assert out.retained_count == 3
    assert out.discarded_count == 2
    assert out.mask.tolist() == [True, True, True, False, False]
    assert out.discrepancies == pytest.approx([0.0, 0.005, 0.005, 0.0051, 0.02])
    assert out.max_jump == (3, 2)


def test_filter_preserves_order():
    data = _dataset_with_deviations([0.01, 0.0, 0.01, 0.001, 0.0])
    retained = data.take(apply_filter(data, supply_demand(), 0.005).mask)
    assert np.array_equal(retained.states, data.states[[1, 3, 4]])
    assert np.array_equal(retained.successors, data.successors[[1, 3, 4]])


def test_filter_is_idempotent():
    data = _dataset_with_deviations(np.linspace(-0.01, 0.01, 21).tolist())
    once = data.take(apply_filter(data, supply_demand(), 0.004).mask)
    twice = apply_filter(once, supply_demand(), 0.004)
    assert twice.discarded_count == 0
    assert np.array_equal(once.take(twice.mask).states, once.states)


def test_filter_retention_monotone_in_threshold():
    rng = np.random.default_rng(5)
    data = _dataset_with_deviations(rng.normal(scale=0.01, size=400).tolist())
    counts = [
        apply_filter(data, supply_demand(), t).retained_count
        for t in np.linspace(1e-4, 0.03, 15)
    ]
    assert counts == sorted(counts)


def test_filter_may_discard_everything():
    data = _dataset_with_deviations([0.02, -0.03, 0.04])
    out = apply_filter(data, supply_demand(), 1e-6)
    assert out.retained_count == 0
    assert data.take(out.mask).count == 0
    assert out.discarded_count == 3


@pytest.mark.parametrize("threshold, kept", [(1e-9, {0}), (0.004, set(range(1, 300))),
                                              (1.0, {300})], ids=["none", "some", "all"])
def test_retained_pairs_are_the_mask_selection(threshold, kept):
    rng = np.random.default_rng(11)
    data = _dataset_with_deviations(rng.normal(scale=0.005, size=300).tolist())
    out = apply_filter(data, supply_demand(), threshold)
    assert out.retained_count == np.count_nonzero(out.mask)
    assert out.retained_count in kept
    retained = data.take(out.mask)
    assert np.array_equal(retained.states, data.states[out.mask])
    assert np.array_equal(retained.successors, data.successors[out.mask])
    assert retained.states.dtype == data.states.dtype
    assert (retained.scheme, retained.domain, retained.seed) == (
        data.scheme, data.domain, data.seed)


def test_filter_threshold_must_be_positive():
    data = _dataset_with_deviations([0.0, 0.001])
    with pytest.raises(ValueError):
        apply_filter(data, supply_demand(), 0.0)
    with pytest.raises(ValueError):
        apply_filter(data, supply_demand(), -0.1)


def test_profile_locates_longest_discarded_run():
    data = _dataset_with_deviations([0.0, 0.02, 0.02, 0.0, 0.02, 0.0])
    outcome = apply_filter(data, supply_demand(), 0.005)
    assert (~outcome.mask).tolist() == [False, True, True, False, True, False]
    assert outcome.max_jump == (1, 2)


def _longest_run_by_scan(discarded):
    """The first longest run of True, as (start, length), by one pass; None if there is none."""
    best, start = None, None
    for i, flag in enumerate([*discarded, False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if best is None or i - start > best[1]:
                best = (start, i - start)
            start = None
    return best


@pytest.mark.parametrize(
    "deviations",
    [[0.0, 0.02, 0.02, 0.0, 0.02, 0.0], [0.02, 0.0, 0.02, 0.0], [0.0, 0.001]],
)
def test_outcome_max_jump_matches_profile(deviations):
    # the profile: each pair's discrepancy against the threshold
    data = _dataset_with_deviations(deviations)
    outcome = apply_filter(data, supply_demand(), 0.005)
    profile = discrepancies(data, supply_demand()) > 0.005
    assert outcome.max_jump == _longest_run_by_scan(profile.tolist())


def test_profile_first_maximal_run_wins_ties():
    data = _dataset_with_deviations([0.02, 0.0, 0.02, 0.0])
    assert apply_filter(data, supply_demand(), 0.005).max_jump == (0, 1)


def test_profile_without_discards():
    data = _dataset_with_deviations([0.0, 0.001])
    outcome = apply_filter(data, supply_demand(), 0.005)
    assert outcome.max_jump is None
    assert outcome.mask.all()


def test_sinusoidal_deviation_splits_in_half():
    """Amplitude sqrt(2) x threshold keeps half of an integer-cycle sweep."""
    threshold = 0.005
    model = supply_demand()
    xs = np.linspace(0.5, 2.7, 40_001)
    dev = threshold * np.sqrt(2.0) * np.sin(2 * np.pi * 1250.0 * xs)
    data = Dataset(xs, model.step_many(xs) + dev, SCHEME_IID, DOMAIN, seed=0)
    out = apply_filter(data, model, threshold)
    assert out.retained_count / data.count == pytest.approx(0.5, abs=0.01)


def test_discrepancy_is_the_one_column_euclidean_norm():
    # |d| is the Euclidean norm of the one-column difference, bit for bit
    model = supply_demand()
    xs = np.linspace(0.5, 2.7, 20_001)
    dev = np.sin(2 * np.pi * 1250.0 * xs) * np.logspace(-150, 4, xs.size)
    data = Dataset(xs, model.step_many(xs) + dev, SCHEME_IID, DOMAIN, seed=0)
    norm = np.linalg.norm((model.step_many(xs) - data.successors)[:, None], axis=1)
    assert discrepancies(data, model).tobytes() == norm.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.booleans(), max_size=60),
    st.integers(0, 60).flatmap(lambda n: st.sampled_from([[False] * n, [True] * n])),
))
def test_longest_run_matches_a_scan(discarded):
    # the empty, all-kept and all-discarded masks included
    assert _longest_run(np.array(discarded, dtype=bool)) == _longest_run_by_scan(discarded)
