import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import physbc.models
from oracles import safety_by_step_many, step_many_matmul
from physbc.errors import PhysbcError
from physbc.models import (
    PRESET_MODELS,
    RegionBox,
    SystemModel,
    check_safety_empirically,
    logistic_growth,
    supply_demand,
)


def test_interval_basics():
    box = RegionBox(0.5, 2.7)
    assert (box.lower, box.upper) == (0.5, 2.7)
    assert type(box.lower) is float and type(box.upper) is float
    assert box.length == pytest.approx(2.2)
    assert box.contains(0.5)
    assert box.contains(2.7)
    assert not box.contains(2.71)


def test_region_batch_membership():
    box = RegionBox(0.0, 1.0)
    pts = np.array([0.5, 1.5, 1.0, -0.0, -0.1])
    assert box.contains(pts).tolist() == [True, False, True, True, False]


def test_region_relative_slack_loosens_faces():
    box = RegionBox(0.0, 1.0)
    just_out = 1.0 + 1e-13
    assert not box.contains(just_out)
    assert box.contains(just_out, rtol=1e-12)


def test_region_nesting():
    outer = RegionBox(0.0, 1.0)
    assert outer.contains_box(RegionBox(0.2, 0.8))
    assert outer.contains_box(outer)
    assert not outer.contains_box(RegionBox(0.2, 1.2))
    assert not outer.contains_box(RegionBox(-0.2, 0.8))


def test_region_rejects_bad_bounds():
    with pytest.raises(ValueError):
        RegionBox(1.0, 1.0)
    with pytest.raises(ValueError):
        RegionBox(0.0, np.inf)
    # the bounds are scalars: arrays, booleans and strings are refused
    for lower, upper in ((np.array([0.0]), np.array([1.0])), (np.zeros(2), np.ones(2)),
                         (False, 1.0), ("0", 1.0)):
        with pytest.raises(ValueError, match="bound must be a real number"):
            RegionBox(lower, upper)


def test_region_dict_round_trip():
    box = RegionBox(0.1, 2.0)
    # the JSON form keeps one list entry per axis
    assert box.to_dict() == {"lower": [0.1], "upper": [2.0]}
    back = RegionBox.from_dict(box.to_dict())
    assert (back.lower, back.upper) == (box.lower, box.upper)
    with pytest.raises(ValueError, match="domain must be one-dimensional, got 2 axes"):
        RegionBox.from_dict({"lower": [0.1, 0.2], "upper": [1.0, 2.0]}, "domain")
    with pytest.raises(ValueError, match="initial bounds must be lists of equal length"):
        RegionBox.from_dict({"lower": [0.1], "upper": [1.0, 2.0]}, "initial")


@pytest.mark.parametrize("lower, upper, bad", [
    (["0.5"], [2.7], "domain lower entries must be real numbers, got '0.5'"),
    ([0.5], [True], "domain upper entries must be real numbers, got True"),
    ("0.5", [2.7], "domain lower entries must be real numbers, got '0.5'"),
    ([[0.5, "x"]], [[2.7, 2.8]], "domain lower entries must be real numbers, got 'x'"),
    ([np.bool_(False)], [2.7],
     f"domain lower entries must be real numbers, got {np.bool_(False)!r}"),
], ids=["quoted-lower", "boolean-upper", "bare-quoted-lower", "nested-string", "numpy-bool"])
def test_region_from_dict_refuses_entries_that_are_not_real_numbers(lower, upper, bad):
    with pytest.raises(ValueError, match=bad):
        RegionBox.from_dict({"lower": lower, "upper": upper}, "domain")


def test_region_from_dict_accepts_integers_and_numpy_numbers():
    box = RegionBox.from_dict({"lower": [0], "upper": np.array([np.float32(2.5)])})
    assert (box.lower, box.upper) == (0.0, 2.5)


def test_region_bounds_are_immutable():
    box = RegionBox(0.0, 1.0)
    with pytest.raises(AttributeError):
        box.lower = -1.0


def test_perturbation_values():
    wave = SystemModel(0.0, 0.0, amplitude=0.25, frequency=2.0)
    x = np.array([0.125])
    # one eighth of a half-unit period: sin(pi/2) = 1
    assert float(wave.step_many(x)[0]) == pytest.approx(0.25)
    # amplitude 0, the default, adds nothing, whatever the frequency
    x = np.linspace(0, 1, 7)
    for zero in (SystemModel(0.0, 0.0, amplitude=0.0, frequency=1.0), SystemModel(0.0, 0.0)):
        assert zero.amplitude == 0.0
        assert np.all(zero.step_many(x) == 0.0)


def test_perturbation_validation():
    with pytest.raises(ValueError, match="amplitude must be non-negative"):
        SystemModel(0.8, 0.5, amplitude=-0.1, frequency=1.0)
    for frequency in (0.0, -1.0):
        with pytest.raises(ValueError, match="frequency must be positive"):
            SystemModel(0.8, 0.5, amplitude=0.1, frequency=frequency)
        # the frequency of an unperturbed model is never read
        SystemModel(0.8, 0.5, amplitude=0.0, frequency=frequency)
    SystemModel(0.8, 0.5, amplitude=-0.0, frequency=0.0)


def test_supply_demand_step():
    model = supply_demand()
    # 1.3, and the fixed point 2.5 of x -> 0.8 x + 0.5
    assert model.step_many(np.array([1.0, 2.5])) == pytest.approx([1.3, 2.5])


def test_logistic_growth_step():
    model = logistic_growth()
    assert model.step_many(np.array([0.0, 1.0, 0.6])) == pytest.approx([0.0, 0.8, 0.6])


def test_preset_registry():
    assert set(PRESET_MODELS) == {"supply-demand", "logistic-growth"}
    terms = {name: (f().linear, f().offset, f().quadratic) for name, f in PRESET_MODELS.items()}
    assert terms == {"supply-demand": (0.8, 0.5, None), "logistic-growth": (1.3, 0.0, -0.5)}


def test_perturbed_step_adds_field():
    base = supply_demand()
    model = replace(base, amplitude=0.02, frequency=3.0)
    x = np.array([0.7, 1.1])
    expected = base.step_many(x) + 0.02 * np.sin(2 * np.pi * 3.0 * x)
    assert model.step_many(x) == pytest.approx(expected)


def test_step_shape_checks():
    model = supply_demand()
    for states in (np.zeros((4, 1)), np.zeros((4, 2)), np.float64(1.0)):
        with pytest.raises(PhysbcError, match=r"expected \(N,\) states"):
            model.step_many(states)
    assert model.step_many(np.empty(0)).shape == (0,)


def test_model_terms_are_floats():
    model = SystemModel(np.float64(0.8), 1, quadratic=np.float32(0.5), amplitude=np.int64(0),
                        frequency=np.float32(2.0))
    terms = (model.linear, model.offset, model.quadratic, model.amplitude, model.frequency)
    assert terms == (0.8, 1.0, 0.5, 0.0, 2.0)
    assert all(type(t) is float for t in terms)
    assert SystemModel(0.8, 0.5).quadratic is None


@settings(max_examples=50, deadline=None)
@given(st.floats(-2.0, 2.0), st.integers(min_value=0, max_value=10_000))
def test_quadratic_step_matches_naive_form(point, seed):
    """The step kernel agrees with the written-out polynomial."""
    quad, lin, off = np.random.default_rng(seed).normal(size=3).tolist()
    model = SystemModel(lin, off, quadratic=quad)
    expected = off + lin * point + quad * point * point
    assert model.step_many(np.array([point]))[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_safety_check_detects_unsafe_start():
    # initial region inside the unsafe region: every trajectory hits at step 0
    model = supply_demand()
    initial = RegionBox(2.6, 2.65)
    unsafe = RegionBox(2.55, 2.7)
    for horizon in (0, 3):
        domain_check = check_safety_empirically(model, initial, unsafe, 50, horizon, 0)
        assert domain_check.violation_count == 50
        assert not domain_check.safe


def test_safety_check_is_read_only():
    # a check may be shared between pipeline runs, so no run may alter it
    check = check_safety_empirically(
        supply_demand(), RegionBox(2.6, 2.65), RegionBox(2.55, 2.7),
        trajectories=5, horizon=3, seed=0,
    )
    assert check.violation_count == 5
    with pytest.raises(AttributeError):
        check.violation_count = 0


def test_safety_check_clean_run_is_reproducible():
    model = supply_demand()
    initial = RegionBox(0.5, 0.6)
    unsafe = RegionBox(2.6, 2.7)
    a = check_safety_empirically(model, initial, unsafe, trajectories=100, horizon=50, seed=4)
    b = check_safety_empirically(model, initial, unsafe, trajectories=100, horizon=50, seed=4)
    assert a.safe and b.safe
    assert a.violation_count == b.violation_count == 0


def test_safety_check_rejects_negative_horizon():
    line = RegionBox(0.0, 1.0)
    with pytest.raises(ValueError, match="horizon"):
        check_safety_empirically(supply_demand(), line, line, trajectories=5, horizon=-1, seed=0)


# Unsafe sets narrower than one step near them: some trajectories start
# inside, some enter later at varying steps, and some jump over.
SAFETY_CASES = {
    "affine": (supply_demand, (0.5, 2.2), (2.1, 2.15)),
    "perturbed": (
        lambda: replace(supply_demand(), amplitude=0.01, frequency=1250 / 2.2),
        (0.5, 2.2), (2.1, 2.15),
    ),
    "quadratic": (logistic_growth, (0.05, 0.5), (0.45, 0.47)),
    "perturbed-quadratic": (
        lambda: replace(logistic_growth(), amplitude=0.002, frequency=1250.0),
        (0.05, 0.5), (0.45, 0.47),
    ),
}


@pytest.mark.parametrize("name", sorted(SAFETY_CASES))
def test_safety_check_matches_step_many_oracle(name):
    make_model, initial, unsafe = SAFETY_CASES[name]
    model = make_model()
    initial, unsafe = RegionBox(*initial), RegionBox(*unsafe)
    # the count at horizon h is the number of first hits at steps <= h, so
    # equal counts at every horizon mean equal first-hit steps
    counts = [check_safety_empirically(model, initial, unsafe, 200, h, 3).violation_count
              for h in range(61)]
    oracle = [safety_by_step_many(model, initial, unsafe, 200, h, 3).violation_count
              for h in range(61)]
    assert counts == oracle
    assert 0 < counts[0] and counts[-1] < 200 and len(set(counts)) > 4


# ------------------------------------------------------- step kernel, rollout


def _contracting_model(draw, kind):
    """A model pulling states from ``[0, 0.3]`` towards a point in ``[0.6, 0.9]``.

    Contraction ``a`` in ``[0.5, 0.99]`` towards a drawn fixed point, and for
    the quadratic and perturbed kinds a quadratic term and a sinusoid of at
    most 0.01 each.
    """
    rate = draw(st.floats(0.5, 0.99))
    target = draw(st.floats(0.6, 0.9))
    offset = (1.0 - rate) * target
    if kind == "affine":
        return SystemModel(rate, offset)
    seed = draw(st.integers(0, 2**16))
    quad = float(np.random.default_rng(seed).uniform(-0.01, 0.01))
    model = SystemModel(rate, offset, quadratic=quad)
    if kind == "quadratic":
        return model
    return replace(model, amplitude=draw(st.floats(0.0, 0.01)),
                   frequency=draw(st.floats(0.5, 2000.0)))


_KINDS = st.sampled_from(["affine", "quadratic", "perturbed"])


@st.composite
def _model_and_states(draw):
    model = _contracting_model(draw, draw(_KINDS))
    count = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    states = np.random.default_rng(seed).uniform(-2.0, 2.0, size=count)
    return model, states


@settings(max_examples=100, deadline=None)
@given(_model_and_states())
def test_step_kernel_is_byte_equal_to_matmul_in_1d(case):
    model, states = case
    assert model.step_many(states).tobytes() == step_many_matmul(model, states).tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
def test_a_batch_step_a_block_at_a_time_equals_one_pass(monkeypatch, block):
    # a perturbed quadratic, on a block short, on its edge, one past it and
    # one into a third block, with states that overflow and are nan
    model = SystemModel(0.8, 0.5, quadratic=0.1, amplitude=0.02, frequency=3.0)
    rng = np.random.default_rng(block)
    monkeypatch.setattr(physbc.models, "_STEP_ROWS", block)
    for count in (block - 1, block, block + 1, 2 * block + 1):
        x = rng.choice([-2.0, 0.3, 1.7, 1e200, np.nan], count)
        out = np.empty(count)
        with np.errstate(all="ignore"):
            model._advance(x, out, np.empty(count))
            assert model.step_many(x).tobytes() == out.tobytes()


def test_a_batch_step_holds_its_successors_and_a_fixed_scratch():
    model = SystemModel(0.8, 0.5, quadratic=0.1, amplitude=0.02, frequency=3.0)
    x = np.random.default_rng(6).uniform(0.0, 1.0, 300_000)
    model.step_many(x[:10])  # the first call's imports are not counted
    tracemalloc.start()
    try:
        out = model.step_many(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the successors and a scratch of _STEP_ROWS states; a scratch as long as
    # the batch took 8 bytes a state more
    assert peak - out.nbytes < 8 * physbc.models._STEP_ROWS + 16 * 1024


def test_perturbation_writes_into_a_given_buffer():
    model = SystemModel(0.8, 0.5, quadratic=0.1, amplitude=0.02, frequency=3.0)
    x = np.linspace(0.0, 1.0, 9)
    before = x.copy()
    out, scratch = np.empty_like(x), np.empty_like(x)
    model._advance(x, out, scratch)
    assert out.tobytes() == model.step_many(x).tobytes()
    # scratch holds the last term added, the sinusoid; the input is read, never written
    assert scratch.tobytes() == (np.sin(x * (2.0 * np.pi * 3.0)) * 0.02).tobytes()
    assert x.tobytes() == before.tobytes()


@st.composite
def _rollout_case(draw):
    model = _contracting_model(draw, draw(_KINDS))
    lower = draw(st.floats(0.3, 0.8))
    unsafe = RegionBox(lower, lower + draw(st.floats(0.005, 0.2)))
    trajectories = draw(st.integers(1, 300))
    horizon = draw(st.integers(0, 400))
    seed = draw(st.integers(0, 2**16))
    return model, unsafe, trajectories, horizon, seed


@settings(max_examples=60, deadline=None)
@given(_rollout_case())
def test_rollout_equals_step_many_oracle_across_block_edges(case):
    """Every hit count at an arbitrary horizon, the former rollout's block edges among them."""
    model, unsafe, trajectories, horizon, seed = case
    initial = RegionBox(0.0, 0.3)
    lean = check_safety_empirically(model, initial, unsafe, trajectories, horizon, seed)
    oracle = safety_by_step_many(model, initial, unsafe, trajectories, horizon, seed)
    assert lean == oracle


# horizons about the edges of the former 218-step rollout blocks at 300 trajectories
SPAN_HORIZONS = [0, 1, 217, 218, 219, 656]


@pytest.mark.parametrize("horizon_at", range(len(SPAN_HORIZONS)))
def test_rollout_hits_span_blocks_at_the_real_block_size(horizon_at):
    """A slow approach to a thin unsafe band: first hits land over hundreds of steps."""
    model = SystemModel(0.995, 0.005, amplitude=1e-4, frequency=300.0)
    initial, unsafe = RegionBox(0.0, 0.95), RegionBox(0.9, 0.92)
    horizon = SPAN_HORIZONS[horizon_at]
    lean = check_safety_empirically(model, initial, unsafe, 300, horizon, 5)
    oracle = safety_by_step_many(model, initial, unsafe, 300, horizon, 5)
    assert lean == oracle
    if horizon == SPAN_HORIZONS[-1]:
        assert 0 < lean.violation_count < 300
        # the count grows in each of three spans of 218 steps
        ends = [217, 435, 653, horizon]
        counts = [0] + [check_safety_empirically(model, initial, unsafe, 300, h, 5)
                        .violation_count for h in ends]
        assert sum(a < b for a, b in zip(counts, counts[1:])) >= 3


def test_rollout_never_calls_einsum_or_matmul(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the step kernel called einsum or matmul")

    model = replace(logistic_growth(), amplitude=0.003, frequency=40.0)
    box = RegionBox(0.0, 0.5)
    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(np, "matmul", refuse)
    check_safety_empirically(model, box, box, trajectories=20, horizon=30, seed=0)
    model.step_many(np.full(5, 0.1))


def _rollout_peak(horizon):
    model = replace(supply_demand(), amplitude=0.007, frequency=1250 / 2.2)
    initial, unsafe = RegionBox(0.5, 0.6), RegionBox(2.6, 2.7)
    tracemalloc.start()
    try:
        check_safety_empirically(model, initial, unsafe, trajectories=1000, horizon=horizon,
                                 seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rollout_memory_does_not_grow_with_horizon():
    assert _rollout_peak(4000) <= 1.25 * _rollout_peak(100)


# (model, step, value): every start in [0.5, 0.6] leaves the floats at that step
OVERFLOWS = {
    # 1e308 x is about 5.5e307 after one step and inf after two
    "inf": (SystemModel(1e308, 0.5), 2, "inf"),
    # after two steps 1e200 x is inf and -x^2 is -inf: their sum is nan
    "nan": (SystemModel(1e200, 0.0, quadratic=-1.0), 2, "nan"),
    # 10^k x first exceeds the largest float at k = 309
    "late": (SystemModel(10.0, 0.0), 309, "inf"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_a_rollout_that_stops_being_finite_is_an_error(case):
    model, step, value = OVERFLOWS[case]
    initial, unsafe = RegionBox(0.5, 0.6), RegionBox(2.6, 2.7)
    start = float(np.random.default_rng(0).uniform(0.5, 0.6, size=4)[0])
    message = (f"the trajectory from state {start!r} reaches {value} at step {step},"
               " which is not finite")
    # numpy's overflow warnings would fail this test: the rollout silences them
    with pytest.raises(PhysbcError, match=re.escape(message)):
        check_safety_empirically(model, initial, unsafe, trajectories=4, horizon=400, seed=0)
    # a horizon short of the overflow reads as it did
    short = check_safety_empirically(model, initial, unsafe, trajectories=4, horizon=step - 1,
                                     seed=0)
    assert short.safe and short.horizon == step - 1


def test_a_rollout_error_names_the_earliest_step_not_the_lowest_trajectory():
    # from 0.0140, 10^k x first leaves the floats at step 311; from 0.873, at step 309
    model, initial, unsafe = SystemModel(10.0, 0.0), RegionBox(0.01, 1.0), RegionBox(0.01, 0.02)
    starts = np.random.default_rng(34).uniform(0.01, 1.0, size=2)
    assert starts[0] < 0.0141 and starts[1] > 0.87
    message = (f"the trajectory from state {float(starts[1])!r} reaches inf at step 309,"
               " which is not finite")
    with pytest.raises(PhysbcError, match=re.escape(message)):
        check_safety_empirically(model, initial, unsafe, trajectories=2, horizon=400, seed=34)
