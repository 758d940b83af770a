import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import safety_by_step_many, step_many_matmul
from physbc import models
from physbc.errors import InvalidStateError
from physbc.models import (
    PRESET_MODELS,
    PerturbationField,
    RegionBox,
    SystemModel,
    check_safety_empirically,
    logistic_growth,
    supply_demand,
)


def test_interval_basics():
    box = RegionBox.interval(0.5, 2.7)
    assert box.dimension == 1
    assert box.lengths == pytest.approx([2.2])
    assert box.contains(np.array([0.5]))
    assert box.contains(np.array([2.7]))
    assert not box.contains(np.array([2.71]))


def test_region_batch_membership():
    box = RegionBox(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    pts = np.array([[0.5, 0.0], [1.5, 0.0], [1.0, -1.0]])
    assert box.contains(pts).tolist() == [True, False, True]


def test_region_relative_slack_loosens_faces():
    box = RegionBox.interval(0.0, 1.0)
    just_out = np.array([1.0 + 1e-13])
    assert not box.contains(just_out)
    assert box.contains(just_out, rtol=1e-12)


def test_region_nesting():
    outer = RegionBox.interval(0.0, 1.0)
    assert outer.contains_box(RegionBox.interval(0.2, 0.8))
    assert not outer.contains_box(RegionBox.interval(0.2, 1.2))


def test_region_of_another_dimension_is_never_nested():
    # bounds that broadcast against the outer box's must not count as nesting
    line = RegionBox.interval(0.5, 2.7)
    square = RegionBox(np.full(2, 0.5), np.full(2, 0.6))
    assert not line.contains_box(square)
    assert not square.contains_box(line)


def test_region_rejects_bad_bounds():
    with pytest.raises(ValueError):
        RegionBox.interval(1.0, 1.0)
    with pytest.raises(ValueError):
        RegionBox(np.array([0.0]), np.array([np.inf]))
    with pytest.raises(ValueError):
        RegionBox(np.array([[0.0]]), np.array([[1.0]]))


def test_region_dict_round_trip():
    box = RegionBox(np.array([0.1, 0.2]), np.array([1.0, 2.0]))
    back = RegionBox.from_dict(box.to_dict())
    assert np.array_equal(back.lower, box.lower)
    assert np.array_equal(back.upper, box.upper)


def test_region_bounds_are_immutable():
    box = RegionBox.interval(0.0, 1.0)
    with pytest.raises(ValueError):
        box.lower[0] = -1.0


def test_perturbation_values():
    field = PerturbationField(amplitude=0.25, frequency=2.0)
    x = np.array([[0.125]])
    # one eighth of a half-unit period: sin(pi/2) = 1
    assert float(field(x)[0, 0]) == pytest.approx(0.25)
    zero = PerturbationField(amplitude=0.0, frequency=1.0)
    assert np.all(zero(np.linspace(0, 1, 7)[:, None]) == 0.0)


def test_perturbation_validation():
    with pytest.raises(ValueError):
        PerturbationField(amplitude=-0.1, frequency=1.0)
    with pytest.raises(ValueError):
        PerturbationField(amplitude=0.1, frequency=0.0)


def test_supply_demand_step():
    model = supply_demand()
    assert model.step(np.array([1.0])) == pytest.approx([1.3])
    # fixed point of x -> 0.8 x + 0.5
    assert model.step(np.array([2.5])) == pytest.approx([2.5])


def test_logistic_growth_step():
    model = logistic_growth()
    assert model.step(np.array([0.0])) == pytest.approx([0.0])
    assert model.step(np.array([1.0])) == pytest.approx([0.8])
    assert model.step(np.array([0.6])) == pytest.approx([0.6])


def test_preset_registry():
    assert set(PRESET_MODELS) == {"supply-demand", "logistic-growth"}
    for factory in PRESET_MODELS.values():
        assert factory().dimension == 1


def test_double_perturbation_rejected():
    base = supply_demand()
    field = PerturbationField(0.1, 1.0)
    once = SystemModel.perturbed(base, field)
    with pytest.raises(ValueError):
        SystemModel.perturbed(once, field)


def test_perturbed_step_adds_field():
    base = supply_demand()
    field = PerturbationField(0.02, 3.0)
    model = SystemModel.perturbed(base, field)
    x = np.array([[0.7], [1.1]])
    expected = base.step_many(x) + 0.02 * np.sin(2 * np.pi * 3.0 * x)
    assert model.step_many(x) == pytest.approx(expected)


def test_step_shape_checks():
    model = supply_demand()
    with pytest.raises(InvalidStateError):
        model.step_many(np.zeros((4, 2)))
    with pytest.raises(InvalidStateError):
        model.step(np.array([1.0, 2.0]))
    with pytest.raises(InvalidStateError):
        model.step(np.array([np.nan]))


def test_simulate_matches_repeated_steps():
    plane = SystemModel.perturbed(_plane_quadratic(), PerturbationField(0.003, 40.0))
    for model, start in ((logistic_growth(), [0.2]), (plane, [0.2, 0.1])):
        traj = model.simulate(np.array(start), horizon=5)
        assert traj.shape == (6, model.dimension)
        x = np.array(start)
        for k in range(5):
            x = model.step(x)
            assert traj[k + 1].tobytes() == x.tobytes()
    with pytest.raises(ValueError):
        logistic_growth().simulate(np.array([0.2]), horizon=-1)
    with pytest.raises(InvalidStateError):
        plane.simulate(np.array([0.2]), horizon=3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=10_000),
)
def test_quadratic_step_matches_naive_form(point, seed):
    """The step kernel agrees with the written-out polynomial."""
    rng = np.random.default_rng(seed)
    quad = rng.normal(size=(2, 2, 2))
    lin = rng.normal(size=(2, 2))
    off = rng.normal(size=2)
    model = SystemModel.quadratic_polynomial(quad, lin, off)
    x = np.array(point)
    expected = off + lin @ x + np.array([x @ quad[k] @ x for k in range(2)])
    assert model.step(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_safety_check_detects_unsafe_start():
    # initial region inside the unsafe region: every trajectory hits at step 0
    model = supply_demand()
    initial = RegionBox.interval(2.6, 2.65)
    unsafe = RegionBox.interval(2.55, 2.7)
    domain_check = check_safety_empirically(model, initial, unsafe, trajectories=50, horizon=3)
    assert domain_check.violation_count == 50
    assert not domain_check.safe
    traj_index, step, state = domain_check.violations[0]
    assert step == 0
    assert unsafe.contains(state)


def test_safety_check_hit_states_are_read_only():
    # a check may be shared between pipeline runs, so no run may alter it
    check = check_safety_empirically(
        supply_demand(), RegionBox.interval(2.6, 2.65), RegionBox.interval(2.55, 2.7),
        trajectories=5, horizon=3,
    )
    state = check.violations[0][2]
    with pytest.raises(ValueError, match="read-only"):
        state[0] = 0.0
    assert all(not hit.flags.writeable for _, _, hit in check.violations)


def test_safety_check_clean_run_is_reproducible():
    model = supply_demand()
    initial = RegionBox.interval(0.5, 0.6)
    unsafe = RegionBox.interval(2.6, 2.7)
    a = check_safety_empirically(model, initial, unsafe, trajectories=100, horizon=50, seed=4)
    b = check_safety_empirically(model, initial, unsafe, trajectories=100, horizon=50, seed=4)
    assert a.safe and b.safe
    assert a.violation_count == b.violation_count == 0


def test_safety_check_region_dimension_mismatch():
    model = supply_demand()
    square = RegionBox(np.zeros(2), np.ones(2))
    with pytest.raises(InvalidStateError):
        check_safety_empirically(model, square, square, trajectories=5, horizon=2)


def test_safety_check_rejects_negative_horizon():
    line = RegionBox.interval(0.0, 1.0)
    with pytest.raises(ValueError, match="horizon"):
        check_safety_empirically(supply_demand(), line, line, trajectories=5, horizon=-1)


def _plane_quadratic():
    quad = np.zeros((2, 2, 2))
    quad[0, 0, 1] = 0.05
    quad[1, 0, 0] = -0.03
    return SystemModel.quadratic_polynomial(
        quad, np.array([[0.9, 0.05], [0.0, 0.85]]), np.array([0.1, 0.08])
    )


# Unsafe sets narrower than one step near them: some trajectories start
# inside, some enter later at varying steps, and some jump over.
SAFETY_CASES = {
    "affine": (supply_demand, (0.5, 2.2), (2.1, 2.15)),
    "perturbed": (
        lambda: SystemModel.perturbed(supply_demand(), PerturbationField(0.01, 1250 / 2.2)),
        (0.5, 2.2), (2.1, 2.15),
    ),
    "quadratic": (logistic_growth, (0.05, 0.5), (0.45, 0.47)),
    "perturbed-quadratic": (
        lambda: SystemModel.perturbed(logistic_growth(), PerturbationField(0.002, 1250.0)),
        (0.05, 0.5), (0.45, 0.47),
    ),
    "plane-quadratic": (_plane_quadratic, ([0.0, 0.0], [0.8, 0.4]), ([0.7, 0.35], [0.8, 0.4])),
}


@pytest.mark.parametrize("name", sorted(SAFETY_CASES))
def test_safety_check_matches_step_many_oracle(name):
    make_model, initial, unsafe = SAFETY_CASES[name]
    model = make_model()
    initial = RegionBox(np.array(initial[0], ndmin=1), np.array(initial[1], ndmin=1))
    unsafe = RegionBox(np.array(unsafe[0], ndmin=1), np.array(unsafe[1], ndmin=1))
    args = (model, initial, unsafe, 200, 60, 3)
    lean = check_safety_empirically(*args)
    oracle = safety_by_step_many(*args)
    assert 0 < lean.violation_count < 200
    assert lean.violation_count == oracle.violation_count
    steps = [step for _, step, _ in lean.violations]
    assert min(steps) == 0 and len(set(steps)) > 3
    for (i, step, state), (j, ref_step, ref_state) in zip(lean.violations, oracle.violations):
        assert (i, step) == (j, ref_step)
        assert np.array_equal(state, ref_state)


# ------------------------------------------------------- step kernel, rollout


def _contracting_model(draw, dimension, kind):
    """A model pulling states from ``[0, 0.3]^n`` towards a point in ``[0.6, 0.9]^n``.

    Diagonal contraction ``a`` in ``[0.5, 0.99]`` towards a drawn fixed
    point, small cross-coupling, and for the quadratic and perturbed kinds a
    quadratic part and a sinusoid of at most 0.01 each.
    """
    rate = draw(st.lists(st.floats(0.5, 0.99), min_size=dimension, max_size=dimension))
    target = draw(st.lists(st.floats(0.6, 0.9), min_size=dimension, max_size=dimension))
    coupling = draw(st.floats(-0.01, 0.01))
    linear = np.diag(rate) + coupling * (1.0 - np.eye(dimension))
    offset = (1.0 - np.array(rate)) * np.array(target)
    if kind == "affine":
        return SystemModel.affine(linear, offset)
    seed = draw(st.integers(0, 2**16))
    quad = np.random.default_rng(seed).uniform(-0.01, 0.01, size=(dimension,) * 3)
    model = SystemModel.quadratic_polynomial(quad, linear, offset)
    if kind == "quadratic":
        return model
    field = PerturbationField(draw(st.floats(0.0, 0.01)), draw(st.floats(0.5, 2000.0)))
    return SystemModel.perturbed(model, field)


_KINDS = st.sampled_from(["affine", "quadratic", "perturbed"])


@st.composite
def _model_and_states(draw, dimension):
    model = _contracting_model(draw, dimension, draw(_KINDS))
    count = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    states = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(count, dimension))
    return model, states


@settings(max_examples=100, deadline=None)
@given(_model_and_states(1))
def test_step_kernel_is_byte_equal_to_matmul_in_1d(case):
    model, states = case
    assert model.step_many(states).tobytes() == step_many_matmul(model, states).tobytes()


@settings(max_examples=100, deadline=None)
@given(_model_and_states(2))
def test_step_kernel_matches_matmul_in_2d(case):
    model, states = case
    np.testing.assert_allclose(model.step_many(states), step_many_matmul(model, states),
                               rtol=1e-12, atol=1e-12)


def test_perturbation_writes_into_a_given_buffer():
    field = PerturbationField(0.02, 3.0)
    x = np.linspace(0.0, 1.0, 9)[:, None]
    out = np.empty_like(x)
    assert field(x, out=out) is out
    assert out.tobytes() == field(x).tobytes()


def _block_horizons(trajectories, dimension):
    block = models._block_steps(trajectories, dimension)
    return [0, 1, max(block - 1, 0), block, block + 1, 3 * block + 2]


@st.composite
def _rollout_case(draw):
    dimension = draw(st.sampled_from([1, 2]))
    model = _contracting_model(draw, dimension, draw(_KINDS))
    lower = draw(st.lists(st.floats(0.3, 0.8), min_size=dimension, max_size=dimension))
    width = draw(st.lists(st.floats(0.005, 0.2), min_size=dimension, max_size=dimension))
    unsafe = RegionBox(np.array(lower), np.array(lower) + np.array(width))
    trajectories = draw(st.integers(1, 300))
    block_values = draw(st.integers(1, 1024))
    horizon_at = draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**16))
    return model, unsafe, trajectories, block_values, horizon_at, seed


@settings(max_examples=60, deadline=None)
@given(_rollout_case())
def test_rollout_equals_step_many_oracle_across_block_edges(case):
    """Every hit, step and hit state, for horizons on and around block edges."""
    model, unsafe, trajectories, block_values, horizon_at, seed = case
    initial = RegionBox(np.zeros(model.dimension), np.full(model.dimension, 0.3))
    with mock.patch.object(models, "_BLOCK_VALUES", block_values):
        horizon = _block_horizons(trajectories, model.dimension)[horizon_at]
        lean = check_safety_empirically(model, initial, unsafe, trajectories, horizon, seed)
    oracle = safety_by_step_many(model, initial, unsafe, trajectories, horizon, seed)
    assert (lean.trajectories, lean.horizon) == (trajectories, horizon)
    assert lean.violation_count == oracle.violation_count
    for (i, step, state), (j, ref_step, ref_state) in zip(lean.violations, oracle.violations):
        assert (i, step) == (j, ref_step)
        assert state.tobytes() == ref_state.tobytes()


@pytest.mark.parametrize("horizon_at", range(6))
def test_rollout_hits_span_blocks_at_the_real_block_size(horizon_at):
    """A slow approach to a thin unsafe band: first hits land in several blocks."""
    model = SystemModel.perturbed(SystemModel.affine(np.array([[0.995]]), np.array([0.005])),
                                  PerturbationField(1e-4, 300.0))
    initial, unsafe = RegionBox.interval(0.0, 0.95), RegionBox.interval(0.9, 0.92)
    horizon = _block_horizons(300, 1)[horizon_at]
    lean = check_safety_empirically(model, initial, unsafe, 300, horizon, 5)
    oracle = safety_by_step_many(model, initial, unsafe, 300, horizon, 5)
    assert lean.violation_count == oracle.violation_count
    for (i, step, state), (j, ref_step, ref_state) in zip(lean.violations, oracle.violations):
        assert (i, step) == (j, ref_step)
        assert state.tobytes() == ref_state.tobytes()
    if horizon_at == 5:
        assert 0 < lean.violation_count < 300
        block = models._block_steps(300, 1)
        blocks = {step // block for _, step, _ in lean.violations}
        assert len(blocks) >= 3


def test_rollout_never_calls_einsum_or_matmul(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the step kernel called einsum or matmul")

    model = SystemModel.perturbed(_plane_quadratic(), PerturbationField(0.003, 40.0))
    box = RegionBox(np.zeros(2), np.full(2, 0.5))
    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(np, "matmul", refuse)
    check_safety_empirically(model, box, box, trajectories=20, horizon=30)
    model.step_many(np.full((5, 2), 0.1))
    model.simulate(np.array([0.1, 0.2]), horizon=4)


def test_rollout_block_is_capped_at_512_kib_and_one_step():
    assert models._BLOCK_VALUES * 8 == 512 * 1024
    assert models._block_steps(1000, 1) == 65
    assert models._block_steps(1000, 2) == 32
    assert models._block_steps(1, 1) == models._BLOCK_VALUES
    assert models._block_steps(10**6, 2) == 1


def _rollout_peak(horizon):
    model = SystemModel.perturbed(supply_demand(), PerturbationField(0.007, 1250 / 2.2))
    initial, unsafe = RegionBox.interval(0.5, 0.6), RegionBox.interval(2.6, 2.7)
    tracemalloc.start()
    try:
        check_safety_empirically(model, initial, unsafe, trajectories=1000, horizon=horizon)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rollout_memory_does_not_grow_with_horizon():
    assert _rollout_peak(4000) <= 1.25 * _rollout_peak(100)
