import dataclasses
import json
import math
import re
from dataclasses import replace
from typing import Optional, Union, get_type_hints

import numpy as np
import pytest

from physbc.config import (
    MODE_DETERMINISTIC,
    MODE_PROBABILISTIC,
    FilterSpec,
    GuaranteeSpec,
    PerturbationSpec,
    RunConfig,
    SamplingSpec,
    SolverSpec,
    ValidationSpec,
    apply_overrides,
    preset,
)
from physbc.models import KIND_AFFINE, KIND_QUADRATIC, RegionBox


def small_config(**kwargs):
    base = dict(
        name="unit",
        system="supply-demand",
        domain=RegionBox(0.5, 2.7),
        initial=RegionBox(0.5, 0.6),
        unsafe=RegionBox(2.6, 2.7),
        sampling=SamplingSpec(count=500),
    )
    base.update(kwargs)
    return RunConfig(**base)


def bounds(region):
    return (region.lower, region.upper)


def test_preset_supply_demand_deterministic():
    config = preset("supply-demand")
    assert bounds(config.domain) == (0.5, 2.7)
    assert bounds(config.initial) == (0.5, 0.6)
    assert bounds(config.unsafe) == (2.6, 2.7)
    assert config.sampling.count == 220_000
    assert config.sampling.seed == 2024
    assert config.guarantee.mode == MODE_DETERMINISTIC
    assert config.filter.enabled and config.filter.threshold == 0.005
    assert config.decay == 0.83
    assert config.template_degree == 2


def test_preset_modes_and_counts():
    sd_prob = preset("supply-demand", MODE_PROBABILISTIC)
    assert sd_prob.sampling.count == 300_000
    lg_det = preset("logistic-growth")
    assert bounds(lg_det.domain) == (0.1, 1.0)
    assert lg_det.sampling.count == 90_000
    lg_prob = preset("logistic-growth", MODE_PROBABILISTIC)
    assert lg_prob.sampling.count == 260_000
    assert lg_prob.guarantee.risk == 0.05


def test_preset_rejects_unknown_names_and_modes():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("pendulum")
    with pytest.raises(ValueError, match="unknown guarantee mode"):
        preset("supply-demand", "bayesian")


def test_validation_rollout_is_bounded_by_the_sample_limit():
    # 40 000 x 500 is the limit itself; numpy integers are multiplied without wrapping
    small_config(validation=ValidationSpec(trajectories=40_000, horizon=500))
    message = ("validation.trajectories * validation.horizon must be at most 20000000,"
               " got 40001 * 500 = 20000500")
    with pytest.raises(ValueError, match=re.escape(message)):
        small_config(validation=ValidationSpec(trajectories=40_001, horizon=500))
    with pytest.raises(ValueError, match="validation.trajectories \\* validation.horizon"):
        small_config(validation=ValidationSpec(trajectories=np.int64(10**18),
                                               horizon=np.int64(500)))


def test_round_trip_through_dict_and_json(tmp_path):
    config = preset("logistic-growth", MODE_PROBABILISTIC)
    clone = RunConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()

    path = tmp_path / "run.json"
    path.write_text(json.dumps(config.to_dict()))
    with open(path, encoding="utf-8") as fh:
        assert RunConfig.from_dict(json.load(fh)).to_dict() == config.to_dict()


def test_from_dict_fills_defaults():
    minimal = {
        "system": "supply-demand",
        "domain": {"lower": [0.5], "upper": [2.7]},
        "initial": {"lower": [0.5], "upper": [0.6]},
        "unsafe": {"lower": [2.6], "upper": [2.7]},
    }
    config = RunConfig.from_dict(minimal)
    assert config.name == "custom"
    assert config.sampling == SamplingSpec()
    assert config.solver.coeff_bound == 100.0
    assert config.solver.cross_check is False
    assert config.lipschitz.multiplier == 1.1
    assert config.validation.trajectories == 1000


def test_construction_rejects_bad_geometry_and_knobs():
    with pytest.raises(ValueError, match="initial region"):
        small_config(initial=RegionBox(0.0, 0.6))
    with pytest.raises(ValueError, match="unsafe region"):
        small_config(unsafe=RegionBox(2.6, 3.0))
    with pytest.raises(ValueError, match="at least 2"):
        small_config(sampling=SamplingSpec(count=1))
    with pytest.raises(ValueError, match="decay"):
        small_config(decay=0.0)
    with pytest.raises(ValueError, match="decay"):
        small_config(decay=1.2)
    with pytest.raises(ValueError, match="threshold"):
        small_config(filter=FilterSpec(threshold=0.0))
    with pytest.raises(ValueError, match="guarantee mode"):
        small_config(guarantee=GuaranteeSpec(mode="exact"))
    with pytest.raises(ValueError, match="risk"):
        small_config(
            guarantee=GuaranteeSpec(mode=MODE_PROBABILISTIC, risk=1.0)
        )
    with pytest.raises(ValueError, match="degree"):
        small_config(template_degree=-1)
    with pytest.raises(ValueError, match="coeff_bound"):
        small_config(solver=SolverSpec(coeff_bound=0.0))
    with pytest.raises(ValueError, match="trajectories"):
        small_config(validation=ValidationSpec(trajectories=0))
    with pytest.raises(ValueError, match="horizon"):
        small_config(validation=ValidationSpec(horizon=-1))
    with pytest.raises(ValueError, match=re.escape("template_degree must be an integer, got 2.0")):
        small_config(template_degree=2.0)
    with pytest.raises(ValueError, match="sampling.count must be an integer, got True"):
        small_config(sampling=SamplingSpec(count=True))
    with pytest.raises(ValueError, match="validation.horizon must be an integer"):
        small_config(validation=ValidationSpec(horizon=50.0))
    with pytest.raises(ValueError, match="sampling.seed must be non-negative"):
        small_config(sampling=SamplingSpec(seed=-1))
    with pytest.raises(ValueError, match="validation.seed must be non-negative"):
        small_config(validation=ValidationSpec(seed=-3))
    with pytest.raises(ValueError, match="frequency must be positive"):
        small_config(perturbation=PerturbationSpec(frequency=-1.0))
    with pytest.raises(ValueError, match="amplitude must be non-negative"):
        small_config(perturbation=PerturbationSpec(amplitude=-0.1))



def test_construction_rejects_an_unbounded_program():
    # the scenario program always bounds its coefficients: null is no longer a setting
    with pytest.raises(ValueError, match="solver.coeff_bound must be a finite number, got None"):
        small_config(solver=SolverSpec(coeff_bound=None))


NUMBER_FIELDS = ("decay", "filter.threshold", "solver.coeff_bound", "guarantee.risk",
                 "perturbation.amplitude", "perturbation.frequency", "lipschitz.multiplier",
                 "lipschitz.shape")
NON_NUMBERS = {"string": "0.5", "null": None, "true": True, "inf": math.inf, "-inf": -math.inf,
               "nan": math.nan, "huge-int": 10 ** 400}


def _with_setting(data, path, value):
    *section, key = path.split(".")
    (data[section[0]] if section else data)[key] = value
    return data


@pytest.mark.parametrize("key, kind", [
    (key, kind) for key in NUMBER_FIELDS for kind in NON_NUMBERS
    if (key, kind) != ("perturbation.amplitude", "null")  # null derives the amplitude
])
def test_number_fields_reject_anything_but_a_number(key, kind):
    value = NON_NUMBERS[kind]
    data = _with_setting(small_config().to_dict(), key, value)
    with pytest.raises(ValueError, match=re.escape(f"{key} must be a finite number, got {value!r}")):
        RunConfig.from_dict(data)


def test_number_fields_accept_numpy_floats_and_integers():
    values = [np.float64(0.5), np.float32(0.01), np.int64(100), np.float64(0.1),
              np.float64(0.003), np.int64(1000), np.float32(1.5), np.int64(2)]
    data = small_config().to_dict()
    for key, value in zip(NUMBER_FIELDS, values):
        _with_setting(data, key, value)
    config = RunConfig.from_dict(data)
    assert config.solver.coeff_bound == 100 and config.perturbation.frequency == 1000


@pytest.mark.parametrize("key", ["lipschitz.pair_budget", "lipschitz.batches", "lipschitz.seed"])
@pytest.mark.parametrize("value", [2.5, "50", True, None])
def test_lipschitz_counts_must_be_integers(key, value):
    data = _with_setting(small_config().to_dict(), key, value)
    with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {value!r}")):
        RunConfig.from_dict(data)


@pytest.mark.parametrize("key, value, kind", [
    ("filter.enabled", "false", "a boolean"),
    ("filter.enabled", 0, "a boolean"),
    ("filter.enabled", None, "a boolean"),
    ("solver.cross_check", "no", "a boolean"),
    ("solver.cross_check", 1, "a boolean"),
    ("solver.cross_check", [True], "a boolean"),
    ("name", 3, "a string"),
    ("name", None, "a string"),
    ("name", ["lg"], "a string"),
])
def test_flags_and_name_reject_other_types(key, value, kind):
    data = _with_setting(small_config().to_dict(), key, value)
    with pytest.raises(ValueError, match=re.escape(f"{key} must be {kind}, got {value!r}")):
        RunConfig.from_dict(data)


def test_flags_accept_numpy_booleans():
    config = small_config(filter=FilterSpec(enabled=np.bool_(False)),
                          solver=SolverSpec(cross_check=np.bool_(True)))
    assert not config.filter.enabled and config.solver.cross_check


def test_lipschitz_seed_must_be_non_negative():
    data = _with_setting(small_config().to_dict(), "lipschitz.seed", -1)
    with pytest.raises(ValueError, match="lipschitz.seed must be non-negative"):
        RunConfig.from_dict(data)


def _annotated_fields(cls=RunConfig, prefix=""):
    """``(dotted key, annotation)`` of every field of ``cls`` and of its sections, read
    from the dataclasses themselves; the regions are left out, as RegionBox checks its
    own bounds."""
    hints = get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            if hints[f.name] is not RegionBox:
                yield from _annotated_fields(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, hints[f.name]


# What a config error calls each checked type, and values of the wrong type for it.
TYPE_NAMES = {int: "an integer", float: "a finite number", Optional[float]: "a finite number",
              bool: "a boolean"}
WRONG_TYPED = {
    int: [2.5, "3", True, None],
    float: ["0.5", True, None, math.inf],
    Optional[float]: ["0.5", False, math.nan],
    bool: ["true", 1, None],
}


def test_every_setting_has_a_checked_type():
    # a field of any other type would go unchecked: name and system are checked by hand
    others = {key: a for key, a in _annotated_fields() if a not in TYPE_NAMES}
    assert others == {"system": Union[str, dict], "name": str, "lipschitz.method": str,
                      "guarantee.mode": str}


@pytest.mark.parametrize("key, annotation",
                         [(key, a) for key, a in _annotated_fields() if a in TYPE_NAMES])
def test_every_typed_setting_refuses_a_wrong_type_and_names_its_key(key, annotation):
    for value in WRONG_TYPED[annotation]:
        data = _with_setting(small_config().to_dict(), key, value)
        message = f"{key} must be {TYPE_NAMES[annotation]}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig.from_dict(data)


def test_non_finite_json_values_are_named():
    # JSON's Infinity and NaN literals reach the config as floats
    text = json.dumps(small_config().to_dict()).replace('"coeff_bound": 100.0',
                                                         '"coeff_bound": Infinity')
    with pytest.raises(ValueError, match="solver.coeff_bound must be a finite number, got inf"):
        RunConfig.from_dict(json.loads(text))


def test_construction_accepts_numpy_integers():
    config = small_config(
        template_degree=np.int64(2),
        sampling=SamplingSpec(count=np.int32(500), seed=np.uint8(0)),
    )
    assert config.sampling.count == 500


def test_replace_checks_the_new_config():
    with pytest.raises(ValueError, match="sampling.seed must be non-negative"):
        replace(small_config(), sampling=SamplingSpec(count=500, seed=-1))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(decay_rate=0.5), r"unknown config key\(s\): decay_rate"),
    (lambda d: d["solver"].update(cross_chek=True, level_gap=False),
     r"unknown solver key\(s\): cross_chek, level_gap"),
    (lambda d: d["unsafe"].update(upper_bound=[3.0]), r"unknown unsafe key\(s\): upper_bound"),
    # retired: the guarantee mode picks the sampler, and the sinusoid has no offset
    (lambda d: d["sampling"].update(scheme="iid-uniform"), r"unknown sampling key\(s\): scheme"),
    (lambda d: d["perturbation"].update(phase=0.0), r"unknown perturbation key\(s\): phase"),
], ids=["top-level", "section", "region", "sampling-scheme", "perturbation-phase"])
def test_from_dict_rejects_unknown_keys_at_every_level(edit, message):
    data = small_config().to_dict()
    edit(data)
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(data)


def _reference_and_preset_configs():
    from physbc.cli import REFERENCE_RESULTS, reference_config

    configs = [reference_config(key) for key in REFERENCE_RESULTS]
    return configs + [preset(name, mode) for name in ("supply-demand", "logistic-growth")
                      for mode in (MODE_DETERMINISTIC, MODE_PROBABILISTIC)]


@pytest.mark.parametrize("config", _reference_and_preset_configs(),
                         ids=lambda c: f"{c.name}-{c.guarantee.mode}")
def test_reference_and_preset_configs_round_trip_through_json(config):
    data = config.to_dict()
    assert RunConfig.from_dict(json.loads(json.dumps(data))).to_dict() == data


def test_risk_only_checked_in_probabilistic_mode():
    small_config(guarantee=GuaranteeSpec(mode=MODE_DETERMINISTIC, risk=7.0))


def test_custom_affine_system():
    config = small_config(
        system={"kind": KIND_AFFINE, "linear": [[0.8]], "offset": [0.5]}
    )
    model = config.physics_model()
    assert model.quadratic is None and model.amplitude == 0.0
    assert (model.linear, model.offset) == (0.8, 0.5)
    assert model.step_many(np.array([1.0]))[0] == pytest.approx(1.3)


def test_custom_quadratic_system():
    config = small_config(
        name="logistic-clone",
        system={
            "kind": KIND_QUADRATIC,
            "quadratic": [[[-0.5]]],
            "linear": [[1.3]],
            "offset": [0.0],
        },
        domain=RegionBox(0.1, 1.0),
        initial=RegionBox(0.1, 0.3),
        unsafe=RegionBox(0.7, 1.0),
    )
    assert config.physics_model().quadratic == -0.5
    assert config.physics_model().step_many(np.array([1.0]))[0] == pytest.approx(0.8)


@pytest.mark.parametrize("terms, message", [
    ({"offset": [0.5, 0.5]}, "system must be one-dimensional, got 2 axes"),
    ({"offset": 0.5}, r"system offset must have shape \(1,\), got \(\)"),
    ({"linear": [[1.3], [0.1]]}, r"system linear must have shape \(1, 1\), got \(2, 1\)"),
    ({"quadratic": [[-0.5]]}, r"system quadratic must have shape \(1, 1, 1\), got \(1, 1\)"),
], ids=["two-offsets", "bare-offset", "tall-linear", "flat-quadratic"])
def test_custom_system_terms_keep_one_axis_per_index(terms, message):
    system = {"kind": KIND_QUADRATIC, "quadratic": [[[-0.5]]], "linear": [[1.3]],
              "offset": [0.0], **terms}
    with pytest.raises(ValueError, match=message):
        small_config(system=system)


def test_unknown_system_rejected():
    with pytest.raises(ValueError, match="unknown system preset"):
        small_config(system="lorenz")
    with pytest.raises(ValueError, match="unknown custom system kind"):
        small_config(system={"kind": "neural"})


def test_default_amplitude_tracks_threshold():
    config = small_config(filter=FilterSpec(threshold=0.01))
    assert config.perturbation_amplitude() == pytest.approx(0.01 * math.sqrt(2))
    pinned = small_config(perturbation=PerturbationSpec(amplitude=0.003))
    assert pinned.perturbation_amplitude() == 0.003


def test_true_model_wraps_physics():
    config = small_config()
    truth = config.true_model()
    assert truth.amplitude == config.perturbation_amplitude() > 0
    assert truth.frequency == config.perturbation.frequency
    assert (truth.linear, truth.offset, truth.quadratic) == (0.8, 0.5, None)
    x = np.array([1.234])
    deviation = truth.step_many(x) - config.physics_model().step_many(x)
    amplitude = config.perturbation_amplitude()
    assert abs(deviation[0]) <= amplitude + 1e-12
    # zero amplitude means the truth steps as the physics itself
    plain = small_config(perturbation=PerturbationSpec(amplitude=0.0))
    assert plain.true_model().amplitude == 0.0
    x = np.linspace(0.5, 2.7, 9)
    assert plain.true_model().step_many(x).tobytes() == plain.physics_model().step_many(
        x).tobytes()


def test_apply_overrides():
    config = preset("supply-demand")
    tweaked = apply_overrides(config, seed=7, mode=MODE_PROBABILISTIC, no_filter=True)
    assert tweaked.sampling.seed == 7
    assert tweaked.guarantee.mode == MODE_PROBABILISTIC
    assert not tweaked.filter.enabled
    # untouched fields carry over
    assert tweaked.sampling.count == config.sampling.count
    assert apply_overrides(config) == config
    with pytest.raises(ValueError):
        apply_overrides(config, mode="exact")


def test_configs_are_immutable():
    config = preset("supply-demand")
    with pytest.raises(AttributeError):
        config.decay = 0.5
    replaced = replace(config, decay=0.9)
    assert replaced.decay == 0.9 and config.decay == 0.83


# Every value a config sets, sections flattened and each region box one value.
# A setting added or retired edits this list.
SETTABLE_VALUES = sorted([
    "system", "domain", "initial", "unsafe", "name", "template_degree", "decay",
    "sampling.count", "sampling.seed",
    "filter.enabled", "filter.threshold",
    "perturbation.amplitude", "perturbation.frequency",
    "solver.coeff_bound", "solver.cross_check",
    "lipschitz.method", "lipschitz.pair_budget", "lipschitz.multiplier", "lipschitz.seed",
    "lipschitz.batches", "lipschitz.shape",
    "guarantee.mode", "guarantee.risk",
    "validation.trajectories", "validation.horizon", "validation.seed",
])


def test_settable_values_inventory():
    keys = []
    for name, value in small_config().to_dict().items():
        if isinstance(value, dict) and name not in ("domain", "initial", "unsafe"):
            keys += [f"{name}.{key}" for key in value]
        else:
            keys.append(name)
    assert sorted(keys) == SETTABLE_VALUES
    assert len(SETTABLE_VALUES) == 26


@pytest.mark.parametrize("terms, field, entry", [
    ({"linear": [["0.8"]]}, "system linear", "'0.8'"),
    ({"offset": ["0.0"]}, "system offset", "'0.0'"),
    ({"quadratic": [[[True]]]}, "system quadratic", "True"),
    ({"linear": [[None]]}, "system linear", "None"),
    ({"offset": "0.0"}, "system offset", "'0.0'"),
], ids=["quoted-linear", "quoted-offset", "boolean-quadratic", "null-linear", "quoted-bare-offset"])
def test_custom_system_terms_must_be_real_numbers(terms, field, entry):
    system = {"kind": KIND_QUADRATIC, "quadratic": [[[-0.5]]], "linear": [[1.3]],
              "offset": [0.0], **terms}
    message = re.escape(f"{field} entries must be real numbers, got {entry}")
    with pytest.raises(ValueError, match=message):
        small_config(system=system)
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict({**small_config().to_dict(), "system": system})


def test_custom_system_terms_accept_integers_and_numpy_numbers():
    system = {"kind": KIND_QUADRATIC, "quadratic": np.array([[[-0.5]]]),
              "linear": [[np.float32(1.25)]], "offset": [0]}
    model = small_config(system=system).physics_model()
    assert (model.quadratic, model.linear, model.offset) == (-0.5, 1.25, 0.0)


@pytest.mark.parametrize("section", ["domain", "initial", "unsafe"])
@pytest.mark.parametrize("key", ["lower", "upper"])
@pytest.mark.parametrize("value", ["0.6", True, None], ids=["quoted", "boolean", "null"])
def test_region_bounds_must_be_real_numbers(section, key, value):
    data = small_config().to_dict()
    data[section] = {**data[section], key: [value]}
    message = re.escape(f"{section} {key} entries must be real numbers, got {value!r}")
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(data)
