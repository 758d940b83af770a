"""Run configuration: JSON schema, validation, and case-study presets.

A :class:`RunConfig` pins everything a pipeline run needs: the nominal
physics, the ground-truth deviation used to synthesise data, regions,
sampling, filtering, solver and estimator knobs, and the guarantee mode.
The scenario program itself has one shape (bounded coefficients, a pinned
initial level and the level-gap row; see :mod:`physbc.barrier`), and its
decision count, which sets the probabilistic violation level, follows from
the template; neither is a setting.  Every field is checked when a config is
built, by the constructor, by ``dataclasses.replace`` or by
:meth:`RunConfig.from_dict`, which also rejects any key, at any level, that
names no field.  The domain, both regions and the system are scalar, the one
dimension in which the covering radius and the flow Lipschitz constant are
exact; their JSON form keeps one list entry per axis (``[0.5]``, ``[[0.8]]``,
``[[[-0.5]]]``), and :meth:`RunConfig.from_dict` refuses any other number of
axes, naming the field.  Configs round-trip through JSON so a report can
embed its exact inputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from math import isfinite, sqrt
from numbers import Real
from operator import attrgetter
from typing import Optional, Union, get_type_hints

import numpy as np

from .barrier import DEFAULT_COEFF_BOUND
from .lipschitz import METHOD_EXTREME, METHOD_PAIRWISE, LipschitzSpec
from .models import (
    KIND_AFFINE,
    KIND_QUADRATIC,
    PRESET_MODELS,
    RegionBox,
    SystemModel,
    real_array,
)
from .sampling import DEFAULT_MAX_SAMPLES

MODE_DETERMINISTIC = "deterministic"
MODE_PROBABILISTIC = "probabilistic"


@dataclass(frozen=True)
class SamplingSpec:
    count: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class FilterSpec:
    enabled: bool = True
    threshold: float = 0.005


@dataclass(frozen=True)
class PerturbationSpec:
    """Ground-truth deviation overlaid on the physics when synthesising data.

    ``amplitude = None`` derives sqrt(2) times the filter threshold, which
    makes the sub-threshold fraction of a uniform sample exactly one half
    whenever the sinusoid completes an integer number of cycles over the
    domain.  The deviation is ``amplitude * sin(2 pi frequency x)``, with
    ``frequency`` in cycles per unit of state.
    """

    amplitude: Optional[float] = None
    frequency: float = 1250.0


@dataclass(frozen=True)
class SolverSpec:
    coeff_bound: float = DEFAULT_COEFF_BOUND
    cross_check: bool = False


@dataclass(frozen=True)
class GuaranteeSpec:
    mode: str = MODE_DETERMINISTIC
    risk: float = 0.05  # probabilistic mode only


@dataclass(frozen=True)
class ValidationSpec:
    trajectories: int = 1000
    horizon: int = 500
    seed: int = 99


def _is_finite_number(value) -> bool:
    """A real number, bool excluded, that a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# Each checked setting type: the test its values pass, and what the error calls it.
# numpy's integers, reals and bools count, bool as an integer or a real does not;
# flags are booleans, as "false" or 0 would read as set or unset; a null
# amplitude means the derived one.
_CHECKS = {
    int: (lambda value: not isinstance(value, bool) and isinstance(value, (int, np.integer)),
          "an integer"),
    float: (_is_finite_number, "a finite number"),
    Optional[float]: (lambda value: value is None or _is_finite_number(value), "a finite number"),
    bool: (lambda value: isinstance(value, (bool, np.bool_)), "a boolean"),
}


def _unknown_keys(data: dict, cls, where: str) -> None:
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class RunConfig:
    """One pipeline run's inputs.

    ``guarantee.mode`` is the one switch for both the sampling law and the
    certification route: a deterministic run samples ``sampling.count`` evenly
    spaced states, a probabilistic one draws them i.i.d. uniform from
    ``sampling.seed``, because the scenario bound holds only for i.i.d. samples.
    """

    system: Union[str, dict]
    domain: RegionBox
    initial: RegionBox
    unsafe: RegionBox
    name: str = "custom"
    template_degree: int = 2
    decay: float = 0.83
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    filter: FilterSpec = field(default_factory=FilterSpec)
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    lipschitz: LipschitzSpec = field(default_factory=LipschitzSpec)
    guarantee: GuaranteeSpec = field(default_factory=GuaranteeSpec)
    validation: ValidationSpec = field(default_factory=ValidationSpec)

    def __post_init__(self):
        for key, accepts, kind in _SETTINGS:
            value = attrgetter(key)(self)
            if not accepts(value):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
            if key.endswith(".seed") and value < 0:
                raise ValueError(f"{key} must be non-negative")
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not self.domain.contains_box(self.initial):
            raise ValueError("initial region must be nested in the domain")
        if not self.domain.contains_box(self.unsafe):
            raise ValueError("unsafe region must be nested in the domain")
        if self.sampling.count < 2:
            raise ValueError("sample count must be at least 2")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must lie in (0, 1]")
        if self.filter.enabled and not self.filter.threshold > 0:
            raise ValueError("filter threshold must be positive")
        if self.guarantee.mode not in (MODE_DETERMINISTIC, MODE_PROBABILISTIC):
            raise ValueError(f"unknown guarantee mode {self.guarantee.mode!r}")
        if self.guarantee.mode == MODE_PROBABILISTIC and not (0.0 < self.guarantee.risk < 1.0):
            raise ValueError("risk must lie strictly between 0 and 1")
        if self.template_degree < 0:
            raise ValueError("template degree must be non-negative")
        if not self.solver.coeff_bound > 0:
            raise ValueError(f"solver.coeff_bound must be positive, got {self.solver.coeff_bound!r}")
        if self.validation.trajectories < 1:
            raise ValueError("validation trajectories must be at least 1")
        if self.validation.horizon < 1:
            raise ValueError("validation horizon must be at least 1")
        steps = int(self.validation.trajectories) * int(self.validation.horizon)
        if steps > DEFAULT_MAX_SAMPLES:
            raise ValueError(
                "validation.trajectories * validation.horizon must be at most"
                f" {DEFAULT_MAX_SAMPLES}, got {self.validation.trajectories}"
                f" * {self.validation.horizon} = {steps}")
        if self.lipschitz.method not in (METHOD_PAIRWISE, METHOD_EXTREME):
            raise ValueError(f"unknown lipschitz method {self.lipschitz.method!r}")
        if self.lipschitz.pair_budget < 1:
            raise ValueError("lipschitz.pair_budget must be positive")
        if self.lipschitz.multiplier < 1.0:
            raise ValueError("lipschitz.multiplier must be at least 1")
        if self.lipschitz.batches < 2:
            raise ValueError("lipschitz.batches must be at least 2")
        if not self.lipschitz.shape > 0:
            raise ValueError("lipschitz.shape must be positive")
        self.true_model()  # raises on a malformed custom system or perturbation

    # ---- model construction -------------------------------------------------

    def physics_model(self) -> SystemModel:
        """The nominal physics used for filtering and constraint assembly."""
        if isinstance(self.system, str):
            try:
                return PRESET_MODELS[self.system]()
            except KeyError:
                raise ValueError(
                    f"unknown system preset {self.system!r}; "
                    f"available: {sorted(PRESET_MODELS)}"
                ) from None
        spec = self.system
        if not isinstance(spec, dict):
            raise ValueError(f"system must be a preset name or a mapping, got {spec!r}")
        kind = spec.get("kind")
        if kind not in (KIND_AFFINE, KIND_QUADRATIC):
            raise ValueError(f"unknown custom system kind {kind!r}")
        # the JSON form of x+ = linear x + offset + quadratic x^2 keeps one list
        # level per index: offset [c], linear [[a]], quadratic [[[q]]]
        axes = np.size(spec["offset"])
        if axes != 1:
            raise ValueError(f"system must be one-dimensional, got {axes} axes")
        terms = {}
        for key, shape in (("offset", (1,)), ("linear", (1, 1)), ("quadratic", (1, 1, 1))):
            if key == "quadratic" and kind == KIND_AFFINE:
                continue
            value = real_array(spec[key], f"system {key}")
            if value.shape != shape:
                raise ValueError(f"system {key} must have shape {shape}, got {value.shape}")
            terms[key] = value.item()
            if not isfinite(terms[key]):
                raise ValueError(f"system {key} must be a finite number, got {terms[key]!r}")
        return SystemModel(**terms)

    def perturbation_amplitude(self) -> float:
        if self.perturbation.amplitude is not None:
            return self.perturbation.amplitude
        return sqrt(2.0) * self.filter.threshold

    def true_model(self) -> SystemModel:
        """Ground truth: the physics plus the configured sinusoid."""
        return replace(self.physics_model(), amplitude=self.perturbation_amplitude(),
                       frequency=self.perturbation.frequency)

    # ---- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["domain"] = self.domain.to_dict()
        data["initial"] = self.initial.to_dict()
        data["unsafe"] = self.unsafe.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        _unknown_keys(data, cls, "config")
        values = dict(data)
        for name, section_cls in _SECTIONS.items():
            if name in data:
                _unknown_keys(data[name], section_cls, name)
                if section_cls is RegionBox:
                    values[name] = RegionBox.from_dict(data[name], name)
                else:
                    values[name] = section_cls(**data[name])
        return cls(**values)


# Each nested record of a RunConfig by field name; from_dict builds it from its JSON object.
_SECTIONS = {k: t for k, t in get_type_hints(RunConfig).items() if is_dataclass(t)}

# (dotted key, test, type name) of every setting whose annotation is in _CHECKS, in
# declaration order; RunConfig.__post_init__ checks each.  The RegionBox sections
# check themselves.
_SETTINGS = tuple(
    (prefix + name, *_CHECKS[annotation])
    for prefix, cls in [("", RunConfig)] + [
        (f"{section}.", section_cls) for section, section_cls in _SECTIONS.items()
        if section_cls is not RegionBox]
    for name, annotation in get_type_hints(cls).items()
    if annotation in _CHECKS
)


def preset(name: str, mode: str = MODE_DETERMINISTIC) -> RunConfig:
    """Full config for a builtin case study in the requested guarantee mode.

    Each mode takes the sample count the reference experiments used for it.
    """
    if name == "supply-demand":
        regions = (
            RegionBox(0.5, 2.7),
            RegionBox(0.5, 0.6),
            RegionBox(2.6, 2.7),
        )
        det_count, prob_count = 220_000, 300_000
    elif name == "logistic-growth":
        regions = (
            RegionBox(0.1, 1.0),
            RegionBox(0.1, 0.3),
            RegionBox(0.7, 1.0),
        )
        det_count, prob_count = 90_000, 260_000
    else:
        raise ValueError(f"unknown preset {name!r}; available: supply-demand, logistic-growth")

    count = det_count if mode == MODE_DETERMINISTIC else prob_count
    return RunConfig(
        name=name,
        system=name,
        domain=regions[0],
        initial=regions[1],
        unsafe=regions[2],
        sampling=SamplingSpec(count=count, seed=2024),
        guarantee=GuaranteeSpec(mode=mode),
    )


def apply_overrides(
    config: RunConfig,
    seed: Optional[int] = None,
    mode: Optional[str] = None,
    no_filter: bool = False,
) -> RunConfig:
    """CLI-level tweaks on top of a loaded config."""
    if seed is not None:
        config = replace(config, sampling=replace(config.sampling, seed=seed))
    if mode is not None:
        config = replace(config, guarantee=replace(config.guarantee, mode=mode))
    if no_filter:
        config = replace(config, filter=replace(config.filter, enabled=False))
    return config
