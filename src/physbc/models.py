"""Discrete-time system models, state-space regions, and empirical safety checks.

A model is a scalar map ``x(k+1) = f(x(k))`` over an interval of the state
line, the one dimension the package certifies; both case studies are scalar.
Two polynomial families cover them, affine and quadratic; either can carry a
sinusoidal term ``A sin(2 pi nu x)``, which stands in for a ground-truth
system whose dynamics deviate from the nominal physics by a bounded amount.
A :class:`SystemModel` is these terms and nothing else: the ground truth is
the physics with a nonzero amplitude.

Every evaluation of ``f`` goes through one kernel, ``SystemModel._advance``,
which writes into caller-supplied buffers: :meth:`SystemModel.step_many` and
:func:`check_safety_empirically` both call it, so a batch step and a rollout
step are the same arithmetic.  The Monte-Carlo rollout advances one
``(trajectories,)`` state array per step and tests unsafe membership, and that
every state is finite, after each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Real
from typing import Optional

import numpy as np

from .errors import PhysbcError

# Tags of the two polynomial families in a custom-system JSON object.
KIND_AFFINE = "affine"
KIND_QUADRATIC = "quadratic-polynomial"


def real_array(value, field: str) -> np.ndarray:
    """``value``, a number or nested lists of numbers, as a float array.

    Every entry must be a real number: a quoted number, a boolean or ``None``
    is refused with a ``ValueError`` that names ``field``, where a float
    conversion would read ``"0.5"`` as 0.5 and ``true`` as 1.0.
    """
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, np.ndarray):
            item = item.tolist()
        if isinstance(item, (list, tuple)):
            pending.extend(item)
        elif isinstance(item, bool) or not isinstance(item, Real):
            raise ValueError(f"{field} entries must be real numbers, got {item!r}")
    return np.asarray(value, dtype=float)


@dataclass(frozen=True)
class RegionBox:
    """Closed interval ``[lower, upper]`` of the state line."""

    lower: float
    upper: float

    def __post_init__(self):
        for name in ("lower", "upper"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} bound must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (isfinite(self.lower) and isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if self.upper <= self.lower:
            raise ValueError("upper bound must exceed lower bound")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, points, rtol: float = 0.0):
        """Membership of a state, or a mask for a batch ``(N,)``.

        ``rtol`` loosens the ends by a relative slack, useful when points
        were produced by arithmetic that may land on a boundary.
        """
        slack = rtol * max(abs(self.lower), abs(self.upper))
        pts = np.asarray(points, dtype=float)
        return (pts >= self.lower - slack) & (pts <= self.upper + slack)

    def contains_box(self, other: "RegionBox") -> bool:
        """Whether ``other`` lies inside this interval."""
        return other.lower >= self.lower and other.upper <= self.upper

    def to_dict(self) -> dict:
        """The JSON form, which keeps one list entry per axis: ``[lower]``, ``[upper]``."""
        return {"lower": [self.lower], "upper": [self.upper]}

    @classmethod
    def from_dict(cls, data: dict, name: str = "region") -> "RegionBox":
        """Inverse of :meth:`to_dict`; bounds with any number of axes but one, or
        an entry that is not a real number, are refused."""
        lower, upper = (np.atleast_1d(real_array(data[key], f"{name} {key}"))
                        for key in ("lower", "upper"))
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError(f"{name} bounds must be lists of equal length")
        if lower.size != 1:
            raise ValueError(f"{name} must be one-dimensional, got {lower.size} axes")
        return cls(float(lower[0]), float(upper[0]))


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Scalar polynomial dynamics, optionally perturbed.

    The update rule is ``f(x) = linear x + offset + quadratic x^2 + amplitude
    sin(2 pi frequency x)``.  A model without a quadratic term is affine, and
    one of amplitude 0 is unperturbed.  ``frequency`` is in cycles per unit of
    state, so a sinusoid with ``frequency = N / length`` completes exactly
    ``N`` cycles across an interval of that length; integer cycle counts keep
    the deviation's sub-threshold fraction independent of where the interval
    sits.  Instances are immutable and evaluation is deterministic.
    """

    linear: float
    offset: float
    quadratic: Optional[float] = None
    amplitude: float = 0.0
    frequency: float = 0.0

    def __post_init__(self):
        for name in ("linear", "offset", "amplitude", "frequency"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.quadratic is not None:
            object.__setattr__(self, "quadratic", float(self.quadratic))
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.amplitude > 0 and self.frequency <= 0:
            raise ValueError("frequency must be positive")

    def _advance(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write ``f(x)`` for a batch ``x`` into ``out``, using ``scratch``.

        Both buffers have the shape of ``x`` and overlap neither ``x`` nor
        each other.  The terms are accumulated in this order: ``x * linear``,
        the offset, ``(x * quadratic) * x`` and, for a nonzero amplitude,
        ``sin(x * (2 pi frequency)) * amplitude``.
        """
        np.multiply(x, self.linear, out=out)
        out += self.offset
        if self.quadratic is not None:
            np.multiply(x, self.quadratic, out=scratch)
            scratch *= x
            out += scratch
        if self.amplitude:
            np.multiply(x, 2.0 * np.pi * self.frequency, out=scratch)
            np.sin(scratch, out=scratch)
            scratch *= self.amplitude
            out += scratch

    def step_many(self, states: np.ndarray) -> np.ndarray:
        """Advance a batch of states ``(N,)`` by one step."""
        x = np.asarray(states, dtype=float)
        if x.ndim != 1:
            raise PhysbcError(f"expected (N,) states, got {x.shape}")
        out = np.empty(x.shape)
        self._advance(x, out, np.empty(x.shape))
        return out


@dataclass(frozen=True)
class SafetyCheck:
    """Outcome of a Monte-Carlo safety probe."""

    trajectories: int
    horizon: int
    violation_count: int

    @property
    def safe(self) -> bool:
        return self.violation_count == 0


def check_safety_empirically(
    model: SystemModel,
    initial: RegionBox,
    unsafe: RegionBox,
    trajectories: int,
    horizon: int,
    seed: int,
) -> SafetyCheck:
    """Simulate trajectories from the initial region and count unsafe entries.

    States are drawn uniformly from ``initial``; each trajectory is rolled
    forward ``horizon`` steps.  A trajectory counts as violating when any of
    its states lies in ``unsafe``; it is still advanced afterwards so the
    check's cost is deterministic and independent of the hits.

    Each step goes through the model's one kernel, from one
    ``(trajectories,)`` state array into another, the two swapping roles, so
    memory stays flat in ``horizon``.  After each step, unsafe membership
    (``RegionBox.contains`` at ``rtol = 0``) is OR-ed into one hit flag per
    trajectory.

    A trajectory that overflows to inf or nan would never lie in ``unsafe``
    and so would read as safe: the first step at which a state is not finite
    raises a :class:`PhysbcError` instead, naming that step and the start
    state of the lowest-index trajectory whose state is not finite there.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(initial.lower, initial.upper, size=trajectories)
    states = starts.copy()
    following = np.empty(trajectories)
    scratch = np.empty(trajectories)
    hit = unsafe.contains(states)
    # numpy's overflow warnings stay silent, since the error says it all
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, horizon + 1):
            model._advance(states, following, scratch)
            states, following = following, states
            finite = np.isfinite(states)
            if not finite.all():
                i = int(np.argmin(finite))
                raise PhysbcError(
                    f"the trajectory from state {float(starts[i])!r} reaches"
                    f" {float(states[i])!r} at step {step}, which is not finite")
            hit |= unsafe.contains(states)

    return SafetyCheck(
        trajectories=trajectories, horizon=horizon, violation_count=int(np.count_nonzero(hit))
    )


def supply_demand() -> SystemModel:
    """Scalar market model ``x+ = x + 0.1 (5 - 2 x)``."""
    return SystemModel(linear=0.8, offset=0.5)


def logistic_growth() -> SystemModel:
    """Scalar harvested-growth model ``x+ = x + 0.5 x (1 - x) - 0.2 x``."""
    return SystemModel(linear=1.3, offset=0.0, quadratic=-0.5)


PRESET_MODELS = {
    "supply-demand": supply_demand,
    "logistic-growth": logistic_growth,
}
