"""Discrete-time system models, state-space regions, and empirical safety checks.

A model is a map ``x(k+1) = f(x(k))`` over a box-shaped state space.  Two
polynomial families cover the builtin case studies; a third kind wraps any
base model with a sinusoidal perturbation and stands in for a ground-truth
system whose dynamics deviate from the nominal physics by a bounded amount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidStateError

KIND_AFFINE = "affine"
KIND_QUADRATIC = "quadratic-polynomial"
KIND_PERTURBED = "perturbed"


@dataclass(frozen=True, eq=False)
class RegionBox:
    """Axis-aligned box ``[lower_i, upper_i]`` in state space."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if np.any(hi <= lo):
            raise ValueError("upper bounds must exceed lower bounds")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "RegionBox":
        return cls(np.array([lo]), np.array([hi]))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def lengths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, points: np.ndarray, rtol: float = 0.0) -> np.ndarray:
        """Membership mask for one point ``(n,)`` or a batch ``(N, n)``.

        ``rtol`` loosens the faces by a relative slack, useful when points
        were produced by arithmetic that may land on a boundary.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        slack = rtol * np.maximum(np.abs(self.lower), np.abs(self.upper))
        mask = np.all((pts >= self.lower - slack) & (pts <= self.upper + slack), axis=1)
        return mask[0] if np.asarray(points).ndim == 1 else mask

    def grid(self, counts) -> np.ndarray:
        """Lattice of ``counts[i]`` evenly spaced points on axis ``i``, faces included.

        Returns ``(prod(counts), n)`` points, the first axis varying slowest.
        """
        axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(self.lower, self.upper, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def contains_box(self, other: "RegionBox") -> bool:
        return bool(np.all(other.lower >= self.lower) and np.all(other.upper <= self.upper))

    def to_dict(self) -> dict:
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "RegionBox":
        return cls(np.asarray(data["lower"], dtype=float), np.asarray(data["upper"], dtype=float))


@dataclass(frozen=True, eq=False)
class PerturbationField:
    """Componentwise sinusoidal deviation ``w_i(x) = A sin(2 pi nu x_i + phase)``.

    ``frequency`` is in cycles per unit of state, so a field with
    ``frequency = N / length`` completes exactly ``N`` cycles across an
    interval of that length.  Integer cycle counts keep the deviation's
    sub-threshold fraction independent of where the interval sits.
    """

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    def __call__(self, states: np.ndarray) -> np.ndarray:
        x = np.asarray(states, dtype=float)
        return self.amplitude * np.sin(2.0 * np.pi * self.frequency * x + self.phase)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Polynomial discrete-time dynamics, optionally perturbed.

    The update rule is ``f_k(x) = offset_k + (linear @ x)_k + x' quadratic_k x``
    plus, for perturbed models, a :class:`PerturbationField` evaluated
    componentwise.  Instances are immutable and evaluation is deterministic.
    """

    kind: str
    linear: np.ndarray
    offset: np.ndarray
    quadratic: Optional[np.ndarray] = None
    perturbation: Optional[PerturbationField] = None

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=float)
        off = np.atleast_1d(np.asarray(self.offset, dtype=float))
        n = off.size
        if lin.shape != (n, n):
            raise ValueError(f"linear part must be {n}x{n}, got {lin.shape}")
        quad = self.quadratic
        if quad is not None:
            quad = np.asarray(quad, dtype=float)
            if quad.shape != (n, n, n):
                raise ValueError(f"quadratic part must be {n}x{n}x{n}, got {quad.shape}")
            quad.flags.writeable = False
        if self.kind not in (KIND_AFFINE, KIND_QUADRATIC, KIND_PERTURBED):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == KIND_AFFINE and quad is not None:
            raise ValueError("affine models cannot carry a quadratic part")
        if self.kind != KIND_PERTURBED and self.perturbation is not None:
            raise ValueError("only perturbed models carry a perturbation field")
        lin.flags.writeable = False
        off.flags.writeable = False
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "quadratic", quad)

    @classmethod
    def affine(cls, linear: np.ndarray, offset: np.ndarray) -> "SystemModel":
        return cls(KIND_AFFINE, linear, offset)

    @classmethod
    def quadratic_polynomial(
        cls, quadratic: np.ndarray, linear: np.ndarray, offset: np.ndarray
    ) -> "SystemModel":
        return cls(KIND_QUADRATIC, linear, offset, quadratic=quadratic)

    @classmethod
    def perturbed(cls, base: "SystemModel", perturbation: PerturbationField) -> "SystemModel":
        """Overlay a deviation field on an existing (unperturbed) model."""
        if base.kind == KIND_PERTURBED:
            raise ValueError("base model is already perturbed")
        return cls(KIND_PERTURBED, base.linear, base.offset, base.quadratic, perturbation)

    @property
    def dimension(self) -> int:
        return self.offset.size

    def step_many(self, states: np.ndarray) -> np.ndarray:
        """Advance a batch of states ``(N, n)`` by one step."""
        x = np.asarray(states, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dimension:
            raise InvalidStateError(f"expected (N, {self.dimension}) states, got {x.shape}")
        y = x @ self.linear.T + self.offset
        if self.quadratic is not None:
            y = y + np.einsum("ni,kij,nj->nk", x, self.quadratic, x)
        if self.perturbation is not None:
            y = y + self.perturbation(x)
        return y

    def step(self, state: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(state, dtype=float))
        if x.shape != (self.dimension,):
            raise InvalidStateError(f"expected state of dimension {self.dimension}, got {x.shape}")
        if not np.isfinite(x).all():
            raise InvalidStateError("state contains non-finite entries")
        return self.step_many(x[None, :])[0]

    def simulate(self, state: np.ndarray, horizon: int) -> np.ndarray:
        """Trajectory ``(horizon + 1, n)`` starting at ``state``."""
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        x = np.atleast_1d(np.asarray(state, dtype=float))
        if not np.isfinite(x).all():
            raise InvalidStateError("state contains non-finite entries")
        out = np.empty((horizon + 1, self.dimension))
        out[0] = x
        for k in range(horizon):
            out[k + 1] = self.step_many(out[k][None, :])[0]
        return out


@dataclass(frozen=True)
class SafetyCheck:
    """Outcome of a Monte-Carlo safety probe."""

    trajectories: int
    horizon: int
    violation_count: int
    # (trajectory index, step, entry state) for each trajectory that hit the
    # unsafe region, recorded at the first hit only.
    violations: tuple = field(default_factory=tuple)

    @property
    def safe(self) -> bool:
        return self.violation_count == 0


def check_safety_empirically(
    model: SystemModel,
    initial: RegionBox,
    unsafe: RegionBox,
    trajectories: int = 1000,
    horizon: int = 500,
    seed: int = 0,
) -> SafetyCheck:
    """Simulate trajectories from the initial region and count unsafe entries.

    States are drawn uniformly from ``initial``; each trajectory is rolled
    forward ``horizon`` steps.  A trajectory counts as violating at the first
    step whose state lies in ``unsafe``; it is still advanced afterwards so
    the check's cost is deterministic.
    """
    if initial.dimension != model.dimension or unsafe.dimension != model.dimension:
        raise InvalidStateError("region dimension does not match the model")
    rng = np.random.default_rng(seed)
    states = rng.uniform(initial.lower, initial.upper, size=(trajectories, model.dimension))
    first_hit = np.full(trajectories, -1, dtype=int)
    hit_state = np.zeros((trajectories, model.dimension))

    # The loop repeats step_many's arithmetic in its order, and
    # RegionBox.contains at rtol = 0, without their per-call checks.
    lower, upper = unsafe.lower, unsafe.upper
    linear_t, offset = model.linear.T, model.offset
    quadratic, perturbation = model.quadratic, model.perturbation
    for k in range(horizon + 1):
        if k:
            y = states @ linear_t + offset
            if quadratic is not None:
                y += np.einsum("ni,kij,nj->nk", states, quadratic, states)
            if perturbation is not None:
                y += perturbation(states)
            states = y
        fresh = ((states >= lower) & (states <= upper)).all(axis=1) & (first_hit < 0)
        if fresh.any():
            first_hit[fresh] = k
            hit_state[fresh] = states[fresh]

    violating = np.nonzero(first_hit >= 0)[0]
    events = tuple(
        (int(i), int(first_hit[i]), hit_state[i].copy()) for i in violating
    )
    return SafetyCheck(
        trajectories=trajectories,
        horizon=horizon,
        violation_count=len(events),
        violations=events,
    )


def supply_demand() -> SystemModel:
    """Scalar market model ``x+ = x + 0.1 (5 - 2 x)``."""
    return SystemModel.affine(np.array([[0.8]]), np.array([0.5]))


def logistic_growth() -> SystemModel:
    """Scalar harvested-growth model ``x+ = x + 0.5 x (1 - x) - 0.2 x``."""
    return SystemModel.quadratic_polynomial(
        np.array([[[-0.5]]]), np.array([[1.3]]), np.array([0.0])
    )


PRESET_MODELS = {
    "supply-demand": supply_demand,
    "logistic-growth": logistic_growth,
}
