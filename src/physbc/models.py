"""Discrete-time system models, state-space regions, and empirical safety checks.

A model is a map ``x(k+1) = f(x(k))`` over a box-shaped state space.  Two
polynomial families cover the builtin case studies; either can carry a
sinusoidal perturbation, which stands in for a ground-truth system whose
dynamics deviate from the nominal physics by a bounded amount.

Every evaluation of ``f`` goes through one kernel, ``SystemModel._advance``,
which writes into caller-supplied buffers: :meth:`SystemModel.step_many`,
:meth:`SystemModel.simulate` and :func:`check_safety_empirically` all call
it, so a batch step and a simulated step are the same arithmetic.  The
Monte-Carlo rollout writes its steps into one preallocated block of at most
``_BLOCK_VALUES`` entries and tests unsafe membership once per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidStateError

# Rollout block size: at most this many float64 state entries (512 KiB) per
# block of steps, and always at least one step.
_BLOCK_VALUES = 1 << 16

# Tags of the two polynomial families in a custom-system JSON object.
KIND_AFFINE = "affine"
KIND_QUADRATIC = "quadratic-polynomial"


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
        """Whether ``other`` lies inside this box; a box of another dimension never does."""
        if other.dimension != self.dimension:
            return False
        return bool(np.all(other.lower >= self.lower) and np.all(other.upper <= self.upper))

    def to_dict(self) -> dict:
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "RegionBox":
        return cls(np.asarray(data["lower"], dtype=float), np.asarray(data["upper"], dtype=float))


@dataclass(frozen=True, eq=False)
class PerturbationField:
    """Componentwise sinusoidal deviation ``w_i(x) = A sin(2 pi nu x_i)``.

    ``frequency`` is in cycles per unit of state, so a field with
    ``frequency = N / length`` completes exactly ``N`` cycles across an
    interval of that length.  Integer cycle counts keep the deviation's
    sub-threshold fraction independent of where the interval sits.
    """

    amplitude: float
    frequency: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    def __call__(self, states: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Deviation at ``states``, written into ``out`` when one is given."""
        x = np.asarray(states, dtype=float)
        out = np.multiply(x, 2.0 * np.pi * self.frequency, out=out)
        np.sin(out, out=out)
        out *= self.amplitude
        return out


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Polynomial discrete-time dynamics, optionally perturbed.

    The update rule is ``f_k(x) = offset_k + (linear @ x)_k + x' quadratic_k x``
    plus, for perturbed models, a :class:`PerturbationField` evaluated
    componentwise.  Instances are immutable and evaluation is deterministic.
    """

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
        lin.flags.writeable = False
        off.flags.writeable = False
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "quadratic", quad)

    @classmethod
    def affine(cls, linear: np.ndarray, offset: np.ndarray) -> "SystemModel":
        return cls(linear, offset)

    @classmethod
    def quadratic_polynomial(
        cls, quadratic: np.ndarray, linear: np.ndarray, offset: np.ndarray
    ) -> "SystemModel":
        return cls(linear, offset, quadratic=quadratic)

    @classmethod
    def perturbed(cls, base: "SystemModel", perturbation: PerturbationField) -> "SystemModel":
        """Overlay a deviation field on an existing (unperturbed) model."""
        if base.perturbation is not None:
            raise ValueError("base model is already perturbed")
        return cls(base.linear, base.offset, base.quadratic, perturbation)

    @property
    def dimension(self) -> int:
        return self.offset.size

    def _advance(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Write ``f(x)`` for a batch ``x`` ``(N, n)`` into ``out``, using ``scratch``.

        Both buffers are ``(N, n)`` and overlap neither ``x`` nor each other.
        The terms are accumulated by per-axis broadcasting, in this order: the
        linear columns in axis order, the offset, the quadratic terms
        ``(x_i q_kij) x_j`` in ``(i, j)`` order, and the perturbation.  In 1-D
        this is bit-identical to ``x @ linear.T + offset`` plus the
        ``einsum`` quadratic form; for n >= 2 only the summation rounding differs.
        """
        linear, quadratic = self.linear, self.quadratic
        n = self.dimension
        np.multiply(x[:, 0:1], linear[:, 0], out=out)
        for i in range(1, n):
            np.multiply(x[:, i:i + 1], linear[:, i], out=scratch)
            out += scratch
        out += self.offset
        if quadratic is not None:
            for i in range(n):
                for j in range(n):
                    np.multiply(x[:, i:i + 1], quadratic[:, i, j], out=scratch)
                    scratch *= x[:, j:j + 1]
                    out += scratch
        if self.perturbation is not None:
            out += self.perturbation(x, out=scratch)

    def step_many(self, states: np.ndarray) -> np.ndarray:
        """Advance a batch of states ``(N, n)`` by one step."""
        x = np.asarray(states, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dimension:
            raise InvalidStateError(f"expected (N, {self.dimension}) states, got {x.shape}")
        out = np.empty(x.shape)
        self._advance(x, out, np.empty(x.shape))
        return out

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
        if x.shape != (self.dimension,):
            raise InvalidStateError(f"expected state of dimension {self.dimension}, got {x.shape}")
        if not np.isfinite(x).all():
            raise InvalidStateError("state contains non-finite entries")
        out = np.empty((horizon + 1, self.dimension))
        out[0] = x
        scratch = np.empty((1, self.dimension))
        for k in range(horizon):
            self._advance(out[k:k + 1], out[k + 1:k + 2], scratch)
        return out


@dataclass(frozen=True)
class SafetyCheck:
    """Outcome of a Monte-Carlo safety probe."""

    trajectories: int
    horizon: int
    violation_count: int
    # (trajectory index, step, entry state) for each trajectory that hit the
    # unsafe region, recorded at the first hit only; the states are read-only.
    violations: tuple = field(default_factory=tuple)

    @property
    def safe(self) -> bool:
        return self.violation_count == 0


def _block_steps(trajectories: int, dimension: int) -> int:
    """Steps per rollout block: ``_BLOCK_VALUES`` entries, and at least one step."""
    return max(1, _BLOCK_VALUES // max(1, trajectories * dimension))


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
    the check's cost is deterministic and independent of the hits.

    The steps go through the model's one kernel, each written straight into
    a preallocated ``(block, trajectories, n)`` array of at most
    ``_BLOCK_VALUES`` entries, so memory stays flat in ``horizon``.  Unsafe
    membership (``RegionBox.contains`` at ``rtol = 0``) is tested once per
    block, and a trajectory's first hit in a block is the ``argmax`` over the
    block's steps.
    """
    if initial.dimension != model.dimension or unsafe.dimension != model.dimension:
        raise InvalidStateError("region dimension does not match the model")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    n = model.dimension
    rng = np.random.default_rng(seed)
    states = rng.uniform(initial.lower, initial.upper, size=(trajectories, n))
    first_hit = np.full(trajectories, -1, dtype=int)
    hit_state = np.zeros((trajectories, n))

    steps = min(horizon + 1, _block_steps(trajectories, n))
    block = np.empty((steps, trajectories, n))
    scratch = np.empty((trajectories, n))
    lower, upper = unsafe.lower, unsafe.upper
    for start in range(0, horizon + 1, steps):
        if start:
            # states carries the previous block's last step
            model._advance(states, block[0], scratch)
        else:
            block[0] = states
        count = min(steps, horizon + 1 - start)
        for s in range(1, count):
            model._advance(block[s - 1], block[s], scratch)
        window = block[:count]
        inside = ((window >= lower) & (window <= upper)).all(axis=2)
        fresh = np.flatnonzero(inside.any(axis=0) & (first_hit < 0))
        if fresh.size:
            at = inside[:, fresh].argmax(axis=0)
            first_hit[fresh] = start + at
            hit_state[fresh] = window[at, fresh]
        states[...] = window[-1]

    # read-only, so a check shared between runs cannot be altered by one of them
    hit_state.flags.writeable = False
    violating = np.nonzero(first_hit >= 0)[0]
    events = tuple((int(i), int(first_hit[i]), hit_state[i]) for i in violating)
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
