"""Data-driven Lipschitz constant estimation for fitted certificates.

Two slope families matter: the barrier map ``x -> B(x)`` and the flow
expression ``x -> B(successor(x)) - decay * B(x)`` evaluated on recorded
pairs.  Both estimators return the largest finite-difference slope of each
family between sample states, which is what the certification conditions
consume.

The estimators do not evaluate the certificate themselves.  They take its
per-sample values from :func:`physbc.barrier.sample_values`, which a run
computes once on the retained states and successors and also hands to the
residual audit, together with the dataset whose states give the gaps.

In 1-D, :func:`estimate_pairwise` is exact: the steepest slope over all pairs
is the steepest between neighbouring distinct coordinates (a secant over a
wider span is a weighted mean of the secants it covers), so one sort gives the
maximum over every sample pair.  States that coincide are grouped, and each
group contributes the extreme values of both families.

For n >= 2, and for the extreme-value method in any dimension, the slopes come
from ``pair_budget`` random pairs.  Their indices are drawn in one go from the
configured seed; the slopes are then computed in fixed chunks of pairs,
skipping pairs whose states coincide.  The pairwise estimator keeps running
maxima, so its memory does not grow with the pair budget; the extreme-value
estimator gathers the slopes in draw order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .barrier import SampleValues
from .errors import DegenerateDataError, ModelMismatchError
from .sampling import Dataset

METHOD_PAIRWISE = "pairwise-max"
METHOD_EXTREME = "extreme-value"

_CHUNK = 1 << 16  # pairs per streamed slope chunk


@dataclass(frozen=True)
class LipschitzSpec:
    """Estimator knobs; the ``lipschitz`` section of a run config."""

    method: str = METHOD_PAIRWISE
    # pair_budget and seed drive the random-pair draw only: pairwise-max for
    # n >= 2 and the extreme-value method; 1-D pairwise-max needs no draw
    pair_budget: int = 1_000_000
    multiplier: float = 1.1  # headroom on top of the pairwise maximum
    seed: int = 7
    batches: int = 50  # extreme-value method only
    shape: float = 1.0  # assumed tail shape for the extreme-value fit

    def __post_init__(self):
        if self.method not in (METHOD_PAIRWISE, METHOD_EXTREME):
            raise ValueError(f"unknown lipschitz method {self.method!r}")
        if self.pair_budget < 1:
            raise ValueError("pair_budget must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if self.batches < 2:
            raise ValueError("need at least 2 batches")
        if self.shape <= 0:
            raise ValueError("shape must be positive")


@dataclass(frozen=True)
class LipschitzEstimate:
    barrier: float  # constant for B itself
    flow: float  # constant for the decay-discounted flow expression
    method: str
    samples_used: int
    safety_multiplier: float

    @property
    def overall(self) -> float:
        return max(self.barrier, self.flow)

    def to_dict(self) -> dict:
        return {**asdict(self), "overall": self.overall}


def _require_pairs(values: SampleValues, dataset: Dataset) -> None:
    """Check that ``values`` belong to ``dataset`` and that it can form a pair."""
    if values.barrier.shape != (dataset.count,) or values.flow.shape != (dataset.count,):
        raise ModelMismatchError("sample values and dataset sizes differ")
    if dataset.count < 2:
        raise DegenerateDataError("need at least two states to form slope pairs")


def _neighbour_maxima(values: SampleValues, dataset: Dataset):
    """Exact largest barrier and flow slopes over all pairs of a 1-D dataset.

    Sorts the states once and groups equal coordinates; between adjacent
    groups the steepest slope pairs one group's highest value with the other's
    lowest; when no two states coincide each group is one state and the
    grouping reductions are skipped.  Where three values are collinear a wider
    secant can round one ulp above the neighbour slopes, which the
    multiplier's headroom dwarfs.
    Returns ``(barrier, flow, adjacent group pairs)``.
    """
    _require_pairs(values, dataset)
    coords = dataset.states[:, 0]
    order = np.argsort(coords)
    coords = coords[order]
    fresh = np.empty(coords.size, dtype=bool)
    fresh[0] = True
    np.not_equal(coords[1:], coords[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    if starts.size < 2:
        raise DegenerateDataError("all sample states coincide")
    distinct = starts.size == coords.size
    gaps = np.diff(coords if distinct else coords[starts])

    def steepest(family: np.ndarray) -> float:
        family = family[order]
        if distinct:  # one state per group: lo = hi = family
            rise = np.abs(np.diff(family))
        else:
            lo = np.minimum.reduceat(family, starts)
            hi = np.maximum.reduceat(family, starts)
            rise = np.maximum(np.abs(hi[1:] - lo[:-1]), np.abs(lo[1:] - hi[:-1]))
        return float((rise / gaps).max())

    return steepest(values.barrier), steepest(values.flow), starts.size - 1


def _slope_chunks(values: SampleValues, dataset: Dataset, config: LipschitzSpec):
    """Finite-difference slopes over random sample pairs, streamed in draw order.

    The pairs are drawn up front as two index arrays; their slopes are then
    computed ``_CHUNK`` pairs at a time, so no budget-sized slope array is
    ever built.  Yields ``(barrier, flow, keep)`` per chunk: entries where
    ``keep`` is false come from coincident states (equal indices included)
    and hold no slope.  Raises after the last chunk if no pair was kept.
    """
    _require_pairs(values, dataset)

    rng = np.random.default_rng(config.seed)
    left = rng.integers(0, dataset.count, size=config.pair_budget)
    right = rng.integers(0, dataset.count, size=config.pair_budget)
    states = dataset.states
    coords = states[:, 0] if dataset.dimension == 1 else None
    kept = 0
    for start in range(0, config.pair_budget, _CHUNK):
        i, j = left[start:start + _CHUNK], right[start:start + _CHUNK]
        if coords is not None:
            # sqrt(d * d) is what norm(axis=1) computes for a single column
            gaps = coords.take(i)
            gaps -= coords.take(j)
            gaps *= gaps
            np.sqrt(gaps, out=gaps)
        else:
            gaps = np.linalg.norm(states[i] - states[j], axis=1)
        keep = gaps > 0.0
        kept += np.count_nonzero(keep)
        yield (_slopes(values.barrier, i, j, gaps, keep), _slopes(values.flow, i, j, gaps, keep),
               keep)
    if kept == 0:
        raise DegenerateDataError("all drawn state pairs coincide")


def _slopes(values: np.ndarray, i: np.ndarray, j: np.ndarray, gaps: np.ndarray,
            keep: np.ndarray) -> np.ndarray:
    """``|values[i] - values[j]| / gaps`` where ``keep``; other entries are junk."""
    out = values.take(i)
    out -= values.take(j)
    np.abs(out, out=out)
    np.divide(out, gaps, out=out, where=keep)
    return out


def estimate_pairwise(
    values: SampleValues, dataset: Dataset, config: LipschitzSpec
) -> LipschitzEstimate:
    """Largest sample slope times a safety multiplier.

    ``values`` is the certificate's :func:`~physbc.barrier.sample_values` on
    ``dataset``.  Exact over all sample pairs in 1-D; over
    ``config.pair_budget`` random pairs for n >= 2.
    """
    if dataset.dimension == 1:
        barrier, flow, used = _neighbour_maxima(values, dataset)
    else:
        barrier = flow = -np.inf
        used = 0
        for barrier_slopes, flow_slopes, keep in _slope_chunks(values, dataset, config):
            used += np.count_nonzero(keep)
            barrier = np.maximum(barrier, barrier_slopes.max(where=keep, initial=-np.inf))
            flow = np.maximum(flow, flow_slopes.max(where=keep, initial=-np.inf))
    return LipschitzEstimate(
        barrier=config.multiplier * float(barrier),
        flow=config.multiplier * float(flow),
        method=METHOD_PAIRWISE,
        samples_used=int(used),
        safety_multiplier=config.multiplier,
    )


def _reverse_weibull_location(maxima: np.ndarray, shape: float) -> float:
    """Moment-matched location of a reverse-Weibull fit to batch maxima.

    With ``X = loc - scale * W`` and ``W`` Weibull(shape), matching the first
    two moments gives ``loc = mean + scale * g1`` with
    ``scale = std / sqrt(g2 - g1^2)``.  A zero spread collapses to the mean.
    """
    g1 = math.gamma(1.0 + 1.0 / shape)
    g2 = math.gamma(1.0 + 2.0 / shape)
    spread = float(np.std(maxima))
    if spread == 0.0:
        return float(np.mean(maxima))
    scale = spread / math.sqrt(g2 - g1 * g1)
    return float(np.mean(maxima)) + scale * g1


def estimate_extreme_value(
    values: SampleValues, dataset: Dataset, config: LipschitzSpec
) -> LipschitzEstimate:
    """Extreme-value estimate: fit batch maxima, report the distribution's endpoint.

    ``values`` is the certificate's :func:`~physbc.barrier.sample_values` on
    ``dataset``.  Slope observations are split into ``config.batches`` equal
    batches; the fitted location can never fall below the raw observed maximum.
    """
    chunks = list(_slope_chunks(values, dataset, config))
    barrier_slopes = np.concatenate([b[keep] for b, _, keep in chunks])
    flow_slopes = np.concatenate([f[keep] for _, f, keep in chunks])
    if barrier_slopes.size < 2 * config.batches:
        raise DegenerateDataError(
            f"{barrier_slopes.size} slope observations cannot fill "
            f"{config.batches} batches of at least 2"
        )
    batch_size = barrier_slopes.size // config.batches
    used = config.batches * batch_size

    def endpoint(slopes: np.ndarray) -> float:
        maxima = slopes[:used].reshape(config.batches, batch_size).max(axis=1)
        return max(_reverse_weibull_location(maxima, config.shape), float(slopes.max()))

    return LipschitzEstimate(
        barrier=endpoint(barrier_slopes),
        flow=endpoint(flow_slopes),
        method=METHOD_EXTREME,
        samples_used=used,
        safety_multiplier=1.0,
    )
