"""Data-driven Lipschitz constant estimation for fitted certificates.

The certification conditions need the Lipschitz constant of the flow
expression ``x -> B(successor(x)) - decay * B(x)``: the flow rows hold only
on the recorded pairs, and the constant carries them to the states between.
The initial and unsafe conditions need no constant, because their rows bound
``B`` on the whole region (see :mod:`physbc.barrier`).  Both estimators
return the largest finite-difference slope of the flow expression between
sample states, which is what the certification conditions consume.

The estimators do not evaluate the certificate themselves.  They take the
flow expression per sample from :func:`physbc.barrier.sample_values`, which a
run computes once on the retained states and successors and also hands to the
residual audit, together with the dataset whose states give the gaps.

:func:`estimate_pairwise` is exact over the sample pairs: on the state line
the steepest slope over all pairs is the steepest between neighbouring
distinct states (a secant over a wider span is a weighted mean of the secants
it covers), so one scan of the states in order gives the maximum over every
sample pair.  Every sampled dataset, and so every run's retained pairs, is
in ascending state order, and is scanned as it is; other datasets are sorted
first.  States that coincide are grouped, and each group contributes its
extreme values.

The extreme-value method draws ``pair_budget`` random pairs.  Their indices
are drawn in one go from the configured seed; the slopes are then computed in
fixed chunks of pairs, skipping pairs whose states coincide, and gathered in
draw order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PhysbcError
from .sampling import Dataset

METHOD_PAIRWISE = "pairwise-max"
METHOD_EXTREME = "extreme-value"

_CHUNK = 1 << 16  # pairs per streamed slope chunk
_SCAN_ROWS = 8192  # neighbour pairs per block of the exact scan


@dataclass(frozen=True)
class LipschitzSpec:
    """Estimator knobs; the ``lipschitz`` section of a run config, which checks them."""

    method: str = METHOD_PAIRWISE
    # pair_budget and seed drive the extreme-value method's random-pair draw;
    # pairwise-max is exact and draws nothing
    pair_budget: int = 1_000_000
    multiplier: float = 1.1  # headroom on top of the pairwise maximum
    seed: int = 7
    batches: int = 50  # extreme-value method only
    shape: float = 1.0  # assumed tail shape for the extreme-value fit


@dataclass(frozen=True)
class LipschitzEstimate:
    flow: float  # constant for the decay-discounted flow expression
    method: str
    samples_used: int
    safety_multiplier: float

    @property
    def overall(self) -> float:
        """The constant the certification conditions use: the flow term's."""
        return self.flow

    def to_dict(self) -> dict:
        return {**asdict(self), "overall": self.overall}


def _require_pairs(flow: np.ndarray, dataset: Dataset) -> None:
    """Check that ``flow`` belongs to ``dataset``, and that the dataset can form a pair."""
    if flow.shape != (dataset.count,):
        raise PhysbcError("sample values and dataset sizes differ")
    if dataset.count < 2:
        raise PhysbcError("need at least two states to form slope pairs")


def _neighbour_maxima(flow: np.ndarray, dataset: Dataset):
    """Exact largest flow slope over all pairs of a dataset.

    Sorts the states once, unless they are already in order (every sampled
    dataset and its filtered subsets are), and groups equal coordinates;
    between adjacent groups the steepest slope pairs one group's highest
    value with the other's lowest.  When no two states coincide each group
    is one state, and the slopes ``|diff(flow)| / diff(states)`` are scanned
    ``_SCAN_ROWS`` neighbour pairs at a time in two reused arrays; the
    largest of the blocks' maxima is taken by ``np.max``, so a nan slope
    shows as it does over the whole array.  Where three values are collinear
    a wider secant can round one ulp above the neighbour slopes, which the
    multiplier's headroom dwarfs.  Returns ``(flow slope, adjacent group
    pairs)``.
    """
    _require_pairs(flow, dataset)
    coords, family = dataset.states, flow
    blocks = [(start, min(start + _SCAN_ROWS, coords.size - 1))
              for start in range(0, coords.size - 1, _SCAN_ROWS)]
    if not all(np.all(coords[a + 1:b + 1] >= coords[a:b]) for a, b in blocks):
        # equal states may come out in any order: only their group's extremes are read
        order = np.argsort(coords)
        coords, family = coords[order], flow[order]
        del order  # its gathers are done; the grouping below needs only their results
    groups = 1 + sum(int(np.count_nonzero(coords[a + 1:b + 1] != coords[a:b]))
                     for a, b in blocks)
    if groups < 2:
        raise PhysbcError("all sample states coincide")
    if groups == coords.size:  # one state per group: lo = hi = family
        rise, run = np.empty((2, blocks[0][1]))
        steepest = []
        for a, b in blocks:
            r, g = rise[:b - a], run[:b - a]
            np.subtract(family[a + 1:b + 1], family[a:b], out=r)
            np.abs(r, out=r)
            np.subtract(coords[a + 1:b + 1], coords[a:b], out=g)
            r /= g
            steepest.append(r.max())
        return float(np.max(steepest)), groups - 1
    fresh = np.empty(coords.size, dtype=bool)
    fresh[0] = True
    np.not_equal(coords[1:], coords[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    lo = np.minimum.reduceat(family, starts)
    hi = np.maximum.reduceat(family, starts)
    rise = np.maximum(np.abs(hi[1:] - lo[:-1]), np.abs(lo[1:] - hi[:-1]))
    return float((rise / np.diff(coords[starts])).max()), groups - 1


def _slope_chunks(flow: np.ndarray, dataset: Dataset, config: LipschitzSpec):
    """Finite-difference flow slopes over random sample pairs, streamed in draw order.

    The pairs are drawn up front as two index arrays; their slopes are then
    computed ``_CHUNK`` pairs at a time, so no budget-sized slope array is
    ever built.  Yields ``(slopes, keep)`` per chunk: entries where ``keep``
    is false come from coincident states (equal indices included) and hold
    no slope.  Raises after the last chunk if no pair was kept.
    """
    _require_pairs(flow, dataset)

    rng = np.random.default_rng(config.seed)
    left = rng.integers(0, dataset.count, size=config.pair_budget)
    right = rng.integers(0, dataset.count, size=config.pair_budget)
    coords = dataset.states
    kept = 0
    for start in range(0, config.pair_budget, _CHUNK):
        i, j = left[start:start + _CHUNK], right[start:start + _CHUNK]
        # sqrt(d * d) is what norm(axis=1) computes for a single column
        gaps = coords.take(i)
        gaps -= coords.take(j)
        gaps *= gaps
        np.sqrt(gaps, out=gaps)
        keep = gaps > 0.0
        kept += np.count_nonzero(keep)
        # |flow[i] - flow[j]| / gaps where keep; other entries are junk
        slopes = flow.take(i)
        slopes -= flow.take(j)
        np.abs(slopes, out=slopes)
        np.divide(slopes, gaps, out=slopes, where=keep)
        yield slopes, keep
    if kept == 0:
        raise PhysbcError("all drawn state pairs coincide")


def estimate_pairwise(
    flow: np.ndarray, dataset: Dataset, config: LipschitzSpec
) -> LipschitzEstimate:
    """Largest sample slope of the flow expression times a safety multiplier.

    ``flow`` is the certificate's :func:`~physbc.barrier.sample_values` on
    ``dataset``.  The slope is exact over all sample pairs.
    """
    steepest, used = _neighbour_maxima(flow, dataset)
    return LipschitzEstimate(
        flow=config.multiplier * steepest,
        method=METHOD_PAIRWISE,
        samples_used=used,
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
    flow: np.ndarray, dataset: Dataset, config: LipschitzSpec
) -> LipschitzEstimate:
    """Extreme-value estimate: fit batch maxima, report the distribution's endpoint.

    ``flow`` is the certificate's :func:`~physbc.barrier.sample_values` on
    ``dataset``.  Slope observations are split into ``config.batches`` equal
    batches; the fitted location can never fall below the raw observed maximum.
    """
    slopes = np.concatenate([chunk[keep] for chunk, keep in _slope_chunks(flow, dataset, config)])
    if slopes.size < 2 * config.batches:
        raise PhysbcError(
            f"{slopes.size} slope observations cannot fill "
            f"{config.batches} batches of at least 2"
        )
    batch_size = slopes.size // config.batches
    used = config.batches * batch_size
    maxima = slopes[:used].reshape(config.batches, batch_size).max(axis=1)
    return LipschitzEstimate(
        flow=max(_reverse_weibull_location(maxima, config.shape), float(slopes.max())),
        method=METHOD_EXTREME,
        samples_used=used,
        safety_multiplier=1.0,
    )
