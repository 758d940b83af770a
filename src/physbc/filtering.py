"""Physics-consistency filtering of recorded sample pairs.

A pair (state, successor) is kept when the recorded successor lies within
``threshold`` of the nominal physics prediction at that state.  Pairs
exactly on the boundary are kept; every other pair, one with a NaN
discrepancy included, is discarded.  The filter never
re-simulates anything: it only compares recorded successors against the
physics map, so applying it is pure and repeatable.  :func:`apply_filter`
returns the retained pairs together with every pair's discrepancy and the
keep mask, and the longest discarded run (:attr:`FilterOutcome.max_jump`) is
read from that mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .models import SystemModel
from .sampling import Dataset


@dataclass(frozen=True, eq=False)
class FilterOutcome:
    retained: Dataset
    discrepancies: np.ndarray  # per input pair, in input order
    mask: np.ndarray  # True where the input pair was kept

    @property
    def retained_count(self) -> int:
        return self.retained.count

    @property
    def discarded_count(self) -> int:
        return self.mask.size - self.retained.count

    @property
    def max_jump(self) -> Optional[Tuple[int, int]]:
        """Longest contiguous run of discarded pairs, as ``(start index, length)``.

        The first of equal runs wins, and it is None when nothing was
        discarded.  For ordered grids this run is the widest data gap the
        filter opens up.
        """
        return _longest_run(~self.mask)


def discrepancies(dataset: Dataset, physics: SystemModel) -> np.ndarray:
    """Distance of each recorded successor from the physics prediction."""
    return np.abs(physics.step_many(dataset.states) - dataset.successors)


def apply_filter(dataset: Dataset, physics: SystemModel, threshold: float) -> FilterOutcome:
    """Keep pairs whose recorded successor is within ``threshold`` (> 0) of physics.

    Order is preserved.  An all-discarding threshold is legal and yields an
    empty retained set.
    """
    if not (threshold > 0):
        raise ValueError("threshold must be strictly positive")
    disc = discrepancies(dataset, physics)
    keep = disc <= threshold
    picks = np.flatnonzero(keep)  # gathers scattered pairs several times faster than the mask
    return FilterOutcome(retained=dataset.take(picks), discrepancies=disc, mask=keep)


def _longest_run(mask: np.ndarray) -> Optional[Tuple[int, int]]:
    if not mask.any():
        return None
    padded = np.concatenate([[False], mask, [False]])
    edges = np.diff(padded.astype(int))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
    lengths = ends - starts
    best = int(np.argmax(lengths))  # first maximal run wins ties
    return int(starts[best]), int(lengths[best])
