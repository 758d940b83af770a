"""Physics-consistency filtering of recorded sample pairs.

A pair (state, successor) is kept when the recorded successor lies within
``threshold`` of the nominal physics prediction at that state.  Pairs
exactly on the boundary are kept; every other pair, one with a NaN
discrepancy included, is discarded.  The filter never
re-simulates anything: it only compares recorded successors against the
physics map, so applying it is pure and repeatable.  :func:`apply_filter`
returns every pair's discrepancy and the keep mask, from which the retained
pairs and the longest discarded run (:attr:`FilterOutcome.max_jump`) are
read.  The retained pairs are gathered on first use, so a caller that reads
only the mask, as ``physbc plotdata`` does, never holds a copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .models import SystemModel
from .sampling import Dataset


@dataclass(frozen=True, eq=False)
class FilterOutcome:
    dataset: Dataset  # the input pairs
    discrepancies: np.ndarray  # per input pair, in input order
    mask: np.ndarray  # True where the input pair was kept

    @cached_property
    def retained(self) -> Dataset:
        """The kept pairs in input order, gathered on first use."""
        return self.dataset.take(self.mask)

    @property
    def retained_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def discarded_count(self) -> int:
        return self.mask.size - self.retained_count

    @property
    def max_jump(self) -> Optional[Tuple[int, int]]:
        """Longest contiguous run of discarded pairs, as ``(start index, length)``.

        The first of equal runs wins, and it is None when nothing was
        discarded.  Every sampled dataset is in ascending state order, so
        this run is the widest data gap the filter opens on the state line.
        """
        return _longest_run(~self.mask)


def discrepancies(dataset: Dataset, physics: SystemModel) -> np.ndarray:
    """Distance of each recorded successor from the physics prediction."""
    gap = physics.step_many(dataset.states)
    gap -= dataset.successors
    return np.abs(gap, out=gap)


def apply_filter(dataset: Dataset, physics: SystemModel, threshold: float) -> FilterOutcome:
    """Keep pairs whose recorded successor is within ``threshold`` (> 0) of physics.

    Order is preserved.  An all-discarding threshold is legal and yields an
    empty retained set.
    """
    if not (threshold > 0):
        raise ValueError("threshold must be strictly positive")
    disc = discrepancies(dataset, physics)
    return FilterOutcome(dataset=dataset, discrepancies=disc, mask=disc <= threshold)


def _longest_run(mask: np.ndarray) -> Optional[Tuple[int, int]]:
    if not mask.any():
        return None
    # +1 where a run starts, -1 just past its end; the int8 view needs no copy
    edges = np.diff(np.concatenate([[False], mask, [False]]).view(np.int8))
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1)
    lengths -= starts
    best = int(np.argmax(lengths))  # first maximal run wins ties
    return int(starts[best]), int(lengths[best])
