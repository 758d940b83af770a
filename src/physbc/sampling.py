"""Sample generation, covering radii, and dataset persistence.

A dataset is an ordered collection of (state, successor) pairs recorded from
one model over one domain box.  Grid and i.i.d.-uniform schemes are provided;
both are reproducible from their parameters (the i.i.d. scheme from its seed).

Datasets persist as CSV written in blocks: :func:`write_rows` formats 65 536
rows with one ``%`` operation, which gives the same text as formatting them
row by row.  :func:`load_dataset` parses the body with ``np.loadtxt`` and
hands any file it cannot take as is to a line loop, which either returns the
same values or names the offending line.
"""

from __future__ import annotations

import io
import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    CapacityError,
    DatasetParseError,
    ModelMismatchError,
    NoCoverError,
    RegionViolationError,
)
from .models import RegionBox, SystemModel

SCHEME_GRID = "uniform-grid"
SCHEME_IID = "iid-uniform"

# Hard ceiling on generated points; generation requests beyond it fail fast
# instead of exhausting memory.
DEFAULT_MAX_SAMPLES = 20_000_000

# Ceiling on the dense reference lattice used for covering radii in
# dimension >= 2.
MAX_LATTICE_POINTS = 50_000_000

# Rows formatted per ``%`` operation when writing CSV.
_ROW_CHUNK = 65_536

# ASCII separators that ``np.loadtxt`` strips around a number as whitespace
# but ``float`` rejects; a body holding one goes to the line loop.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered (state, successor) pairs plus the metadata needed to rebuild them."""

    states: np.ndarray
    successors: np.ndarray
    scheme: str
    domain: RegionBox
    seed: Optional[int] = None
    filtered: bool = False

    def __post_init__(self):
        xs = np.asarray(self.states, dtype=float)
        ys = np.asarray(self.successors, dtype=float)
        if xs.ndim != 2 or ys.shape != xs.shape:
            raise ValueError("states and successors must both be (N, n) arrays of equal shape")
        if self.scheme not in (SCHEME_GRID, SCHEME_IID):
            raise ValueError(f"unknown sampling scheme {self.scheme!r}")
        if xs.shape[1] != self.domain.dimension:
            raise ValueError("state dimension does not match the domain box")
        if xs.size and not np.all(self.domain.contains(xs, rtol=1e-12)):
            raise RegionViolationError("dataset contains states outside the domain box")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "states", xs)
        object.__setattr__(self, "successors", ys)

    @property
    def count(self) -> int:
        return self.states.shape[0]

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def take(self, mask: np.ndarray, filtered: Optional[bool] = None) -> "Dataset":
        """Subset in original order; marks the result filtered unless told otherwise."""
        return replace(
            self,
            states=self.states[mask],
            successors=self.successors[mask],
            filtered=self.filtered if filtered is None else filtered,
        )


def _check_capacity(total: int, max_count: int):
    if total > max_count:
        raise CapacityError(f"requested {total} samples, limit is {max_count}")


def sample_grid(
    model: SystemModel,
    domain: RegionBox,
    counts_per_axis: Union[int, Sequence[int]],
    max_count: int = DEFAULT_MAX_SAMPLES,
) -> Dataset:
    """Record successors on a rectangular lattice that includes the box faces.

    ``counts_per_axis`` is one integer per axis (or a single integer applied
    to every axis), each at least 2.  Points are ordered with the first axis
    varying slowest; in one dimension that is ascending order.
    """
    if model.dimension != domain.dimension:
        raise ModelMismatchError("model and domain dimensions differ")
    counts = np.broadcast_to(np.asarray(counts_per_axis, dtype=int), (domain.dimension,))
    if np.any(counts < 2):
        raise ValueError("need at least 2 grid points per axis")
    total = int(np.prod(counts.astype(object)))
    _check_capacity(total, max_count)
    states = domain.grid(counts)
    return Dataset(states, model.step_many(states), SCHEME_GRID, domain)


def sample_iid(
    model: SystemModel,
    domain: RegionBox,
    count: int,
    seed: int,
    max_count: int = DEFAULT_MAX_SAMPLES,
) -> Dataset:
    """Record successors at ``count`` i.i.d. uniform draws from the domain."""
    if model.dimension != domain.dimension:
        raise ModelMismatchError("model and domain dimensions differ")
    if count < 1:
        raise ValueError("count must be positive")
    _check_capacity(count, max_count)
    rng = np.random.default_rng(seed)
    states = rng.uniform(domain.lower, domain.upper, size=(count, domain.dimension))
    return Dataset(states, model.step_many(states), SCHEME_IID, domain, seed=seed)


def covering_radius(
    states: np.ndarray,
    domain: RegionBox,
    reference_resolution: Optional[int] = None,
) -> float:
    """Largest distance from any domain point to its nearest listed state.

    In one dimension the value is exact: with the states sorted, it is the
    larger of the two boundary gaps and half the widest interior gap.  In
    higher dimensions it is measured against a dense reference lattice with
    ``reference_resolution`` points per axis (default: ten times the per-axis
    density of the state set), which bounds the truth from below within one
    lattice diagonal.
    """
    pts = np.asarray(states, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise NoCoverError("cannot cover a domain with zero states")
    if pts.shape[1] != domain.dimension:
        raise ValueError("state dimension does not match the domain box")
    if not np.all(domain.contains(pts, rtol=1e-12)):
        raise RegionViolationError("states must lie inside the domain box")

    if domain.dimension == 1:
        s = np.sort(pts[:, 0])
        radius = max(s[0] - domain.lower[0], domain.upper[0] - s[-1])
        if s.size > 1:
            radius = max(radius, 0.5 * float(np.max(np.diff(s))))
        return float(max(radius, 0.0))

    n = domain.dimension
    if reference_resolution is None:
        per_axis = int(math.ceil(pts.shape[0] ** (1.0 / n)))
        reference_resolution = max(2, 10 * per_axis)
    if reference_resolution < 2:
        raise ValueError("reference_resolution must be at least 2")
    if reference_resolution**n > MAX_LATTICE_POINTS:
        raise CapacityError(
            f"reference lattice of {reference_resolution}^{n} points exceeds "
            f"the {MAX_LATTICE_POINTS} limit"
        )
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    axes = [np.linspace(domain.lower[i], domain.upper[i], reference_resolution) for i in range(n)]
    worst = 0.0
    # Query the lattice one outer slice at a time to bound peak memory.
    tail = np.meshgrid(*axes[1:], indexing="ij") if n > 1 else []
    tail_pts = np.stack([m.ravel() for m in tail], axis=1)
    for x0 in axes[0]:
        block = np.column_stack([np.full(tail_pts.shape[0], x0), tail_pts])
        dist, _ = tree.query(block)
        worst = max(worst, float(dist.max()))
    return worst


def write_rows(fh, line_format: str, rows: np.ndarray) -> None:
    """Write each row of a 2-D array through ``line_format``.

    ``line_format`` holds one ``%`` conversion per column and ends in the line
    terminator.  Rows go out in chunks of ``_ROW_CHUNK``, each formatted by a
    single ``%`` over the chunk's values, so the text is what formatting the
    rows one at a time would give.
    """
    for start in range(0, rows.shape[0], _ROW_CHUNK):
        chunk = rows[start:start + _ROW_CHUNK]
        fh.write((line_format * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write pairs as CSV plus a JSON metadata sidecar.

    Floats are rendered with 17 significant digits (``%.17g``, formatted in
    blocks by :func:`write_rows`) so a round trip through :func:`load_dataset`
    reproduces them bit for bit.
    """
    n = dataset.dimension
    rows = np.hstack([dataset.states, dataset.successors])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_header(n) + "\n")
        write_rows(fh, ",".join(["%.17g"] * (2 * n)) + "\n", rows)
    meta = {
        "scheme": dataset.scheme,
        "seed": dataset.seed,
        "domain": dataset.domain.to_dict(),
        "count": dataset.count,
        "dimension": n,
        "filtered": dataset.filtered,
    }
    with open(_sidecar_path(path), "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str) -> Dataset:
    """Inverse of :func:`save_dataset`; parse failures carry a line number.

    The body is parsed by ``np.loadtxt``, which reads ``%.17g`` text bit for
    bit.  A body it rejects, or whose shape disagrees with the sidecar, is
    read again by the line loop, which accepts what ``float`` accepts (blank
    lines included) and names the first bad line.
    """
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        raise DatasetParseError(f"missing metadata sidecar {sidecar}")
    with open(sidecar, "r", encoding="ascii") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetParseError(f"invalid sidecar JSON: {exc}") from exc
    try:
        domain = RegionBox.from_dict(meta["domain"])
        scheme = meta["scheme"]
        count = int(meta["count"])
        n = int(meta["dimension"])
        seed = meta.get("seed")
        filtered = bool(meta.get("filtered", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetParseError(f"sidecar is missing or corrupts a field: {exc}") from exc

    values = np.empty((count, 2 * n))
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        expected = _header(n)
        if header != expected:
            raise DatasetParseError(f"expected header {expected!r}, got {header!r}", line=1)
        parsed = _loadtxt_rows(fh)
        if parsed is not None and parsed.shape == values.shape:
            values = parsed
        else:
            # Restart from the top of the file, as the line loop always has:
            # text is decoded in chunks counted from there, so an undecodable
            # byte is reported at the same chunk offset.
            fh.seek(0)
            fh.readline()
            _parse_rows(fh, values)
    return Dataset(values[:, :n], values[:, n:], scheme, domain, seed=seed, filtered=filtered)


def _loadtxt_rows(fh) -> Optional[np.ndarray]:
    """The rest of ``fh`` as parsed by ``np.loadtxt``; None if it rejects the text."""
    try:
        text = fh.read()
        if any(c in text for c in _LOADTXT_ONLY_SPACE):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a body without rows warns
            return np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None


def _parse_rows(fh, values: np.ndarray) -> None:
    """Fill ``values`` from the rest of ``fh`` line by line; blank lines are skipped."""
    count, width = values.shape
    row = 0
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        if row >= count:
            raise DatasetParseError("more data rows than the sidecar count", line=lineno)
        parts = line.split(",")
        if len(parts) != width:
            raise DatasetParseError(f"expected {width} columns, got {len(parts)}", line=lineno)
        try:
            values[row] = [float(p) for p in parts]
        except ValueError as exc:
            raise DatasetParseError(str(exc), line=lineno) from exc
        row += 1
    if row != count:
        raise DatasetParseError(f"sidecar promises {count} rows, file has {row}")


def _header(n: int) -> str:
    return ",".join([f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)])


def _sidecar_path(path: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + ".meta.json"
