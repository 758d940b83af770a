"""Sample generation, covering radii, and dataset persistence.

A dataset is an ordered collection of scalar (state, successor) pairs
recorded from one model over one domain interval.  Grid and i.i.d.-uniform
schemes are provided; both are reproducible from their parameters (the
i.i.d. scheme from its seed).  A pipeline run takes the grid for a
deterministic guarantee and i.i.d. draws for a probabilistic one.  Both
refuse a successor that is not finite, naming the first state whose step
overflows.  On an interval the covering radius is exact.

Datasets persist as CSV written in blocks: :func:`write_rows` formats 65 536
rows with one ``%`` operation, which gives the same text as formatting them
row by row.  The file has the columns ``x_1,y_1``, and a JSON sidecar holds
the scheme, seed, domain, count and ``dimension``, which is always 1.
:func:`load_dataset` checks every one of them, refusing any other dimension,
before it reads the body, and ignores any other sidecar key, such as the
``filtered`` flag that older sidecars carry.  It parses the body with
``np.loadtxt`` and hands any file it cannot take as is to a line loop, which
either returns the same values or names the offending line.

The CSV text work is split between this process and one forked child when
``os.fork`` exists, at least two CPUs are usable and each half holds at least
one block of rows (see :func:`_split_at`): the child formats, or parses, the
back half of the rows and sends its bytes back through a pipe.  Each row's
text depends on that row alone, so the bytes written and the values read are
those of the one-process path.  The output file is flushed before the fork;
the child runs its work inside ``try``/``finally`` and ends in ``os._exit``,
so it never returns into the caller nor flushes an inherited buffer; this
process always reaps it, also when its own half raises, and does the back
half itself if the child exits non-zero.  Nothing is imported or started
before a large write or read asks for it.
"""

from __future__ import annotations

import io
import json
import os
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    CapacityError,
    DatasetParseError,
    InvalidStateError,
    NoCoverError,
    RegionViolationError,
)
from .models import RegionBox, SystemModel

SCHEME_GRID = "uniform-grid"
SCHEME_IID = "iid-uniform"

# Hard ceiling on generated points; generation requests beyond it fail fast
# instead of exhausting memory.
DEFAULT_MAX_SAMPLES = 20_000_000

# Column names of a dataset CSV file.
_HEADER = "x_1,y_1"

# Rows formatted per ``%`` operation when writing CSV.
_ROW_CHUNK = 65_536

# ASCII separators that ``np.loadtxt`` strips around a number as whitespace
# but ``float`` rejects; a body holding one goes to the line loop.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"

# What os.fork warns, from Python 3.12, in a process that has threads.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered (state, successor) pairs, two ``(N,)`` arrays, plus the metadata to rebuild them."""

    states: np.ndarray
    successors: np.ndarray
    scheme: str
    domain: RegionBox
    seed: Optional[int] = None

    def __post_init__(self):
        xs = np.asarray(self.states, dtype=float)
        ys = np.asarray(self.successors, dtype=float)
        if xs.ndim != 1 or ys.shape != xs.shape:
            raise ValueError("states and successors must both be (N,) arrays of equal shape")
        if self.scheme not in (SCHEME_GRID, SCHEME_IID):
            raise ValueError(f"unknown sampling scheme {self.scheme!r}")
        if xs.size and not np.all(self.domain.contains(xs, rtol=1e-12)):
            raise RegionViolationError("dataset contains states outside the domain")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "states", xs)
        object.__setattr__(self, "successors", ys)

    @property
    def count(self) -> int:
        return self.states.size

    def take(self, mask: np.ndarray) -> "Dataset":
        """Subset in original order."""
        return replace(self, states=self.states[mask], successors=self.successors[mask])


def _check_capacity(total: int):
    if total > DEFAULT_MAX_SAMPLES:
        raise CapacityError(f"requested {total} samples, limit is {DEFAULT_MAX_SAMPLES}")


def sample_grid(model: SystemModel, domain: RegionBox, count: int) -> Dataset:
    """Record successors at ``count`` evenly spaced states of an interval, ends included.

    ``count`` is at least 2 and at most ``DEFAULT_MAX_SAMPLES``; the states
    are in ascending order.
    """
    if count < 2:
        raise ValueError("need at least 2 grid points")
    _check_capacity(count)
    states = np.linspace(domain.lower, domain.upper, count)
    return Dataset(states, _successors(model, states), SCHEME_GRID, domain)


def sample_iid(model: SystemModel, domain: RegionBox, count: int, seed: int) -> Dataset:
    """Record successors at ``count`` i.i.d. uniform draws from the domain.

    ``count`` is at least 1 and at most ``DEFAULT_MAX_SAMPLES``.
    """
    if count < 1:
        raise ValueError("count must be positive")
    _check_capacity(count)
    rng = np.random.default_rng(seed)
    states = rng.uniform(domain.lower, domain.upper, size=count)
    return Dataset(states, _successors(model, states), SCHEME_IID, domain, seed=seed)


def _successors(model: SystemModel, states: np.ndarray) -> np.ndarray:
    """``model.step_many(states)``, or an InvalidStateError naming the first state
    whose successor is not finite; numpy's overflow warnings stay silent, since
    the error says it all."""
    with np.errstate(over="ignore", invalid="ignore"):
        successors = model.step_many(states)
    finite = np.isfinite(successors)
    if not finite.all():
        first = int(np.argmin(finite))
        raise InvalidStateError(f"the system maps state {float(states[first])!r} to"
                                f" {float(successors[first])!r}, which is not finite")
    return successors


def covering_radius(states: np.ndarray, domain: RegionBox) -> float:
    """Largest distance from any point of an interval to its nearest listed state.

    The value is exact: with the states sorted, it is the larger of the two
    boundary gaps and half the widest interior gap.  States already in
    nondecreasing order, as grid samples and their filtered subsets are, are
    read as given, with no sort.
    """
    pts = np.asarray(states, dtype=float)
    if pts.ndim != 1:
        raise ValueError(f"expected (N,) states, got {pts.shape}")
    if pts.size == 0:
        raise NoCoverError("cannot cover a domain with zero states")
    if not np.all(domain.contains(pts, rtol=1e-12)):
        raise RegionViolationError("states must lie inside the domain")

    s = pts if np.all(pts[1:] >= pts[:-1]) else np.sort(pts)
    radius = max(s[0] - domain.lower, domain.upper - s[-1])
    if s.size > 1:
        radius = max(radius, 0.5 * float(np.max(np.diff(s))))
    return float(max(radius, 0.0))


def write_rows(fh, line_format: str, rows: np.ndarray) -> None:
    """Write each row of a 2-D array through ``line_format``.

    ``line_format`` holds one ``%`` conversion per column and ends in the line
    terminator.  Rows go out in chunks of ``_ROW_CHUNK``, each formatted by a
    single ``%`` over the chunk's values, so the text is what formatting the
    rows one at a time would give.

    When :func:`_split_at` allows it, ``fh`` is flushed and a forked child
    formats the back half of the rows while this process formats and writes
    the front half; the child's text is then written after it, so the bytes
    are those of the one-process path.  If the child exits non-zero, the back
    half is formatted here.
    """
    def write(part):
        for text in _formatted(line_format, part):
            fh.write(text)

    split = _split_at(rows.shape[0])
    if not split:
        write(rows)
        return
    fh.flush()
    _, back = _beside(lambda: write(rows[:split]),
                      lambda: "".join(_formatted(line_format, rows[split:])).encode())
    fh.write(back.decode())


def _formatted(line_format: str, rows: np.ndarray):
    """Yield the text of ``rows``, one ``%`` operation per ``_ROW_CHUNK`` rows."""
    for start in range(0, rows.shape[0], _ROW_CHUNK):
        chunk = rows[start:start + _ROW_CHUNK]
        yield (line_format * chunk.shape[0]) % tuple(chunk.ravel().tolist())


def _split_at(rows: int) -> int:
    """The row at which a forked child takes over the CSV text work, or 0 for none.

    A child is used only where ``os.fork`` exists, at least two CPUs are
    usable, and each half holds at least ``_ROW_CHUNK`` rows; it then takes
    the back half.
    """
    if not hasattr(os, "fork") or rows < 2 * _ROW_CHUNK:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return rows // 2 if cpus >= 2 else 0


def _beside(own_work, child_work):
    """``(own_work(), child_work())``, with ``child_work`` run in a forked child.

    ``child_work`` returns bytes, which come back through a pipe while this
    process runs ``own_work``.  The child runs inside ``try``/``finally`` and
    ends in ``os._exit``, so it never returns into the caller nor flushes a
    buffer it inherited.  The child is reaped even when ``own_work`` raises;
    if it exits non-zero, or cannot be started, ``child_work`` runs here.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12 os.fork warns in a process with threads, as numpy's
            # BLAS pool makes this one.  The child only formats or parses text,
            # touches no BLAS routine and leaves through os._exit, so it never
            # needs a lock another thread held at the fork.
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
            if pid == 0:
                _child(child_work, read_end, write_end)
    except OSError:  # no process to spare
        os.close(read_end)
        os.close(write_end)
        return own_work(), child_work()
    os.close(write_end)
    try:
        # leaving this block closes the read end, so a child still writing
        # fails at once rather than waiting for a reader
        with open(read_end, "rb") as pipe:
            own = own_work()
            theirs = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        theirs = child_work()
    return own, theirs


def _child(work, read_end: int, write_end: int):
    """The forked child's whole life: send ``work()`` through the pipe, then exit."""
    status = 1
    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            pipe.write(work())
        status = 0
    finally:
        os._exit(status)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write pairs as CSV plus a JSON metadata sidecar.

    Floats are rendered with 17 significant digits (``%.17g``, formatted in
    blocks by :func:`write_rows`, half of them in a forked child when the
    dataset is large) so a round trip through :func:`load_dataset` reproduces
    them bit for bit.
    """
    rows = np.column_stack([dataset.states, dataset.successors])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_HEADER + "\n")
        write_rows(fh, "%.17g,%.17g\n", rows)
    meta = {
        "scheme": dataset.scheme,
        "seed": dataset.seed,
        "domain": dataset.domain.to_dict(),
        "count": dataset.count,
        "dimension": 1,
    }
    with open(_sidecar_path(path), "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str) -> Dataset:
    """Inverse of :func:`save_dataset`; parse failures carry a line number.

    A sidecar it cannot use, a count above ``DEFAULT_MAX_SAMPLES`` included,
    raises :class:`DatasetParseError` before the body is read or allocated.
    The body is parsed by ``np.loadtxt``, which reads ``%.17g`` text bit for
    bit.  A body it rejects, or whose shape disagrees with the sidecar, is
    read again by the line loop, which accepts what ``float`` accepts (blank
    lines included) and names the first bad line.

    When :func:`_split_at` allows it for the sidecar count, a forked child
    runs the same ``np.loadtxt`` on the back half of the body, cut at a line
    end, and returns its float64 bytes, which follow this process's half.  If
    either half is rejected or is not an array of pairs, the line loop runs as
    above, so the values and the error messages are those of the one-process
    path.
    """
    domain, scheme, count, seed = _read_sidecar(path)
    values = np.empty((count, 2))
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != _HEADER:
            raise DatasetParseError(f"expected header {_HEADER!r}, got {header!r}", line=1)
        parsed = _loadtxt_rows(fh, count)
        if parsed is not None and parsed.shape == values.shape:
            values = parsed
        else:
            # Restart from the top of the file, as the line loop always has:
            # text is decoded in chunks counted from there, so an undecodable
            # byte is reported at the same chunk offset.
            fh.seek(0)
            fh.readline()
            _parse_rows(fh, values)
    return Dataset(values[:, 0], values[:, 1], scheme, domain, seed=seed)


def _read_sidecar(path: str):
    """``(domain, scheme, count, seed)`` from the sidecar of ``path``, checked."""
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        raise DatasetParseError(f"missing metadata sidecar {sidecar}")
    with open(sidecar, "r", encoding="ascii") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            raise DatasetParseError(f"invalid sidecar JSON: {exc}") from exc
    try:
        scheme = meta["scheme"]
        count = meta["count"]
        n = meta["dimension"]
        seed = meta.get("seed")
        domain = meta["domain"]
    except (KeyError, TypeError) as exc:
        raise DatasetParseError(f"sidecar is missing or corrupts a field: {exc}") from exc
    for field, value in (("count", count), ("dimension", n)):
        # a JSON integer: 2.9, 1.0, true and "1" are refused, not truncated or cast
        if isinstance(value, bool) or not isinstance(value, int):
            raise DatasetParseError(f"sidecar {field} must be an integer, got {value!r}")
    if n != 1:
        raise DatasetParseError(f"sidecar dimension must be 1, got {n}")
    try:
        domain = RegionBox.from_dict(domain, "domain")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetParseError(f"sidecar domain is unusable: {exc}") from exc
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise DatasetParseError(f"sidecar seed must be null or an integer >= 0, got {seed!r}")
    if scheme not in (SCHEME_GRID, SCHEME_IID):
        raise DatasetParseError(f"sidecar names an unknown sampling scheme {scheme!r}")
    # the same ceiling as generation, so a corrupt count fails before the body is allocated
    if not 0 <= count <= DEFAULT_MAX_SAMPLES:
        raise DatasetParseError(f"sidecar count {count} is outside [0, {DEFAULT_MAX_SAMPLES}]")
    return domain, scheme, count, seed


def _loadtxt_rows(fh, count: int) -> Optional[np.ndarray]:
    """The rest of ``fh`` as parsed by ``np.loadtxt``; None if it rejects the text.

    When :func:`_split_at` allows it for ``count`` rows, the text is cut at the
    line end nearest past its middle and a forked child parses the back part;
    both parts must come out as ``(k, 2)`` arrays, and the result is None
    otherwise.  Each line is parsed on its own, so the values are those of one
    ``np.loadtxt`` over the whole text.
    """
    try:
        text = fh.read()
    except ValueError:  # UnicodeDecodeError
        return None
    if any(c in text for c in _LOADTXT_ONLY_SPACE):
        return None
    cut = text.find("\n", len(text) // 2) + 1 if _split_at(count) else 0
    if not cut:
        return _loadtxt(text)

    def back_bytes():
        back = _loadtxt(text[cut:])
        return back.tobytes() if _pairs(back) else b""

    front, back = _beside(lambda: _loadtxt(text[:cut]), back_bytes)
    if not (_pairs(front) and back):
        return None
    return np.concatenate([front, np.frombuffer(back).reshape(-1, 2)])


def _loadtxt(text: str) -> Optional[np.ndarray]:
    """``text`` parsed by ``np.loadtxt`` as float rows; None if it rejects it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a body without rows warns
            return np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _pairs(parsed: Optional[np.ndarray]) -> bool:
    """Whether a parse came out as one or more rows of two values."""
    return parsed is not None and parsed.shape[0] > 0 and parsed.shape[1:] == (2,)


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


def _sidecar_path(path: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + ".meta.json"
