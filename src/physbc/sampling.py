"""Sample generation, covering radii, and dataset persistence.

A dataset is an ordered collection of scalar (state, successor) pairs
recorded from one model over one domain interval.  Grid and i.i.d.-uniform
schemes are provided; both are reproducible from their parameters (the
i.i.d. scheme from its seed), and both record their states in ascending
order, so every sampled dataset is ordered and no later stage sorts it.  A
pipeline run takes the grid for a deterministic guarantee and i.i.d. draws
for a probabilistic one.  Both refuse a successor that is not finite, naming
the first state whose step overflows.  On an interval the covering radius is
exact.

Datasets persist as CSV written in blocks: :func:`write_rows` stacks 4 096
rows from their columns and formats them with one ``%`` operation, which
gives the same text as formatting them row by row.  A block's Python floats
and text take about 1 MB however many rows the file has; the time per row
does not depend on the block size.  The file has the columns
``x_1,y_1``, and a JSON sidecar holds the scheme, seed, domain, count and
``dimension``, which is always 1.  :func:`load_dataset` checks every one of
them, refusing any other dimension, before it reads the body, and ignores
any other sidecar key, such as the ``filtered`` flag that older sidecars
carry.  It parses the body's bytes with ``np.loadtxt`` and hands any file it
cannot take as is to a text-mode line loop, which either returns the same
values or names the offending line.

The reader works on the body's bytes; only its line-loop fallback decodes
them, as latin-1.  The writer writes each block's text to a text handle, and
decodes the ASCII pieces its child sends back into that handle.  No process
holds a decoded copy of the whole text.  A writer holds one block's text at
a time, or one pipe-sized piece of the bytes its child sends; a writing
child holds the ASCII bytes of its half.  A reader, child or not, holds the
bytes of its own part of the body and the float64 rows parsed from them.
The work is split between this process and one forked child when ``os.fork``
exists, at least two CPUs are usable and the dataset holds at least
``_SPLIT_ROWS`` (131 072) rows, a threshold of its own that the block size
does not move (see :func:`_split_at`): the child formats the back half of
the rows into ASCII bytes, or reads and parses the back part of the body
into float64 bytes, and sends them through a pipe once they are all made.
Each row's text depends on that row alone, so the bytes written and the
values read are those of the one-process path.  The output file is flushed before the fork;
the child runs its work inside ``try``/``finally`` and ends in ``os._exit``,
so it never returns into the caller nor flushes an inherited buffer; this
process always reaps it, also when its own half raises, and does the back
half itself if the child exits non-zero.  Nothing is imported or started
before a large write or read asks for it.
"""

from __future__ import annotations

import io
import json
import operator
import os
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DatasetParseError, PhysbcError
from .models import RegionBox, SystemModel

SCHEME_GRID = "uniform-grid"
SCHEME_IID = "iid-uniform"

# Hard ceiling on generated points; generation requests beyond it fail fast
# instead of exhausting memory.
DEFAULT_MAX_SAMPLES = 20_000_000

# Column names of a dataset CSV file.
_HEADER = "x_1,y_1"

# Rows formatted per ``%`` operation when writing CSV.
_ROW_CHUNK = 4_096

# Fewest rows whose CSV text work is split with a forked child.
_SPLIT_ROWS = 131_072

# Bytes read at a time when a CSV's bytes are copied or searched in pieces:
# the capacity of a Linux pipe.
_PIECE = 1 << 16

# ASCII separators that ``np.loadtxt`` strips around a number as whitespace
# but ``float`` rejects; a body holding one goes to the line loop.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# What os.fork warns, from Python 3.12, in a process that has threads.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered (state, successor) pairs, two ``(N,)`` arrays, plus the metadata to rebuild them.

    Every sampled dataset holds its states in ascending order; one built
    directly, or loaded from a file an earlier release wrote in draw order,
    may hold them in any order, which the readers of the states allow for.
    """

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
            raise PhysbcError("dataset contains states outside the domain")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "states", xs)
        object.__setattr__(self, "successors", ys)

    @property
    def count(self) -> int:
        return self.states.size

    def take(self, mask: np.ndarray) -> "Dataset":
        """Subset in original order: the pairs where the boolean ``mask`` is true."""
        return replace(self, states=self.states[mask], successors=self.successors[mask])


def _check_capacity(total: int):
    if total > DEFAULT_MAX_SAMPLES:
        raise PhysbcError(f"requested {total} samples, limit is {DEFAULT_MAX_SAMPLES}")


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

    ``count`` is at least 1 and at most ``DEFAULT_MAX_SAMPLES``.  The draws
    are recorded in ascending state order: the scenario program is a set of
    constraints, so the order of its pairs moves neither the program nor its
    bound, and every later stage can read the states as ordered.  Equal
    doubles have equal bytes except for a signed zero, and a draw
    ``lower + width * u`` is never ``-0.0``, so the sorted draw does not
    depend on which sort kernel numpy picks.
    """
    if count < 1:
        raise ValueError("count must be positive")
    _check_capacity(count)
    rng = np.random.default_rng(seed)
    states = rng.uniform(domain.lower, domain.upper, size=count)
    states.sort()
    return Dataset(states, _successors(model, states), SCHEME_IID, domain, seed=seed)


def _successors(model: SystemModel, states: np.ndarray) -> np.ndarray:
    """``model.step_many(states)``, or a PhysbcError naming the first state
    whose successor is not finite; numpy's overflow warnings stay silent, since
    the error says it all."""
    with np.errstate(over="ignore", invalid="ignore"):
        successors = model.step_many(states)
    finite = np.isfinite(successors)
    if not finite.all():
        first = int(np.argmin(finite))
        raise PhysbcError(f"the system maps state {float(states[first])!r} to"
                          f" {float(successors[first])!r}, which is not finite")
    return successors


def covering_radius(dataset: Dataset) -> float:
    """Largest distance from any point of the dataset's domain to its nearest state.

    The value is exact: with the states sorted, it is the larger of the two
    boundary gaps and half the widest interior gap.  States already in
    nondecreasing order, as those of every sampled dataset and its filtered
    subsets are, are read as given, with no sort.  The :class:`Dataset` has
    already refused any state outside its domain.
    """
    s, domain = dataset.states, dataset.domain
    if s.size == 0:
        raise PhysbcError("cannot cover a domain with zero states")
    if not np.all(s[1:] >= s[:-1]):
        s = np.sort(s)
    radius = max(s[0] - domain.lower, domain.upper - s[-1])
    if s.size > 1:
        radius = max(radius, 0.5 * float(np.max(np.diff(s))))
    return float(max(radius, 0.0))


def write_rows(fh, line_format: str, columns) -> None:
    """Write rows through ``line_format``, one value from each of ``columns`` per row.

    ``columns`` holds one ``(N,)`` array per ``%`` conversion of
    ``line_format``, which ends in the line terminator and, like the text it
    gives, is ASCII.  Rows go out in
    blocks of ``_ROW_CHUNK`` (4 096), each stacked from the columns and
    formatted by a single ``%``, so the text is what formatting the rows one
    at a time would give, and no ``(N, width)`` array of all the rows is
    built: beside the columns this holds one block's floats and text, whose
    size does not grow with the row count.

    When :func:`_split_at` allows it (from ``_SPLIT_ROWS`` rows on, whatever
    the block size) and ``fh`` can seek, ``fh`` is flushed
    and a forked child formats the back half of the rows into ASCII bytes
    while this process formats and writes the front half.  The child's bytes
    are then copied to ``fh`` in pieces of at most ``_PIECE`` bytes, so this
    process holds one block of its own rows or one piece at a time, and the
    child the ASCII bytes of its half.  If the child exits non-zero, what was
    copied is truncated and the back half is formatted here.
    """
    def write(start, stop):
        fh.writelines(_formatted(line_format, columns, start, stop))

    count = len(columns[0])
    split = _split_at(count) if fh.seekable() else 0
    if not split:
        write(0, count)
        return

    def front():
        write(0, split)
        return fh.tell()

    def copy(end_of_front, stream):
        fh.seek(end_of_front)
        fh.truncate()  # the part of a failed child
        for piece in iter(lambda: stream.read(_PIECE), b""):
            fh.write(piece.decode("ascii"))

    def back():
        # map lets go of each block's text once it is encoded, before the next is made
        return list(map(operator.methodcaller("encode", "ascii"),
                        _formatted(line_format, columns, split, count)))

    fh.flush()
    _beside(front, back, copy)


def _formatted(line_format: str, columns, start: int, stop: int):
    """Yield the text of rows ``start`` to ``stop``, one ``%`` operation per ``_ROW_CHUNK`` rows."""
    for at in range(start, stop, _ROW_CHUNK):
        chunk = np.column_stack([column[at:min(at + _ROW_CHUNK, stop)] for column in columns])
        yield (line_format * chunk.shape[0]) % tuple(chunk.ravel().tolist())


def _split_at(rows: int) -> int:
    """The row at which a forked child takes over the CSV text work, or 0 for none.

    A child is used only where ``os.fork`` exists, at least two CPUs are
    usable, and there are at least ``_SPLIT_ROWS`` rows; it then takes the
    back half.
    """
    if not hasattr(os, "fork") or rows < _SPLIT_ROWS:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return rows // 2 if cpus >= 2 else 0


def _beside(own_work, child_work, take):
    """``take(own_work(), stream)``, where ``stream`` carries the bytes of a forked child.

    The child runs ``child_work``, which returns a list of bytes-like pieces,
    and writes them to a pipe only once all are made, so that it never waits
    on this process while this process runs ``own_work``.  ``take`` then reads
    the pipe to its end.  The child runs inside ``try``/``finally`` and ends in
    ``os._exit``, so it never returns into the caller nor flushes a buffer it
    inherited.  The child is reaped even when ``own_work`` or ``take`` raises.
    If it exits non-zero, or cannot be started, ``child_work`` runs here and
    ``take`` runs again, or for the first time, on its bytes; ``take`` must
    undo whatever a first call left behind.
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
        return take(own_work(), io.BytesIO(b"".join(child_work())))
    os.close(write_end)
    try:
        # leaving this block closes the read end, so a child still writing
        # fails at once rather than waiting for a reader
        with open(read_end, "rb", buffering=0) as pipe:
            own = own_work()
            taken = take(own, pipe)
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        taken = take(own, io.BytesIO(b"".join(child_work())))
    return taken


def _child(work, read_end: int, write_end: int):
    """The forked child's whole life: send ``work()``'s pieces through the pipe, then exit."""
    status = 1
    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            pipe.writelines(work())
        status = 0
    finally:
        os._exit(status)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write pairs as CSV plus a JSON metadata sidecar.

    Floats are rendered with 17 significant digits (``%.17g``) so a round
    trip through :func:`load_dataset` reproduces them bit for bit.  The
    states and successors go to :func:`write_rows` as two columns, so no
    ``(N, 2)`` stack of them is built: this process holds one block's text
    at a time, and on a large dataset a forked child holds the ASCII bytes
    of the back half, which this process copies after its own in pieces.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_HEADER + "\n")
        write_rows(fh, "%.17g,%.17g\n", (dataset.states, dataset.successors))
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
    The body is read as bytes with ``os.pread`` and parsed by ``np.loadtxt``,
    which reads ``%.17g`` text bit for bit; this process holds the bytes and
    the parsed rows, never a decoded copy of the text.  A body it rejects,
    one with a byte that is not ASCII or is one of ``\\x1c``-``\\x1f``, a
    header line other than ``x_1,y_1`` with a ``\\n`` or ``\\r\\n`` ending,
    or rows whose count disagrees with the sidecar, is read again in text
    mode by the line loop, which accepts what ``float`` accepts (blank lines
    included) and names the first bad line, a line with a byte that is not
    ASCII included.

    When :func:`_split_at` allows it for the sidecar count, the body is cut at
    the line end past its middle, found by a small read there, and a forked
    child reads and parses the back part itself and returns its float64
    bytes; this process reads and parses the front part, then reads the
    child's bytes straight into the result.  If either part is rejected or is
    not an array of pairs, the line loop runs as above, so the values and the
    error messages are those of the one-process path.
    """
    domain, scheme, count, seed = _read_sidecar(path)
    with open(path, "rb") as fh:
        header = fh.readline(len(_HEADER) + 2)
        values = (_loadtxt_rows(fh.fileno(), len(header), count)
                  if header in (f"{_HEADER}\n".encode(), f"{_HEADER}\r\n".encode()) else None)
    if values is None or values.shape != (count, 2):
        values = np.empty((count, 2))
        # latin-1 decodes every byte, so a byte that is not ASCII reaches the
        # line loop, which names its line
        with open(path, "r", encoding="latin-1") as fh:
            header = fh.readline().rstrip("\n")
            if header != _HEADER:
                raise DatasetParseError(f"expected header {_HEADER!r}, got {header!r}", line=1)
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
        except (ValueError, RecursionError) as exc:  # a decode error, or nesting too deep
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


def _loadtxt_rows(fd: int, start: int, count: int) -> Optional[np.ndarray]:
    """The file's bytes from ``start`` on as parsed by ``np.loadtxt``; None if it rejects them.

    When :func:`_split_at` allows it for ``count`` rows, the bytes are cut at
    the line end past their middle and a forked child parses the back part;
    both parts must come out as ``(k, 2)`` arrays that make ``count`` rows,
    and the result is None otherwise.  Each line is parsed on its own, so the
    values are those of one ``np.loadtxt`` over all the bytes.
    """
    end = os.fstat(fd).st_size
    cut = _line_end_past(fd, start + (end - start) // 2, end) if _split_at(count) else end
    if cut >= end:
        return _loadtxt(os.pread(fd, end - start, start))

    def back():
        parsed = _loadtxt(os.pread(fd, end - cut, cut))
        return [parsed] if _pairs(parsed) else []

    return _beside(lambda: _loadtxt(os.pread(fd, cut - start, start)), back,
                   lambda front, stream: _joined(front, stream, count))


def _line_end_past(fd: int, at: int, end: int) -> int:
    """The offset just past the first ``\\n`` at or after ``at``, or ``end`` if there is none."""
    while at < end:
        piece = os.pread(fd, min(_PIECE, end - at), at)
        if not piece:
            break
        found = piece.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(piece)
    return end


def _loadtxt(body: bytes) -> Optional[np.ndarray]:
    """ASCII ``body`` parsed by ``np.loadtxt`` as float rows; None if it rejects it.

    A body with a byte that is not ASCII is rejected, and so is one holding
    any of ``\\x1c``-``\\x1f``, which ``np.loadtxt`` strips as whitespace
    but ``float`` refuses.
    """
    if not body.isascii() or any(c in body for c in _LOADTXT_ONLY_SPACE):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a body without rows warns
            return np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=2,
                              encoding="ascii")
    except ValueError:
        return None


def _pairs(parsed: Optional[np.ndarray]) -> bool:
    """Whether a parse came out as one or more rows of two values."""
    return parsed is not None and parsed.shape[0] > 0 and parsed.shape[1:] == (2,)


def _joined(front: Optional[np.ndarray], stream, count: int) -> Optional[np.ndarray]:
    """``front``'s rows, then the float64 rows ``stream`` carries, as one ``(count, 2)`` array.

    None unless ``front`` is an array of pairs and the stream carries the
    bytes of exactly the one or more rows that ``count`` leaves.  The stream
    is read to its end either way, so a child writing to it always finishes.
    """
    rows = front.shape[0] if _pairs(front) else count
    if rows >= count:
        _read_into(stream, memoryview(bytearray()))
        return None
    values = np.empty((count, 2))
    values[:rows] = front
    tail = memoryview(values[rows:]).cast("B")
    return values if _read_into(stream, tail) == tail.nbytes else None


def _read_into(stream, view: memoryview) -> int:
    """Read ``stream`` to its end into ``view``; the byte count it held, which
    exceeds ``view``'s size when it did not fit (the excess is dropped)."""
    got = 0
    while True:
        more = (stream.readinto(view[got:]) if got < view.nbytes
                else len(stream.read(_PIECE)))
        if not more:
            return got
        got += more


def _parse_rows(fh, values: np.ndarray) -> None:
    """Fill ``values`` from the rest of ``fh`` line by line; blank lines are skipped."""
    count, width = values.shape
    row = 0
    for lineno, line in enumerate(fh, start=2):
        if not line.isascii():
            byte = next(c for c in line if not c.isascii())
            raise DatasetParseError(f"byte 0x{ord(byte):02x} is not ASCII", line=lineno)
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
