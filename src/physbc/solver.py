"""Minimax solvers for affine row systems.

Both entry points minimise the shared slack ``s`` over rows
``a_i . v + b_i <= s``: equivalently they compute
``min_v max_i (a_i . v + b_i)``.

The systems this package assembles are tall and thin (up to a few hundred
thousand rows over a handful of decision columns) and only a few rows bind at
the optimum.  Nearly all are flow rows, which vary in a few columns only, so
a :class:`RowSystem` keeps those columns after one small dense block, the
head; a dense stack is a head with no flow rows.  Both entry points run
one exchange driver, constraint generation in the manner of Kelley's
cutting-plane method: solve the problem restricted to a small working set of
rows exactly, find the worst row, admit it, and repeat until no row exceeds
the restricted slack.  They differ only in the restricted solver, and the
two share no arithmetic:

* :func:`solve`, the production path, runs a small dense simplex on the LP
  dual of the restricted problem: ``width + 1`` equality rows however many
  rows the working set holds, pivoted under Bland's rule (lowest index enters
  and leaves, so it cannot cycle).  The first round starts from a feasible
  basis built from the data; every later round resumes from the previous
  round's optimal basis, which stays feasible because the admitted row only
  adds a dual column (see :func:`_restricted_minmax`).  It needs numpy only;
* :func:`solve_minmax_direct`, the cross-check, uses the HiGHS LP backend,
  which is deterministic for identical input; ``scipy.optimize`` is imported
  on its first call.

Both restricted solvers bound every decision coordinate by
``_ARTIFICIAL_BOX`` and stop under one unbounded rule.  Both start from the
seed working set; the cross-check also accepts extra start rows (the
pipeline hands it the rows that bind at the production optimum), so the two
routes need not solve the same restricted problems.

Finding the worst row reads only part of the flow family.  The flow rows
come in blocks of ``_BOUND_ROWS``, and each block keeps its columns' max and
min.  Round-to-nearest is monotone, so the flow kernel's own operations run
on a block's extremes, each column at the extreme its coefficient's sign
favours, give a floating-point value at least every computed row value in the
block: a bound with no epsilon (:meth:`RowSystem.bound`).  A round evaluates
the head and the block with the largest bound, takes their largest value as
the level, and evaluates every other block whose bound is not below it
(:func:`_worst_row`); a skipped block holds only rows below a value some row
attains.  So the worst row found is the worst of every row, bit for bit, as
a full evaluation would find it.  The blocks are evaluated in chunks of
``_SCRATCH_ROWS`` rows into one scratch that every round reuses, and each
chunk keeps only its first largest value, so the exchange holds no array
with a row per flow row.  A flow of only a few blocks is evaluated whole,
into one array of every row's value, since there the bound costs more than
it skips.

Where the exchange starts does not decide what it returns.  A restricted
problem has a subset of the rows, so its minimum is never above the full
one.  The exchange stops only when no row at the restricted decision exceeds
the restricted slack: every computed row value is at most its block's bound,
and every block whose bound reaches the level was evaluated exactly, so the
largest value found is the row maximum, and that is at least the full
minimum.  So at the stop the decision is optimal to the stopping tolerance,
whichever rows started the exchange: start rows change how many rounds it
takes, never what proves the optimum.  For the same reason the basis a
restricted simplex starts from changes only how many pivots a round takes:
each round's restricted problem is solved to its own optimum, and the check
over every row alone decides when to stop.  Neither route caps its rounds,
since the exchange ends on its own (see :func:`_exchange`); both report
which rows bind at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PhysbcError

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9

# Magnitude of the box on every restricted problem's decision.  Decision
# vertices of well-posed systems stay far below it; a converged solution
# pressed against it means the underlying problem is unbounded.
_ARTIFICIAL_BOX = 1e6

# Safety net on simplex iterations per restricted solve; Bland's rule
# terminates on its own long before this on problems of this size.
_MAX_PIVOTS = 20000

# Rows per block of the flow family: each block's column extremes bound its
# rows (:meth:`RowSystem.bound`), so an exchange round evaluates only the
# blocks whose bound reaches the worst row found so far.
_BOUND_ROWS = 4096

# A flow of fewer blocks than this is evaluated whole each round: there the
# bound and the bookkeeping of skipping blocks cost more than they save.
_PRUNE_BLOCKS = 8

# Flow rows a bounded exchange evaluates at a time, into one scratch of two
# arrays of this length (the rows' values and a column product) that every
# round reuses, so it holds no array with a row per flow row.
_SCRATCH_ROWS = 8192


@dataclass(frozen=True, eq=False)
class SolveResult:
    slack: float
    decision: np.ndarray
    status: str
    active_rows: np.ndarray  # row indices, counted as in the system handed to the solver

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


def _flow_values(columns, decision: np.ndarray, constant: float, out: np.ndarray,
                 product=None) -> np.ndarray:
    """The flow kernel, ``c_1 u_1 + ... + c_d u_d + c_0 constant`` written into
    ``out``, ``u_e`` the column of ``x^e`` and ``c`` the decision: the last
    column times its coefficient, then each earlier column's product added,
    last column first, then the constant term's product added.  Each column
    product is written into ``product``, an array of ``out``'s length (one
    is allocated if it is None).  The flow rows and their block bounds
    (:meth:`RowSystem.bound`) both run this sequence."""
    d = len(columns)
    if d:
        np.multiply(columns[d - 1], decision[d], out=out)
    else:
        out.fill(0.0)
    if d > 1 and product is None:
        product = np.empty_like(out)
    for j in range(d - 2, -1, -1):
        np.multiply(columns[j], decision[1 + j], out=product)
        out += product
    out += decision[-1] * constant
    return out


@dataclass(frozen=True, eq=False)
class RowSystem:
    """Affine rows ``a_i . v + b_i``: the dense ``head``, then flow rows ``[0,
    flow[i], flow_constant]`` with offset 0, which vary only in the columns of
    the F-contiguous ``flow``.  The flow rows come in blocks of
    ``_BOUND_ROWS``, the last one shorter; :attr:`extremes` holds each
    block's column extremes, from which :meth:`bound` bounds its rows.  The
    exchange reads the flow rows through :meth:`bound`,
    :meth:`evaluate_chunks`, :meth:`row` and :meth:`seed_rows`, and a flow
    of only a few blocks as a whole.
    """

    head: np.ndarray
    head_offsets: np.ndarray
    flow: np.ndarray
    flow_constant: float

    @classmethod
    def stack(cls, rows, offsets) -> "RowSystem":
        """A dense stack as a system, every row in ``head``; its shape checked."""
        A = np.atleast_2d(np.asarray(rows, dtype=float))
        b = np.atleast_1d(np.asarray(offsets, dtype=float))
        if A.ndim != 2 or A.shape[0] != b.shape[0] or 0 in A.shape:
            raise ValueError("need as many offsets as rows, at least one row and one column")
        return cls(A, b, np.empty((0, max(A.shape[1] - 2, 0))), 0.0)

    @property
    def count(self) -> int:
        return len(self.head) + len(self.flow)

    @cached_property
    def extremes(self) -> tuple:
        """Each flow column's max and min over each block of rows: two
        read-only ``(blocks, d)`` arrays, computed once per system.  Both
        reductions propagate a nan and an infinity is an extreme, so a block
        holds an entry that is not finite exactly when one of its extremes is
        not finite."""
        starts = np.arange(0, len(self.flow), _BOUND_ROWS)
        top = np.maximum.reduceat(self.flow, starts, axis=0)
        bottom = np.minimum.reduceat(self.flow, starts, axis=0)
        top.flags.writeable = bottom.flags.writeable = False
        return top, bottom

    def first_non_finite(self) -> int:
        """The first flow row with an entry that is not finite, counted within
        the flow family, or -1 if there is none.  Only the first block whose
        extremes are not all finite can hold it, so only that block is
        searched."""
        top, bottom = self.extremes
        if np.isfinite(top).all() and np.isfinite(bottom).all():
            return -1
        finite = np.isfinite(top).all(axis=1) & np.isfinite(bottom).all(axis=1)
        start = int(np.argmin(finite)) * _BOUND_ROWS
        block = self.flow[start:start + _BOUND_ROWS]
        return start + int(np.argmin(np.isfinite(block).all(axis=1)))

    def bound(self, decision: np.ndarray) -> np.ndarray:
        """An upper bound on every computed flow row value of each block at
        ``decision``: :func:`_flow_values` on the block's extremes, each
        column at its max where its coefficient is >= 0 and at its min
        otherwise.

        Round-to-nearest is monotone: ``a <= b`` gives ``fl(a) <= fl(b)``.
        So each product ``fl(u c)`` is non-decreasing in ``u`` for ``c >= 0``
        (``-0.0`` included: every product is a zero) and non-increasing for
        ``c < 0``, and each sum ``fl(a + b)`` is non-decreasing in both
        terms.  Running a row's exact operation sequence with every column
        replaced by that extreme therefore gives a value at least the row's
        computed value, bit for bit and with no epsilon.  A row whose
        computed value is nan met an ``inf - inf``, so the bound met an
        infinity at least as large and is ``inf`` or nan itself."""
        top, bottom = self.extremes
        columns = [top[:, j] if decision[1 + j] >= 0 else bottom[:, j]
                   for j in range(top.shape[1])]
        return _flow_values(columns, decision, self.flow_constant, np.empty(len(top)))

    def spans(self, blocks: np.ndarray) -> list:
        """The row ranges ``(start, stop)`` of the runs of true entries in the
        boolean ``blocks``, one entry per block, counted as in the system and
        in ascending order."""
        runs = []  # [first block, last block + 1] of each run
        for k in np.flatnonzero(blocks).tolist():
            if runs and runs[-1][1] == k:
                runs[-1][1] = k + 1
            else:
                runs.append([k, k + 1])
        h, n = len(self.head), len(self.flow)
        return [(h + first * _BOUND_ROWS, h + min(stop * _BOUND_ROWS, n)) for first, stop in runs]

    def evaluate_chunks(self, decision: np.ndarray, blocks: np.ndarray, scratch):
        """The flow rows of the blocks marked in ``blocks`` at ``decision``, in
        ascending chunks of at most ``_SCRATCH_ROWS`` rows within one of their
        :meth:`spans`: yields ``(start, values)`` per chunk, ``start`` its
        first row counted as in the system and ``values`` its rows by
        :func:`_flow_values`.  ``scratch`` is two arrays of at least the chunk
        length, the values and a column product; each chunk is written over
        the one before it."""
        h = len(self.head)
        for first, last in self.spans(blocks):
            for start in range(first, last, _SCRATCH_ROWS):
                stop = min(start + _SCRATCH_ROWS, last)
                values, product = (part[:stop - start] for part in scratch)
                yield start, _flow_values(self.flow[start - h:stop - h].T, decision,
                                          self.flow_constant, values, product)

    def row(self, i: int) -> tuple:
        """Row ``i`` and its offset, the row in exactly the bytes a dense stack holds."""
        h = len(self.head)
        if i < h:
            return self.head[i], self.head_offsets[i]
        row = np.zeros(self.head.shape[1])
        row[1:-1], row[-1] = self.flow[i - h], self.flow_constant
        return row, 0.0

    def seed_rows(self) -> np.ndarray:
        """Initial working set from the data, not the row order, since the
        first rows may be collinear and start a singular problem: each
        column's first largest and first smallest row, and the first row with
        the largest offset; a ValueError if an entry is not finite.  Only the
        head rows, the first flow row and each flow column's first entries
        equal to its max and min can be those, so the reductions run over a
        block of those rows, in row order.  A flow column's max and min are
        read from :attr:`extremes`; only the first block that holds each is
        searched for its first entry equal to it (``argmax`` would copy a
        read-only column)."""
        h, width = len(self.head), self.head.shape[1]
        firsts = np.empty(0, dtype=int)
        if len(self.flow):
            if self.first_non_finite() >= 0:
                raise ValueError("rows and offsets must be finite")
            top, bottom = self.extremes
            firsts = [0]
            # the first block that holds each column's max, then each one's min
            for extremes, blocks in ((top, top.argmax(axis=0)), (bottom, bottom.argmin(axis=0))):
                for j, k in enumerate(blocks.tolist()):
                    rows = self.flow[k * _BOUND_ROWS:(k + 1) * _BOUND_ROWS, j]
                    firsts.append(k * _BOUND_ROWS + int(np.argmax(rows == extremes[k, j])))
            firsts = np.sort(firsts)
        # one row per candidate: its entries, then its offset
        block = np.zeros((h + len(firsts), width + 1))
        block[:h, :width], block[:h, width] = self.head, self.head_offsets
        block[h:, 1:-2], block[h:, -2] = self.flow[firsts], self.flow_constant
        top, bottom = block.argmax(axis=0), block.argmin(axis=0)
        # both reductions stop at a nan, and an infinity is an extreme, so an
        # entry that is not finite shows in a peak or a trough
        entries = np.arange(width + 1)
        if not np.isfinite([block[top, entries], block[bottom, entries]]).all():
            raise ValueError("rows and offsets must be finite")
        candidates = np.concatenate([np.arange(h), h + firsts])
        return candidates[np.concatenate([top[:width], bottom[:width], top[width:]])]


def _start_rows(start_rows, count: int) -> np.ndarray:
    """``start_rows`` as a 1-D array of row indices, each checked to be an
    integer in ``[0, count)``; a negative index is refused, never wrapped."""
    picks = np.asarray(start_rows)
    if picks.size == 0:
        return np.empty(0, dtype=int)
    if picks.ndim != 1 or not np.issubdtype(picks.dtype, np.integer):
        raise ValueError("start rows must be a sequence of integer row indices")
    if picks.min() < 0 or picks.max() >= count:
        raise ValueError(f"start rows must lie in [0, {count})")
    return picks


def _worst_row(system: RowSystem, decision: np.ndarray, bound, values: np.ndarray,
               scratch) -> tuple:
    """The first row with the largest value at ``decision``, as ``np.argmax``
    over every row would pick it (the first nan if any), and that value.

    ``values`` takes the head's values.  With ``bound`` None it takes every
    flow row's too, after the head, and the worst row is its ``np.argmax``.
    Otherwise ``bound`` is ``system.bound(decision)`` and ``scratch`` the two
    arrays of :meth:`RowSystem.evaluate_chunks`.  The block with the largest
    bound is evaluated, chunk by chunk.  The larger of its largest value and
    the head's, the level, is the value of some row, so the worst row is not
    below it; a block whose bound is below the level holds only rows below
    it, and is skipped.  Every other block is evaluated too, found as
    ``~(bound < level)`` so that a nan bound or level prunes nothing.  Each
    chunk keeps its first largest value, and so does the head; the worst row
    is the first largest of those in row order, by ``np.argmax``, so a nan
    wins as it does over every row."""
    head = values[:len(system.head)]
    np.matmul(system.head, decision, out=head)
    head += system.head_offsets
    if bound is None:  # every flow row, in one pass
        _flow_values(system.flow.T, decision, system.flow_constant, values[len(head):])
        worst = int(np.argmax(values))
        return worst, values[worst]
    first = np.zeros(bound.shape, dtype=bool)
    first[np.argmax(bound)] = True
    maxima = _chunk_maxima(system, decision, first, scratch)
    level = np.max([value for _, value in maxima])
    if head.size:
        level = max(level, head.max())  # keeps a nan level: nan > x is false
        maxima.append(_chunk_maximum(0, head))
    rest = ~(bound < level)
    rest[first] = False
    maxima += _chunk_maxima(system, decision, rest, scratch)
    maxima.sort(key=lambda maximum: maximum[0])
    return maxima[int(np.argmax([value for _, value in maxima]))]


def _chunk_maximum(start: int, values: np.ndarray) -> tuple:
    """``(row, value)`` of the first largest of ``values`` (the first nan if
    any), rows counted from ``start``."""
    k = int(np.argmax(values))
    return start + k, values[k]


def _chunk_maxima(system: RowSystem, decision: np.ndarray, blocks: np.ndarray,
                  scratch) -> list:
    """:func:`_chunk_maximum` of each of :meth:`RowSystem.evaluate_chunks`."""
    return [_chunk_maximum(start, values)
            for start, values in system.evaluate_chunks(decision, blocks, scratch)]


def _rows_at_least(system: RowSystem, decision: np.ndarray, level: float, bound,
                   values: np.ndarray, scratch) -> np.ndarray:
    """The rows whose value at ``decision`` is at least ``level``, in ascending
    order.  ``values`` holds what :func:`_worst_row` left in it at
    ``decision``: every row if ``bound`` is None, else the head.  Of the flow
    blocks, only those whose ``bound`` is not below ``level`` can hold such a
    row, so only they are evaluated again, chunk by chunk, into
    ``scratch``."""
    if bound is None:  # every row was evaluated
        return np.flatnonzero(values >= level)
    found = [np.flatnonzero(values >= level)]
    for start, chunk in system.evaluate_chunks(decision, ~(bound < level), scratch):
        found.append(start + np.flatnonzero(chunk >= level))
    return np.concatenate(found)


def _exchange(system: RowSystem, restricted, start_rows=()) -> SolveResult:
    """Constraint generation over the rows of a :class:`RowSystem`.

    The working set starts as the seed rows merged with ``start_rows``.  Each
    round solves the working-set rows exactly with ``restricted``
    (``(A_w, b_w) -> (decision, slack)``, boxed at ``_ARTIFICIAL_BOX``),
    finds the globally worst row (lowest index on ties) with
    :func:`_worst_row`, and admits it, until no row exceeds the restricted
    slack.  The admitted row goes last, so the rows already in the working
    set keep their positions; :func:`solve` resumes each round's simplex
    from the previous one's basis on that account.  A converged decision
    pressed against the box means the full problem is unbounded.  The
    reported slack is clamped to the maximum over all rows, so it never
    understates the decision's true objective.

    A round evaluates the head and only the flow blocks that can hold the
    worst row.  Rounding to nearest is monotone, so the flow kernel run on
    a block's column extremes, each at the end its coefficient's sign
    favours, bounds every computed value in the block
    (:meth:`RowSystem.bound`).  Every computed flow value is at most its
    block's bound, and every block whose bound reaches the level, the
    largest value found first, is evaluated exactly; so the worst row, and
    the maximum the stop compares, are those of every row, bit for bit.
    The blocks are evaluated in chunks of ``_SCRATCH_ROWS`` rows into one
    scratch of two such arrays, made once per exchange, and each chunk
    keeps only its first largest value.  At the stop, the blocks whose
    bound reaches ``slack - tol`` are evaluated again, chunk by chunk, and
    their rows at that level or above are the active rows.  A flow of
    fewer than ``_PRUNE_BLOCKS`` blocks is evaluated whole each round, with
    no bound, into one array of every row's value, which the stop reads.

    It needs no round cap: a round that does not stop either admits a row
    outside the working set or raises "stalled", so with N rows and W in the
    starting working set it ends within N - W + 1 rounds.
    """
    working = np.union1d(system.seed_rows(), _start_rows(start_rows, system.count)).tolist()
    A_w, b_w = map(np.array, zip(*map(system.row, working)))  # the working rows, fetched once
    bounded = len(system.extremes[0]) >= _PRUNE_BLOCKS
    scratch = None
    if bounded:  # the head's values, and a chunk's values and column product
        values = np.empty(len(system.head))
        scratch = np.empty((2, min(_SCRATCH_ROWS, len(system.flow))))
    else:  # every row's values
        values = np.empty(system.count)
    while True:
        decision, slack = restricted(A_w, b_w)
        bound = system.bound(decision) if bounded else None
        worst, value = _worst_row(system, decision, bound, values, scratch)
        if value <= slack + 1e-9 * max(1.0, abs(slack)):
            if np.max(np.abs(decision)) >= 0.5 * _ARTIFICIAL_BOX:
                return SolveResult(
                    slack=float("-inf"),
                    decision=np.full(system.head.shape[1], np.nan),
                    status=STATUS_UNBOUNDED,
                    active_rows=np.empty(0, dtype=int),
                )
            slack = max(slack, float(value))
            tol = 1e-6 * max(1.0, abs(slack))
            return SolveResult(
                slack=slack,
                decision=decision,
                status=STATUS_OPTIMAL,
                active_rows=_rows_at_least(system, decision, slack - tol, bound, values,
                                           scratch),
            )
        if worst in working:
            raise PhysbcError("exchange stalled on an already-admitted row")
        working.append(worst)
        row, offset = system.row(worst)
        A_w, b_w = np.vstack([A_w, row]), np.append(b_w, offset)


# --------------------------------------------------------------------------
# Production restricted solver: dense simplex on the LP dual.
# --------------------------------------------------------------------------


def _pivot_loop(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list) -> np.ndarray:
    """Primal simplex for ``min c . z  s.t.  A z = b, z >= 0`` from a feasible
    basis (mutated in place).

    Bland's rule with tolerances scaled to the rounding noise of the dual
    solve, so a column whose true reduced cost is zero is never mistaken for
    an improving one.  Returns the simplex multipliers of the optimal basis;
    an unbounded objective is an internal error, since the caller's problem
    is bounded.
    """
    m, total = A.shape
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    eps = np.finfo(float).eps
    abs_A, abs_c = np.abs(A), np.abs(c)
    for _ in range(_MAX_PIVOTS):
        B = A[:, basis]
        try:
            values = np.linalg.solve(B, b)
            dual = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise PhysbcError("singular basis in dense solver") from exc
        reduced = c - dual @ A
        noise = eps * (np.abs(dual) @ abs_A + abs_c + 1.0)
        improving = np.flatnonzero(~in_basis & (reduced < -np.maximum(1e-9, 64.0 * noise)))
        if improving.size == 0:
            if float(values.min()) < -1e-6:
                raise PhysbcError("pivot loop terminated at an infeasible basis")
            return dual
        entering = int(improving[0])
        direction = np.linalg.solve(B, A[:, entering])
        positive = direction > 1e-10
        if not positive.any():
            raise PhysbcError("bounded subproblem reported unbounded")
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(values[positive], 0.0) / direction[positive]
        # admit only exact ties: a fuzzy window lets a non-blocking row leave
        # and drives the true blocking row's basic value negative
        leave = min(np.flatnonzero(ratios == ratios.min()), key=lambda i: basis[i])
        in_basis[basis[leave]] = False
        in_basis[entering] = True
        basis[leave] = entering
    raise PhysbcError("dense solver exceeded its pivot budget")


def _restricted_minmax(A_w: np.ndarray, b_w: np.ndarray, previous=None):
    """Exact minimax over the working-set rows, solved through the LP dual.

    The restricted problem ``min s`` over ``A_w v + b_w <= s`` and
    ``|v_j| <= _ARTIFICIAL_BOX`` has the dual, over ``y`` (one entry per row)
    and ``u, l`` (one per box face)::

        min  -b_w . y + box * (sum(u) + sum(l))
        s.t. A_w^T y + u - l = 0,   sum(y) = 1,   y, u, l >= 0

    That is ``width + 1`` equality rows however many rows the working set
    holds, and the ``+-e_j`` box columns plus any row column span them, so no
    row is ever redundant.  Column ``i < k`` is row ``i`` of the working set,
    and the ``2 * width`` box columns follow.  At the optimal basis the
    simplex multipliers ``pi`` solve the primal: ``v = pi[:width]`` (and
    ``s = -pi[width]``).  The slack is returned as the row maximum at ``v``.

    With ``previous=None`` the start basis is the row with the largest offset
    (``y = 1``), each of its coordinates balanced by one box column, which is
    feasible, so no feasibility search is needed.  Otherwise ``previous`` is
    the optimal basis returned for this working set without its last row, as
    the exchange appends the admitted row.  The row columns keep their
    positions and every box column moves up by one to make room for the new
    row's column, which starts nonbasic.  The basis then holds the same
    columns of the same equality rows with the same right-hand side, so its
    basic values are exactly the previous optimum's: a feasible start, from
    which Bland's rule ends as it does from any feasible basis.  The start
    decides only how many pivots the solve takes, since it ends at an optimum
    of this restricted problem either way.

    Returns (decision, slack, optimal basis).
    """
    k, width = A_w.shape
    eye = np.eye(width)
    Aeq = np.vstack([
        np.hstack([A_w.T, eye, -eye]),
        np.concatenate([np.ones(k), np.zeros(2 * width)]),
    ])
    cost = np.concatenate([-b_w, np.full(2 * width, _ARTIFICIAL_BOX)])
    rhs = np.zeros(width + 1)
    rhs[-1] = 1.0
    if previous is None:
        first = int(np.argmax(b_w))
        basis = [first] + [
            k + j if A_w[first, j] <= 0 else k + width + j for j in range(width)
        ]
    else:
        basis = [j + 1 if j >= k - 1 else j for j in previous]
    pi = _pivot_loop(Aeq, rhs, cost, basis)
    decision = pi[:width]
    return decision, float(np.max(A_w @ decision + b_w)), basis


def solve(system: RowSystem) -> SolveResult:
    """Minimise the row maximum by constraint generation over dense dual
    simplex solves, each round's resuming from the previous round's optimal
    basis.

    A dense ``(rows, offsets)`` stack goes in as ``RowSystem.stack(rows,
    offsets)``.  The exchange ends within one round per row outside the seed
    working set, plus one (see :func:`_exchange`).
    """
    basis = None  # the last round's optimal dual basis

    def restricted(A_w, b_w):
        nonlocal basis
        decision, slack, basis = _restricted_minmax(A_w, b_w, basis)
        return decision, slack

    return _exchange(system, restricted)


# --------------------------------------------------------------------------
# Independent restricted solver: the HiGHS LP backend.
# --------------------------------------------------------------------------


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call.

    Importing the package therefore loads no scipy; :func:`_restricted_highs`
    looks this name up at call time, so it can be wrapped or replaced.
    """
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


def _restricted_highs(A_w: np.ndarray, b_w: np.ndarray):
    """Exact minimax over the working-set rows via the HiGHS LP backend.

    The decision is boxed at ``_ARTIFICIAL_BOX`` through variable bounds, so
    the epigraph LP is always bounded and feasible; any other backend status
    is an internal error.  Returns (decision, slack).
    """
    k, width = A_w.shape
    objective = np.zeros(width + 1)
    objective[-1] = 1.0
    result = linprog(
        objective,
        A_ub=np.hstack([A_w, -np.ones((k, 1))]),
        b_ub=-b_w,
        bounds=[(-_ARTIFICIAL_BOX, _ARTIFICIAL_BOX)] * width + [(None, None)],
        method="highs",
        options={
            "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "dual_feasibility_tolerance": OPTIMALITY_TOL,
        },
    )
    if result.status != 0:
        raise PhysbcError(f"LP backend returned status {result.status}: {result.message}")
    return result.x[:-1], float(result.x[-1])


def solve_minmax_direct(system: RowSystem, start_rows=()) -> SolveResult:
    """Minimise the row maximum by constraint generation over HiGHS solves.

    The cross-check of :func:`solve`: the same exchange, with the restricted
    problems handed to the HiGHS LP backend (``scipy.optimize``, imported on
    the first call), so it shares no LP arithmetic with the production route.

    ``start_rows`` (integer row indices in ``[0, count)``, else ``ValueError``)
    join the seed working set.  They choose only where the exchange starts:
    every restricted minimum is at most the full one, and the exchange stops
    only once every row at the HiGHS decision is within tolerance of the
    restricted slack, so the optimum is proved by HiGHS arithmetic alone
    whatever rows are given.  Starting from the rows that bind at another
    route's optimum usually makes it one HiGHS solve.  Like :func:`solve`, it
    ends within one round per row outside the starting working set, plus one.
    """
    return _exchange(system, _restricted_highs, start_rows)
