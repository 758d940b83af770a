"""Minimax solvers for affine row systems.

Both entry points minimise the shared slack ``s`` over rows
``a_i . v + b_i <= s``: equivalently they compute
``min_v max_i (a_i . v + b_i)``.

The systems this package assembles are tall and thin (up to a few hundred
thousand rows over a handful of decision columns) and only a few rows bind at
the optimum.  Both entry points therefore run one exchange driver, constraint
generation in the manner of Kelley's cutting-plane method: solve the problem
restricted to a small working set of rows exactly, evaluate every row with one
matrix-vector product, admit the worst row, and repeat until no row exceeds
the restricted slack.  They differ only in the restricted solver, and the two
share no arithmetic:

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

Where the exchange starts does not decide what it returns.  A restricted
problem has a subset of the rows, so its minimum is never above the full
one.  The exchange stops only when one matrix-vector product shows that no
row at the restricted decision exceeds the restricted slack, and that row
maximum is at least the full minimum.  So at the stop the decision is optimal
to the stopping tolerance, whichever rows started the exchange: start rows
change how many rounds it takes, never what proves the optimum.  For the
same reason the basis a restricted simplex starts from changes only how many
pivots a round takes: each round's restricted problem is solved to its own
optimum, and the full-row check alone decides when to stop.  Neither
route caps its rounds, since the exchange ends on its own (see
:func:`_exchange`); both report which rows bind at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Rows per block of the seed scan's transposed scratch.
_BLOCK_ROWS = 16_384


@dataclass(frozen=True, eq=False)
class SolveResult:
    slack: float
    decision: np.ndarray
    status: str
    active_rows: np.ndarray  # indices into the row stack handed to the solver

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


def _validate(rows: np.ndarray, offsets: np.ndarray):
    """The stack as float arrays, with its shape checked; :func:`_seed_rows`,
    the first pass over its entries, checks that they are finite."""
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.atleast_1d(np.asarray(offsets, dtype=float))
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise ValueError("rows and offsets must agree on the number of constraints")
    if A.shape[0] == 0:
        raise ValueError("need at least one row")
    if A.shape[1] == 0:
        raise ValueError("need at least one decision variable")
    return A, b


def _seed_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Initial working set: each column's largest and smallest row, plus the
    row with the largest offset; a ValueError if any row or offset is not
    finite.

    Chosen from the data rather than from the row order, so the seed does not
    depend on how a caller stacks its rows: a block of near-collinear leading
    rows would start the exchange from a singular restricted problem.

    The stack is read once, ``_BLOCK_ROWS`` rows at a time: each block's
    columns and offsets are copied into one small contiguous transposed
    scratch and reduced there.  So beside the stack this holds one block,
    never a full-length column, whether the stack is in C or F order.  A
    block's extreme replaces the running one only when it is strictly
    larger (or smaller), so each column gets its first extreme row, as a
    reduction over axis 0 does.
    """
    count, width = A.shape
    scratch = np.empty((width + 1) * min(count, _BLOCK_ROWS))
    entries = np.arange(width + 1)
    high, low = np.full(width + 1, -np.inf), np.full(width + 1, np.inf)
    highest = lowest = 0  # every entry is finite, so the first block replaces these
    for at in range(0, count, _BLOCK_ROWS):
        size = min(count - at, _BLOCK_ROWS)
        block = scratch[:(width + 1) * size].reshape(width + 1, size)
        np.copyto(block[:width], A[at:at + size].T)
        np.copyto(block[width], b[at:at + size])
        top, bottom = block.argmax(axis=1), block.argmin(axis=1)
        peak, trough = block[entries, top], block[entries, bottom]
        # both reductions stop at a nan, and an infinity is an extreme, so an
        # entry that is not finite shows in peak or trough
        if not (np.isfinite(peak).all() and np.isfinite(trough).all()):
            raise ValueError("rows and offsets must be finite")
        highest = np.where(peak > high, at + top, highest)
        high = np.maximum(high, peak)
        lowest = np.where(trough < low, at + bottom, lowest)
        low = np.minimum(low, trough)
    return np.concatenate([highest[:width], lowest[:width], highest[width:]])


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


def _exchange(A: np.ndarray, b: np.ndarray, restricted, start_rows=()) -> SolveResult:
    """Constraint generation over the rows of ``A v + b``.

    The working set starts as the seed rows merged with ``start_rows``.  Each
    round solves the working-set rows exactly with ``restricted``
    (``(A_w, b_w) -> (decision, slack)``, boxed at ``_ARTIFICIAL_BOX``),
    evaluates every row with one matrix-vector product and admits the
    globally worst row (lowest index on ties), until no row exceeds the
    restricted slack.  The admitted row goes last, so the rows already in the
    working set keep their positions; :func:`solve` resumes each round's
    simplex from the previous one's basis on that account.  A converged decision pressed against the box means the
    full problem is unbounded.  The reported slack is clamped to the maximum
    over all rows, so it never understates the decision's true objective.

    It needs no round cap: a round that does not stop either admits a row
    outside the working set or raises "stalled", so with N rows and W in the
    starting working set it ends within N - W + 1 rounds.
    """
    width = A.shape[1]
    working = np.union1d(_seed_rows(A, b), _start_rows(start_rows, A.shape[0])).tolist()
    values = np.empty(A.shape[0])  # every round's row values, in one array
    while True:
        decision, slack = restricted(A[working], b[working])
        np.matmul(A, decision, out=values)
        values += b
        worst = int(np.argmax(values))
        if values[worst] <= slack + 1e-9 * max(1.0, abs(slack)):
            if np.max(np.abs(decision)) >= 0.5 * _ARTIFICIAL_BOX:
                return SolveResult(
                    slack=float("-inf"),
                    decision=np.full(width, np.nan),
                    status=STATUS_UNBOUNDED,
                    active_rows=np.empty(0, dtype=int),
                )
            slack = max(slack, float(values[worst]))
            tol = 1e-6 * max(1.0, abs(slack))
            return SolveResult(
                slack=slack,
                decision=decision,
                status=STATUS_OPTIMAL,
                active_rows=np.nonzero(values >= slack - tol)[0],
            )
        if worst in working:
            raise PhysbcError("exchange stalled on an already-admitted row")
        working.append(worst)


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


def solve(rows: np.ndarray, offsets: np.ndarray) -> SolveResult:
    """Minimise the row maximum by constraint generation over dense dual
    simplex solves, each round's resuming from the previous round's optimal
    basis.

    The exchange ends within one round per row outside the seed working set,
    plus one (see :func:`_exchange`).
    """
    A, b = _validate(rows, offsets)
    basis = None  # the last round's optimal dual basis

    def restricted(A_w, b_w):
        nonlocal basis
        decision, slack, basis = _restricted_minmax(A_w, b_w, basis)
        return decision, slack

    return _exchange(A, b, restricted)


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


def solve_minmax_direct(rows: np.ndarray, offsets: np.ndarray, start_rows=()) -> SolveResult:
    """Minimise the row maximum by constraint generation over HiGHS solves.

    The cross-check of :func:`solve`: the same exchange, with the restricted
    problems handed to the HiGHS LP backend (``scipy.optimize``, imported on
    the first call), so it shares no LP arithmetic with the production route.

    ``start_rows`` (integer indices in ``[0, len(rows))``, else ``ValueError``)
    join the seed working set.  They choose only where the exchange starts:
    every restricted minimum is at most the full one, and the exchange stops
    only once every row at the HiGHS decision is within tolerance of the
    restricted slack, so the optimum is proved by HiGHS arithmetic alone
    whatever rows are given.  Starting from the rows that bind at another
    route's optimum usually makes it one HiGHS solve.  Like :func:`solve`, it
    ends within one round per row outside the starting working set, plus one.
    """
    A, b = _validate(rows, offsets)
    return _exchange(A, b, _restricted_highs, start_rows)
