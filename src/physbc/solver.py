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
rows exactly, evaluate every row, admit the worst row, and repeat until no
row exceeds the restricted slack.  They differ only in the restricted
solver, and the two share no arithmetic:

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
one.  The exchange stops only when the evaluation of every row shows that no
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


@dataclass(frozen=True, eq=False)
class SolveResult:
    slack: float
    decision: np.ndarray
    status: str
    active_rows: np.ndarray  # row indices, counted as in the system handed to the solver

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


@dataclass(frozen=True, eq=False)
class RowSystem:
    """Affine rows ``a_i . v + b_i``: the dense ``head``, then flow rows ``[0,
    flow[i], flow_constant]`` with offset 0, which vary only in the columns of
    the F-contiguous ``flow``.  The solver reads it through :meth:`evaluate`,
    :meth:`row` and :meth:`seed_rows` alone.
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

    def evaluate(self, decision: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Every row at ``decision``, written into ``out``: one matrix-vector
        product for the head, and the flow rows elementwise as ``c_1 u_1 + ...
        + c_d u_d + c_0 flow_constant``, ``u_e`` the column of ``x^e``."""
        h, d = len(self.head), self.flow.shape[1]
        np.matmul(self.head, decision, out=out[:h])
        out[:h] += self.head_offsets
        values = out[h:]
        if d:
            np.multiply(self.flow[:, d - 1], decision[d], out=values)
        else:
            values.fill(0.0)
        for j in range(d - 2, -1, -1):
            values += self.flow[:, j] * decision[1 + j]
        values += decision[-1] * self.flow_constant
        return out

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
        equal to its max and min (``argmax`` would copy a read-only array) can
        be those, so the reductions run over a block of those rows, in row
        order."""
        h, width = len(self.head), self.head.shape[1]
        firsts = np.empty(0, dtype=int)
        if len(self.flow):
            extremes = np.concatenate([self.flow.max(axis=0), self.flow.min(axis=0)])
            if not np.isfinite(extremes).all():
                raise ValueError("rows and offsets must be finite")
            firsts = np.sort([0] + [np.argmax(column == value)
                                    for column, value in zip([*self.flow.T] * 2, extremes)])
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


def _exchange(system: RowSystem, restricted, start_rows=()) -> SolveResult:
    """Constraint generation over the rows of a :class:`RowSystem`.

    The working set starts as the seed rows merged with ``start_rows``.  Each
    round solves the working-set rows exactly with ``restricted``
    (``(A_w, b_w) -> (decision, slack)``, boxed at ``_ARTIFICIAL_BOX``),
    evaluates every row into one reused array and admits the globally worst
    row (lowest index on ties), until no row exceeds the restricted slack.
    The admitted row goes last, so the rows already in the working set keep
    their positions; :func:`solve` resumes each round's simplex from the
    previous one's basis on that account.  A converged decision pressed
    against the box means the full problem is unbounded.  The reported slack
    is clamped to the maximum over all rows, so it never understates the
    decision's true objective.

    It needs no round cap: a round that does not stop either admits a row
    outside the working set or raises "stalled", so with N rows and W in the
    starting working set it ends within N - W + 1 rounds.
    """
    working = np.union1d(system.seed_rows(), _start_rows(start_rows, system.count)).tolist()
    A_w, b_w = map(np.array, zip(*map(system.row, working)))  # the working rows, fetched once
    values = np.empty(system.count)  # every round's row values, in one array
    while True:
        decision, slack = restricted(A_w, b_w)
        system.evaluate(decision, values)
        worst = int(np.argmax(values))
        if values[worst] <= slack + 1e-9 * max(1.0, abs(slack)):
            if np.max(np.abs(decision)) >= 0.5 * _ARTIFICIAL_BOX:
                return SolveResult(
                    slack=float("-inf"),
                    decision=np.full(system.head.shape[1], np.nan),
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
