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

* :func:`solve`, the production path, uses the HiGHS LP backend, which is
  deterministic for identical input;
* :func:`solve_minmax_direct`, the cross-check, uses a small dense two-phase
  simplex under Bland's rule (lowest index enters and leaves, so it cannot
  cycle).

Both restricted solvers box the decision at ``_ARTIFICIAL_BOX``, so both
routes share one seed working set and one unbounded rule.  Both report which
rows bind at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverInternalError

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration-limit"

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9

# Magnitude of the box on every restricted problem's decision.  Decision
# vertices of well-posed systems stay far below it; a converged solution
# pressed against it means the underlying problem is unbounded.
_ARTIFICIAL_BOX = 1e6


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
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.atleast_1d(np.asarray(offsets, dtype=float))
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise ValueError("rows and offsets must agree on the number of constraints")
    if A.shape[0] == 0:
        raise ValueError("need at least one row")
    if A.shape[1] == 0:
        raise ValueError("need at least one decision variable")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("rows and offsets must be finite")
    return A, b


def _seed_rows(A: np.ndarray, b: np.ndarray) -> list:
    """Initial working set: each column's largest and smallest row, plus the
    row with the largest offset.

    Chosen from the data rather than from the row order, so the seed does not
    depend on how a caller stacks its rows: a block of near-collinear leading
    rows would start the exchange from a singular restricted problem.
    """
    picks = np.concatenate([A.argmax(axis=0), A.argmin(axis=0), [b.argmax()]])
    return np.unique(picks).tolist()


def _exchange(A: np.ndarray, b: np.ndarray, restricted, max_iterations: int) -> SolveResult:
    """Constraint generation over the rows of ``A v + b``.

    Each round solves the working-set rows exactly with ``restricted``
    (``(A_w, b_w) -> (decision, slack)``, boxed at ``_ARTIFICIAL_BOX``),
    evaluates every row with one matrix-vector product and admits the
    globally worst row (lowest index on ties), until no row exceeds the
    restricted slack.  A converged decision pressed against the box means the
    full problem is unbounded.  The reported slack is clamped to the maximum
    over all rows, so it never understates the decision's true objective.
    """
    width = A.shape[1]
    working = _seed_rows(A, b)
    decision = np.full(width, np.nan)
    slack = float("nan")
    for _ in range(max_iterations):
        decision, slack = restricted(A[working], b[working])
        values = A @ decision + b
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
            raise SolverInternalError("exchange stalled on an already-admitted row")
        working.append(worst)
    return SolveResult(
        slack=slack,
        decision=decision,
        status=STATUS_ITERATION_LIMIT,
        active_rows=np.empty(0, dtype=int),
    )


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
        raise SolverInternalError(f"LP backend returned status {result.status}: {result.message}")
    return result.x[:-1], float(result.x[-1])


def solve(rows: np.ndarray, offsets: np.ndarray) -> SolveResult:
    """Minimise the row maximum by constraint generation over HiGHS solves.

    Every round admits a row not yet in the working set, so the exchange
    converges within one round per row and never reports an iteration limit.
    """
    A, b = _validate(rows, offsets)
    return _exchange(A, b, _restricted_highs, max_iterations=A.shape[0])


# --------------------------------------------------------------------------
# Independent restricted solver: dense two-phase simplex.
# --------------------------------------------------------------------------


def _pivot_loop(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list, max_pivots: int):
    """Primal simplex iterations over an explicit basis (mutated in place).

    Bland's rule with tolerances scaled to the rounding noise of the dual
    solve, so a column whose true reduced cost is zero is never mistaken for
    an improving one.  Returns (basic values, "optimal" | "unbounded").
    """
    m, total = A.shape
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    eps = np.finfo(float).eps
    for _ in range(max_pivots):
        B = A[:, basis]
        try:
            values = np.linalg.solve(B, b)
            dual = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverInternalError("singular basis in direct solver") from exc
        reduced = c - dual @ A
        noise = eps * (np.abs(dual) @ np.abs(A) + np.abs(c) + 1.0)
        entering = -1
        for j in range(total):
            if not in_basis[j] and reduced[j] < -max(1e-9, 64.0 * noise[j]):
                entering = j
                break
        if entering < 0:
            if float(values.min()) < -1e-6:
                raise SolverInternalError("pivot loop terminated at an infeasible basis")
            return values, "optimal"
        direction = np.linalg.solve(B, A[:, entering])
        positive = direction > 1e-10
        if not positive.any():
            return values, "unbounded"
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(values[positive], 0.0) / direction[positive]
        best = float(ratios.min())
        # admit only exact ties: a fuzzy window lets a non-blocking row leave
        # and drives the true blocking row's basic value negative
        leave = min(
            (i for i in range(m) if positive[i] and ratios[i] == best),
            key=lambda i: basis[i],
        )
        in_basis[basis[leave]] = False
        in_basis[entering] = True
        basis[leave] = entering
    raise SolverInternalError("direct solver exceeded its pivot budget")


def _simplex_standard(cost: np.ndarray, Aeq: np.ndarray, beq: np.ndarray, max_pivots: int = 20000):
    """Dense two-phase simplex: ``min cost . z  s.t.  Aeq z = beq, z >= 0``.

    Phase one minimises artificial infeasibility, artificials are then driven
    out of the basis (redundant rows are dropped), and phase two optimises
    the real cost.  Returns the optimal ``z``, or None when the problem is
    unbounded.  Problem sizes here are a few dozen rows, so the naive
    refactor-every-pivot approach is fine.
    """
    m, n = Aeq.shape
    A = Aeq.copy()
    b = beq.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    full = np.hstack([A, np.eye(m)])
    basis = list(range(n, n + m))

    phase_one = np.concatenate([np.zeros(n), np.ones(m)])
    values, status = _pivot_loop(full, b, phase_one, basis, max_pivots)
    if status != "optimal":
        raise SolverInternalError("phase-one subproblem cannot be unbounded")
    infeasibility = sum(
        float(values[i]) for i in range(m) if basis[i] >= n and values[i] > 0
    )
    if infeasibility > 1e-8 * max(1.0, float(np.abs(b).max())):
        raise SolverInternalError("direct solver found the system infeasible")

    # Drive leftover artificials out of the basis; rows that admit no real
    # pivot column are redundant and get dropped.
    redundant = []
    for i in range(m):
        if basis[i] < n:
            continue
        B = full[:, basis]
        w = np.linalg.solve(B.T, np.eye(m)[i])
        row = w @ full[:, :n]
        in_basis = set(basis)
        candidates = [
            j for j in range(n) if j not in in_basis and abs(row[j]) > 1e-8
        ]
        if candidates:
            basis[i] = candidates[0]
        else:
            redundant.append(i)
    if redundant:
        keep = [i for i in range(m) if i not in redundant]
        full = full[keep]
        b = b[keep]
        basis = [basis[i] for i in keep]

    values, status = _pivot_loop(full[:, :n], b, cost, basis, max_pivots)
    if status != "optimal":
        return None
    z = np.zeros(n)
    z[basis] = values
    return z


def _restricted_minmax(A_w: np.ndarray, b_w: np.ndarray):
    """Exact minimax over the working-set rows.

    The decision is split into positive parts and a symmetric box of width
    ``_ARTIFICIAL_BOX`` keeps the subproblem bounded, so the simplex always
    terminates at a vertex.  Returns (decision, slack).
    """
    k, width = A_w.shape
    box = np.vstack([np.eye(width), -np.eye(width)])
    A_all = np.vstack([A_w, box])
    b_all = np.concatenate([b_w, np.full(2 * width, -_ARTIFICIAL_BOX)])
    total = A_all.shape[0]

    # variables z = [v+, v-, s+, s-, slacks]; rows: A v - s + t = -b
    Aeq = np.hstack(
        [A_all, -A_all, -np.ones((total, 1)), np.ones((total, 1)), np.eye(total)]
    )
    beq = -b_all
    cost = np.zeros(Aeq.shape[1])
    cost[2 * width] = 1.0
    cost[2 * width + 1] = -1.0
    z = _simplex_standard(cost, Aeq, beq)
    if z is None:
        raise SolverInternalError("boxed subproblem reported unbounded")
    decision = z[:width] - z[width : 2 * width]
    slack = float(np.max(A_all @ decision + b_all))
    return decision, slack


def solve_minmax_direct(
    rows: np.ndarray, offsets: np.ndarray, max_iterations: int = 500
) -> SolveResult:
    """Minimise the row maximum by constraint generation over dense simplex solves.

    Independent of the LP backend in its arithmetic; intended as a
    cross-check of :func:`solve`.
    """
    A, b = _validate(rows, offsets)
    return _exchange(A, b, _restricted_minmax, max_iterations)
