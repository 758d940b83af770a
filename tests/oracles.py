"""Brute-force oracles shared by the solver and acceptance tests."""

import itertools
import math

import numpy as np
from scipy import integrate
from scipy.optimize import linprog

from physbc.solver import FEASIBILITY_TOL, OPTIMALITY_TOL, STATUS_OPTIMAL, SolveResult


def minimax_by_vertices(rows, offsets, feas_tol=1e-7):
    """Exact minimax optimum by enumerating vertices of the epigraph polytope.

    Lifts ``min_v max_i (a_i . v + b_i)`` to the LP ``min s`` over
    ``A v - s <= -b``, solves every (d+1)-subset of tight rows, and keeps the
    best feasible vertex.  Exponential, so only usable on small instances;
    returns (slack, decision) or None when no feasible vertex exists (an
    unbounded or degenerate instance).
    """
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.asarray(offsets, dtype=float)
    m, d = A.shape
    lifted = np.hstack([A, -np.ones((m, 1))])
    rhs = -b
    k = d + 1
    if m < k:
        return None

    idx = np.array(list(itertools.combinations(range(m), k)))
    mats = lifted[idx]  # (combos, k, k)
    dets = np.linalg.det(mats)
    scale = np.abs(mats).max(axis=(1, 2))
    good = np.abs(dets) > 1e-10 * np.maximum(scale, 1.0) ** k
    if not good.any():
        return None
    solutions = np.linalg.solve(mats[good], rhs[idx[good]][:, :, None])[:, :, 0]
    values = lifted @ solutions.T  # (m, candidates)
    margin = feas_tol * np.maximum(1.0, np.abs(rhs))[:, None]
    feasible = np.all(values <= rhs[:, None] + margin, axis=0)
    if not feasible.any():
        return None
    slacks = solutions[feasible, -1]
    best = int(np.argmin(slacks))
    return float(slacks[best]), solutions[feasible][best, :d]


def minimax_full_lp(rows, offsets):
    """One-shot HiGHS solve of the whole epigraph LP ``min s`` over ``A v - s <= -b``.

    Hands every row to the backend at once, with the decision unbounded, and
    reports the backend's own slack: a drop-in for :func:`physbc.solver.solve`
    on bounded instances that shares only the backend with it.  Active rows
    follow the solver's rule: within 1e-6 (relative to the slack) of the optimum.
    """
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.atleast_1d(np.asarray(offsets, dtype=float))
    count, width = A.shape
    objective = np.zeros(width + 1)
    objective[-1] = 1.0
    result = linprog(
        objective,
        A_ub=np.hstack([A, -np.ones((count, 1))]),
        b_ub=-b,
        bounds=[(None, None)] * (width + 1),
        method="highs",
        options={
            "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "dual_feasibility_tolerance": OPTIMALITY_TOL,
        },
    )
    if result.status != 0:
        raise RuntimeError(f"full LP did not solve: {result.message}")
    decision = result.x[:-1]
    slack = float(result.x[-1])
    values = A @ decision + b
    active = np.nonzero(values >= slack - 1e-6 * max(1.0, abs(slack)))[0]
    return SolveResult(slack, decision, STATUS_OPTIMAL, active)


def random_bounded_instance(rng, variables, extra_rows, bound=10.0):
    """Random minimax instance kept bounded by a symmetric box on every variable."""
    box = np.vstack([np.eye(variables), -np.eye(variables)])
    box_offsets = np.full(2 * variables, -bound)
    A = rng.normal(size=(extra_rows, variables))
    b = rng.normal(size=extra_rows)
    return np.vstack([A, box]), np.concatenate([b, box_offsets])


def beta_inc_by_quadrature(nu, lam, gam):
    """Independent check: normalized incomplete beta via adaptive quadrature."""
    log_norm = (math.lgamma(lam + gam) - math.lgamma(lam) - math.lgamma(gam))

    def density(t):
        return math.exp(log_norm + (lam - 1.0) * math.log(t)
                        + (gam - 1.0) * math.log1p(-t))

    peak = lam / (lam + gam)
    points = [p for p in (peak / 2, peak, min(2 * peak, nu * 0.999)) if 0 < p < nu]
    value, _ = integrate.quad(density, 0.0, nu, points=points or None,
                              epsabs=1e-13, epsrel=1e-11, limit=200)
    return value
