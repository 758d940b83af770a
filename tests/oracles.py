"""Brute-force and former-kernel oracles shared by the tests."""

import itertools
import json
import math
import operator
import os
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import integrate
from scipy.optimize import linprog

from physbc.barrier import basis_matrix, bernstein_rows
from physbc.errors import DatasetParseError, PhysbcError
from physbc.lipschitz import (
    METHOD_EXTREME,
    METHOD_PAIRWISE,
    LipschitzEstimate,
    _reverse_weibull_location,
)
from physbc.models import RegionBox, SafetyCheck
from physbc.sampling import SCHEME_IID, Dataset, _read_sidecar, _successors
from physbc.solver import (
    FEASIBILITY_TOL,
    OPTIMALITY_TOL,
    STATUS_OPTIMAL,
    RowSystem,
    SolveResult,
    _exchange,
    _restricted_minmax,
)


def basis_matrix_pow(states, degree):
    """Every monomial through a float power.

    The former kernel of :func:`physbc.barrier.basis_matrix`: one ``pow`` per
    element of an ``(N, degree + 1)`` temporary.
    """
    x = np.asarray(states, dtype=float)
    return x[:, None] ** np.arange(degree, -1, -1, dtype=float)[None, :]


def basis_matrix_repeated(states, degree):
    """Every monomial by plain left-to-right multiplication in Python floats.

    Per state and exponent ``e > 0``: ``x * x * ... * x`` (``e`` factors);
    exponent 0 is 1.0.  Column ``c`` holds ``x^(degree - c)``.
    """
    out = np.empty((len(states), degree + 1))
    for r, x in enumerate(np.asarray(states, dtype=float).tolist()):
        for c, e in enumerate(range(degree, -1, -1)):
            value = 1.0
            if e:
                value = x
                for _ in range(e - 1):
                    value = value * x
            out[r, c] = value
    return out


def horner(coefficients, t):
    """``B(t)`` by Horner's rule in plain Python floats, highest power first.

    ``v = c_0 * t``, then ``v = (v + c_j) * t`` for ``j = 1, ..., d - 1``,
    and last ``v + c_d``; ``c_0`` alone at degree 0.
    """
    c = list(coefficients)
    if len(c) == 1:
        return c[0]
    v = c[0] * t
    for cj in c[1:-1]:
        v = (v + cj) * t
    return v + c[-1]


def sample_values_horner(certificate, data):
    """The flow expression ``B(y) - decay * B(x)`` pair by pair in plain Python
    floats, each ``B`` by :func:`horner`."""
    c, decay = certificate.coefficients.tolist(), certificate.decay
    return np.array([horner(c, y) - decay * horner(c, x)
                     for x, y in zip(data.states.tolist(), data.successors.tolist())],
                    dtype=float)


def column_sums(rows, coefficients):
    """``rows @ coefficients`` row by row in plain Python floats, each sum
    taken from its first column to its last."""
    sums = []
    for row in np.asarray(rows).tolist():
        total = row[0] * coefficients[0]
        for value, cj in zip(row[1:], coefficients[1:]):
            total = total + value * cj
        sums.append(total)
    return np.array(sums, dtype=float)


def assemble_vstack(degree, decay, data, initial_region, unsafe_region, coeff_bound=100.0):
    """The constraint stack built family by family and joined with ``vstack``.

    The former body of :func:`physbc.barrier.assemble`, without its input
    checks, with the region blocks built from
    :func:`physbc.barrier.bernstein_rows`, and with the bound rows and the
    level-gap row that every system carries.  Returns ``(rows, offsets,
    tags)``, the families in the order of :data:`physbc.barrier.FAMILIES`:
    the region rows, the bound rows and the gap row, then the flow rows.
    """
    initial_level = 1e-4  # the pinned level, written out here rather than imported
    x0 = bernstein_rows(degree, initial_region)
    xu = bernstein_rows(degree, unsafe_region)
    width = 2 + degree

    initial_block = np.zeros((len(x0), width))
    initial_block[:, 1:] = x0
    unsafe_block = np.zeros((len(xu), width))
    unsafe_block[:, 0] = 1.0
    unsafe_block[:, 1:] = -xu
    flow_block = np.zeros((data.count, width))
    if data.count:
        flow_block[:, 1:] = (basis_matrix(data.successors, degree)
                             - decay * basis_matrix(data.states, degree))

    aux_rows, aux_offsets, aux_tags = [], [], []
    eye = np.eye(width)
    for j in range(width):
        aux_rows.extend([eye[j], -eye[j]])
        aux_offsets.extend([-coeff_bound, -coeff_bound])
        aux_tags.extend(["bound", "bound"])
    gap = np.zeros(width)
    gap[0] = -1.0
    aux_rows.append(gap)
    aux_offsets.append(float(initial_level))
    aux_tags.append("gap")

    rows = np.vstack([initial_block, unsafe_block, np.asarray(aux_rows, dtype=float),
                      flow_block])
    offsets = np.concatenate([
        np.full(len(x0), -initial_level), np.zeros(len(xu)),
        np.asarray(aux_offsets, dtype=float), np.zeros(data.count),
    ])
    tags = np.concatenate([
        np.full(len(x0), "initial"), np.full(len(xu), "unsafe"), np.asarray(aux_tags),
        np.full(data.count, "flow"),
    ])
    return rows, offsets, tags


def bernstein_rows_exact(degree, region):
    """Drop-in for :func:`physbc.barrier.bernstein_rows` in exact rational arithmetic.

    Substitutes ``x = a + h t`` with ``a``, ``h`` the exact values of the
    float bounds, expands ``(a + h t)^e`` by the binomial theorem, and
    converts each ``t^m`` to the degree-``d`` Bernstein basis by ``t^m =
    sum_{k >= m} C(k, m) / C(d, m) B_k``.  Everything is a ``Fraction`` until
    the final rounding to float.
    """
    a = Fraction(region.lower)
    h = Fraction(region.upper) - a
    table = [[Fraction(0)] * (degree + 1) for _ in range(degree + 1)]  # [k][e]
    for e in range(degree + 1):
        for m in range(e + 1):
            term = math.comb(e, m) * a ** (e - m) * h ** m
            for k in range(m, degree + 1):
                table[k][e] += term * Fraction(math.comb(k, m), math.comb(degree, m))
    return np.array([[float(table[k][e]) for e in range(degree, -1, -1)]
                     for k in range(degree + 1)])


def bernstein_rows_accumulate(degree, region):
    """Former :func:`physbc.barrier.bernstein_rows`, which made the end powers with
    ``itertools.accumulate`` where the shipped one reads them from the basis matrix."""
    lo, hi = (list(itertools.accumulate([end] * degree, operator.mul, initial=1.0))
              for end in (region.lower, region.upper))
    table = np.array([
        [sum(math.comb(k, j) * math.comb(degree - k, e - j) / math.comb(degree, e)
             * hi[j] * lo[e - j]
             for j in range(max(0, e - degree + k), min(k, e) + 1))
         for e in range(degree + 1)]
        for k in range(degree + 1)
    ])
    return table[:, ::-1]


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
    on bounded instances that shares no code with it (and only the backend
    with the cross-check :func:`physbc.solver.solve_minmax_direct`).  Active rows
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


def minimax_cold_start(rows, offsets):
    """:func:`physbc.solver.solve` with every round started cold: the same
    exchange, with each restricted dual simplex started from the
    largest-offset basis instead of the previous round's optimal basis."""
    return _exchange(RowSystem.stack(rows, offsets),
                     lambda A_w, b_w: _restricted_minmax(A_w, b_w)[:2])


def dense(system):
    """The dense ``(rows, offsets)`` stack of a compact row system, row for row.

    Built from the system's parts alone: the head rows, then one row ``[0,
    flow[i], flow_constant]`` with offset 0 per flow row.
    """
    flow = np.zeros((len(system.flow), system.head.shape[1]))
    flow[:, 1:-1] = system.flow
    flow[:, -1] = system.flow_constant
    return (np.vstack([system.head, flow]),
            np.concatenate([system.head_offsets, np.zeros(len(flow))]))


def evaluate_rows(system, decision):
    """Every row of a compact row system at ``decision``, the whole system at
    once, as the exchange evaluated it before it bounded blocks of flow rows:
    one matrix-vector product for the head, and the flow rows elementwise as
    ``c_1 u_1 + ... + c_d u_d + c_0 flow_constant`` in the order of
    :func:`physbc.solver._flow_values`, ``u_e`` the column of ``x^e``."""
    h, d = len(system.head), system.flow.shape[1]
    out = np.empty(system.count)
    np.matmul(system.head, decision, out=out[:h])
    out[:h] += system.head_offsets
    values = out[h:]
    if d:
        np.multiply(system.flow[:, d - 1], decision[d], out=values)
    else:
        values.fill(0.0)
    for j in range(d - 2, -1, -1):
        values += system.flow[:, j] * decision[1 + j]
    values += decision[-1] * system.flow_constant
    return out


def random_bounded_instance(rng, variables, extra_rows, bound=10.0):
    """Random minimax instance kept bounded by a symmetric box on every variable."""
    box = np.vstack([np.eye(variables), -np.eye(variables)])
    box_offsets = np.full(2 * variables, -bound)
    A = rng.normal(size=(extra_rows, variables))
    b = rng.normal(size=extra_rows)
    return np.vstack([A, box]), np.concatenate([b, box_offsets])


def binomial_tail(level, decision_count, retained_count):
    """Scenario tail ``sum_{i < c} C(P, i) level^i (1 - level)^(P - i)`` in 60 digits.

    ``Decimal(level)`` is the float's exact value and ``math.comb`` an exact
    integer, so the 60-digit arithmetic is the only rounding.  Returns a
    ``Decimal``; compare it with ``Decimal(risk)``.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        eps = Decimal(level)
        rest = 1 - eps
        return sum(
            math.comb(retained_count, i) * eps**i * rest ** (retained_count - i)
            for i in range(decision_count)
        )


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


def pair_slopes_whole_array(flow, dataset, config):
    """Finite-difference flow slopes over random distinct sample pairs, all at once.

    Draws the pairs as :mod:`physbc.lipschitz` does, then compresses the index
    arrays twice and builds every slope: the straightforward form of the
    streamed kernel.
    """
    if flow.shape != (dataset.count,):
        raise PhysbcError("sample values and dataset sizes differ")
    if dataset.count < 2:
        raise PhysbcError("need at least two states to form slope pairs")

    rng = np.random.default_rng(config.seed)
    left = rng.integers(0, dataset.count, size=config.pair_budget)
    right = rng.integers(0, dataset.count, size=config.pair_budget)
    keep = left != right
    left, right = left[keep], right[keep]
    # the Euclidean distance of one-column states, as the estimators once took it
    gaps = np.linalg.norm((dataset.states[left] - dataset.states[right])[:, None], axis=1)
    keep = gaps > 0.0
    if not keep.any():
        raise PhysbcError("all drawn state pairs coincide")
    left, right, gaps = left[keep], right[keep], gaps[keep]
    return np.abs(flow[left] - flow[right]) / gaps


def pairwise_whole_array(flow, dataset, config):
    """The largest flow slope over random pairs, as a :class:`LipschitzEstimate`.

    A lower bound on the exact all-pairs maximum of
    :func:`physbc.lipschitz.estimate_pairwise`, which draws no pairs.
    """
    slopes = pair_slopes_whole_array(flow, dataset, config)
    return LipschitzEstimate(
        flow=config.multiplier * float(slopes.max()),
        method=METHOD_PAIRWISE,
        samples_used=slopes.size,
        safety_multiplier=config.multiplier,
    )


def extreme_value_whole_array(flow, dataset, config):
    """Drop-in for :func:`physbc.lipschitz.estimate_extreme_value` on a whole slope array."""
    slopes = pair_slopes_whole_array(flow, dataset, config)
    if slopes.size < 2 * config.batches:
        raise PhysbcError(
            f"{slopes.size} slope observations cannot fill "
            f"{config.batches} batches of at least 2"
        )
    batch_size = slopes.size // config.batches
    used = config.batches * batch_size
    maxima = slopes[:used].reshape(config.batches, batch_size).max(axis=1)
    return LipschitzEstimate(
        flow=max(_reverse_weibull_location(maxima, config.shape), float(slopes.max())),
        method=METHOD_EXTREME,
        samples_used=used,
        safety_multiplier=1.0,
    )


def pairwise_all_pairs(certificate, dataset):
    """Largest flow slope over every pair of distinct sample states.

    Builds all ``N (N - 1) / 2`` pairs, so only usable on small datasets: the
    exact sample maximum, before any multiplier, that
    :func:`physbc.lipschitz.estimate_pairwise` claims.
    """
    barrier_vals = certificate.evaluate(dataset.states)
    flow_vals = certificate.evaluate(dataset.successors) - certificate.decay * barrier_vals
    left, right = np.triu_indices(dataset.count, k=1)
    gaps = np.abs(dataset.states[left] - dataset.states[right])
    keep = gaps > 0.0
    if not keep.any():
        raise PhysbcError("all sample states coincide")
    left, right, gaps = left[keep], right[keep], gaps[keep]
    return float((np.abs(flow_vals[left] - flow_vals[right]) / gaps).max())


def step_many_matmul(model, states):
    """The former body of :meth:`physbc.models.SystemModel.step_many`.

    The scalar terms as the ``1x1`` and ``1x1x1`` arrays of a one-axis model:
    one ``matmul`` for the linear part, one ``einsum`` for the quadratic form
    and the perturbation written out as ``A sin(2 pi nu x)``.
    """
    x = np.asarray(states, dtype=float)[:, None]
    y = x @ np.array([[model.linear]]).T + np.array([model.offset])
    if model.quadratic is not None:
        y = y + np.einsum("ni,kij,nj->nk", x, np.array([[[model.quadratic]]]), x)
    if model.amplitude:
        y = y + model.amplitude * np.sin(2.0 * np.pi * model.frequency * x)
    return y[:, 0]


def neighbour_maxima_grouped(flow, dataset):
    """The former body of :func:`physbc.lipschitz._neighbour_maxima`.

    Always groups equal coordinates with ``reduceat``, also when every state
    is distinct.  Returns ``(flow slope, adjacent group pairs)``.
    """
    coords = dataset.states
    order = np.argsort(coords)
    coords = coords[order]
    fresh = np.empty(coords.size, dtype=bool)
    fresh[0] = True
    np.not_equal(coords[1:], coords[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    gaps = np.diff(coords[starts])
    family = flow[order]
    lo = np.minimum.reduceat(family, starts)
    hi = np.maximum.reduceat(family, starts)
    rise = np.maximum(np.abs(hi[1:] - lo[:-1]), np.abs(lo[1:] - hi[:-1]))
    return float((rise / gaps).max()), starts.size - 1


def sample_iid_in_draw_order(model, domain, count, seed):
    """The former body of :func:`physbc.sampling.sample_iid`: the same draws, unsorted.

    The pairs stay in the order numpy's uniform stream gives them, as the
    datasets of earlier releases hold them.
    """
    states = np.random.default_rng(seed).uniform(domain.lower, domain.upper, size=count)
    return Dataset(states, _successors(model, states), SCHEME_IID, domain, seed=seed)


def safety_by_step_many(model, initial, unsafe, trajectories, horizon, seed):
    """Drop-in for :func:`physbc.models.check_safety_empirically` built from public calls.

    Advances the batch with ``model.step_many`` and tests membership with
    ``unsafe.contains`` at every step.
    """
    rng = np.random.default_rng(seed)
    states = rng.uniform(initial.lower, initial.upper, size=trajectories)
    hit = unsafe.contains(states)
    for _ in range(horizon):
        states = model.step_many(states)
        hit |= unsafe.contains(states)
    return SafetyCheck(
        trajectories=trajectories, horizon=horizon, violation_count=int(np.count_nonzero(hit))
    )


def _sidecar(path):
    return os.path.splitext(path)[0] + ".meta.json"


def save_dataset_rowwise(dataset, path):
    """Drop-in for :func:`physbc.sampling.save_dataset` that formats one value at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x_1,y_1\n")
        for x, y in zip(dataset.states.tolist(), dataset.successors.tolist()):
            fh.write(f"{x:.17g},{y:.17g}\n")
    meta = {
        "scheme": dataset.scheme,
        "seed": dataset.seed,
        "domain": {"lower": [dataset.domain.lower], "upper": [dataset.domain.upper]},
        "count": dataset.count,
        "dimension": 1,
    }
    with open(_sidecar(path), "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset_rowwise(path):
    """Drop-in for :func:`physbc.sampling.load_dataset` that parses one line at a time.

    The sidecar goes through the loader's own checks; the body is what this
    oracle reads independently.
    """
    domain, scheme, count, seed = _read_sidecar(path)
    values = np.empty((count, 2))
    # latin-1 maps each byte to one character, so a byte that is not ASCII is
    # found on its own line
    with open(path, "r", encoding="latin-1") as fh:
        header = fh.readline().rstrip("\n")
        expected = "x_1,y_1"
        if header != expected:
            raise DatasetParseError(f"expected header {expected!r}, got {header!r}", line=1)
        row = 0
        for lineno, line in enumerate(fh, start=2):
            high = [c for c in line if ord(c) > 0x7f]
            if high:
                raise DatasetParseError(f"byte 0x{ord(high[0]):02x} is not ASCII", line=lineno)
            line = line.strip()
            if not line:
                continue
            if row >= count:
                raise DatasetParseError("more data rows than the sidecar count", line=lineno)
            parts = line.split(",")
            if len(parts) != 2:
                raise DatasetParseError(f"expected 2 columns, got {len(parts)}", line=lineno)
            try:
                values[row] = [float(p) for p in parts]
            except ValueError as exc:
                raise DatasetParseError(str(exc), line=lineno) from exc
            row += 1
    if row != count:
        raise DatasetParseError(f"sidecar promises {count} rows, file has {row}")
    return Dataset(values[:, 0], values[:, 1], scheme, domain, seed=seed)


def _derivative(certificate):
    """``(degree, coefficients)`` of B', one degree below B, or None for a constant B."""
    degree = certificate.degree
    if not degree:
        return None
    # column j of B's basis is x^(degree - j), whose derivative has coefficient degree - j
    scale = np.arange(degree, 0, -1, dtype=float)
    return degree - 1, scale * certificate.coefficients[:-1]


def _derivative_sup(certificate, lower, upper):
    """An upper bound on sup |B'| over ``[lower, upper]``: B''s largest Bernstein coefficient."""
    derivative = _derivative(certificate)
    if derivative is None:
        return 0.0
    degree, coefficients = derivative
    rows = bernstein_rows(degree, RegionBox(lower, upper))
    return float(np.max(np.abs(rows @ coefficients)))


def _truth_slope(truth, x):
    """f'(x) of the truth ``linear x + offset + quadratic x^2 + A sin(2 pi nu x)``."""
    slope = np.full(x.shape, truth.linear)
    if truth.quadratic is not None:
        slope += 2.0 * truth.quadratic * x
    slope += 2.0 * math.pi * truth.frequency * truth.amplitude * np.cos(
        2.0 * math.pi * truth.frequency * x)
    return slope


def truth_flow_bound(config, certificate, points=400_001):
    """A sound upper bound on sup over the domain of g(x) = B(f(x)) - decay B(x).

    ``f`` is ``config.true_model()``.  The bound is the maximum of g on an even
    grid of spacing h plus h/2 times a bound on |g'|, since every point of the
    domain lies within h/2 of a grid point.  |g'| <= sup|B'| on f(D) * L_f +
    decay * sup|B'| on D, each sup|B'| from B''s Bernstein coefficients.  f(D)
    is enclosed by the grid's range of f widened by L_f h on both sides, and
    L_f = |linear| + 2 |quadratic| max|x| + 2 pi nu A bounds |f'| on D.
    """
    truth, domain = config.true_model(), config.domain
    grid = np.linspace(domain.lower, domain.upper, points)
    h = (domain.upper - domain.lower) / (points - 1)
    successors = truth.step_many(grid)
    flow = certificate.evaluate(successors) - certificate.decay * certificate.evaluate(grid)
    lipschitz_f = abs(truth.linear)
    if truth.quadratic is not None:
        lipschitz_f += 2.0 * abs(truth.quadratic) * max(abs(domain.lower), abs(domain.upper))
    lipschitz_f += 2.0 * math.pi * truth.frequency * truth.amplitude
    widen = lipschitz_f * h
    slope = (_derivative_sup(certificate, successors.min() - widen, successors.max() + widen)
             * lipschitz_f
             + certificate.decay * _derivative_sup(certificate, domain.lower, domain.upper))
    return float(flow.max()) + h / 2.0 * slope


def truth_flow_slope(config, certificate, points=400_001):
    """The grid maximum of |g'| for g(x) = B(f(x)) - decay B(x), f = ``config.true_model()``.

    g' = B'(f(x)) f'(x) - decay B'(x) in closed form.  In one dimension g is
    C^1, so its Lipschitz constant on the domain is sup |g'|, and this grid
    maximum is a lower bound on it: a reported flow constant below it is
    unsound on any grid.
    """
    derivative = _derivative(certificate)
    if derivative is None:
        return 0.0
    degree, coefficients = derivative
    truth, domain = config.true_model(), config.domain
    grid = np.linspace(domain.lower, domain.upper, points)

    def b_prime(x):
        return basis_matrix(x, degree) @ coefficients

    slope = b_prime(truth.step_many(grid)) * _truth_slope(truth, grid)
    slope -= certificate.decay * b_prime(grid)
    return float(np.abs(slope).max())
