"""Brute-force and former-kernel oracles shared by the tests."""

import itertools
import json
import math
import os

import numpy as np
from scipy import integrate
from scipy.optimize import linprog

from physbc.errors import (
    DatasetParseError,
    DegenerateDataError,
    InvalidStateError,
    ModelMismatchError,
)
from physbc.lipschitz import (
    METHOD_EXTREME,
    METHOD_PAIRWISE,
    LipschitzEstimate,
    _reverse_weibull_location,
)
from physbc.models import RegionBox, SafetyCheck
from physbc.sampling import Dataset
from physbc.solver import FEASIBILITY_TOL, OPTIMALITY_TOL, STATUS_OPTIMAL, SolveResult


def basis_matrix_pow(template, states):
    """Every monomial through a float power and a product over the axes.

    The former kernel of :meth:`physbc.barrier.BarrierTemplate.basis_matrix`:
    one ``pow`` per element of an ``(N, z, n)`` temporary.
    """
    x = np.atleast_2d(np.asarray(states, dtype=float))
    powers = np.asarray(template.exponents, dtype=float)  # (z, n)
    return np.prod(x[:, None, :] ** powers[None, :, :], axis=2)


def basis_matrix_repeated(template, states):
    """Every monomial by plain left-to-right multiplication in Python floats.

    Per state and monomial: each axis with a positive exponent ``e`` gives
    ``x * x * ... * x`` (``e`` factors), and those powers are multiplied in
    axis order; a monomial with no such axis is 1.0.
    """
    x = np.atleast_2d(np.asarray(states, dtype=float))
    out = np.empty((len(x), template.size))
    for r, state in enumerate(x.tolist()):
        for c, exponents in enumerate(template.exponents):
            value = None
            for coord, e in zip(state, exponents):
                if e == 0:
                    continue
                power = coord
                for _ in range(e - 1):
                    power = power * coord
                value = power if value is None else value * power
            out[r, c] = 1.0 if value is None else value
    return out


def assemble_vstack(template, decay, data, initial_samples, unsafe_samples,
                    coeff_bound=100.0, level_gap_row=True, initial_level=1e-4):
    """The constraint stack built family by family and joined with ``vstack``.

    The former body of :func:`physbc.barrier.assemble`, without its input
    checks.  Returns ``(rows, offsets, tags, aux_rows, aux_offsets,
    aux_tags)``; the solver saw ``vstack``/``concatenate`` of the two parts.
    """
    x0 = np.asarray(initial_samples, dtype=float).reshape(-1, template.dimension)
    xu = np.asarray(unsafe_samples, dtype=float).reshape(-1, template.dimension)
    width = 1 + template.size

    initial_block = np.zeros((len(x0), width))
    if len(x0):
        initial_block[:, 1:] = template.basis_matrix(x0)
    unsafe_block = np.zeros((len(xu), width))
    unsafe_block[:, 0] = 1.0
    if len(xu):
        unsafe_block[:, 1:] = -template.basis_matrix(xu)
    flow_block = np.zeros((data.count, width))
    if data.count:
        flow_block[:, 1:] = template.basis_matrix(data.successors) - decay * template.basis_matrix(
            data.states
        )
    rows = np.vstack([initial_block, unsafe_block, flow_block])
    offsets = np.zeros(len(rows))
    offsets[: len(x0)] = -initial_level
    tags = np.concatenate([
        np.full(len(x0), "initial"), np.full(len(xu), "unsafe"), np.full(data.count, "flow"),
    ])

    aux_rows, aux_offsets, aux_tags = [], [], []
    if coeff_bound is not None:
        eye = np.eye(width)
        for j in range(width):
            aux_rows.extend([eye[j], -eye[j]])
            aux_offsets.extend([-coeff_bound, -coeff_bound])
            aux_tags.extend(["bound", "bound"])
    if level_gap_row:
        gap = np.zeros(width)
        gap[0] = -1.0
        aux_rows.append(gap)
        aux_offsets.append(float(initial_level))
        aux_tags.append("gap")
    return (
        rows,
        offsets,
        tags,
        np.asarray(aux_rows, dtype=float).reshape(-1, width),
        np.asarray(aux_offsets, dtype=float),
        np.asarray(aux_tags, dtype=str),
    )


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


def pair_slopes_whole_array(values, dataset, config):
    """Finite-difference slopes over random distinct sample pairs, all at once.

    Draws the pairs as :mod:`physbc.lipschitz` does, then compresses the index
    arrays twice and builds every slope: the straightforward form of the
    streamed kernel.
    """
    if values.barrier.shape != (dataset.count,) or values.flow.shape != (dataset.count,):
        raise ModelMismatchError("sample values and dataset sizes differ")
    if dataset.count < 2:
        raise DegenerateDataError("need at least two states to form slope pairs")
    barrier_vals, flow_vals = values

    rng = np.random.default_rng(config.seed)
    left = rng.integers(0, dataset.count, size=config.pair_budget)
    right = rng.integers(0, dataset.count, size=config.pair_budget)
    keep = left != right
    left, right = left[keep], right[keep]
    gaps = np.linalg.norm(dataset.states[left] - dataset.states[right], axis=1)
    keep = gaps > 0.0
    if not keep.any():
        raise DegenerateDataError("all drawn state pairs coincide")
    left, right, gaps = left[keep], right[keep], gaps[keep]
    barrier_slopes = np.abs(barrier_vals[left] - barrier_vals[right]) / gaps
    flow_slopes = np.abs(flow_vals[left] - flow_vals[right]) / gaps
    return barrier_slopes, flow_slopes


def pairwise_whole_array(values, dataset, config):
    """Drop-in for :func:`physbc.lipschitz.estimate_pairwise` on whole slope arrays."""
    barrier_slopes, flow_slopes = pair_slopes_whole_array(values, dataset, config)
    return LipschitzEstimate(
        barrier=config.multiplier * float(barrier_slopes.max()),
        flow=config.multiplier * float(flow_slopes.max()),
        method=METHOD_PAIRWISE,
        samples_used=barrier_slopes.size,
        safety_multiplier=config.multiplier,
    )


def extreme_value_whole_array(values, dataset, config):
    """Drop-in for :func:`physbc.lipschitz.estimate_extreme_value` on whole slope arrays."""
    barrier_slopes, flow_slopes = pair_slopes_whole_array(values, dataset, config)
    if barrier_slopes.size < 2 * config.batches:
        raise DegenerateDataError("too few slope observations for the batches")
    batch_size = barrier_slopes.size // config.batches
    used = config.batches * batch_size

    def endpoint(slopes):
        maxima = slopes[:used].reshape(config.batches, batch_size).max(axis=1)
        return max(_reverse_weibull_location(maxima, config.shape), float(slopes.max()))

    return LipschitzEstimate(
        barrier=endpoint(barrier_slopes),
        flow=endpoint(flow_slopes),
        method=METHOD_EXTREME,
        samples_used=used,
        safety_multiplier=1.0,
    )


def pairwise_all_pairs(certificate, dataset):
    """Largest barrier and flow slopes over every pair of distinct sample states.

    Builds all ``N (N - 1) / 2`` pairs, so only usable on small datasets: the
    exact sample maximum, before any multiplier, that
    :func:`physbc.lipschitz.estimate_pairwise` claims in 1-D.
    """
    barrier_vals = certificate.evaluate(dataset.states)
    flow_vals = certificate.evaluate(dataset.successors) - certificate.decay * barrier_vals
    left, right = np.triu_indices(dataset.count, k=1)
    gaps = np.linalg.norm(dataset.states[left] - dataset.states[right], axis=1)
    keep = gaps > 0.0
    if not keep.any():
        raise DegenerateDataError("all sample states coincide")
    left, right, gaps = left[keep], right[keep], gaps[keep]
    barrier = np.abs(barrier_vals[left] - barrier_vals[right]) / gaps
    flow = np.abs(flow_vals[left] - flow_vals[right]) / gaps
    return float(barrier.max()), float(flow.max())


def safety_by_step_many(model, initial, unsafe, trajectories=1000, horizon=500, seed=0):
    """Drop-in for :func:`physbc.models.check_safety_empirically` built from public calls.

    Advances the batch with ``model.step_many`` and tests membership with
    ``unsafe.contains`` at every step.
    """
    if initial.dimension != model.dimension or unsafe.dimension != model.dimension:
        raise InvalidStateError("region dimension does not match the model")
    rng = np.random.default_rng(seed)
    states = rng.uniform(initial.lower, initial.upper, size=(trajectories, model.dimension))
    first_hit = np.full(trajectories, -1, dtype=int)
    hit_state = np.zeros((trajectories, model.dimension))

    def record(step, batch):
        inside = unsafe.contains(batch)
        fresh = inside & (first_hit < 0)
        first_hit[fresh] = step
        hit_state[fresh] = batch[fresh]

    record(0, states)
    for k in range(1, horizon + 1):
        states = model.step_many(states)
        record(k, states)

    violating = np.nonzero(first_hit >= 0)[0]
    events = tuple((int(i), int(first_hit[i]), hit_state[i].copy()) for i in violating)
    return SafetyCheck(
        trajectories=trajectories,
        horizon=horizon,
        violation_count=len(events),
        violations=events,
    )


def _sidecar(path):
    return os.path.splitext(path)[0] + ".meta.json"


def save_dataset_rowwise(dataset, path):
    """Drop-in for :func:`physbc.sampling.save_dataset` that formats one value at a time."""
    n = dataset.dimension
    header = ",".join([f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)])
    rows = np.hstack([dataset.states, dataset.successors])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    meta = {
        "scheme": dataset.scheme,
        "seed": dataset.seed,
        "domain": dataset.domain.to_dict(),
        "count": dataset.count,
        "dimension": n,
        "filtered": dataset.filtered,
    }
    with open(_sidecar(path), "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset_rowwise(path):
    """Drop-in for :func:`physbc.sampling.load_dataset` that parses one line at a time."""
    sidecar = _sidecar(path)
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
        expected = ",".join([f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)])
        if header != expected:
            raise DatasetParseError(f"expected header {expected!r}, got {header!r}", line=1)
        row = 0
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if row >= count:
                raise DatasetParseError("more data rows than the sidecar count", line=lineno)
            parts = line.split(",")
            if len(parts) != 2 * n:
                raise DatasetParseError(
                    f"expected {2 * n} columns, got {len(parts)}", line=lineno
                )
            try:
                values[row] = [float(p) for p in parts]
            except ValueError as exc:
                raise DatasetParseError(str(exc), line=lineno) from exc
            row += 1
    if row != count:
        raise DatasetParseError(f"sidecar promises {count} rows, file has {row}")
    return Dataset(values[:, :n], values[:, n:], scheme, domain, seed=seed, filtered=filtered)
