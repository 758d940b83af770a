"""End-to-end pipeline: synthesise data, filter, fit, estimate, certify.

The stages mirror the package layout: sampling -> filtering -> constraint
assembly -> minimax solve -> Lipschitz estimation -> certification ->
empirical validation.  :func:`run` executes them for one :class:`RunConfig`
and returns both the constituent objects and a JSON-ready report.  Reports
are deterministic for identical configs except for the ``timing`` block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .barrier import (
    BarrierCertificate,
    BarrierTemplate,
    ConstraintSystem,
    ResidualReport,
    assemble,
    check_certificate,
    sample_values,
)
from .certify import (
    CertificationReport,
    GeometryFactor,
    check_deterministic,
    check_probabilistic,
    min_violation_level,
)
from .config import MODE_DETERMINISTIC, MODE_PROBABILISTIC, RunConfig
from .errors import PhysbcError
from .filtering import apply_filter
from .filtering import discrepancy_profile  # noqa: F401  (bench/tracing.py wraps this name)
from .lipschitz import (
    METHOD_EXTREME,
    METHOD_PAIRWISE,
    LipschitzEstimate,
    estimate_extreme_value,
    estimate_pairwise,
)
from .models import RegionBox, SafetyCheck, check_safety_empirically
from .sampling import (
    SCHEME_GRID,
    Dataset,
    covering_radius,
    sample_grid,
    sample_iid,
    save_dataset,
)
from .solver import STATUS_OPTIMAL, SolveResult, solve, solve_minmax_direct

RESIDUAL_TOLERANCE = 1e-7


@dataclass(frozen=True, eq=False)
class RunArtifacts:
    """Everything a run produced, plus the serialisable report."""

    config: RunConfig
    dataset: Dataset
    retained: Dataset
    system: ConstraintSystem
    solve_result: SolveResult
    certificate: BarrierCertificate
    residuals: ResidualReport
    lipschitz: LipschitzEstimate
    certification: CertificationReport
    safety: SafetyCheck
    report: dict


def region_cover(region: RegionBox, per_axis_density: float) -> np.ndarray:
    """Uniform grid over a region at (approximately) the given linear density.

    Density is in points per unit length per axis; every axis keeps at least
    its two endpoints, so covers never degenerate.
    """
    if per_axis_density <= 0:
        raise ValueError("density must be positive")
    return region.grid(
        [max(2, int(math.ceil(length * per_axis_density)) + 1) for length in region.lengths]
    )


def dataset_hash(dataset: Dataset) -> str:
    digest = hashlib.sha256()
    digest.update(dataset.states.tobytes())
    digest.update(dataset.successors.tobytes())
    return digest.hexdigest()


def _grid_counts(total: int, dimension: int) -> int:
    if dimension == 1:
        return total
    return max(2, round(total ** (1.0 / dimension)))


def run(config: RunConfig) -> RunArtifacts:
    config.validate()
    timings: dict = {}
    clock = time.perf_counter

    physics = config.physics_model()
    truth = config.true_model()
    template = BarrierTemplate.from_degree(config.template_degree, physics.dimension)

    # ---- sample the ground truth -------------------------------------------
    t0 = clock()
    if config.sampling.scheme == SCHEME_GRID:
        dataset = sample_grid(truth, config.domain, _grid_counts(config.sampling.count, physics.dimension))
    else:
        dataset = sample_iid(truth, config.domain, config.sampling.count, config.sampling.seed)
    timings["sample"] = clock() - t0

    # ---- physics-consistency filter -----------------------------------------
    t0 = clock()
    filter_report: dict
    if config.filter.enabled:
        outcome = apply_filter(dataset, physics, config.filter.threshold)
        retained = outcome.retained
        max_jump = outcome.max_jump
        jump = None
        if max_jump is not None:
            jump = {"start_index": max_jump[0], "length": max_jump[1]}
        filter_report = {
            "enabled": True,
            "threshold": config.filter.threshold,
            "input_count": dataset.count,
            "retained_count": outcome.retained_count,
            "discarded_count": outcome.discarded_count,
            "retention": outcome.retained_count / dataset.count,
            "max_jump": jump,
        }
    else:
        retained = dataset
        filter_report = {"enabled": False, "input_count": dataset.count}
    timings["filter"] = clock() - t0

    # ---- constraint assembly -------------------------------------------------
    t0 = clock()
    density = _cover_density(config, dataset)
    initial_cover = region_cover(config.initial, density)
    unsafe_cover = region_cover(config.unsafe, density)
    system = assemble(
        template,
        config.decay,
        retained,
        initial_cover,
        unsafe_cover,
        domain=config.domain,
        initial_region=config.initial,
        unsafe_region=config.unsafe,
        coeff_bound=config.solver.coeff_bound,
        level_gap_row=config.solver.level_gap_row,
        initial_level=config.solver.initial_level,
    )
    timings["assemble"] = clock() - t0

    # ---- minimax solve ---------------------------------------------------------
    t0 = clock()
    result = solve(system.rows, system.offsets)
    if result.status != STATUS_OPTIMAL:
        raise PhysbcError(f"scenario program did not solve to optimality: {result.status}")
    certificate = system.certificate_from_decision(result.decision)
    cross: Optional[dict] = None
    if config.solver.cross_check:
        # the HiGHS exchange; its first call imports scipy.optimize
        direct = solve_minmax_direct(system.rows, system.offsets)
        cross = {
            "status": direct.status,
            "slack": direct.slack,
            "difference": abs(direct.slack - result.slack),
        }
    timings["solve"] = clock() - t0

    # ---- residual audit -------------------------------------------------------
    # B on the retained pairs, evaluated once for the audit and the estimator
    t0 = clock()
    values = sample_values(certificate, retained)
    residuals = check_certificate(
        certificate, RESIDUAL_TOLERANCE, values, initial_cover, unsafe_cover
    )
    timings["audit"] = clock() - t0

    # ---- Lipschitz estimation ---------------------------------------------------
    t0 = clock()
    if config.lipschitz.method == METHOD_PAIRWISE:
        estimate = estimate_pairwise(values, retained, config.lipschitz)
    elif config.lipschitz.method == METHOD_EXTREME:
        estimate = estimate_extreme_value(values, retained, config.lipschitz)
    timings["lipschitz"] = clock() - t0

    # ---- certification ---------------------------------------------------------
    t0 = clock()
    guarantee_report: dict
    if config.guarantee.mode == MODE_DETERMINISTIC:
        radius = covering_radius(retained.states, config.domain)
        certification = check_deterministic(result.slack, estimate.overall, radius)
        guarantee_report = {"mode": MODE_DETERMINISTIC, "covering_radius": radius}
    else:
        count_dec = config.guarantee.decision_count or (template.size + 2)
        level = min_violation_level(config.guarantee.risk, count_dec, retained.count)
        geometry = GeometryFactor.from_region(config.domain)
        certification = check_probabilistic(
            result.slack,
            estimate.overall,
            level,
            geometry,
            config.guarantee.risk,
            decision_count=count_dec,
        )
        guarantee_report = {
            "mode": MODE_PROBABILISTIC,
            "violation_level": level,
            "risk": config.guarantee.risk,
            "decision_count": count_dec,
        }
    timings["certify"] = clock() - t0

    # ---- empirical validation -----------------------------------------------
    t0 = clock()
    safety = check_safety_empirically(
        truth,
        config.initial,
        config.unsafe,
        trajectories=config.validation.trajectories,
        horizon=config.validation.horizon,
        seed=config.validation.seed,
    )
    timings["validate"] = clock() - t0

    passed = certification.passed and certificate.definition_ok
    report = {
        "config": config.to_dict(),
        "dataset": {
            "scheme": dataset.scheme,
            "count": dataset.count,
            "seed": dataset.seed,
            "hash": dataset_hash(dataset),
            "path": None,
        },
        "filter": filter_report,
        "solver": {
            "status": result.status,
            "slack": result.slack,
            "decision": result.decision.tolist(),
            "active_rows": system.family_counts(result.active_rows),
            "cross_check": cross,
        },
        "certificate": certificate.to_dict(),
        "residuals": {
            **residuals.to_dict(),
            "passes_at_slack": residuals.passes_at(result.slack),
        },
        "lipschitz": estimate.to_dict(),
        "guarantee": guarantee_report,
        "certification": certification.to_dict(),
        "empirical": {
            "trajectories": safety.trajectories,
            "horizon": safety.horizon,
            "violations": safety.violation_count,
            "safe": safety.safe,
        },
        "verdict": "pass" if passed else "fail",
        "timing": {k: round(v, 6) for k, v in timings.items()},
    }
    return RunArtifacts(
        config=config,
        dataset=dataset,
        retained=retained,
        system=system,
        solve_result=result,
        certificate=certificate,
        residuals=residuals,
        lipschitz=estimate,
        certification=certification,
        safety=safety,
        report=report,
    )


def _cover_density(config: RunConfig, dataset: Dataset) -> float:
    """Linear (per-axis) density of the sampled data, for region covers."""
    n = dataset.dimension
    if config.sampling.scheme == SCHEME_GRID:
        per_axis = _grid_counts(config.sampling.count, n)
        return per_axis / float(np.max(config.domain.lengths))
    volume = float(np.prod(config.domain.lengths))
    return (dataset.count / volume) ** (1.0 / n)


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_artifacts(artifacts: RunArtifacts, out_dir: str) -> dict:
    """Write report, certificate, and (optionally) the dataset to a directory.

    Returns the final report dict (with the dataset path filled in, and the
    write time as ``timing["save"]``, when the dataset was saved).  Paths
    inside the report stay relative so identical runs in different
    directories produce identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    report = dict(artifacts.report)
    if artifacts.config.save_data:
        t0 = time.perf_counter()
        save_dataset(artifacts.dataset, os.path.join(out_dir, "dataset.csv"))
        report["timing"] = {**report["timing"], "save": round(time.perf_counter() - t0, 6)}
        report["dataset"] = {**report["dataset"], "path": "dataset.csv"}
    with open(os.path.join(out_dir, "certificate.json"), "w", encoding="ascii") as fh:
        fh.write(json.dumps(artifacts.certificate.to_dict(), indent=2, sort_keys=True) + "\n")
    with open(os.path.join(out_dir, "report.json"), "w", encoding="ascii") as fh:
        fh.write(report_json(report))
    return report
