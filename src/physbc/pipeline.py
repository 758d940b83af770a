"""End-to-end pipeline: synthesise data, filter, fit, estimate, certify.

The stages mirror the package layout: sampling -> filtering -> constraint
assembly -> minimax solve -> Lipschitz estimation -> certification ->
empirical validation.  :func:`run` executes them for one :class:`RunConfig`
and returns both the constituent objects and a JSON-ready report.  Reports
are deterministic for identical configs except for the ``timing`` block.

The initial and unsafe regions reach constraint assembly and the residual
audit as intervals, whose rows are the barrier's Bernstein coefficients on
each interval.  The recorded pairs feed the flow rows, and the flow
expression on them, evaluated once, feeds the audit and the Lipschitz
estimate.

The constraint system is freed once the solve has read it: the certificate,
the binding rows per family and the cross-check block are taken from it, and
nothing returned holds it, so the audit and the Lipschitz estimate run without
it beside them.  :func:`physbc.barrier.assemble` on the run's retained pairs
rebuilds it.

Each stage holds few arrays with a row per pair, and frees its own when it
returns; its float scratch has a fixed number of rows.  Beside the sampled
pairs:

* sample (:func:`_sampled`): the pairs it draws, whose successors the
  truth writes a block at a time; the previous run's dataset leaves the
  memo before the draw starts;
* filter (:func:`_filtered`): every pair's discrepancy and the keep mask;
  the discrepancies are freed before the retained pairs are gathered, and
  the mask when the stage returns;
* assemble and solve (:func:`_fit`): the flow rows' varying columns (two
  at degree 2), which assemble writes from two power columns of a fixed
  length; the exchange evaluates the blocks that can hold the worst row,
  chunk by chunk, into one scratch of a fixed length, and keeps each
  chunk's first largest value (a flow of only a few blocks is evaluated
  whole, into one array of every row's value);
* audit: the barrier's values on the retained successors and states, two
  columns that Horner's rule fills in place with no basis matrix; the first
  becomes the flow expression per retained pair, kept for the Lipschitz
  estimate;
* Lipschitz: the slopes between neighbouring states, a block of them at a
  time; every sampled dataset is in ascending state order, so the retained
  pairs are scanned as they are, with no sort order or sorted copy.

The empirical validation simulates only the ground truth, so runs that differ
in filtering, sampling or guarantee mode share it: it runs once per distinct
truth, regions and validation settings in a process, and a run that reuses an
earlier result reads about 0 in ``timing["validate"]``.

The sampled dataset is reused beside the rollout.  A traditional run and its
physics-informed twin, or a sweep over the threshold with a pinned truth or
over the risk, draw the same pairs; the last dataset and its hash are kept
(one entry, keyed by everything the sampler reads, dropped before another
draw), so the second run of such a pair neither samples nor hashes again.
``timing["sample"]`` covers the draw and the hash, and reads about 0 on a
reuse.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import time
from dataclasses import asdict, astuple, dataclass
from typing import Optional

import numpy as np

from .barrier import (
    BarrierCertificate,
    assemble,
    check_certificate,
    sample_values,
)
from .certify import check_deterministic, check_probabilistic, min_violation_level
from .config import MODE_DETERMINISTIC, MODE_PROBABILISTIC, RunConfig
from .errors import PhysbcError
from .filtering import apply_filter
# bench/tracing.py wraps this name
from .filtering import apply_filter as discrepancy_profile  # noqa: F401
from .lipschitz import (
    METHOD_EXTREME,
    METHOD_PAIRWISE,
    estimate_extreme_value,
    estimate_pairwise,
)
from .models import SafetyCheck, SystemModel, check_safety_empirically
from .sampling import (
    Dataset,
    covering_radius,
    sample_grid,
    sample_iid,
    save_dataset,
)
from .solver import STATUS_OPTIMAL, SolveResult, solve, solve_minmax_direct

# Empirical checks already computed in this process, keyed by everything the
# rollout reads; past this many entries the oldest is dropped.
_SAFETY_MEMO_SIZE = 16
_safety_memo: dict = {}

# The last sampled dataset and its hash, keyed by everything the sampler reads;
# one entry, so a dataset never outlives the next run that samples another.
_dataset_memo: dict = {}


@dataclass(frozen=True, eq=False)
class RunArtifacts:
    """Everything a run produced, plus the serialisable report."""

    dataset: Dataset
    retained: Dataset
    solve_result: SolveResult
    certificate: BarrierCertificate
    safety: SafetyCheck
    report: dict


def dataset_hash(dataset: Dataset) -> str:
    digest = hashlib.sha256()
    # a loaded dataset's arrays are strided column views, which sha256 cannot
    # read as a buffer; ascontiguousarray copies those only
    digest.update(np.ascontiguousarray(dataset.states))
    digest.update(np.ascontiguousarray(dataset.successors))
    return digest.hexdigest()


def run(config: RunConfig) -> RunArtifacts:
    timings: dict = {}
    clock = time.perf_counter

    physics = config.physics_model()
    truth = config.true_model()

    # ---- sample the ground truth: the mode picks the law ---------------------
    t0 = clock()
    dataset, digest = _sampled(truth, config)
    timings["sample"] = clock() - t0

    # ---- physics-consistency filter -----------------------------------------
    t0 = clock()
    retained, filter_report = _filtered(config, dataset, physics)
    timings["filter"] = clock() - t0

    # ---- constraint assembly and minimax solve --------------------------------
    result, certificate, active_rows, cross = _fit(config, retained, timings)

    # ---- residual audit -------------------------------------------------------
    # the flow expression on the retained pairs, evaluated once for the audit and the estimator
    t0 = clock()
    flow = sample_values(certificate, retained)
    residuals = check_certificate(certificate, flow, config.initial, config.unsafe)
    timings["audit"] = clock() - t0

    # ---- Lipschitz estimation ---------------------------------------------------
    t0 = clock()
    if config.lipschitz.method == METHOD_PAIRWISE:
        estimate = estimate_pairwise(flow, retained, config.lipschitz)
    elif config.lipschitz.method == METHOD_EXTREME:
        estimate = estimate_extreme_value(flow, retained, config.lipschitz)
    timings["lipschitz"] = clock() - t0

    # ---- certification ---------------------------------------------------------
    t0 = clock()
    guarantee_report: dict
    if config.guarantee.mode == MODE_DETERMINISTIC:
        radius = covering_radius(retained)
        certification = check_deterministic(result.slack, estimate.overall, radius)
        guarantee_report = {"mode": MODE_DETERMINISTIC, "covering_radius": radius}
    else:
        count_dec = result.decision.size + 1  # the unsafe level, the coefficients and the slack
        level = min_violation_level(config.guarantee.risk, count_dec, retained.count)
        certification = check_probabilistic(
            result.slack,
            estimate.overall,
            level,
            config.domain.length,
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
    safety = _empirical_safety(truth, config)
    timings["validate"] = clock() - t0

    passed = certification.passed and certificate.definition_ok
    report = {
        "config": config.to_dict(),
        "dataset": {
            "scheme": dataset.scheme,
            "count": dataset.count,
            "seed": dataset.seed,
            "hash": digest,
            "path": None,
        },
        "filter": filter_report,
        "solver": {
            "status": result.status,
            "slack": result.slack,
            "decision": result.decision.tolist(),
            "active_rows": active_rows,
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
        dataset=dataset,
        retained=retained,
        solve_result=result,
        certificate=certificate,
        safety=safety,
        report=report,
    )


def _filtered(config: RunConfig, dataset: Dataset, physics: SystemModel):
    """The pairs of ``dataset`` that the run keeps, and the report's filter block.

    Only this frame holds the filter outcome.  Every pair's discrepancy is
    freed before the retained pairs are gathered, and the keep mask when
    this returns.
    """
    if not config.filter.enabled:
        return dataset, {"enabled": False, "input_count": dataset.count}
    outcome = apply_filter(dataset, physics, config.filter.threshold)
    max_jump = outcome.max_jump
    jump = None
    if max_jump is not None:
        jump = {"start_index": max_jump[0], "length": max_jump[1]}
    report = {
        "enabled": True,
        "threshold": config.filter.threshold,
        "input_count": dataset.count,
        "retained_count": outcome.retained_count,
        "discarded_count": outcome.discarded_count,
        "retention": outcome.retained_count / dataset.count,
        "max_jump": jump,
    }
    mask = outcome.mask
    del outcome  # the discrepancies go before the gather
    return dataset.take(mask), report


def _fit(config: RunConfig, retained: Dataset, timings: dict):
    """Assemble the constraint system on ``retained`` and solve it.

    Returns the solve result, the certificate, the binding rows per family and
    the cross-check block (None when it is off).  Only this frame holds the
    system, so it is freed when this returns.
    """
    clock = time.perf_counter
    t0 = clock()
    system = assemble(config.template_degree, config.decay, retained, config.initial,
                      config.unsafe, coeff_bound=config.solver.coeff_bound)
    timings["assemble"] = clock() - t0

    t0 = clock()
    result = solve(system)
    if result.status != STATUS_OPTIMAL:
        raise PhysbcError(f"scenario program did not solve to optimality: {result.status}")
    certificate = system.certificate_from_decision(result.decision)
    cross: Optional[dict] = None
    if config.solver.cross_check:
        # the HiGHS exchange, started from the seed rows plus the rows that bind
        # at the production optimum: only those indices cross over, never the
        # decision or the slack, and HiGHS alone proves its optimum over every
        # row.  Its first call imports scipy.optimize.
        direct = solve_minmax_direct(system, start_rows=result.active_rows)
        cross = {
            "status": direct.status,
            "slack": direct.slack,
            "difference": abs(direct.slack - result.slack),
        }
    timings["solve"] = clock() - t0
    return result, certificate, system.family_counts(result.active_rows), cross


def _sampled(truth: SystemModel, config: RunConfig):
    """``(dataset, dataset_hash(dataset))`` of ``truth`` under ``config``, reusing the last one.

    The key holds everything the sampler reads: the truth, the domain, the
    mode, the count and, for i.i.d. draws only, the seed.
    """
    mode = config.guarantee.mode
    key = (
        repr((truth, config.domain)),  # repr tells -0.0 from 0.0, as in _empirical_safety
        mode,
        config.sampling.count,
        config.sampling.seed if mode == MODE_PROBABILISTIC else None,
    )
    entry = _dataset_memo.get(key)
    if entry is None:
        _dataset_memo.clear()  # so the last dataset is freed before the next is drawn
        if mode == MODE_DETERMINISTIC:
            dataset = sample_grid(truth, config.domain, config.sampling.count)
        else:
            dataset = sample_iid(truth, config.domain, config.sampling.count, config.sampling.seed)
        entry = _dataset_memo[key] = (dataset, dataset_hash(dataset))
    return entry


def _empirical_safety(truth: SystemModel, config: RunConfig) -> SafetyCheck:
    """The empirical check of ``truth`` under ``config``, computed once per distinct input."""
    key = (
        # a model's repr lists every term, and tells -0.0 from 0.0 as the kernel can
        repr((truth, config.initial, config.unsafe)),
        *astuple(config.validation),
    )
    safety = _safety_memo.get(key)
    if safety is None:
        safety = check_safety_empirically(
            truth, config.initial, config.unsafe, **asdict(config.validation)
        )
        _safety_memo[key] = safety
        if len(_safety_memo) > _SAFETY_MEMO_SIZE:
            del _safety_memo[next(iter(_safety_memo))]
    return safety


def report_json(report: dict) -> str:
    """Sorted, indented JSON; numpy integers (a config built in Python may hold
    them) are written as ints, and any other value JSON cannot hold raises."""
    return json.dumps(report, indent=2, sort_keys=True, default=operator.index) + "\n"


def write_artifacts(artifacts: RunArtifacts, out_dir: str) -> dict:
    """Write the dataset, certificate and report to a directory.

    Returns the final report dict, with the dataset path filled in and the
    dataset write time as ``timing["save"]``.  Paths inside the report stay
    relative so identical runs in different directories produce identical
    bytes.  Both JSON texts are built before either file is opened, so a
    report that cannot be serialised leaves no partial JSON behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    save_dataset(artifacts.dataset, os.path.join(out_dir, "dataset.csv"))
    report = {
        **artifacts.report,
        "timing": {**artifacts.report["timing"], "save": round(time.perf_counter() - t0, 6)},
        "dataset": {**artifacts.report["dataset"], "path": "dataset.csv"},
    }
    texts = {
        "certificate.json": report_json(artifacts.certificate.to_dict()),
        "report.json": report_json(report),
    }
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w", encoding="ascii") as fh:
            fh.write(text)
    return report
