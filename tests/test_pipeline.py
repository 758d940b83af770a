import json

import numpy as np
import pytest

from oracles import (
    minimax_full_lp,
    pairwise_whole_array,
    safety_by_step_many,
)
from physbc.cli import REFERENCE_RESULTS, reference_config
from physbc.config import (
    MODE_PROBABILISTIC,
    FilterSpec,
    GuaranteeSpec,
    LipschitzSpec,
    RunConfig,
    SamplingSpec,
    SolverSpec,
    ValidationSpec,
    preset,
)
from physbc.errors import PhysbcError
from physbc.models import RegionBox
from physbc.pipeline import (
    dataset_hash,
    region_cover,
    report_json,
    run,
    write_artifacts,
)
from physbc.sampling import load_dataset
from physbc.solver import solve_minmax_direct

from dataclasses import replace


def quick(config):
    """Shrink a preset to something that runs in well under a second."""
    return replace(
        config,
        sampling=replace(config.sampling, count=4000),
        lipschitz=LipschitzSpec(pair_budget=100_000, seed=7),
        validation=ValidationSpec(trajectories=50, horizon=100, seed=99),
    )


@pytest.fixture(scope="module")
def det_run():
    return run(quick(preset("supply-demand")))


@pytest.fixture(scope="module")
def prob_run():
    # full sample budget: the violation level must be small enough to certify
    config = preset("logistic-growth", MODE_PROBABILISTIC)
    return run(replace(config, validation=ValidationSpec(trajectories=50, horizon=100, seed=99)))


def test_deterministic_run_passes(det_run):
    report = det_run.report
    assert report["verdict"] == "pass"
    assert report["certification"]["verdict"] == "pass"
    assert report["certification"]["condition"] <= 0
    assert report["solver"]["status"] == "optimal"
    assert report["solver"]["slack"] < 0
    assert report["empirical"]["violations"] == 0
    assert det_run.certificate.definition_ok


def test_filter_retains_half(det_run):
    report = det_run.report["filter"]
    assert report["enabled"]
    assert report["retention"] == pytest.approx(0.5, abs=0.01)
    assert report["retained_count"] + report["discarded_count"] == report["input_count"]
    assert det_run.retained.count == report["retained_count"]


def test_report_has_expected_sections(det_run):
    report = det_run.report
    for key in ("config", "dataset", "filter", "solver", "certificate",
                "residuals", "lipschitz", "guarantee", "certification",
                "empirical", "verdict", "timing"):
        assert key in report, key
    assert report["dataset"]["hash"] == dataset_hash(det_run.dataset)
    assert report["dataset"]["path"] is None
    assert report["residuals"]["passes_at_slack"]
    assert set(report["solver"]["active_rows"]) == {
        "initial", "unsafe", "flow", "bound", "gap"}
    assert set(report["timing"]) == {
        "sample", "filter", "assemble", "solve", "audit", "lipschitz", "certify", "validate"}
    # serialisable end to end
    json.loads(report_json(report))


def test_reports_are_deterministic(det_run):
    again = run(quick(preset("supply-demand")))
    a = dict(det_run.report)
    b = dict(again.report)
    a.pop("timing"), b.pop("timing")
    assert report_json(a) == report_json(b)


def _full_lp_with_clamp(rows, offsets):
    """The one-shot full-LP oracle, its slack lifted to the maximum over all
    rows as the shipped solver reports it (a rounding-level difference)."""
    result = minimax_full_lp(rows, offsets)
    values = rows @ result.decision + offsets
    return replace(result, slack=max(result.slack, float(values.max())))


def _non_float_fields(tree):
    """The report with every float replaced by a marker, so the rest compares exactly."""
    if isinstance(tree, dict):
        return {key: _non_float_fields(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_non_float_fields(value) for value in tree]
    return "<float>" if isinstance(tree, float) else tree


@pytest.mark.parametrize("key", sorted(REFERENCE_RESULTS))
def test_constraint_generation_matches_full_lp_on_reference_systems(key, monkeypatch):
    config = reference_config(key, 0.05)
    shipped = run(config)
    rows, offsets, _ = shipped.system.full_rows()
    oracle = minimax_full_lp(rows, offsets)
    assert shipped.solve_result.optimal
    assert shipped.solve_result.slack == pytest.approx(oracle.slack, abs=1e-9)
    assert shipped.solve_result.decision == pytest.approx(oracle.decision, abs=1e-9)

    # the HiGHS exchange reproduces the one-shot full LP's report exactly
    monkeypatch.setattr("physbc.pipeline.solve", solve_minmax_direct)
    highs = run(config)
    monkeypatch.setattr("physbc.pipeline.solve", _full_lp_with_clamp)
    reference = run(config)
    a, b, c = dict(shipped.report), dict(highs.report), dict(reference.report)
    a.pop("timing"), b.pop("timing"), c.pop("timing")
    assert b == c
    # the dense route moves floats at the rounding level only
    assert _non_float_fields(a) == _non_float_fields(c)


@pytest.mark.parametrize("key", sorted(REFERENCE_RESULTS))
def test_streamed_kernels_match_oracles_on_reference_systems(key, monkeypatch):
    config = reference_config(key, 0.05)
    shipped = dict(run(config).report)
    monkeypatch.setattr("physbc.pipeline.check_safety_empirically", safety_by_step_many)
    reference = dict(run(config).report)
    shipped.pop("timing"), reference.pop("timing")
    assert report_json(shipped) == report_json(reference)


@pytest.mark.parametrize("key", sorted(REFERENCE_RESULTS))
def test_exact_lipschitz_bounds_random_pairs_on_reference_systems(key, monkeypatch):
    config = reference_config(key, 0.05)
    shipped = dict(run(config).report)
    monkeypatch.setattr("physbc.pipeline.estimate_pairwise", pairwise_whole_array)
    drawn = dict(run(config).report)
    for term in ("barrier", "flow"):
        assert shipped["lipschitz"][term] >= drawn["lipschitz"][term]
    for report in (shipped, drawn):
        for block in ("timing", "lipschitz", "certification"):
            report.pop(block)
    assert report_json(shipped) == report_json(drawn)


def test_probabilistic_run(prob_run):
    report = prob_run.report
    assert report["guarantee"]["mode"] == MODE_PROBABILISTIC
    # quadratic template in one variable: 3 coefficients + unsafe level + slack
    assert report["guarantee"]["decision_count"] == 5
    assert report["certification"]["confidence"] == pytest.approx(0.95)
    assert report["guarantee"]["violation_level"] > 0
    assert report["verdict"] == "pass"


def test_decision_count_override():
    config = quick(preset("logistic-growth", MODE_PROBABILISTIC))
    config = replace(
        config,
        sampling=replace(config.sampling, count=20_000),
        guarantee=GuaranteeSpec(mode=MODE_PROBABILISTIC, decision_count=9),
    )
    report = run(config).report
    assert report["guarantee"]["decision_count"] == 9


def test_no_filter_passthrough():
    config = replace(quick(preset("supply-demand")), filter=FilterSpec(enabled=False))
    artifacts = run(config)
    assert artifacts.retained is artifacts.dataset
    assert artifacts.report["filter"] == {"enabled": False,
                                          "input_count": artifacts.dataset.count}


def test_write_artifacts_round_trip(det_run, tmp_path):
    out = tmp_path / "artifacts"
    report = write_artifacts(det_run, str(out))
    assert (out / "report.json").exists()
    assert (out / "certificate.json").exists()
    assert report["dataset"]["path"] == "dataset.csv"

    reloaded = load_dataset(str(out / "dataset.csv"))
    assert dataset_hash(reloaded) == report["dataset"]["hash"]

    stored = json.loads((out / "report.json").read_text())
    assert stored["verdict"] == "pass"
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["coefficients"] == det_run.certificate.coefficients.tolist()


def test_write_artifacts_respects_save_data_flag(tmp_path):
    config = replace(quick(preset("supply-demand")), save_data=False)
    artifacts = run(config)
    report = write_artifacts(artifacts, str(tmp_path / "lean"))
    assert not (tmp_path / "lean" / "dataset.csv").exists()
    assert report["dataset"]["path"] is None


def test_write_artifacts_times_the_dataset_write_only_when_saved(det_run, tmp_path):
    timing = dict(det_run.report["timing"])
    saved = write_artifacts(det_run, str(tmp_path / "saved"))
    stored = json.loads((tmp_path / "saved" / "report.json").read_text())
    assert set(stored["timing"]) == set(saved["timing"]) == set(timing) | {"save"}
    assert stored["timing"]["save"] >= 0
    assert det_run.report["timing"] == timing

    lean = replace(det_run, config=replace(det_run.config, save_data=False))
    write_artifacts(lean, str(tmp_path / "lean"))
    stored = json.loads((tmp_path / "lean" / "report.json").read_text())
    assert stored["timing"] == timing


def test_run_without_bounds_fails_honestly():
    config = replace(
        quick(preset("supply-demand")),
        solver=SolverSpec(coeff_bound=None, level_gap_row=False),
    )
    with pytest.raises(PhysbcError, match="did not solve to optimality"):
        run(config)


def test_unsafe_system_yields_fail_verdict():
    # logistic growth pushes [0.1, 0.3] into [0.35, 0.65]: genuinely unsafe
    config = RunConfig(
        name="doomed",
        system="logistic-growth",
        domain=RegionBox.interval(0.1, 1.0),
        initial=RegionBox.interval(0.1, 0.3),
        unsafe=RegionBox.interval(0.35, 0.65),
        sampling=SamplingSpec(count=3000),
        validation=ValidationSpec(trajectories=50, horizon=100, seed=5),
        lipschitz=LipschitzSpec(pair_budget=50_000),
    )
    artifacts = run(config)
    assert artifacts.report["verdict"] == "fail"
    assert artifacts.report["empirical"]["violations"] > 0
    assert not artifacts.safety.safe


def test_cross_check_agrees():
    config = replace(
        quick(preset("supply-demand")),
        sampling=SamplingSpec(count=400, seed=2024),
        solver=SolverSpec(cross_check=True),
    )
    cross = run(config).report["solver"]["cross_check"]
    assert cross is not None
    assert cross["status"] == "optimal"
    assert cross["difference"] < 1e-4


def test_unknown_lipschitz_method_rejected():
    with pytest.raises(ValueError, match="lipschitz method"):
        LipschitzSpec(method="spectral")


def test_region_cover_density_and_endpoints():
    region = RegionBox.interval(0.5, 0.6)
    cover = region_cover(region, 100.0)
    assert cover.shape[1] == 1
    xs = cover[:, 0]
    assert xs[0] == pytest.approx(0.5) and xs[-1] == pytest.approx(0.6)
    # ceil(0.1 * 100) + 1 = 11 points
    assert len(xs) == 11
    assert np.all(np.diff(xs) > 0)


def test_region_cover_two_dimensional():
    region = RegionBox(np.array([0.0, 0.0]), np.array([1.0, 0.5]))
    cover = region_cover(region, 4.0)
    # 5 points along the unit axis, 3 along the half-length axis
    assert cover.shape == (15, 2)
    corners = {(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 0.5)}
    assert corners <= set(map(tuple, cover))


def test_region_cover_needs_positive_density():
    with pytest.raises(ValueError):
        region_cover(RegionBox.interval(0.0, 1.0), 0.0)
