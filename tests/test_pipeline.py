import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (
    dense,
    minimax_full_lp,
    pairwise_whole_array,
    safety_by_step_many,
    sample_iid_in_draw_order,
)
import physbc.barrier
import physbc.pipeline
import physbc.solver
from physbc.cli import REFERENCE_RESULTS, reference_config
from physbc.config import (
    MODE_DETERMINISTIC,
    MODE_PROBABILISTIC,
    FilterSpec,
    GuaranteeSpec,
    LipschitzSpec,
    PerturbationSpec,
    RunConfig,
    SamplingSpec,
    SolverSpec,
    ValidationSpec,
    preset,
)
from physbc.models import RegionBox, SystemModel
from physbc.pipeline import (
    dataset_hash,
    report_json,
    run,
    write_artifacts,
)
from physbc.sampling import SCHEME_GRID, SCHEME_IID, load_dataset
from physbc.solver import solve_minmax_direct

from dataclasses import fields, replace


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
    assert set(report["lipschitz"]) == {
        "flow", "overall", "method", "samples_used", "safety_multiplier"}
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


def _full_lp_with_clamp(system):
    """The one-shot full-LP oracle on the system's dense stack, its slack
    lifted to the maximum over all rows as the shipped solver reports it (a
    rounding-level difference): with the rows evaluated as the exchange
    evaluates them, the flow rows elementwise from their columns."""
    result = minimax_full_lp(*dense(system))
    values = system.evaluate(result.decision, np.empty(system.count))
    return replace(result, slack=max(result.slack, float(values.max())))


def _rebuilt_system(config, artifacts):
    """The constraint system a run solved, assembled again from its retained pairs."""
    return physbc.barrier.assemble(config.template_degree, config.decay, artifacts.retained,
                                   config.initial, config.unsafe,
                                   coeff_bound=config.solver.coeff_bound)


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
    system = _rebuilt_system(config, shipped)
    oracle = minimax_full_lp(*dense(system))
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
    oracle_calls = []

    def oracle(*args, **kwargs):
        oracle_calls.append(args)
        return safety_by_step_many(*args, **kwargs)

    # forget the shipped check, or the second run would reuse it
    physbc.pipeline._safety_memo.clear()
    monkeypatch.setattr("physbc.pipeline.check_safety_empirically", oracle)
    reference = dict(run(config).report)
    assert len(oracle_calls) == 1
    shipped.pop("timing"), reference.pop("timing")
    assert report_json(shipped) == report_json(reference)


@pytest.mark.parametrize("key", sorted(REFERENCE_RESULTS))
def test_exact_lipschitz_bounds_random_pairs_on_reference_systems(key, monkeypatch):
    config = reference_config(key, 0.05)
    shipped = dict(run(config).report)
    monkeypatch.setattr("physbc.pipeline.estimate_pairwise", pairwise_whole_array)
    drawn = dict(run(config).report)
    assert shipped["lipschitz"]["flow"] >= drawn["lipschitz"]["flow"]
    for report in (shipped, drawn):
        for block in ("timing", "lipschitz", "certification"):
            report.pop(block)
    assert report_json(shipped) == report_json(drawn)


# Stored outputs of the eight reference settings at scale 0.05: verdict,
# Lipschitz samples, retained samples (None: filter off) and dataset hash.
# Every setting binds one unsafe, one flow, two bound rows and the gap row.
REFERENCE_EXPECTATIONS = {
    "sd-det-trad": ("pass", 10999, None,
                    "f9718e9683ea7de01203ab3366387f7f7b779c834a72661d8347fc7ed3d4dc6c"),
    "sd-det-phys": ("pass", 5499, 5500,
                    "f9718e9683ea7de01203ab3366387f7f7b779c834a72661d8347fc7ed3d4dc6c"),
    "sd-prob-trad": ("fail", 14999, None,
                     "8aba6f1054ca9d02019184864c6b731ccb7c194069039dc588acb4f170fcdad8"),
    "sd-prob-phys": ("fail", 7507, 7508,
                     "8aba6f1054ca9d02019184864c6b731ccb7c194069039dc588acb4f170fcdad8"),
    "lg-det-trad": ("fail", 4499, None,
                    "6e757d688ff42989b64952d681877137e54b5dfcb5ccda06b1c3a24dfc280199"),
    "lg-det-phys": ("fail", 2249, 2250,
                    "6e757d688ff42989b64952d681877137e54b5dfcb5ccda06b1c3a24dfc280199"),
    "lg-prob-trad": ("fail", 12999, None,
                     "bc7dfadcc6976f706aec9807f0ac637796522ee60237cba64b56f3a5a16bf2c1"),
    "lg-prob-phys": ("fail", 6500, 6501,
                     "bc7dfadcc6976f706aec9807f0ac637796522ee60237cba64b56f3a5a16bf2c1"),
}
REFERENCE_ACTIVE_ROWS = {"initial": 0, "unsafe": 1, "flow": 1, "bound": 2, "gap": 1}


@pytest.mark.parametrize("key", sorted(REFERENCE_RESULTS))
def test_reference_settings_match_stored_expectations(key):
    verdict, samples_used, retained_count, data_hash = REFERENCE_EXPECTATIONS[key]
    report = run(reference_config(key, 0.05)).report
    assert report["verdict"] == verdict
    assert report["solver"]["active_rows"] == REFERENCE_ACTIVE_ROWS
    assert report["lipschitz"]["samples_used"] == samples_used
    assert report["filter"].get("retained_count") == retained_count
    assert report["dataset"]["hash"] == data_hash


PROBABILISTIC = sorted(key for key in REFERENCE_RESULTS
                       if reference_config(key).guarantee.mode == MODE_PROBABILISTIC)


@pytest.mark.parametrize("key", PROBABILISTIC)
def test_a_probabilistic_run_sorts_nothing(key, monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("the sampled states were sorted again")

    monkeypatch.setattr(np, "argsort", no_sort)
    artifacts = run(reference_config(key, 0.05))
    for data in (artifacts.dataset, artifacts.retained):
        assert np.all(data.states[1:] >= data.states[:-1])


@pytest.mark.parametrize("key", PROBABILISTIC)
def test_the_order_of_the_draws_moves_no_result(key, monkeypatch):
    config = reference_config(key, 0.05)
    ascending = run(config)
    # the same draws in draw order, as earlier releases recorded them
    physbc.pipeline._dataset_memo.clear()
    monkeypatch.setattr("physbc.pipeline.sample_iid", sample_iid_in_draw_order)
    drawn = run(config)
    assert not np.array_equal(drawn.dataset.states, ascending.dataset.states)
    assert drawn.certificate.to_dict() == ascending.certificate.to_dict()
    a, b = ascending.report, drawn.report
    assert (a["solver"]["slack"], a["lipschitz"]["overall"], a["verdict"]) == (
        b["solver"]["slack"], b["lipschitz"]["overall"], b["verdict"])
    assert a["certification"] == b["certification"]


def test_run_evaluates_the_barrier_on_retained_pairs_twice_after_the_solve(monkeypatch):
    config = quick(preset("supply-demand"))
    solved = []
    after_solve = []
    shipped_solve = physbc.pipeline.solve
    kernel = physbc.barrier.basis_matrix

    def solve(*args, **kwargs):
        solved.append(True)
        return shipped_solve(*args, **kwargs)

    def basis_matrix(states, degree):
        if solved:
            after_solve.append(len(states))
        return kernel(states, degree)

    monkeypatch.setattr("physbc.pipeline.solve", solve)
    monkeypatch.setattr("physbc.barrier.basis_matrix", basis_matrix)
    artifacts = run(config)
    # once on the states and once on the successors, shared by audit and Lipschitz
    assert after_solve.count(artifacts.retained.count) == 2


def test_probabilistic_run(prob_run):
    report = prob_run.report
    assert report["guarantee"]["mode"] == MODE_PROBABILISTIC
    # quadratic template in one variable: 3 coefficients + unsafe level + slack
    assert report["guarantee"]["decision_count"] == 5
    assert report["certification"]["confidence"] == pytest.approx(0.95)
    assert report["guarantee"]["violation_level"] > 0
    assert report["verdict"] == "pass"


@pytest.mark.parametrize("mode, scheme", [(MODE_DETERMINISTIC, SCHEME_GRID),
                                          (MODE_PROBABILISTIC, SCHEME_IID)])
def test_the_guarantee_mode_picks_the_sampler(mode, scheme):
    # the default sampling section in both modes: the scenario bound needs i.i.d. draws
    config = RunConfig(
        system="supply-demand",
        domain=RegionBox(0.5, 2.7),
        initial=RegionBox(0.5, 0.6),
        unsafe=RegionBox(2.6, 2.7),
        guarantee=GuaranteeSpec(mode=mode),
        lipschitz=LipschitzSpec(pair_budget=20_000, seed=7),
        validation=ValidationSpec(trajectories=20, horizon=30, seed=99),
    )
    dataset = run(config).report["dataset"]
    assert config.sampling == SamplingSpec()
    assert dataset["scheme"] == scheme
    assert dataset["seed"] == (config.sampling.seed if scheme == SCHEME_IID else None)


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


def test_write_artifacts_times_the_dataset_write(det_run, tmp_path):
    timing = dict(det_run.report["timing"])
    saved = write_artifacts(det_run, str(tmp_path / "saved"))
    stored = json.loads((tmp_path / "saved" / "report.json").read_text())
    assert set(stored["timing"]) == set(saved["timing"]) == set(timing) | {"save"}
    assert stored["timing"]["save"] >= 0
    assert det_run.report["timing"] == timing


def test_write_artifacts_encodes_numpy_integers_of_a_config(tmp_path):
    # the config check accepts numpy integers, so the report must be able to hold them
    base = quick(preset("supply-demand"))
    config = replace(base, sampling=replace(base.sampling, count=np.int64(4000)))
    write_artifacts(run(config), str(tmp_path))
    stored = json.loads((tmp_path / "report.json").read_text())
    assert stored["config"]["sampling"]["count"] == 4000


def test_write_artifacts_leaves_no_report_it_cannot_encode(det_run, tmp_path):
    broken = replace(det_run, report={**det_run.report, "extra": object()})
    with pytest.raises(TypeError):
        write_artifacts(broken, str(tmp_path))
    assert not (tmp_path / "report.json").exists()
    with pytest.raises(TypeError):
        report_json({"value": 2.5j})


def test_unsafe_system_yields_fail_verdict():
    # logistic growth pushes [0.1, 0.3] into [0.35, 0.65]: genuinely unsafe
    config = RunConfig(
        name="doomed",
        system="logistic-growth",
        domain=RegionBox(0.1, 1.0),
        initial=RegionBox(0.1, 0.3),
        unsafe=RegionBox(0.35, 0.65),
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


@pytest.mark.parametrize("key", ["lg-det-trad", "sd-prob-phys"])  # grid, iid
def test_cross_check_is_one_highs_solve_started_from_the_binding_rows(key, monkeypatch):
    calls = []
    backend = physbc.solver.linprog

    def counting(*args, **kwargs):
        calls.append(kwargs["A_ub"].shape[0])
        return backend(*args, **kwargs)

    monkeypatch.setattr(physbc.solver, "linprog", counting)
    base = reference_config(key, 0.05)
    artifacts = run(replace(base, solver=replace(base.solver, cross_check=True)))
    assert len(calls) == 1
    # the start rows choose where the HiGHS exchange starts, not what it reports
    system = _rebuilt_system(base, artifacts)
    unseeded = solve_minmax_direct(system)
    assert artifacts.report["solver"]["cross_check"] == {
        "status": unseeded.status,
        "slack": unseeded.slack,
        "difference": abs(unseeded.slack - artifacts.solve_result.slack),
    }


@pytest.mark.parametrize("key, cross_check", [
    ("sd-det-trad", False),  # grid
    ("lg-prob-phys", False),  # i.i.d., filtered
    ("lg-det-phys", True),  # with the HiGHS cross-check
])
def test_the_constraint_stack_is_freed_before_the_audit(key, cross_check, monkeypatch):
    held = []
    assemble_stack, evaluate = physbc.pipeline.assemble, physbc.pipeline.sample_values

    def keeping_a_weakref(*args, **kwargs):
        system = assemble_stack(*args, **kwargs)
        held.extend([weakref.ref(system), weakref.ref(system.flow)])
        return system

    def audit_start(*args, **kwargs):
        assert held and all(ref() is None for ref in held)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(physbc.pipeline, "assemble", keeping_a_weakref)
    monkeypatch.setattr(physbc.pipeline, "sample_values", audit_start)
    base = reference_config(key, 0.05)
    artifacts = run(replace(base, solver=replace(base.solver, cross_check=cross_check)))
    assert (artifacts.report["solver"]["cross_check"] is not None) == cross_check
    assert "system" not in {field.name for field in fields(artifacts)}


def test_a_run_peaks_at_one_constraint_stack_per_pair():
    # beside the pairs (16 bytes a pair) the flow columns (16) and the solve's
    # row values (8 and a temporary of 8) stay below the audit's basis matrix
    # and value columns (40), which set the peak at about 56.2 bytes a pair;
    # the bound leaves 3.8 of margin.  A dense (N, 4) stack and its offsets
    # (40) beside the row values would lift it to 64 or more
    config = reference_config("sd-prob-trad", 0.1)
    run(config)  # the rollout is memoised and the imports are done
    physbc.pipeline._dataset_memo.clear()  # so the sampled pairs count, as in a cold run
    tracemalloc.start()
    try:
        artifacts = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / artifacts.dataset.count < 60


def test_unknown_lipschitz_method_rejected():
    with pytest.raises(ValueError, match="lipschitz method"):
        replace(preset("supply-demand"), lipschitz=LipschitzSpec(method="spectral"))


# ------------------------------------------------ the empirical check, reused


@pytest.fixture
def rollouts(monkeypatch):
    """The calls that get past ``run``'s memo to the rollout."""
    calls = []
    rollout = physbc.pipeline.check_safety_empirically

    def counted(*args, **kwargs):
        calls.append(args)
        return rollout(*args, **kwargs)

    monkeypatch.setattr("physbc.pipeline.check_safety_empirically", counted)
    return calls


def tiny(config):
    return replace(
        config,
        sampling=replace(config.sampling, count=1000),
        lipschitz=LipschitzSpec(pair_budget=20_000, seed=7),
        validation=ValidationSpec(trajectories=20, horizon=30, seed=99),
    )


def test_reference_settings_roll_out_each_truth_once(rollouts):
    for key in REFERENCE_RESULTS:
        run(reference_config(key, 0.05))
    # one truth per case study: filtering, sampling and mode do not change it
    assert len(rollouts) == 2


def test_a_reused_check_reports_as_a_computed_one(rollouts):
    config = tiny(preset("logistic-growth"))
    computed = dict(run(config).report)
    reused = dict(run(config).report)
    assert len(rollouts) == 1
    assert reused["timing"]["validate"] < computed["timing"]["validate"]
    computed.pop("timing"), reused.pop("timing")
    assert report_json(reused) == report_json(computed)


def _validation(**changes):
    return lambda c: replace(c, validation=replace(c.validation, **changes))


def _perturbation(**changes):
    return lambda c: replace(c, perturbation=replace(c.perturbation, **changes))


SUPPLY_DEMAND = {"kind": "affine", "linear": [[0.8]], "offset": [0.5]}

# One input of the rollout changed at a time: each must roll out again.
ROLLOUT_CHANGES = {
    "trajectories": _validation(trajectories=21),
    "horizon": _validation(horizon=31),
    "seed": _validation(seed=100),
    "initial": lambda c: replace(c, initial=RegionBox(0.5, 0.61)),
    "unsafe": lambda c: replace(c, unsafe=RegionBox(2.59, 2.7)),
    "derived-amplitude": lambda c: replace(c, filter=replace(c.filter, threshold=0.006)),
    "amplitude": _perturbation(amplitude=0.003),
    "frequency": _perturbation(frequency=1000.0),
    "system": lambda c: replace(c, system={**SUPPLY_DEMAND, "offset": [0.49]}),
}

# Changes the rollout does not read: each must reuse the first check.
OTHER_CHANGES = {
    "sample-count": lambda c: replace(c, sampling=replace(c.sampling, count=1200)),
    "filter-off": lambda c: replace(c, filter=replace(c.filter, enabled=False)),
    "mode": lambda c: replace(c, guarantee=replace(c.guarantee, mode=MODE_PROBABILISTIC)),
    "pinned-amplitude-threshold": lambda c: replace(
        c, filter=replace(c.filter, threshold=0.006),
        perturbation=replace(c.perturbation, amplitude=c.perturbation_amplitude())),
    "same-system-by-value": lambda c: replace(c, system=SUPPLY_DEMAND),
}


@pytest.mark.parametrize("change", sorted(ROLLOUT_CHANGES))
def test_a_changed_rollout_input_rolls_out_again(change, rollouts):
    config = tiny(preset("supply-demand"))
    changed = ROLLOUT_CHANGES[change](config)
    first, second = run(config), run(changed)
    assert len(rollouts) == 2
    assert second.safety is not first.safety


@pytest.mark.parametrize("change", sorted(OTHER_CHANGES))
def test_a_change_the_rollout_does_not_read_reuses_the_check(change, rollouts):
    config = tiny(preset("supply-demand"))
    first, second = run(config), run(OTHER_CHANGES[change](config))
    assert len(rollouts) == 1
    assert second.safety is first.safety


def test_the_memo_keeps_the_latest_checks_only(rollouts):
    config = tiny(preset("supply-demand"))
    size = physbc.pipeline._SAFETY_MEMO_SIZE
    for seed in range(size + 1):
        run(_validation(seed=seed)(config))
    assert len(physbc.pipeline._safety_memo) == size
    run(_validation(seed=size)(config))  # the newest is kept
    assert len(rollouts) == size + 1
    run(_validation(seed=0)(config))  # the oldest was dropped
    assert len(rollouts) == size + 2


# ------------------------------------------------ the sampled dataset, reused


@pytest.fixture
def draws(monkeypatch):
    """The names of the sampler and hash calls that get past ``run``'s dataset memo."""
    calls = []
    for name in ("sample_grid", "sample_iid", "dataset_hash"):
        original = getattr(physbc.pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(f"physbc.pipeline.{name}", counted)
    return calls


@pytest.mark.parametrize("mode, sampler", [(MODE_DETERMINISTIC, "sample_grid"),
                                           (MODE_PROBABILISTIC, "sample_iid")])
def test_runs_with_the_same_sampling_inputs_sample_and_hash_once(mode, sampler, draws):
    config = tiny(preset("supply-demand", mode))
    first = run(replace(config, filter=replace(config.filter, enabled=False)))
    second = run(config)
    assert draws == [sampler, "dataset_hash"]
    assert second.dataset is first.dataset
    assert second.report["dataset"] == first.report["dataset"]


def _sampling(**changes):
    return lambda c: replace(c, sampling=replace(c.sampling, **changes))


# One input of the sampler changed at a time, from a probabilistic run: each must sample again.
SAMPLING_CHANGES = {
    "system": lambda c: replace(c, system={**SUPPLY_DEMAND, "offset": [0.49]}),
    "linear": lambda c: replace(c, system={**SUPPLY_DEMAND, "linear": [[0.79]]}),
    "amplitude": _perturbation(amplitude=0.003),
    "frequency": _perturbation(frequency=1000.0),
    "derived-amplitude": lambda c: replace(c, filter=replace(c.filter, threshold=0.006)),
    "domain-lower": lambda c: replace(c, domain=RegionBox(0.45, 2.7)),
    "domain-upper": lambda c: replace(c, domain=RegionBox(0.5, 2.75)),
    "count": _sampling(count=1001),
    "iid-seed": _sampling(seed=2025),
    "mode": lambda c: replace(c, guarantee=replace(c.guarantee, mode=MODE_DETERMINISTIC)),
}

# Changes the sampler does not read: each must reuse the first dataset.
READS_NOTHING = {
    "filter-off": lambda c: replace(c, filter=replace(c.filter, enabled=False)),
    "risk": lambda c: replace(c, guarantee=replace(c.guarantee, risk=0.01)),
    "pinned-amplitude-threshold": lambda c: replace(
        c, filter=replace(c.filter, threshold=0.006),
        perturbation=replace(c.perturbation, amplitude=c.perturbation_amplitude())),
    "validation": _validation(seed=100),
    "lipschitz": lambda c: replace(c, lipschitz=replace(c.lipschitz, seed=8)),
    "same-system-by-value": lambda c: replace(c, system=SUPPLY_DEMAND),
}


@pytest.mark.parametrize("change", sorted(SAMPLING_CHANGES))
def test_a_changed_sampling_input_samples_again(change, draws):
    config = tiny(preset("supply-demand", MODE_PROBABILISTIC))
    first, second = run(config), run(SAMPLING_CHANGES[change](config))
    assert draws.count("dataset_hash") == 2
    assert second.dataset is not first.dataset
    assert len(physbc.pipeline._dataset_memo) == 1


# A truth whose every term is 0.0, and one term of it at -0.0 at a time: the terms
# are SystemModel's fields, so a field this table misses fails the test below.
ZERO_SYSTEM = {"kind": "quadratic-polynomial", "linear": [[0.0]], "offset": [0.0],
               "quadratic": [[[0.0]]]}
MINUS_ZERO_TERMS = {
    "linear": lambda c: replace(c, system={**ZERO_SYSTEM, "linear": [[-0.0]]}),
    "offset": lambda c: replace(c, system={**ZERO_SYSTEM, "offset": [-0.0]}),
    "quadratic": lambda c: replace(c, system={**ZERO_SYSTEM, "quadratic": [[[-0.0]]]}),
    "amplitude": _perturbation(amplitude=-0.0),
    "frequency": _perturbation(frequency=-0.0),
}


@pytest.mark.parametrize("term", [f.name for f in fields(SystemModel)])
def test_every_term_of_the_truth_reaches_both_memo_keys(term, rollouts, draws):
    # repr tells -0.0 from 0.0, and the kernel can: x * -0.0 is -0.0 for x > 0
    config = replace(tiny(preset("supply-demand", MODE_PROBABILISTIC)), system=ZERO_SYSTEM,
                     perturbation=PerturbationSpec(amplitude=0.0, frequency=0.0))
    changed = MINUS_ZERO_TERMS[term](config)
    assert repr(getattr(changed.true_model(), term)) == "-0.0"
    assert repr(getattr(config.true_model(), term)) == "0.0"
    run(config), run(changed)
    assert len(rollouts) == 2
    assert draws.count("dataset_hash") == 2


@pytest.mark.parametrize("change", sorted(READS_NOTHING))
def test_a_change_the_sampler_does_not_read_reuses_the_dataset(change, draws):
    config = tiny(preset("supply-demand", MODE_PROBABILISTIC))
    first, second = run(config), run(READS_NOTHING[change](config))
    assert draws == ["sample_iid", "dataset_hash"]
    assert second.dataset is first.dataset


def test_a_grid_run_does_not_read_the_seed(draws):
    config = tiny(preset("supply-demand"))
    first, second = run(config), run(_sampling(seed=2025)(config))
    assert draws == ["sample_grid", "dataset_hash"]
    assert second.dataset is first.dataset and second.report["dataset"]["seed"] is None


def test_the_dataset_memo_holds_one_entry(draws):
    config = tiny(preset("supply-demand", MODE_PROBABILISTIC))
    for seed in (1, 2, 1):
        run(_sampling(seed=seed)(config))
        assert len(physbc.pipeline._dataset_memo) == 1
    # seed 2's draw replaced seed 1's, so the third run draws again
    assert draws.count("sample_iid") == 3


@pytest.mark.parametrize("pair", [("sd-det-trad", "sd-det-phys"),
                                  ("lg-prob-trad", "lg-prob-phys")], ids=["grid", "iid"])
def test_a_reused_dataset_reports_as_a_sampled_one(pair, draws):
    trad, phys = (reference_config(key, 0.05) for key in pair)
    run(trad)
    reused = dict(run(phys).report)
    assert draws.count("dataset_hash") == 1
    physbc.pipeline._dataset_memo.clear()
    physbc.pipeline._safety_memo.clear()
    cold = dict(run(phys).report)
    assert draws.count("dataset_hash") == 2
    reused.pop("timing"), cold.pop("timing")
    assert report_json(reused) == report_json(cold)


def test_the_hash_of_a_loaded_dataset_equals_that_of_contiguous_copies(det_run, tmp_path):
    write_artifacts(det_run, str(tmp_path))
    loaded = load_dataset(str(tmp_path / "dataset.csv"))
    # the loader hands back column views of one (N, 2) block
    assert not loaded.states.flags.c_contiguous
    copies = replace(loaded, states=np.array(loaded.states), successors=np.array(loaded.successors))
    assert copies.states.flags.c_contiguous
    digest = hashlib.sha256(loaded.states.tobytes() + loaded.successors.tobytes()).hexdigest()
    assert dataset_hash(loaded) == dataset_hash(copies) == digest
    assert digest == det_run.report["dataset"]["hash"]


def test_reports_hold_plain_json_values(det_run, prob_run):
    # no numpy scalar leaks into a report built from a plain config: json needs no default
    for artifacts in (det_run, prob_run):
        json.dumps(artifacts.report)
        assert type(artifacts.report["lipschitz"]["samples_used"]) is int
