import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import physbc
from oracles import load_dataset_rowwise, save_dataset_rowwise
from physbc import sampling
from physbc.barrier import BarrierCertificate
from physbc.cli import REFERENCE_RESULTS, _drift, main, reference_config
from physbc.config import (
    LipschitzSpec,
    RunConfig,
    SamplingSpec,
    ValidationSpec,
    preset,
)
from physbc.sampling import SCHEME_IID


def small_config_dict():
    config = replace(
        preset("supply-demand"),
        sampling=SamplingSpec(count=4000, seed=2024),
        lipschitz=LipschitzSpec(pair_budget=100_000),
        validation=ValidationSpec(trajectories=50, horizon=100, seed=99),
    )
    return config.to_dict()


def _with_setting(data, path, value):
    """Set ``section.key`` (or a top-level key) of a config dict."""
    *section, key = path.split(".")
    (data[section[0]] if section else data)[key] = value
    return data


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "run.json"
    path.write_text(json.dumps(small_config_dict()))
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("artifacts") / "out"
    result = CliRunner().invoke(main, ["run", "--config", config_path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


# ----------------------------------------------------------------------- run


def test_run_writes_artifacts_and_passes(run_dir):
    assert (run_dir / "report.json").exists()
    assert (run_dir / "certificate.json").exists()
    assert (run_dir / "dataset.csv").exists()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["verdict"] == "pass"


def test_run_prints_summary(config_path, tmp_path):
    result = CliRunner().invoke(
        main, ["run", "--config", config_path, "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 0
    assert "retained" in result.output
    assert "verdict: pass" in result.output


def test_run_needs_exactly_one_source(config_path, tmp_path):
    runner = CliRunner()
    both = runner.invoke(main, [
        "run", "--config", config_path, "--preset", "supply-demand",
        "--out", str(tmp_path / "a")])
    assert both.exit_code == 1
    neither = runner.invoke(main, ["run", "--out", str(tmp_path / "b")])
    assert neither.exit_code == 1


@pytest.mark.parametrize("section", [{"method": "spectral"}, {"pair_budget": 0}],
                         ids=["unknown-method", "zero-pair-budget"])
def test_run_rejects_bad_lipschitz_section_at_load(section, tmp_path, monkeypatch):
    data = small_config_dict()
    data["lipschitz"].update(section)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))

    def no_work(config):
        raise AssertionError("the pipeline ran on a config that should not load")

    monkeypatch.setattr("physbc.cli.run", no_work)
    result = CliRunner().invoke(main, ["run", "--config", str(bad),
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "error: could not load config" in result.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edits, message", [
    ({"solver.coeff_bound": -1.0}, "coeff_bound must be positive"),
    ({"validation.trajectories": 0}, "validation trajectories must be at least 1"),
    ({"validation.horizon": 0}, "validation horizon must be at least 1"),
    ({"perturbation.frequency": -1.0}, "frequency must be positive"),
    ({"perturbation.amplitude": -0.1}, "amplitude must be non-negative"),
    ({"sampling.count": 4000.5}, "sampling.count must be an integer, got 4000.5"),
    ({"guarantee.mode": "probabilistic", "sampling.count": 4000.5},
     "sampling.count must be an integer, got 4000.5"),
    ({"validation.trajectories": 20.5}, "validation.trajectories must be an integer"),
    ({"validation.horizon": True}, "validation.horizon must be an integer, got True"),
    ({"decay": "0.5"}, "decay must be a finite number, got '0.5'"),
    ({"perturbation.frequency": "1250"},
     "perturbation.frequency must be a finite number, got '1250'"),
    ({"filter.threshold": True}, "filter.threshold must be a finite number, got True"),
    ({"solver.coeff_bound": "100"}, "solver.coeff_bound must be a finite number, got '100'"),
    ({"solver.coeff_bound": math.inf}, "solver.coeff_bound must be a finite number, got inf"),
    ({"filter.threshold": math.inf}, "filter.threshold must be a finite number, got inf"),
    ({"perturbation.frequency": math.nan},
     "perturbation.frequency must be a finite number, got nan"),
    ({"lipschitz.multiplier": math.nan}, "lipschitz.multiplier must be a finite number, got nan"),
    ({"lipschitz.pair_budget": 2.5}, "lipschitz.pair_budget must be an integer, got 2.5"),
    ({"lipschitz.batches": "50"}, "lipschitz.batches must be an integer, got '50'"),
    ({"lipschitz.seed": -1}, "lipschitz.seed must be non-negative"),
    ({"template_degree": 2.5}, "template_degree must be an integer"),
    ({"sampling.seed": -1}, "sampling.seed must be non-negative"),
    ({"filter.enabled": "false"}, "filter.enabled must be a boolean, got 'false'"),
    ({"validation.seed": -3}, "validation.seed must be non-negative"),
    ({"decay_rate": 0.5}, "unknown config key(s): decay_rate"),
    ({"sampling.cuont": 4000}, "unknown sampling key(s): cuont"),
    ({"domain.middle": [1.0]}, "unknown domain key(s): middle"),
    ({"sampling.scheme": "uniform-grid"}, "unknown sampling key(s): scheme"),
    ({"perturbation.phase": 0.0}, "unknown perturbation key(s): phase"),
    ({"domain": {"lower": [0.5, 0.5], "upper": [2.7, 2.7]}},
     "domain must be one-dimensional, got 2 axes"),
    ({"initial": {"lower": [0.5, 0.5], "upper": [0.6, 0.6]}},
     "initial must be one-dimensional, got 2 axes"),
    ({"unsafe": {"lower": [2.6, 2.6, 2.6], "upper": [2.7, 2.7, 2.7]}},
     "unsafe must be one-dimensional, got 3 axes"),
    ({"system": {"kind": "affine", "linear": [[0.8, 0.0], [0.0, 0.8]], "offset": [0.5, 0.5]}},
     "system must be one-dimensional, got 2 axes"),
    ({"system": 5}, "system must be a preset name or a mapping, got 5"),
    ({"system": None}, "system must be a preset name or a mapping, got None"),
    ({"system": [1]}, "system must be a preset name or a mapping, got [1]"),
    ({"domain": {"lower": ["0.5"], "upper": [2.7]}},
     "domain lower entries must be real numbers, got '0.5'"),
    ({"unsafe": {"lower": [2.6], "upper": [True]}},
     "unsafe upper entries must be real numbers, got True"),
    ({"system": {"kind": "affine", "linear": [["0.8"]], "offset": [0.5]}},
     "system linear entries must be real numbers, got '0.8'"),
    ({"system": {"kind": "affine", "linear": [[math.nan]], "offset": [0.5]}},
     "system linear must be a finite number, got nan"),
    ({"system": {"kind": "quadratic-polynomial", "linear": [[0.8]], "offset": [-math.inf],
                 "quadratic": [[[-0.5]]]}},
     "system offset must be a finite number, got -inf"),
    ({"system": {"kind": "quadratic-polynomial", "linear": [[0.8]], "offset": [0.5],
                 "quadratic": [[[math.inf]]]}},
     "system quadratic must be a finite number, got inf"),
], ids=["negative-coeff-bound", "zero-trajectories", "zero-horizon",
        "negative-frequency", "negative-amplitude", "fractional-grid-count",
        "fractional-iid-count", "fractional-trajectories", "bool-horizon",
        "quoted-decay", "quoted-frequency", "bool-threshold", "quoted-coeff-bound",
        "infinite-coeff-bound", "infinite-threshold", "nan-frequency", "nan-multiplier",
        "fractional-pair-budget", "quoted-batches", "negative-lipschitz-seed",
        "fractional-degree", "negative-sampling-seed", "quoted-filter-flag",
        "negative-validation-seed", "unknown-top-level-key", "unknown-section-key", "unknown-region-key", "retired-sampling-scheme",
        "retired-perturbation-phase", "two-dimensional-domain",
        "two-dimensional-initial", "three-dimensional-unsafe", "two-dimensional-system",
        "number-system", "null-system", "list-system", "quoted-domain-bound",
        "boolean-unsafe-bound", "quoted-system-term", "nan-system-term",
        "infinite-system-offset", "infinite-system-quadratic"])
def test_run_rejects_a_bad_config_at_load(edits, message, tmp_path, monkeypatch):
    data = small_config_dict()
    for path, value in edits.items():
        _with_setting(data, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))

    def no_work(config):
        raise AssertionError("the pipeline ran on a config that should not load")

    monkeypatch.setattr("physbc.cli.run", no_work)
    result = CliRunner().invoke(main, ["run", "--config", str(bad),
                                       "--out", str(tmp_path / "o")])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "error: could not load config" in result.output
    assert message in result.output
    assert not (tmp_path / "o").exists()


# retired settings, and the unbounded program's null bound
RETIRED = {
    "sampling.scheme": "iid-uniform",  # the guarantee mode picks the sampler
    "perturbation.phase": 0.0,
    "solver.level_gap_row": True,
    "solver.initial_level": 1e-4,
    "solver.coeff_bound": None,
    "guarantee.decision_count": 5,
    "save_data": True,
}


@pytest.mark.parametrize("path", sorted(RETIRED))
def test_run_and_plotdata_refuse_a_retired_setting(path, run_dir, tmp_path, monkeypatch):
    config = tmp_path / "old.json"
    config.write_text(json.dumps(_with_setting(small_config_dict(), path, RETIRED[path])))
    report = json.loads((run_dir / "report.json").read_text())
    _with_setting(report["config"], path, RETIRED[path])
    (tmp_path / "report.json").write_text(json.dumps(report))

    def no_work(config):
        raise AssertionError("the pipeline ran on a config that should not load")

    monkeypatch.setattr("physbc.cli.run", no_work)
    ran = CliRunner().invoke(main, ["run", "--config", str(config),
                                    "--out", str(tmp_path / "o")])
    plotted = CliRunner().invoke(main, ["plotdata", "--report", str(tmp_path / "report.json"),
                                        "--out", str(tmp_path / "plots")])
    assert isinstance(ran.exception, SystemExit), ran.exception
    assert ran.exit_code == 1
    assert "error: could not load config" in ran.output
    assert path.split(".")[-1] in ran.output
    assert plotted.exit_code == 1
    assert "error: could not load report" in plotted.output
    assert not (tmp_path / "o").exists() and not (tmp_path / "plots").exists()


def test_run_reports_a_negative_seed_override(tmp_path, monkeypatch):
    def no_work(config):
        raise AssertionError("the pipeline ran on an invalid config")

    monkeypatch.setattr("physbc.cli.run", no_work)
    result = CliRunner().invoke(main, ["run", "--preset", "logistic-growth", "--mode",
                                       "probabilistic", "--seed", "-1",
                                       "--out", str(tmp_path / "o")])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "error: sampling.seed must be non-negative" in result.output
    assert not (tmp_path / "o").exists()


def test_run_preset_with_overrides(tmp_path):
    out = tmp_path / "preset-out"
    result = CliRunner().invoke(
        main, ["run", "--preset", "supply-demand", "--seed", "11", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["sampling"]["seed"] == 11
    assert report["verdict"] == "pass"


def test_run_mode_override_switches_the_sampler(config_path, tmp_path):
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["run", "--config", config_path, "--mode", "probabilistic",
                                       "--no-filter", "--out", str(out)])
    assert result.exit_code in (0, 2), result.output
    report = json.loads((out / "report.json").read_text())
    assert report["guarantee"]["mode"] == "probabilistic"
    assert report["dataset"]["scheme"] == SCHEME_IID
    assert report["dataset"]["seed"] == report["config"]["sampling"]["seed"]


@pytest.mark.parametrize("verb", ["run", "plotdata", "reproduce", "sweep"])
def test_an_output_path_that_cannot_be_written_is_an_error(verb, run_dir, config_path, tmp_path,
                                                           monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = {
        "run": ["run", "--config", config_path, "--out", str(blocker / "sub")],
        "plotdata": ["plotdata", "--report", str(run_dir / "report.json"),
                     "--out", str(blocker / "p")],
        "reproduce": ["reproduce", "--scale", "0.01", "--out", str(blocker / "r")],
        "sweep": ["sweep", "--config", config_path, "--param", "risk", "--values", "0.1",
                  "--out", str(tmp_path / "missing" / "s.csv")],
    }[verb]
    if verb in ("reproduce", "sweep"):
        def no_work(config):
            raise AssertionError("a setting ran although its output cannot be written")

        monkeypatch.setattr("physbc.cli.run", no_work)
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "error: " in result.output and "Traceback" not in result.output


def test_run_reports_an_override_that_makes_the_config_invalid(tmp_path):
    data = small_config_dict()
    data["guarantee"]["risk"] = 2.0  # unread in deterministic mode, so the file loads
    path = tmp_path / "risky.json"
    path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["run", "--config", str(path), "--mode", "probabilistic",
                                       "--out", str(tmp_path / "o")])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "error: risk must lie strictly between 0 and 1" in result.output
    assert not (tmp_path / "o").exists()


# ------------------------------------------------------------ error contract


# A system that loads, since its terms are finite, but whose step overflows on part
# of the domain: 1e308 x is inf above x = 1.797.
OVERFLOWING_SYSTEM = {"kind": "affine", "linear": [[1e308]], "offset": [0.5]}
# One whose step is finite on the domain but whose rollout reaches inf at step 4.
DIVERGING_SYSTEM = {"kind": "affine", "linear": [[1e100]], "offset": [0.5]}
# One whose successors are finite but whose squares, in the barrier's flow rows, are not.
BASIS_OVERFLOWING_SYSTEM = {"kind": "affine", "linear": [[1e200]], "offset": [0.5]}


@pytest.mark.parametrize("case", [
    "run-config", "sweep-config", "plotdata-report", "validate-certificate", "validate-config",
    "reproduce-scale", "plotdata-points", "run-nan-system", "run-overflowing-system",
    "run-overflowing-system-unfiltered", "validate-overflowing-system", "run-diverging-system",
    "run-overflowing-barrier",
])
def test_every_verb_reports_a_bad_input_as_one_error_line(case, run_dir, config_path, tmp_path,
                                                          monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    if case == "run-nan-system":
        system = {"kind": "affine", "linear": [[math.nan]], "offset": [0.5]}
        bad.write_text(json.dumps(_with_setting(small_config_dict(), "system", system)))
    elif case == "run-overflowing-barrier":
        config = _with_setting(small_config_dict(), "system", BASIS_OVERFLOWING_SYSTEM)
        bad.write_text(json.dumps(_with_setting(config, "sampling.count", 2000)))
    elif "overflowing" in case or "diverging" in case:
        system = OVERFLOWING_SYSTEM if "overflowing" in case else DIVERGING_SYSTEM
        bad.write_text(json.dumps(_with_setting(small_config_dict(), "system", system)))
    certificate = str(run_dir / "certificate.json")
    args = {
        "run-config": ["run", "--config", str(bad), "--out", str(tmp_path / "o")],
        "sweep-config": ["sweep", "--config", str(bad), "--param", "risk", "--values", "0.1",
                         "--out", str(tmp_path / "s.csv")],
        "plotdata-report": ["plotdata", "--report", str(bad), "--out", str(tmp_path / "o")],
        "validate-certificate": ["validate", "--certificate", str(bad), "--config", config_path],
        "validate-config": ["validate", "--certificate", certificate, "--config", str(bad)],
        "reproduce-scale": ["reproduce", "--scale", "0", "--out", str(tmp_path / "o")],
        "plotdata-points": ["plotdata", "--report", str(run_dir / "report.json"),
                            "--points", "0", "--out", str(tmp_path / "o")],
        "run-nan-system": ["run", "--config", str(bad), "--out", str(tmp_path / "o")],
        "run-overflowing-system": ["run", "--config", str(bad), "--out", str(tmp_path / "o")],
        "run-overflowing-system-unfiltered": ["run", "--config", str(bad), "--no-filter",
                                              "--out", str(tmp_path / "o")],
        "validate-overflowing-system": ["validate", "--certificate", certificate,
                                        "--config", str(bad)],
        "run-diverging-system": ["run", "--config", str(bad), "--out", str(tmp_path / "o")],
        "run-overflowing-barrier": ["run", "--config", str(bad), "--out", str(tmp_path / "o")],
    }[case]

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a bad input")

    # an overflowing system is found only once the sampler steps it
    if not case.startswith(("run-overflowing", "run-diverging")):
        monkeypatch.setattr("physbc.cli.run", no_work)
    # and a rollout that overflows only once validate rolls it out
    if case != "validate-overflowing-system":
        monkeypatch.setattr("physbc.cli.check_safety_empirically", no_work)
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    if case == "run-overflowing-barrier":
        # the grid's first state; 5e199 is finite and its square is not
        assert lines[0] == ("error: the flow row of state 0.5 and successor 5e+199 is not"
                            " finite at degree 2")
    elif case.startswith("run-overflowing"):
        assert lines[0] == ("error: the system maps state 1.7977744436109029 to inf,"
                            " which is not finite")
    elif case in ("validate-overflowing-system", "run-diverging-system"):
        # the first start of the validation draw; the sinusoid of 1e308 x is nan at
        # step 2, and 1e100 x is inf at step 4
        start = float(np.random.default_rng(99).uniform(0.5, 0.6, size=50)[0])
        value, step = ("nan", 2) if case.startswith("validate") else ("inf", 4)
        assert lines[0] == (f"error: the trajectory from state {start!r} reaches {value} at"
                            f" step {step}, which is not finite")
    elif not case.endswith(("scale", "points")):
        assert str(bad) in lines[0]
    assert "Traceback" not in result.output and not (tmp_path / "o").exists()


# ------------------------------------------------------------------ validate


def test_validate_passes_on_fresh_artifacts(run_dir, config_path):
    result = CliRunner().invoke(main, [
        "validate",
        "--certificate", str(run_dir / "certificate.json"),
        "--config", config_path,
        "--trajectories", "50", "--horizon", "100",
    ])
    assert result.exit_code == 0, result.output
    assert "verdict: pass" in result.output


def test_validate_flags_tampered_certificate(run_dir, config_path, tmp_path):
    cert = json.loads((run_dir / "certificate.json").read_text())
    cert["unsafe_level"] = cert["initial_level"] - 1.0
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    result = CliRunner().invoke(main, [
        "validate", "--certificate", str(tampered), "--config", config_path,
        "--trajectories", "10", "--horizon", "20",
    ])
    assert result.exit_code == 2
    assert "VIOLATED" in result.output


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("option", ["--trajectories", "--horizon"])
def test_validate_rejects_counts_below_one(option, value, run_dir, config_path, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated with a count below one")

    monkeypatch.setattr("physbc.cli.check_safety_empirically", no_simulation)
    counts = {"--trajectories": "10", "--horizon": "20", option: value}
    result = CliRunner().invoke(main, [
        "validate", "--certificate", str(run_dir / "certificate.json"), "--config", config_path,
        *[item for pair in counts.items() for item in pair],
    ])
    assert result.exit_code == 1
    assert f"error: validation {option[2:]} must be at least 1" in result.output


def test_validate_reports_a_negative_seed_override(run_dir, config_path, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated with a negative seed")

    monkeypatch.setattr("physbc.cli.check_safety_empirically", no_simulation)
    result = CliRunner().invoke(main, [
        "validate", "--certificate", str(run_dir / "certificate.json"), "--config", config_path,
        "--trajectories", "10", "--horizon", "20", "--seed", "-1",
    ])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "error: validation.seed must be non-negative" in result.output


@pytest.mark.parametrize("verb", ["validate", "plotdata"])
def test_a_certificate_whose_template_is_not_one_dimensional_is_refused(verb, run_dir,
                                                                        config_path, tmp_path):
    report = json.loads((run_dir / "report.json").read_text())
    # three monomials over two axes, (x_1, x_2, 1), for the three coefficients
    report["certificate"]["template"] = {"exponents": [[1, 0], [0, 1], [0, 0]]}
    (tmp_path / "certificate.json").write_text(json.dumps(report["certificate"]))
    (tmp_path / "report.json").write_text(json.dumps(report))
    args = {
        "validate": ["validate", "--certificate", str(tmp_path / "certificate.json"),
                     "--config", config_path, "--trajectories", "10", "--horizon", "20"],
        "plotdata": ["plotdata", "--report", str(tmp_path / "report.json"),
                     "--out", str(tmp_path / "plots")],
    }[verb]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "error: " in result.output
    assert "template must be one-dimensional, got 2 axes" in result.output
    assert "verdict" not in result.output and not (tmp_path / "plots").exists()


@pytest.mark.parametrize("exponents", [[[3], [1], [0]], [[0], [1], [2]]],
                         ids=["sparse", "reversed"])
@pytest.mark.parametrize("verb", ["validate", "plotdata"])
def test_a_certificate_whose_template_is_not_the_full_basis_is_refused(verb, exponents, run_dir,
                                                                       config_path, tmp_path):
    report = json.loads((run_dir / "report.json").read_text())
    # three coefficients, but not over x^2, x, 1 in that order
    report["certificate"]["template"] = {"exponents": exponents}
    (tmp_path / "certificate.json").write_text(json.dumps(report["certificate"]))
    (tmp_path / "report.json").write_text(json.dumps(report))
    args = {
        "validate": ["validate", "--certificate", str(tmp_path / "certificate.json"),
                     "--config", config_path, "--trajectories", "10", "--horizon", "20"],
        "plotdata": ["plotdata", "--report", str(tmp_path / "report.json"),
                     "--out", str(tmp_path / "plots")],
    }[verb]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: could not load"), result.stderr
    assert "template exponents must be every power from the degree down to 0" in lines[0]
    assert str(exponents) in lines[0]
    assert result.stdout == "" and not (tmp_path / "plots").exists()


# One field of a saved certificate that is not a JSON number of its kind.
CERTIFICATE_EDITS = {
    "fractional-exponent": ("template", {"exponents": [[2.7], [1], [0]]},
                            "template exponents must be integers, got 2.7"),
    "boolean-exponent": ("template", {"exponents": [[2], [True], [0]]},
                         "template exponents must be integers, got True"),
    "quoted-coefficient": ("coefficients", ["1.0", 0.0, 0.0],
                           "certificate coefficients entries must be real numbers, got '1.0'"),
    "quoted-decay": ("decay", "0.99", "certificate decay must be a real number, got '0.99'"),
    "boolean-decay": ("decay", True, "certificate decay must be a real number, got True"),
    "quoted-unsafe-level": ("unsafe_level", "2",
                            "certificate unsafe_level must be a real number, got '2'"),
}


@pytest.mark.parametrize("edit", sorted(CERTIFICATE_EDITS))
@pytest.mark.parametrize("verb", ["validate", "plotdata"])
def test_a_certificate_field_that_is_not_a_number_of_its_kind_is_refused(verb, edit, run_dir,
                                                                         config_path, tmp_path):
    key, value, message = CERTIFICATE_EDITS[edit]
    report = json.loads((run_dir / "report.json").read_text())
    report["certificate"][key] = value
    (tmp_path / "certificate.json").write_text(json.dumps(report["certificate"]))
    (tmp_path / "report.json").write_text(json.dumps(report))
    args = {
        "validate": ["validate", "--certificate", str(tmp_path / "certificate.json"),
                     "--config", config_path, "--trajectories", "10", "--horizon", "20"],
        "plotdata": ["plotdata", "--report", str(tmp_path / "report.json"),
                     "--out", str(tmp_path / "plots")],
    }[verb]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "error: " in result.output
    assert message in result.output
    assert "verdict" not in result.output and not (tmp_path / "plots").exists()


# ------------------------------------------------------------------ plotdata


def test_plotdata_series_are_consistent(run_dir, tmp_path):
    out = tmp_path / "plots"
    result = CliRunner().invoke(main, [
        "plotdata", "--report", str(run_dir / "report.json"),
        "--out", str(out), "--points", "64",
    ])
    assert result.exit_code == 0, result.output
    for name in ("barrier_curve.csv", "levels.csv", "samples.csv"):
        assert (out / name).exists(), name

    report = json.loads((run_dir / "report.json").read_text())
    certificate = BarrierCertificate.from_dict(report["certificate"])
    with open(out / "barrier_curve.csv", newline="") as fh:
        curve = list(csv.DictReader(fh))
    assert len(curve) == 64
    xs = np.array([float(r["x"]) for r in curve])
    values = np.array([float(r["value"]) for r in curve])
    assert values == pytest.approx(certificate.evaluate(xs))

    with open(out / "levels.csv", newline="") as fh:
        levels = {r["name"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert levels["initial_level"] == certificate.initial_level
    assert levels["unsafe_level"] == certificate.unsafe_level
    assert levels["slack"] == report["solver"]["slack"]

    with open(out / "samples.csv", newline="") as fh:
        samples = list(csv.DictReader(fh))
    assert len(samples) == report["dataset"]["count"]
    retained = sum(int(r["retained"]) for r in samples)
    assert retained == report["filter"]["retained_count"]


@pytest.mark.parametrize("points", ["0", "-3"])
def test_plotdata_rejects_points_below_one(points, tmp_path):
    # an unreadable report: loading it first would print a load error instead
    report = tmp_path / "report.json"
    report.write_text("")
    out = tmp_path / "plots"
    result = CliRunner().invoke(main, [
        "plotdata", "--report", str(report), "--out", str(out), "--points", points,
    ])
    assert result.exit_code == 1
    assert "error: --points must be at least 1" in result.output
    assert not out.exists()


def samples_csv_oracle(run_dir):
    """samples.csv as ``csv.writer`` renders it from the run's saved arrays."""
    report = json.loads((run_dir / "report.json").read_text())
    config = RunConfig.from_dict(report["config"])
    dataset = load_dataset_rowwise(str(run_dir / "dataset.csv"))
    # the Euclidean norm of the one-column difference
    disc = np.linalg.norm(
        (config.physics_model().step_many(dataset.states) - dataset.successors)[:, None], axis=1)
    if config.filter.enabled:
        kept = disc <= config.filter.threshold
    else:
        kept = np.ones(dataset.count, dtype=bool)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["x", "y", "discrepancy", "retained"])
    writer.writerows(zip(dataset.states.tolist(), dataset.successors.tolist(),
                         disc.tolist(), kept.astype(int).tolist()))
    return out.getvalue().encode("ascii")


@pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "unfiltered"])
def test_plotdata_samples_match_csv_writer_bytes(run_dir, config_path, tmp_path, filtered):
    if not filtered:
        run_dir = tmp_path / "raw"
        result = CliRunner().invoke(
            main, ["run", "--config", config_path, "--no-filter", "--out", str(run_dir)])
        assert result.exit_code in (0, 2), result.output
    out = tmp_path / "plots"
    result = CliRunner().invoke(main, [
        "plotdata", "--report", str(run_dir / "report.json"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "samples.csv").read_bytes() == samples_csv_oracle(run_dir)
    assert (out / "jump.csv").exists() == filtered


@pytest.mark.parametrize("case", ["huge-count", "two-dimensional"])
def test_plotdata_skips_a_dataset_it_cannot_use(case, run_dir, tmp_path):
    (tmp_path / "report.json").write_bytes((run_dir / "report.json").read_bytes())
    if case == "huge-count":
        (tmp_path / "dataset.csv").write_bytes((run_dir / "dataset.csv").read_bytes())
        meta = json.loads((run_dir / "dataset.meta.json").read_text())
        (tmp_path / "dataset.meta.json").write_text(json.dumps({**meta, "count": 10**12}))
    else:
        # a two-column dataset as the CSV format can write it: x_1,x_2,y_1,y_2
        (tmp_path / "dataset.csv").write_text("x_1,x_2,y_1,y_2\n0.1,0.2,0.1,0.2\n0.8,0.9,0.8,0.9\n")
        (tmp_path / "dataset.meta.json").write_text(json.dumps({
            "scheme": SCHEME_IID, "seed": 0, "count": 2, "dimension": 2,
            "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}}))
    out = tmp_path / "plots"
    result = CliRunner().invoke(main, [
        "plotdata", "--report", str(tmp_path / "report.json"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "note: dataset not readable" in result.output
    assert (out / "barrier_curve.csv").exists() and not (out / "samples.csv").exists()


# One edit to a saved report that leaves it unusable.
REPORT_EDITS = {
    "no-solver": lambda r: r.pop("solver"),
    "no-dataset": lambda r: r.pop("dataset"),
    "numeric-dataset-path": lambda r: r["dataset"].update(path=5),
    "list-filter": lambda r: r.update(filter=[1]),
    "quoted-jump-start": lambda r: r["filter"]["max_jump"].update(start_index="10"),
    "boolean-jump-length": lambda r: r["filter"]["max_jump"].update(length=True),
    "negative-jump-start": lambda r: r["filter"]["max_jump"].update(start_index=-1),
    "empty-jump": lambda r: r["filter"]["max_jump"].update(length=0),
}


def plot_edited_report(edit, run_dir, tmp_path):
    """``plotdata`` on the run's report after ``edit``, next to a copy of its dataset."""
    report = json.loads((run_dir / "report.json").read_text())
    assert report["filter"]["max_jump"] is not None
    edit(report)
    (tmp_path / "report.json").write_text(json.dumps(report))
    for name in ("dataset.csv", "dataset.meta.json"):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    return CliRunner().invoke(main, ["plotdata", "--report", str(tmp_path / "report.json"),
                                     "--out", str(tmp_path / "plots")])


@pytest.mark.parametrize("edit", sorted(REPORT_EDITS))
def test_plotdata_refuses_a_malformed_report_before_writing(edit, run_dir, tmp_path):
    result = plot_edited_report(REPORT_EDITS[edit], run_dir, tmp_path)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: could not load report {tmp_path / 'report.json'}: ")
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("jump", [{"start_index": 10**9, "length": 1},
                                  {"start_index": 0, "length": 10**9}, None],
                         ids=["start-past-the-end", "run-past-the-end", "no-filter-block"])
def test_plotdata_skips_a_jump_that_does_not_fit_the_dataset(jump, run_dir, tmp_path):
    def edit(report):
        if jump is None:
            del report["filter"]
        else:
            report["filter"]["max_jump"] = jump

    result = plot_edited_report(edit, run_dir, tmp_path)
    out = tmp_path / "plots"
    assert result.exit_code == 0, result.output
    assert ("note: max_jump" in result.output) == (jump is not None)
    assert (out / "samples.csv").exists() and not (out / "jump.csv").exists()


def test_plotdata_jump_spans_the_longest_discarded_run(run_dir, tmp_path):
    report = json.loads((run_dir / "report.json").read_text())
    start, length = (report["filter"]["max_jump"][k] for k in ("start_index", "length"))
    dataset = load_dataset_rowwise(str(run_dir / "dataset.csv"))
    out = tmp_path / "plots"
    result = CliRunner().invoke(main, [
        "plotdata", "--report", str(run_dir / "report.json"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "jump.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (int(row["start_index"]), int(row["length"])) == (start, length)
    assert float(row["start_x"]) == dataset.states[start]
    assert float(row["end_x"]) == dataset.states[start + length - 1]


def test_plotdata_rejects_missing_report(tmp_path):
    result = CliRunner().invoke(main, [
        "plotdata", "--report", str(tmp_path / "nope.json")])
    assert result.exit_code != 0


# --------------------------------------------------------------------- sweep


def test_sweep_writes_one_row_per_value(config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, [
        "sweep", "--config", config_path, "--param", "threshold",
        "--values", "0.003,0.005", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["value"]) for r in rows] == [0.003, 0.005]
    assert all(r["error"] == "" for r in rows)
    # tighter thresholds keep fewer samples
    assert int(rows[0]["samples"]) < int(rows[1]["samples"])


@pytest.mark.parametrize("param, values", [
    ("samples", "4000,1"), ("threshold", "0.005,-1"),
    ("samples", "4000,nan"), ("samples", "4000,inf"), ("samples", "4000,2500.5"),
])
def test_sweep_records_an_invalid_value_as_its_error_row(param, values, config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, [
        "sweep", "--config", config_path, "--param", param,
        "--values", values, "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    with open(out, newline="") as fh:
        good, bad = csv.DictReader(fh)
    assert good["error"] == "" and good["verdict"] == "pass"
    value, expected = float(bad["value"]), float(values.split(",")[1])
    assert value == expected or (math.isnan(value) and math.isnan(expected))
    assert bad["error"] and bad["verdict"] == ""
    assert f"ERROR: {bad['error']}" in result.output


def test_sweep_records_a_system_that_overflows_as_error_rows(tmp_path):
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(_with_setting(small_config_dict(), "system",
                                               OVERFLOWING_SYSTEM)))
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, [
        "sweep", "--config", str(config), "--param", "risk", "--values", "0.1,0.2",
        "--out", str(out),
    ])
    # every value failed, so the sweep exits 1, but it still writes its rows
    assert result.exit_code == 1, result.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == [
        "the system maps state 1.7977744436109029 to inf, which is not finite"] * 2
    assert "Traceback" not in result.output


def test_sweep_records_a_system_whose_barrier_rows_overflow_as_error_rows(tmp_path):
    config = tmp_path / "overflow.json"
    data = _with_setting(small_config_dict(), "system", BASIS_OVERFLOWING_SYSTEM)
    config.write_text(json.dumps(_with_setting(data, "sampling.count", 2000)))
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, [
        "sweep", "--config", str(config), "--param", "risk", "--values", "0.1,0.2",
        "--out", str(out),
    ])
    assert result.exit_code == 1, result.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == [
        "the flow row of state 0.5 and successor 5e+199 is not finite at degree 2"] * 2
    assert "Traceback" not in result.output


def test_sweep_rejects_bad_values(config_path, tmp_path):
    result = CliRunner().invoke(main, [
        "sweep", "--config", config_path, "--param", "samples",
        "--values", "10,abc", "--out", str(tmp_path / "s.csv"),
    ])
    assert result.exit_code == 1


# ----------------------------------------------------------------- reproduce


def test_reproduce_smoke_scale(tmp_path):
    out = tmp_path / "repro"
    result = CliRunner().invoke(main, ["reproduce", "--scale", "0.01",
                                       "--out", str(out)])
    # tiny sample budgets cannot certify, so the gate reports failure
    assert result.exit_code == 2, result.output
    with open(out / "reproduce.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(REFERENCE_RESULTS) == 8
    assert {r["key"] for r in rows} == set(REFERENCE_RESULTS)
    assert (out / "reproduce.json").exists()
    for row in rows:
        if not row["error"]:
            assert row["verdict"] in ("pass", "fail")
            assert float(row["our_lipschitz"]) > 0


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_reproduce_rejects_a_scale_that_is_not_positive_and_finite(scale, tmp_path,
                                                                     monkeypatch):
    def no_run(config):
        raise AssertionError("ran a setting with a bad --scale")

    monkeypatch.setattr("physbc.cli.run", no_run)
    out = tmp_path / "repro"
    result = CliRunner().invoke(main, ["reproduce", "--scale", scale, "--out", str(out)])
    assert result.exit_code == 1
    assert "error: --scale must be positive and finite" in result.output
    assert not out.exists()


@pytest.mark.parametrize("verb", ["reproduce", "sweep"])
def test_batch_verbs_have_no_jobs_option(verb, config_path):
    args = {"reproduce": ["--scale", "0.01"],
            "sweep": ["--config", config_path, "--param", "samples", "--values", "4000"]}
    result = CliRunner().invoke(main, [verb, *args[verb], "--jobs", "2"])
    assert result.exit_code == 2
    assert "no such option" in result.output.lower() and "--jobs" in result.output


# --------------------------------------------------------------------- units


def test_drift_formatting():
    assert _drift(1.1, 1.0) == "+10.0%"
    assert _drift(0.9, 1.0) == "-10.0%"
    assert _drift(0.5, 0.0) == "n/a"


def test_reference_config_shapes():
    config = reference_config("sd-det-phys")
    assert config.name == "sd-det-phys"
    assert config.sampling.count == 220_000
    assert config.filter.enabled
    trad = reference_config("sd-det-trad")
    assert not trad.filter.enabled
    scaled = reference_config("sd-det-phys", scale=0.001)
    assert scaled.sampling.count == 2000  # floor kicks in
    prob = reference_config("lg-prob-phys")
    assert prob.guarantee.mode == "probabilistic"
    assert prob.sampling.count == 260_000


# -------------------------------------------------------------------- import


def test_cli_import_loads_no_scipy():
    code = ("import sys, physbc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(physbc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    code = ("import sys, physbc.cli; "
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(physbc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_third_party_package_beyond_numpy_and_click():
    # import time is the benchmark's setup_s: a new top-level dependency shows up here first
    code = ("import sys, numpy, click\n"
            "before = set(sys.modules)\n"
            "import physbc.cli\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'physbc'}))")
    src = os.path.dirname(os.path.dirname(physbc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_run_loads_no_scipy(tmp_path):
    # only the HiGHS cross-check imports scipy
    config = tmp_path / "run.json"
    config.write_text(json.dumps(small_config_dict()))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    code = ("import sys, physbc.cli\n"
            "try:\n"
            f"    physbc.cli.main({argv!r}, standalone_mode=False)\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(physbc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert (tmp_path / "out" / "report.json").exists()
    assert out.stdout.strip().splitlines()[-1] == "[]"


# Runs one physbc command, then prints how many children it forked and whether
# one is left unreaped.
_FORK_COUNTING_MAIN = """
import os, sys
import physbc.cli
forks = []
fork = os.fork
def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted_fork
try:
    physbc.cli.main(sys.argv[1:])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = "a child left"
    except ChildProcessError:
        left = "no child left"
    print(f"{len(forks)} forks, {left}")
"""


def test_run_and_plotdata_split_a_dataset_above_the_threshold_silently(tmp_path):
    count = 2 * sampling._ROW_CHUNK + 2  # the smallest dataset whose halves get a chunk each
    config = tmp_path / "big.json"
    config.write_text(json.dumps(_with_setting(small_config_dict(), "sampling.count", count)))
    src = os.path.dirname(os.path.dirname(physbc.__file__))

    def physbc_command(*argv):
        return subprocess.run([sys.executable, "-W", "error", "-c", _FORK_COUNTING_MAIN, *argv],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})

    run = physbc_command("run", "--config", str(config), "--out", str(tmp_path / "run"))
    # this count's verdict is fail; one fork writes dataset.csv
    assert (run.returncode, run.stderr) == (2, ""), run.stderr
    forks = 1 if sampling._split_at(count) else 0
    assert run.stdout.splitlines()[-1] == f"{forks} forks, no child left"
    plot = physbc_command("plotdata", "--report", str(tmp_path / "run" / "report.json"),
                          "--out", str(tmp_path / "plot"))
    # one fork reads dataset.csv, one writes samples.csv
    assert (plot.returncode, plot.stderr) == (0, ""), plot.stderr
    assert plot.stdout.splitlines()[-1] == f"{2 * forks} forks, no child left"

    # the bytes one value at a time would give
    dataset = load_dataset_rowwise(str(tmp_path / "run" / "dataset.csv"))
    assert dataset.count == count
    save_dataset_rowwise(dataset, str(tmp_path / "rowwise.csv"))
    assert (tmp_path / "rowwise.csv").read_bytes() == (tmp_path / "run" / "dataset.csv").read_bytes()
    samples = (tmp_path / "plot" / "samples.csv").read_bytes().decode("ascii").split("\r\n")
    assert [line.split(",")[:2] for line in samples[1:-1]] == [
        [repr(x), repr(y)] for x, y in zip(dataset.states.tolist(), dataset.successors.tolist())]
