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
from oracles import load_dataset_rowwise
from physbc.barrier import BarrierCertificate
from physbc.cli import REFERENCE_RESULTS, _drift, main, reference_config
from physbc.config import (
    LipschitzSpec,
    RunConfig,
    SamplingSpec,
    ValidationSpec,
    preset,
)


def small_config_dict():
    config = replace(
        preset("supply-demand"),
        sampling=SamplingSpec(count=4000, seed=2024),
        lipschitz=LipschitzSpec(pair_budget=100_000),
        validation=ValidationSpec(trajectories=50, horizon=100, seed=99),
    )
    return config.to_dict()


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


def test_run_rejects_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = CliRunner().invoke(main, ["run", "--config", str(bad),
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 1


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


@pytest.mark.parametrize("section, value, message", [
    ("solver", {"coeff_bound": -1.0}, "coeff_bound must be positive"),
    ("validation", {"trajectories": 0}, "validation trajectories must be at least 1"),
    ("validation", {"horizon": 0}, "validation horizon must be at least 1"),
], ids=["negative-coeff-bound", "zero-trajectories", "zero-horizon"])
def test_run_rejects_bad_solver_or_validation_section_at_load(section, value, message,
                                                               tmp_path, monkeypatch):
    data = small_config_dict()
    data[section].update(value)
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


def test_run_preset_with_overrides(tmp_path):
    out = tmp_path / "preset-out"
    result = CliRunner().invoke(
        main, ["run", "--preset", "supply-demand", "--seed", "11", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["sampling"]["seed"] == 11
    assert report["verdict"] == "pass"


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
    assert f"error: {option} must be at least 1" in result.output


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
    assert values == pytest.approx(certificate.evaluate(xs[:, None]))

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
    disc = np.linalg.norm(
        config.physics_model().step_many(dataset.states) - dataset.successors, axis=1)
    if config.filter.enabled:
        kept = disc <= config.filter.threshold
    else:
        kept = np.ones(dataset.count, dtype=bool)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["x", "y", "discrepancy", "retained"])
    writer.writerows(zip(dataset.states[:, 0].tolist(), dataset.successors[:, 0].tolist(),
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


def test_cli_run_loads_no_scipy_optimize(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(small_config_dict()))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    code = ("import sys, physbc.cli\n"
            "try:\n"
            f"    physbc.cli.main({argv!r}, standalone_mode=False)\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))")
    src = os.path.dirname(os.path.dirname(physbc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert (tmp_path / "out" / "report.json").exists()
    assert out.stdout.strip().splitlines()[-1] == "[]"
