"""Command line interface.

Verbs:

* ``run``        execute one certification pipeline from a config or preset
* ``reproduce``  rerun the eight baseline case-study settings and report drift
* ``sweep``      rerun one config while varying a single parameter
* ``plotdata``   dump CSV series (barrier curve, levels, samples) for plotting
* ``validate``   empirical trajectory check of a saved certificate

Exit codes: 0 when the requested check passes, 2 when a certificate or
validation fails, 1 on configuration or runtime errors.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import replace

import click
import numpy as np

from .barrier import BarrierCertificate
from .config import (
    MODE_DETERMINISTIC,
    MODE_PROBABILISTIC,
    FilterSpec,
    RunConfig,
    apply_overrides,
    preset,
)
from .errors import PhysbcError
from .filtering import discrepancies
from .models import check_safety_empirically
from .pipeline import run, write_artifacts
from .sampling import load_dataset, write_rows

# Baseline outcomes for the bundled case studies.  ``reproduce`` reruns each
# setting and prints ours-next-to-baseline with relative drift; drift is
# informational (certificates are scale-equivariant, so slack magnitudes vary
# with solver bounds) while the verdict column is what gates the exit code.
REFERENCE_RESULTS = {
    "sd-det-trad": {
        "system": "supply-demand", "mode": MODE_DETERMINISTIC, "filtered": False,
        "input_count": 220_000, "samples": 220_000, "metric": 5.0e-6,
        "lipschitz": 67.90, "slack": -0.0235, "condition": -0.0231,
    },
    "sd-det-phys": {
        "system": "supply-demand", "mode": MODE_DETERMINISTIC, "filtered": True,
        "input_count": 220_000, "samples": 110_228, "metric": 9.0e-5,
        "lipschitz": 103.72, "slack": -0.0527, "condition": -0.0434,
    },
    "sd-prob-trad": {
        "system": "supply-demand", "mode": MODE_PROBABILISTIC, "filtered": False,
        "input_count": 300_000, "samples": 300_000, "metric": 3.1e-5,
        "lipschitz": 11.51, "slack": -0.2078, "condition": -0.2070,
    },
    "sd-prob-phys": {
        "system": "supply-demand", "mode": MODE_PROBABILISTIC, "filtered": True,
        "input_count": 300_000, "samples": 150_260, "metric": 6.18e-5,
        "lipschitz": 11.51, "slack": -0.2094, "condition": -0.2078,
    },
    "lg-det-trad": {
        "system": "logistic-growth", "mode": MODE_DETERMINISTIC, "filtered": False,
        "input_count": 90_000, "samples": 90_000, "metric": 5.0e-6,
        "lipschitz": 25.25, "slack": -0.0065, "condition": -0.0064,
    },
    "lg-det-phys": {
        "system": "logistic-growth", "mode": MODE_DETERMINISTIC, "filtered": True,
        "input_count": 90_000, "samples": 45_175, "metric": 8.0e-5,
        "lipschitz": 222.87, "slack": -0.0694, "condition": -0.0515,
    },
    "lg-prob-trad": {
        "system": "logistic-growth", "mode": MODE_PROBABILISTIC, "filtered": False,
        "input_count": 260_000, "samples": 260_000, "metric": 4.05e-5,
        "lipschitz": 2.9479, "slack": -6.4189e-4, "condition": -5.3444e-4,
    },
    "lg-prob-phys": {
        "system": "logistic-growth", "mode": MODE_PROBABILISTIC, "filtered": True,
        "input_count": 260_000, "samples": 130_234, "metric": 8.08e-5,
        "lipschitz": 5.0397, "slack": -0.0021, "condition": -0.0017,
    },
}

METRIC_LABEL = {MODE_DETERMINISTIC: "radius", MODE_PROBABILISTIC: "level"}


def reference_config(key: str, scale: float = 1.0) -> RunConfig:
    """Config for one baseline row, optionally scaling the sample count."""
    ref = REFERENCE_RESULTS[key]
    config = preset(ref["system"], ref["mode"])
    count = max(2000, int(round(ref["input_count"] * scale)))
    return replace(
        config,
        name=key,
        sampling=replace(config.sampling, count=count),
        filter=FilterSpec(enabled=ref["filtered"], threshold=0.005),
    )


def _ours_row(report: dict) -> dict:
    guarantee = report["guarantee"]
    if guarantee["mode"] == MODE_DETERMINISTIC:
        metric = guarantee["covering_radius"]
    else:
        metric = guarantee["violation_level"]
    filt = report["filter"]
    return {
        "samples": filt.get("retained_count", report["dataset"]["count"]),
        "metric": metric,
        "lipschitz": report["lipschitz"]["overall"],
        "slack": report["solver"]["slack"],
        "condition": report["certification"]["condition"],
        "verdict": report["verdict"],
    }


def _drift(ours: float, ref: float) -> str:
    if ref == 0:
        return "n/a"
    return f"{(ours - ref) / abs(ref) * 100.0:+.1f}%"


def _run_row(config: RunConfig):
    """Run one config; return ``(_ours_row, None)``, or ``(None, message)`` on a PhysbcError."""
    try:
        return _ours_row(run(config).report), None
    except PhysbcError as exc:
        return None, str(exc)


def _sweep_config(config: RunConfig, param: str, value: float) -> RunConfig:
    """``config`` with ``param`` set to ``value``; ValueError if that makes it invalid."""
    if param == "threshold":
        # Pin the surrogate perturbation first; it defaults to a multiple of
        # the threshold and the sweep must not move the ground truth.
        perturbation = replace(config.perturbation, amplitude=config.perturbation_amplitude())
        swept = replace(
            config,
            perturbation=perturbation,
            filter=replace(config.filter, enabled=True, threshold=value),
        )
    elif param == "samples":
        if not value.is_integer():  # also rejects nan and inf
            raise ValueError(f"sample count must be a whole number, got {value:g}")
        swept = replace(config, sampling=replace(config.sampling, count=int(value)))
    elif param == "risk":
        swept = replace(config, guarantee=replace(config.guarantee, risk=value))
    else:
        raise ValueError(f"unknown sweep parameter {param!r}")
    swept.validate()
    return swept


def _load_config(path: str) -> RunConfig:
    try:
        return RunConfig.from_json(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise PhysbcError(f"could not load config {path}: {exc}") from exc


@click.group()
def main():
    """Data-driven barrier certificates with a physics-consistency filter."""


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON run configuration.")
@click.option("--preset", "preset_name",
              type=click.Choice(["supply-demand", "logistic-growth"]),
              help="Built-in case study (alternative to --config).")
@click.option("--mode", type=click.Choice([MODE_DETERMINISTIC, MODE_PROBABILISTIC]),
              default=None, help="Guarantee mode override.")
@click.option("--seed", type=int, default=None, help="Sampling seed override.")
@click.option("--no-filter", is_flag=True, help="Disable the physics filter.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="run-out",
              show_default=True, help="Directory for report and artifacts.")
def cmd_run(config_path, preset_name, mode, seed, no_filter, out_dir):
    """Run one certification pipeline and write its artifacts."""
    try:
        if (config_path is None) == (preset_name is None):
            raise PhysbcError("provide exactly one of --config or --preset")
        if config_path is not None:
            config = _load_config(config_path)
        else:
            config = preset(preset_name, mode or MODE_DETERMINISTIC)
        try:
            config = apply_overrides(config, seed=seed, mode=mode, no_filter=no_filter)
        except ValueError as exc:  # an override made the config invalid
            raise PhysbcError(str(exc)) from exc
        artifacts = run(config)
        report = write_artifacts(artifacts, out_dir)
    except PhysbcError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    filt = report["filter"]
    if filt["enabled"]:
        click.echo(
            f"samples {filt['input_count']}  retained {filt['retained_count']}"
            f"  ({100.0 * filt['retention']:.1f}%)"
        )
    else:
        click.echo(f"samples {filt['input_count']}  (filter disabled)")
    cert = report["certification"]
    click.echo(
        f"slack {report['solver']['slack']:.6g}  lipschitz"
        f" {report['lipschitz']['overall']:.6g}  condition {cert['condition']:.6g}"
        f"  confidence {cert['confidence']:g}"
    )
    click.echo(f"verdict: {report['verdict']}  (artifacts in {out_dir})")
    sys.exit(0 if report["verdict"] == "pass" else 2)


@main.command("reproduce")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="reproduce-out",
              show_default=True, help="Directory for the summary CSV/JSON.")
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="Scale factor on sample counts (smoke testing aid).")
def cmd_reproduce(out_dir, scale):
    """Rerun all baseline case-study settings and compare against references."""
    if not (scale > 0 and math.isfinite(scale)):
        click.echo("error: --scale must be positive and finite", err=True)
        sys.exit(1)
    rows = []
    all_pass = True
    for key, ref in REFERENCE_RESULTS.items():
        ours, error = _run_row(reference_config(key, scale=scale))
        label = METRIC_LABEL[ref["mode"]]
        title = f"{ref['system']} {ref['mode']} {'physics' if ref['filtered'] else 'traditional'}"
        if error is not None:
            all_pass = False
            click.echo(f"{title:<55s} ERROR: {error}")
            rows.append({"key": key, "error": error})
            continue
        verdict = ours["verdict"]
        all_pass = all_pass and verdict == "pass"
        click.echo(f"{title:<55s} verdict: {verdict}")
        for field in ("samples", "metric", "lipschitz", "slack", "condition"):
            name = label if field == "metric" else field
            click.echo(
                f"  {name:<10s} ref {ref[field]:<12.6g} ours {ours[field]:<12.6g}"
                f" ({_drift(ours[field], ref[field])})"
            )
        row = {"key": key, "system": ref["system"], "mode": ref["mode"],
               "filtered": ref["filtered"], "verdict": verdict, "error": ""}
        for field in ("samples", "metric", "lipschitz", "slack", "condition"):
            row[f"ref_{field}"] = ref[field]
            row[f"our_{field}"] = ours[field]
        rows.append(row)

    fields = ["key", "system", "mode", "filtered", "verdict", "error"]
    for field in ("samples", "metric", "lipschitz", "slack", "condition"):
        fields += [f"ref_{field}", f"our_{field}"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "reproduce.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(out_dir, "reproduce.json"), "w", encoding="ascii") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"summary written to {out_dir}")
    sys.exit(0 if all_pass else 2)


@main.command("sweep")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON run configuration to vary.")
@click.option("--param", type=click.Choice(["threshold", "samples", "risk"]),
              required=True, help="Parameter to sweep.")
@click.option("--values", required=True,
              help="Comma-separated parameter values, e.g. 0.001,0.005,0.02.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="sweep.csv",
              show_default=True, help="Output CSV path.")
def cmd_sweep(config_path, param, values, out_path):
    """Rerun one config while varying a single parameter."""
    try:
        config = _load_config(config_path)
        parsed = [float(v) for v in values.split(",") if v.strip()]
        if not parsed:
            raise PhysbcError("no sweep values given")
    except ValueError as exc:
        click.echo(f"error: bad --values: {exc}", err=True)
        sys.exit(1)
    except PhysbcError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    rows = []
    for value in parsed:
        try:
            swept = _sweep_config(config, param, value)
        except ValueError as exc:  # this value makes the config invalid
            ours, error = None, str(exc)
        else:
            ours, error = _run_row(swept)
        if error is not None:
            click.echo(f"{param}={value:g}  ERROR: {error}")
            rows.append({"value": value, "error": error})
            continue
        click.echo(
            f"{param}={value:g}  slack {ours['slack']:.6g}"
            f"  condition {ours['condition']:.6g}  verdict {ours['verdict']}"
        )
        rows.append({**ours, "value": value, "error": ""})

    fields = ["value", "samples", "metric", "lipschitz", "slack", "condition",
              "verdict", "error"]
    with open(out_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"sweep written to {out_path}")
    sys.exit(0 if any(not r["error"] for r in rows) else 1)


@main.command("plotdata")
@click.option("--report", "report_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="report.json produced by `physbc run`.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="plot-data",
              show_default=True, help="Directory for the CSV series.")
@click.option("--points", type=int, default=512, show_default=True,
              help="Resolution of the barrier curve.")
def cmd_plotdata(report_path, out_dir, points):
    """Dump plot-ready CSV series from a saved run report (1-D systems)."""
    if points < 1:
        click.echo("error: --points must be at least 1", err=True)
        sys.exit(1)
    try:
        with open(report_path, encoding="ascii") as fh:
            report = json.load(fh)
        config = RunConfig.from_dict(report["config"])
        certificate = BarrierCertificate.from_dict(report["certificate"])
        if config.domain.dimension != 1:
            raise PhysbcError("plotdata supports one-dimensional systems only")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        click.echo(f"error: could not load report: {exc}", err=True)
        sys.exit(1)
    except PhysbcError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    os.makedirs(out_dir, exist_ok=True)
    lo, hi = float(config.domain.lower[0]), float(config.domain.upper[0])
    grid = np.linspace(lo, hi, points)
    curve = certificate.evaluate(grid[:, None])
    with open(os.path.join(out_dir, "barrier_curve.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        writer.writerows(zip(grid.tolist(), np.asarray(curve).tolist()))

    with open(os.path.join(out_dir, "levels.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "value"])
        writer.writerow(["initial_level", certificate.initial_level])
        writer.writerow(["unsafe_level", certificate.unsafe_level])
        writer.writerow(["decay", certificate.decay])
        writer.writerow(["slack", report["solver"]["slack"]])

    written = ["barrier_curve.csv", "levels.csv"]
    data_rel = report["dataset"].get("path")
    if data_rel:
        data_path = os.path.join(os.path.dirname(os.path.abspath(report_path)), data_rel)
        try:
            dataset = load_dataset(data_path)
        except (OSError, PhysbcError) as exc:
            click.echo(f"note: dataset not readable ({exc}); skipping samples.csv")
            dataset = None
        if dataset is not None:
            disc = discrepancies(dataset, config.physics_model())
            if config.filter.enabled:
                kept = disc <= config.filter.threshold
            else:
                kept = np.ones(dataset.count, dtype=bool)
            # Same bytes as csv.writer: repr floats, integer flags, CRLF endings.
            with open(os.path.join(out_dir, "samples.csv"), "w", newline="", encoding="ascii") as fh:
                fh.write("x,y,discrepancy,retained\r\n")
                write_rows(fh, "%r,%r,%r,%d\r\n", np.column_stack(
                    [dataset.states[:, 0], dataset.successors[:, 0], disc, kept]))
            written.append("samples.csv")
            jump = report.get("filter", {}).get("max_jump")
            if config.filter.enabled and jump:
                start, length = jump["start_index"], jump["length"]
                end = min(start + length - 1, dataset.count - 1)
                with open(os.path.join(out_dir, "jump.csv"), "w", newline="", encoding="ascii") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["start_index", "length", "start_x", "end_x"])
                    writer.writerow([start, length,
                                     dataset.states[start, 0], dataset.states[end, 0]])
                written.append("jump.csv")
    else:
        click.echo("note: report has no saved dataset; skipping samples.csv")

    click.echo(f"wrote {', '.join(written)} to {out_dir}")
    sys.exit(0)


@main.command("validate")
@click.option("--certificate", "cert_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="certificate.json produced by `physbc run`.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON run configuration for the system.")
@click.option("--trajectories", type=int, default=None, help="Override trajectory count.")
@click.option("--horizon", type=int, default=None, help="Override step count.")
@click.option("--seed", type=int, default=None, help="Override simulation seed.")
def cmd_validate(cert_path, config_path, trajectories, horizon, seed):
    """Check a saved certificate's levels and simulate the true system."""
    for name, value in (("trajectories", trajectories), ("horizon", horizon)):
        if value is not None and value < 1:
            click.echo(f"error: --{name} must be at least 1", err=True)
            sys.exit(1)
    try:
        config = _load_config(config_path)
        with open(cert_path, encoding="ascii") as fh:
            certificate = BarrierCertificate.from_dict(json.load(fh))
        safety = check_safety_empirically(
            config.true_model(),
            config.initial,
            config.unsafe,
            trajectories=config.validation.trajectories if trajectories is None else trajectories,
            horizon=config.validation.horizon if horizon is None else horizon,
            seed=seed if seed is not None else config.validation.seed,
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except PhysbcError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    ok = certificate.definition_ok
    click.echo(f"levels: initial {certificate.initial_level:.6g} <"
               f" unsafe {certificate.unsafe_level:.6g}: {'ok' if ok else 'VIOLATED'}")
    click.echo(
        f"simulated {safety.trajectories} trajectories x {safety.horizon} steps:"
        f" {safety.violation_count} unsafe entries"
    )
    passed = ok and safety.safe
    click.echo(f"verdict: {'pass' if passed else 'fail'}")
    sys.exit(0 if passed else 2)


if __name__ == "__main__":
    main()
