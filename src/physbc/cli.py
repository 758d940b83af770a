"""Command line interface.

Verbs:

* ``run``        execute one certification pipeline from a config or preset
* ``reproduce``  rerun the eight baseline case-study settings and report drift
* ``sweep``      rerun one config while varying a single parameter
* ``plotdata``   dump CSV series (barrier curve, levels, samples) for plotting
* ``validate``   empirical trajectory check of a saved certificate

Exit codes: 0 when the requested check passes, 2 when a certificate or
validation fails, 1 on configuration or runtime errors.  Verbs raise
:class:`PhysbcError` for bad input; the group prints it, an ``OSError`` such
as an output path that cannot be written, or a ``MemoryError`` from a size too
large to allocate, as one ``error: ...`` line on stderr and exits 1.
"""

from __future__ import annotations

import atexit
import csv
import json
import math
import os
import sys
from dataclasses import asdict, replace

import click
import numpy as np

from .barrier import BarrierCertificate
from .config import (
    MODE_DETERMINISTIC,
    MODE_PROBABILISTIC,
    RunConfig,
    apply_overrides,
    preset,
)
from .errors import PhysbcError
from .filtering import apply_filter, discrepancies
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
        "samples": 220_000, "metric": 5.0e-6,
        "lipschitz": 67.90, "slack": -0.0235, "condition": -0.0231,
    },
    "sd-det-phys": {
        "system": "supply-demand", "mode": MODE_DETERMINISTIC, "filtered": True,
        "samples": 110_228, "metric": 9.0e-5,
        "lipschitz": 103.72, "slack": -0.0527, "condition": -0.0434,
    },
    "sd-prob-trad": {
        "system": "supply-demand", "mode": MODE_PROBABILISTIC, "filtered": False,
        "samples": 300_000, "metric": 3.1e-5,
        "lipschitz": 11.51, "slack": -0.2078, "condition": -0.2070,
    },
    "sd-prob-phys": {
        "system": "supply-demand", "mode": MODE_PROBABILISTIC, "filtered": True,
        "samples": 150_260, "metric": 6.18e-5,
        "lipschitz": 11.51, "slack": -0.2094, "condition": -0.2078,
    },
    "lg-det-trad": {
        "system": "logistic-growth", "mode": MODE_DETERMINISTIC, "filtered": False,
        "samples": 90_000, "metric": 5.0e-6,
        "lipschitz": 25.25, "slack": -0.0065, "condition": -0.0064,
    },
    "lg-det-phys": {
        "system": "logistic-growth", "mode": MODE_DETERMINISTIC, "filtered": True,
        "samples": 45_175, "metric": 8.0e-5,
        "lipschitz": 222.87, "slack": -0.0694, "condition": -0.0515,
    },
    "lg-prob-trad": {
        "system": "logistic-growth", "mode": MODE_PROBABILISTIC, "filtered": False,
        "samples": 260_000, "metric": 4.05e-5,
        "lipschitz": 2.9479, "slack": -6.4189e-4, "condition": -5.3444e-4,
    },
    "lg-prob-phys": {
        "system": "logistic-growth", "mode": MODE_PROBABILISTIC, "filtered": True,
        "samples": 130_234, "metric": 8.08e-5,
        "lipschitz": 5.0397, "slack": -0.0021, "condition": -0.0017,
    },
}

# What a verb reports as one ``error: ...`` line, and a ``reproduce`` or
# ``sweep`` setting as its error row: bad input, a path that cannot be read or
# written, and a size too large to allocate.
_REPORTED_ERRORS = (PhysbcError, OSError, MemoryError)

METRIC_LABEL = {MODE_DETERMINISTIC: "radius", MODE_PROBABILISTIC: "level"}

# The columns ``reproduce`` and ``sweep`` compare, ours against the reference.
COMPARED = ("samples", "metric", "lipschitz", "slack", "condition")


def reference_config(key: str, scale: float = 1.0) -> RunConfig:
    """The preset for one baseline row, optionally scaling its sample count."""
    ref = REFERENCE_RESULTS[key]
    config = preset(ref["system"], ref["mode"])
    count = max(2000, int(round(config.sampling.count * scale)))
    return replace(
        config,
        name=key,
        sampling=replace(config.sampling, count=count),
        filter=replace(config.filter, enabled=ref["filtered"]),
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
    """Run one config; return ``(_ours_row, None)``, or ``(None, message)`` on one of
    the ``_REPORTED_ERRORS``."""
    try:
        return _ours_row(run(config).report), None
    except _REPORTED_ERRORS as exc:
        return None, str(exc)


def _sweep_config(config: RunConfig, param: str, value: float) -> RunConfig:
    """``config`` with ``param`` set to ``value``; ValueError if that makes it invalid."""
    if param == "threshold":
        # Pin the surrogate perturbation first; it defaults to a multiple of
        # the threshold and the sweep must not move the ground truth.
        perturbation = replace(config.perturbation, amplitude=config.perturbation_amplitude())
        return replace(
            config,
            perturbation=perturbation,
            filter=replace(config.filter, enabled=True, threshold=value),
        )
    if param == "samples":  # a fraction, nan or inf fails the config's integer check
        count = int(value) if value.is_integer() else value
        return replace(config, sampling=replace(config.sampling, count=count))
    # "risk", the one name left among --param's choices
    return replace(config, guarantee=replace(config.guarantee, risk=value))


def _load(what: str, path: str, parse):
    """``parse`` of the JSON in ``path`` (utf-8 for a config, else ascii, as each is
    written); a failure to read or parse it is a PhysbcError naming the file."""
    try:
        with open(path, encoding="utf-8" if what == "config" else "ascii") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise PhysbcError(f"could not load {what} {path}: {exc}") from exc


def _report_parts(report: dict):
    """What ``plotdata`` reads of a report: config, certificate, slack, dataset path."""
    config = RunConfig.from_dict(report["config"])
    certificate = BarrierCertificate.from_dict(report["certificate"])
    slack = report["solver"]["slack"]
    data_rel = report["dataset"]["path"]
    if data_rel is not None and not isinstance(data_rel, str):
        raise TypeError(f"dataset.path must be a string or null, got {data_rel!r}")
    return config, certificate, slack, data_rel


def _write_table(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class _Group(click.Group):
    """Reports one of the ``_REPORTED_ERRORS`` that escapes a verb as ``error: ...``
    with exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's own handler quiets a closed stdout
        except _REPORTED_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
def main():
    """Data-driven barrier certificates with a physics-consistency filter."""
    # A verb's process exits soon after its work; freezing the heap at exit
    # spares the interpreter's last collection of the whole module graph.
    # Registered when a verb starts, not on import, so importing this module
    # changes nothing; unregistered first, so a process that runs verbs many
    # times holds one handler; gc is imported here for the same reason.
    import gc

    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


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
    if (config_path is None) == (preset_name is None):
        raise PhysbcError("provide exactly one of --config or --preset")
    if config_path is not None:
        config = _load("config", config_path, RunConfig.from_dict)
    else:
        config = preset(preset_name, mode or MODE_DETERMINISTIC)
    try:
        config = apply_overrides(config, seed=seed, mode=mode, no_filter=no_filter)
    except ValueError as exc:  # an override made the config invalid
        raise PhysbcError(str(exc)) from exc
    artifacts = run(config)
    report = write_artifacts(artifacts, out_dir)

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
        raise PhysbcError("--scale must be positive and finite")
    try:  # a finite scale can still take a sample count past the float range
        configs = {key: reference_config(key, scale=scale) for key in REFERENCE_RESULTS}
    except OverflowError as exc:
        raise PhysbcError(f"--scale {scale!r} takes a sample count past the float range") from exc
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    all_pass = True
    for key, ref in REFERENCE_RESULTS.items():
        ours, error = _run_row(configs[key])
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
        row = {"key": key, "system": ref["system"], "mode": ref["mode"],
               "filtered": ref["filtered"], "verdict": verdict, "error": ""}
        for field in COMPARED:
            name = label if field == "metric" else field
            click.echo(
                f"  {name:<10s} ref {ref[field]:<12.6g} ours {ours[field]:<12.6g}"
                f" ({_drift(ours[field], ref[field])})"
            )
            row[f"ref_{field}"] = ref[field]
            row[f"our_{field}"] = ours[field]
        rows.append(row)

    fields = ["key", "system", "mode", "filtered", "verdict", "error"]
    for field in COMPARED:
        fields += [f"ref_{field}", f"our_{field}"]
    _write_table(os.path.join(out_dir, "reproduce.csv"), fields,
                 ([row.get(f, "") for f in fields] for row in rows))
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
    config = _load("config", config_path, RunConfig.from_dict)
    try:
        parsed = [float(v) for v in values.split(",") if v.strip()]
    except ValueError as exc:
        raise PhysbcError(f"bad --values: {exc}") from exc
    if not parsed:
        raise PhysbcError("no sweep values given")
    if not os.path.isdir(os.path.dirname(os.path.abspath(out_path))):
        raise PhysbcError(f"no directory to write --out {out_path} in")

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

    fields = ["value", *COMPARED, "verdict", "error"]
    _write_table(out_path, fields, ([row.get(f, "") for f in fields] for row in rows))
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
    """Dump plot-ready CSV series from a saved run report."""
    if points < 1:
        raise PhysbcError("--points must be at least 1")
    config, certificate, slack, data_rel = _load("report", report_path, _report_parts)

    grid = np.linspace(config.domain.lower, config.domain.upper, points)
    os.makedirs(out_dir, exist_ok=True)
    _write_table(os.path.join(out_dir, "barrier_curve.csv"), ["x", "value"],
                 zip(grid.tolist(), certificate.evaluate(grid).tolist()))
    _write_table(os.path.join(out_dir, "levels.csv"), ["name", "value"], [
        ["initial_level", certificate.initial_level],
        ["unsafe_level", certificate.unsafe_level],
        ["decay", certificate.decay],
        ["slack", slack],
    ])
    written = ["barrier_curve.csv", "levels.csv"]

    dataset = None
    if not data_rel:
        click.echo("note: report has no saved dataset; skipping samples.csv")
    else:
        data_path = os.path.join(os.path.dirname(os.path.abspath(report_path)), data_rel)
        try:
            dataset = load_dataset(data_path)
        except (OSError, PhysbcError) as exc:
            click.echo(f"note: dataset not readable ({exc}); skipping samples.csv")
    if dataset is not None:
        physics = config.physics_model()
        if config.filter.enabled:
            outcome = apply_filter(dataset, physics, config.filter.threshold)
            disc, kept = outcome.discrepancies, outcome.mask
        else:
            disc, kept = discrepancies(dataset, physics), np.ones(dataset.count, dtype=bool)
        # Same bytes as csv.writer: repr floats, integer flags, CRLF endings.
        with open(os.path.join(out_dir, "samples.csv"), "w", newline="", encoding="ascii") as fh:
            fh.write("x,y,discrepancy,retained\r\n")
            write_rows(fh, "%r,%r,%r,%d\r\n", (dataset.states, dataset.successors, disc, kept))
        written.append("samples.csv")
        # the longest discarded run of the mask just written; read after the
        # write, so that its scratch arrays do not add to the write's peak
        jump = outcome.max_jump if config.filter.enabled else None
        if jump is not None:
            start, length = jump
            _write_table(os.path.join(out_dir, "jump.csv"),
                         ["start_index", "length", "start_x", "end_x"],
                         [[start, length, dataset.states[start],
                           dataset.states[start + length - 1]]])
            written.append("jump.csv")

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
    config = _load("config", config_path, RunConfig.from_dict)
    overrides = {"trajectories": trajectories, "horizon": horizon, "seed": seed}
    try:  # the config's own check names the field an override makes invalid
        config = replace(config, validation=replace(
            config.validation, **{k: v for k, v in overrides.items() if v is not None}))
    except ValueError as exc:
        raise PhysbcError(str(exc)) from exc
    certificate = _load("certificate", cert_path, BarrierCertificate.from_dict)
    safety = check_safety_empirically(
        config.true_model(), config.initial, config.unsafe, **asdict(config.validation)
    )

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
