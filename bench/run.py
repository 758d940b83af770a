"""physbc benchmark: time to certificate, measured from outside the package.

Usage (from the repository root):

    python3 bench/run.py --workload reproduce-full --seed 0 --seconds 25 --trace 0

Workloads (one closed-loop client, one operation at a time):

* ``reproduce-full``   the eight reference settings at scale 1.0 through
                       ``pipeline.run``, as ``physbc reproduce --jobs 1`` runs them
* ``smoke-crosscheck`` the same settings at scale 0.05 with the independent
                       exchange solver cross-checking HiGHS
* ``cli-artifacts``    ``physbc run`` -> ``plotdata`` -> ``validate`` for two presets,
                       each command in a fresh process

A pass runs every operation of the workload once; passes repeat until
``--seconds`` have elapsed, so a run always holds whole passes.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and it carries the
per-layer metrics (medians over traced passes) plus the tracing overhead.
Seed 0 selects the reference seeds (sampling 2024, Lipschitz 7, validation 99);
seed n adds n to each.  Checks against stored seed outputs run on seed 0 only.
See bench/README.md for the metrics and their rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = OUT / "work"

REFERENCE_SEEDS = {"sampling": 2024, "lipschitz": 7, "validation": 99}
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150
CROSS_CHECK_RTOL = 1e-6

sys.path.insert(0, str(HERE))
from tracing import Tracer, pass_metrics  # noqa: E402
import expected  # noqa: E402


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_physbc():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "physbc" / "__init__.py").is_file():
        fail_setup(f"no physbc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import physbc.cli
    import physbc.pipeline

    if Path(physbc.cli.__file__).resolve().parent != SRC / "physbc":
        fail_setup(f"physbc imported from {physbc.cli.__file__}, not {SRC}")
    return physbc.cli, physbc.pipeline


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> list:
    """Wall time of ``import physbc.cli`` in fresh interpreters (first run warms up)."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import physbc.cli"], env=child_env(),
                              cwd=ROOT, capture_output=True, timeout=COMMAND_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail_setup(f"import physbc.cli failed: {proc.stderr.decode(errors='replace')}")
    return times[1:]


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def relative_gap(ours: float, ref: float) -> float:
    return abs(ours - ref) / abs(ref)


def check_report(report: dict, stored) -> list:
    """Correctness problems of one run report; ``stored`` is None off the reference seeds."""
    problems = []
    solver = report["solver"]
    if solver["status"] != "optimal":
        problems.append(f"solver status {solver['status']}")
    if not report["residuals"]["passes_at_slack"]:
        problems.append("residual audit does not pass at the slack")
    if report["verdict"] == "pass" and report["empirical"]["violations"] > 0:
        problems.append(f"passes with {report['empirical']['violations']} empirical violations")
    cross = solver.get("cross_check")
    if cross is not None and (
        cross["status"] != "optimal"
        or cross["difference"] > CROSS_CHECK_RTOL * max(1.0, abs(solver["slack"]))
    ):
        problems.append(f"cross-check {cross['status']} differs by {cross['difference']:.3g}")
    if stored is not None:
        if relative_gap(solver["slack"], stored["slack"]) > expected.SLACK_RTOL:
            problems.append(f"slack {solver['slack']!r} != seed {stored['slack']!r}")
        if report["lipschitz"]["overall"] < stored["lipschitz"]:
            problems.append(
                f"lipschitz {report['lipschitz']['overall']!r} below seed {stored['lipschitz']!r}")
    return problems


def delta_line(label: str, report: dict, stored) -> str:
    ours = report["certification"]["condition"]
    line = f"  {label:<22s} verdict {report['verdict']:<4s} condition {ours:+.6g}"
    if stored is not None:
        line += (f"   seed: verdict {stored['verdict']:<4s} condition {stored['condition']:+.6g}"
                 f"  delta {ours - stored['condition']:+.3g}")
    return line


class Op:
    """One attempted operation: its latency and, if it failed, why."""

    def __init__(self, label: str, latency: float, problems: list, wrong: bool):
        self.label = label
        self.latency = latency
        self.problems = problems
        self.wrong = wrong  # returned an incorrect output, as opposed to raising

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class ReproduceWorkload:
    """The eight reference settings through ``pipeline.run`` in this process."""

    children = False

    def __init__(self, cli, pipeline, seeds: dict, scale: float, cross_check: bool, stored):
        self.pipeline = pipeline
        self.stored = stored
        self.configs = []
        for key in cli.REFERENCE_RESULTS:
            config = cli.reference_config(key, scale=scale)
            config = replace(
                config,
                sampling=replace(config.sampling, seed=seeds["sampling"]),
                lipschitz=replace(config.lipschitz, seed=seeds["lipschitz"]),
                validation=replace(config.validation, seed=seeds["validation"]),
                solver=replace(config.solver, cross_check=cross_check),
            )
            self.configs.append((key, config))

    def warm_up(self) -> None:
        """One untimed run of the smallest setting, without the cross-check, so
        lazy imports and first-touch allocations fall outside the measured passes."""
        _, config = min(self.configs, key=lambda item: item[1].sampling.count)
        self.pipeline.run(replace(config, solver=replace(config.solver, cross_check=False)))

    def run_pass(self, tracer, log) -> list:
        ops = []
        for key, config in self.configs:
            stored = self.stored[key] if self.stored else None
            span = tracer.open("op.reproduce") if tracer else None
            t0 = time.perf_counter()
            try:
                report = self.pipeline.run(config).report
            except Exception as exc:  # any raise is a failed operation
                latency = time.perf_counter() - t0
                ops.append(Op(key, latency, [f"raised {type(exc).__name__}: {exc}"], False))
                log(f"  {key:<22s} raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if span is not None:
                    tracer.close(span)
            latency = time.perf_counter() - t0
            problems = check_report(report, stored)
            ops.append(Op(key, latency, problems, True))
            log(delta_line(key, report, stored))
        return ops


class CliWorkload:
    """``run`` -> ``plotdata`` -> ``validate`` per flow, each in a fresh process."""

    children = True
    FLOWS = (
        ("supply-demand", ["--preset", "supply-demand"]),
        ("logistic-growth-prob", ["--preset", "logistic-growth", "--mode", "probabilistic"]),
    )

    def __init__(self, load_dataset, parse_error, dataset_hash, seeds: dict, stored):
        self.load_dataset = load_dataset
        self.parse_error = parse_error
        self.dataset_hash = dataset_hash
        self.seeds = seeds
        self.stored = stored
        self.passes = 0

    def warm_up(self) -> None:
        """Nothing to warm: every command starts a fresh process."""

    def command(self, tracer, cwd: Path, args: list):
        """Run one CLI command; returns (exit code, latency, stderr tail)."""
        spans_path, parent = "", ""
        if tracer is not None:
            span = tracer.open("op.cli")
            spans_path, parent = str(cwd / f"spans-{span['id']}.json"), span["id"]
        cmd = [sys.executable, str(HERE / "cli_shim.py"), spans_path, parent, "--", *args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                                  timeout=COMMAND_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            code, err = None, f"timed out after {COMMAND_TIMEOUT_S} s"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
            if os.path.exists(spans_path):
                with open(spans_path, encoding="ascii") as fh:
                    tracer.spans.extend(json.load(fh))
        tail = err.strip().splitlines()
        return code, latency, tail[-1] if tail else ""

    def run_pass(self, tracer, log) -> list:
        ops = []
        self.passes += 1
        for flow, flags in self.FLOWS:
            stored = self.stored[flow] if self.stored else None
            cwd = WORK / f"{flow}-{self.passes}"
            shutil.rmtree(cwd, ignore_errors=True)
            cwd.mkdir(parents=True)

            args = ["run", *flags, "--seed", str(self.seeds["sampling"]), "--out", "run"]
            code, latency, err = self.command(tracer, cwd, args)
            report, problems = None, []
            try:
                with open(cwd / "run" / "report.json", encoding="ascii") as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                problems.append(f"no report.json ({exc}); exit {code} {err}")
            if report is not None:
                want = 0 if report["verdict"] == "pass" else 2
                if code != want:
                    problems.append(f"run exit {code}, expected {want}")
                problems += check_report(report, stored)
                problems += self.check_dataset(cwd / "run", report)
                log(delta_line(f"{flow} run", report, stored))
                with open(cwd / "config.json", "w", encoding="ascii") as fh:
                    json.dump(report["config"], fh)
            ops.append(Op(f"{flow} run", latency, problems, True))

            args = ["plotdata", "--report", "run/report.json", "--out", "plot"]
            code, latency, err = self.command(tracer, cwd, args)
            problems = [] if code == 0 else [f"plotdata exit {code}, expected 0 {err}"]
            if code == 0 and report is not None:
                problems += self.check_plot(cwd / "plot", report)
            ops.append(Op(f"{flow} plotdata", latency, problems, True))

            args = ["validate", "--certificate", "run/certificate.json",
                    "--config", "config.json", "--seed", str(self.seeds["validation"])]
            code, latency, err = self.command(tracer, cwd, args)
            want = 2
            if report is not None:
                clean = report["residuals"]["definition_ok"] and report["empirical"]["safe"]
                want = 0 if clean else 2
            problems = [] if code == want else [f"validate exit {code}, expected {want} {err}"]
            ops.append(Op(f"{flow} validate", latency, problems, True))
            shutil.rmtree(cwd, ignore_errors=True)
        return ops

    def check_dataset(self, run_dir: Path, report: dict) -> list:
        if report["dataset"]["path"] != "dataset.csv":
            return [f"report names dataset {report['dataset']['path']!r}"]
        try:
            dataset = self.load_dataset(str(run_dir / "dataset.csv"))
        except (OSError, self.parse_error) as exc:
            return [f"dataset.csv unreadable: {exc}"]
        if self.dataset_hash(dataset) != report["dataset"]["hash"]:
            return ["dataset.csv hash differs from report.dataset.hash"]
        return []

    def check_plot(self, plot_dir: Path, report: dict) -> list:
        problems = []
        try:
            with open(plot_dir / "levels.csv", encoding="ascii") as fh:
                levels = dict(line.strip().split(",", 1) for line in fh)
            slack = float(levels["slack"])
            with open(plot_dir / "samples.csv", "rb") as fh:
                rows = sum(1 for _ in fh) - 1
        except (OSError, ValueError, KeyError) as exc:
            return [f"plot data unreadable: {exc}"]
        if slack != report["solver"]["slack"]:
            problems.append("levels.csv slack differs from the report")
        if rows != report["dataset"]["count"]:
            problems.append(f"samples.csv has {rows} rows, dataset {report['dataset']['count']}")
        return problems


def build_workload(name: str, seed: int):
    cli, pipeline = import_physbc()
    seeds = {k: v + seed for k, v in REFERENCE_SEEDS.items()}
    reference = seed == 0
    if name == "reproduce-full":
        stored = expected.REPRODUCE[1.0] if reference else None
        return ReproduceWorkload(cli, pipeline, seeds, 1.0, False, stored)
    if name == "smoke-crosscheck":
        stored = expected.REPRODUCE[0.05] if reference else None
        return ReproduceWorkload(cli, pipeline, seeds, 0.05, True, stored)
    if name == "cli-artifacts":
        from physbc.errors import PhysbcError
        from physbc.sampling import load_dataset

        return CliWorkload(load_dataset, PhysbcError, pipeline.dataset_hash, seeds,
                           expected.CLI if reference else None)
    raise ValueError(f"unknown workload {name!r}")


def declared_metrics(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["reproduce-full", "smoke-crosscheck", "cli-artifacts"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    workload = build_workload(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    traced = bool(args.trace)
    setup = [] if traced else measure_setup()
    workload.warm_up()

    passes = []  # (traced, ops, spans)
    all_spans = []
    start = time.perf_counter()
    while (len(passes) < (2 if traced else 1)
           or time.perf_counter() - start < args.seconds):
        trace_this = traced and len(passes) % 2 == 1
        tracer = Tracer(prefix=f"p{len(passes)}.") if trace_this else None
        if tracer is not None:
            tracer.install_physbc()
        lines = []
        try:
            ops = workload.run_pass(tracer, lines.append)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not passes:
            print(f"pass 1 of {args.workload}, seed {args.seed}:")
            print("\n".join(lines))
        passes.append((trace_this, ops, tracer.spans if tracer else []))
        if tracer is not None:
            all_spans.extend(tracer.spans)
    shutil.rmtree(WORK, ignore_errors=True)

    ops = [op for _, pass_ops, _ in passes for op in pass_ops]
    failed = [op for op in ops if op.failed]
    seen = set()
    for op in failed:
        for problem in op.problems:
            if (op.label, problem) not in seen:
                seen.add((op.label, problem))
                print(f"FAILED {op.label}: {problem}")
    correct = not any(op.wrong for op in failed)
    print(f"{len(passes)} passes, {len(ops)} operations attempted, {len(failed)} failed"
          f" (failed_ops_frac {len(failed) / len(ops):.4g})")

    if traced:
        metrics = traced_metrics(passes)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="ascii") as fh:
            json.dump(all_spans, fh)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        names = declared_metrics("per_layer")
    else:
        metrics = untraced_metrics(workload, ops, setup)
        names = declared_metrics("end_to_end")
    if set(metrics) != set(names):
        fail_setup(f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    for name in names:
        value, unit, note = metrics[name]
        print(f"{args.workload}  {name:<28s} {value:.6g} {unit}  {note}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


def untraced_metrics(workload, ops: list, setup: list) -> dict:
    latencies = sorted(op.latency for op in ops)
    completed = sum(1 for op in ops if not op.failed)
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    n = f"(n={len(latencies)})"
    return {
        "setup_s": (statistics.median(setup), "s", f"(median of {len(setup)})"),
        "ops_per_s": (completed / sum(latencies), "1/s",
                      f"({completed} completed / {sum(latencies):.3f} s)"),
        "op_p50_s": (percentile(latencies, 50), "s", n),
        "op_p90_s": (percentile(latencies, 90), "s", n),
        "peak_rss_mb": (rss_mb, "MB", "(children)" if workload.children else "(own process)"),
    }


def traced_metrics(passes: list) -> dict:
    per_pass = []
    traced_s, untraced_s = [], []
    for trace_this, ops, spans in passes:
        elapsed = sum(op.latency for op in ops)
        if trace_this:
            traced_s.append(elapsed)
            op_ids = {s["id"] for s in spans if s["name"].startswith("op.")}
            per_pass.append(pass_metrics(spans, op_ids))
        else:
            untraced_s.append(elapsed)
    n = f"(median of {len(per_pass)} traced passes)"
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit, n)
        for name, (_, unit) in per_pass[0].items()
    }
    base = statistics.median(untraced_s)
    overhead = statistics.median(traced_s) - base
    metrics["trace.overhead_s"] = (overhead, "s", f"(per pass; untraced pass {base:.4g} s)")
    metrics["trace.overhead_frac"] = (overhead / base, "frac", "")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
