"""The benchmark (bench/) binds physbc names and report keys.

Its tracer (bench/tracing.py) replaces attributes of ``physbc.pipeline``,
``physbc.cli`` and ``physbc.solver``, so a rename or deletion of one of those
names, or a call site that stops looking its name up on the module, breaks a
traced run.  Its driver (bench/run.py) builds configs through
``cli.reference_config`` and checks each report against stored seed values,
so a change that makes an operation raise or read wrong fails here too.
"""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import physbc.cli
import physbc.pipeline
import physbc.solver
from physbc.config import LipschitzSpec, SamplingSpec, ValidationSpec, preset
from physbc.sampling import SCHEME_GRID, SCHEME_IID

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
MODULES = (physbc.pipeline, physbc.cli, physbc.solver)


def make_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def bindings():
    names = [dict(vars(module)) for module in MODULES]
    callbacks = {verb: cmd.callback for verb, cmd in physbc.cli.main.commands.items()}
    return names, callbacks


def test_tracer_installs_and_uninstalls_cleanly():
    before = bindings()
    tracer = make_tracer()
    tracer.install_physbc()
    try:
        assert bindings() != before
    finally:
        tracer.uninstall()
    after = bindings()
    assert after[1] == before[1]
    for old, new in zip(before[0], after[0]):
        assert new.keys() == old.keys()
        assert all(new[name] is old[name] for name in old)


def test_traced_run_records_every_stage():
    # one run per guarantee mode, so both sampler names the tracer wraps, sample_grid
    # and sample_iid, are called
    for mode, scheme in (("deterministic", SCHEME_GRID), ("probabilistic", SCHEME_IID)):
        base = preset("supply-demand", mode)
        config = replace(
            base,
            sampling=SamplingSpec(count=4000, seed=2024),
            lipschitz=LipschitzSpec(pair_budget=20_000, seed=7),
            validation=ValidationSpec(trajectories=20, horizon=50, seed=99),
            solver=replace(base.solver, cross_check=True),
        )
        physbc.pipeline._safety_memo.clear()  # so each run makes its own rollout
        tracer = make_tracer()
        tracer.install_physbc()
        try:
            dataset = physbc.pipeline.run(config).dataset
        finally:
            tracer.uninstall()
        assert dataset.scheme == scheme
        names = {span["name"] for span in tracer.spans}
        assert names >= {
            "pipeline.run", "pipeline.hash", "sampling.generate", "filtering.filter",
            "barrier.assemble", "solver.solve", "solver.direct", "solver.linprog",
            "barrier.audit", "lipschitz.estimate", "certify.check", "models.validate",
        }
        # the deterministic certificate reads the covering radius; the
        # probabilistic one the violation level
        assert ("sampling.covering_radius" in names) == (mode == "deterministic")
        # the assemble span reads ConstraintSystem.counts: 2 * (d + 1) = 6 Bernstein
        # rows for the quadratic on the two supply-demand regions, plus the flow rows
        assembled = [span["counts"] for span in tracer.spans
                     if span["name"] == "barrier.assemble"]
        retained = [span["counts"]["retained"] for span in tracer.spans
                    if span["name"] == "filtering.filter"]
        assert assembled == [{"rows_cover": 6, "rows_flow": retained[0]}]


def test_every_workload_builds_and_a_smoke_pass_checks_clean():
    # bench/run.py puts bench/ and src/ on sys.path and imports its siblings
    # tracing and expected by those names; all of that is undone afterwards
    path, modules = list(sys.path), set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        workloads = {name: bench.build_workload(name, 0) for name in names}
        ops = workloads["smoke-crosscheck"].run_pass(None, lambda line: None)
    finally:
        sys.path[:] = path
        for name in ("tracing", "expected"):
            if name not in modules:
                sys.modules.pop(name, None)
    assert sorted(names) == ["cli-artifacts", "reproduce-full", "smoke-crosscheck"]
    assert len(ops) == 8
    assert {op.label: op.problems for op in ops} == {op.label: [] for op in ops}
