"""Outside-in span tracing for the physbc benchmark.

The tracer wraps public functions at the names ``physbc.pipeline``,
``physbc.cli`` and ``physbc.solver`` bind, so the program's source stays
untouched.  Each call becomes a span (id, parent, name, start, end) kept in
memory; the layer is the name's first dotted part.  Counters read from
arguments and return values ride on the span.
Layer metrics are sums over one pass of a workload; a layer's self time is its
spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time

LAYERS = ("pipeline", "solver", "barrier", "lipschitz", "models", "sampling",
          "filtering", "certify", "cli")


class Tracer:
    """Span recorder that patches module attributes and can undo the patches."""

    def __init__(self, prefix: str = ""):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._prefix = prefix
        self._count = 0

    # ---- spans ---------------------------------------------------------------
    def open(self, name: str, parent=None) -> dict:
        self._count += 1
        span = {
            "id": f"{self._prefix}{self._count}",
            "parent": self._stack[-1]["id"] if self._stack else parent,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    # ---- patching ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if count is not None:
                span["counts"].update(count(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_physbc(self) -> None:
        """Wrap every public call the pipeline, CLI and solver modules make."""
        import physbc.cli as cli
        import physbc.pipeline as pipeline
        import physbc.solver as solver

        system_counts = lambda a, k, r: {  # noqa: E731
            "rows_flow": r.counts["flow"],
            "rows_cover": r.counts["initial"] + r.counts["unsafe"],
        }
        filter_counts = lambda a, k, r: {  # noqa: E731
            "retained": r.retained_count,
            "input": r.retained_count + r.discarded_count,
        }
        steps = lambda a, k, r: {"steps": r.trajectories * r.horizon}  # noqa: E731
        csv_bytes = lambda a, k, r: {"bytes": os.path.getsize(a[1])}  # noqa: E731

        self.wrap(pipeline, "run", "pipeline.run")
        self.wrap(pipeline, "dataset_hash", "pipeline.hash")
        self.wrap(pipeline, "sample_grid", "sampling.generate")
        self.wrap(pipeline, "sample_iid", "sampling.generate")
        self.wrap(pipeline, "save_dataset", "sampling.save", csv_bytes)
        self.wrap(pipeline, "covering_radius", "sampling.covering_radius")
        self.wrap(pipeline, "apply_filter", "filtering.filter", filter_counts)
        self.wrap(pipeline, "discrepancy_profile", "filtering.profile")
        self.wrap(pipeline, "assemble", "barrier.assemble", system_counts)
        self.wrap(pipeline, "check_certificate", "barrier.audit")
        self.wrap(pipeline, "solve", "solver.solve",
                  lambda a, k, r: {"active_rows": int(r.active_rows.size)})
        self.wrap(pipeline, "solve_minmax_direct", "solver.direct")
        self.wrap(pipeline, "estimate_pairwise", "lipschitz.estimate",
                  lambda a, k, r: {"pairs": r.samples_used})
        self.wrap(pipeline, "estimate_extreme_value", "lipschitz.estimate",
                  lambda a, k, r: {"pairs": r.samples_used})
        self.wrap(pipeline, "check_safety_empirically", "models.validate", steps)
        for attr in ("check_deterministic", "check_probabilistic", "min_violation_level"):
            self.wrap(pipeline, attr, "certify.check")
        self.wrap(solver, "linprog", "solver.linprog",
                  lambda a, k, r: {"rows": int(k["A_ub"].shape[0])})

        self.wrap(cli, "run", "pipeline.run")
        self.wrap(cli, "write_artifacts", "pipeline.write")
        self.wrap(cli, "load_dataset", "sampling.load")
        self.wrap(cli, "check_safety_empirically", "models.validate", steps)
        for verb in ("run", "plotdata", "validate"):
            self.wrap(cli.main.commands[verb], "callback", f"cli.{verb}")

    # ---- export --------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def pass_metrics(spans: list, op_ids: set) -> dict:
    """Per-layer metrics summed over the spans of one workload pass.

    ``op_ids`` are the benchmark's own operation spans; time inside them that
    no program span covers (process start and import, for CLI commands) is
    reported as ``op.outside_s``.
    """
    own = self_times(spans)
    total: dict = {}
    count: dict = {}
    calls: dict = {}
    errors: dict = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    outside = 0.0
    for s in spans:
        name = s["name"]
        if s["id"] in op_ids:
            outside += own[s["id"]]
            continue
        total[name] = total.get(name, 0.0) + (s["end"] - s["start"])
        calls[name] = calls.get(name, 0) + 1
        if "error" in s:
            errors[name] = errors.get(name, 0) + 1
        for key, value in s["counts"].items():
            count[f"{name}.{key}"] = count.get(f"{name}.{key}", 0) + value
        layer_self[layer_of(name)] += own[s["id"]]

    run_self = sum(own[s["id"]] for s in spans if s["name"] == "pipeline.run")
    lp_rows = count.get("solver.linprog.rows", 0)
    active = count.get("solver.solve.active_rows", 0)
    retained = count.get("filtering.filter.retained", 0)
    filtered_input = count.get("filtering.filter.input", 0)
    metrics = {
        "solver.solve_s": (total.get("solver.solve", 0.0), "s"),
        "solver.lp_calls": (calls.get("solver.linprog", 0), "count"),
        "solver.lp_rows": (lp_rows, "count"),
        "solver.active_rows": (active, "count"),
        "solver.useful_row_frac": (active / lp_rows if lp_rows else 0.0, "frac"),
        "solver.direct_s": (total.get("solver.direct", 0.0), "s"),
        "solver.direct_failed": (errors.get("solver.direct", 0), "count"),
        "lipschitz.estimate_s": (total.get("lipschitz.estimate", 0.0), "s"),
        "lipschitz.pairs": (count.get("lipschitz.estimate.pairs", 0), "count"),
        "models.validate_s": (total.get("models.validate", 0.0), "s"),
        "models.steps": (count.get("models.validate.steps", 0), "count"),
        "sampling.generate_s": (total.get("sampling.generate", 0.0), "s"),
        "sampling.save_s": (total.get("sampling.save", 0.0), "s"),
        "sampling.load_s": (total.get("sampling.load", 0.0), "s"),
        "sampling.csv_bytes": (count.get("sampling.save.bytes", 0), "count"),
        "sampling.covering_radius_s": (total.get("sampling.covering_radius", 0.0), "s"),
        "filtering.filter_s": (total.get("filtering.filter", 0.0), "s"),
        "filtering.profile_s": (total.get("filtering.profile", 0.0), "s"),
        "filtering.retained_frac": (
            retained / filtered_input if filtered_input else 0.0, "frac"),
        "barrier.assemble_s": (total.get("barrier.assemble", 0.0), "s"),
        "barrier.audit_s": (total.get("barrier.audit", 0.0), "s"),
        "barrier.rows_flow": (count.get("barrier.assemble.rows_flow", 0), "count"),
        "barrier.rows_cover": (count.get("barrier.assemble.rows_cover", 0), "count"),
        "certify.s": (total.get("certify.check", 0.0), "s"),
        "pipeline.run_s": (total.get("pipeline.run", 0.0), "s"),
        "pipeline.run_self_s": (run_self, "s"),
        "pipeline.write_s": (total.get("pipeline.write", 0.0), "s"),
        "pipeline.hash_s": (total.get("pipeline.hash", 0.0), "s"),
        "cli.run_s": (total.get("cli.run", 0.0), "s"),
        "cli.plotdata_s": (total.get("cli.plotdata", 0.0), "s"),
        "cli.validate_s": (total.get("cli.validate", 0.0), "s"),
        "op.outside_s": (outside, "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    return metrics
