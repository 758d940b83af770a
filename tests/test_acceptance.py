"""Acceptance gate: one test per shipping criterion, one summary line each.

Each test prints ``acceptance <name>: PASS/FAIL`` before asserting, so a
verbose run doubles as the release checklist.  The two end-to-end fixtures
run the full bundled case studies once per session at their production
sample counts.
"""

import math
import time
from decimal import Decimal

import numpy as np
import pytest

from oracles import (
    beta_inc_by_quadrature,
    binomial_tail,
    minimax_by_vertices,
    random_bounded_instance,
    truth_flow_bound,
    truth_flow_slope,
)
from physbc.certify import check_deterministic, check_probabilistic, min_violation_level
from physbc.barrier import BarrierCertificate
from physbc.cli import REFERENCE_RESULTS
from physbc.config import MODE_DETERMINISTIC, MODE_PROBABILISTIC, RunConfig, preset
from physbc.filtering import apply_filter
from physbc.models import RegionBox
from physbc.pipeline import run
from physbc.sampling import SCHEME_IID, Dataset, covering_radius, sample_iid
from physbc.solver import RowSystem, solve, solve_minmax_direct


def note(name, ok, detail=""):
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def sd_det_run():
    config = preset("supply-demand", MODE_DETERMINISTIC)
    start = time.perf_counter()
    artifacts = run(config)
    return artifacts, time.perf_counter() - start


@pytest.fixture(scope="session")
def lg_prob_run():
    config = preset("logistic-growth", MODE_PROBABILISTIC)
    start = time.perf_counter()
    artifacts = run(config)
    return artifacts, time.perf_counter() - start


def test_criterion_1_reference_condition_arithmetic():
    # the stored baseline rows must be internally consistent: feeding their
    # slack/lipschitz/metric through the certification checks reproduces the
    # stored condition values
    start = time.perf_counter()
    worst = 0.0
    for key, ref in REFERENCE_RESULTS.items():
        if ref["mode"] == MODE_DETERMINISTIC:
            report = check_deterministic(ref["slack"], ref["lipschitz"], ref["metric"])
        else:
            domain = preset(ref["system"], ref["mode"]).domain
            report = check_probabilistic(
                ref["slack"], ref["lipschitz"], ref["metric"], domain.length, risk=0.05,
            )
        worst = max(worst, abs(report.condition - ref["condition"]))
    elapsed = time.perf_counter() - start
    note(
        "reference-condition-arithmetic",
        worst <= 5e-4 and elapsed < 1.0,
        f"worst deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_supply_demand_deterministic_end_to_end(sd_det_run):
    artifacts, elapsed = sd_det_run
    report = artifacts.report
    retention = report["filter"]["retention"]
    slack = report["solver"]["slack"]
    condition = report["certification"]["condition"]
    ok = (
        abs(retention - 0.5) <= 0.01
        and slack <= -0.02
        and condition <= 0.0
        and report["verdict"] == "pass"
        and elapsed < 60.0
    )
    note(
        "supply-demand-deterministic",
        ok,
        f"retention {retention:.4f}, slack {slack:.4f}, "
        f"condition {condition:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_logistic_probabilistic_end_to_end(lg_prob_run):
    artifacts, _ = lg_prob_run
    report = artifacts.report
    level_at_baseline = min_violation_level(0.05, 6, 130_234)
    level_ok = abs(level_at_baseline - 8.08e-5) <= 2e-7
    run_ok = (
        report["certification"]["confidence"] == pytest.approx(0.95)
        and report["certification"]["verdict"] == "pass"
        and report["verdict"] == "pass"
    )
    note(
        "logistic-probabilistic",
        level_ok and run_ok,
        f"level(6, 130234) {level_at_baseline:.6e}, "
        f"run level {report['guarantee']['violation_level']:.3e}, "
        f"condition {report['certification']['condition']:.4f}",
    )


def test_criterion_4_violation_level_suite():
    # c decision variables and P retained samples; the level is the root of
    # the binomial tail, i.e. the 1 - risk quantile of Beta(c, P - c + 1)
    decisions = (1, 2, 6, 10)
    retained_extra = (99, 9_999, 149_999)  # P - c
    risks = (0.95, 0.5, 0.05)
    worst_tail, worst_closed, worst_quad, safe = 0.0, 0.0, 0.0, True
    for c in decisions:
        for extra in retained_extra:
            count = c + extra
            for risk in risks:
                level = min_violation_level(risk, c, count)
                tail = binomial_tail(level, c, count)
                safe = safe and tail <= Decimal(risk)
                below = binomial_tail(level * (1.0 - 1e-11), c, count)
                safe = safe and below > Decimal(risk)
                worst_tail = max(worst_tail, float(abs(tail - Decimal(risk)) / Decimal(risk)))
                worst_quad = max(
                    worst_quad, abs(beta_inc_by_quadrature(level, c, extra + 1) - (1.0 - risk))
                )
                if c == 1:
                    exact = -math.expm1(math.log(risk) / count)
                    worst_closed = max(worst_closed, abs(level - exact) / exact)
    ok = safe and worst_tail <= 1e-10 and worst_closed <= 1e-12 and worst_quad <= 1e-9
    note(
        "violation-level-suite",
        ok,
        f"safe side {safe}, tail {worst_tail:.1e}, closed-form {worst_closed:.1e}, "
        f"quadrature {worst_quad:.1e}",
    )


def test_criterion_5_lp_route_equivalence():
    row_cap = {1: 60, 2: 60, 3: 40, 4: 25, 5: 20}
    rng = np.random.default_rng(20240817)
    worst_vertex, worst_direct = 0.0, 0.0
    for trial in range(100):
        d = 1 + trial % 5
        extra = int(rng.integers(2, row_cap[d] - 2 * d + 1))
        rows, offsets = random_bounded_instance(rng, d, extra, bound=8.0)
        system = RowSystem.stack(rows, offsets)
        dense = solve(system)
        direct = solve_minmax_direct(system)
        vertex = minimax_by_vertices(rows, offsets)
        assert dense.optimal and direct.optimal and vertex is not None, trial
        worst_vertex = max(worst_vertex, abs(dense.slack - vertex[0]))
        worst_direct = max(worst_direct, abs(dense.slack - direct.slack))
    ok = worst_vertex <= 1e-6 and worst_direct <= 1e-4
    note(
        "lp-route-equivalence",
        ok,
        f"vs vertices {worst_vertex:.1e}, vs direct {worst_direct:.1e}",
    )


def test_criterion_6_monotonicity_properties():
    # (a) filter retention is non-decreasing in the threshold
    config = preset("supply-demand", MODE_PROBABILISTIC)
    data = sample_iid(config.true_model(), config.domain, 20_000, seed=5)
    physics = config.physics_model()
    rng = np.random.default_rng(11)
    retention_ok = True
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(1e-4, 0.02, size=2))
        if lo == hi:
            continue
        kept_lo = apply_filter(data, physics, float(lo)).retained_count
        kept_hi = apply_filter(data, physics, float(hi)).retained_count
        retention_ok = retention_ok and kept_lo <= kept_hi

    # (b) the optimal slack never improves when rows are added
    nesting_ok = True
    for trial in range(20):
        d = 1 + trial % 3
        box = np.vstack([np.eye(d), -np.eye(d)])
        box_offsets = np.full(2 * d, -8.0)
        extras = rng.normal(size=(14, d))
        extra_offsets = rng.normal(size=14)
        cut = int(rng.integers(1, 13))
        small = solve(RowSystem.stack(np.vstack([extras[:cut], box]),
                                      np.concatenate([extra_offsets[:cut], box_offsets])))
        large = solve(RowSystem.stack(np.vstack([extras, box]),
                                      np.concatenate([extra_offsets, box_offsets])))
        nesting_ok = nesting_ok and large.slack >= small.slack - 1e-9

    # (c) the violation level shrinks with samples and grows with decisions
    counts = (50, 100, 1_000, 10_000, 100_000)
    levels = [min_violation_level(0.05, 6, count) for count in counts]
    level_ok = all(a > b for a, b in zip(levels, levels[1:]))
    decisions = (1, 2, 6, 10, 20)
    by_c = [min_violation_level(0.05, c, 100_000) for c in decisions]
    level_ok = level_ok and all(a < b for a, b in zip(by_c, by_c[1:]))

    note(
        "monotonicity",
        retention_ok and nesting_ok and level_ok,
        f"retention {retention_ok}, nesting {nesting_ok}, level {level_ok}",
    )


def test_criterion_7_empirical_safety_of_passing_runs(sd_det_run, lg_prob_run):
    details = []
    ok = True
    for label, (artifacts, _) in (("det", sd_det_run), ("prob", lg_prob_run)):
        empirical = artifacts.report["empirical"]
        ok = ok and (
            empirical["trajectories"] == 1000
            and empirical["horizon"] == 500
            and empirical["violations"] == 0
            and artifacts.safety.safe
        )
        details.append(f"{label} {empirical['violations']}/{empirical['trajectories']}x"
                       f"{empirical['horizon']}")
    note("empirical-safety", ok, ", ".join(details))


def test_criterion_8_covering_radius_exactness():
    three = np.array([0.0, 0.5, 1.0])
    hand = covering_radius(Dataset(three, three, SCHEME_IID, RegionBox(0.0, 1.0)))
    hand_ok = hand == pytest.approx(0.25, abs=1e-15)

    rng = np.random.default_rng(7)
    scan_ok = True
    worst = 0.0
    for _ in range(10):
        lo, hi = sorted(rng.uniform(-2.0, 3.0, size=2))
        if hi - lo < 1e-3:
            continue
        points = np.sort(rng.uniform(lo, hi, size=int(rng.integers(2, 40))))
        exact = covering_radius(Dataset(points, points, SCHEME_IID, RegionBox(lo, hi)))
        grid = np.linspace(lo, hi, 200_001)
        scanned = float(np.abs(grid[:, None] - points[None, :]).min(axis=1).max())
        spacing = (hi - lo) / 200_000
        worst = max(worst, abs(exact - scanned))
        scan_ok = scan_ok and abs(exact - scanned) <= spacing
    note(
        "covering-radius",
        hand_ok and scan_ok,
        f"hand case {hand:.6g}, worst scan gap {worst:.2e}",
    )


def test_criterion_9_geometry_mass_coefficients():
    # the mass a radius covers per unit radius: the level over its radius
    def coefficient(region, level=1e-3):
        return level / check_probabilistic(0.0, 1.0, level, region.length, risk=0.05).radius

    coeff_wide = coefficient(RegionBox(0.5, 2.7))
    coeff_narrow = coefficient(RegionBox(0.1, 1.0))
    ok = abs(coeff_wide - 0.455) <= 0.005 and abs(coeff_narrow - 1.113) <= 0.005
    note(
        "geometry-mass-coefficients",
        ok,
        f"extent 2.2 -> {coeff_wide:.4f}, extent 0.9 -> {coeff_narrow:.4f}",
    )


def test_truth_flow_bound_on_a_hand_computed_affine_truth():
    # f(x) = 0.5 x + 0.2 on [0, 1] with no wave, so L_f = 0.5, f(D) = [0.2, 0.7],
    # and the 101-point grid has h = 0.01
    config = RunConfig.from_dict({
        "system": {"kind": "affine", "linear": [[0.5]], "offset": [0.2]},
        "domain": {"lower": [0.0], "upper": [1.0]},
        "initial": {"lower": [0.0], "upper": [0.1]},
        "unsafe": {"lower": [0.9], "upper": [1.0]},
        "perturbation": {"amplitude": 0.0},
    })

    def bound(coefficients):
        certificate = BarrierCertificate(np.array(coefficients), 0.83, 1e-4, 1.0)
        return truth_flow_bound(config, certificate, points=101)

    # B = x: g = -0.33 x + 0.2, largest at x = 0; |g'| <= 1 * 0.5 + 0.83 * 1
    assert bound([0.0, 1.0, 0.0]) == pytest.approx(0.2 + 0.005 * 1.33, abs=1e-12)
    # B = x^2: g = -0.58 x^2 + 0.2 x + 0.04, largest on the grid at x = 0.17 and
    # on [0, 1] at x = 0.2 / 1.16; |B'| = |2x| is at most 1.41 on f(D) widened by
    # L_f h = 0.005, and 2 on D, so |g'| <= 1.41 * 0.5 + 0.83 * 2
    grid_max = -0.58 * 0.17**2 + 0.2 * 0.17 + 0.04
    assert bound([1.0, 0.0, 0.0]) == pytest.approx(grid_max + 0.005 * 2.365, abs=1e-12)
    assert bound([1.0, 0.0, 0.0]) >= 0.04 + 0.04 / 2.32
    # the slope oracle for B = x^2: g'(x) = 2 (0.5 x + 0.2) 0.5 - 0.83 * 2 x =
    # 0.2 - 1.16 x, largest in size at x = 1; a constant B has g' = 0
    square = BarrierCertificate(np.array([1.0, 0.0, 0.0]), 0.83, 1e-4, 1.0)
    assert truth_flow_slope(config, square, points=101) == pytest.approx(0.96, abs=1e-12)
    constant = BarrierCertificate(np.array([3.0]), 0.83, 1e-4, 1.0)
    assert truth_flow_slope(config, constant, points=101) == 0.0


def test_criterion_10_truth_flow_bound(reference_runs):
    # the ground truth is known, so a passing certificate's flow condition can be
    # checked on the whole domain, not only at the samples
    bounds, ok = [], True
    for key, (config, certificate, report) in reference_runs.items():
        bound = truth_flow_bound(config, certificate)
        verdict = report["verdict"]
        ok = ok and (verdict != "pass" or bound <= 0.0)
        bounds.append(f"{key} {verdict} {bound:.3f}")
    note("truth-flow-bound", ok, ", ".join(bounds))


# Deterministic runs at scale 0.05 sample a grid with exactly 4 points per period
# of the truth's wave, always at the same phases, so the largest sample slope
# misses the true constant by up to 4x.
ALIASED = pytest.mark.xfail(strict=True, reason=(
    "known fault, ROADMAP item 3: on an aliasing grid the sample-slope flow constant"
    " is below the true constant of g"))


@pytest.mark.parametrize("key, scale", [
    *((key, 1.0) for key in REFERENCE_RESULTS),
    *(pytest.param(key, 0.05, marks=ALIASED if ref["mode"] == MODE_DETERMINISTIC else ())
      for key, ref in REFERENCE_RESULTS.items()),
])
def test_reported_lipschitz_is_at_least_the_true_flow_slope(key, scale, reference_runs,
                                                            smoke_runs):
    # g is C^1 in one dimension, so the grid maximum of |g'| is a lower bound on
    # its Lipschitz constant, and a reported constant below it is unsound
    config, certificate, report = (reference_runs if scale == 1.0 else smoke_runs)[key]
    assert report["lipschitz"]["overall"] >= truth_flow_slope(config, certificate)
