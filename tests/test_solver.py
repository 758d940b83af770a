import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import physbc.solver
from oracles import (
    dense,
    evaluate_rows,
    minimax_by_vertices,
    minimax_cold_start,
    minimax_full_lp,
    random_bounded_instance,
)
from physbc.barrier import assemble
from physbc.errors import PhysbcError
from physbc.models import RegionBox, supply_demand
from physbc.sampling import SCHEME_IID, Dataset, sample_iid
from physbc.solver import (
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    RowSystem,
    solve,
    solve_minmax_direct,
)

SOLVERS = [solve, solve_minmax_direct]


@pytest.mark.parametrize("solver", SOLVERS)
def test_absolute_value_minimum(solver):
    # max(v, -v) is minimised at the origin
    result = solver(RowSystem.stack([[1.0], [-1.0]], np.zeros(2)))
    assert result.status == STATUS_OPTIMAL
    assert result.slack == pytest.approx(0.0, abs=1e-9)
    assert result.decision == pytest.approx([0.0], abs=1e-9)
    assert set(result.active_rows) == {0, 1}


@pytest.mark.parametrize("solver", SOLVERS)
def test_shifted_absolute_value(solver):
    result = solver(RowSystem.stack([[1.0], [-1.0]], [-1.0, -1.0]))
    assert result.optimal
    assert result.slack == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("solver", SOLVERS)
def test_two_variable_known_optimum(solver):
    # max(v1, v2, -v1 - v2 + 3): optimum 1 at v1 = v2 = 1
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    offsets = np.array([0.0, 0.0, 3.0])
    result = solver(RowSystem.stack(rows, offsets))
    assert result.optimal
    assert result.slack == pytest.approx(1.0, abs=1e-8)
    assert result.decision == pytest.approx([1.0, 1.0], abs=1e-7)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("slope", [1.0, 100.0, -3.0])
def test_unbounded_detection(solver, slope):
    # a steep row must reach the box too: a box written as the extra rows
    # ``+-v - box <= s`` stops a slope-100 row at v = -box/101
    result = solver(RowSystem.stack([[slope]], [0.0]))
    assert result.status == STATUS_UNBOUNDED
    assert result.slack == float("-inf")
    assert np.isnan(result.decision).all()


@pytest.mark.parametrize("solver", SOLVERS)
def test_input_validation(solver):
    with pytest.raises(ValueError):
        solver(RowSystem.stack(np.empty((0, 2)), np.empty(0)))
    with pytest.raises(ValueError):
        solver(RowSystem.stack([[1.0]], [1.0, 2.0]))
    with pytest.raises(ValueError):
        solver(RowSystem.stack([[np.nan]], [0.0]))


def test_offset_translation_shifts_slack():
    rng = np.random.default_rng(1)
    rows, offsets = random_bounded_instance(rng, 2, 12)
    base = solve(RowSystem.stack(rows, offsets))
    shifted = solve(RowSystem.stack(rows, offsets + 0.75))
    assert shifted.slack == pytest.approx(base.slack + 0.75, abs=1e-8)
    assert shifted.decision == pytest.approx(base.decision, abs=1e-6)


def test_solver_is_deterministic():
    rng = np.random.default_rng(2)
    rows, offsets = random_bounded_instance(rng, 3, 25)
    first = solve(RowSystem.stack(rows, offsets))
    second = solve(RowSystem.stack(rows, offsets))
    assert first.slack == second.slack
    assert np.array_equal(first.decision, second.decision)
    assert np.array_equal(first.active_rows, second.active_rows)


def test_direct_is_deterministic():
    rng = np.random.default_rng(3)
    rows, offsets = random_bounded_instance(rng, 2, 15)
    first = solve_minmax_direct(RowSystem.stack(rows, offsets))
    second = solve_minmax_direct(RowSystem.stack(rows, offsets))
    assert first.slack == second.slack
    assert np.array_equal(first.decision, second.decision)


@pytest.mark.parametrize("seed", range(12))
def test_backend_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(100 + seed)
    variables = int(rng.integers(1, 4))
    rows, offsets = random_bounded_instance(rng, variables, int(rng.integers(3, 12)))
    oracle = minimax_by_vertices(rows, offsets)
    assert oracle is not None
    result = solve(RowSystem.stack(rows, offsets))
    assert result.optimal
    assert result.slack == pytest.approx(oracle[0], abs=1e-6)
    # constraint generation reaches the vertex the one-shot full LP reaches
    full = minimax_full_lp(rows, offsets)
    assert result.slack == pytest.approx(full.slack, abs=1e-9)
    assert result.decision == pytest.approx(full.decision, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_direct_matches_backend(seed):
    rng = np.random.default_rng(200 + seed)
    variables = int(rng.integers(1, 5))
    rows, offsets = random_bounded_instance(rng, variables, int(rng.integers(3, 30)))
    dense = solve(RowSystem.stack(rows, offsets))
    direct = solve_minmax_direct(RowSystem.stack(rows, offsets))
    assert direct.optimal
    assert direct.slack == pytest.approx(dense.slack, abs=1e-6)
    # the decisions may differ on degenerate faces, but both must be optimal:
    # every row value stays below the common slack
    values = rows @ direct.decision + offsets
    assert values.max() <= dense.slack + 1e-6


def test_active_rows_attain_the_optimum():
    rng = np.random.default_rng(7)
    rows, offsets = random_bounded_instance(rng, 2, 20)
    result = solve(RowSystem.stack(rows, offsets))
    values = rows @ result.decision + offsets
    assert values[result.active_rows].max() == pytest.approx(result.slack, abs=1e-6)
    inactive = np.setdiff1d(np.arange(len(rows)), result.active_rows)
    assert np.all(values[inactive] <= result.slack + 1e-6)


def test_barrier_shaped_instance_agrees_across_routes():
    """A miniature constraint system with bound and gap rows, solved three ways."""
    rng = np.random.default_rng(21)
    xs = rng.uniform(0.5, 2.7, size=8)
    ys = 0.8 * xs + 0.5
    basis = np.stack([xs**2, xs, np.ones_like(xs)], axis=1)
    basis_next = np.stack([ys**2, ys, np.ones_like(ys)], axis=1)
    flow = np.hstack([np.zeros((8, 2)), basis_next - 0.83 * basis])
    initial = np.array([[-1.0, 0.0, 0.25, 0.5, 1.0]])
    unsafe = np.array([[0.0, 1.0, -7.29, -2.7, -1.0]])
    gap = np.array([[1.0, -1.0, 0.0, 0.0, 0.0]])
    box = np.vstack([np.eye(5), -np.eye(5)])
    rows = np.vstack([initial, unsafe, flow, gap, box])
    offsets = np.concatenate([np.zeros(11), np.full(10, -100.0)])

    dense = solve(RowSystem.stack(rows, offsets))
    direct = solve_minmax_direct(RowSystem.stack(rows, offsets))
    oracle = minimax_by_vertices(rows, offsets)
    assert dense.optimal and direct.optimal and oracle is not None
    assert dense.slack == pytest.approx(oracle[0], abs=1e-6)
    assert direct.slack == pytest.approx(oracle[0], abs=1e-5)
    assert dense.slack < 0  # separable data yields a strict certificate


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_routes_agree_on_random_small_instances(variables, extra, seed):
    rng = np.random.default_rng(seed)
    rows, offsets = random_bounded_instance(rng, variables, extra, bound=5.0)
    dense = solve(RowSystem.stack(rows, offsets))
    direct = solve_minmax_direct(RowSystem.stack(rows, offsets))
    assert dense.optimal and direct.optimal
    assert direct.slack == pytest.approx(dense.slack, abs=1e-6, rel=1e-6)


def test_direct_survives_near_collinear_leading_rows():
    """A barrier-shaped system over [unsafe_level, q2, q1, q0] whose first six
    rows are near-collinear initial rows with a zero unsafe-level column.

    Seeding the exchange with the leading rows made the dense simplex start
    from a rank-3 restricted problem and fail on a singular basis; the seed
    now comes from each column's extreme rows and the largest offset.
    """
    level = 1e-4

    def basis(x):
        return np.stack([x**2, x, np.ones_like(x)], axis=1)

    x0 = np.linspace(0.1, 0.101, 6)
    xu = np.linspace(2.5, 2.7, 4)
    xs = np.linspace(0.1, 2.7, 40)
    ys = xs + 0.3 * xs * (1.0 - xs / 2.7)
    rows = np.vstack([
        np.hstack([np.zeros((6, 1)), basis(x0)]),
        np.hstack([np.ones((4, 1)), -basis(xu)]),
        np.hstack([np.zeros((40, 1)), basis(ys) - 0.9 * basis(xs)]),
        np.vstack([np.eye(4), -np.eye(4)]),
        [[-1.0, 0.0, 0.0, 0.0]],
    ])
    offsets = np.concatenate([np.full(6, -level), np.zeros(44), np.full(8, -100.0), [level]])

    dense = solve(RowSystem.stack(rows, offsets))
    direct = solve_minmax_direct(RowSystem.stack(rows, offsets))
    assert dense.optimal and direct.optimal
    assert direct.slack == pytest.approx(dense.slack, abs=1e-6)


@pytest.mark.parametrize("solver", SOLVERS)
@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reported_slack_bounds_every_row(solver, variables, extra, seed):
    # the slack is never below the returned decision's true objective
    rng = np.random.default_rng(seed)
    rows, offsets = random_bounded_instance(rng, variables, extra)
    result = solver(RowSystem.stack(rows, offsets))
    assert result.optimal
    values = rows @ result.decision + offsets
    assert values.max() <= result.slack + 1e-9 * max(1.0, abs(result.slack))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_solve_matches_full_lp_with_duplicated_and_near_collinear_rows(variables, extra, seed):
    rng = np.random.default_rng(seed)
    rows, offsets = random_bounded_instance(rng, variables, extra, bound=5.0)
    twins = rng.integers(0, len(rows), size=int(rng.integers(1, 6)))
    base = rng.normal(size=variables)
    near = base + 1e-9 * rng.normal(size=(4, variables))
    rows = np.vstack([rows, rows[twins], near])
    offsets = np.concatenate([offsets, offsets[twins], 1e-9 * rng.normal(size=4)])
    result = solve(RowSystem.stack(rows, offsets))
    full = minimax_full_lp(rows, offsets)
    assert result.optimal
    # the oracle's slack lifted to its decision's row maximum, as solve reports it
    oracle = max(full.slack, float((rows @ full.decision + offsets).max()))
    # the exchange stops once no row exceeds the restricted slack by more
    # than 1e-9 * max(1, |slack|)
    assert result.slack == pytest.approx(oracle, abs=1e-9, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=PhysbcError,
                   reason="the near-collinear rows leave an exactly singular basis, and"
                          " _pivot_loop raises 'singular basis in dense solver'; a refactored"
                          " basis inverse (ROADMAP item 2) is the likely mend")
def test_solve_on_the_near_collinear_example_that_leaves_a_singular_basis():
    # the one example of the property above known to fail, run on its own so
    # that every run meets it, not only the runs whose draws reach it
    inner = test_solve_matches_full_lp_with_duplicated_and_near_collinear_rows.hypothesis.inner_test
    inner(variables=8, extra=3, seed=8)


def _start_row_choices(count, seed_rows):
    """Start-row lists for an instance of ``count`` rows: empty, an arbitrary
    subset (binding or not), the seed rows again, duplicates, or every row;
    as a list or as an index array."""
    index = st.integers(min_value=0, max_value=count - 1)
    picks = st.one_of(
        st.just([]),
        st.lists(index, unique=True),
        st.just(list(seed_rows)),
        st.lists(index, min_size=1).map(lambda rows: rows + rows[::-1]),
        st.just(list(range(count))),
    )
    return st.one_of(picks, picks.map(lambda rows: np.array(rows, dtype=np.int64)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.data(),
)
def test_start_rows_do_not_move_the_direct_optimum(variables, extra, seed, data):
    rng = np.random.default_rng(seed)
    rows, offsets = random_bounded_instance(rng, variables, extra)
    system = RowSystem.stack(rows, offsets)
    starts = data.draw(_start_row_choices(len(rows), system.seed_rows()))
    plain = solve_minmax_direct(system)
    started = solve_minmax_direct(system, start_rows=starts)
    assert plain.optimal and started.optimal
    # both stop within the exchange's tolerance above the restricted minimum,
    # which is never above the full one, wherever they started
    assert abs(started.slack - plain.slack) <= 1e-9 * max(1.0, abs(plain.slack))
    oracle = minimax_by_vertices(rows, offsets)
    assert oracle is not None
    assert started.slack == pytest.approx(oracle[0], abs=1e-6)


def _counted(name):
    """A wrapper of ``physbc.solver.<name>`` and the list its calls append to."""
    calls, inner = [], getattr(physbc.solver, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    return counting, calls


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.data(),
)
def test_the_uncapped_exchange_ends_within_one_round_per_row(variables, extra, seed, data):
    # every round that does not stop admits a row outside the working set
    rng = np.random.default_rng(seed)
    rows, offsets = random_bounded_instance(rng, variables, extra)
    system = RowSystem.stack(rows, offsets)
    seeds = system.seed_rows()
    starts = data.draw(_start_row_choices(len(rows), seeds))
    routes = (
        ("_restricted_minmax", lambda: solve(system), []),
        ("linprog", lambda: solve_minmax_direct(system, start_rows=starts), starts),
    )
    for route, call, start in routes:
        counting, calls = _counted(route)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(physbc.solver, route, counting)
            result = call()
        assert result.status == STATUS_OPTIMAL
        working = np.union1d(seeds, np.asarray(start, dtype=int))
        assert 1 <= len(calls) <= len(rows) - len(working) + 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=60),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_warm_started_rounds_reach_the_cold_started_optimum(variables, extra, integral, seed):
    rng = np.random.default_rng(seed)
    rows, offsets = random_bounded_instance(rng, variables, extra)
    if integral:  # small integers, so that rows tie and vertices are degenerate
        rows, offsets = np.round(rows), np.round(offsets)
    warm = solve(RowSystem.stack(rows, offsets))
    cold = minimax_cold_start(rows, offsets)
    assert warm.status == cold.status == STATUS_OPTIMAL
    # a different start may end at another optimal basis of a degenerate
    # restricted problem, so the two may differ by rounding, never more
    assert abs(warm.slack - cold.slack) <= 1e-12 * max(1.0, abs(cold.slack))
    assert (rows @ warm.decision + offsets).max() == warm.slack


@pytest.mark.parametrize("integral", [False, True])
@pytest.mark.parametrize("variables", [2, 3, 5])
def test_each_round_resumes_from_the_previous_optimal_basis(monkeypatch, variables, integral):
    rounds = []  # (row columns, cost, start basis, optimal basis) per restricted solve
    inner = physbc.solver._pivot_loop

    def recording(A, b, c, basis):
        start = list(basis)
        dual = inner(A, b, c, basis)
        rounds.append((A.shape[1] - 2 * (A.shape[0] - 1), c, start, list(basis)))
        return dual

    monkeypatch.setattr(physbc.solver, "_pivot_loop", recording)
    rng = np.random.default_rng(variables)
    rows, offsets = random_bounded_instance(rng, variables, 200)
    if integral:
        rows, offsets = np.round(rows), np.round(offsets)
    # Two leading rows +-1 hold every column's extremes (first on ties) and the
    # largest offset, so they alone seed the exchange.  That restricted problem
    # is unbounded across the ones vector, so the first optimal basis holds box
    # columns, and the handoff must move them.
    ones = np.ones((1, variables))
    rows = np.vstack([ones, -ones, np.clip(rows, -1.0, 1.0)])
    offsets = np.concatenate([[offsets.max() + 1.0, offsets.max()], offsets])
    assert solve(RowSystem.stack(rows, offsets)).optimal
    assert len(rounds) >= 2
    # the first round starts at the largest-offset row (the lowest dual cost)
    rows_first, cost, start, optimal = rounds[0]
    assert rows_first == 2 and start[0] == 0
    assert max(optimal) >= rows_first
    for (count, _, _, optimal), (next_count, _, start, _) in zip(rounds, rounds[1:]):
        # one appended row: row columns stay put, box columns move up by one
        assert next_count == count + 1
        assert start == [j if j < count else j + 1 for j in optimal]


@pytest.mark.parametrize("starts", [
    [-1], [0, -3], [14], [2, 99], [0.0], [1.5], np.array([1.0]), [True], np.array([False]),
    ["1"], [None], [[0, 1]], 3,
], ids=["minus-one", "negative", "row-count", "out-of-range", "float-zero", "fraction",
        "float-array", "bool", "bool-array", "string", "none", "nested", "scalar"])
def test_direct_refuses_bad_start_rows(starts):
    rng = np.random.default_rng(5)
    rows, offsets = random_bounded_instance(rng, 2, 10)  # 14 rows
    with pytest.raises(ValueError, match="start rows"):
        solve_minmax_direct(RowSystem.stack(rows, offsets), start_rows=starts)


def test_cross_check_calls_linprog_through_the_module_attribute(monkeypatch):
    calls = []
    backend = physbc.solver.linprog

    def counting(*args, **kwargs):
        calls.append(kwargs["A_ub"].shape[0])
        return backend(*args, **kwargs)

    monkeypatch.setattr(physbc.solver, "linprog", counting)
    result = solve_minmax_direct(RowSystem.stack([[1.0], [-1.0]], np.zeros(2)))
    assert result.status == STATUS_OPTIMAL
    assert calls


def test_solve_never_calls_linprog(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the production route called the LP backend")

    monkeypatch.setattr(physbc.solver, "linprog", refuse)
    rng = np.random.default_rng(4)
    rows, offsets = random_bounded_instance(rng, 4, 30)
    assert solve(RowSystem.stack(rows, offsets)).optimal


# small integer entries, so that columns tie often, in row-major and strided stacks
@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 6)),
    high=st.integers(0, 3),
    fortran=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_seed_rows_equal_the_axis_0_reductions(shape, high, fortran, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(-high, high + 1, size=shape).astype(float)
    if fortran:
        rows = np.asfortranarray(rows)
    offsets = rng.integers(-high, high + 1, size=shape[0]).astype(float)
    expected = np.concatenate([rows.argmax(0), rows.argmin(0), [offsets.argmax()]])
    seeds = RowSystem.stack(rows, offsets).seed_rows()
    assert seeds.tolist() == expected.tolist()
    assert seeds.dtype == expected.dtype


def _compact(rng, width, head, flow, high):
    """A random :class:`RowSystem` of small integer entries, so that its
    columns tie often, also across its head and its flow rows."""
    def draw(*shape):
        return rng.integers(-high, high + 1, size=shape).astype(float)

    return RowSystem(draw(head, width), draw(head), np.asfortranarray(draw(flow, width - 2)),
                     float(rng.integers(-high, high + 1)))


def _frozen(system):
    for part in (system.head, system.head_offsets, system.flow):
        part.flags.writeable = False
    return system


def test_seed_rows_of_a_compact_system_hold_no_column_beside_it():
    rng = np.random.default_rng(8)
    system = _frozen(_compact(rng, 4, 15, 200_000, 1000))  # read-only, as assemble makes it
    _compact(rng, 4, 15, 10, 3).seed_rows()  # the first call's imports are not counted
    tracemalloc.start()
    try:
        system.seed_rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one boolean mask of a flow column at a time, an eighth of a float column;
    # argmax over the read-only columns would copy them
    assert peak < 0.25 * system.flow[:, 0].nbytes


# a head and flow rows of a few each, either empty, so that ties and extremes
# fall on both sides of the edge between them
@settings(max_examples=200, deadline=None)
@given(
    sizes=st.tuples(st.integers(0, 10), st.integers(0, 5)).filter(any),
    width=st.integers(2, 6),
    high=st.integers(0, 3),
    frozen=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_compact_seed_rows_equal_the_dense_axis_0_reductions(sizes, width, high, frozen, seed):
    system = _compact(np.random.default_rng(seed), width, *sizes, high)
    if frozen:
        system = _frozen(system)
    rows, offsets = dense(system)
    expected = np.concatenate([rows.argmax(0), rows.argmin(0), [offsets.argmax()]])
    seeds = system.seed_rows()
    assert seeds.tolist() == expected.tolist()
    assert seeds.dtype == expected.dtype
    # the fetched rows are the dense stack's, byte for byte
    for i in range(system.count):
        row, offset = system.row(i)
        assert row.tobytes() == rows[i].tobytes()
        assert np.float64(offset).tobytes() == offsets[i].tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("where", ["rows", "offsets"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_entry_in_a_later_block_is_refused(block, where, value):
    rows, offsets = random_bounded_instance(np.random.default_rng(block), 2, 2 * block + 1)
    for at in range(block, len(rows)):  # every row past the first block
        bad_rows, bad_offsets = rows.copy(), offsets.copy()
        if where == "rows":
            bad_rows[at, at % 2] = value
        else:
            bad_offsets[at] = value
        # as one dense stack, and as the head of a system with flow rows after it
        headed = RowSystem(bad_rows, bad_offsets, np.zeros((block, 0)), -1.0)
        for route in (solve, solve_minmax_direct):
            for system in (RowSystem.stack(bad_rows, bad_offsets), headed):
                with pytest.raises(ValueError, match="rows and offsets must be finite"):
                    route(system)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_flow_entry_is_refused(value):
    system = _compact(np.random.default_rng(6), 4, 12, 7, 3)
    for at in range(len(system.flow)):
        for column in range(2):
            flow = system.flow.copy(order="F")
            flow[at, column] = value
            bad = RowSystem(system.head, system.head_offsets, flow, system.flow_constant)
            for route in (solve, solve_minmax_direct):
                with pytest.raises(ValueError, match="rows and offsets must be finite"):
                    route(bad)


# random assembled systems: the compact flow family against its dense stack
@settings(max_examples=40, deadline=2000, derandomize=True)
@given(
    degree=st.integers(0, 4),
    decay=st.floats(0.0, 1.0, exclude_min=True),
    count=st.integers(0, 60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_the_compact_system_agrees_with_its_dense_stack(degree, decay, count, seed):
    rng = np.random.default_rng(seed)
    domain = RegionBox(0.0, 3.0)
    states = rng.uniform(domain.lower, domain.upper, count)
    successors = 0.9 * states + 0.1 + rng.normal(0.0, 0.05, count)
    data = Dataset(states, successors, SCHEME_IID, domain, seed=0)
    system = assemble(degree, decay, data, RegionBox(0.0, 0.5), RegionBox(2.5, 3.0))
    rows, offsets = dense(system)

    # every row value, against the dense product to 1e-13 of its terms' size
    decision = rng.normal(0.0, 10.0, system.head.shape[1])
    values = evaluate_rows(system, decision)
    scale = np.abs(rows) @ np.abs(decision) + np.abs(offsets)
    assert (np.abs(values - (rows @ decision + offsets)) <= 1e-13 * scale).all()
    # fetched rows are the dense rows, byte for byte
    for i in rng.permutation(system.count)[:20]:
        row, offset = system.row(i)
        assert row.tobytes() == rows[i].tobytes()
        assert np.float64(offset).tobytes() == offsets[i].tobytes()
    # the seed rows are the dense stack's first extremes over axis 0
    expected = np.concatenate([rows.argmax(0), rows.argmin(0), [offsets.argmax()]])
    assert system.seed_rows().tolist() == expected.tolist()
    # the exchange reaches the same decision and binding rows either way
    compact, stacked = solve(system), solve(RowSystem.stack(rows, offsets))
    assert compact.optimal and stacked.optimal
    assert np.array_equal(compact.decision, stacked.decision)
    assert np.array_equal(compact.active_rows, stacked.active_rows)
    assert abs(compact.slack - stacked.slack) <= 1e-12 * max(1.0, abs(stacked.slack))


# decision entries: signed zeros, so that the sign of a zero picks a column's
# extreme; small integers, so that rows tie; and 1e9, so that products of flow
# entries near 1e300 overflow and the bounds of their blocks go nan
_COEFFICIENTS = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 1e9, -1e9, 1e9, -1e9])


def _blocked(rng, width, head, blocks, high, huge):
    """A compact system of small integer entries whose flow rows fill
    ``blocks`` blocks, the last one full or short, with a box on every
    decision entry in its head so that it solves.  With ``huge``, about one
    flow entry in ten is a small integer times 1e300 instead, and so is every
    entry of about a quarter of the columns of each block, of one sign per
    column and block; there a column's products at both extremes overflow to
    the same infinity."""
    size = physbc.solver._BOUND_ROWS
    system = _compact(rng, width, head, (blocks - 1) * size + int(rng.integers(1, size + 1)), high)
    flow = system.flow.copy(order="F")
    if huge:
        picks = rng.random(flow.shape) < 0.1
        flow[picks] = rng.choice([-3e300, -1e300, 1e300, 2e300], picks.sum())
        for start in range(0, len(flow), size):
            block = flow[start:start + size]
            whole = rng.random(flow.shape[1]) < 0.25
            block[:, whole] = rng.choice([-1e300, 1e300], whole.sum()) * rng.integers(
                1, 4, (len(block), whole.sum()))
    return RowSystem(np.vstack([system.head, np.eye(width), -np.eye(width)]),
                     np.concatenate([system.head_offsets, np.full(2 * width, -4.0 * (high + 1))]),
                     flow, system.flow_constant)


def _scratch(system, fill=np.inf):
    """The buffers the exchange makes for a bounded flow: the head's values and
    two arrays of at most ``_SCRATCH_ROWS`` rows; ``fill`` so that a stale
    entry read by mistake would win."""
    rows = min(physbc.solver._SCRATCH_ROWS, len(system.flow))
    return np.full(len(system.head), fill), np.full((2, rows), fill)


def _assert_the_search_is_the_full_evaluation(system, decision, rng):
    """The worst row and its value, the chunks and the rows at or above several
    levels at ``decision``, bit for bit as the full elementwise evaluation
    gives them; each block's bound above each of its computed values."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow by design
        full = evaluate_rows(system, decision)
        values = np.full(system.count, np.inf)
        worst, value = physbc.solver._worst_row(system, decision, None, values, None)
        assert worst == int(np.argmax(full))
        assert value.tobytes() == full[worst].tobytes()
        assert values.tobytes() == full.tobytes()
        head, scratch = _scratch(system)
        bound = system.bound(decision)
        worst, value = physbc.solver._worst_row(system, decision, bound, head, scratch)
    assert worst == int(np.argmax(full))
    assert value.tobytes() == full[worst].tobytes()
    assert head.tobytes() == full[:len(head)].tobytes()
    size, h = physbc.solver._BOUND_ROWS, len(system.head)
    for block, start in enumerate(range(h, system.count, size)):
        rows = full[start:start + size]
        assert not (rows > bound[block]).any()
        if np.isnan(rows).any():
            assert np.isnan(bound[block]) or bound[block] == np.inf
    # the chunks of some blocks: within the scratch, with their values, and
    # in ascending order covering exactly the rows of those blocks
    marked = rng.random(len(bound)) < 0.5
    covered = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start, chunk in system.evaluate_chunks(decision, marked, scratch):
            assert 0 < len(chunk) <= physbc.solver._SCRATCH_ROWS
            assert chunk.tobytes() == full[start:start + len(chunk)].tobytes()
            covered.extend(range(start, start + len(chunk)))
    assert covered == [h + i for i in range(len(system.flow)) if marked[i // size]]
    # the exchange's stop level at this worst row, some row values, and -inf,
    # which every row but a nan reaches, also in a block whose bound is nan
    top = float(full[worst])
    for level in [top - 1e-6 * max(1.0, abs(top)), *rng.choice(full, 3), -np.inf]:
        with np.errstate(over="ignore", invalid="ignore"):
            active = physbc.solver._rows_at_least(system, decision, level, bound, head, scratch)
        expected = np.flatnonzero(full >= level)
        assert active.tolist() == expected.tolist()
        assert active.dtype == expected.dtype


def _assert_the_exchange_is_the_full_evaluation(system):
    """Each round of ``solve`` finds the worst row and value the full
    evaluation finds, bit for bit, holding only the head's values and a
    scratch of at most ``_SCRATCH_ROWS`` rows, and the stop's active rows are
    the full evaluation's."""
    rounds = []
    inner = physbc.solver._worst_row

    def recording(system, decision, bound, values, scratch):
        assert bound is not None  # the flow is bounded, not evaluated whole
        assert values.shape == (len(system.head),)
        assert scratch.shape == (2, min(physbc.solver._SCRATCH_ROWS, len(system.flow)))
        worst, value = inner(system, decision, bound, values, scratch)
        rounds.append((decision.copy(), worst, value))
        return worst, value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(physbc.solver, "_worst_row", recording)
        result = solve(system)
    assert rounds
    for decision, worst, value in rounds:
        full = evaluate_rows(system, decision)
        assert worst == int(np.argmax(full))
        assert value.tobytes() == full[worst].tobytes()
    if result.optimal:
        full = evaluate_rows(system, result.decision)
        expected = np.flatnonzero(full >= result.slack - 1e-6 * max(1.0, abs(result.slack)))
        assert result.active_rows.tolist() == expected.tolist()


# compact systems of several blocks, with the block size cut to a few rows and
# the scratch to a few rows more or fewer, so that its chunks split blocks and
# runs of blocks
@settings(max_examples=150, deadline=5000, derandomize=True)
@given(
    size=st.integers(4, 16),
    scratch=st.integers(1, 40),
    blocks=st.integers(2, 6),
    width=st.integers(2, 5),
    head=st.integers(0, 4),
    high=st.integers(0, 3),
    huge=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_the_bounded_blocks_find_what_the_full_evaluation_finds(size, scratch, blocks, width,
                                                                head, high, huge, seed):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(physbc.solver, "_BOUND_ROWS", size)
        patch.setattr(physbc.solver, "_SCRATCH_ROWS", scratch)
        patch.setattr(physbc.solver, "_PRUNE_BLOCKS", 2)  # so that the exchange bounds them
        system = _blocked(rng, width, head, blocks, high, huge)
        for _ in range(4):
            _assert_the_search_is_the_full_evaluation(system, rng.choice(_COEFFICIENTS, width),
                                                      rng)
        rows, offsets = dense(system)
        expected = np.concatenate([rows.argmax(0), rows.argmin(0), [offsets.argmax()]])
        assert system.seed_rows().tolist() == expected.tolist()
        if not huge:
            _assert_the_exchange_is_the_full_evaluation(system)


@pytest.mark.parametrize("huge", [False, True])
def test_the_bounded_blocks_find_what_the_full_evaluation_finds_at_the_real_block_size(huge):
    # the real block size, and a scratch of a block and a half, so that its
    # chunks split blocks
    rng = np.random.default_rng(39)
    blocks = physbc.solver._PRUNE_BLOCKS + 1  # so that the exchange bounds them unpatched
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(physbc.solver, "_SCRATCH_ROWS", 3 * physbc.solver._BOUND_ROWS // 2)
        system = _blocked(rng, 4, 3, blocks, 2, huge)
        assert len(system.extremes[0]) == blocks
        for _ in range(8):
            _assert_the_search_is_the_full_evaluation(system, rng.choice(_COEFFICIENTS, 4), rng)
        rows, offsets = dense(system)
        expected = np.concatenate([rows.argmax(0), rows.argmin(0), [offsets.argmax()]])
        assert system.seed_rows().tolist() == expected.tolist()
        if not huge:
            _assert_the_exchange_is_the_full_evaluation(system)


def test_a_bounded_exchange_holds_no_array_with_a_row_per_flow_row():
    count = 300_000
    data = sample_iid(supply_demand(), RegionBox(0.5, 2.7), count, seed=40)
    system = assemble(2, 0.83, data, RegionBox(0.5, 0.6), RegionBox(2.6, 2.7))
    solve(system)  # the block extremes are cached and the first call's imports are done
    tracemalloc.start()
    try:
        result = solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.optimal
    # the head's values and a scratch of two arrays of _SCRATCH_ROWS rows,
    # beside the small working set, bounds and active rows; an array of every
    # row's value would take 8 bytes a flow row, and a column product at full
    # length 8 more
    assert len(result.active_rows) < 1000
    assert peak < 2 * 8 * physbc.solver._SCRATCH_ROWS + 64 * 1024
    assert 8 * count > 10 * peak
