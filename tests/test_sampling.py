import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physbc.errors import (
    CapacityError,
    DatasetParseError,
    NoCoverError,
    RegionViolationError,
)
from oracles import load_dataset_rowwise, save_dataset_rowwise
from physbc import sampling
from physbc.models import RegionBox, supply_demand
from physbc.sampling import (
    DEFAULT_MAX_SAMPLES,
    SCHEME_GRID,
    SCHEME_IID,
    Dataset,
    covering_radius,
    load_dataset,
    sample_grid,
    sample_iid,
    save_dataset,
    write_rows,
)

DOMAIN = RegionBox(0.5, 2.7)


def test_grid_is_sorted_and_hits_faces():
    data = sample_grid(supply_demand(), DOMAIN, 11)
    assert data.count == 11
    assert data.scheme == SCHEME_GRID
    xs = data.states
    assert xs.shape == data.successors.shape == (11,)
    assert xs[0] == 0.5 and xs[-1] == 2.7
    assert np.all(np.diff(xs) > 0)
    assert data.successors == pytest.approx(0.8 * data.states + 0.5)


def test_grid_rejects_degenerate_axes_and_overflow():
    with pytest.raises(ValueError):
        sample_grid(supply_demand(), DOMAIN, 1)
    with pytest.raises(CapacityError):
        # refused before the states are allocated
        sample_grid(supply_demand(), DOMAIN, DEFAULT_MAX_SAMPLES + 1)


def test_iid_reproducible_by_seed():
    a = sample_iid(supply_demand(), DOMAIN, 500, seed=3)
    b = sample_iid(supply_demand(), DOMAIN, 500, seed=3)
    c = sample_iid(supply_demand(), DOMAIN, 500, seed=4)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert a.scheme == SCHEME_IID and a.seed == 3
    assert a.states.shape == (500,)
    assert np.all(DOMAIN.contains(a.states))
    # the draw is numpy's uniform stream over the interval, one value per state
    expected = np.random.default_rng(3).uniform(0.5, 2.7, size=500)
    assert a.states.tobytes() == expected.tobytes()


def test_iid_count_validation():
    with pytest.raises(ValueError):
        sample_iid(supply_demand(), DOMAIN, 0, seed=0)
    with pytest.raises(CapacityError):
        sample_iid(supply_demand(), DOMAIN, DEFAULT_MAX_SAMPLES + 1, seed=0)


def test_dataset_shape_and_domain_validation():
    xs = np.array([0.6, 0.7])
    with pytest.raises(ValueError):
        Dataset(xs, np.zeros(3), SCHEME_GRID, DOMAIN)
    with pytest.raises(ValueError, match=r"\(N,\) arrays"):
        Dataset(xs[:, None], xs[:, None], SCHEME_GRID, DOMAIN)
    with pytest.raises(ValueError):
        Dataset(xs, xs, "mystery", DOMAIN)
    with pytest.raises(RegionViolationError):
        Dataset(np.array([0.4]), np.array([0.9]), SCHEME_GRID, DOMAIN)


def test_dataset_take_preserves_order_and_metadata():
    data = sample_grid(supply_demand(), DOMAIN, 10)
    mask = np.zeros(10, dtype=bool)
    mask[[1, 4, 7]] = True
    sub = data.take(mask)
    assert sub.count == 3
    assert np.array_equal(sub.states, data.states[[1, 4, 7]])
    assert (sub.scheme, sub.domain, sub.seed) == (data.scheme, data.domain, data.seed)
    assert sub.states[0] == data.states[1]
    assert sub.successors[0] == data.successors[1]


def test_covering_radius_three_point_example():
    box = RegionBox(0.0, 1.0)
    assert covering_radius(np.array([0.0, 0.5, 1.0]), box) == pytest.approx(0.25)


def test_covering_radius_boundary_gaps_dominate():
    box = RegionBox(0.0, 1.0)
    # lone interior point: the far boundary is the worst spot
    assert covering_radius(np.array([0.3]), box) == pytest.approx(0.7)
    # half the widest interior gap can also dominate
    assert covering_radius(np.array([0.0, 0.1, 0.9, 1.0]), box) == pytest.approx(0.4)


def test_covering_radius_accepts_unsorted_input():
    box = RegionBox(0.0, 1.0)
    states = np.array([0.9, 0.1, 0.5])
    assert covering_radius(states, box) == covering_radius(np.sort(states), box)


def test_covering_radius_exact_against_dense_scan():
    rng = np.random.default_rng(11)
    box = RegionBox(0.5, 2.7)
    states = rng.uniform(0.5, 2.7, size=40)
    exact = covering_radius(states, box)
    probes = np.linspace(0.5, 2.7, 200_001)
    scan = np.min(np.abs(probes[:, None] - states[None, :]), axis=1).max()
    assert exact == pytest.approx(scan, abs=2e-5)
    assert exact >= scan - 1e-12  # the scan can only undershoot


def test_covering_radius_error_paths():
    box = RegionBox(0.0, 1.0)
    with pytest.raises(NoCoverError):
        covering_radius(np.empty(0), box)
    with pytest.raises(RegionViolationError):
        covering_radius(np.array([1.5]), box)
    for states in (np.array([[0.5, 0.5]]), np.array([[0.5]])):
        with pytest.raises(ValueError, match=r"expected \(N,\) states"):
            covering_radius(states, box)


def test_save_load_round_trip_is_bitwise(tmp_path):
    data = sample_iid(supply_demand(), DOMAIN, 257, seed=12)
    path = str(tmp_path / "pairs.csv")
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.states, data.states)
    assert np.array_equal(back.successors, data.successors)
    assert back.scheme == data.scheme
    assert back.seed == data.seed
    meta = json.loads((tmp_path / "pairs.meta.json").read_text())
    assert set(meta) == {"scheme", "seed", "domain", "count", "dimension"}
    assert meta["dimension"] == 1 and meta["domain"] == {"lower": [0.5], "upper": [2.7]}
    assert (tmp_path / "pairs.csv").read_text().startswith("x_1,y_1\n")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.5, 2.7), min_size=1, max_size=8))
def test_save_load_survives_arbitrary_floats(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("roundtrip")
    xs = np.array(values)
    data = Dataset(xs, np.sin(xs) * 1e-7 + xs, SCHEME_IID, DOMAIN, seed=0)
    path = str(tmp / "d.csv")
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.states, data.states)
    assert np.array_equal(back.successors, data.successors)


def test_load_reports_line_numbers(tmp_path):
    data = sample_grid(supply_demand(), DOMAIN, 5)
    path = str(tmp_path / "d.csv")
    save_dataset(data, path)

    lines = (tmp_path / "d.csv").read_text().splitlines()
    lines[3] = "0.6,not-a-number"
    (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line == 4
    assert "line 4" in str(err.value)


def test_load_rejects_bad_header_and_column_count(tmp_path):
    data = sample_grid(supply_demand(), DOMAIN, 4)
    path = str(tmp_path / "d.csv")
    save_dataset(data, path)
    lines = (tmp_path / "d.csv").read_text().splitlines()

    (tmp_path / "d.csv").write_text("\n".join(["a,b"] + lines[1:]) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line == 1

    (tmp_path / "d.csv").write_text("\n".join([lines[0]] + ["0.6,0.9,1.0"] + lines[2:]) + "\n")
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line == 2


def test_load_detects_row_count_drift(tmp_path):
    data = sample_grid(supply_demand(), DOMAIN, 6)
    path = str(tmp_path / "d.csv")
    save_dataset(data, path)
    lines = (tmp_path / "d.csv").read_text().splitlines()
    (tmp_path / "d.csv").write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DatasetParseError):
        load_dataset(path)


def test_load_requires_sidecar(tmp_path):
    data = sample_grid(supply_demand(), DOMAIN, 4)
    path = str(tmp_path / "d.csv")
    save_dataset(data, path)
    (tmp_path / "d.meta.json").unlink()
    with pytest.raises(DatasetParseError):
        load_dataset(path)


# ------------------------------------------------ block I/O against the oracles


def _saved_bytes(save, data, path):
    save(data, str(path))
    return path.read_bytes(), path.with_suffix(".meta.json").read_bytes()


def _same_save_bytes(data, tmp_path):
    fast = _saved_bytes(save_dataset, data, tmp_path / "fast.csv")
    slow = _saved_bytes(save_dataset_rowwise, data, tmp_path / "slow.csv")
    assert fast == slow


@pytest.mark.parametrize("count", [65_535, 65_536, 65_537])
def test_save_matches_rowwise_oracle_around_chunk_edge(tmp_path, count):
    _same_save_bytes(sample_iid(supply_demand(), DOMAIN, count, seed=count), tmp_path)


def test_save_matches_rowwise_oracle_on_edge_values(tmp_path):
    box = RegionBox(-1.0, 1.0)
    states = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
              0.1 + 0.2, np.nextafter(1.0, 0.0), -1.0, 1.0, 2 / 3]
    successors = [1e308, -1e308, 5e-324, -0.0, 1.7976931348623157e308, 1e16, 123456789012345678.0,
                  9007199254740993.0, 1e-5, np.inf, -np.inf, np.nan]
    data = Dataset(np.array(states), np.array(successors), SCHEME_GRID, box)
    _same_save_bytes(data, tmp_path)
    back = load_dataset(str(tmp_path / "fast.csv"))
    assert back.states.tobytes() == data.states.tobytes()
    assert back.successors.tobytes() == data.successors.tobytes()


def test_load_accepts_an_older_sidecar_with_a_filtered_flag(tmp_path):
    data = sample_iid(supply_demand(), DOMAIN, 16, seed=3)
    path = tmp_path / "pairs.csv"
    save_dataset(data, str(path))
    sidecar = tmp_path / "pairs.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "filtered": True}))
    back = load_dataset(str(path))
    assert back.states.tobytes() == data.states.tobytes()
    assert (back.scheme, back.seed, back.count) == (data.scheme, data.seed, data.count)


def _outcome(load, path):
    """What a loader makes of a file: its arrays and metadata, or its exception."""
    try:
        data = load(path)
    except Exception as exc:  # the oracle and the loader must fail alike
        return type(exc), str(exc), getattr(exc, "line", None)
    return (data.states.tobytes(), data.successors.tobytes(), data.states.shape,
            data.scheme, data.seed)


def _edit_lines(lines, case):
    """Apply one named corruption to the text lines of a saved 1-D, 8-row dataset."""
    if case == "blank-lines":
        return lines[:3] + [""] + lines[3:] + ["", ""]
    if case == "whitespace-only-line":
        return lines[:4] + ["  \t "] + lines[4:]
    if case == "underscores":
        return lines[:2] + ["1.2_5,1_0"] + lines[3:]
    if case == "trailing-comma":
        return lines[:5] + [lines[5] + ","] + lines[6:]
    if case == "extra-row":
        return lines + ["0.6,0.9"]
    if case == "missing-row":
        return lines[:-1]
    if case == "three-columns":
        return lines[:6] + ["0.6,0.9,1.0"] + lines[7:]
    if case == "padded-fields":
        return [lines[0]] + [" " + line.replace(",", " ,\t") + "\x0c" for line in lines[1:]]
    if case.startswith("separator-"):
        # np.loadtxt reads "0.6\x1c" as 0.6 for each of \x1c-\x1f; float() rejects it
        sep = chr(int(case[-2:], 16))
        row = f"0.6{sep},0.9" if case.startswith("separator-beside-comma") else f"0.6,0.9{sep}"
        return lines[:3] + [row] + lines[4:]
    if case == "not-a-number":
        return lines[:4] + ["0.6,abc"] + lines[5:]
    if case == "out-of-domain":
        return lines[:4] + ["9.0,0.9"] + lines[5:]
    return lines


SEPARATORS = ["1c", "1d", "1e", "1f"]
LOAD_CASES = (["clean", "blank-lines", "whitespace-only-line", "underscores", "trailing-comma",
               "extra-row", "missing-row", "three-columns", "padded-fields", "not-a-number",
               "out-of-domain"]
              + [f"separator-beside-comma-{sep}" for sep in SEPARATORS]
              + [f"separator-at-line-end-{sep}" for sep in SEPARATORS])


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", LOAD_CASES)
def test_load_matches_rowwise_oracle(tmp_path, case, crlf):
    data = sample_iid(supply_demand(), DOMAIN, 8, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    lines = _edit_lines(path.read_text().splitlines(), case)
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("ascii") + b"\n")
    fast, slow = _outcome(load_dataset, str(path)), _outcome(load_dataset_rowwise, str(path))
    assert fast == slow
    if case in ("clean", "blank-lines"):
        assert fast[0] == data.states.tobytes()
    if case in ("whitespace-only-line", "underscores") or case.startswith("separator-at-line-end"):
        assert fast[2] == (8,)  # only the line loop accepts these
    if case in ("trailing-comma", "extra-row", "missing-row", "three-columns",
                "not-a-number") or case.startswith("separator-beside-comma"):
        assert fast[0] is DatasetParseError


@pytest.mark.parametrize("body", [
    b"0.6,0.9\n\xff\n",                        # undecodable byte
    b"0.6,0.9\nbad\n0.7,0.9\n\xff\n",            # a bad line before it, same chunk
    b"0.6,0.9\nbad\n" + b"0.7,0.9\n" * 2000 + b"\xff\n",  # ... in a later chunk
    b"0.7,0.9\n" * 2000 + b"\xff\n",               # the error names a chunk offset
    b"",                                        # no rows at all
    b"\n\n",                                    # blank lines only
])
def test_load_matches_rowwise_oracle_on_raw_bodies(tmp_path, body):
    data = sample_iid(supply_demand(), DOMAIN, 2, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    path.write_bytes(b"x_1,y_1\n" + body)
    assert _outcome(load_dataset, str(path)) == _outcome(load_dataset_rowwise, str(path))


@pytest.mark.parametrize("edit", [
    {"count": -1},
    {"count": 10**12},  # 14.6 TiB of rows
    {"count": math.inf},
    {"dimension": -1},
    {"dimension": 0, "domain": {"lower": [], "upper": []}},
    {"scheme": "bogus"},
    {"domain": {"lower": [0.5, 0.5], "upper": [2.7, 2.7]}},
    {"count": 2.9},
    {"count": 1.0},
    {"count": True},
    {"count": "1"},
    {"dimension": 2.9},
    {"dimension": 1.0},
    {"dimension": True},
    {"dimension": "1"},
    {"seed": "x"},
    {"seed": 2.5},
    {"seed": True},
    {"seed": -4},
    {"seed": [1]},
    {"dimension": 2, "domain": {"lower": [0.5, 0.5], "upper": [2.7, 2.7]}},
    {"domain": {"lower": ["0.5"], "upper": [2.7]}},
    {"domain": {"lower": [0.5], "upper": [True]}},
], ids=["negative-count", "huge-count", "infinite-count", "negative-dimension",
        "zero-dimension", "unknown-scheme", "two-dimensional-domain",
        "fractional-count", "float-count", "boolean-count", "string-count",
        "fractional-dimension", "float-dimension", "boolean-dimension", "string-dimension",
        "string-seed", "fractional-seed", "boolean-seed", "negative-seed", "list-seed",
        "two-dimensional", "quoted-domain-bound", "boolean-domain-bound"])
def test_load_rejects_a_bad_sidecar_before_allocating(tmp_path, monkeypatch, edit):
    data = sample_iid(supply_demand(), DOMAIN, 2, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    sidecar = tmp_path / "d.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))

    def no_allocation(*args, **kwargs):
        raise AssertionError("the body was allocated for a sidecar that should not load")

    monkeypatch.setattr(np, "empty", no_allocation)
    # the message names the field the edit corrupts
    with pytest.raises(DatasetParseError, match=f"sidecar.*{next(iter(edit))}"):
        load_dataset(str(path))


def test_load_rejects_a_sidecar_that_is_not_ascii(tmp_path):
    data = sample_iid(supply_demand(), DOMAIN, 2, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    (tmp_path / "d.meta.json").write_bytes(b'{"scheme": "\xff"}')
    with pytest.raises(DatasetParseError, match="invalid sidecar JSON"):
        load_dataset(str(path))


@pytest.mark.parametrize("count", [-1, 0])
def test_load_matches_rowwise_oracle_on_sidecar_counts(tmp_path, count):
    data = sample_iid(supply_demand(), DOMAIN, 2, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    sidecar = tmp_path / "d.meta.json"
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "count": count}))
    path.write_text("x_1,y_1\n" if count == 0 else "bad header\n")
    assert _outcome(load_dataset, str(path)) == _outcome(load_dataset_rowwise, str(path))


@settings(max_examples=300, deadline=None)
@given(ticks=st.lists(st.integers(0, 40), min_size=1, max_size=50),
       seed=st.integers(0, 2**32 - 1))
def test_covering_radius_of_sorted_states_equals_the_sorted_form(ticks, seed):
    box = RegionBox(0.0, 2.0)
    states = np.sort(np.array(ticks) / 20)  # on a coarse lattice, so states repeat
    shuffled = states[np.random.default_rng(seed).permutation(states.size)]
    s = np.sort(shuffled)
    expected = max(s[0] - box.lower, box.upper - s[-1])
    if s.size > 1:
        expected = max(expected, 0.5 * float(np.max(np.diff(s))))
    assert covering_radius(states, box) == float(max(expected, 0.0))
    assert covering_radius(shuffled, box) == covering_radius(states, box)


def test_covering_radius_does_not_sort_sorted_states(monkeypatch):
    box = RegionBox(0.5, 2.7)
    grid = sample_grid(supply_demand(), box, 1001).states
    states = np.repeat(grid, 3)
    expected = covering_radius(np.random.default_rng(2).permutation(states), box)

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted states were sorted again")

    monkeypatch.setattr(np, "sort", no_sort)
    assert covering_radius(states, box) == expected
    assert covering_radius(grid, box) == expected


# ------------------------------------- the CSV text work split with a forked child


@contextlib.contextmanager
def _split_forced(forks=None):
    """Split every CSV of four rows or more: a ``_ROW_CHUNK`` of two rows and
    two usable CPUs.  Each fork appends its pid to ``forks`` when given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_ROW_CHUNK", 2)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if forks is not None:
            fork = os.fork

            def counted_fork():
                pid = fork()
                if pid:
                    forks.append(pid)
                return pid

            mp.setattr(os, "fork", counted_fork)
        yield


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _written(path, line_format, rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("head\n")
        write_rows(fh, line_format, rows)
    return path.read_bytes()


# what the two formats of the package write: dataset.csv and samples.csv
LINE_FORMATS = {2: "%.17g,%.17g\n", 4: "%r,%r,%r,%d\r\n"}
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                1e-310, 1.7976931348623157e308, -1.7976931348623157e308,
                                0.1, 1 / 3, np.inf, -np.inf, np.nan])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False))  # NaN payloads do not round-trip
_FLAGS = st.one_of(st.sampled_from([0.0, 1.0, -0.0, 1.7976931348623157e308, 5e-324]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(width=st.sampled_from([2, 4]), draw=st.data())
def test_split_write_gives_the_one_process_bytes(tmp_path_factory, width, draw):
    count = draw.draw(st.integers(4, 40))
    columns = [draw.draw(st.lists(_FLOATS, min_size=count, max_size=count))
               for _ in range(width - 1)]
    columns.append(draw.draw(st.lists(_FLAGS if width == 4 else _FLOATS,
                                      min_size=count, max_size=count)))
    rows = np.column_stack(columns)
    tmp = tmp_path_factory.mktemp("split-write")
    one = _written(tmp / "one.csv", LINE_FORMATS[width], rows)
    forks = []
    with _split_forced(forks):
        two = _written(tmp / "two.csv", LINE_FORMATS[width], rows)
    assert len(forks) == 1
    _no_child_left()
    assert two == one


def _forced_load(path):
    forks = []
    with _split_forced(forks):
        outcome = _outcome(load_dataset, str(path))
    _no_child_left()
    return outcome, forks


@settings(max_examples=40, deadline=None)
@given(states=st.lists(st.one_of(st.sampled_from([0.5, 2.7, np.nextafter(0.5, 1.0)]),
                                 st.floats(0.5, 2.7)), min_size=4, max_size=40),
       draw=st.data())
def test_split_load_gives_the_one_process_values(tmp_path_factory, states, draw):
    successors = draw.draw(st.lists(_FLOATS, min_size=len(states), max_size=len(states)))
    data = Dataset(np.array(states), np.array(successors), SCHEME_IID, DOMAIN, seed=5)
    path = tmp_path_factory.mktemp("split-load") / "d.csv"
    save_dataset(data, str(path))
    outcome, forks = _forced_load(path)
    assert len(forks) == 1
    assert outcome == _outcome(load_dataset, str(path))
    assert outcome[:2] == (data.states.tobytes(), data.successors.tobytes())


BAD_LINES = ["0.6,abc", "0.6,0.9,1.0", "0.6", "0.6,", "  \t ", "", "1_0,2", "0.6,0.9\x1c",
             "\xff"]


@settings(max_examples=60, deadline=None)
@given(count=st.integers(4, 40), draw=st.data())
def test_split_load_fails_as_the_one_process_load_on_a_bad_line(tmp_path_factory, count, draw):
    data = sample_iid(supply_demand(), DOMAIN, count, seed=count)
    path = tmp_path_factory.mktemp("split-bad") / "d.csv"
    save_dataset(data, str(path))
    lines = path.read_bytes().split(b"\n")[:-1]
    at = draw.draw(st.integers(1, count))  # any data line, in either half
    lines[at] = draw.draw(st.sampled_from(BAD_LINES)).encode("latin-1")
    path.write_bytes(b"\n".join(lines) + b"\n")
    outcome, forks = _forced_load(path)
    assert outcome == _outcome(load_dataset, str(path))
    assert outcome == _outcome(load_dataset_rowwise, str(path))
    assert len(forks) <= 1  # an undecodable or \x1c body is refused before a fork


def test_split_load_names_a_bad_line_in_the_childs_half(tmp_path):
    data = sample_iid(supply_demand(), DOMAIN, 40, seed=2)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    lines = path.read_text().splitlines()
    lines[37] = "0.6,abc"
    path.write_text("\n".join(lines) + "\n")
    outcome, forks = _forced_load(path)
    assert len(forks) == 1
    assert outcome[0] is DatasetParseError and outcome[2] == 38
    assert outcome == _outcome(load_dataset, str(path))


@pytest.mark.parametrize("name", ["_formatted", "_loadtxt"])
def test_a_child_that_fails_leaves_the_work_to_this_process(tmp_path, monkeypatch, name):
    data = sample_iid(supply_demand(), DOMAIN, 40, seed=4)
    rows = np.column_stack([data.states, data.successors, data.states, data.states > 1.5])
    one = _written(tmp_path / "one.csv", LINE_FORMATS[4], rows)
    save_dataset(data, str(tmp_path / "d.csv"))
    statuses = []
    waitpid = os.waitpid

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    parent, original = os.getpid(), getattr(sampling, name)

    def child_exits(*args):
        if os.getpid() != parent:
            os._exit(3)
        return original(*args)

    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    monkeypatch.setattr(sampling, name, child_exits)
    if name == "_formatted":
        with _split_forced():
            assert _written(tmp_path / "two.csv", LINE_FORMATS[4], rows) == one
    else:
        outcome, _ = _forced_load(tmp_path / "d.csv")
        assert outcome[:2] == (data.states.tobytes(), data.successors.tobytes())
    assert statuses == [3]
    _no_child_left()


def test_a_fork_that_fails_leaves_both_halves_to_this_process(tmp_path, monkeypatch):
    data = sample_iid(supply_demand(), DOMAIN, 40, seed=6)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    one = path.read_bytes()

    def no_fork():
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with _split_forced():
        save_dataset(data, str(path))
        back = load_dataset(str(path))
    assert path.read_bytes() == one
    assert (back.states.tobytes(), back.successors.tobytes()) == (
        data.states.tobytes(), data.successors.tobytes())
    _no_child_left()


def test_this_process_reaps_the_child_when_its_own_half_fails(tmp_path):
    rows = np.arange(40.0).reshape(20, 2)

    class FailingFile(io.StringIO):
        def write(self, text):
            raise OSError("disk full")

    forks = []
    with _split_forced(forks), pytest.raises(OSError, match="disk full"):
        write_rows(FailingFile(), LINE_FORMATS[2], rows)
    assert len(forks) == 1
    _no_child_left()


def test_split_applies_with_fork_two_cpus_and_a_chunk_per_half(monkeypatch):
    chunk = sampling._ROW_CHUNK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert sampling._split_at(2 * chunk) == chunk
    assert sampling._split_at(2 * chunk + 1) == chunk
    assert sampling._split_at(2 * chunk - 1) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert sampling._split_at(4 * chunk) == 0
    # without an affinity call, the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus, split in ((None, 0), (1, 0), (2, 2 * chunk)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert sampling._split_at(4 * chunk) == split
    monkeypatch.delattr(os, "fork")
    assert sampling._split_at(4 * chunk) == 0
