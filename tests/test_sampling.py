import contextlib
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physbc.errors import DatasetParseError, PhysbcError
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
    with pytest.raises(PhysbcError, match=f"limit is {DEFAULT_MAX_SAMPLES}"):
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
    # the draw is numpy's uniform stream over the interval, one value per
    # state, recorded in ascending order
    expected = np.sort(np.random.default_rng(3).uniform(0.5, 2.7, size=500))
    assert a.states.tobytes() == expected.tobytes()
    assert np.all(a.states[1:] > a.states[:-1])


def test_iid_count_validation():
    with pytest.raises(ValueError):
        sample_iid(supply_demand(), DOMAIN, 0, seed=0)
    with pytest.raises(PhysbcError, match=f"limit is {DEFAULT_MAX_SAMPLES}"):
        sample_iid(supply_demand(), DOMAIN, DEFAULT_MAX_SAMPLES + 1, seed=0)


def test_dataset_shape_and_domain_validation():
    xs = np.array([0.6, 0.7])
    with pytest.raises(ValueError):
        Dataset(xs, np.zeros(3), SCHEME_GRID, DOMAIN)
    with pytest.raises(ValueError, match=r"\(N,\) arrays"):
        Dataset(xs[:, None], xs[:, None], SCHEME_GRID, DOMAIN)
    with pytest.raises(ValueError):
        Dataset(xs, xs, "mystery", DOMAIN)
    with pytest.raises(PhysbcError, match="dataset contains states outside the domain"):
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


def _states_on(box, states):
    """A dataset of ``states`` on ``box``; the covering radius reads only these two."""
    states = np.asarray(states, dtype=float)
    return Dataset(states, states, SCHEME_IID, box)


def test_covering_radius_three_point_example():
    assert covering_radius(_states_on(RegionBox(0.0, 1.0), [0.0, 0.5, 1.0])) == pytest.approx(0.25)


def test_covering_radius_boundary_gaps_dominate():
    box = RegionBox(0.0, 1.0)
    # lone interior point: the far boundary is the worst spot
    assert covering_radius(_states_on(box, [0.3])) == pytest.approx(0.7)
    # half the widest interior gap can also dominate
    assert covering_radius(_states_on(box, [0.0, 0.1, 0.9, 1.0])) == pytest.approx(0.4)


def test_covering_radius_accepts_unsorted_input():
    box = RegionBox(0.0, 1.0)
    states = np.array([0.9, 0.1, 0.5])
    assert covering_radius(_states_on(box, states)) == covering_radius(
        _states_on(box, np.sort(states)))


def test_covering_radius_exact_against_dense_scan():
    rng = np.random.default_rng(11)
    states = rng.uniform(0.5, 2.7, size=40)
    exact = covering_radius(_states_on(RegionBox(0.5, 2.7), states))
    probes = np.linspace(0.5, 2.7, 200_001)
    scan = np.min(np.abs(probes[:, None] - states[None, :]), axis=1).max()
    assert exact == pytest.approx(scan, abs=2e-5)
    assert exact >= scan - 1e-12  # the scan can only undershoot


def test_covering_radius_error_paths():
    # states outside the domain, or not (N,), are the Dataset's to refuse
    # (test_dataset_shape_and_domain_validation)
    with pytest.raises(PhysbcError, match="cannot cover a domain with zero states"):
        covering_radius(_states_on(RegionBox(0.0, 1.0), []))


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


# around the block edge, and around the edge of the block this module used before
@pytest.mark.parametrize("count", [4_095, 4_096, 4_097, 65_535, 65_536, 65_537])
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
    if case == "lone-cr":
        # text mode reads a lone \r as a line break; np.loadtxt over bytes does not
        return lines[:3] + [lines[3] + "\r" + lines[4]] + lines[5:]
    if case == "nul-byte":
        return lines[:4] + ["0.6,0.9\x00"] + lines[5:]
    if case == "non-ascii-byte":
        return lines[:4] + ["0.6,0.9\xe9"] + lines[5:]
    if case == "not-a-number":
        return lines[:4] + ["0.6,abc"] + lines[5:]
    if case == "out-of-domain":
        return lines[:4] + ["9.0,0.9"] + lines[5:]
    return lines


SEPARATORS = ["1c", "1d", "1e", "1f"]
LOAD_CASES = (["clean", "blank-lines", "whitespace-only-line", "underscores", "trailing-comma",
               "extra-row", "missing-row", "three-columns", "padded-fields", "not-a-number",
               "out-of-domain", "lone-cr", "nul-byte", "non-ascii-byte"]
              + [f"separator-beside-comma-{sep}" for sep in SEPARATORS]
              + [f"separator-at-line-end-{sep}" for sep in SEPARATORS])


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", LOAD_CASES)
def test_load_matches_rowwise_oracle(tmp_path, case, crlf):
    data = sample_iid(supply_demand(), DOMAIN, 8, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    lines = _edit_lines(path.read_text().splitlines(), case)
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("latin-1") + b"\n")
    fast, slow = _outcome(load_dataset, str(path)), _outcome(load_dataset_rowwise, str(path))
    assert fast == slow
    if case in ("clean", "blank-lines"):
        assert fast[0] == data.states.tobytes()
    if case in ("whitespace-only-line", "underscores", "lone-cr") or case.startswith(
            "separator-at-line-end"):
        assert fast[2] == (8,)  # only the line loop accepts these
    if case in ("trailing-comma", "extra-row", "missing-row", "three-columns",
                "not-a-number", "nul-byte") or case.startswith("separator-beside-comma"):
        assert fast[0] is DatasetParseError
    if case == "non-ascii-byte":
        assert fast == (DatasetParseError, "line 5: byte 0xe9 is not ASCII", 5)


@pytest.mark.parametrize("body", [
    b"0.6,0.9\n\xff\n",                        # a byte that is not ASCII, on a line of its own
    b"0.6,0.9\nbad\n0.7,0.9\n\xff\n",            # a bad line before it is named first
    b"0.6,0.9\nbad\n" + b"0.7,0.9\n" * 2000 + b"\xff\n",  # ... however far before
    b"0.7,0.9\n" * 2000 + b"\xff\n",               # the error names the line, far down
    b"",                                        # no rows at all
    b"\n\n",                                    # blank lines only
    b"0.6,0.9\r0.7,0.9\r",                       # lone-CR line ends, read as two rows
    b"0.6,0.9\r\r\n0.7,0.9\n",                   # a lone CR before a CRLF: a blank line
    b"0.6,0.9\n0.7,0.9\r",                       # a lone CR ending the file
    b"0.6,0.9\n0.7,\x000.9\n",                   # a NUL byte
    b"0.6,0.9\n0.7,0.9\x80\n",                   # a byte that is not ASCII
    b"0.6,0.9\n0.7,0.9\x1c\n",                   # each separator np.loadtxt strips
    b"0.6,0.9\n0.7,0.9\x1d\n",
    b"0.6,0.9\n0.7\x1e,0.9\n",
    b"0.6,0.9\n\x1f0.7,0.9\n",
])
def test_load_matches_rowwise_oracle_on_raw_bodies(tmp_path, body):
    data = sample_iid(supply_demand(), DOMAIN, 2, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    path.write_bytes(b"x_1,y_1\n" + body)
    outcome = _outcome(load_dataset, str(path))
    assert outcome == _outcome(load_dataset_rowwise, str(path))
    if not body.isascii():  # the first bad line is named, never a decode error
        assert outcome[0] is DatasetParseError


@pytest.mark.parametrize("piece", [1, 23, 64])
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", LOAD_CASES)
def test_a_load_in_pieces_matches_rowwise_oracle(tmp_path, monkeypatch, case, crlf, piece):
    # pieces of a byte, of about half a line and of about a line and a half,
    # so that lines straddle pieces and some pieces hold blank lines only
    data = sample_iid(supply_demand(), DOMAIN, 8, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    lines = _edit_lines(path.read_text().splitlines(), case)
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("latin-1") + b"\n")
    loops, line_loop = [], sampling._parse_rows

    def counted(*args):
        loops.append(args)
        return line_loop(*args)

    monkeypatch.setattr(sampling, "_parse_rows", counted)
    whole = _outcome(load_dataset, str(path))
    monkeypatch.setattr(sampling, "_PIECE", piece)
    assert _outcome(load_dataset, str(path)) == whole
    assert whole == _outcome(load_dataset_rowwise, str(path))
    # the pieces go to the line loop exactly when the whole body does
    assert len(loops) in (0, 2)
    if case in ("clean", "blank-lines"):
        assert not loops


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
    assert covering_radius(_states_on(box, states)) == float(max(expected, 0.0))
    assert covering_radius(_states_on(box, shuffled)) == covering_radius(_states_on(box, states))


def test_covering_radius_does_not_sort_sorted_states(monkeypatch):
    box = RegionBox(0.5, 2.7)
    grid = sample_grid(supply_demand(), box, 1001)
    repeated = _states_on(box, np.repeat(grid.states, 3))
    expected = covering_radius(_states_on(box, np.random.default_rng(2).permutation(
        repeated.states)))

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted states were sorted again")

    monkeypatch.setattr(np, "sort", no_sort)
    assert covering_radius(repeated) == expected
    assert covering_radius(grid) == expected


# ------------------------------------- the CSV text work split with a forked child


@contextlib.contextmanager
def _split_forced(forks=None):
    """Split every CSV of four rows or more: a ``_SPLIT_ROWS`` of four rows,
    a ``_ROW_CHUNK`` of two and two usable CPUs.  Each fork appends its pid
    to ``forks`` when given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_SPLIT_ROWS", 4)
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
        write_rows(fh, line_format, rows.T)
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
    """Load ``path`` split with a forked child, each part read and parsed in
    pieces of at most 64 bytes, so that lines straddle pieces and some are
    longer than one."""
    forks = []
    with _split_forced(forks), pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_PIECE", 64)
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


@pytest.mark.parametrize("half", ["front", "back"])
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", LOAD_CASES)
def test_split_load_matches_rowwise_oracle(tmp_path, case, crlf, half):
    # sixteen rows, the case applied to the eight in one half of a forced split
    data = sample_iid(supply_demand(), DOMAIN, 16, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    lines = path.read_text().splitlines()
    if half == "front":
        lines = _edit_lines(lines[:9], case) + lines[9:]
    else:
        lines = lines[:9] + _edit_lines(lines[:1] + lines[9:], case)[1:]
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode("latin-1") + b"\n")
    outcome, forks = _forced_load(path)
    assert len(forks) == 1
    assert outcome == _outcome(load_dataset_rowwise, str(path))
    if case == "clean":
        assert outcome[:2] == (data.states.tobytes(), data.successors.tobytes())


@pytest.mark.parametrize("body", [
    b"0.6,0.9\r0.7,0.9\r",
    b"0.6,0.9\n0.7,0.9\r\r\n",
    b"0.6,0.9\n0.7,\x000.9\n",
    b"0.6,0.9\n0.7,0.9\x80\n",
    b"0.6,0.9\n0.7,0.9\x1c\n",
    b"0.6,0.9\n0.7,0.9\x1d\n",
    b"0.6,0.9\n0.7\x1e,0.9\n",
    b"0.6,0.9\n\x1f0.7,0.9\n",
], ids=["lone-cr", "cr-before-crlf", "nul", "non-ascii", "sep-1c", "sep-1d", "sep-1e", "sep-1f"])
@pytest.mark.parametrize("half", ["front", "back"])
def test_split_load_matches_rowwise_oracle_on_raw_bodies(tmp_path, body, half):
    data = sample_iid(supply_demand(), DOMAIN, 8, seed=1)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    rows = b"".join(f"{x!r},{y!r}\n".encode() for x, y in zip(data.states[:6].tolist(),
                                                               data.successors[:6].tolist()))
    path.write_bytes(b"x_1,y_1\n" + (body + rows if half == "front" else rows + body))
    outcome, forks = _forced_load(path)
    assert len(forks) == 1
    assert outcome == _outcome(load_dataset_rowwise, str(path))


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


@pytest.mark.parametrize("work", ["write", "load"])
def test_a_child_that_fails_after_sending_its_bytes_is_redone_in_their_place(
        tmp_path, monkeypatch, work):
    data = sample_iid(supply_demand(), DOMAIN, 40, seed=5)
    rows = np.column_stack([data.states, data.successors, data.states, data.states > 1.5])
    one = _written(tmp_path / "one.csv", LINE_FORMATS[4], rows)
    save_dataset(data, str(tmp_path / "d.csv"))
    statuses = []
    waitpid = os.waitpid

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    parent, exit_now = os.getpid(), os._exit

    def failed_exit(status):  # the child sends all its bytes, then fails
        exit_now(5 if os.getpid() != parent else status)

    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    monkeypatch.setattr(os, "_exit", failed_exit)
    if work == "write":
        with _split_forced():
            # the redo takes the place of the bytes copied from the child, not the place after them
            assert _written(tmp_path / "two.csv", LINE_FORMATS[4], rows) == one
    else:
        outcome, _ = _forced_load(tmp_path / "d.csv")
        assert outcome[:2] == (data.states.tobytes(), data.successors.tobytes())
    assert statuses == [5]
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
        write_rows(FailingFile(), LINE_FORMATS[2], rows.T)
    assert len(forks) == 1
    _no_child_left()


def _traced_peak(work):
    """The most memory ``work()`` held at once in this process, as tracemalloc
    counts it (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_load_peaks_at_the_rows_it_returns(tmp_path, monkeypatch):
    data = sample_iid(supply_demand(), DOMAIN, sampling._SPLIT_ROWS, seed=8)
    path = tmp_path / "d.csv"
    save_dataset(data, str(path))
    rows = 16 * data.count
    loaded, forks = [], []
    with _split_forced(forks):
        split = _traced_peak(lambda: loaded.append(load_dataset(str(path))))
    _no_child_left()
    assert len(forks) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # no split
    whole = _traced_peak(lambda: loaded.append(load_dataset(str(path))))
    for dataset in loaded:
        assert dataset.states.tobytes() == data.states.tobytes()
    # the parsed rows, one piece of the body's bytes and the dataset's domain
    # check, about 1.19 times the rows and half the file, split or not; the
    # bytes of a whole half beside them read 1.81 times the rows
    assert max(split, whole) <= 1.3 * rows
    assert path.stat().st_size > 2 * rows


def test_a_split_write_peaks_no_higher_than_a_one_process_write(tmp_path, monkeypatch):
    monkeypatch.setattr(sampling, "_ROW_CHUNK", 4096)
    monkeypatch.setattr(sampling, "_SPLIT_ROWS", 8 * 4096)
    rows = np.random.default_rng(10).uniform(-3.0, 3.0, (8 * 4096, 2))  # four chunks a half
    peaks = {}
    for cpus in ({0}, {0, 1}, {0}, {0, 1}):  # the first two warm up
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        peaks[len(cpus)] = _traced_peak(lambda: _written(tmp_path / "rows.csv", LINE_FORMATS[2],
                                                         rows))
    _no_child_left()
    # the child's bytes pass through in pipe-sized pieces; the fork and the
    # pipe add a few hundred bytes of their own
    assert peaks[2] <= 1.05 * peaks[1]


def test_split_applies_with_fork_two_cpus_and_a_chunk_per_half(monkeypatch):
    chunk = sampling._SPLIT_ROWS // 2
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


@pytest.mark.parametrize("chunk", [2, 4096, 65_536, 1 << 20])
def test_split_threshold_does_not_follow_the_block_size(monkeypatch, chunk):
    monkeypatch.setattr(sampling, "_ROW_CHUNK", chunk)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert sampling._split_at(131_072) == 65_536
    assert sampling._split_at(131_071) == 0


def test_a_write_peaks_at_one_block_whatever_the_row_count(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # no split
    rng = np.random.default_rng(14)
    columns = (*rng.uniform(-3.0, 3.0, (3, 200_000)), rng.uniform(size=200_000) < 0.8)

    def write():
        with open(tmp_path / "samples.csv", "w", newline="", encoding="ascii") as fh:
            write_rows(fh, LINE_FORMATS[4], columns)

    peak = _traced_peak(write)
    # one block's floats and text, about 1 MiB; a block of 65 536 rows held 11 MiB
    assert peak < 2 * 2**20
