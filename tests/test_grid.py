"""Tensor-grid row order and the CSV writer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featpde import grid


def test_nodes_are_lexicographic_first_axis_slowest():
    pts = grid.nodes([[0.0, 1.0], [5.0, 6.0, 7.0]])
    assert pts.tolist() == [[0, 5], [0, 6], [0, 7], [1, 5], [1, 6], [1, 7]]


@st.composite
def _grid_and_indices(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    axes = [np.sort(draw(st.lists(st.floats(-1e3, 1e3), min_size=m,
                                  max_size=m))) for m in sizes]
    n = int(np.prod(sizes))
    flat = st.integers(-n, n - 1)
    index = draw(st.one_of(
        flat, flat.map(np.int64),
        st.lists(flat, max_size=20).map(lambda v: np.array(v, np.intp)),
        st.lists(flat, min_size=1, max_size=6).map(
            lambda v: np.array(v).reshape(-1, 1))))
    return axes, index, draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_grid_and_indices())
def test_grid_rows_formed_from_indices_equal_the_node_rows(case):
    axes, index, past = case
    rows = grid.GridRows(axes)
    nodes = grid.nodes(axes)
    assert rows.shape == nodes.shape == (len(rows), len(axes))
    got = rows[index]
    assert got.shape == nodes[index].shape
    assert got.dtype == nodes.dtype
    assert got.tobytes() == nodes[index].tobytes()
    assert np.asarray(rows).tobytes() == nodes.tobytes()
    n = len(rows)
    for bad in (n - 1 + past, -n - past, [0, n - 1 + past]):
        with pytest.raises(IndexError):
            nodes[bad]
        with pytest.raises(IndexError):
            rows[bad]


def test_space_time_is_time_major_in_the_given_order():
    xi, t = grid.space_time([[0.0, 1.0]], [0.5, 0.0])
    assert xi[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0]
    assert t.tolist() == [0.5, 0.5, 0.0, 0.0]


def _awkward_body(rows):
    rng = np.random.default_rng(5)
    body = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(
        -320, 300, (rows, 4))
    body[0] = [np.nan, np.inf, -np.inf, -0.0]
    body[1] = [5e-324, 0.0, 1e308, 3.0]
    body[:, 3] = np.arange(rows) % 7
    return body


@pytest.mark.parametrize("chunk", [3, 8192])
def test_write_csv_equals_savetxt_across_chunks(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(grid, "_CHUNK_ROWS", chunk)
    body = _awkward_body(8192 + 5)
    header = "# provenance: x\na,b,c,d"
    fmt = ["%.17g", "%.17g", "%.17g", "%d"]
    np.savetxt(tmp_path / "ref.csv", body, delimiter=",", header=header,
               comments="", fmt=fmt)
    got = str(tmp_path / "got.csv")
    assert grid.write_csv(got, header, body, fmt) == got
    assert (tmp_path / "got.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["got.csv",
                                                          "ref.csv"]


def test_write_grid_rows_match_the_space_time_table(tmp_path, monkeypatch):
    monkeypatch.setattr(grid, "_CHUNK_ROWS", 4)
    axes = [np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 5)]
    times = np.array([0.0, 0.25])
    values = np.random.default_rng(1).standard_normal((2, 3, 5))
    got = str(tmp_path / "g.csv")
    assert grid.write_grid(got, axes, times, values) == got
    assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]
    xi, t = grid.space_time(axes, times)
    np.savetxt(tmp_path / "ref.csv", np.column_stack([xi, t, values.ravel()]),
               delimiter=",", header="xi1,xi2,t,value", comments="",
               fmt="%.17g")
    assert (tmp_path / "g.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()


_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324]


def _awkward(n, seed):
    """``n`` floats of wide magnitude, the first five nan, +-inf, -0.0 and
    the smallest subnormal."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    out[:len(_SPECIALS)] = _SPECIALS
    return out


# 8195 = 5 * 11 * 149 and 8633 = 89 * 97 nodes: no chunk size divides them
@pytest.mark.parametrize("chunk", [3, 7, 8192])
@pytest.mark.parametrize("sizes", [(8195,), (89, 97)])
def test_write_grid_equals_savetxt_of_the_space_time_table(
        sizes, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(grid, "_CHUNK_ROWS", chunk)
    axes = [_awkward(n, seed) for seed, n in enumerate(sizes)]
    times = np.array([0.25, *_SPECIALS])
    values = _awkward(times.size * int(np.prod(sizes)), 9).reshape(
        (times.size, *sizes))
    grid.write_grid(str(tmp_path / "g.csv"), axes, times, values)
    xi, t = grid.space_time(axes, times)
    header = ",".join(f"xi{i + 1}" for i in range(len(sizes))) + ",t,value"
    np.savetxt(tmp_path / "ref.csv", np.column_stack([xi, t, values.ravel()]),
               delimiter=",", header=header, comments="", fmt="%.17g")
    assert (tmp_path / "g.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()


def test_a_wide_write_csv_formats_a_bounded_number_of_cells(tmp_path):
    # 1,000 columns take 32 rows per % pass.  Formatting _CHUNK_ROWS rows
    # at a time, these 1,000 rows went in one pass and traced 66.6 MB; in
    # passes of 32 rows they traced 2.15 MB
    body = _awkward(1000 * 1000, 36).reshape(1000, 1000)
    tracemalloc.start()
    try:
        grid.write_csv(str(tmp_path / "got.csv"), "wide", body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.savetxt(tmp_path / "ref.csv", body, delimiter=",", header="wide",
               comments="", fmt="%.17g")
    assert (tmp_path / "got.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()
    assert peak < 4e6


# each writer fails after its first chunks: "%d" of nan and "%.17g" of None
# raise, and so does encoding a lone surrogate
_NAN_LAST = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, np.nan]])
_NONE_LAST = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, None]], dtype=object)


@pytest.mark.parametrize("write", [
    lambda path: grid.write_csv(path, "a,b", _NAN_LAST, "%d"),
    lambda path: grid.write_grid(path, [np.arange(3.0)], [0.0, 1.0],
                                 _NONE_LAST),
    lambda path: grid.write_text(path, ["ok\n", "\ud800"]),
], ids=["write_csv", "write_grid", "write_text"])
def test_a_failed_write_leaves_the_old_file_and_no_temporary(
        write, tmp_path, monkeypatch):
    monkeypatch.setattr(grid, "_CHUNK_ROWS", 2)
    path = tmp_path / "out.csv"
    path.write_bytes(b"old bytes\n")
    with pytest.raises((TypeError, ValueError)):
        write(str(path))
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
