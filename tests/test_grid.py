"""Tensor-grid row order and the CSV writer."""

import numpy as np
import pytest

from featpde import grid


def test_nodes_are_lexicographic_first_axis_slowest():
    pts = grid.nodes([[0.0, 1.0], [5.0, 6.0, 7.0]])
    assert pts.tolist() == [[0, 5], [0, 6], [0, 7], [1, 5], [1, 6], [1, 7]]


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
    grid.write_csv(str(tmp_path / "got.csv"), header, body, fmt)
    assert (tmp_path / "got.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()


def test_write_grid_rows_match_the_space_time_table(tmp_path, monkeypatch):
    monkeypatch.setattr(grid, "_CHUNK_ROWS", 4)
    axes = [np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 5)]
    times = np.array([0.0, 0.25])
    values = np.random.default_rng(1).standard_normal((2, 3, 5))
    grid.write_grid(str(tmp_path / "g.csv"), axes, times, values)
    xi, t = grid.space_time(axes, times)
    np.savetxt(tmp_path / "ref.csv", np.column_stack([xi, t, values.ravel()]),
               delimiter=",", header="xi1,xi2,t,value", comments="",
               fmt="%.17g")
    assert (tmp_path / "g.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()
