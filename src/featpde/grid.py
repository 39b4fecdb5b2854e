"""Tensor-grid rows and the CSV writer every table goes through.

Grid tables and grid evaluations list the nodes of a tensor grid in
lexicographic order, first axis slowest, repeated once per time,
time-major.  ``write_csv`` writes byte for byte what ``np.savetxt(path,
body, fmt, delimiter=",", header=header, comments="")`` writes, formatting
``_CHUNK_ROWS`` rows per ``%`` pass, so the text of a large table is never
held in memory at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["nodes", "space_time", "write_csv", "write_grid"]

# rows formatted by one % pass: under 1 MB of text at four columns
_CHUNK_ROWS = 8192


def nodes(axes) -> np.ndarray:
    """(prod of len(axis), len(axes)) rows of the tensor grid of ``axes``,
    in lexicographic order, first axis slowest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def space_time(axes, times):
    """``(points, times)`` rows of every node at every time, time-major,
    the times in the given order."""
    pts = nodes(axes)
    times = np.asarray(times, dtype=np.float64)
    return np.tile(pts, (times.size, 1)), np.repeat(times, pts.shape[0])


def write_csv(path: str, header: str, body, fmt="%.17g"):
    """``header`` and then one line per row of the 2-D ``body``; ``fmt`` is
    one ``%`` format for every column or a sequence of one per column."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        _write_rows(fh, np.asarray(body), fmt)


def write_grid(path: str, axes, times, values):
    """The ``xi1,...,xik,t,value`` table of ``values`` shaped
    (len(times), *grid), built and written one time at a time."""
    pts = nodes(axes)
    with open(path, "w") as fh:
        fh.write(",".join(f"xi{i + 1}" for i in range(len(axes)))
                 + ",t,value\n")
        for t, v in zip(times, values):
            _write_rows(fh, np.column_stack(
                [pts, np.full(pts.shape[0], t), np.ravel(v)]), "%.17g")


def _write_rows(fh, body, fmt):
    fmts = [fmt] * body.shape[1] if isinstance(fmt, str) else list(fmt)
    line = ",".join(fmts) + "\n"
    for start in range(0, body.shape[0], _CHUNK_ROWS):
        chunk = body[start:start + _CHUNK_ROWS]
        fh.write(line * chunk.shape[0] % tuple(chunk.ravel().tolist()))
