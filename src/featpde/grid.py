"""Tensor-grid rows, and the writers every table and checkpoint goes through.

Grid tables and grid evaluations list the nodes of a tensor grid in
lexicographic order, first axis slowest, repeated once per time,
time-major.  ``GridRows`` forms any of those node rows from its flat
index, for a grid too large to hold whole.  ``write_csv`` and
``write_grid`` write byte for byte what
``np.savetxt(path, body, fmt, delimiter=",", header=header, comments="")``
writes, formatting at most ``_CHUNK_ROWS`` rows per ``%`` pass, and
``write_csv`` at most ``4 * _CHUNK_ROWS`` cells, so the text of a long or
wide table is never held in memory at once.  ``write_csv`` holds one
chunk's text; ``write_grid`` holds the node text of its table, formatted
once, plus one chunk's text; ``write_text`` writes its chunks as they
come.  Each writer creates the directory of ``path`` if it is missing,
writes ``<path>.tmp<pid>`` and renames it onto ``path``, which it returns;
a failed write removes that file and leaves ``path`` as it was.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np

__all__ = ["nodes", "GridRows", "space_time", "write_csv", "write_grid",
           "write_text"]

# rows formatted by one % pass: under 1 MB of text at four columns;
# ``write_csv`` gives a wider body fewer, 4 * _CHUNK_ROWS cells at most
_CHUNK_ROWS = 8192


def nodes(axes) -> np.ndarray:
    """(prod of len(axis), len(axes)) rows of the tensor grid of ``axes``,
    in lexicographic order, first axis slowest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


class GridRows:
    """The rows of ``nodes(axes)``, formed on request: ``rows[i]`` for a
    flat index or an integer array of them (negative ones count from the
    end) holds the bytes of ``nodes(axes)[i]``, without the whole grid
    being built; ``np.asarray(rows)`` builds it."""

    def __init__(self, axes):
        self.axes = [np.asarray(a, dtype=np.float64) for a in axes]
        self._sizes = tuple(len(a) for a in self.axes)
        self.shape = (math.prod(self._sizes), len(self.axes))

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, index):
        flat = np.asarray(index)
        n = len(self)
        if flat.dtype.kind not in "iu":
            raise IndexError("grid rows take integer flat indices")
        if np.any((flat < -n) | (flat >= n)):
            raise IndexError(f"flat index out of range for {n} grid rows")
        multi = np.unravel_index(np.where(flat < 0, flat + n, flat),
                                 self._sizes)
        return np.stack([a[i] for a, i in zip(self.axes, multi)], axis=-1)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("grid rows cannot be viewed without a copy")
        rows = nodes(self.axes)
        return rows if dtype is None else rows.astype(dtype, copy=False)


def space_time(axes, times):
    """``(points, times)`` rows of every node at every time, time-major,
    the times in the given order."""
    pts = nodes(axes)
    times = np.asarray(times, dtype=np.float64)
    return np.tile(pts, (times.size, 1)), np.repeat(times, pts.shape[0])


@contextmanager
def _replacing(path: str):
    """A text file that replaces ``path`` if the block ends without error,
    in the directory of ``path``, which it creates if it is missing."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_text(path: str, chunks) -> str:
    """The strings of the iterable ``chunks``, in order, as one file."""
    with _replacing(path) as fh:
        fh.writelines(chunks)
    return path


def write_csv(path: str, header: str, body, fmt="%.17g") -> str:
    """``header`` and then one line per row of the 2-D ``body``; ``fmt`` is
    one ``%`` format for every column or a sequence of one per column."""
    with _replacing(path) as fh:
        fh.write(header + "\n")
        _write_rows(fh, np.asarray(body), fmt)
    return path


def write_grid(path: str, axes, times, values) -> str:
    """The ``xi1,...,xik,t,value`` table of ``values`` shaped
    (len(times), *grid).  Each node's ``xi1,...,xik,`` text is formatted
    once, into one ``%`` template per chunk of nodes; each time fills its
    ``t`` text into the templates, and only the values are formatted per
    row."""
    pts = nodes(axes)
    k = pts.shape[1]
    row = "%.17g," * k + "{t},%%.17g\n"
    templates = [row * len(c) % tuple(c.ravel().tolist())
                 for c in _chunks(pts)]
    with _replacing(path) as fh:
        fh.write(",".join(f"xi{i + 1}" for i in range(k)) + ",t,value\n")
        for t, v in zip(times, values):
            t_text = "%.17g" % t
            for template, chunk in zip(templates, _chunks(np.ravel(v))):
                fh.write(template.replace("{t}", t_text)
                         % tuple(chunk.tolist()))
    return path


def _chunks(body, rows=None):
    """``body`` in runs of ``rows`` rows, ``_CHUNK_ROWS`` by default."""
    rows = rows or _CHUNK_ROWS
    return (body[i:i + rows] for i in range(0, len(body), rows))


def _write_rows(fh, body, fmt):
    fmts = [fmt] * body.shape[1] if isinstance(fmt, str) else list(fmt)
    line = ",".join(fmts) + "\n"
    rows = max(1, _CHUNK_ROWS * 4 // max(4, body.shape[1]))
    for chunk in _chunks(body, rows):
        fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
