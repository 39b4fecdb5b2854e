"""Reduced value/safety PDEs, the finite-difference reference solver and
the Riccati oracle for linear-quadratic presets.

Both PDE kinds march the same parabolic form forward in an internal time s:

    value   (s = T - t):  u_s = drift . grad u + 1/2 diag . hess u - r u
    safety  (s = t):      u_s = drift . grad u + 1/2 diag . hess u

with data at s = 0 (terminal data for value problems, the safe-set indicator
for safety problems).  The solver is Crank-Nicolson (Peaceman-Rachford ADI
for k = 2) with the reaction term handled by symmetric Strang factors
exp(-r dt / 2), per-node first-order upwinding of the drift wherever the
cell Peclet number exceeds 2, and two implicit startup steps (Rannacher
smoothing) for the discontinuous safety initial data.

Each axis solve is a tridiagonal solve over the whole grid, flattened so
that the grid lines along that axis are consecutive runs, with the constant
matrix factored once per axis (LAPACK gttrf) and only back-substituted
(gttrs) at each half-step.  This is exact because the stencil weight ``lo``
is zero at the first node of every line and ``up`` at the last, for
reflecting and Dirichlet faces alike, so the flattened matrix has no entry
coupling one line to the next.

gttrf and gttrs are scipy's own LAPACK wrappers, taken from its compiled
``scipy.linalg._flapack`` module, which ``pde`` loads from its file with
``_scipy_extension``, the one loader of scipy's compiled modules (the
1000-d presets load their sparse kernel with it too).  The scipy.linalg
package, whose import would take most of a command's start-up, is never
imported; a process that imports it too gets the same objects.

Each Peaceman-Rachford half-step first moves the state into the line order
of the axis it solves, with one strided copy.  There the explicit product
of the previous axis reads neighbours one line apart, and any line-aligned
half of the right-hand side can be formed on its own, with the arithmetic
of the product formed in the previous axis's own order, term for term.

On grids of at least ``_SPLIT_NODES`` nodes with more than one line, each
axis solve runs as two line-aligned halves at once.  The calling thread
forms the right-hand side of the helper's half first and hands its gttrs to
the march's one helper thread (``handoff.run_pair``; gttrs releases the
GIL); it then forms and solves its own half, which holds the smaller share
of the lines (``_CALLER_SHARE``), while the helper solves, and solves a
half the helper has not begun itself, so a late helper does not stall the
march.  Both halves use views of the one factorization, so nothing is
factored twice.  The halves do the same arithmetic as the whole solve:
where the whole solve crosses the split, it subtracts a zero coupling
term, ``b - (-0.0) * b_prev`` going forward and ``(b - (-0.0) * x_next) /
d`` going back, which for finite values equals the fresh start and end of
a half solve; only the sign of a zero at the split could differ.  The
pinned outputs are the same bytes split or whole, with the helper or
without it.  An axis whose pivoting crosses the split is kept whole.

Every product and solve is written in place into buffers the engine
allocates once, so a step allocates only the array it returns.
``solve_fd`` allocates its (slices, *grid) result once and copies each
slice it keeps into its row, so no slice is held twice.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import handoff
from .errors import (
    DomainError,
    NumericalError,
    RiccatiBlowupError,
    UsageError,
)
from .grid import nodes, write_grid

__all__ = [
    "PdeProblem",
    "FdSolution",
    "LqSpec",
    "assemble_value_pde",
    "assemble_safety_pde",
    "solve_fd",
    "riccati_solution",
    "riccati_value",
]


def _scipy_extension(package: str, module: str, what: str):
    """scipy's compiled extension module ``scipy.<package>.<module>``,
    loaded from its file without importing the scipy package around it,
    whose import costs more than the rest of featpde's.  One already in
    ``sys.modules`` is reused, and one loaded here is registered there,
    so a later import of that scipy package finds the same module and its
    functions are the objects scipy exports.  ``what`` names the module
    in the ImportError raised when scipy has no such file."""
    name = f"scipy.{package}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("featpde needs scipy, which is not installed",
                          name="scipy")
    base = os.path.join(scipy.submodule_search_locations[0], package, module)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            loader = importlib.machinery.ExtensionFileLoader(
                name, base + suffix)
            loaded = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(name, loader))
            loader.exec_module(loaded)
            sys.modules[name] = loaded
            return loaded
    raise ImportError(f"no {what} extension module {base} with any of the "
                      f"suffixes {importlib.machinery.EXTENSION_SUFFIXES}",
                      name=name, path=base)


_LAPACK = _scipy_extension("linalg", "_flapack", "LAPACK")
dgttrf, dgttrs = _LAPACK.dgttrf, _LAPACK.dgttrs


@dataclass
class PdeProblem:
    """Parabolic problem on a hyper-rectangle.

    ``drift``, ``diffusion_diag``: (N, k) -> (N, k); ``reaction``, ``data``:
    (N, k) -> (N,).  ``data`` is terminal data for kind="value" (backward
    problem) and initial data for kind="safety" (forward problem).
    ``boundary`` is "dirichlet-data" (far field pinned to the data function)
    or "reflect" (mirror/Neumann faces).  ``barrier`` defines the safe set
    {barrier >= 0} for safety problems; nodes outside are pinned to zero.
    """

    kind: str
    k: int
    drift: Callable
    diffusion_diag: Callable
    reaction: Callable
    data: Callable
    domain: Sequence[tuple]
    horizon: float
    boundary: str = "dirichlet-data"
    barrier: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("value", "safety"):
            raise UsageError(f"unknown problem kind {self.kind!r}")
        if self.boundary not in ("dirichlet-data", "reflect"):
            raise UsageError(f"unknown boundary treatment {self.boundary!r}")
        self.domain = [tuple(map(float, ab)) for ab in self.domain]
        if len(self.domain) != self.k:
            raise UsageError("domain must list one interval per coordinate")
        for lo, hi in self.domain:
            if not lo < hi:
                raise UsageError(f"empty domain interval ({lo}, {hi})")
        if self.horizon <= 0:
            raise UsageError("horizon must be positive")
        if self.kind == "safety" and self.barrier is None:
            raise UsageError("safety problems need a barrier function")

    @property
    def time_direction(self) -> str:
        return "backward" if self.kind == "value" else "forward"


def _reduced_coefficients(reduced):
    """PDE coefficients of a reduced SDE, each (N, k) -> (N, k): the drift
    alpha_i * beta_i and the diffusion diagonal alpha_i."""
    k = reduced.k
    alpha = list(reduced.alpha)
    beta = list(reduced.beta)

    def drift(xi):
        xi = np.atleast_2d(xi)
        return np.column_stack(
            [np.asarray(alpha[i](xi[:, i])) * np.asarray(beta[i](xi[:, i]))
             for i in range(k)]
        )

    def diffusion_diag(xi):
        xi = np.atleast_2d(xi)
        return np.column_stack(
            [np.broadcast_to(np.asarray(alpha[i](xi[:, i]), dtype=np.float64),
                             (xi.shape[0],))
             for i in range(k)]
        )

    return drift, diffusion_diag


def assemble_value_pde(reduced, r, terminal_weight, domain, horizon) -> PdeProblem:
    """Backward problem r*u - u_t - drift.grad u - 1/2 diag.hess u = 0 with
    terminal data exp(-terminal_weight * r(xi))."""
    drift, diffusion_diag = _reduced_coefficients(reduced)
    w = float(terminal_weight)

    def data(xi):
        return np.exp(-w * np.asarray(r(np.atleast_2d(xi)), dtype=np.float64))

    problem = PdeProblem(
        kind="value",
        k=reduced.k,
        drift=drift,
        diffusion_diag=diffusion_diag,
        reaction=lambda xi: np.asarray(r(np.atleast_2d(xi)), dtype=np.float64),
        data=data,
        domain=list(domain),
        horizon=float(horizon),
        boundary="dirichlet-data",
    )
    _validate_diffusion_positive(problem)
    return problem


def assemble_safety_pde(reduced, r, domain, horizon) -> PdeProblem:
    """Forward exit problem: F = 1 on the safe set {r >= 0} initially, F
    pinned to 0 outside it, reflecting far-field faces."""
    drift, diffusion_diag = _reduced_coefficients(reduced)

    def barrier(xi):
        return np.asarray(r(np.atleast_2d(xi)), dtype=np.float64)

    problem = PdeProblem(
        kind="safety",
        k=reduced.k,
        drift=drift,
        diffusion_diag=diffusion_diag,
        reaction=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        data=lambda xi: (barrier(xi) > 0).astype(np.float64),
        domain=list(domain),
        horizon=float(horizon),
        boundary="reflect",
        barrier=barrier,
    )
    _validate_diffusion_positive(problem)
    probe = nodes([np.linspace(lo, hi, 21) for lo, hi in problem.domain])
    if not (barrier(probe) > 0).any():
        raise DomainError("safe set {r >= 0} has empty interior on the domain")
    return problem


def _validate_diffusion_positive(problem: PdeProblem):
    probe = nodes([np.linspace(lo, hi, 21) for lo, hi in problem.domain])
    diag = np.asarray(problem.diffusion_diag(probe), dtype=np.float64)
    if not np.all(diag > 0):
        j = int(np.flatnonzero(~(diag > 0).all(axis=1))[0])
        raise DomainError(
            f"diffusion diagonal is not positive at xi = {probe[j]}"
        )


# ---------------------------------------------------------------------------
# finite-difference engine


def _axis_nodes(lo, hi, h):
    n = round((hi - lo) / h)
    if n < 2 or abs(n * h - (hi - lo)) > 1e-9 * (hi - lo):
        raise UsageError(
            f"spacing {h} does not resolve [{lo}, {hi}] into whole cells"
        )
    return lo + h * np.arange(n + 1)


# Grids of at least this many nodes solve each axis as two halves at once;
# below it the handoff to the helper costs more than the second thread saves
# (us per step, whole -> split, one BLAS thread on 2 vCPUs: 61^2 125 -> 134,
# 71^2 153 -> 149, 81^2 195 -> 186, 101^2 288 -> 223, 121^2 412 -> 298,
# 201^2 1105 -> 701).
_SPLIT_NODES = 5_000

# The calling thread's share of a split axis's lines.  It forms the helper's
# half of the right-hand side before its own, so it takes the smaller share
# (s per oracle march, one BLAS thread on 2 vCPUs, at shares 0.50, 0.47,
# 0.46, 0.45, 0.44, 0.42, 0.38: sys3d-safety 1.45, 1.39, 1.39, 1.35, 1.43,
# 1.47, 1.55; sys3d-value 0.402, 0.385, 0.386, 0.379, 0.392, 0.405).
_CALLER_SHARE = 0.45


def _line_order(a, ax):
    """Grid array ``a`` flattened with axis ``ax`` last: its lines along
    ``ax`` are contiguous runs of the result."""
    return np.moveaxis(a, ax, -1).ravel()


def _axis_stencil(v, dd, h):
    """The weights (lo, di, up) of the generator v d/dx + dd d^2/dx^2 along
    one axis of spacing ``h``, central except where the cell Peclet number
    exceeds 2, and the share of nodes where it does."""
    upw = np.abs(v) * h / dd > 2.0
    lo_c = dd / h**2 - v / (2 * h)
    up_c = dd / h**2 + v / (2 * h)
    di_c = -2 * dd / h**2
    # first-order upwinding where central weights lose positivity
    vp = np.maximum(v, 0.0)
    vm = np.minimum(v, 0.0)
    lo_u = dd / h**2 - vm / h
    up_u = dd / h**2 + vp / h
    di_u = -2 * dd / h**2 - (vp - vm) / h
    return (np.where(upw, lo_u, lo_c), np.where(upw, di_u, di_c),
            np.where(upw, up_u, up_c), float(upw.mean()))


def _halves(factors, line):
    """The gttrf ``factors`` of an axis with lines of ``line`` nodes as
    [(rows, factors)]: the calling thread's and the helper's line-aligned
    halves, views of the factors, whose second half's pivot indices it
    shifts in place, or the whole axis when the grid is small, the calling
    thread's share rounds to no line, or a row interchange crosses the
    split."""
    dl, d, du, du2, ipiv = factors
    n = d.size
    o = line * int(n // line * _CALLER_SHARE)  # the calling thread's lines
    if n < _SPLIT_NODES or o == 0 or ipiv[o - 1] != o:
        return [(slice(0, n), factors)]
    ipiv[o:] -= o
    return [(slice(0, o), (dl[:o - 1], d[:o], du[:o - 1], du2[:o - 2],
                           ipiv[:o])),
            (slice(o, n), (dl[o:], d[o:], du[o:], du2[o:], ipiv[o:]))]


def _gttrs(rhs, rows, factors):
    """Back-substitute ``rhs[rows]`` in place; the gttrs info."""
    return dgttrs(*factors, rhs[rows], overwrite_b=1)[1]


class _Helper(handoff._Helper):
    """The march's helper thread, named ``featpde-fd``."""

    def __init__(self):
        super().__init__("featpde-fd")


class _FdEngine:
    """Precomputed stencils + step routine for one problem/grid pair.

    Per axis it keeps the LU factors (LAPACK ``gttrf``) of the constant ADI
    matrix (I - dt/2 A_ax) in the axis's line order, the grid flattened with
    that axis last, and the stencil (lo, di, up) of A_ax in the line order
    of the next axis, whose half-step reads it.  ``lo`` is zero at the first
    node of each line and ``up`` at the last, so the lines decouple.  The
    factors are kept as one or two halves (``_halves``); a split axis
    back-substitutes its two line-aligned halves, views of the one
    factorization, on the calling thread and on the helper that ``step`` is
    given, at the same time (``_solve``).

    A Peaceman-Rachford half-step first moves the state into the line order
    of the axis it solves.  There a node's neighbours along the previous
    axis lie one line apart, and each line half of the right-hand side can
    be formed on its own (``_explicit``), so the calling thread forms the
    helper's half, hands its solve over, and forms and solves its own half
    while the helper solves.

    The nodes ``_clamp`` pins (data edges, nodes outside the safe set) are
    kept per axis in line order too, and the reaction factors in the last
    axis's, which is the grid's own.  ``step`` works in buffers allocated
    here; ``gttrs`` overwrites each right-hand side, and the last axis's is
    the one new array a step makes and returns.
    """

    def __init__(self, problem: PdeProblem, d_xi, dt):
        self.problem = problem
        k = problem.k
        if k not in (1, 2):
            raise UsageError("the finite-difference oracle supports k <= 2")
        d_xi = [float(h) for h in np.atleast_1d(d_xi)]
        if len(d_xi) == 1 and k > 1:
            d_xi = d_xi * k
        if len(d_xi) != k:
            raise UsageError("d_xi must supply one spacing per coordinate")
        self.d_xi = d_xi
        self.dt = float(dt)
        if self.dt <= 0:
            raise UsageError("dt must be positive")
        self.n_steps = round(problem.horizon / self.dt)
        if (
            self.n_steps < 1
            or abs(self.n_steps * self.dt - problem.horizon)
            > 1e-9 * problem.horizon
        ):
            raise UsageError("dt does not resolve the horizon into whole steps")

        self.axes = [
            _axis_nodes(lo, hi, h) for (lo, hi), h in zip(problem.domain, d_xi)
        ]
        self.shape = tuple(len(ax) for ax in self.axes)
        size = int(np.prod(self.shape))
        mesh = nodes(self.axes)

        drift = np.asarray(problem.drift(mesh), dtype=np.float64)
        diag = np.asarray(problem.diffusion_diag(mesh), dtype=np.float64)
        react = np.asarray(problem.reaction(mesh), dtype=np.float64)
        self.g_mesh = np.asarray(problem.data(mesh), dtype=np.float64).reshape(
            self.shape
        )
        self.react_half = np.exp(-0.5 * self.dt * react)
        self.has_reaction = bool(np.any(react != 0.0))

        if problem.kind == "safety":
            # strict interior: the barrier zero level set is Dirichlet 0
            inside = (
                np.asarray(problem.barrier(mesh), dtype=np.float64) > 0
            ).reshape(self.shape)
            self.rannacher_steps = 2
            self.max_clip = 0.0  # largest probability-range trim applied
        else:
            inside = None
            self.rannacher_steps = 0

        half = 0.5 * self.dt
        pinned = np.zeros(self.shape, dtype=bool)  # nodes _clamp pins
        self.upwind_fraction = []
        # per axis: the previous axis's stencil in this axis's line order, and
        # the distance between neighbours along the previous axis there
        self.stencils = [None] * k
        self.halves = []  # per axis: _halves of gttrf(I - dt/2 A_ax)
        for ax in range(k):
            v = drift[:, ax].reshape(self.shape)
            dd = 0.5 * diag[:, ax].reshape(self.shape)
            h = d_xi[ax]
            lo, di, up, upwinded = _axis_stencil(v, dd, h)
            self.upwind_fraction.append(upwinded)

            first = [slice(None)] * k
            last = [slice(None)] * k
            first[ax] = 0
            last[ax] = -1
            first, last = tuple(first), tuple(last)
            if problem.boundary == "reflect":
                # mirror ghost: u'' -> 2(u_in - u_edge)/h^2, drift one-sided
                absv = np.abs(v)
                up[first] = 2 * dd[first] / h**2 + absv[first] / h
                di[first] = -2 * dd[first] / h**2 - absv[first] / h
                lo[last] = 2 * dd[last] / h**2 + absv[last] / h
                di[last] = -2 * dd[last] / h**2 - absv[last] / h
                lo[first] = 0.0
                up[last] = 0.0
            else:
                # Dirichlet rows act as identity; values clamped to data
                for edge in (first, last):
                    pinned[edge] = True
                    lo[edge] = 0.0
                    di[edge] = 0.0
                    up[edge] = 0.0
            if inside is not None:
                lo[~inside] = 0.0
                di[~inside] = 0.0
                up[~inside] = 0.0
            lo_ax, di_ax, up_ax = (_line_order(c, ax) for c in (lo, di, up))
            *factors, info = dgttrf(-half * lo_ax[1:], 1.0 - half * di_ax,
                                    -half * up_ax[:-1])
            if info != 0:
                raise NumericalError(
                    f"ADI matrix of axis {ax + 1} is singular (gttrf info "
                    f"{info})"
                )
            self.halves.append(_halves(factors, self.shape[ax]))
            nxt = (ax + 1) % k
            self.stencils[nxt] = (*(_line_order(c, nxt) for c in (lo, di, up)),
                                  size // self.shape[ax])

        if any(f > 0 for f in self.upwind_fraction):
            pct = ", ".join(
                f"axis {i + 1}: {100 * f:.1f}%"
                for i, f in enumerate(self.upwind_fraction)
                if f > 0
            )
            warnings.warn(
                f"cell Peclet number exceeds 2 ({pct}); "
                "first-order upwinding engaged at those nodes"
            )

        # pinned values: the data on dirichlet-data edges, 0 outside the
        # safe set
        pins = np.where(pinned, self.g_mesh, 0.0)
        if inside is not None:
            pinned |= ~inside
            pins[~inside] = 0.0
        self._pins = []  # per axis: (line-order indices, values)
        for ax in range(k):
            idx = np.flatnonzero(_line_order(pinned, ax))
            self._pins.append((idx, _line_order(pins, ax)[idx]))

        # per axis: the grid's shape with that axis last, and the buffer its
        # solves overwrite (the last axis solves into the array step returns)
        self._line_shapes = [self.shape[:ax] + self.shape[ax + 1:]
                             + self.shape[ax:ax + 1] for ax in range(k)]
        self._rhs = [np.empty(size) for _ in range(k - 1)]
        self._state = np.empty(size)  # the state in the solved axis's order
        self._products = np.empty(size)

    # -- line-ordered building blocks ---------------------------------------

    def _explicit(self, ax, x, out, rows):
        """Rows ``rows`` of x + dt/2 A x into ``out``, where ``x`` is the
        state in ax's line order and A the generator along the axis before
        ax.  It does the arithmetic of the product in that axis's own line
        order, ``((di x + lo prev) + up next) dt/2 + x``, term for term:
        the first row's lower neighbours are the last row's, one node back,
        and the last row's upper neighbours the first row's, one node on,
        the zero-weighted couplings between that order's lines."""
        lo, di, up, w = self.stencils[ax]
        prod = self._products
        a, b, n = rows.start, rows.stop, x.size
        np.multiply(di[a:b], x[a:b], out=out[a:b])
        c = max(a, w)
        np.multiply(lo[c:b], x[c - w:b - w], out=prod[c:b])
        out[c:b] += prod[c:b]
        if a == 0:  # the very first node has no lower neighbour
            np.multiply(lo[1:w], x[n - w:n - 1], out=prod[1:w])
            out[1:w] += prod[1:w]
        e = min(b, n - w)
        np.multiply(up[a:e], x[a + w:e + w], out=prod[a:e])
        out[a:e] += prod[a:e]
        if b == n:  # the very last node has no upper neighbour
            np.multiply(up[n - w:n - 1], x[1:w], out=prod[n - w:n - 1])
            out[n - w:n - 1] += prod[n - w:n - 1]
        out[a:b] *= 0.5 * self.dt
        out[a:b] += x[a:b]

    def _to_lines(self, ax, x, dst):
        """``x``, in the line order of the axis before ``ax``, copied into
        ``dst`` in the line order of ``ax``."""
        k = self.problem.k
        dst.reshape(self._line_shapes[ax])[...] = x.reshape(
            self._line_shapes[(ax - 1) % k]).T
        return dst

    def _solve(self, ax, rhs, x=None, helper=None):
        """(I - dt/2 A_ax)^{-1} rhs, overwriting the line-ordered ``rhs``.

        Given the state ``x`` in ax's line order, each half's rows of
        ``rhs`` are formed as ``_explicit`` products just before they are
        solved; otherwise ``rhs`` already holds the right-hand side.  A split
        axis with a ``helper`` forms the helper's half first and hands its
        solve over, then forms and solves its own half (``run_pair``)."""
        mine = list(self.halves[ax])
        theirs = mine.pop() if helper is not None and len(mine) > 1 else None

        def solve():
            infos = []
            for rows, factors in mine:
                if x is not None:
                    self._explicit(ax, x, rhs, rows)
                infos.append(_gttrs(rhs, rows, factors))
            return infos

        if theirs is None:
            infos = solve()
        else:
            if x is not None:
                self._explicit(ax, x, rhs, theirs[0])
            infos, info = handoff.run_pair(helper, solve,
                                           lambda: _gttrs(rhs, *theirs))
            infos.append(info)
        for info in infos:
            if info != 0:
                raise NumericalError(
                    f"gttrs failed on axis {ax + 1} (info {info})")
        return rhs

    def _clamp(self, ax, x):
        """Pin ``x``, in ax's line order, in place; trim probabilities."""
        idx, pins = self._pins[ax]
        x[idx] = pins
        if self.problem.kind == "safety":
            # probabilities live in [0,1]; trim roundoff drift and record the
            # largest trim so tests can confirm nothing real was masked; clip
            # keeps -0.0, so it changes nothing when both ends are in range
            low, high = float(x.min()), float(x.max())
            excess = max(-low, high - 1.0, 0.0)
            if excess > self.max_clip:
                self.max_clip = excess
            if not (low >= 0.0 and high <= 1.0):
                np.clip(x, 0.0, 1.0, out=x)
        return x

    def step(self, u, step_index, helper=None):
        """Advance one dt from step_index; pure given (u, step_index).

        ``u`` is only read, and the result is a new array.  ``helper``, a
        march's ``_Helper``, takes half of each split solve; the bytes do not
        depend on it."""
        k = self.problem.k
        rhs = self._rhs + [np.empty(self.g_mesh.size)]
        x = np.ravel(u)  # the last axis's line order
        if self.has_reaction:
            x = np.multiply(x, self.react_half, out=rhs[-1])
        if step_index < self.rannacher_steps:
            # damped startup: each dt is two implicit-Euler half-steps
            for _ in range(2):
                for ax in range(k):
                    x = self._clamp(ax, self._solve(
                        ax, self._to_lines(ax, x, rhs[ax]), helper=helper))
        else:
            # Peaceman-Rachford: explicit in the other axis, implicit in ax
            for ax in range(k):
                if ax:
                    self._clamp(ax - 1, x)
                x = self._solve(ax, rhs[ax],
                                self._to_lines(ax, x, self._state), helper)
        if self.has_reaction:
            x *= self.react_half
        return self._clamp(k - 1, x).reshape(self.shape)

    def initial(self):
        u = self.g_mesh.copy()
        self._clamp(self.problem.k - 1, u.reshape(-1))
        return u


@dataclass
class FdSolution:
    """Saved space-time slices of a finite-difference solve.

    ``times`` ascend in physical time t; ``values`` has shape
    (len(times), *grid).  Slices are saved every ``save_every`` steps (plus
    the final step of the march, which ``solve_fd``'s ``until`` may end
    before the horizon); ``verify`` re-marches between consecutive saved
    slices and confirms the stored values reproduce the scheme exactly.
    """

    problem: PdeProblem
    axes: list
    times: np.ndarray
    values: np.ndarray
    d_xi: list
    dt: float
    metadata: dict
    saved_steps: list
    _engine: _FdEngine = field(repr=False, default=None)

    def interpolate(self, xi, t):
        """Multilinear interpolation in (t, xi): a float for one point
        (k,) and a scalar t, otherwise a (P,) array for points (P, k) at
        one time t or at one time per point."""
        scalar = np.isscalar(t) and np.ndim(xi) <= 1
        xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        if xi.shape[1] != len(self.axes):
            raise UsageError(
                f"points have {xi.shape[1]} coordinates, the solution has "
                f"k = {len(self.axes)}"
            )
        tt = np.asarray(t, dtype=np.float64)
        if tt.ndim > 1 or tt.size not in (1, xi.shape[0]):
            raise UsageError(
                f"t must be one time or one per point: got {tt.size} times "
                f"for {xi.shape[0]} points"
            )
        tt = np.broadcast_to(tt, (xi.shape[0],))
        grids = [self.times] + list(self.axes)
        pts = np.column_stack([tt, xi])
        idx, wts = [], []
        for d, ax in enumerate(grids):
            p = pts[:, d]
            # written so that NaN counts as outside
            outside = ~((p >= ax[0] - 1e-12) & (p <= ax[-1] + 1e-12))
            if outside.any():
                bad = p[outside][0]
                what = "t" if d == 0 else f"xi{d}"
                raise DomainError(
                    f"{what} = {bad:.6g} outside the solved grid "
                    f"[{ax[0]:.6g}, {ax[-1]:.6g}]"
                )
            i = np.clip(np.searchsorted(ax, p, side="right") - 1, 0,
                        len(ax) - 2)
            w = (p - ax[i]) / (ax[i + 1] - ax[i])
            idx.append(i)
            wts.append(np.clip(w, 0.0, 1.0))
        out = np.zeros(xi.shape[0])
        ndim = len(grids)
        for corner in range(2**ndim):
            sel = []
            weight = np.ones(xi.shape[0])
            for d in range(ndim):
                hi = (corner >> d) & 1
                sel.append(idx[d] + hi)
                weight = weight * (wts[d] if hi else 1.0 - wts[d])
            out += weight * self.values[tuple(sel)]
        return float(out[0]) if scalar else out

    def to_csv(self, path) -> str:
        """Rows `xi1,...,xik,t,value`, ascending t then lexicographic nodes."""
        return write_grid(path, self.axes, self.times, self.values)

    def verify(self, n_pairs=None):
        """Re-march between saved slices; True iff stored values reproduce."""
        kind = self.problem.kind
        order = np.arange(len(self.times))
        if kind == "value":  # marching order is descending physical time
            order = order[::-1]
        steps = self.saved_steps  # in marching order, as ``order`` is
        pairs = list(zip(order[:-1], order[1:], steps[:-1], steps[1:]))
        if n_pairs is not None:
            pairs = pairs[: int(n_pairs)]
        for j0, j1, s0, s1 in pairs:
            u = np.empty_like(self.values[j1:j1 + 1])
            _march(self._engine, self.values[j0], s0, s1, s1 - s0, u)
            if not np.array_equal(u[0], self.values[j1]):
                return False
        return True


def _march(engine, u, s0, s1, save_every, rows):
    """March ``u`` from step s0 to s1, copying the slices it keeps, after
    every save_every-th step and the last, into ``rows[0]``, ``rows[1]``,
    ...  One helper thread takes half of each split solve, and it is
    joined before this returns or raises."""
    kept = 0
    with _Helper() as helper:
        for s in range(s0, s1):
            u = engine.step(u, s, helper)
            if (s + 1 - s0) % save_every == 0 or s + 1 == s1:
                rows[kept] = u
                kept += 1


def solve_fd(problem: PdeProblem, d_xi, dt, save_every: int = 1,
             until: Optional[float] = None) -> FdSolution:
    """March the problem over its horizon, saving every save_every-th slice
    and the last.

    With ``until``, a physical time, the march stops at the first saved
    slice after the initial one that reaches it: the first at or before
    ``until`` for a value problem, which marches backward from the
    horizon, and the first at or after it for a safety problem.  The kept
    slices and their times are then the same bytes as the matching slices
    of the whole march, and any point in [until, horizon] (value) or
    [0, until] (safety) interpolates to the same bytes.  An ``until`` that
    no saved slice reaches marches the whole horizon.
    ``metadata["n_steps"]`` is the horizon's step count and
    ``metadata["marched_steps"]`` the steps taken.
    """
    if save_every < 1:
        raise UsageError("save_every must be >= 1")
    engine = _FdEngine(problem, d_xi, dt)
    value = problem.kind == "value"
    # the saved steps of the whole march, and their physical times
    steps = [0, *range(save_every, engine.n_steps, save_every), engine.n_steps]
    s_times = dt * np.asarray(steps, dtype=np.float64)
    times = problem.horizon - s_times if value else s_times
    if until is not None:
        reached = times[1:] <= until if value else times[1:] >= until
        if reached.any():
            keep = 2 + int(np.argmax(reached))
            steps, times = steps[:keep], times[:keep]
    values = np.empty((len(steps), *engine.shape))
    # rows in marching order: a value problem's march fills them from the
    # end, so they ascend in physical time; step never writes its input,
    # so the march starts from the saved first row
    rows = values[::-1] if value else values
    rows[0] = engine.initial()
    _march(engine, rows[0], 0, steps[-1], save_every, rows[1:])
    if value:
        times = times[::-1].copy()
    metadata = {
        "scheme": "crank-nicolson" if problem.k == 1 else
        "crank-nicolson-adi",
        "upwind_fraction": engine.upwind_fraction,
        "rannacher_steps": engine.rannacher_steps,
        "save_every": save_every,
        "n_steps": engine.n_steps,
        "marched_steps": steps[-1],
    }
    if problem.kind == "safety":
        metadata["max_clip_correction"] = engine.max_clip
    return FdSolution(
        problem=problem,
        axes=engine.axes,
        times=times,
        values=values,
        d_xi=engine.d_xi,
        dt=engine.dt,
        metadata=metadata,
        saved_steps=steps,  # kept in marching order for verify()
        _engine=engine,
    )


# ---------------------------------------------------------------------------
# Riccati oracle


@dataclass
class LqSpec:
    """Linear-quadratic reduced preset: d xi = M xi dt + Sigma^{1/2} dB,
    running cost xi^T R xi, terminal data exp(-xi^T R_T xi)."""

    M: np.ndarray
    Sigma: np.ndarray
    R: np.ndarray
    R_T: np.ndarray
    horizon: float

    def __post_init__(self):
        self.M = np.atleast_2d(np.asarray(self.M, dtype=np.float64))
        self.Sigma = np.atleast_2d(np.asarray(self.Sigma, dtype=np.float64))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=np.float64))
        self.R_T = np.atleast_2d(np.asarray(self.R_T, dtype=np.float64))
        k = self.M.shape[0]
        for name, mat in (("M", self.M), ("Sigma", self.Sigma),
                          ("R", self.R), ("R_T", self.R_T)):
            if mat.shape != (k, k):
                raise UsageError(f"{name} must be {k}x{k}")
        if self.horizon <= 0:
            raise UsageError("horizon must be positive")

    @property
    def k(self):
        return self.M.shape[0]


def riccati_solution(lq: LqSpec, t: float, step: float = 1e-4):
    """Integrate P' = M^T P + P M - 2 P Sigma P + R and q' = Tr(Sigma P)
    in time-to-go from (R_T, 0); returns (P(t), q(t)).

    exp(-xi^T P xi - q) then matches the Feynman-Kac expectation; q is the
    log-partition correction from the diffusion acting on the quadratic.
    """
    if not 0.0 <= t <= lq.horizon + 1e-12:
        raise UsageError(f"t = {t} outside [0, {lq.horizon}]")
    tau_end = lq.horizon - t
    M, Sigma, R = lq.M, lq.Sigma, lq.R

    def rhs(P):
        return M.T @ P + P @ M - 2.0 * P @ Sigma @ P + R

    P = lq.R_T.copy()
    q = 0.0
    n_full, rem = divmod(tau_end, step)
    hs = [step] * int(n_full)
    if rem > 1e-14:
        hs.append(rem)
    tau = 0.0
    for h in hs:
        k1 = rhs(P)
        p2 = P + 0.5 * h * k1
        k2 = rhs(p2)
        p3 = P + 0.5 * h * k2
        k3 = rhs(p3)
        p4 = P + h * k3
        k4 = rhs(p4)
        q = q + (h / 6.0) * (
            np.trace(Sigma @ P)
            + 2 * np.trace(Sigma @ p2)
            + 2 * np.trace(Sigma @ p3)
            + np.trace(Sigma @ p4)
        )
        P = P + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += h
        if not np.all(np.isfinite(P)) or np.abs(P).max() > 1e8:
            raise RiccatiBlowupError(
                f"Riccati solution blew up at time-to-go {tau:.6g} "
                f"(horizon too long for this preset)"
            )
    return P, q


def riccati_value(lq: LqSpec, xi, t: float, step: float = 1e-4):
    """exp(-V(xi, t)) with V = xi^T P(t) xi + q(t) from the Riccati system."""
    P, q = riccati_solution(lq, t, step)
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    if xi.shape[1] != lq.k:
        raise UsageError(f"xi must have {lq.k} coordinates")
    V = np.einsum("ni,ij,nj->n", xi, P, xi) + q
    out = np.exp(-V)
    return float(out[0]) if out.shape[0] == 1 and np.ndim(t) == 0 else out
