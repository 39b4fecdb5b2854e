"""Path-integral value estimation, safety-probability estimation, and
importance-sampling control refinement on full and reduced systems.

Value estimates average exp(-S) over uncontrolled rollouts where S is the
left-endpoint Riemann sum of the running cost plus the weighted terminal
cost; all exponential averages run through log-sum-exp, and the reported
standard error comes from the delta method on the log of the sample mean:

    se(V) = sqrt((exp(lse(-2S) - 2 lse(-S) + log N) - 1) / N).

The log-sum-exp, ``_row_logsumexp``, is written in numpy with the
operations of ``scipy.special.logsumexp``, so scipy.special is never
loaded and the estimates do not depend on the installed scipy.

Full and reduced marches share one value scorer, ``_value_scores``, and one
safety scorer, ``_safe_paths``: every estimator, one-point or grid, passes
its march (``sde._run_full`` or ``sde._run_reduced`` bound up to the
observer) to one of them and reads back a (rows, N) block.

The reduced grid estimators march all rows that share a time as blocks of
start points (at most ``_BLOCK_ROWS`` path rows each) that draw each step's
noise once for the whole block.  The cost or barrier r must act row by row,
as alpha and beta already do, and each point's log-sum-exp, mean and
standard error come from its own N paths, so a grid row equals the
one-point estimate bit for bit.  Each time's rows are split into at least
two blocks, which ``sde._march_rounds`` marches two at a time, one on a
helper thread.  So alpha, beta and r must be safe to call from two threads
at once, i.e. pure functions of their input, as every preset's are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateEstimateError, UsageError
from .grid import write_csv
from .handoff import _Helper
from .sde import (BOOTSTRAP_TAG, ControlPolicy, SimConfig, StochasticSystem,
                  ZeroPolicy, _march_rounds, _run_full, _run_reduced, stream)

__all__ = [
    "McEstimate",
    "McGrid",
    "RefinementDiagnostics",
    "value_pathintegral",
    "value_pathintegral_reduced",
    "safety_mc",
    "safety_mc_reduced",
    "optimal_control_from_value",
    "refine_control_importance_sampling",
    "value_grid_reduced",
    "safety_grid_reduced",
]

# Path rows (start points x paths) marched as one block by the grid
# estimators: one state array stays at 1 MB per feature coordinate.
_BLOCK_ROWS = 2**17


@dataclass
class McEstimate:
    value: float
    std_error: float
    n_samples: int


@dataclass
class RefinementDiagnostics:
    correction: np.ndarray
    bootstrap_se: np.ndarray
    effective_sample_size: float


def _span_config(cfg: SimConfig, t: float, T: float) -> None:
    span = T - t
    if span <= 0:
        raise UsageError(f"need t < T, got t={t}, T={T}")
    if abs(cfg.horizon - span) > 1e-9 * max(1.0, span):
        raise UsageError(
            f"cfg.horizon = {cfg.horizon} must equal T - t = {span}"
        )


def _check_safe_starts(r, starts):
    r0 = np.asarray(r(starts), dtype=np.float64)
    if (r0 < 0).any():
        j = int(np.flatnonzero(r0 < 0)[0])
        raise UsageError(
            f"start point {starts[j]} is already unsafe (r = {r0[j]:.6g} < 0)"
        )


def _value_scores(march, rows, r, cfg, terminal_weight):
    """(rows, N) path-integral scores: the left-endpoint Riemann sum of r
    plus ``terminal_weight`` times r at the end, on the N = cfg.n_paths
    paths of each of the ``rows`` start points that ``march`` runs.
    ``march`` is a ``partial`` of ``sde._run_full`` or ``sde._run_reduced``
    that takes the observer."""
    w = float(terminal_weight)
    dt = cfg.dt
    steps = cfg.steps
    scores = np.zeros(rows * cfg.n_paths)

    def observer(s, tau, xs, z):
        if s < steps:
            scores[:] += np.asarray(r(xs), dtype=np.float64) * dt
        else:
            scores[:] += w * np.asarray(r(xs), dtype=np.float64)

    march(observer)
    return scores.reshape(rows, cfg.n_paths)


def _safe_paths(march, rows, r, cfg):
    """(rows, N) masks of the paths that keep r >= 0 at every monitored
    step; ``march`` as in ``_value_scores``."""
    safe = np.ones(rows * cfg.n_paths, dtype=bool)

    def observer(s, tau, xs, z):
        safe[:] &= np.asarray(r(xs), dtype=np.float64) >= 0

    march(observer)
    return safe.reshape(rows, cfg.n_paths)


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a float64 (P, N) block, with the
    real-valued operations of ``scipy.special.logsumexp(a, axis=1)``
    (scipy 1.17) in its order, so the result has its bytes: each row's
    maxima are counted and left out of the shifted sum, and where that
    result is not finite (an infinite or NaN maximum) the direct
    log(sum(exp(a))) is kept.  With no weights, scipy's sign checks never
    fire, so they are left out."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=1))
        a_max = np.max(a, axis=1, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=1, dtype=np.float64)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=1)
        out = np.log1p(s / m) + np.log(m) + a_max[:, 0]
    return np.where(np.isfinite(out), out, direct)


def _estimates_from_scores(scores: np.ndarray):
    """V = -log mean(exp(-S)) and its delta-method standard error for each
    row of a (P, N) score block, each from that row's own N paths."""
    n = scores.shape[1]
    smin = scores.min(axis=1)
    if (smin > 745.0).any():
        raise DegenerateEstimateError(
            "every path weight exp(-S) underflows; the state/horizon is too "
            f"deep in the tails (min S = {smin[smin > 745.0][0]:.3g})"
        )
    log_n = np.log(n)
    l1 = _row_logsumexp(-scores)
    l2 = _row_logsumexp(-2.0 * scores)
    value = -(l1 - log_n)
    if not np.isfinite(value).all():
        raise DegenerateEstimateError("path-integral average is non-finite")
    var_rel = np.exp(l2 - 2.0 * l1 + log_n) - 1.0
    return value, np.sqrt(np.maximum(var_rel, 0.0) / n)


def _safety_estimates(safe: np.ndarray):
    """Survival fraction and its binomial standard error for each row of a
    (P, N) block of safe-path masks."""
    fbar = safe.mean(axis=1)
    return fbar, np.sqrt(fbar * (1.0 - fbar) / safe.shape[1])


def _as_mc_estimate(estimates, n: int) -> McEstimate:
    """The McEstimate of a one-point block's (values, std_errors)."""
    value, se = estimates
    return McEstimate(value=float(value[0]), std_error=float(se[0]),
                      n_samples=n)


def value_pathintegral(system: StochasticSystem, x, t: float, T: float,
                       r: Callable, cfg: SimConfig,
                       terminal_weight: float = 1.0) -> McEstimate:
    """Uncontrolled (measure-Q) path-integral estimate of V(x, t); r is the
    running cost, batched (N, d) -> (N,)."""
    _span_config(cfg, t, T)
    march = partial(_run_full, system, ZeroPolicy(system.control_dim), x,
                    cfg, t)
    scores = _value_scores(march, 1, r, cfg, terminal_weight)
    return _as_mc_estimate(_estimates_from_scores(scores), cfg.n_paths)


def value_pathintegral_reduced(reduced, xi, t: float, T: float, r: Callable,
                               cfg: SimConfig,
                               terminal_weight: float = 1.0) -> McEstimate:
    """Same estimator driven by the reduced feature SDE (r acts on xi)."""
    _span_config(cfg, t, T)
    starts = np.asarray(xi, dtype=np.float64)[None]
    march = partial(_run_reduced, reduced, starts, cfg, t)
    scores = _value_scores(march, 1, r, cfg, terminal_weight)
    return _as_mc_estimate(_estimates_from_scores(scores), cfg.n_paths)


def safety_mc(system: StochasticSystem, policy: ControlPolicy, x0,
              phi: Callable, T: float, cfg: SimConfig) -> McEstimate:
    """Empirical fraction of paths with phi(x_tau) >= 0 at every step."""
    _span_config(cfg, 0.0, T)
    x0 = np.asarray(x0, dtype=np.float64)
    _check_safe_starts(phi, x0[None])
    march = partial(_run_full, system, policy, x0, cfg, 0.0)
    safe = _safe_paths(march, 1, phi, cfg)
    return _as_mc_estimate(_safety_estimates(safe), cfg.n_paths)


def safety_mc_reduced(reduced, xi0, r: Callable, T: float,
                      cfg: SimConfig) -> McEstimate:
    """Reduced-process safety estimate; safe iff r(xi_tau) >= 0 each step."""
    _span_config(cfg, 0.0, T)
    starts = np.asarray(xi0, dtype=np.float64)[None]
    _check_safe_starts(r, starts)
    march = partial(_run_reduced, reduced, starts, cfg, 0.0)
    safe = _safe_paths(march, 1, r, cfg)
    return _as_mc_estimate(_safety_estimates(safe), cfg.n_paths)


def optimal_control_from_value(
    system: StochasticSystem, grad_V: Callable, x, t: float
) -> np.ndarray:
    """u*(x, t) = -sigma(x)^T grad V(x, t)."""
    x = np.asarray(x, dtype=np.float64)
    sig = system.sigma_at(x[None])[0]
    g = np.asarray(grad_V(x, t), dtype=np.float64).reshape(system.state_dim)
    return -sig.T @ g


def refine_control_importance_sampling(
    system: StochasticSystem,
    u_hat: ControlPolicy,
    r: Callable,
    x,
    t: float,
    delta: float,
    cfg: SimConfig,
    T: Optional[float] = None,
    n_bootstrap: int = 200,
    return_diagnostics: bool = False,
    terminal_weight: float = 1.0,
):
    """One-point policy refinement by exponentially re-weighted rollouts.

    Simulates under u_hat, scores each path with the controlled action
    functional S = int (r + 1/2 |u|^2) dtau + int u . dW + terminal r, and
    returns u_hat(x, t) + sum(e^{-S} dW) / (delta * sum(e^{-S})) where dW
    is the path's Brownian increment over [t, t + delta].
    """
    if T is None:
        T = t + cfg.horizon
    _span_config(cfg, t, T)
    if delta <= 0:
        raise UsageError("delta must be positive")
    n_delta = round(delta / cfg.dt)
    if n_delta < 1 or abs(n_delta * cfg.dt - delta) > 1e-9 * delta:
        raise UsageError("delta must be a whole number of dt steps")
    x = np.asarray(x, dtype=np.float64)
    n, m = cfg.n_paths, system.control_dim
    dt, steps = cfg.dt, cfg.steps
    sq = np.sqrt(dt)
    w_term = float(terminal_weight)
    scores = np.zeros(n)
    dW = np.zeros((n, m))
    prev = {"x": None, "t": t}

    def observer(s, tau, xs, z):
        if s == 0:
            prev["x"], prev["t"] = xs.copy(), tau
            return
        u_prev = u_hat(prev["x"], prev["t"])
        # w(x, u) dt + u . dW accumulated at the left endpoint
        scores[:] += (
            r(prev["x"]) + 0.5 * np.sum(u_prev**2, axis=1)
        ) * dt + np.sum(u_prev * z, axis=1) * sq
        if s <= n_delta:
            dW[:] += z * sq
        if s == steps:
            scores[:] += w_term * r(xs)
        prev["x"], prev["t"] = xs.copy(), tau

    _run_full(system, u_hat, x, cfg, t, observer)

    smin = scores.min()
    if smin > 745.0:
        raise DegenerateEstimateError(
            "all importance weights underflow "
            f"(min S = {smin:.3g}); refine from a less extreme state"
        )
    wts = np.exp(-(scores - smin))
    wsum = wts.sum()
    correction = (wts[:, None] * dW).sum(axis=0) / (delta * wsum)
    u0 = u_hat(x[None], t)[0]
    refined = u0 + correction
    if not return_diagnostics:
        return refined
    gen = stream(cfg.seed, BOOTSTRAP_TAG)
    boots = np.empty((n_bootstrap, m))
    for b in range(n_bootstrap):
        idx = gen.integers(0, n, size=n)
        wb = wts[idx]
        boots[b] = (wb[:, None] * dW[idx]).sum(axis=0) / (delta * wb.sum())
    diag = RefinementDiagnostics(
        correction=correction,
        bootstrap_se=boots.std(axis=0, ddof=1),
        effective_sample_size=float(wsum**2 / np.sum(wts**2)),
    )
    return refined, diag


@dataclass
class McGrid:
    """Estimates over (xi, t) rows; serializes to the grid CSV schema."""

    points: np.ndarray
    times: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray

    def to_csv(self, path: str) -> str:
        k = self.points.shape[1]
        header = (
            ",".join(f"xi{i + 1}" for i in range(k)) + ",t,estimate,std_error"
        )
        return write_csv(path, header, np.column_stack(
            [self.points, self.times, self.estimates, self.std_errors]
        ))


def _grid(points, times, mc, span, block) -> McGrid:
    """Estimates over (xi, t) rows: ``block(starts, t, cfg, take)`` marches a
    block of rows that share time t, reading its steps through ``take``, and
    returns their (estimates, std_errors).

    ``cfg`` is the budget ``mc`` = (dt, n_paths, seed) over horizon
    ``span(t)``; every time's budget is checked before any block is
    marched.  Each time's rows are split into at least two blocks of at
    most ``_BLOCK_ROWS`` path rows, marched by ``sde._march_rounds`` on
    one helper.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    times = np.broadcast_to(
        np.asarray(times, dtype=np.float64), (points.shape[0],)
    ).copy()
    dt, n_paths, seed = mc
    cfgs = {float(t): SimConfig(dt=dt, horizon=span(float(t)), seed=seed,
                                n_paths=n_paths) for t in np.unique(times)}
    est = np.empty(points.shape[0])
    se = np.empty(points.shape[0])
    per_block = max(1, _BLOCK_ROWS // n_paths)
    with _Helper("featpde-lane") as helper:
        for tj, cfg in cfgs.items():
            rows = np.flatnonzero(times == tj)
            n_blocks = max(2, -(-rows.size // per_block))
            blocks = np.array_split(rows, min(rows.size, n_blocks))
            marches = [partial(block, points[b], tj, cfg) for b in blocks]
            results = _march_rounds(marches, cfg, points.shape[1], helper)
            for idx, (e, s) in zip(blocks, results):
                est[idx], se[idx] = e, s
    return McGrid(points=points, times=times, estimates=est, std_errors=se)


def value_grid_reduced(
    reduced, points, times, T, r, mc, terminal_weight: float = 1.0
) -> McGrid:
    """exp(-V) estimates on (xi, t) rows (desirability scale, with matching
    delta-method standard errors) with budget ``mc`` = (dt, n_paths,
    seed)."""

    def block(starts, t, cfg, take):
        march = partial(_run_reduced, reduced, starts, cfg, t, take=take)
        value, se = _estimates_from_scores(
            _value_scores(march, len(starts), r, cfg, terminal_weight))
        phi = np.exp(-value)
        return phi, phi * se

    return _grid(points, times, mc, lambda t: T - t, block)


def safety_grid_reduced(reduced, points, horizons, r, mc) -> McGrid:
    """Safety probabilities over (xi0, horizon) rows with budget ``mc`` =
    (dt, n_paths, seed); every start point is checked to be safe before any
    is marched."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    _check_safe_starts(r, points)

    def block(starts, horizon, cfg, take):
        march = partial(_run_reduced, reduced, starts, cfg, 0.0, take=take)
        return _safety_estimates(_safe_paths(march, len(starts), r, cfg))

    return _grid(points, horizons, mc, lambda h: h, block)
