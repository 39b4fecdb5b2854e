"""Path-integral value estimation, safety-probability estimation, and
importance-sampling control refinement on full and reduced systems.

Value estimates average exp(-S) over uncontrolled rollouts where S is the
left-endpoint Riemann sum of the running cost plus the weighted terminal
cost; all exponential averages run through log-sum-exp, and the reported
standard error comes from the delta method on the log of the sample mean:

    se(V) = sqrt((exp(lse(-2S) - 2 lse(-S) + log N) - 1) / N).

The reduced grid estimators march all rows that share a time as blocks of
start points (at most ``_BLOCK_ROWS`` path rows each) that draw each step's
noise once for the whole block.  The cost or barrier r must act row by row,
as alpha and beta already do, and each point's log-sum-exp, mean and
standard error come from its own N paths, so a grid row equals the
one-point estimate bit for bit.  Each time's rows are split into at least
two blocks, marched in two lanes: the calling thread takes the even blocks
and one helper thread the odd ones.  So alpha, beta and r must be safe to
call from two threads at once, i.e. pure functions of their input, as
every preset's are.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import logsumexp

from .errors import DegenerateEstimateError, UsageError
from .grid import write_csv
from .sde import ControlPolicy, SimConfig, StochasticSystem, ZeroPolicy, _run_full, _run_reduced

__all__ = [
    "CostSpec",
    "BarrierSpec",
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
class CostSpec:
    """Running cost c(x) (batched (N, d) -> (N,)) and the weight that scales
    c(x_T) inside the path-integral exponent."""

    running_cost: Callable[[np.ndarray], np.ndarray]
    terminal_weight: float = 1.0


@dataclass
class BarrierSpec:
    """Barrier function phi (batched); the safe set is {phi >= 0}."""

    phi: Callable[[np.ndarray], np.ndarray]


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
    l1 = logsumexp(-scores, axis=1)
    l2 = logsumexp(-2.0 * scores, axis=1)
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


def value_pathintegral(
    system: StochasticSystem,
    x,
    t: float,
    T: float,
    cost: CostSpec,
    cfg: SimConfig,
) -> McEstimate:
    """Uncontrolled (measure-Q) path-integral estimate of V(x, t)."""
    _span_config(cfg, t, T)
    c = cost.running_cost
    w = float(cost.terminal_weight)
    dt = cfg.dt
    steps = cfg.steps
    scores = np.zeros(cfg.n_paths)

    def observer(s, tau, xs, z):
        if s < steps:
            scores[:] += c(xs) * dt
        else:
            scores[:] += w * c(xs)

    _run_full(system, ZeroPolicy(system.control_dim), x, cfg, t, observer)
    return _as_mc_estimate(_estimates_from_scores(scores[None]), cfg.n_paths)


def _value_scores(reduced, starts, t, r, cfg, terminal_weight):
    """(P, N) path-integral scores of a block of start points at time t."""
    w = float(terminal_weight)
    dt = cfg.dt
    steps = cfg.steps
    scores = np.zeros(len(starts) * cfg.n_paths)

    def observer(s, tau, xs, z):
        if s < steps:
            scores[:] += np.asarray(r(xs), dtype=np.float64) * dt
        else:
            scores[:] += w * np.asarray(r(xs), dtype=np.float64)

    _run_reduced(reduced, starts, cfg, t, observer)
    return scores.reshape(len(starts), cfg.n_paths)


def value_pathintegral_reduced(
    reduced,
    xi,
    t: float,
    T: float,
    r: Callable,
    cfg: SimConfig,
    terminal_weight: float = 1.0,
) -> McEstimate:
    """Same estimator driven by the reduced feature SDE (r acts on xi)."""
    _span_config(cfg, t, T)
    scores = _value_scores(reduced, np.asarray(xi, dtype=np.float64)[None],
                           t, r, cfg, terminal_weight)
    return _as_mc_estimate(_estimates_from_scores(scores), cfg.n_paths)


def safety_mc(
    system: StochasticSystem,
    policy: ControlPolicy,
    x0,
    barrier: BarrierSpec,
    T: float,
    cfg: SimConfig,
    return_mask: bool = False,
):
    """Empirical fraction of paths with phi(x_tau) >= 0 at every step."""
    if abs(cfg.horizon - T) > 1e-9 * max(1.0, T):
        raise UsageError(f"cfg.horizon = {cfg.horizon} must equal T = {T}")
    x0 = np.asarray(x0, dtype=np.float64)
    phi0 = np.asarray(barrier.phi(x0[None]), dtype=np.float64)[0]
    if phi0 < 0:
        raise UsageError(
            f"initial state is already unsafe (phi(x0) = {phi0:.6g} < 0)"
        )
    safe = np.ones(cfg.n_paths, dtype=bool)

    def observer(s, tau, xs, z):
        safe[:] &= np.asarray(barrier.phi(xs), dtype=np.float64) >= 0

    _run_full(system, policy, x0, cfg, 0.0, observer)
    est = _as_mc_estimate(_safety_estimates(safe[None]), cfg.n_paths)
    return (est, safe.copy()) if return_mask else est


def _check_safe_starts(r, starts):
    r0 = np.asarray(r(starts), dtype=np.float64)
    if (r0 < 0).any():
        j = int(np.flatnonzero(r0 < 0)[0])
        raise UsageError(
            f"initial feature state {starts[j]} is already unsafe "
            f"(r(xi0) = {r0[j]:.6g})"
        )


def _safe_paths(reduced, starts, r, cfg):
    """(P, N) masks of the paths from each start point that keep
    r(xi_tau) >= 0 at every monitored step."""
    safe = np.ones(len(starts) * cfg.n_paths, dtype=bool)

    def observer(s, tau, xs, z):
        safe[:] &= np.asarray(r(xs), dtype=np.float64) >= 0

    _run_reduced(reduced, starts, cfg, 0.0, observer)
    return safe.reshape(len(starts), cfg.n_paths)


def safety_mc_reduced(
    reduced,
    xi0,
    r: Callable,
    T: float,
    cfg: SimConfig,
    bridge_correction: bool = False,
    return_mask: bool = False,
):
    """Reduced-process safety estimate; safe iff r(xi_tau) >= 0 each step.

    With ``bridge_correction`` (1-feature problems only) each step multiplies
    the survival weight by the Brownian-bridge probability of not crossing
    the barrier between monitored times, removing most of the
    discrete-monitoring overestimate.
    """
    if abs(cfg.horizon - T) > 1e-9 * max(1.0, T):
        raise UsageError(f"cfg.horizon = {cfg.horizon} must equal T = {T}")
    starts = np.asarray(xi0, dtype=np.float64)[None]
    _check_safe_starts(r, starts)
    if bridge_correction and reduced.k != 1:
        raise UsageError(
            "the Brownian-bridge correction supports single-feature "
            "reductions only"
        )
    n = cfg.n_paths
    if bridge_correction:
        weights = np.ones(n)
        state = {"prev_xi": None, "prev_d": None}
        dt = cfg.dt

        def observer(s, tau, xs, z):
            d = np.asarray(r(xs), dtype=np.float64)
            alive = d >= 0
            if state["prev_d"] is not None:
                xi_prev = state["prev_xi"][:, 0]
                h = 1e-6 * (1.0 + np.abs(xi_prev))
                rp = (
                    np.asarray(r((xi_prev + h)[:, None]))
                    - np.asarray(r((xi_prev - h)[:, None]))
                ) / (2.0 * h)
                sig2 = rp**2 * np.asarray(
                    reduced.alpha[0](xi_prev), dtype=np.float64
                )
                both = alive & (state["prev_d"] >= 0) & (sig2 > 0)
                cross = np.zeros(n)
                with np.errstate(over="ignore"):
                    cross[both] = np.exp(
                        -2.0
                        * state["prev_d"][both]
                        * d[both]
                        / (sig2[both] * dt)
                    )
                weights[:] *= np.where(alive, 1.0 - cross, 0.0)
            else:
                weights[:] *= alive
            state["prev_xi"] = xs.copy()
            state["prev_d"] = d

        _run_reduced(reduced, starts, cfg, 0.0, observer)
        fbar = float(weights.mean())
        se = float(weights.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        est = McEstimate(value=fbar, std_error=se, n_samples=n)
        return (est, weights.copy()) if return_mask else est

    safe = _safe_paths(reduced, starts, r, cfg)
    est = _as_mc_estimate(_safety_estimates(safe), n)
    return (est, safe[0].copy()) if return_mask else est


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
    cost: CostSpec,
    x,
    t: float,
    delta: float,
    cfg: SimConfig,
    T: Optional[float] = None,
    n_bootstrap: int = 200,
    return_diagnostics: bool = False,
):
    """One-point policy refinement by exponentially re-weighted rollouts.

    Simulates under u_hat, scores each path with the controlled action
    functional S = int (c + 1/2 |u|^2) dtau + int u . dW + terminal c, and
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
    c = cost.running_cost
    w_term = float(cost.terminal_weight)
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
            c(prev["x"]) + 0.5 * np.sum(u_prev**2, axis=1)
        ) * dt + np.sum(u_prev * z, axis=1) * sq
        if s <= n_delta:
            dW[:] += z * sq
        if s == steps:
            scores[:] += w_term * c(xs)
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
    gen = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, 2**32 + 1], dtype=np.uint64))
    )
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

    def to_csv(self, path: str):
        k = self.points.shape[1]
        header = (
            ",".join(f"xi{i + 1}" for i in range(k)) + ",t,estimate,std_error"
        )
        write_csv(path, header, np.column_stack(
            [self.points, self.times, self.estimates, self.std_errors]
        ))


def _grid(points, times, mc, span, block) -> McGrid:
    """Estimates over (xi, t) rows: ``block(starts, t, cfg)`` runs a block of
    rows that share time t and returns their (estimates, std_errors).

    ``cfg`` is the budget ``mc`` = (dt, n_paths, seed) over horizon
    ``span(t)``; every time's budget is checked before any block is
    marched.  Each time's rows are split into at least two blocks of at
    most ``_BLOCK_ROWS`` path rows.  The calling thread runs the even blocks
    and one helper thread the odd ones.  If blocks raise, the error
    re-raised is the one a single block of all the time's rows would raise:
    the earliest ``march_position`` (errors raised outside the march rank
    last), then the lowest rows.
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

    def lane(blocks, t):
        out = []
        for idx in blocks:
            try:
                out.append(block(points[idx], t, cfgs[t]))
            except Exception as err:
                out.append(err)
        return out

    with ThreadPoolExecutor(1, thread_name_prefix="featpde-lane") as helper:
        for tj in cfgs:
            rows = np.flatnonzero(times == tj)
            n_blocks = max(2, -(-rows.size // per_block))
            blocks = np.array_split(rows, min(rows.size, n_blocks))
            odd = helper.submit(lane, blocks[1::2], tj)
            results = [None] * len(blocks)
            results[0::2] = lane(blocks[0::2], tj)
            results[1::2] = odd.result()
            errors = [(getattr(res, "march_position", (np.inf,)), b)
                      for b, res in enumerate(results)
                      if isinstance(res, Exception)]
            if errors:
                raise results[min(errors)[1]]
            for idx, (e, s) in zip(blocks, results):
                est[idx], se[idx] = e, s
    return McGrid(points=points, times=times, estimates=est, std_errors=se)


def value_grid_reduced(
    reduced, points, times, T, r, mc, terminal_weight: float = 1.0
) -> McGrid:
    """exp(-V) estimates on (xi, t) rows (desirability scale, with matching
    delta-method standard errors) with budget ``mc`` = (dt, n_paths,
    seed)."""

    def block(starts, t, cfg):
        value, se = _estimates_from_scores(
            _value_scores(reduced, starts, t, r, cfg, terminal_weight)
        )
        phi = np.exp(-value)
        return phi, phi * se

    return _grid(points, times, mc, lambda t: T - t, block)


def safety_grid_reduced(reduced, points, horizons, r, mc) -> McGrid:
    """Safety probabilities over (xi0, horizon) rows with budget ``mc`` =
    (dt, n_paths, seed); every start point is checked to be safe before any
    is marched."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    _check_safe_starts(r, points)

    def block(starts, horizon, cfg):
        return _safety_estimates(_safe_paths(reduced, starts, r, cfg))

    return _grid(points, horizons, mc, lambda h: h, block)
