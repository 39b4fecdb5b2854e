"""Controlled stochastic systems and Euler-Maruyama simulation.

Full systems follow ``dx = f(x) dt + sigma(x) (u dt + dW)``; reduced feature
systems follow per-coordinate ``dxi_i = alpha_i(xi) beta_i(xi) dt +
sqrt(alpha_i(xi)) dB_i``.

Drift, diffusion, alpha and beta callables are vectorized: they accept a
batch of states shaped (N, d) and return (N, d), (N, d, m) (or a constant
(d, m) matrix), and (N,) respectively.  A plain (d,) vector works too.

Randomness is counter-based: the Gaussian increments for step ``s`` of a run
come from ``Philox(key=(seed, s))``, and path ``i`` reads row ``i`` of that
step's (N, m) draw.  Consequences used elsewhere in the package:

* path ``i``'s noise sequence is a pure function of (seed, i) -- independent
  across paths, reproducible, and unchanged when N grows or shrinks;
* extending the horizon appends steps without disturbing earlier ones, so
  survival indicators are comparable path-by-path across horizons;
* simulating with a different control policy under the same seed reuses the
  identical increments (Girsanov-style reuse for importance sampling);
* a block of P start points of the reduced SDE is marched as one (P*N, k)
  state with one draw per step shared by every point, so each point's paths
  equal those of its own one-point run bit for bit.  This needs alpha and
  beta (and any observer's r) to act row by row, as the contract above
  already requires;
* the full-system march draws step s+1 on one helper thread while the
  calling thread updates step s.  Outputs do not change, because a draw
  depends only on (seed, step).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SimulationError, UsageError
from .grid import write_csv

__all__ = [
    "StochasticSystem",
    "ControlPolicy",
    "ZeroPolicy",
    "SimConfig",
    "TrajectoryBatch",
    "simulate",
    "simulate_reduced",
    "step_noise",
]


@dataclass
class StochasticSystem:
    """Drift/diffusion description of a controlled diffusion.

    ``drift``: states (N, n) -> (N, n).  ``diffusion``: states (N, n) ->
    (N, n, m), or a constant (n, m) array for state-independent noise (set
    ``diffusion_const`` instead for the fast path).
    """

    state_dim: int
    control_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diffusion_const: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.state_dim <= 0 or self.control_dim <= 0:
            raise UsageError("state_dim and control_dim must be positive")
        if (self.diffusion is None) == (self.diffusion_const is None):
            raise UsageError(
                "exactly one of diffusion / diffusion_const is required"
            )
        if self.diffusion_const is not None:
            self.diffusion_const = np.asarray(
                self.diffusion_const, dtype=np.float64
            )
            if self.diffusion_const.shape != (self.state_dim, self.control_dim):
                raise UsageError(
                    f"diffusion_const must be (n, m) = "
                    f"({self.state_dim}, {self.control_dim})"
                )

    def sigma_at(self, x: np.ndarray) -> np.ndarray:
        """Diffusion matrix batch (N, n, m) at states (N, n)."""
        if self.diffusion_const is not None:
            return np.broadcast_to(
                self.diffusion_const,
                (x.shape[0], self.state_dim, self.control_dim),
            )
        out = np.asarray(self.diffusion(x), dtype=np.float64)
        if out.shape != (x.shape[0], self.state_dim, self.control_dim):
            raise SimulationError(
                f"diffusion returned shape {out.shape}, expected "
                f"({x.shape[0]}, {self.state_dim}, {self.control_dim})"
            )
        return out


class ControlPolicy:
    """State-feedback control u(x, t): (N, n), t -> (N, m)."""

    def __init__(self, policy: Callable[[np.ndarray, float], np.ndarray]):
        self._policy = policy

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self._policy(x, t), dtype=np.float64)


class ZeroPolicy(ControlPolicy):
    """The uncontrolled policy u == 0 (sampling measure for path integrals)."""

    def __init__(self, control_dim: int):
        self.control_dim = control_dim
        super().__init__(lambda x, t: np.zeros((x.shape[0], control_dim)))


@dataclass(frozen=True)
class SimConfig:
    """Time step, horizon, seed and path count for one simulation run."""

    dt: float
    horizon: float
    seed: int
    n_paths: int

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise UsageError("dt and horizon must be positive")
        if self.n_paths <= 0:
            raise UsageError("n_paths must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise UsageError("seed must fit in 64 unsigned bits")
        steps = round(self.horizon / self.dt)
        if steps < 1 or abs(steps * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise UsageError(
                f"horizon {self.horizon} is not an integer number of steps "
                f"of dt={self.dt} (within 1e-9 relative)"
            )

    @property
    def steps(self) -> int:
        return round(self.horizon / self.dt)


@dataclass
class TrajectoryBatch:
    """N paths on a shared uniform time grid; states is (N, steps+1, d)."""

    times: np.ndarray
    states: np.ndarray
    seed_used: int

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def to_csv(self, path: str):
        """Rows `path,t,x1,...,xd`, path-major then time."""
        n, s, d = self.states.shape
        header = "path,t," + ",".join(f"x{i + 1}" for i in range(d))
        idx = np.repeat(np.arange(n), s)
        tt = np.tile(self.times, n)
        flat = self.states.reshape(n * s, d)
        write_csv(path, header, np.column_stack([idx, tt, flat]),
                  ["%d"] + ["%.17g"] * (d + 1))


def step_noise(seed: int, step: int, n: int, m: int) -> np.ndarray:
    """Standard-normal increments (n, m) for one step; pure in (seed, step)."""
    bitgen = np.random.Philox(key=np.array([seed, step], dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal((n, m))


def _check_finite(x: np.ndarray, step: int, what: str, starts=None,
                  coordinate_major=False):
    """Raise on the first non-finite row of ``x`` (rows along axis 0, or
    along axis 1 of a (k, rows) array if ``coordinate_major``); with
    ``starts`` (P, k), row j is path j % N of start point j // N."""
    if coordinate_major:
        rowsum = x.sum(axis=0)
    else:
        rowsum = x.reshape(x.shape[0], -1).sum(axis=1)
    bad = ~np.isfinite(rowsum)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        row = x[:, i] if coordinate_major else x[i]
        raise SimulationError(
            f"non-finite {what} on {_path_name(i, rowsum.size, starts)} at "
            f"step {step}: state/value row {np.asarray(row).ravel()[:8]}"
        )


def _path_name(j: int, rows: int, starts) -> str:
    if starts is None:
        return f"path {j}"
    n = rows // len(starts)
    return f"path {j % n} of start point {starts[j // n]}"


def _run_full(system, policy, x0, cfg, t0, observer):
    """March the full system, calling observer(step, t, x, z) each step.

    ``observer`` is called once with (0, t0, x, None) for the initial state,
    then after every Euler-Maruyama update with the post-step state and the
    standard-normal draw that produced it.  One helper thread draws the next
    step's noise meanwhile; it is joined before this returns or raises.
    """
    n = cfg.n_paths
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (system.state_dim,):
        raise UsageError(
            f"x0 must have length {system.state_dim}, got shape {x0.shape}"
        )
    x = np.tile(x0, (n, 1))
    dt = cfg.dt
    sq = np.sqrt(dt)
    const_diag = None
    if system.diffusion_const is not None and system.state_dim == system.control_dim:
        d = np.diagonal(system.diffusion_const)
        if np.array_equal(system.diffusion_const, np.diag(d)):
            const_diag = d.copy()
    m = system.control_dim
    with ThreadPoolExecutor(1, thread_name_prefix="featpde-noise") as helper:
        ahead = helper.submit(step_noise, cfg.seed, 0, n, m)
        observer(0, t0, x, None)
        for s in range(cfg.steps):
            t = t0 + s * dt
            z = ahead.result()
            if s + 1 < cfg.steps:
                ahead = helper.submit(step_noise, cfg.seed, s + 1, n, m)
            f = np.asarray(system.drift(x), dtype=np.float64)
            _check_finite(f, s, "drift")
            u = policy(x, t)
            du = u * dt + z * sq
            if const_diag is not None:
                noise = du * const_diag
            elif system.diffusion_const is not None:
                noise = du @ system.diffusion_const.T
            else:
                sig = system.sigma_at(x)
                _check_finite(sig, s, "diffusion")
                noise = np.einsum("nij,nj->ni", sig, du)
            x = x + f * dt + noise
            observer(s + 1, t + dt, x, z)
    return x


def _run_reduced(reduced, starts, cfg, t0, observer):
    """March the reduced feature SDE (diagonal, per-coordinate alpha/beta)
    from a block of P start points (P, k), N = cfg.n_paths paths each.

    Row j of the block is path j % N of start point j // N, and every start
    point reads the same step draw, so each point's paths are exactly those
    of a one-point run.  The state is kept coordinate-major, (k, P*N), in
    two buffers that take turns; ``observer(step, t, xi, z)`` sees it as a
    read-only (P*N, k) view that is valid only during the call.

    An exception raised while marching carries ``march_position``, the
    (step, stage) it was raised at: stage i < k is coordinate i's update,
    k the drift check and k + 1 the observer that follows (the initial
    observer is at (-1, k + 1)).  ``montecarlo._grid`` orders the errors of
    several blocks by it.
    """
    k = reduced.k
    starts = np.asarray(starts, dtype=np.float64)
    if starts.ndim != 2 or starts.shape[1] != k:
        raise UsageError(
            f"start points must be (P, {k}), got shape {starts.shape}"
        )
    n = cfg.n_paths
    p = starts.shape[0]
    xi = np.repeat(starts, n, axis=0).T.copy()
    dt = cfg.dt
    sq = np.sqrt(dt)
    new = np.empty_like(xi)
    drift = np.empty_like(xi)
    diff = np.empty_like(xi)
    where = (-1, k + 1)
    try:
        observer(0, t0, xi.T, None)
        for s in range(cfg.steps):
            z = step_noise(cfg.seed, s, n, k)
            for i in range(k):
                where = (s, i)
                a = np.asarray(reduced.alpha[i](xi[i]), dtype=np.float64)
                bad = ~(a > 0)
                if bad.any():
                    j = int(np.flatnonzero(bad)[0])
                    raise DomainError(
                        f"alpha_{i + 1} <= 0 at xi_{i + 1} = {xi[i, j]:.6g} "
                        f"({_path_name(j, p * n, starts)}, step {s})"
                    )
                b = np.asarray(reduced.beta[i](xi[i]), dtype=np.float64)
                np.multiply(a, b, out=drift[i])
                # xi + drift * dt + sqrt(a) * z * sq, rounded in that order
                np.multiply(drift[i], dt, out=new[i])
                new[i] += xi[i]
                np.sqrt(a, out=diff[i])
                noise = diff[i].reshape(p, n)
                noise *= z[:, i]
                noise *= sq
                new[i] += diff[i]
            where = (s, k)
            _check_finite(drift, s, "reduced drift", starts,
                          coordinate_major=True)
            xi, new = new, xi
            where = (s, k + 1)
            observer(s + 1, t0 + (s + 1) * dt, xi.T, z)
    except Exception as err:
        err.march_position = where
        raise
    return xi.T


def simulate(
    system: StochasticSystem,
    policy: ControlPolicy,
    x0,
    cfg: SimConfig,
    t0: float = 0.0,
) -> TrajectoryBatch:
    """Euler-Maruyama paths of the full system; materializes all states."""
    times = t0 + cfg.dt * np.arange(cfg.steps + 1)
    states = np.empty((cfg.n_paths, cfg.steps + 1, system.state_dim))

    def observer(s, t, x, z):
        states[:, s, :] = x

    _run_full(system, policy, x0, cfg, t0, observer)
    return TrajectoryBatch(times=times, states=states, seed_used=cfg.seed)


def simulate_reduced(reduced, xi0, cfg: SimConfig, t0: float = 0.0) -> TrajectoryBatch:
    """Euler-Maruyama paths of a reduced feature SDE."""
    times = t0 + cfg.dt * np.arange(cfg.steps + 1)
    states = np.empty((cfg.n_paths, cfg.steps + 1, reduced.k))

    def observer(s, t, xi, z):
        states[:, s, :] = xi

    _run_reduced(reduced, np.asarray(xi0, dtype=np.float64)[None], cfg, t0,
                 observer)
    return TrajectoryBatch(times=times, states=states, seed_used=cfg.seed)
