"""Physics-informed training of dense networks against a PdeProblem.

The network maps (xi_1 .. xi_k, t) to a scalar.  Training minimizes

    omega_p * mean(residual^2 over collocation points)
  + omega_d * mean((prediction - target)^2 over data points)

with full-batch Adam.  The residual is r u - u_t - drift . grad u -
1/2 diag . hess u for value problems and u_t - drift . grad u -
1/2 diag . hess u for safety problems.  The derivative bundle of
`neural.derivatives_batch`, weighted 1/2 diag on the k feature inputs and
not on time, yields the diffusion term 1/2 diag . hess u as one channel L.
The tests' reference residual evaluates the same expression from one-point
derivatives in another operation order, so the two agree to rounding, not
bitwise.  `physics_loss` computes the training expression.  The parameter
gradient flows through the network's input derivatives: the cotangents of
u, J and L are closed-form in the residual and go through `neural.grad`,
the reverse pass of the bundle.  Terminal/initial conditions are not a
separate loss term: they enter through data rows on the corresponding time
face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, TrainingError, UsageError
from .grid import nodes, space_time, write_csv, write_grid
from .neural import (
    AdamState,
    DenseNetwork,
    Workspace,
    adam_step,
    derivatives_batch,
    forward,
    grad,
    param_count,
)
from .pde import PdeProblem

__all__ = [
    "PinnConfig",
    "TrainingDataset",
    "CollocationSet",
    "TrainResult",
    "physics_loss",
    "data_loss",
    "train",
    "predict_grid",
    "PredictionGrid",
]


@dataclass
class PinnConfig:
    """Loss weights, collocation budget and optimizer settings."""

    omega_p: float = 1.0
    omega_d: float = 1.0
    n_domain: int = 600
    epochs: int = 20000
    lr: float = 1e-3
    seed: int = 0
    widths: tuple = (32, 32, 32)
    batch_size: Optional[int] = None
    log_every: int = 100
    resample_collocation: bool = False

    def __post_init__(self):
        if self.omega_p < 0 or self.omega_d < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.omega_p + self.omega_d <= 0:
            raise ConfigError("at least one loss weight must be positive")
        if self.omega_p > 0 and self.n_domain < 1:
            raise ConfigError("n_domain must be >= 1 when omega_p > 0")
        if self.n_domain < 0:
            raise ConfigError("n_domain must be nonnegative")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if not self.widths:
            raise ConfigError("need at least one hidden width")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be positive when set")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")


@dataclass
class TrainingDataset:
    """Supervised rows (xi, t) -> target with a provenance tag."""

    xi: np.ndarray
    t: np.ndarray
    target: np.ndarray
    provenance: str = "file"

    def __post_init__(self):
        self.xi = np.atleast_2d(np.asarray(self.xi, dtype=np.float64))
        self.t = np.asarray(self.t, dtype=np.float64).reshape(-1)
        self.target = np.asarray(self.target, dtype=np.float64).reshape(-1)
        if not (self.xi.shape[0] == self.t.size == self.target.size):
            raise UsageError(
                f"inconsistent dataset sizes: {self.xi.shape[0]} points, "
                f"{self.t.size} times, {self.target.size} targets"
            )
        if self.provenance not in ("MC", "FD", "file"):
            raise UsageError(f"unknown provenance {self.provenance!r}")
        if self.target.size and not np.all(np.isfinite(self.target)):
            raise UsageError("dataset targets must be finite")

    def __len__(self):
        return self.target.size

    @classmethod
    def from_grid(cls, axes, times, values, provenance="FD"):
        """Tensor grid -> rows.  values shaped (len(times), *grid)."""
        xi, tt = space_time(axes, times)
        return cls(xi=xi, t=tt, target=np.reshape(values, -1),
                   provenance=provenance)

    def inputs(self) -> np.ndarray:
        return np.column_stack([self.xi, self.t])


@dataclass
class CollocationSet:
    """Unsupervised (xi, t) points where the PDE residual is penalized."""

    xi: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.xi = np.atleast_2d(np.asarray(self.xi, dtype=np.float64))
        self.t = np.asarray(self.t, dtype=np.float64).reshape(-1)
        if self.xi.shape[0] != self.t.size:
            raise UsageError("collocation xi/t length mismatch")

    def __len__(self):
        return self.t.size

    @classmethod
    def sample(cls, domain, horizon, n, seed):
        """n i.i.d. uniform draws over the space-time box."""
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, 0xC0110C], dtype=np.uint64))
        )
        lo = np.array([ab[0] for ab in domain] + [0.0])
        hi = np.array([ab[1] for ab in domain] + [float(horizon)])
        pts = gen.uniform(lo, hi, size=(int(n), len(lo)))
        return cls(xi=pts[:, :-1], t=pts[:, -1])

    def inputs(self) -> np.ndarray:
        return np.column_stack([self.xi, self.t])


def _check_inside(problem: PdeProblem, xi, t, what):
    lo = np.array([ab[0] for ab in problem.domain])
    hi = np.array([ab[1] for ab in problem.domain])
    eps = 1e-9
    if (xi < lo - eps).any() or (xi > hi + eps).any():
        raise UsageError(f"{what} points fall outside the problem domain")
    if (t < -eps).any() or (t > problem.horizon + eps).any():
        raise UsageError(f"{what} times fall outside [0, {problem.horizon}]")


def physics_loss(net: DenseNetwork, problem: PdeProblem,
                 colloc: CollocationSet) -> float:
    """Mean squared PDE residual of the network over the collocation set."""
    if net.d_in != problem.k + 1:
        raise UsageError(
            f"network input width {net.d_in} != k + 1 = {problem.k + 1}"
        )
    if len(colloc) == 0:
        raise ConfigError("collocation set is empty")
    res = _residual(net, problem, colloc.inputs(),
                    _coefficients(problem, colloc.xi))[0]
    return float(np.mean(res * res))


def data_loss(net: DenseNetwork, data: TrainingDataset) -> float:
    """Mean squared prediction error over the dataset."""
    if len(data) == 0:
        raise ConfigError("training dataset is empty")
    pred = forward(net, data.inputs())[:, 0]
    return float(np.mean((pred - data.target) ** 2))


def _coefficients(problem: PdeProblem, xi):
    """(drift, diffusion diagonal, reaction) of ``problem`` at ``xi``."""
    return (
        np.asarray(problem.drift(xi), dtype=np.float64),
        np.asarray(problem.diffusion_diag(xi), dtype=np.float64),
        np.asarray(problem.reaction(xi), dtype=np.float64),
    )


def _residual(net, problem, inputs, coeffs, cache=None):
    """(residual, u, J) of the network at the (xi, t) rows ``inputs``.

    The bundle's weighted Hessian trace, with weights 1/2 diag on the k
    feature inputs and none on time, is the diffusion term
    1/2 diag . hess u itself.
    """
    k = problem.k
    drift, diag, react = coeffs
    u, jac, diffusion = derivatives_batch(net, inputs, 0.5 * diag, cache)
    transport = (drift * jac[:, :k, 0]).sum(axis=1) + diffusion[:, 0]
    if problem.kind == "value":
        return react * u[:, 0] - jac[:, k, 0] - transport, u, jac
    return jac[:, k, 0] - transport, u, jac


def _loss_and_grad(net, problem, colloc_inputs, coeffs, data_inputs,
                   targets, omega_p, omega_d, caches):
    """(L_p, L_d, gradient of omega_p L_p + omega_d L_d in theta).

    A term is skipped (and reads 0.0) when its inputs are None.  The
    gradient is None when the weighted loss is not finite.  ``caches`` is
    the (physics, data) pair of workspaces the two terms run in.
    """
    cache_p, cache_d = caches
    k = problem.k
    lp = ld = 0.0
    res = diff = None
    if colloc_inputs is not None:
        res, u, jac = _residual(net, problem, colloc_inputs, coeffs, cache_p)
        lp = float(np.mean(res * res))
    if data_inputs is not None:
        diff = forward(net, data_inputs, cache_d)[:, 0] - targets
        ld = float(np.mean(diff * diff))
    if not np.isfinite(omega_p * lp + omega_d * ld):
        return lp, ld, None

    g = np.zeros_like(net.theta)
    if res is not None:
        # residual = [r u] +- u_t - sum_i drift_i J_i - L
        g_res = (2.0 * omega_p / res.size) * res
        drift, _, react = coeffs
        g_u = np.zeros_like(u)
        g_jac = np.zeros_like(jac)
        g_jac[:, :k, 0] = -g_res[:, None] * drift
        if problem.kind == "value":
            g_u[:, 0] = g_res * react
            g_jac[:, k, 0] = -g_res
        else:
            g_jac[:, k, 0] = g_res
        g += grad(net, cache_p, g_u, g_jac, -g_res[:, None])[0]
    if diff is not None:
        g_pred = (2.0 * omega_d / diff.size) * diff
        g += grad(net, cache_d, g_pred[:, None])[0]
    return lp, ld, g


@dataclass
class TrainResult:
    """Trained network plus the (epoch, L_p, L_d) log.

    ``aborted_epoch`` is set when a non-finite loss or gradient stopped
    training early; ``net`` then holds the last finite checkpoint.
    """

    net: DenseNetwork
    log: list
    collocation: CollocationSet
    aborted_epoch: Optional[int] = None

    def log_to_csv(self, path: str):
        arr = np.asarray(self.log, dtype=np.float64)
        write_csv(path, "epoch,loss_physics,loss_data", arr,
                  ("%d", "%.17g", "%.17g"))


def train(problem: PdeProblem, data: Optional[TrainingDataset],
          cfg: PinnConfig) -> TrainResult:
    """Full-batch Adam on omega_p * L_p + omega_d * L_d.

    Collocation points are drawn once from the uniform distribution on
    Omega x [0, horizon] under cfg.seed (resampled each epoch only when
    cfg.resample_collocation is set).  The log records (epoch, L_p, L_d)
    every cfg.log_every epochs plus the final epoch; parameters are
    checkpointed at each logged epoch and restored if the loss or gradient
    turns non-finite.
    """
    k = problem.k
    use_data = cfg.omega_d > 0
    use_phys = cfg.omega_p > 0
    if use_data and (data is None or len(data) == 0):
        raise ConfigError("omega_d > 0 requires a non-empty dataset")
    if data is not None and len(data):
        if data.xi.shape[1] != k:
            raise UsageError(
                f"dataset has {data.xi.shape[1]} features, problem has {k}"
            )
        _check_inside(problem, data.xi, data.t, "dataset")

    colloc = CollocationSet.sample(problem.domain, problem.horizon,
                                   max(cfg.n_domain, 1), cfg.seed)
    net = DenseNetwork.init((k + 1, *cfg.widths, 1), cfg.seed)
    adam = AdamState.init(param_count(net.widths))

    colloc_inputs = colloc.inputs() if use_phys else None
    coeffs = _coefficients(problem, colloc.xi) if use_phys else None
    full_data_inputs = data.inputs() if use_data else None
    full_targets = data.target if use_data else None

    batch_gen = None
    if use_data and cfg.batch_size is not None and cfg.batch_size < len(data):
        batch_gen = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, 0xBA7C4], dtype=np.uint64))
        )

    caches = (Workspace(), Workspace())
    log = []
    checkpoint = net.theta.copy()
    checkpoint_epoch = 0
    aborted = None

    for epoch in range(cfg.epochs):
        if cfg.resample_collocation and use_phys and epoch > 0:
            colloc = CollocationSet.sample(
                problem.domain, problem.horizon, max(cfg.n_domain, 1),
                cfg.seed + epoch
            )
            colloc_inputs = colloc.inputs()
            coeffs = _coefficients(problem, colloc.xi)
        if batch_gen is not None:
            idx = batch_gen.choice(len(data), size=cfg.batch_size,
                                   replace=False)
            data_inputs = full_data_inputs[idx]
            targets = full_targets[idx]
        else:
            data_inputs, targets = full_data_inputs, full_targets

        lp, ld, g = _loss_and_grad(net, problem, colloc_inputs, coeffs,
                                   data_inputs, targets, cfg.omega_p,
                                   cfg.omega_d, caches)
        if g is None:
            net.theta = checkpoint
            aborted = epoch
            break
        if epoch % cfg.log_every == 0:
            log.append((epoch, lp, ld))
            checkpoint = net.theta.copy()
            checkpoint_epoch = epoch
        try:
            adam, theta = adam_step(adam, net.theta, g, cfg.lr)
        except TrainingError:
            net.theta = checkpoint
            aborted = epoch
            break
        net.theta = theta

    # closing log entry: final losses, or the restored checkpoint's losses
    lp = physics_loss(net, problem, colloc) if use_phys else 0.0
    ld = data_loss(net, data) if use_data else 0.0
    closing = cfg.epochs if aborted is None else checkpoint_epoch
    if not log or log[-1][0] != closing:
        log.append((closing, lp, ld))
    return TrainResult(net=net, log=log, collocation=colloc,
                       aborted_epoch=aborted)


@dataclass
class PredictionGrid:
    """Network values on a tensor grid; mirrors the FD solution layout."""

    axes: list
    times: np.ndarray
    values: np.ndarray  # (len(times), *grid shape)

    def to_csv(self, path: str):
        write_grid(path, self.axes, self.times, self.values)


def predict_grid(net: DenseNetwork, axes, times) -> PredictionGrid:
    """Evaluate the network on a tensor grid of feature axes and times."""
    axes = [np.asarray(a, dtype=np.float64) for a in axes]
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if net.d_in != len(axes) + 1:
        raise UsageError(
            f"network input width {net.d_in} != len(axes) + 1 = "
            f"{len(axes) + 1}"
        )
    pts = nodes(axes)
    shape = tuple(len(a) for a in axes)
    out = np.empty((times.size, *shape))
    for j, t in enumerate(times):
        x = np.column_stack([pts, np.full(pts.shape[0], t)])
        out[j] = forward(net, x)[:, 0].reshape(shape)
    return PredictionGrid(axes=axes, times=times, values=out)
