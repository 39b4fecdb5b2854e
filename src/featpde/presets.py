"""Shipped experiment presets.

Each preset pins every constant of one benchmark configuration so a run is
reproducible from the name alone: the full system (when one exists), feature
maps, the reduced SDE, the cost or barrier on features, the data grid, the
enlarged finite-difference oracle settings, and default training configs.
``get_preset`` builds a fresh instance on every call; nothing is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import UsageError
from .featureid import AeTrainConfig
from .grid import nodes
from .pde import LqSpec, PdeProblem, assemble_safety_pde, assemble_value_pde
from .pinn import PinnConfig
from .reduction import FeatureMap, ReducedSde, build_reduced_sde
from .sde import StochasticSystem

__all__ = [
    "Preset",
    "get_preset",
    "preset_names",
    "three_dim_system",
    "three_dim_features",
    "thousand_dim_system",
    "thousand_dim_features",
    "feature_state_grid",
]


# ---------------------------------------------------------------------------
# benchmark systems


def three_dim_system(stable: bool = False) -> StochasticSystem:
    """The 3-d benchmark system dx = f(x) dt + u dt + dW.

    The literal drift f(x) = (x1 + x3, x2 - x3, x3) is exponentially
    unstable, which is fine for short-horizon safety runs but makes value
    estimates ill-conditioned (exp(-cost) underflows off the data window).
    ``stable=True`` negates the drift: the feature algebra is unchanged
    except beta flips sign, and the process becomes ergodic.  The value
    presets use the stable variant, the safety and feature-learning presets
    the literal one.
    """
    sign = -1.0 if stable else 1.0

    def drift(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return sign * np.stack(
            [x[:, 0] + x[:, 2], x[:, 1] - x[:, 2], x[:, 2]], axis=1
        )

    return StochasticSystem(
        state_dim=3, control_dim=3, drift=drift, diffusion_const=np.eye(3)
    )


def three_dim_features() -> FeatureMap:
    """Features (x1 + x2, x3) with analytic derivatives."""
    g = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def p(xb):
        return np.atleast_2d(np.asarray(xb, dtype=np.float64)) @ g.T

    def grad_p(xb):
        xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
        return np.broadcast_to(g, (xb.shape[0], 2, 3))

    def hess_p(x, i):
        return np.zeros((3, 3))

    return FeatureMap(k=2, n=3, p=p, grad_p=grad_p, hess_p=hess_p)


def _block_coupling_matrix() -> sparse.csr_matrix:
    """1000x1000 block-diagonal (A, A), A 500x500 with 1.1 on the diagonal,
    +0.1 at column offsets 2 and 4, -0.1 at offsets 6 and 8, all offsets
    wrapping modulo 500."""
    half = 500
    rows, cols, vals = [], [], []
    for i in range(half):
        rows.append(i)
        cols.append(i)
        vals.append(1.1)
        for off, v in ((2, 0.1), (4, 0.1), (6, -0.1), (8, -0.1)):
            rows.append(i)
            cols.append((i + off) % half)
            vals.append(v)
    a = sparse.coo_matrix((vals, (rows, cols)), shape=(half, half))
    return sparse.block_diag([a, a]).tocsr()


def thousand_dim_system(stable: bool = True) -> StochasticSystem:
    """The 1000-d benchmark system dx = (sign) A_bar x dt + u dt + dw."""
    abar = _block_coupling_matrix()
    sign = -1.0 if stable else 1.0

    def drift(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return sign * (abar @ x.T).T

    return StochasticSystem(
        state_dim=1000,
        control_dim=1000,
        drift=drift,
        diffusion_const=np.eye(1000),
    )


def thousand_dim_features() -> FeatureMap:
    """Features (sum of coordinates 1..500, sum of coordinates 501..1000)."""
    g = np.zeros((2, 1000))
    g[0, :500] = 1.0
    g[1, 500:] = 1.0

    def p(xb):
        xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
        return np.stack(
            [xb[:, :500].sum(axis=1), xb[:, 500:].sum(axis=1)], axis=1
        )

    def grad_p(xb):
        xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
        return np.broadcast_to(g, (xb.shape[0], 2, 1000))

    def hess_p(x, i):
        return np.zeros((1000, 1000))

    return FeatureMap(k=2, n=1000, p=p, grad_p=grad_p, hess_p=hess_p)


# ---------------------------------------------------------------------------
# preset container


@dataclass
class Preset:
    """One fully pinned benchmark configuration.

    Field availability depends on ``task``: value presets carry ``lq`` when
    the reduced problem is linear-quadratic and ``analytic`` when a closed
    form exists; safety presets carry ``barrier_full``; the feature-learning
    preset carries ``ae``, ``cost_full`` and ``state_grid``.  ``data_*``
    describe the supervised grid; ``oracle_*`` the enlarged
    finite-difference domain (sized so truncation error at the data window
    is negligible); ``train_window`` the time slab the network actually
    fits, which for value tasks is shorter than the emitted data range.
    """

    name: str
    task: str
    horizon: float = 0.0
    k: int = 0
    system: Optional[StochasticSystem] = None
    features: Optional[FeatureMap] = None
    reduced: Optional[ReducedSde] = None
    r: Optional[Callable] = None
    cost_full: Optional[Callable] = None
    barrier_full: Optional[Callable] = None
    terminal_weight: float = 1.0
    data_domain: Optional[Sequence] = None
    data_step: float = 0.1
    data_times: Optional[np.ndarray] = None
    train_window: Optional[tuple] = None
    oracle_domain: Optional[Sequence] = None
    oracle_dxi: Optional[float] = None
    oracle_dt: Optional[float] = None
    oracle_save_every: int = 1
    lq: Optional[LqSpec] = None
    analytic: Optional[Callable] = None
    problem_override: Optional[PdeProblem] = None
    pinn: Optional[PinnConfig] = None
    ae: Optional[AeTrainConfig] = None
    state_grid: Optional[tuple] = None
    x0_of_xi: Optional[Callable] = None
    eval_time: Optional[float] = None

    def pde_problem(self, domain=None, horizon=None) -> PdeProblem:
        """The preset's PDE on ``domain`` (default: the data domain)."""
        if self.problem_override is not None:
            return self.problem_override
        if self.task not in ("value", "safety"):
            raise UsageError(f"preset {self.name!r} has no PDE formulation")
        dom = list(domain) if domain is not None else list(self.data_domain)
        T = float(horizon) if horizon is not None else self.horizon
        if self.task == "value":
            return assemble_value_pde(
                self.reduced, self.r, self.terminal_weight, dom, T
            )
        return assemble_safety_pde(self.reduced, self.r, dom, T)


def _times(horizon, step=0.1):
    return np.round(np.arange(0.0, horizon + 1e-9, step), 10)


def _quad_r(scale):
    def r(xi):
        xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        return scale * (xi**2).sum(axis=1)

    return r


def _sys3d_value() -> Preset:
    alpha = [
        lambda s: np.full_like(np.asarray(s, dtype=np.float64), 2.0),
        lambda s: np.ones_like(np.asarray(s, dtype=np.float64)),
    ]
    beta = [
        lambda s: -np.asarray(s, dtype=np.float64) / 2.0,
        lambda s: -np.asarray(s, dtype=np.float64),
    ]
    oracle_domain = [(-4.5, 6.0), (-3.5, 5.0)]

    def cost_full(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return 0.5 * (x[:, 0] + x[:, 1]) ** 2 + 0.5 * x[:, 2] ** 2

    return Preset(
        name="sys3d-value",
        task="value",
        horizon=1.5,
        k=2,
        system=three_dim_system(stable=True),
        features=three_dim_features(),
        reduced=build_reduced_sde(alpha, beta, oracle_domain),
        r=_quad_r(0.5),
        cost_full=cost_full,
        terminal_weight=1.0,
        data_domain=[(1.0, 2.0), (1.0, 2.0)],
        data_step=0.1,
        data_times=_times(1.5),
        train_window=(1.0, 1.5),
        oracle_domain=oracle_domain,
        oracle_dxi=0.05,
        oracle_dt=2.5e-3,
        oracle_save_every=40,
        lq=LqSpec(
            M=-np.eye(2),
            Sigma=np.diag([2.0, 1.0]),
            R=0.5 * np.eye(2),
            R_T=0.5 * np.eye(2),
            horizon=1.5,
        ),
        pinn=PinnConfig(),
        x0_of_xi=lambda xi: np.array([xi[0] / 2.0, xi[0] / 2.0, xi[1]]),
        eval_time=0.5,
    )


def _sys3d_safety() -> Preset:
    alpha = [
        lambda s: np.full_like(np.asarray(s, dtype=np.float64), 2.0),
        lambda s: np.ones_like(np.asarray(s, dtype=np.float64)),
    ]
    beta = [
        lambda s: np.asarray(s, dtype=np.float64) / 2.0,
        lambda s: np.asarray(s, dtype=np.float64),
    ]
    oracle_domain = [(-6.0, 4.0), (-6.0, 4.0)]

    def r(xi):
        xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        return np.minimum(-xi[:, 0], -xi[:, 1]) + 4.0

    def barrier_full(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.minimum(-(x[:, 0] + x[:, 1]), -x[:, 2]) + 4.0

    return Preset(
        name="sys3d-safety",
        task="safety",
        horizon=1.0,
        k=2,
        system=three_dim_system(stable=False),
        features=three_dim_features(),
        reduced=build_reduced_sde(alpha, beta, oracle_domain),
        r=r,
        barrier_full=barrier_full,
        data_domain=[(1.0, 2.0), (1.0, 2.0)],
        data_step=0.1,
        data_times=_times(1.0),
        train_window=(0.0, 1.0),
        oracle_domain=oracle_domain,
        oracle_dxi=0.05,
        oracle_dt=5e-4,
        oracle_save_every=200,
        pinn=PinnConfig(),
        x0_of_xi=lambda xi: np.array([xi[0] / 2.0, xi[0] / 2.0, xi[1]]),
        eval_time=1.0,
    )


def _sys1000d_value() -> Preset:
    alpha = [
        lambda s: np.full_like(np.asarray(s, dtype=np.float64), 500.0),
        lambda s: np.full_like(np.asarray(s, dtype=np.float64), 500.0),
    ]
    # every row and column of the coupling matrix sums to 1.1, so each
    # block sum drifts at -1.1 times itself
    beta = [
        lambda s: -1.1 * np.asarray(s, dtype=np.float64) / 500.0,
        lambda s: -1.1 * np.asarray(s, dtype=np.float64) / 500.0,
    ]
    oracle_domain = [(-85.0, 85.0), (-85.0, 85.0)]

    def cost_full(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return (
            x[:, :500].sum(axis=1) ** 2 + x[:, 500:].sum(axis=1) ** 2
        ) / 500.0

    def x0_of_xi(xi):
        x0 = np.empty(1000)
        x0[:500] = xi[0] / 500.0
        x0[500:] = xi[1] / 500.0
        return x0

    return Preset(
        name="sys1000d-value",
        task="value",
        horizon=1.5,
        k=2,
        system=thousand_dim_system(stable=True),
        features=thousand_dim_features(),
        reduced=build_reduced_sde(alpha, beta, oracle_domain),
        r=_quad_r(1.0 / 500.0),
        cost_full=cost_full,
        terminal_weight=1.0,
        data_domain=[(1.0, 2.0), (1.0, 2.0)],
        data_step=0.1,
        data_times=_times(1.5),
        train_window=(1.0, 1.5),
        oracle_domain=oracle_domain,
        oracle_dxi=0.5,
        oracle_dt=2e-3,
        oracle_save_every=50,
        lq=LqSpec(
            M=-1.1 * np.eye(2),
            Sigma=500.0 * np.eye(2),
            R=np.eye(2) / 500.0,
            R_T=np.eye(2) / 500.0,
            horizon=1.5,
        ),
        pinn=PinnConfig(),
        x0_of_xi=x0_of_xi,
        eval_time=0.5,
    )


def _lq_scalar() -> Preset:
    return Preset(
        name="lq-scalar",
        task="value",
        horizon=1.0,
        k=1,
        reduced=build_reduced_sde(
            [lambda s: np.ones_like(np.asarray(s, dtype=np.float64))],
            [lambda s: -np.asarray(s, dtype=np.float64)],
            [(-6.0, 6.0)],
        ),
        r=_quad_r(0.5),
        terminal_weight=1.0,
        data_domain=[(-2.0, 2.0)],
        data_step=0.1,
        data_times=_times(1.0),
        train_window=(0.5, 1.0),
        oracle_domain=[(-6.0, 6.0)],
        oracle_dxi=0.05,
        oracle_dt=1e-3,
        oracle_save_every=100,
        lq=LqSpec(
            M=np.array([[-1.0]]),
            Sigma=np.array([[1.0]]),
            R=np.array([[0.5]]),
            R_T=np.array([[0.5]]),
            horizon=1.0,
        ),
        pinn=PinnConfig(widths=(16, 16), epochs=5000),
        eval_time=0.5,
    )


def _heat_oracle() -> Preset:
    horizon = 1.0

    problem = PdeProblem(
        kind="value",
        k=1,
        drift=lambda xi: np.zeros_like(np.atleast_2d(xi)),
        diffusion_diag=lambda xi: np.ones_like(np.atleast_2d(xi)),
        reaction=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        data=lambda xi: np.sin(np.atleast_2d(xi)[:, 0]),
        domain=[(0.0, np.pi)],
        horizon=horizon,
        boundary="dirichlet-data",
    )

    def analytic(xi, t):
        xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        return np.exp(-0.5 * (horizon - t)) * np.sin(xi[:, 0])

    return Preset(
        name="heat-oracle",
        task="value",
        horizon=horizon,
        k=1,
        data_domain=[(0.0, np.pi)],
        data_times=_times(horizon),
        oracle_domain=[(0.0, np.pi)],
        oracle_dxi=np.pi / 314,
        oracle_dt=1e-3,
        oracle_save_every=100,
        analytic=analytic,
        problem_override=problem,
        pinn=PinnConfig(widths=(16, 16), epochs=5000),
        eval_time=0.0,
    )


def _feature_ae_3d() -> Preset:
    def cost_full(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return 0.5 * (x[:, 0] + x[:, 1]) ** 2 + 0.5 * x[:, 2] ** 2

    return Preset(
        name="feature-ae-3d",
        task="features",
        k=2,
        system=three_dim_system(stable=False),
        features=three_dim_features(),
        cost_full=cost_full,
        ae=AeTrainConfig(),
        state_grid=((0.0, 1.0), 0.01),
    )


def feature_state_grid(preset: Preset) -> np.ndarray:
    """Materialize the feature-learning preset's state grid as (N, n) rows."""
    if preset.state_grid is None:
        raise UsageError(f"preset {preset.name!r} declares no state grid")
    (lo, hi), step = preset.state_grid
    n = preset.system.state_dim
    axis = np.round(np.arange(lo, hi + 1e-9, step), 10)
    return nodes([axis] * n)


_BUILDERS = {
    "sys3d-value": _sys3d_value,
    "sys3d-safety": _sys3d_safety,
    "sys1000d-value": _sys1000d_value,
    "lq-scalar": _lq_scalar,
    "heat-oracle": _heat_oracle,
    "feature-ae-3d": _feature_ae_3d,
}


def preset_names():
    return sorted(_BUILDERS)


def get_preset(name: str) -> Preset:
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise UsageError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return build()
