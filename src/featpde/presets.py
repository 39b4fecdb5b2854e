"""Shipped experiment presets.

Each preset pins every constant of one benchmark configuration so a run is
reproducible from the name alone: the full system (when one exists), feature
maps, the reduced SDE, the cost or barrier on features, the data grid, the
enlarged finite-difference oracle settings, and default training configs.
``get_preset`` builds a fresh instance on every call; nothing is shared.
The 1000-d presets' drift calls scipy's compiled CSR kernel, which they
load with ``pde._scipy_extension`` when they are built; no scipy package
is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import UsageError
from .featureid import AeTrainConfig
from .grid import GridRows
from .pde import (
    LqSpec,
    PdeProblem,
    _scipy_extension,
    assemble_safety_pde,
    assemble_value_pde,
)
from .pinn import PinnConfig
from .reduction import FeatureMap, ReducedSde, build_reduced_sde
from .sde import Constant, StochasticSystem

__all__ = [
    "Preset",
    "get_preset",
    "preset_names",
    "three_dim_system",
    "three_dim_features",
    "thousand_dim_system",
    "thousand_dim_features",
    "feature_state_grid",
    "linear_reduced_sde",
    "linear_quadratic_preset",
    "with_linear_reduction",
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


def _linear_derivatives(g):
    """Batched derivatives of the linear features x -> g x: a broadcast
    Jacobian g^T and a zero Hessian trace."""
    k, n = g.shape

    def derivatives(xb, w):
        rows = np.atleast_2d(xb).shape[0]
        return np.broadcast_to(g.T, (rows, n, k)), np.zeros((rows, k))

    return derivatives


def three_dim_features() -> FeatureMap:
    """Features (x1 + x2, x3) with analytic derivatives."""
    g = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def p(xb):
        return np.atleast_2d(np.asarray(xb, dtype=np.float64)) @ g.T

    return FeatureMap(k=2, n=3, p=p, derivatives=_linear_derivatives(g))


def _block_coupling_matrix():
    """1000x1000 block-diagonal (A, A) as CSR arrays ``(indptr, indices,
    data)``, A 500x500 with 1.1 on the diagonal, +0.1 at column offsets 2
    and 4, -0.1 at offsets 6 and 8, all offsets wrapping modulo 500.  The
    index arrays are int32 and each row's entries are sorted by column:
    the arrays of scipy's ``sparse.block_diag([A, A]).tocsr()``."""
    half = 500
    offsets = np.array([0, 2, 4, 6, 8])
    rows = np.arange(2 * half)[:, None]
    cols = rows - rows % half + (rows + offsets) % half
    order = np.argsort(cols, axis=1)
    indices = np.take_along_axis(cols, order, axis=1).astype(np.int32)
    data = np.array([1.1, 0.1, 0.1, -0.1, -0.1])[order]
    indptr = np.arange(0, indices.size + 1, offsets.size, dtype=np.int32)
    return indptr, indices.ravel(), data.ravel()


def thousand_dim_system(stable: bool = True) -> StochasticSystem:
    """The 1000-d benchmark system dx = (sign) A_bar x dt + u dt + dw.

    The drift is one call of scipy's compiled CSR kernel ``csr_matvecs``,
    loaded without the scipy.sparse package, with the inputs and output
    layout scipy 1.17 gives it for ``A_bar @ x.T``: the states transposed
    into a C-contiguous (1000, N) block and a zeroed (1000, N) result,
    returned transposed, so the drift has the bytes and the F layout of
    ``(A_bar @ x.T).T``.  The stable system negates A_bar once: negation
    is exact, so each drift row has the bits of the negated product,
    without a pass over it.  The identity diffusion is a read-only view of
    one (2n - 1) vector, not an n x n buffer."""
    n = 1000
    indptr, indices, data = _block_coupling_matrix()
    if stable:
        data = -data
    matvecs = _scipy_extension("sparse", "_sparsetools",
                               "sparse-matrix").csr_matvecs

    def drift(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.ndim != 2 or x.shape[1] != n:
            # the kernel reads n values per state and checks no shape
            raise UsageError(f"the 1000-d drift takes states of length "
                             f"{n}, got shape {x.shape}")
        xt = np.ascontiguousarray(x.T)
        out = np.zeros((n, xt.shape[1]))
        matvecs(n, n, xt.shape[1], indptr, indices, data, xt.ravel(),
                out.ravel())
        return out.T

    return StochasticSystem(
        state_dim=n,
        control_dim=n,
        drift=drift,
        diffusion_const=sliding_window_view(
            np.eye(1, 2 * n - 1, n - 1)[0], n)[::-1],
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

    return FeatureMap(k=2, n=1000, p=p, derivatives=_linear_derivatives(g))


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

    def pde_problem(self, domain=None) -> PdeProblem:
        """The preset's PDE on ``domain`` (default: the data domain)."""
        if self.problem_override is not None:
            return self.problem_override
        if self.task not in ("value", "safety"):
            raise UsageError(f"preset {self.name!r} has no PDE formulation")
        dom = list(domain) if domain is not None else list(self.data_domain)
        if self.task == "value":
            return assemble_value_pde(
                self.reduced, self.r, self.terminal_weight, dom, self.horizon
            )
        return assemble_safety_pde(self.reduced, self.r, dom, self.horizon)


def _times(horizon, step=0.1):
    return np.round(np.arange(0.0, horizon + 1e-9, step), 10)


def _quad_r(scale):
    def r(xi):
        xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        return scale * (xi**2).sum(axis=1)

    return r


def _linear(slope, s):
    return slope * np.asarray(s, dtype=np.float64)


def linear_reduced_sde(alpha, slope, ranges) -> ReducedSde:
    """The reduced SDE of constant diffusion coefficients ``alpha`` (each a
    ``Constant``, which the reduced march reads once per step) and linear
    drifts beta_i(s) = slope_i s on ``ranges``."""
    return build_reduced_sde([Constant(c) for c in alpha],
                             [partial(_linear, m) for m in slope], ranges)


def _lq_spec(alpha, slope, R, R_T, horizon) -> LqSpec:
    """The Riccati form of ``linear_reduced_sde(alpha, slope, ...)``:
    d xi = diag(alpha slope) xi dt + diag(alpha)^{1/2} dB."""
    return LqSpec(M=np.diag(np.multiply(alpha, slope)), Sigma=np.diag(alpha),
                  R=R, R_T=R_T, horizon=horizon)


def linear_quadratic_preset(name, alpha, slope, ranges, r_scale, horizon,
                            terminal_weight=1.0, task="value",
                            **fields) -> Preset:
    """Preset ``name`` whose reduced problem is linear-quadratic: the
    reduced SDE ``linear_reduced_sde(alpha, slope, ranges)``, whose ranges
    are also the FD oracle's domain, running cost r(xi) = r_scale |xi|^2,
    terminal weight w, data times every 0.1 up to ``horizon``, and its
    Riccati form with R = r_scale I and R_T = w r_scale I.  ``fields``
    gives the other preset fields."""
    k = len(alpha)
    return Preset(
        name=name,
        task=task,
        horizon=horizon,
        k=k,
        reduced=linear_reduced_sde(alpha, slope, ranges),
        r=_quad_r(r_scale),
        terminal_weight=terminal_weight,
        data_times=_times(horizon),
        oracle_domain=list(ranges),
        lq=_lq_spec(alpha, slope, r_scale * np.eye(k),
                    terminal_weight * r_scale * np.eye(k), horizon),
        **fields,
    )


def with_linear_reduction(preset: Preset, alpha, slope, ranges) -> Preset:
    """A copy of ``preset`` with the reduced SDE ``linear_reduced_sde(alpha,
    slope, ranges)``.  Its Riccati form, if it has one, follows the new M
    and Sigma and keeps its R, R_T and horizon."""
    lq = preset.lq
    if lq is not None:
        lq = _lq_spec(alpha, slope, lq.R, lq.R_T, lq.horizon)
    return replace(preset, reduced=linear_reduced_sde(alpha, slope, ranges),
                   lq=lq)


def _three_dim_cost(x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return 0.5 * (x[:, 0] + x[:, 1]) ** 2 + 0.5 * x[:, 2] ** 2


def _three_dim_x0(xi):
    return np.array([xi[0] / 2.0, xi[0] / 2.0, xi[1]])


def _sys3d_value() -> Preset:
    return linear_quadratic_preset(
        "sys3d-value",
        alpha=(2.0, 1.0),
        slope=(-0.5, -1.0),
        ranges=[(-4.5, 6.0), (-3.5, 5.0)],
        r_scale=0.5,
        horizon=1.5,
        system=three_dim_system(stable=True),
        features=three_dim_features(),
        cost_full=_three_dim_cost,
        data_domain=[(1.0, 2.0), (1.0, 2.0)],
        train_window=(1.0, 1.5),
        oracle_dxi=0.05,
        oracle_dt=2.5e-3,
        oracle_save_every=40,
        pinn=PinnConfig(),
        x0_of_xi=_three_dim_x0,
        eval_time=0.5,
    )


def _sys3d_safety() -> Preset:
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
        reduced=linear_reduced_sde((2.0, 1.0), (0.5, 1.0), oracle_domain),
        r=r,
        barrier_full=barrier_full,
        data_domain=[(1.0, 2.0), (1.0, 2.0)],
        data_times=_times(1.0),
        train_window=(0.0, 1.0),
        oracle_domain=oracle_domain,
        oracle_dxi=0.05,
        oracle_dt=5e-4,
        oracle_save_every=200,
        pinn=PinnConfig(),
        x0_of_xi=_three_dim_x0,
        eval_time=1.0,
    )


def _sys1000d_value() -> Preset:
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

    # every row and column of the coupling matrix sums to 1.1, so each
    # block sum drifts at -1.1 times itself: beta = -1.1 s / alpha
    return linear_quadratic_preset(
        "sys1000d-value",
        alpha=(500.0, 500.0),
        slope=(-1.1 / 500.0, -1.1 / 500.0),
        ranges=[(-85.0, 85.0), (-85.0, 85.0)],
        r_scale=1.0 / 500.0,
        horizon=1.5,
        system=thousand_dim_system(stable=True),
        features=thousand_dim_features(),
        cost_full=cost_full,
        data_domain=[(1.0, 2.0), (1.0, 2.0)],
        train_window=(1.0, 1.5),
        oracle_dxi=0.5,
        oracle_dt=2e-3,
        oracle_save_every=50,
        pinn=PinnConfig(),
        x0_of_xi=x0_of_xi,
        eval_time=0.5,
    )


def _lq_scalar() -> Preset:
    return linear_quadratic_preset(
        "lq-scalar",
        alpha=(1.0,),
        slope=(-1.0,),
        ranges=[(-6.0, 6.0)],
        r_scale=0.5,
        horizon=1.0,
        data_domain=[(-2.0, 2.0)],
        train_window=(0.5, 1.0),
        oracle_dxi=0.05,
        oracle_dt=1e-3,
        oracle_save_every=100,
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
    return Preset(
        name="feature-ae-3d",
        task="features",
        k=2,
        system=three_dim_system(stable=False),
        features=three_dim_features(),
        cost_full=_three_dim_cost,
        ae=AeTrainConfig(),
        state_grid=((0.0, 1.0), 0.01),
    )


def feature_state_grid(preset: Preset) -> GridRows:
    """The feature-learning preset's state grid as (N, n) rows, each formed
    from its flat index on request; ``np.asarray`` of it builds them all."""
    if preset.state_grid is None:
        raise UsageError(f"preset {preset.name!r} declares no state grid")
    (lo, hi), step = preset.state_grid
    n = preset.system.state_dim
    axis = np.round(np.arange(lo, hi + 1e-9, step), 10)
    return GridRows([axis] * n)


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
