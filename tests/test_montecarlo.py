"""Path-integral and safety Monte-Carlo tests.

Value estimates are cross-checked against the Riccati closed form of the
matching linear-quadratic problem; safety estimates against the
finite-difference exit-time solution and, for plain Brownian motion, the
reflection principle.
"""

import threading

import numpy as np
import pytest
from scipy.stats import norm

from featpde import montecarlo, sde
from featpde.errors import (
    DegenerateEstimateError,
    DomainError,
    SimulationError,
    UsageError,
)
from featpde.montecarlo import (
    BarrierSpec,
    CostSpec,
    McEstimate,
    optimal_control_from_value,
    refine_control_importance_sampling,
    safety_grid_reduced,
    safety_mc,
    safety_mc_reduced,
    value_grid_reduced,
    value_pathintegral,
    value_pathintegral_reduced,
)
from featpde.pde import LqSpec, riccati_value
from featpde.presets import get_preset
from featpde.reduction import build_reduced_sde
from featpde.sde import (
    ControlPolicy,
    SimConfig,
    StochasticSystem,
    ZeroPolicy,
    simulate,
)

SAFETY_FD_LIMIT = 0.426046  # F(1.1, 1.1; T=1) from the dt->0 FD solution


def stable_reduced():
    return build_reduced_sde(
        alpha=[
            lambda s: np.full_like(np.asarray(s, dtype=float), 2.0),
            lambda s: np.ones_like(np.asarray(s, dtype=float)),
        ],
        beta=[
            lambda s: -np.asarray(s, dtype=float) / 2.0,
            lambda s: -np.asarray(s, dtype=float),
        ],
        ranges=[(-6.0, 6.0), (-6.0, 6.0)],
    )


def unstable_reduced():
    return build_reduced_sde(
        alpha=[
            lambda s: np.full_like(np.asarray(s, dtype=float), 2.0),
            lambda s: np.ones_like(np.asarray(s, dtype=float)),
        ],
        beta=[
            lambda s: np.asarray(s, dtype=float) / 2.0,
            lambda s: np.asarray(s, dtype=float),
        ],
        ranges=[(-6.0, 4.0), (-6.0, 4.0)],
    )


def quad_cost(xi):
    xi = np.atleast_2d(xi)
    return 0.5 * (xi[:, 0] ** 2 + xi[:, 1] ** 2)


def min_barrier(xi):
    xi = np.atleast_2d(xi)
    return np.minimum(-xi[:, 0], -xi[:, 1]) + 4.0


def stable_full_system():
    return StochasticSystem(
        state_dim=3,
        control_dim=3,
        drift=lambda x: -np.stack(
            [x[:, 0] + x[:, 2], x[:, 1] - x[:, 2], x[:, 2]], axis=1
        ),
        diffusion_const=np.eye(3),
    )


def unstable_full_system():
    return StochasticSystem(
        state_dim=3,
        control_dim=3,
        drift=lambda x: np.stack(
            [x[:, 0] + x[:, 2], x[:, 1] - x[:, 2], x[:, 2]], axis=1
        ),
        diffusion_const=np.eye(3),
    )


def full_cost(x):
    return 0.5 * (x[:, 0] + x[:, 1]) ** 2 + 0.5 * x[:, 2] ** 2


def full_barrier(x):
    return np.minimum(-(x[:, 0] + x[:, 1]), -x[:, 2]) + 4.0


def oracle_phi(xi, t):
    lq = LqSpec(
        M=-np.eye(2),
        Sigma=np.diag([2.0, 1.0]),
        R=0.5 * np.eye(2),
        R_T=0.5 * np.eye(2),
        horizon=1.5,
    )
    return riccati_value(lq, xi, t)


# --- value path integrals ----------------------------------------------------


def test_zero_cost_gives_exactly_zero():
    cfg = SimConfig(dt=0.01, horizon=0.5, seed=0, n_paths=64)
    est = value_pathintegral(
        stable_full_system(),
        [1.0, 0.0, 1.0],
        0.0,
        0.5,
        CostSpec(lambda x: np.zeros(x.shape[0]), 0.0),
        cfg,
    )
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.n_samples == 64


def test_constant_cost_recovers_closed_form():
    kappa, w = 0.7, 0.5
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=1, n_paths=128)
    est = value_pathintegral(
        stable_full_system(),
        [1.0, 0.0, 1.0],
        0.0,
        1.0,
        CostSpec(lambda x: np.full(x.shape[0], kappa), w),
        cfg,
    )
    assert est.value == pytest.approx(kappa * 1.0 + w * kappa, abs=1e-12)
    assert est.std_error <= 1e-10


def test_reduced_estimate_matches_riccati_within_2se():
    cfg = SimConfig(dt=5e-4, horizon=1.0, seed=9, n_paths=20000)
    est = value_pathintegral_reduced(
        stable_reduced(), [1.5, 1.5], 0.5, 1.5, quad_cost, cfg
    )
    phi = np.exp(-est.value)
    se_phi = phi * est.std_error
    assert abs(phi - oracle_phi([1.5, 1.5], 0.5)) <= 2.0 * se_phi


def test_reduced_small_sample_error_within_budget():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=7, n_paths=1000)
    est = value_pathintegral_reduced(
        stable_reduced(), [1.5, 1.5], 0.5, 1.5, quad_cost, cfg
    )
    phi = np.exp(-est.value)
    ref = oracle_phi([1.5, 1.5], 0.5)
    assert abs(phi - ref) / ref <= 0.12


def test_full_system_estimate_matches_riccati_within_2se():
    # any preimage of xi = (1.5, 1.5) under p = (x1 + x2, x3) works
    cfg = SimConfig(dt=5e-4, horizon=1.0, seed=11, n_paths=10000)
    est = value_pathintegral(
        stable_full_system(),
        [0.75, 0.75, 1.5],
        0.5,
        1.5,
        CostSpec(full_cost, 1.0),
        cfg,
    )
    phi = np.exp(-est.value)
    se_phi = phi * est.std_error
    assert abs(phi - oracle_phi([1.5, 1.5], 0.5)) <= 2.0 * se_phi


def test_full_and_reduced_agree_within_combined_2se():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=31, n_paths=5000)
    full = value_pathintegral(
        stable_full_system(), [0.75, 0.75, 1.5], 0.5, 1.5,
        CostSpec(full_cost, 1.0), cfg,
    )
    red = value_pathintegral_reduced(
        stable_reduced(), [1.5, 1.5], 0.5, 1.5, quad_cost, cfg
    )
    pf, pr = np.exp(-full.value), np.exp(-red.value)
    combined = np.hypot(pf * full.std_error, pr * red.std_error)
    assert abs(pf - pr) <= 2.0 * combined


def test_se_halves_when_n_quadruples():
    def se_at(n):
        cfg = SimConfig(dt=5e-3, horizon=1.0, seed=41, n_paths=n)
        return value_pathintegral_reduced(
            stable_reduced(), [1.5, 1.5], 0.5, 1.5, quad_cost, cfg
        ).std_error

    ratio = se_at(4000) / se_at(1000)
    assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3


def test_quadrupling_n_improves_error_sign_test():
    red = stable_reduced()
    ref = oracle_phi([1.5, 1.5], 0.5)
    wins = 0
    for seed in range(20):
        small = value_pathintegral_reduced(
            red, [1.5, 1.5], 0.5, 1.5, quad_cost,
            SimConfig(dt=1e-2, horizon=1.0, seed=seed, n_paths=50),
        )
        big = value_pathintegral_reduced(
            red, [1.5, 1.5], 0.5, 1.5, quad_cost,
            SimConfig(dt=1e-2, horizon=1.0, seed=seed, n_paths=3200),
        )
        if abs(np.exp(-big.value) - ref) < abs(np.exp(-small.value) - ref):
            wins += 1
    # one-sided sign test at the 5% level: need >= 15 wins out of 20
    assert wins >= 15


def test_translation_invariance_is_exact_for_dyadic_costs():
    # kappa, dt and the cost values are all dyadic, so every score
    # accumulation is exact and the shift identity holds bit-for-bit
    base = lambda x: np.round(16.0 * x[:, 0] ** 2) / 16.0
    kappa = 0.0625
    shifted = lambda x: base(x) + kappa
    cfg = SimConfig(dt=2.0**-10, horizon=1.0, seed=29, n_paths=256)
    sys3 = stable_full_system()
    v1 = value_pathintegral(
        sys3, [1.0, 0.0, 1.0], 0.0, 1.0, CostSpec(base, 1.0), cfg
    )
    v2 = value_pathintegral(
        sys3, [1.0, 0.0, 1.0], 0.0, 1.0, CostSpec(shifted, 1.0), cfg
    )
    assert v2.value - v1.value == kappa * 1.0 + 1.0 * kappa
    assert v2.std_error == v1.std_error


def test_degenerate_underflow_raises():
    cfg = SimConfig(dt=0.1, horizon=1.0, seed=2, n_paths=32)
    with pytest.raises(DegenerateEstimateError):
        value_pathintegral(
            stable_full_system(),
            [1.0, 0.0, 1.0],
            0.0,
            1.0,
            CostSpec(lambda x: np.full(x.shape[0], 1e6), 1.0),
            cfg,
        )


def test_value_usage_errors():
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=0, n_paths=8)
    cost = CostSpec(lambda x: np.zeros(x.shape[0]), 1.0)
    with pytest.raises(UsageError):
        value_pathintegral(stable_full_system(), [0, 0, 0], 1.0, 1.0, cost,
                           cfg)
    with pytest.raises(UsageError):
        # horizon 1.0 but T - t = 0.5
        value_pathintegral(stable_full_system(), [0, 0, 0], 0.5, 1.0, cost,
                           cfg)


# --- safety probabilities ------------------------------------------------------


def test_safety_reduced_frozen_estimate():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=3, n_paths=1000)
    est = safety_mc_reduced(unstable_reduced(), [1.1, 1.1], min_barrier, 1.0,
                            cfg)
    assert est.value == pytest.approx(0.447, abs=1e-12)
    assert est.std_error == pytest.approx(
        np.sqrt(0.447 * 0.553 / 1000), rel=1e-9
    )


def test_safety_monitoring_bias_decreases_toward_fd_limit():
    ests = []
    for dt in (1e-2, 1e-3, 1e-4):
        cfg = SimConfig(dt=dt, horizon=1.0, seed=5, n_paths=10000)
        ests.append(
            safety_mc_reduced(
                unstable_reduced(), [1.1, 1.1], min_barrier, 1.0, cfg
            ).value
        )
    assert ests[0] >= ests[1] >= ests[2]
    assert abs(ests[2] - SAFETY_FD_LIMIT) <= max(
        2.0 * np.sqrt(ests[2] * (1 - ests[2]) / 10000), 0.03
    )


def test_safety_antitone_in_horizon_pathwise():
    red = unstable_reduced()
    shorter = SimConfig(dt=1e-3, horizon=0.5, seed=43, n_paths=2000)
    longer = SimConfig(dt=1e-3, horizon=1.0, seed=43, n_paths=2000)
    e_short, m_short = safety_mc_reduced(
        red, [1.1, 1.1], min_barrier, 0.5, shorter, return_mask=True
    )
    e_long, m_long = safety_mc_reduced(
        red, [1.1, 1.1], min_barrier, 1.0, longer, return_mask=True
    )
    # same seed means the longer run extends the same paths, so survivors
    # of the longer horizon are a subset of the shorter one's
    assert np.all(m_long <= m_short)
    assert e_long.value <= e_short.value


def test_safety_full_system_matches_reduced():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=13, n_paths=10000)
    full = safety_mc(
        unstable_full_system(),
        ZeroPolicy(3),
        [0.55, 0.55, 1.1],
        BarrierSpec(full_barrier),
        1.0,
        cfg,
    )
    red = safety_mc_reduced(
        unstable_reduced(), [1.1, 1.1], min_barrier, 1.0,
        SimConfig(dt=1e-3, horizon=1.0, seed=5, n_paths=10000),
    )
    combined = np.hypot(full.std_error, red.std_error)
    assert abs(full.value - red.value) <= 2.0 * combined


def test_safety_rejects_bad_inputs():
    red = unstable_reduced()
    cfg = SimConfig(dt=1e-2, horizon=1.0, seed=0, n_paths=8)
    with pytest.raises(UsageError):
        safety_mc_reduced(red, [5.0, 0.0], min_barrier, 1.0, cfg)
    with pytest.raises(UsageError):
        safety_mc_reduced(red, [1.0, 1.0], min_barrier, 2.0, cfg)
    with pytest.raises(UsageError):
        safety_mc(
            unstable_full_system(),
            ZeroPolicy(3),
            [3.0, 3.0, 0.0],
            BarrierSpec(full_barrier),
            1.0,
            cfg,
        )
    with pytest.raises(UsageError):  # bridge correction needs k = 1
        safety_mc_reduced(red, [1.0, 1.0], min_barrier, 1.0, cfg,
                          bridge_correction=True)
    with pytest.raises(UsageError,
                       match=r"initial feature state \[5\. 0\.\]"):
        safety_grid_reduced(red, np.array([[1.0, 1.0], [5.0, 0.0]]),
                            [0.5, 1.0], min_barrier, (1e-2, 8, 0))


def test_bridge_correction_removes_monitoring_bias():
    # Brownian motion from 0.5 absorbed at 0: F = 1 - 2 Phi(-0.5/sqrt(T))
    red = build_reduced_sde(
        alpha=[lambda s: np.ones_like(np.asarray(s, dtype=float))],
        beta=[lambda s: np.zeros_like(np.asarray(s, dtype=float))],
        ranges=[(-3.0, 3.0)],
    )
    level = lambda xi: np.atleast_2d(xi)[:, 0]
    exact = 1.0 - 2.0 * norm.cdf(-1.0)
    cfg = SimConfig(dt=0.0125, horizon=0.25, seed=23, n_paths=20000)
    plain = safety_mc_reduced(red, [0.5], level, 0.25, cfg)
    bridged = safety_mc_reduced(red, [0.5], level, 0.25, cfg,
                                bridge_correction=True)
    assert plain.value > exact + 0.02  # coarse monitoring overestimates
    assert abs(bridged.value - exact) <= 3.0 * bridged.std_error
    assert abs(bridged.value - exact) < 0.25 * abs(plain.value - exact)


# --- controls ---------------------------------------------------------------------


def test_optimal_control_from_value_applies_sigma_transpose():
    sys3 = stable_full_system()
    grad = lambda x, t: np.array([1.0, -2.0, 0.5])
    u = optimal_control_from_value(sys3, grad, [0.0, 0.0, 0.0], 0.3)
    np.testing.assert_allclose(u, [-1.0, 2.0, -0.5])
    rect = StochasticSystem(
        state_dim=2,
        control_dim=1,
        drift=lambda x: np.zeros_like(x),
        diffusion_const=np.array([[1.0], [2.0]]),
    )
    u = optimal_control_from_value(rect, lambda x, t: np.array([3.0, 4.0]),
                                   [0.0, 0.0], 0.0)
    np.testing.assert_allclose(u, [-11.0])


def scalar_lq_system():
    return StochasticSystem(
        state_dim=1,
        control_dim=1,
        drift=lambda x: np.zeros_like(x),
        diffusion_const=np.eye(1),
    )


def test_refine_leaves_optimal_policy_unchanged():
    # dx = u dt + dW with cost x^2/2 has stationary P = 1/2, so u* = -x
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=17, n_paths=4000)
    refined, diag = refine_control_importance_sampling(
        scalar_lq_system(),
        ControlPolicy(lambda x, t: -x),
        CostSpec(lambda x: 0.5 * x[:, 0] ** 2, 1.0),
        [1.0],
        0.0,
        0.01,
        cfg,
        return_diagnostics=True,
    )
    assert abs(diag.correction[0]) <= 3.0 * diag.bootstrap_se[0]
    assert diag.effective_sample_size > 0.9 * cfg.n_paths


def test_refine_moves_zero_policy_toward_optimum():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=19, n_paths=10000)
    refined = refine_control_importance_sampling(
        scalar_lq_system(),
        ZeroPolicy(1),
        CostSpec(lambda x: 0.5 * x[:, 0] ** 2, 1.0),
        [1.0],
        0.0,
        0.01,
        cfg,
    )
    u_star = -1.0
    assert abs(refined[0] - u_star) <= 0.5 * abs(0.0 - u_star)


def test_refine_validates_delta():
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=0, n_paths=8)
    cost = CostSpec(lambda x: np.zeros(x.shape[0]), 1.0)
    with pytest.raises(UsageError):
        refine_control_importance_sampling(
            scalar_lq_system(), ZeroPolicy(1), cost, [1.0], 0.0, 0.00137, cfg
        )
    with pytest.raises(UsageError):
        refine_control_importance_sampling(
            scalar_lq_system(), ZeroPolicy(1), cost, [1.0], 0.0, -0.01, cfg
        )


# --- grid helpers -------------------------------------------------------------------


def test_value_grid_schema_and_consistency(tmp_path):
    red = stable_reduced()
    pts = np.array([[1.0, 1.0], [1.5, 1.5]])
    mc = (5e-3, 500, 51)
    grid = value_grid_reduced(red, pts, 0.5, 1.5, quad_cost, mc)
    single = value_pathintegral_reduced(
        red, [1.5, 1.5], 0.5, 1.5, quad_cost,
        SimConfig(dt=5e-3, horizon=1.0, seed=51, n_paths=500),
    )
    assert grid.estimates[1] == pytest.approx(np.exp(-single.value), rel=1e-12)
    path = tmp_path / "value.csv"
    grid.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "xi1,xi2,t,estimate,std_error"
    body = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert body.shape == (2, 5)
    np.testing.assert_allclose(body[:, :2], pts)
    np.testing.assert_allclose(body[:, 3], grid.estimates)


def test_safety_grid_runs_per_row_horizons(tmp_path):
    red = unstable_reduced()
    pts = np.array([[1.1, 1.1], [1.1, 1.1]])
    mc = (1e-2, 400, 53)
    grid = safety_grid_reduced(red, pts, [0.5, 1.0], min_barrier, mc)
    assert grid.estimates[0] >= grid.estimates[1]
    path = tmp_path / "safety.csv"
    grid.to_csv(str(path))
    assert path.read_text().splitlines()[0] == "xi1,xi2,t,estimate,std_error"


# --- block march against the per-point loop -------------------------------------

# Estimates and standard errors (float.hex) written by the per-point loop that
# marched one start point at a time, recorded at commit 477a682 with the
# grids of pinned_grids() below.  Marching all points of a time as one block
# must reproduce them bit for bit, however the grid is split into blocks.
PINNED = {
    "value_k2": (
        ["0x1.24a5ddf8b8f15p-2", "0x1.7d23dd5a6fee1p-3",
         "0x1.a87e2c6846656p-2", "0x1.a3b203b463f0ep-3"],
        ["0x1.6fb8c1e024948p-7", "0x1.1fe9e218dcabcp-7",
         "0x1.c74d465a3b460p-7", "0x1.4017f6c0a5d6ap-7"],
    ),
    "safety_k2": (
        ["0x1.dc28f5c28f5c3p-1", "0x1.3333333333333p-3"],
        ["0x1.a2086a484c6aap-7", "0x1.24834df792128p-6"],
    ),
    "value_k1": (
        ["0x1.5d8c44fb3a5a7p-1", "0x1.5cb1a098895afp-1",
         "0x1.56ddf9388c8f4p-2"],
        ["0x1.949e93f74b77fp-7", "0x1.c8c94e808f23ap-7",
         "0x1.b89afe30956afp-7"],
    ),
    "safety_k1": (
        ["0x1.0000000000000p+0", "0x1.a3d70a3d70a3dp-1"],
        ["0x0.0p+0", "0x1.8e19d1d62e380p-6"],
    ),
}


def state_dependent_k1():
    return build_reduced_sde(
        alpha=[lambda s: 1.0 + 0.5 * np.tanh(np.asarray(s, dtype=float))],
        beta=[lambda s: -np.asarray(s, dtype=float)],
        ranges=[(-4.0, 4.0)],
    )


def k1_square(xi):
    return np.atleast_2d(xi)[:, 0] ** 2


def k1_level(xi):
    return 2.0 - np.atleast_2d(xi)[:, 0]


def pinned_grids():
    mc = (1e-2, 300, 61)
    pts = np.array([[1.0, 1.0], [1.5, 1.5], [0.5, -0.5], [2.0, 0.0]])
    yield "value_k2", value_grid_reduced(
        stable_reduced(), pts, [0.5, 1.0, 0.5, 0.5], 1.5, quad_cost, mc
    )
    mc = (1e-2, 400, 53)
    yield "safety_k2", safety_grid_reduced(
        unstable_reduced(), np.array([[1.1, 1.1], [0.5, 2.0]]), [0.5, 1.0],
        min_barrier, mc,
    )
    red1 = state_dependent_k1()
    mc = (1e-2, 250, 67)
    yield "value_k1", value_grid_reduced(
        red1, np.array([[0.0], [0.7], [-1.2]]), [0.0, 0.5, 0.0], 1.0,
        k1_square, mc, terminal_weight=0.5,
    )
    yield "safety_k1", safety_grid_reduced(
        red1, np.array([[0.0], [1.5]]), [0.5, 1.0], k1_level, mc
    )


# None keeps the default (every time's rows in one block); 1 gives each row
# its own block; 600 splits the three t = 0.5 rows of value_k2 into 2 + 1
@pytest.mark.parametrize("block_rows", [None, 1, 600])
def test_grids_match_recorded_per_point_loop(monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", block_rows)
    for name, grid in pinned_grids():
        est, se = PINNED[name]
        assert grid.estimates.tolist() == [float.fromhex(h) for h in est], name
        assert grid.std_errors.tolist() == [float.fromhex(h) for h in se], name


def test_bridge_estimate_matches_recorded_value():
    # recorded at commit 477a682, like PINNED
    cfg = SimConfig(dt=1e-2, horizon=1.0, seed=67, n_paths=250)
    est = safety_mc_reduced(state_dependent_k1(), [1.5], k1_level, 1.0, cfg,
                            bridge_correction=True)
    assert est.value == float.fromhex("0x1.877956ae2887dp-1")
    assert est.std_error == float.fromhex("0x1.a7ff97694534ap-6")


def test_block_domain_error_names_coordinate_and_start_point():
    red = build_reduced_sde(
        [lambda xi: 1.0 - xi],
        [lambda xi: 5.0 * np.ones_like(xi)],
        [(-1.0, 0.9)],
    )
    mc = (0.01, 64, 1)
    with pytest.raises(DomainError, match=r"alpha_1 .*start point \[0\.9\]"):
        value_grid_reduced(red, np.array([[-3.0], [0.9]]), 0.0, 1.0,
                           k1_square, mc)


def test_block_nonfinite_drift_names_path_start_point_and_step():
    red = build_reduced_sde(
        [lambda xi: np.ones_like(xi)],
        [lambda xi: np.where(xi > 3.0, np.nan, 0.0)],
        [(-3.0, 3.0)],
    )
    mc = (0.01, 16, 1)
    with pytest.raises(SimulationError,
                       match=r"path 0 of start point \[5\.\] at step 0"):
        value_grid_reduced(red, np.array([[0.0], [5.0]]), 0.5, 1.0,
                           k1_square, mc)


def error_cases():
    """(reduced, points, r, error, message) where several blocks of one
    time raise; the message is the one a single block of all rows raises."""
    zeros = lambda s: np.zeros_like(np.asarray(s, dtype=float))  # noqa: E731
    capped = lambda s: np.where(np.asarray(s) > 5.0, -1.0, 1.0)  # noqa: E731
    capped_at_one = build_reduced_sde(
        [lambda xi: 1.0 - xi], [lambda xi: 5.0 * np.ones_like(xi)],
        [(-1.0, 0.9)])
    # the [-3.] block fails too, but at a later step
    yield "earliest step", (
        capped_at_one, [[-3.0], [0.9]], k1_square,
        DomainError, r"alpha_1 .*start point \[0\.9\]",
    )
    # with one point per block, [0.9] is the second block of the calling
    # thread's lane, which must go on after its first block fails
    yield "earliest step in a later block of a lane", (
        capped_at_one, [[-3.0], [0.0], [0.9], [-2.0]], k1_square,
        DomainError, r"alpha_1 .*start point \[0\.9\]",
    )
    yield "coordinate before row", (
        build_reduced_sde([capped, capped], [zeros, zeros],
                          [(-4.0, 4.0), (-4.0, 4.0)]),
        [[0.0, 9.0], [9.0, 0.0]], quad_cost,
        DomainError, r"alpha_1 .*start point \[9\. 0\.\], step 0",
    )
    yield "alpha before the drift check", (
        build_reduced_sde(
            [capped],
            [lambda s: np.where(np.asarray(s) < -5.0, np.nan, 0.0)],
            [(-4.0, 4.0)]),
        [[-9.0], [9.0]], k1_square,
        DomainError, r"start point \[9\.\], step 0",
    )
    yield "march before the estimate", (
        build_reduced_sde([capped], [zeros], [(-4.0, 4.0)]),
        [[0.0], [9.0]], lambda xi: np.full(len(np.atleast_2d(xi)), 1e4),
        DomainError, r"start point \[9\.\], step 0",
    )


# None keeps the default (at least two blocks per time); 64 gives each start
# point of 64 paths its own block
@pytest.mark.parametrize("block_rows", [None, 64])
@pytest.mark.parametrize("case", [
    "earliest step", "earliest step in a later block of a lane",
    "coordinate before row", "alpha before the drift check",
    "march before the estimate"])
def test_grid_error_is_the_one_block_error(monkeypatch, block_rows, case):
    if block_rows is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", block_rows)
    red, points, r, error, message = dict(error_cases())[case]
    mc = (0.01, 64, 1)
    with pytest.raises(error, match=message):
        value_grid_reduced(red, np.array(points), 0.0, 1.0, r, mc)


# --- full-system march against recorded values ----------------------------------

def mixing_system():
    """3 states driven by 2 noises: the general diffusion_const branch."""
    return StochasticSystem(
        state_dim=3, control_dim=2, drift=lambda x: -0.5 * x,
        diffusion_const=np.array([[1.0, 0.3], [-0.2, 0.8], [0.5, 0.5]]),
    )


def state_noise_system():
    """2-d system with a state-dependent diffusion matrix."""
    def diffusion(x):
        row1 = np.stack([1.0 + 0.1 * x[:, 1] ** 2, 0.2 * np.tanh(x[:, 0])],
                        axis=1)
        row2 = np.stack([0.1 * np.ones(len(x)), 1.0 + 0.1 * x[:, 0] ** 2],
                        axis=1)
        return np.stack([row1, row2], axis=1)

    return StochasticSystem(state_dim=2, control_dim=2, drift=lambda x: -x,
                            diffusion=diffusion)


def diag_system():
    return StochasticSystem(
        state_dim=3, control_dim=3,
        drift=stable_full_system().drift,
        diffusion_const=np.diag([1.0, 0.5, 2.0]),
    )


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_full_march_matches_recorded_values():
    # float.hex values recorded at commit 8ab5b83, before the noise draw
    # moved to a helper thread; together they take every noise branch of
    # the full march and a non-zero policy
    zero = ControlPolicy(lambda x, t: 0.0 * x)
    cfg = SimConfig(dt=1e-2, horizon=0.5, seed=71, n_paths=200)
    est = value_pathintegral(diag_system(), [0.5, -0.3, 0.2], 0.0, 0.5,
                             CostSpec(full_cost, 0.5), cfg)
    assert hexes([est.value, est.std_error]) == [
        "0x1.f81aa46cfee00p-2", "0x1.8cc50b29030dep-6"]
    cfg = SimConfig(dt=1e-2, horizon=0.3, seed=89, n_paths=3)
    batch = simulate(diag_system(), zero, [0.5, -0.3, 0.2], cfg)
    assert hexes(batch.states[:, -1]) == [
        "0x1.659b8e59d99e0p-1", "0x1.a6aeba37cec13p-4",
        "-0x1.ec2c3bee4c0fbp-3", "0x1.123e5618f7350p-1",
        "0x1.3824d41b8dbe8p-3", "-0x1.c9cd859ae6b7cp-2",
        "0x1.0bb6a66ea358fp-3", "-0x1.2a82be6f68d65p-1",
        "-0x1.87aa65553f902p-1"]
    cfg = SimConfig(dt=1e-2, horizon=1.0, seed=73, n_paths=300)
    est = safety_mc(mixing_system(), ZeroPolicy(2), [0.5, 0.5, 0.5],
                    BarrierSpec(lambda x: 1.5 - np.abs(x).max(axis=1)), 1.0,
                    cfg)
    assert hexes([est.value, est.std_error]) == [
        "0x1.62fc962fc9630p-1", "0x1.b42d899cf9df6p-6"]
    cfg = SimConfig(dt=1e-2, horizon=0.3, seed=79, n_paths=3)
    batch = simulate(state_noise_system(), zero, [0.4, -0.6], cfg)
    assert hexes(batch.states[:, -1]) == [
        "0x1.0ea6330d6cddcp-1", "-0x1.ac09fe62e71a0p-1",
        "0x1.10f0c0a051889p-2", "-0x1.0810f1a8e240cp+0",
        "-0x1.8d84a534079dep-4", "-0x1.da506d60622c4p-1"]
    cfg = SimConfig(dt=1e-2, horizon=0.5, seed=83, n_paths=200)
    policy = ControlPolicy(lambda x, t: -0.5 * x + 0.1 * t)
    refined, diag = refine_control_importance_sampling(
        diag_system(), policy, CostSpec(full_cost, 1.0), [0.5, -0.3, 0.2],
        0.0, 0.1, cfg, n_bootstrap=20, return_diagnostics=True)
    assert hexes(refined) == ["-0x1.cb79c7ad68374p-5", "-0x1.2dac5340403e7p-3",
                              "-0x1.7b17e40ebf0f9p-4"]
    assert hexes(diag.effective_sample_size) == ["0x1.575247ad6a1abp+7"]


# Per-step sums of the sys1000d running cost over all paths (float.hex),
# recorded like the values above.  The cost's row sums round differently on
# C- and F-ordered states, and numpy gives ``x + f * dt + noise`` the F order
# of the sparse drift at 200 paths but C order at 20, so these pin the
# memory layout of the update as well as its values.
THOUSAND_DIM_COSTS = {
    20: ["0x1.0c5acd2477e13p-1", "0x1.ef2e1c7b315e1p-1",
         "0x1.32a9099afca3fp+0", "0x1.9a69b56959b9cp+0",
         "0x1.808811450202fp+0"],
    200: ["0x1.8b0071c756bd8p+2", "0x1.2dd15f759480fp+3",
          "0x1.9b9eed011ee5ep+3", "0x1.08ce07162ef72p+4",
          "0x1.1d5adeff9852ap+4"],
}


@pytest.mark.parametrize("n_paths", sorted(THOUSAND_DIM_COSTS))
def test_thousand_dim_march_matches_recorded_costs(n_paths):
    p = get_preset("sys1000d-value")
    cfg = SimConfig(dt=1e-2, horizon=0.05, seed=6, n_paths=n_paths)
    costs = []
    sde._run_full(p.system, ZeroPolicy(1000), p.x0_of_xi(np.array([1.5, 1.5])),
                  cfg, 1.0, lambda s, t, x, z: costs.append(p.cost_full(x)))
    assert hexes(np.sum(costs[1:], axis=1)) == THOUSAND_DIM_COSTS[n_paths]


# --- helper threads -------------------------------------------------------------

def test_grid_helper_lane_error_is_reraised_after_join():
    red = build_reduced_sde(
        [lambda xi: 1.0 - xi],
        [lambda xi: 5.0 * np.ones_like(xi)],
        [(-1.0, 0.9)],
    )
    mc = (0.01, 64, 1)
    before = threading.active_count()
    # [0.9] is the second of two blocks, marched on the helper thread
    with pytest.raises(DomainError, match=r"start point \[0\.9\]"):
        value_grid_reduced(red, np.array([[0.0], [0.9]]), 0.0, 1.0,
                           k1_square, mc)
    assert threading.active_count() == before


def test_grid_r_error_is_reraised_after_join():
    def r(xi):
        if (np.atleast_2d(xi)[:, 0] > 100.0).any():
            raise ValueError("r is undefined beyond 100")
        return k1_square(xi)

    mc = (0.01, 16, 1)
    before = threading.active_count()
    with pytest.raises(ValueError, match="r is undefined beyond 100"):
        value_grid_reduced(state_dependent_k1(), np.array([[0.0], [200.0]]),
                           0.5, 1.0, r, mc)
    assert threading.active_count() == before


def test_full_march_nonfinite_drift_is_raised_after_join():
    calls = []

    def drift(x):
        calls.append(1)
        return np.full_like(x, np.nan) if len(calls) > 3 else -x

    system = StochasticSystem(2, 2, drift, diffusion_const=np.eye(2))
    cfg = SimConfig(dt=0.01, horizon=0.5, seed=1, n_paths=8)
    before = threading.active_count()
    with pytest.raises(SimulationError, match="path 0 at step 3"):
        simulate(system, ZeroPolicy(2), np.zeros(2), cfg)
    assert threading.active_count() == before


def test_full_march_observer_error_is_raised_after_join():
    calls = []

    def cost(x):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("cost failed at its fifth call")
        return full_cost(x)

    cfg = SimConfig(dt=0.01, horizon=0.5, seed=1, n_paths=8)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="cost failed at its fifth call"):
        value_pathintegral(stable_full_system(), [0.5, 0.5, 0.5], 0.0, 0.5,
                           CostSpec(cost), cfg)
    assert threading.active_count() == before


def test_full_march_noise_error_is_reraised_after_join(monkeypatch):
    real = sde.step_noise

    def noise(seed, step, n, m):
        if step == 4:
            raise MemoryError("no room for step 4")
        return real(seed, step, n, m)

    monkeypatch.setattr(sde, "step_noise", noise)
    cfg = SimConfig(dt=0.01, horizon=0.5, seed=1, n_paths=8)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room for step 4"):
        simulate(stable_full_system(), ZeroPolicy(3), np.zeros(3), cfg)
    assert threading.active_count() == before
