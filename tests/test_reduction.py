"""Generator-coefficient and assumption-check tests.

The 3-d reference system (drift (x1+x3, x2-x3, x3), unit diffusion) with
features p1 = x1 + x2, p2 = x3 has exact level coefficients a = (2, 1),
b = (xi1/2, xi2); several tests pin those values.
"""

import json

import numpy as np
import pytest
from scipy import stats

from featpde.errors import (
    AssumptionViolationError,
    DomainError,
    EmptyLevelSetError,
    UsageError,
)
from featpde.neural import DenseNetwork
from featpde.reduction import (
    FeatureMap,
    LevelSetSampler,
    build_reduced_sde,
    check_assumptions,
    feature_map_from_encoder,
    generator_at,
    level_set_bounds,
    verify_feature_derivatives,
)
from featpde.sde import (
    SimConfig,
    StochasticSystem,
    ZeroPolicy,
    simulate,
    simulate_reduced,
)


def three_dim_literal():
    def drift(x):
        return np.column_stack([x[:, 0] + x[:, 2], x[:, 1] - x[:, 2], x[:, 2]])

    return StochasticSystem(3, 3, drift, diffusion_const=np.eye(3))


def feature_map(k, n, p, jac, hess_diag):
    """FeatureMap of ``p`` from its Jacobian ``jac``: (N, n) -> (N, n, k)
    and its Hessian diagonals ``hess_diag``: (N, n) -> (N, n, k)."""

    def derivatives(x, w):
        lap = np.einsum("rl,rli->ri", w, hess_diag(x)[:, :w.shape[1]])
        return jac(x), lap

    return FeatureMap(k=k, n=n, p=p, derivatives=derivatives)


def linear_map(g):
    """The features x -> g x, g (k, n)."""
    k, n = g.shape
    return feature_map(
        k, n, lambda x: x @ g.T,
        lambda x: np.broadcast_to(g.T, (x.shape[0], n, k)),
        lambda x: np.zeros((x.shape[0], n, k)),
    )


def three_dim_features():
    return linear_map(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def varying_sigma_system():
    """sigma = diag(1 + x2^2, 1, 1): a for p = x1 varies on x1-level sets."""

    def diffusion(x):
        out = np.zeros((x.shape[0], 3, 3))
        out[:, 0, 0] = 1.0 + x[:, 1] ** 2
        out[:, 1, 1] = 1.0
        out[:, 2, 2] = 1.0
        return out

    return StochasticSystem(3, 3, lambda x: np.zeros_like(x), diffusion)


def first_coordinate_feature():
    return linear_map(np.array([[1.0, 0.0, 0.0]]))


def test_apply_generator_three_dim_probe():
    _, ap = generator_at(
        three_dim_literal(),
        ZeroPolicy(3),
        three_dim_features(),
        np.array([[1.0, 2.0, 3.0]]),
    )
    assert ap[0, 0] == pytest.approx(3.0, abs=1e-12)


def test_apply_generator_linear_feature_zero_drift():
    sys0 = StochasticSystem(
        3, 3, lambda x: np.zeros_like(x), diffusion_const=np.eye(3)
    )
    _, ap = generator_at(
        sys0, ZeroPolicy(3), three_dim_features(), np.array([[0.3, -1.0, 2.0]])
    )
    assert ap[0, 0] == 0.0


def test_apply_generator_ito_correction():
    sys0 = StochasticSystem(
        2, 2, lambda x: np.zeros_like(x), diffusion_const=np.eye(2)
    )
    fm = feature_map(
        1, 2, lambda x: x[:, :1] ** 2,
        lambda x: np.column_stack([2.0 * x[:, 0], np.zeros(len(x))])[:, :,
                                                                     None],
        lambda x: np.broadcast_to([[2.0], [0.0]], (len(x), 2, 1)),
    )
    _, ap = generator_at(sys0, ZeroPolicy(2), fm, np.array([[0.7, -0.2]]))
    assert ap[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_generator_refuses_non_diagonal_diffusion():
    sigma = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    sys_c = StochasticSystem(3, 3, lambda x: np.zeros_like(x),
                             diffusion_const=sigma)
    with pytest.raises(UsageError, match="diagonal sigma sigma"):
        generator_at(sys_c, ZeroPolicy(3), three_dim_features(),
                     np.zeros((4, 3)))


def test_coeff_a_three_dim_and_thousand_dim():
    sys3 = three_dim_literal()
    fm = three_dim_features()
    a, _ = generator_at(sys3, ZeroPolicy(3), fm,
                        np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]]))
    assert np.all(a[:, 0] == 2.0)
    assert np.all(a[:, 1] == 1.0)

    big = StochasticSystem(
        1000, 1000, lambda x: np.zeros_like(x), diffusion_const=np.eye(1000)
    )
    half = np.zeros((1, 1000))
    half[0, :500] = 1.0
    a_big, _ = generator_at(big, ZeroPolicy(1000), linear_map(half),
                            np.zeros((1, 1000)))
    assert a_big[0, 0] == 500.0


def test_coeff_b_second_feature_is_xi2():
    sys3 = three_dim_literal()
    fm = three_dim_features()
    x3 = np.array([0.5, -1.2, 3.0])
    x = np.column_stack([np.full(3, 9.0), np.full(3, 9.0), x3])
    a, ap = generator_at(sys3, ZeroPolicy(3), fm, x)
    assert np.all(a[:, 1] == 1.0)
    assert ap[:, 1] / a[:, 1] == pytest.approx(x3, abs=1e-12)


def test_coefficient_reconstruction_identity():
    # one batched call gives every state the coefficients of a call on
    # that state alone, and b * a reconstructs A p
    sys3 = three_dim_literal()
    fm = three_dim_features()
    pol = ZeroPolicy(3)
    x = np.random.default_rng(0).normal(size=(20, 3))
    a, ap = generator_at(sys3, pol, fm, x)
    b = ap / a
    for r in range(len(x)):
        a_r, ap_r = generator_at(sys3, pol, fm, x[r:r + 1])
        assert b[r] * a[r] == pytest.approx(ap_r[0], rel=1e-12, abs=1e-12)
        assert a[r] == pytest.approx(a_r[0], rel=1e-12, abs=1e-12)


def test_generator_is_linear_in_feature_map():
    sys3 = three_dim_literal()
    pol = ZeroPolicy(3)

    def ones(x):
        return np.ones(len(x))

    def zeros(x):
        return np.zeros(len(x))

    def quad_hess(x):
        return np.broadcast_to([[0.0], [0.0], [2.0]], (len(x), 3, 1))

    p_sum = feature_map(
        1, 3, lambda x: (x[:, 0] + x[:, 1] + x[:, 2] ** 2)[:, None],
        lambda x: np.column_stack([ones(x), ones(x), 2 * x[:, 2]])[:, :,
                                                                   None],
        quad_hess,
    )
    p_lin = three_dim_features()
    quad = feature_map(
        1, 3, lambda x: (x[:, 2] ** 2)[:, None],
        lambda x: np.column_stack([zeros(x), zeros(x), 2 * x[:, 2]])[:, :,
                                                                     None],
        quad_hess,
    )
    x = np.random.default_rng(4).normal(size=(10, 3))
    total = generator_at(sys3, pol, p_sum, x)[1][:, 0]
    parts = (generator_at(sys3, pol, p_lin, x)[1][:, 0]
             + generator_at(sys3, pol, quad, x)[1][:, 0])
    assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_level_set_bounds_constant_coefficient():
    sampler = LevelSetSampler((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), 8000, seed=3)
    a_lo, a_hi, b_lo, b_hi = level_set_bounds(
        three_dim_literal(), ZeroPolicy(3), three_dim_features(), 0, 0.5,
        sampler
    )
    assert a_lo == 2.0 and a_hi == 2.0
    # raw band bounds straddle the level drift b = xi/2
    assert b_lo <= 0.25 <= b_hi


def test_level_set_bounds_detects_varying_sigma():
    sampler = LevelSetSampler(
        (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), 8000, seed=1
    )
    a_lo, a_hi, _, _ = level_set_bounds(
        varying_sigma_system(), ZeroPolicy(3), first_coordinate_feature(),
        0, 0.0, sampler
    )
    assert a_hi > a_lo
    assert a_hi - a_lo > 0.5  # a = (1 + x2^2)^2 spans [1, 6.25) on the box


def test_level_set_bounds_monotone_in_sample_count():
    small = LevelSetSampler((-1.5,) * 3, (1.5,) * 3, 1000, band=0.05, seed=1)
    large = LevelSetSampler((-1.5,) * 3, (1.5,) * 3, 6000, band=0.05, seed=1)
    sys_v = varying_sigma_system()
    fm = first_coordinate_feature()
    lo1, hi1, bl1, bh1 = level_set_bounds(sys_v, ZeroPolicy(3), fm, 0, 0.0,
                                          small)
    lo2, hi2, bl2, bh2 = level_set_bounds(sys_v, ZeroPolicy(3), fm, 0, 0.0,
                                          large)
    assert hi2 >= hi1 and lo2 <= lo1
    assert bh2 >= bh1 and bl2 <= bl1


def test_level_set_bounds_empty_band():
    sampler = LevelSetSampler((-1.0,) * 3, (1.0,) * 3, 500, seed=0)
    with pytest.raises(EmptyLevelSetError):
        level_set_bounds(
            three_dim_literal(), ZeroPolicy(3), three_dim_features(), 0, 50.0,
            sampler
        )


def test_check_assumptions_three_dim_satisfied_tight():
    sampler = LevelSetSampler((-2.0,) * 3, (2.0,) * 3, 6000, seed=2)
    report = check_assumptions(
        three_dim_literal(), ZeroPolicy(3), three_dim_features(), sampler,
        tol=1e-9
    )
    assert report.satisfied
    assert all(e.verdict == "satisfied" for e in report.entries)
    # alpha is constant, beta has slope 1/2 and 1
    assert report.lipschitz_alpha[0] == pytest.approx(0.0, abs=1e-9)
    assert report.lipschitz_beta[0] == pytest.approx(0.5, rel=1e-6)
    assert report.lipschitz_beta[1] == pytest.approx(1.0, rel=1e-6)


def test_check_assumptions_flags_violation():
    sampler = LevelSetSampler((-1.5,) * 3, (1.5,) * 3, 6000, seed=2)
    report = check_assumptions(
        varying_sigma_system(), ZeroPolicy(3), first_coordinate_feature(),
        sampler
    )
    assert not report.satisfied
    assert any(e.verdict == "violated" for e in report.entries)


def test_check_assumptions_empty_feature_map_vacuous():
    fm = linear_map(np.zeros((0, 3)))
    sampler = LevelSetSampler((-1.0,) * 3, (1.0,) * 3, 100, seed=0)
    report = check_assumptions(
        three_dim_literal(), ZeroPolicy(3), fm, sampler
    )
    assert report.satisfied
    assert report.entries == []


def test_assumption_report_json_schema(tmp_path):
    sampler = LevelSetSampler((-2.0,) * 3, (2.0,) * 3, 4000, seed=2)
    report = check_assumptions(
        three_dim_literal(), ZeroPolicy(3), three_dim_features(), sampler,
        tol=1e-9, n_levels=3
    )
    out = tmp_path / "report.json"
    report.to_json(str(out))
    data = json.loads(out.read_text())
    assert data["satisfied"] is True
    assert len(data["levels"]) == 6
    for row in data["levels"]:
        assert set(row) == {
            "coordinate", "xi", "a_minus", "a_plus", "b_minus", "b_plus",
            "verdict",
        }
    assert {row["coordinate"] for row in data["levels"]} == {1, 2}


def test_build_reduced_sde_validation():
    red = build_reduced_sde(
        [lambda xi: 500.0 * np.ones_like(xi)] * 2,
        [lambda xi: xi / 500.0] * 2,
        [(-100.0, 100.0)] * 2,
    )
    assert red.k == 2
    with pytest.raises(DomainError, match="alpha_1"):
        build_reduced_sde(
            [lambda xi: xi],  # nonpositive at left end
            [lambda xi: np.zeros_like(xi)],
            [(-1.0, 1.0)],
        )
    with np.errstate(divide="ignore"):
        with pytest.raises(DomainError, match="beta_1"):
            build_reduced_sde(
                [lambda xi: np.ones_like(xi)],
                [lambda xi: 1.0 / (xi - 0.5)],
                [(0.0, 1.0)],
            )


def test_reduced_law_matches_full_law():
    # the comparison-theorem equivalence: p(x_t) and xi_t agree in law
    sys3 = three_dim_literal()
    fm = three_dim_features()
    red = build_reduced_sde(
        [lambda xi: 2.0 * np.ones_like(xi), lambda xi: np.ones_like(xi)],
        [lambda xi: xi / 2.0, lambda xi: np.asarray(xi)],
        [(-60.0, 60.0), (-40.0, 40.0)],
    )
    n = 10_000
    cfg_full = SimConfig(dt=1e-3, horizon=0.5, seed=21, n_paths=n)
    cfg_red = SimConfig(dt=1e-3, horizon=0.5, seed=22, n_paths=n)
    x0 = np.array([1.0, 0.0, 1.0])
    full = simulate(sys3, ZeroPolicy(3), x0, cfg_full)
    red_batch = simulate_reduced(red, fm.p(x0[None])[0], cfg_red)
    crit = 1.628 * np.sqrt(2.0 / n)
    feats_full = fm.p(full.states[:, -1, :])
    for i in range(2):
        ks = stats.ks_2samp(feats_full[:, i], red_batch.states[:, -1, i])
        assert ks.statistic < crit


def test_feature_map_from_encoder_derivatives():
    net = DenseNetwork.init((3, 8, 2), seed=123)
    fm = feature_map_from_encoder(net)
    assert fm.k == 2 and fm.n == 3
    rng = np.random.default_rng(5)
    probes = rng.normal(size=(6, 3))
    assert verify_feature_derivatives(fm, probes, rtol=1e-5)


def test_verify_derivatives_catches_wrong_gradient():
    fm = feature_map(
        1, 2, lambda x: (x[:, 0] * x[:, 1])[:, None],
        lambda x: np.ones((len(x), 2, 1)),
        lambda x: np.zeros((len(x), 2, 1)),
    )
    with pytest.raises(AssumptionViolationError, match="gradient"):
        verify_feature_derivatives(fm, np.array([[0.4, 2.0]]))


def test_verify_derivatives_catches_wrong_second_derivative():
    # exact Jacobian of x2^3, but a zero Hessian diagonal
    fm = feature_map(
        1, 2, lambda x: (x[:, 1] ** 3)[:, None],
        lambda x: np.column_stack([np.zeros(len(x)),
                                   3.0 * x[:, 1] ** 2])[:, :, None],
        lambda x: np.zeros((len(x), 2, 1)),
    )
    with pytest.raises(AssumptionViolationError, match="in x2"):
        verify_feature_derivatives(fm, np.array([[0.4, 2.0]]))


def test_from_functions_synthesizes_derivatives():
    fm = FeatureMap.from_functions(
        k=1, n=2, p=lambda x: (x[:, 0] ** 2 + 3.0 * x[:, 1])[:, None]
    )
    assert fm.synthesized
    x = np.array([[1.5, -0.4]])
    g, h00 = fm.derivatives(x, np.array([[1.0, 0.0]]))
    assert g[0, :, 0] == pytest.approx([3.0, 3.0], rel=1e-7)
    assert h00[0, 0] == pytest.approx(2.0, rel=1e-4)
    assert abs(fm.derivatives(x, np.array([[0.0, 1.0]]))[1][0, 0]) < 1e-4
    # synthesized derivatives skip the self-check
    assert verify_feature_derivatives(fm, np.zeros((1, 2))) is False
