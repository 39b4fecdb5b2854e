"""Generator-coefficient, level-table and reduced-SDE tests.

The 3-d reference system (drift (x1+x3, x2-x3, x3), unit diffusion) with
features p1 = x1 + x2, p2 = x3 has exact level coefficients a = (2, 1),
b = (xi1/2, xi2); several tests pin those values.
"""

import re

import numpy as np
import pytest
from scipy import stats

from featpde.errors import AssumptionViolationError, DomainError, UsageError
from featpde.neural import DenseNetwork
from featpde.reduction import (
    FeatureMap,
    build_reduced_sde,
    diffusion_diagonal,
    feature_map_from_encoder,
    generator_at,
    level_table,
)
from featpde.sde import (
    SimConfig,
    StochasticSystem,
    ZeroPolicy,
    simulate,
    simulate_reduced,
)
from gradient_cases import (feature_map_from_functions,
                            verify_feature_derivatives)


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


@pytest.mark.parametrize("const", [True, False])
def test_a_rotated_diffusion_passes_the_diagonal_check(const):
    # sigma has entries off its diagonal, but sigma sigma^T has none
    c, s = np.cos(0.3), np.sin(0.3)
    sigma = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 2.0]])
    if const:
        sys_r = StochasticSystem(3, 3, np.zeros_like, diffusion_const=sigma)
    else:
        sys_r = StochasticSystem(3, 3, np.zeros_like, diffusion=lambda x:
                                 np.broadcast_to(sigma, (len(x), 3, 3)))
    x = np.zeros((20, 3))
    got = diffusion_diagonal(sys_r, x)
    assert got.shape == (20, 3)
    assert np.array_equal(got[0], np.einsum("lc,lc->l", sigma, sigma))


def test_generator_refuses_a_feature_the_noise_misses():
    # sigma = diag(x1, 1), so the feature x1 has a_1 = x1^2, zero at x1 = 0
    def sigma(x):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = x[:, 0]
        out[:, 1, 1] = 1.0
        return out

    sys0 = StochasticSystem(2, 2, lambda x: np.zeros_like(x), diffusion=sigma)
    x = np.array([[0.5, 0.0], [0.0, 0.7]])
    with pytest.raises(AssumptionViolationError, match=re.escape(
            "a_1(x) = 0 is not positive at x = [0.  0.7]")):
        generator_at(sys0, ZeroPolicy(2), linear_map(np.array([[1.0, 0.0]])),
                     x)


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


def on_exact_levels(n_levels, per_level, seed):
    """States of the reference features on their level sets (to rounding):
    ``per_level`` states at each of ``n_levels`` levels, xi1 and xi2 both
    rising with the level, so the rank sections of either feature are the
    groups; shuffled."""
    rng = np.random.default_rng(seed)
    xi1 = np.repeat(np.linspace(-1.5, 1.5, n_levels), per_level)
    xi2 = np.repeat(np.linspace(-1.0, 1.0, n_levels), per_level)
    x1 = rng.uniform(-2.0, 2.0, xi1.size)
    return rng.permutation(np.column_stack([x1, xi1 - x1, xi2]))


def test_level_set_bounds_constant_coefficient():
    # a and b are constant on each level set, so on exact level sets every
    # level's spread is at rounding
    _, a, b = level_table(three_dim_literal(), ZeroPolicy(3),
                          three_dim_features(), on_exact_levels(5, 400, 3), 5)
    np.testing.assert_array_equal(a[1:], [[[2.0] * 5, [1.0] * 5]] * 2)
    for table in (a, b):
        spread = table[2] - table[1]
        assert np.all(spread <= 1e-9 * (1.0 + np.abs(table[2])))


def test_level_means_give_lipschitz_constants():
    # alpha is constant, beta has slope 1/2 and 1
    xi, a, b = level_table(three_dim_literal(), ZeroPolicy(3),
                           three_dim_features(), on_exact_levels(5, 400, 2),
                           5)

    def lipschitz(table):
        return np.max(np.abs(np.diff(table[0])) / np.diff(xi[0]), axis=1)

    assert lipschitz(a) == pytest.approx([0.0, 0.0], abs=1e-9)
    assert lipschitz(b) == pytest.approx([0.5, 1.0], rel=1e-6)


def test_level_set_bounds_detects_varying_sigma():
    # a = (1 + x2^2)^2 spans [1, 10.6) on the box at every x1 level
    states = np.random.default_rng(1).uniform(-1.5, 1.5, (6000, 3))
    _, a, _ = level_table(varying_sigma_system(), ZeroPolicy(3),
                          first_coordinate_feature(), states, 5)
    assert np.all(a[2] - a[1] > 0.5)


def test_check_assumptions_flags_violation():
    # the level-set constancy check (spread <= tol * (1 + |max|)) at
    # tol 1e-6 fails for a feature whose a varies on its level sets
    states = np.random.default_rng(2).uniform(-1.5, 1.5, (6000, 3))
    _, a, b = level_table(varying_sigma_system(), ZeroPolicy(3),
                          first_coordinate_feature(), states, 5)
    passed = np.ones(a.shape[1:], dtype=bool)
    for table in (a, b):
        passed &= table[2] - table[1] <= 1e-6 * (1.0 + np.abs(table[2]))
    assert not passed.all()
    assert not passed[0].any()


def test_level_table_of_no_features_is_empty():
    states = np.random.default_rng(0).uniform(-1.0, 1.0, (100, 3))
    tables = level_table(three_dim_literal(), ZeroPolicy(3),
                         linear_map(np.zeros((0, 3))), states, 5)
    assert [t.shape for t in tables] == [(3, 0, 5)] * 3


@pytest.mark.parametrize("n_states,n_levels,sizes", [
    (1000, 16, [63] * 8 + [62] * 8),  # np.array_split's uneven sections
    (5, 9, [1] * 5),  # more levels than states: one state per level
])
def test_level_table_bins_follow_array_split(n_states, n_levels, sizes):
    # x1 takes each of 0 .. n_states - 1 once, in shuffled order, so a
    # level's state count is its xi range plus one
    rng = np.random.default_rng(0)
    states = rng.uniform(-1.0, 1.0, (n_states, 3))
    states[:, 0] = rng.permutation(n_states)
    xi, a, b = level_table(three_dim_literal(), ZeroPolicy(3),
                           first_coordinate_feature(), states, n_levels)
    assert xi.shape == (3, 1, len(sizes))
    np.testing.assert_array_equal(xi[2, 0] - xi[1, 0] + 1, sizes)
    for table in (xi, a, b):
        assert np.all((table[1] <= table[0]) & (table[0] <= table[2]))


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
    verify_feature_derivatives(fm, probes, rtol=1e-5)


def test_verify_derivatives_catches_wrong_gradient():
    fm = feature_map(
        1, 2, lambda x: (x[:, 0] * x[:, 1])[:, None],
        lambda x: np.ones((len(x), 2, 1)),
        lambda x: np.zeros((len(x), 2, 1)),
    )
    with pytest.raises(AssertionError, match="gradient"):
        verify_feature_derivatives(fm, np.array([[0.4, 2.0]]))


def test_verify_derivatives_catches_wrong_second_derivative():
    # exact Jacobian of x2^3, but a zero Hessian diagonal
    fm = feature_map(
        1, 2, lambda x: (x[:, 1] ** 3)[:, None],
        lambda x: np.column_stack([np.zeros(len(x)),
                                   3.0 * x[:, 1] ** 2])[:, :, None],
        lambda x: np.zeros((len(x), 2, 1)),
    )
    with pytest.raises(AssertionError, match="in x2"):
        verify_feature_derivatives(fm, np.array([[0.4, 2.0]]))


def test_from_functions_synthesizes_derivatives():
    fm = feature_map_from_functions(
        k=1, n=2, p=lambda x: (x[:, 0] ** 2 + 3.0 * x[:, 1])[:, None]
    )
    x = np.array([[1.5, -0.4]])
    g, h00 = fm.derivatives(x, np.array([[1.0, 0.0]]))
    assert g[0, :, 0] == pytest.approx([3.0, 3.0], rel=1e-7)
    assert h00[0, 0] == pytest.approx(2.0, rel=1e-4)
    assert abs(fm.derivatives(x, np.array([[0.0, 1.0]]))[1][0, 0]) < 1e-4
