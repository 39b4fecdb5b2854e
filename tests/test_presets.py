"""Pinned constants of the shipped presets."""

import numpy as np
import pytest

from featpde.errors import UsageError
from featpde.pde import riccati_value
from featpde.presets import (
    feature_state_grid,
    get_preset,
    preset_names,
    thousand_dim_system,
    three_dim_system,
)
from featpde.reduction import coeff_a, coeff_b
from featpde.sde import ZeroPolicy

ALL_NAMES = [
    "feature-ae-3d",
    "heat-oracle",
    "lq-scalar",
    "sys1000d-value",
    "sys3d-safety",
    "sys3d-value",
]


def test_preset_names_and_unknown():
    assert preset_names() == ALL_NAMES
    with pytest.raises(UsageError, match="unknown preset"):
        get_preset("sys4d")


def test_presets_build_fresh_instances():
    a = get_preset("lq-scalar")
    b = get_preset("lq-scalar")
    assert a is not b and a.reduced is not b.reduced


def test_three_dim_drift_sign_conventions():
    x = np.array([[1.0, 2.0, 3.0]])
    literal = three_dim_system(stable=False).drift(x)[0]
    stable = three_dim_system(stable=True).drift(x)[0]
    assert np.allclose(literal, [4.0, -1.0, 3.0])
    assert np.allclose(stable, [-4.0, 1.0, -3.0])


def test_sys3d_value_constants():
    p = get_preset("sys3d-value")
    assert p.task == "value" and p.horizon == 1.5 and p.k == 2
    assert np.isclose(p.r(np.array([[1.5, 1.5]]))[0], 2.25)
    assert np.isclose(
        p.cost_full(np.array([[0.75, 0.75, 1.5]]))[0], 2.25
    )
    # features of the preset's state embedding reproduce xi
    xi = np.array([1.3, 1.8])
    assert np.allclose(p.features.p(p.x0_of_xi(xi)[None])[0], xi)
    # frozen reference: cross-validated against the FD oracle and the
    # full-system path-integral estimate in the pde/montecarlo tests
    got = riccati_value(p.lq, np.array([[1.5, 1.5]]), 0.5)
    assert got == pytest.approx(0.17539071051318245, rel=1e-12)
    prob = p.pde_problem()
    assert prob.kind == "value"
    # terminal data is exp(-r)
    pts = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert np.allclose(prob.data(pts), np.exp(-p.r(pts)))


def test_sys3d_value_reduced_coefficients():
    p = get_preset("sys3d-value")
    s = np.array([0.5, -2.0, 4.0])
    assert np.allclose(p.reduced.alpha[0](s), 2.0)
    assert np.allclose(p.reduced.alpha[1](s), 1.0)
    assert np.allclose(p.reduced.beta[0](s), -s / 2.0)
    assert np.allclose(p.reduced.beta[1](s), -s)


def test_sys3d_safety_constants():
    p = get_preset("sys3d-safety")
    assert p.task == "safety" and p.horizon == 1.0
    assert np.isclose(p.r(np.array([[1.1, 1.1]]))[0], 2.9)
    assert np.isclose(
        p.barrier_full(np.array([[0.55, 0.55, 1.1]]))[0], 2.9
    )
    # literal (unstable) drift and positive-slope reduced drift
    assert np.allclose(
        p.system.drift(np.array([[1.0, 2.0, 3.0]]))[0], [4.0, -1.0, 3.0]
    )
    s = np.array([1.0, 2.0])
    assert np.allclose(p.reduced.beta[0](s), s / 2.0)
    prob = p.pde_problem()
    assert prob.kind == "safety" and prob.boundary == "reflect"
    # initial data is the safe-set indicator
    pts = np.array([[1.0, 1.0], [5.0, 1.0], [3.9, 3.9]])
    assert np.allclose(prob.data(pts), [1.0, 0.0, 1.0])


def test_thousand_dim_coupling_matrix_structure():
    sys = thousand_dim_system(stable=False)
    # read the matrix through drift on basis vectors
    e0 = np.zeros((1, 1000))
    e0[0, 0] = 1.0
    col0 = sys.drift(e0)[0]  # column 0 of A_bar
    assert col0[0] == pytest.approx(1.1)
    # column 0 receives +0.1 from rows with (i+2)%500 == 0 or (i+4)%500 == 0
    assert col0[498] == pytest.approx(0.1)
    assert col0[496] == pytest.approx(0.1)
    assert col0[494] == pytest.approx(-0.1)
    assert col0[492] == pytest.approx(-0.1)
    # no cross-block coupling
    assert np.allclose(col0[500:], 0.0)
    e500 = np.zeros((1, 1000))
    e500[0, 500] = 1.0
    col500 = sys.drift(e500)[0]
    assert col500[500] == pytest.approx(1.1)
    assert np.allclose(col500[:500], 0.0)


def test_sys1000d_value_consistency():
    p = get_preset("sys1000d-value")
    xi = np.array([1.5, 1.5])
    x0 = p.x0_of_xi(xi)
    assert x0.shape == (1000,)
    assert np.allclose(p.features.p(x0[None])[0], xi)
    # running cost on the embedded state equals r on features
    assert np.isclose(p.cost_full(x0[None])[0], p.r(xi[None])[0])
    assert np.isclose(p.r(xi[None])[0], 4.5 / 500.0)
    s = np.array([2.0])
    assert np.allclose(p.reduced.alpha[0](s), 500.0)
    assert np.allclose(p.reduced.beta[0](s), -1.1 * s / 500.0)


def _has(name, *fields):
    p = get_preset(name)
    return all(getattr(p, f) is not None for f in fields)


@pytest.mark.parametrize("name", [
    n for n in ALL_NAMES if _has(n, "system", "features", "reduced",
                                 "x0_of_xi")])
def test_reduced_sde_matches_full_system(name):
    # at an embedded state the generator coefficients of each feature are
    # the reduced SDE's, and the full cost or barrier is r
    p = get_preset(name)
    full_r = p.cost_full if p.task == "value" else p.barrier_full
    nominal = ZeroPolicy(p.system.control_dim)
    for xi in ([1.5, 1.5], [1.1, 1.9], [-0.7, 2.3]):
        xi = np.array(xi)
        x0 = p.x0_of_xi(xi)
        for i in range(p.k):
            s = xi[i:i + 1]
            assert coeff_a(p.system, p.features, i, x0) == pytest.approx(
                p.reduced.alpha[i](s)[0], rel=1e-12)
            assert coeff_b(p.system, nominal, p.features, i, x0) == \
                pytest.approx(p.reduced.beta[i](s)[0], rel=1e-12)
        assert full_r(x0[None])[0] == pytest.approx(p.r(xi[None])[0],
                                                   rel=1e-12)


@pytest.mark.parametrize("name", [n for n in ALL_NAMES
                                  if _has(n, "lq", "reduced")])
def test_lq_form_matches_reduced_sde(name):
    # d xi = M xi dt + Sigma^(1/2) dB with cost xi^T R xi and terminal
    # weight R_T is the reduced SDE d xi_i = alpha_i beta_i dt +
    # alpha_i^(1/2) dB_i with cost r
    p = get_preset(name)
    xi = np.linspace(-1.5, 2.0, 3 * p.k).reshape(3, p.k)
    alpha = np.column_stack([p.reduced.alpha[i](xi[:, i])
                             for i in range(p.k)])
    beta = np.column_stack([p.reduced.beta[i](xi[:, i])
                            for i in range(p.k)])
    np.testing.assert_allclose(xi @ p.lq.M.T, alpha * beta, rtol=1e-12)
    np.testing.assert_allclose(np.broadcast_to(p.lq.Sigma, (3, p.k, p.k)),
                               alpha[:, :, None] * np.eye(p.k), rtol=1e-12)
    np.testing.assert_allclose(np.einsum("ni,ij,nj->n", xi, p.lq.R, xi),
                               p.r(xi), rtol=1e-12)
    np.testing.assert_allclose(p.lq.R_T, p.terminal_weight * p.lq.R,
                               rtol=1e-12)
    assert p.lq.horizon == p.horizon


def test_lq_scalar_reference_value():
    p = get_preset("lq-scalar")
    got = riccati_value(p.lq, np.array([[0.0]]), 0.0)
    assert got == pytest.approx(0.7436954806413412, rel=1e-12)


def test_heat_oracle_analytic_form():
    p = get_preset("heat-oracle")
    prob = p.pde_problem()
    assert prob is p.problem_override
    xi = np.array([[np.pi / 2.0]])
    # terminal data sin(xi); analytic solution decays by exp(-(T-t)/2)
    assert prob.data(xi)[0] == pytest.approx(1.0)
    assert p.analytic(xi, p.horizon)[0] == pytest.approx(1.0)
    assert p.analytic(xi, 0.0)[0] == pytest.approx(np.exp(-0.5))
    assert p.analytic(np.array([[0.0]]), 0.3)[0] == pytest.approx(0.0)
    # nominal oracle step resolves [0, pi] into whole cells
    assert (np.pi / p.oracle_dxi) == pytest.approx(314.0)


def test_feature_ae_state_grid():
    p = get_preset("feature-ae-3d")
    states = feature_state_grid(p)
    assert states.shape == (101**3, 3)
    assert np.allclose(states[0], [0.0, 0.0, 0.0])
    assert np.allclose(states[-1], [1.0, 1.0, 1.0])
    with pytest.raises(UsageError, match="state grid"):
        feature_state_grid(get_preset("lq-scalar"))
