"""Tests for physics-informed training: losses, the Adam loop, prediction."""

import math
import threading

import numpy as np
import pytest

import gradient_cases as gc
from conftest import LateHelper
from featpde import pinn
from featpde.errors import ConfigError, UsageError
from featpde.neural import DenseNetwork, derivatives_batch, forward
from featpde.pde import LqSpec, PdeProblem, assemble_value_pde, riccati_value
from featpde.pinn import (
    CollocationSet,
    PinnConfig,
    PredictionGrid,
    TrainingDataset,
    data_loss,
    physics_loss,
    predict_grid,
    train,
)
from featpde.presets import get_preset
from featpde.reduction import build_reduced_sde


def const(v):
    return lambda s: np.full_like(np.asarray(s, dtype=np.float64), v)


def stable_reduced():
    return build_reduced_sde(
        alpha=[const(2.0), const(1.0)],
        beta=[lambda s: -np.asarray(s, float) / 2.0,
              lambda s: -np.asarray(s, float)],
        ranges=[(-6.0, 6.0), (-6.0, 6.0)],
    )


def quad_cost(xi):
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    return 0.5 * (xi[:, 0] ** 2 + xi[:, 1] ** 2)


def value_problem(domain=((1.0, 2.0), (1.0, 2.0)), horizon=1.5):
    return assemble_value_pde(stable_reduced(), quad_cost, 1.0,
                              list(domain), horizon)


def heat_problem():
    # driftless forward problem: residual is u_t - u_xx when the diagonal is 2
    return PdeProblem(
        kind="safety",
        k=1,
        drift=lambda xi: np.zeros_like(np.atleast_2d(xi)),
        diffusion_diag=lambda xi: np.full_like(np.atleast_2d(xi), 2.0),
        reaction=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        data=lambda xi: np.sin(np.atleast_2d(xi)[:, 0]),
        domain=[(0.0, np.pi)],
        horizon=1.0,
        barrier=lambda xi: np.ones(np.atleast_2d(xi).shape[0]),
    )


def riccati_lq():
    return LqSpec(M=-np.eye(2), Sigma=np.diag([2.0, 1.0]),
                  R=0.5 * np.eye(2), R_T=0.5 * np.eye(2), horizon=1.5)


def riccati_dataset(n_per_axis=11, times=(1.0, 1.1, 1.2, 1.3, 1.4, 1.5)):
    lq = riccati_lq()
    ax = np.linspace(1.0, 2.0, n_per_axis)
    times = np.asarray(times, dtype=np.float64)
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    nodes = np.column_stack([g1.ravel(), g2.ravel()])
    vals = np.stack([riccati_value(lq, nodes, t).reshape(n_per_axis, n_per_axis)
                     for t in times])
    return TrainingDataset.from_grid([ax, ax], times, vals, provenance="file")


# ---------------------------------------------------------------- losses


def test_constant_net_has_zero_physics_loss_without_reaction():
    prob = heat_problem()
    net = DenseNetwork.init((2, 4, 1), seed=0)
    net.theta[:] = 0.0
    net.theta[-1] = 1.0  # output bias: net is identically 1
    colloc = CollocationSet.sample(prob.domain, prob.horizon, 50, seed=1)
    assert physics_loss(net, prob, colloc) == 0.0


def test_physics_loss_matches_hand_computed_residual():
    # one hidden layer on the driftless problem: residual is u_t - u_xx,
    # and every derivative of w2·tanh(w1x·x + w1t·t + b1) + b2 is explicit
    prob = heat_problem()
    net = DenseNetwork.init((2, 3, 1), seed=7)
    colloc = CollocationSet.sample(prob.domain, prob.horizon, 40, seed=2)

    w1, b1 = net.layer_views()[0]
    w2, b2 = net.layer_views()[1]
    z = colloc.inputs() @ w1 + b1
    th = np.tanh(z)
    sech2 = 1.0 - th ** 2
    u_t = (sech2 * w1[1]) @ w2[:, 0]
    u_xx = (-2.0 * th * sech2 * w1[0] ** 2) @ w2[:, 0]
    expected = float(np.mean((u_t - u_xx) ** 2))

    assert physics_loss(net, prob, colloc) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("make_problem", [value_problem, heat_problem])
def test_residual_matches_the_reference_residual(make_problem):
    # the training residual from the bundle's weighted trace against the
    # reference expression on one-point derivatives
    prob = make_problem()
    k = prob.k
    net = DenseNetwork.init((k + 1, 6, 6, 1), seed=4)
    colloc = CollocationSet.sample(prob.domain, prob.horizon, 25, seed=3)
    res = pinn._residual(net, prob, colloc.inputs(),
                         pinn._coefficients(prob, colloc.xi))[0]

    def candidate(xi, t):
        rows = [gc.forward_with_derivatives(net, np.append(x, s))
                for x, s in zip(xi, t)]
        jac = np.array([b.input_jacobian[0] for b in rows])
        hess = np.array([b.input_hessian_diag[0] for b in rows])
        u = np.array([b.value[0] for b in rows])
        return u, jac[:, k], jac[:, :k], hess[:, :k]

    ref = gc.residual(prob, candidate, colloc.xi, colloc.t)
    np.testing.assert_allclose(res, ref, rtol=0,
                               atol=1e-14 * np.abs(ref).max())


def test_physics_loss_rejects_width_mismatch():
    prob = heat_problem()
    net = DenseNetwork.init((4, 3, 1), seed=0)
    colloc = CollocationSet.sample(prob.domain, prob.horizon, 10, seed=0)
    with pytest.raises(UsageError):
        physics_loss(net, prob, colloc)


def test_physics_loss_rejects_empty_collocation():
    prob = heat_problem()
    net = DenseNetwork.init((2, 3, 1), seed=0)
    with pytest.raises(ConfigError):
        physics_loss(net, prob, CollocationSet(xi=np.empty((0, 1)), t=[]))


def test_data_loss_zero_when_net_reproduces_targets():
    net = DenseNetwork.init((3, 5, 1), seed=3)
    xi = np.array([[1.2, 1.4], [1.6, 1.1], [1.9, 1.8]])
    t = np.array([0.2, 0.9, 1.4])
    targets = forward(net, np.column_stack([xi, t]))[:, 0]
    data = TrainingDataset(xi=xi, t=t, target=targets)
    assert data_loss(net, data) == 0.0


def test_data_loss_constant_zero_net_against_unit_targets():
    net = DenseNetwork.init((3, 5, 1), seed=0)
    net.theta[:] = 0.0
    data = TrainingDataset(xi=np.random.default_rng(0).uniform(1, 2, (20, 2)),
                           t=np.linspace(0, 1, 20), target=np.ones(20))
    assert data_loss(net, data) == 1.0


def test_data_loss_is_permutation_invariant():
    net = DenseNetwork.init((3, 8, 1), seed=5)
    rng = np.random.default_rng(11)
    xi = rng.uniform(1, 2, (40, 2))
    t = rng.uniform(0, 1.5, 40)
    y = rng.normal(size=40)
    perm = rng.permutation(40)
    a = data_loss(net, TrainingDataset(xi=xi, t=t, target=y))
    b = data_loss(net, TrainingDataset(xi=xi[perm], t=t[perm], target=y[perm]))
    assert math.isclose(a, b, rel_tol=1e-12)


def test_data_loss_rejects_empty_dataset():
    net = DenseNetwork.init((3, 5, 1), seed=0)
    with pytest.raises(ConfigError):
        data_loss(net, TrainingDataset(xi=np.empty((0, 2)), t=[], target=[]))


# ---------------------------------------------------------------- config


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        PinnConfig(omega_p=-0.1)
    with pytest.raises(ConfigError):
        PinnConfig(omega_p=0.0, omega_d=0.0)
    with pytest.raises(ConfigError):
        PinnConfig(epochs=0)
    with pytest.raises(ConfigError):
        PinnConfig(lr=0.0)
    with pytest.raises(ConfigError):
        PinnConfig(widths=())
    with pytest.raises(ConfigError):
        PinnConfig(batch_size=0)
    with pytest.raises(ConfigError):
        PinnConfig(log_every=0)
    with pytest.raises(ConfigError):
        PinnConfig(omega_p=1.0, n_domain=0)
    # physics disabled: zero collocation budget is fine
    PinnConfig(omega_p=0.0, omega_d=1.0, n_domain=0)


def test_dataset_validation():
    with pytest.raises(UsageError):
        TrainingDataset(xi=np.ones((3, 2)), t=[0.1, 0.2], target=[1, 2, 3])
    with pytest.raises(UsageError):
        TrainingDataset(xi=np.ones((2, 2)), t=[0.1, 0.2], target=[1.0, np.nan])
    with pytest.raises(UsageError):
        TrainingDataset(xi=np.ones((1, 2)), t=[0.1], target=[1.0],
                        provenance="guess")


def test_dataset_from_grid_row_layout():
    ax = [np.array([1.0, 2.0]), np.array([10.0, 20.0, 30.0])]
    times = np.array([0.5, 1.5])
    vals = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
    ds = TrainingDataset.from_grid(ax, times, vals)
    assert len(ds) == 12
    # times vary slowest, then axis 0, then axis 1
    row = 1 * 6 + 1 * 3 + 2  # t=1.5, xi1=2.0, xi2=30.0
    assert ds.t[row] == 1.5
    assert tuple(ds.xi[row]) == (2.0, 30.0)
    assert ds.target[row] == vals[1, 1, 2]


def test_collocation_sampler_is_deterministic_and_in_box():
    dom = [(1.0, 2.0), (-3.0, -1.0)]
    a = CollocationSet.sample(dom, 1.5, 200, seed=4)
    b = CollocationSet.sample(dom, 1.5, 200, seed=4)
    c = CollocationSet.sample(dom, 1.5, 200, seed=5)
    assert np.array_equal(a.inputs(), b.inputs())
    assert not np.array_equal(a.inputs(), c.inputs())
    assert len(a) == 200
    assert a.xi[:, 0].min() >= 1.0 and a.xi[:, 0].max() <= 2.0
    assert a.xi[:, 1].min() >= -3.0 and a.xi[:, 1].max() <= -1.0
    assert a.t.min() >= 0.0 and a.t.max() <= 1.5


# ---------------------------------------------------------------- training


def test_train_rejects_bad_data():
    prob = value_problem()
    cfg = PinnConfig(epochs=1, n_domain=10)
    with pytest.raises(ConfigError):
        train(prob, None, cfg)
    bad_dim = TrainingDataset(xi=np.ones((2, 3)), t=[1.0, 1.2],
                              target=[0.1, 0.2])
    with pytest.raises(UsageError):
        train(prob, bad_dim, cfg)
    outside = TrainingDataset(xi=np.array([[0.2, 1.5]]), t=[1.0],
                              target=[0.1])
    with pytest.raises(UsageError):
        train(prob, outside, cfg)
    late = TrainingDataset(xi=np.array([[1.5, 1.5]]), t=[2.0], target=[0.1])
    with pytest.raises(UsageError):
        train(prob, late, cfg)


def test_loss_decreases_over_first_100_steps_for_most_seeds():
    prob = value_problem()
    data = riccati_dataset(n_per_axis=6, times=(1.0, 1.25, 1.5))
    wins = 0
    for seed in range(20):
        cfg = PinnConfig(epochs=100, n_domain=100, seed=seed, log_every=100)
        res = train(prob, data, cfg)
        first, last = res.log[0], res.log[-1]
        assert first[0] == 0 and last[0] == 100
        if last[1] + last[2] < first[1] + first[2]:
            wins += 1
    assert wins >= 18, f"loss decreased for only {wins}/20 seeds"


def test_logged_losses_match_public_loss_functions():
    prob = value_problem()
    data = riccati_dataset(n_per_axis=4, times=(1.0, 1.5))
    cfg = PinnConfig(epochs=40, n_domain=50, seed=2, log_every=20,
                     widths=(8, 8))
    res = train(prob, data, cfg)
    epochs_logged = [e for e, _, _ in res.log]
    assert epochs_logged == [0, 20, 40]

    # closing entry is the loss at the returned parameters, and the recorded
    # pair must agree exactly with the public loss functions
    lp, ld = res.log[-1][1], res.log[-1][2]
    assert physics_loss(res.net, prob, res.collocation) == lp
    assert data_loss(res.net, data) == ld

    # entry 0 is the loss at the freshly initialized network
    init = DenseNetwork.init((3, 8, 8, 1), cfg.seed)
    assert physics_loss(init, prob, res.collocation) == res.log[0][1]
    assert data_loss(init, data) == res.log[0][2]


def test_training_is_deterministic_per_seed():
    prob = value_problem()
    data = riccati_dataset(n_per_axis=4, times=(1.0, 1.5))
    cfg = PinnConfig(epochs=60, n_domain=40, seed=9, widths=(8, 8))
    r1 = train(prob, data, cfg)
    r2 = train(prob, data, cfg)
    assert np.array_equal(r1.net.theta, r2.net.theta)
    assert r1.log == r2.log
    r3 = train(prob, data, PinnConfig(epochs=60, n_domain=40, seed=10,
                                      widths=(8, 8)))
    assert not np.array_equal(r1.net.theta, r3.net.theta)


def test_data_only_training_interpolates():
    # omega_p = 0 reduces training to plain regression on the targets
    prob = value_problem()
    data = riccati_dataset(n_per_axis=6, times=(1.0, 1.25, 1.5))
    cfg = PinnConfig(omega_p=0.0, omega_d=1.0, n_domain=0, epochs=4000,
                     seed=1, widths=(16, 16), lr=3e-3, log_every=500)
    res = train(prob, data, cfg)
    assert res.aborted_epoch is None
    assert data_loss(res.net, data) < 1e-4
    assert all(lp == 0.0 for _, lp, _ in res.log)


def test_physics_only_training_runs_without_data():
    prob = value_problem()
    cfg = PinnConfig(omega_p=1.0, omega_d=0.0, n_domain=60, epochs=30,
                     seed=0, widths=(8,))
    res = train(prob, None, cfg)
    assert res.aborted_epoch is None
    assert len(res.log) >= 2
    assert all(ld == 0.0 for _, _, ld in res.log)


def test_nonfinite_loss_aborts_and_restores_checkpoint():
    prob = value_problem()
    # finite targets of absurd magnitude overflow the squared error
    data = TrainingDataset(xi=np.array([[1.5, 1.5]]), t=[1.0],
                           target=[1e200])
    cfg = PinnConfig(epochs=50, n_domain=10, seed=6, widths=(4,))
    with np.errstate(over="ignore"):
        res = train(prob, data, cfg)
    assert res.aborted_epoch == 0
    assert np.all(np.isfinite(res.net.theta))
    assert np.array_equal(res.net.theta,
                          DenseNetwork.init((3, 4, 1), cfg.seed).theta)


def test_minibatch_and_resampling_paths_run():
    prob = value_problem()
    data = riccati_dataset(n_per_axis=5, times=(1.0, 1.5))
    cfg = PinnConfig(epochs=30, n_domain=30, seed=3, widths=(8,),
                     batch_size=16)
    res = train(prob, data, cfg)
    assert res.aborted_epoch is None
    assert np.array_equal(
        res.net.theta, train(prob, data, cfg).net.theta)

    cfg_rs = PinnConfig(epochs=5, n_domain=30, seed=3, widths=(8,),
                        resample_collocation=True)
    res_rs = train(prob, data, cfg_rs)
    first = CollocationSet.sample(prob.domain, prob.horizon, 30, seed=3)
    assert not np.array_equal(res_rs.collocation.inputs(), first.inputs())


def test_log_csv_roundtrip(tmp_path):
    prob = value_problem()
    data = riccati_dataset(n_per_axis=4, times=(1.0, 1.5))
    cfg = PinnConfig(epochs=20, n_domain=20, seed=0, widths=(6,),
                     log_every=10)
    res = train(prob, data, cfg)
    path = tmp_path / "log.csv"
    res.log_to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss_physics,loss_data"
    back = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert back.shape == (len(res.log), 3)
    assert np.array_equal(back[:, 0], [e for e, _, _ in res.log])
    assert np.allclose(back[:, 1], [lp for _, lp, _ in res.log], rtol=0,
                       atol=0)


# ---------------------------------------------------------------- predict


def test_predict_grid_matches_forward():
    net = DenseNetwork.init((3, 8, 1), seed=12)
    axes = [np.linspace(1.0, 2.0, 5), np.linspace(1.0, 2.0, 4)]
    times = [0.5, 1.0]
    grid = predict_grid(net, axes, times)
    assert grid.values.shape == (2, 5, 4)
    g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    nodes = np.column_stack([g1.ravel(), g2.ravel()])
    for j, t in enumerate(times):
        # bitwise against a forward call batched the same way
        batched = forward(net, np.column_stack(
            [nodes, np.full(nodes.shape[0], t)]))[:, 0]
        assert np.array_equal(grid.values[j].ravel(), batched)
    # and numerically against independent single-point evaluation
    direct = forward(net, np.array([axes[0][3], axes[1][2], times[1]]))[0]
    assert grid.values[1, 3, 2] == pytest.approx(direct, rel=1e-14)


def test_predict_grid_single_point_and_csv(tmp_path):
    net = DenseNetwork.init((3, 4, 1), seed=1)
    grid = predict_grid(net, [[1.5], [1.5]], [0.5])
    assert grid.values.shape == (1, 1, 1)
    path = tmp_path / "surface.csv"
    grid.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "xi1,xi2,t,value"
    assert len(lines) == 2
    row = [float(v) for v in lines[1].split(",")]
    assert row[:3] == [1.5, 1.5, 0.5]
    assert row[3] == forward(net, np.array([1.5, 1.5, 0.5]))[0]


def test_predict_grid_rejects_width_mismatch():
    net = DenseNetwork.init((3, 4, 1), seed=0)
    with pytest.raises(UsageError):
        predict_grid(net, [[1.5]], [0.5])


# ------------------------------------------- recorded tape references


@pytest.mark.parametrize("name", ["value_with_data", "safety_physics_only"])
def test_gradient_matches_recorded_tape_gradient(name):
    net, prob, colloc, coeffs, data, targets, w_p, w_d = gc.pinn_cases()[name]
    ref = gc.load_reference()["pinn"][name]
    assert np.array_equal(net.theta, gc.from_hex(ref["theta"]))
    lp, ld, g = pinn._loss_and_grad(net, prob, colloc, coeffs, data, targets,
                                    w_p, w_d, gc.workspaces(2))
    assert gc.rel_dev([lp, ld], gc.from_hex(ref["losses"])) <= 1e-10
    assert gc.rel_dev(g, gc.from_hex(ref["grad"])) <= 1e-10


def test_training_log_matches_recorded_tape_log():
    prob, data, cfg = gc.pinn_log_case()
    ref = gc.load_reference()["pinn_log"]
    res = train(prob, data, cfg)
    assert [e for e, _, _ in res.log] == ref["epochs"]
    losses = [v for _, lp, ld in res.log for v in (lp, ld)]
    assert gc.rel_dev(losses, gc.from_hex(ref["losses"])) <= 1e-9
    assert gc.rel_dev(res.net.theta, gc.from_hex(ref["theta"])) <= 1e-9


# ------------------------------------------- the data term on a helper


def preset_shaped_case(target_scale=1.0):
    """``_loss_and_grad``'s arguments at the sys3d-value preset's shapes:
    600 collocation points, three hidden layers of 32, 726 data rows."""
    prob = get_preset("sys3d-value").pde_problem()
    cfg = PinnConfig()
    colloc = CollocationSet.sample(prob.domain, prob.horizon, cfg.n_domain,
                                   seed=4)
    data = CollocationSet.sample(prob.domain, prob.horizon, 726, seed=5)
    targets = target_scale * np.random.default_rng(5).normal(size=726)
    net = gc.perturbed_net((3, *cfg.widths, 1), 4)
    return (net, prob, colloc.inputs(), pinn._coefficients(prob, colloc.xi),
            data.inputs(), targets, cfg.omega_p, cfg.omega_d)


def test_loss_and_grad_is_bitwise_the_same_on_the_helper(train_helper,
                                                         monkeypatch):
    case = preset_shaped_case()
    lp, ld, g = pinn._loss_and_grad(*case, gc.workspaces(2))
    ran_on = []
    real = pinn._data_term

    def recording(*args):
        ran_on.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(pinn, "_data_term", recording)
    for _ in range(2):  # fresh workspaces, then reused ones
        got = pinn._loss_and_grad(*case, gc.workspaces(2), train_helper)
        assert (got[0], got[1]) == (lp, ld)
        assert got[2].tobytes() == g.tobytes()
    expected = (threading.current_thread().name if train_helper is None
                or isinstance(train_helper, LateHelper)
                else "featpde-test-eager")
    assert ran_on == [expected] * 2


@pytest.mark.parametrize("term", ["physics", "data"])
def test_nonfinite_term_gives_no_gradient_on_the_helper(train_helper, term):
    case = list(preset_shaped_case(1e200 if term == "data" else 1.0))
    if term == "physics":
        drift, diag, react = case[3]
        case[3] = (1e300 * drift, diag, react)
    with np.errstate(over="ignore", invalid="ignore"):
        lp, ld, g = pinn._loss_and_grad(*case, gc.workspaces(2),
                                        train_helper)
    assert g is None
    assert not np.isfinite(lp if term == "physics" else ld)


def test_a_raising_term_raises_what_the_serial_loop_raises(train_helper,
                                                           monkeypatch):
    case = preset_shaped_case()

    def failing(name):
        def fail(*args):
            raise RuntimeError(name)
        return fail

    monkeypatch.setattr(pinn, "_data_term", failing("data"))
    with pytest.raises(RuntimeError, match="^data$"):
        pinn._loss_and_grad(*case, gc.workspaces(2), train_helper)
    monkeypatch.setattr(pinn, "_physics_term", failing("physics"))
    with pytest.raises(RuntimeError, match="^physics$"):
        pinn._loss_and_grad(*case, gc.workspaces(2), train_helper)


def test_data_term_runs_under_the_callers_error_state(train_helper):
    # np.errstate is per thread: the handed data term must still raise
    case = preset_shaped_case(1e200)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            pinn._loss_and_grad(*case, gc.workspaces(2), train_helper)


def test_training_joins_its_helper_when_a_term_raises(monkeypatch):
    prob = value_problem()
    data = riccati_dataset(n_per_axis=4, times=(1.0, 1.5))
    cfg = PinnConfig(epochs=20, n_domain=20, seed=0, widths=(6,))
    real = pinn._data_term
    calls = []

    def fails_late(*args):
        calls.append(threading.current_thread().name)
        if len(calls) == 5:
            raise RuntimeError("data term failed")
        return real(*args)

    monkeypatch.setattr(pinn, "_data_term", fails_late)
    with pytest.raises(RuntimeError, match="data term failed"):
        train(prob, data, cfg)
    # the first epoch runs both terms on the calling thread; the fixture
    # no_stray_threads checks that the helper was joined
    assert calls[0] == threading.current_thread().name
