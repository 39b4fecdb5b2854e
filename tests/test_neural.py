"""Network engine: nested derivatives, their adjoint, Adam."""

import numpy as np
import pytest

from featpde.errors import TrainingError
from featpde.neural import (
    AdamState,
    DenseNetwork,
    adam_step,
    derivatives_batch,
    forward,
    glorot_init,
    grad,
    load_checkpoint,
    param_count,
    save_checkpoint,
)

from conftest import assert_close
from gradient_cases import forward_with_derivatives, grad_params


# ---------------------------------------------------------- initialization


def test_glorot_bound_first_layer():
    theta = glorot_init((2, 32, 32, 32, 1), seed=11)
    net = DenseNetwork((2, 32, 32, 32, 1), theta)
    w0, b0 = net.layer_views()[0]
    assert np.all(np.abs(w0) < np.sqrt(6.0 / 34.0))
    assert np.all(b0 == 0.0)


def test_glorot_deterministic():
    assert np.array_equal(glorot_init((3, 5, 1), 7), glorot_init((3, 5, 1), 7))
    assert not np.array_equal(
        glorot_init((3, 5, 1), 7), glorot_init((3, 5, 1), 8)
    )


def test_glorot_variance_matches_uniform_law():
    # Uniform(-b, b) variance is b^2/3 = 2/(fan_in+fan_out).
    widths = (2, 32, 1)
    samples = []
    for seed in range(100):
        net = DenseNetwork.init(widths, seed)
        samples.append(net.layer_views()[0][0].ravel())
    var = np.concatenate(samples).var()
    expected = 2.0 / (2 + 32)
    assert abs(var - expected) / expected < 0.10


def test_param_count():
    assert param_count((2, 32, 32, 32, 1)) == 2 * 32 + 32 + 32 * 32 + 32 + 32 * 32 + 32 + 32 + 1


# ----------------------------------------------------------------- forward


def test_forward_zero_params_zero_output():
    net = DenseNetwork((3, 4, 2), np.zeros(param_count((3, 4, 2))))
    assert np.all(forward(net, np.ones(3)) == 0.0)


def test_forward_single_affine_layer_exact():
    net = DenseNetwork.init((3, 2), seed=0)
    w, b = net.layer_views()[0]
    x = np.array([0.3, -1.2, 2.0])
    assert_close(forward(net, x), x @ w + b, rel=1e-14)


def test_forward_matches_bundle_value_bitwise():
    net = DenseNetwork.init((2, 8, 8, 1), seed=4)
    x = np.random.default_rng(5).normal(size=(6, 2))
    u, _, _ = derivatives_batch(net, x)
    assert np.array_equal(forward(net, x), u)


def test_forward_input_width_mismatch():
    net = DenseNetwork.init((3, 2), seed=0)
    with pytest.raises(ValueError):
        forward(net, np.ones(4))


# ----------------------------------------------------- input derivatives


def test_one_layer_tanh_derivatives_at_zero():
    # One hidden tanh unit, output = tanh(w x): at x=0 slope w, curvature 0.
    widths = (1, 1, 1)
    theta = np.zeros(param_count(widths))
    net = DenseNetwork(widths, theta)
    views = net.layer_views()
    views[0][0][0, 0] = 0.7  # hidden weight
    views[1][0][0, 0] = 1.0  # output weight
    b = forward_with_derivatives(net, np.zeros(1))
    assert_close(b.input_jacobian[0, 0], 0.7, rel=1e-14)
    assert_close(b.input_hessian_diag[0, 0], 0.0, rel=1e-14)


def test_linear_net_hessian_exactly_zero():
    net = DenseNetwork.init((4, 3), seed=9)
    b = forward_with_derivatives(net, np.ones(4))
    assert np.all(b.input_hessian_diag == 0.0)


def test_random_net_derivatives_match_central_differences():
    rng = np.random.default_rng(12)
    net = DenseNetwork.init((2, 8, 1), seed=21)
    for _ in range(100):
        x = rng.normal(size=2)
        b = forward_with_derivatives(net, x)
        for i in range(2):
            h = 1e-4 * (1.0 + abs(x[i]))
            e = np.zeros(2)
            e[i] = h
            fp = forward(net, x + e)[0]
            fm = forward(net, x - e)[0]
            f0 = forward(net, x)[0]
            j_fd = (fp - fm) / (2 * h)
            h_fd = (fp - 2 * f0 + fm) / (h * h)
            assert_close(b.input_jacobian[0, i], j_fd, rel=1e-5, abs_=1e-7)
            assert_close(b.input_hessian_diag[0, i], h_fd, rel=1e-4, abs_=1e-5)


def test_bundle_orientation_d_out_by_d_in():
    net = DenseNetwork.init((3, 6, 2), seed=2)
    b = forward_with_derivatives(net, np.zeros(3))
    assert b.value.shape == (2,)
    assert b.input_jacobian.shape == (2, 3)
    assert b.input_hessian_diag.shape == (2, 3)


# ------------------------------------------------------------------- adjoint


def random_net(widths, seed):
    """Random weights and biases, none zero, of moderate size."""
    rng = np.random.default_rng(seed)
    return DenseNetwork(widths, 0.6 * rng.normal(size=param_count(widths)))


def bundle_loss(x, a, bj, bh):
    """A scalar loss of (u, J, H) with nonlinear terms in each, and its
    cotangents; ``bj``/``bh`` None drop the J/H terms."""

    def loss(net):
        u, jac, hess = derivatives_batch(net, x)
        val = np.sum(a * u) + 0.5 * np.sum(u * u)
        if bj is not None:
            val += np.sum(bj * jac) + 0.3 * np.sum(jac * jac)
        if bh is not None:
            val += np.sum(bh * hess) + 0.2 * np.sum(hess * hess)
        return val

    def cotangents(u, jac, hess):
        g_j = None if bj is None else bj + 0.6 * jac
        g_h = None if bh is None else bh + 0.4 * hess
        return a + u, g_j, g_h

    return loss, cotangents


@pytest.mark.parametrize("widths", [(2, 1), (3, 2), (2, 5, 1), (3, 6, 4, 2),
                                    (4, 5, 5, 5, 3)])
@pytest.mark.parametrize("terms", ["u", "uJ", "uH", "uJH"])
def test_adjoint_matches_fd_on_random_nets(widths, terms):
    net = random_net(widths, seed=len(widths) * 10 + widths[-1])
    rng = np.random.default_rng(sum(widths))
    bsz, d_in, d_out = 5, widths[0], widths[-1]
    x = rng.normal(size=(bsz, d_in))
    a = rng.normal(size=(bsz, d_out))
    bj = rng.normal(size=(bsz, d_in, d_out)) if "J" in terms else None
    bh = rng.normal(size=(bsz, d_in, d_out)) if "H" in terms else None
    loss, cotangents = bundle_loss(x, a, bj, bh)

    cache = []
    bundle = derivatives_batch(net, x, cache)
    g, g_x = grad(net, cache, *cotangents(*bundle))
    assert_close(g, grad_params(net, loss), rel=1e-4, abs_=1e-7)

    # the input cotangent, by central differences in each input entry
    g_x_fd = np.empty_like(x)
    for idx in np.ndindex(*x.shape):
        h = 1e-6 * (1.0 + abs(x[idx]))
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        lp = bundle_loss(xp, a, bj, bh)[0](net)
        lm = bundle_loss(xm, a, bj, bh)[0](net)
        g_x_fd[idx] = (lp - lm) / (2.0 * h)
    assert_close(g_x, g_x_fd, rel=1e-4, abs_=1e-7)


def test_adjoint_rejects_bundle_cotangents_on_plain_cache():
    net = random_net((2, 4, 1), seed=1)
    x = np.ones((3, 2))
    cache = []
    forward(net, x, cache)
    with pytest.raises(ValueError):
        grad(net, cache, np.ones((3, 1)), np.ones((3, 2, 1)))


def test_grad_params_constant_loss_zero():
    net = random_net((2, 4, 1), seed=1)
    x = np.random.default_rng(2).normal(size=(4, 2))
    cache = []
    u, jac, hess = derivatives_batch(net, x, cache)
    g, g_x = grad(net, cache, np.zeros_like(u), np.zeros_like(jac),
                  np.zeros_like(hess))
    assert np.all(g == 0.0) and np.all(g_x == 0.0)
    assert np.all(grad_params(net, lambda n: 3.0) == 0.0)


def test_grad_params_sum_of_squares():
    # L = 1/2 sum u^2 of an affine layer u = x W + b: dW = x^T u, db = sum u
    net = random_net((3, 2), seed=4)
    x = np.random.default_rng(5).normal(size=(6, 3))
    cache = []
    u = forward(net, x, cache)
    g, g_x = grad(net, cache, u)
    (w, _), = net.layer_views()
    (dw, db), = net.layer_views(g)
    assert_close(dw, x.T @ u, rel=1e-14)
    assert_close(db, u.sum(axis=0), rel=1e-14)
    assert_close(g_x, u @ w.T, rel=1e-14)


def test_grad_of_unused_leaf_is_zero():
    # the loss reads output 0 only: the output weights and bias of output 1
    # get exactly zero gradient, also through the J/H cotangents
    net = random_net((2, 4, 2), seed=6)
    x = np.random.default_rng(7).normal(size=(5, 2))
    cache = []
    u, jac, hess = derivatives_batch(net, x, cache)
    g_u, g_j, g_h = (np.zeros_like(u), np.zeros_like(jac),
                     np.zeros_like(hess))
    g_u[:, 0], g_j[:, :, 0], g_h[:, :, 0] = 1.0, 0.5, -0.25
    g, _ = grad(net, cache, g_u, g_j, g_h)
    w_out, b_out = net.layer_views(g)[-1]
    assert np.all(w_out[:, 1] == 0.0) and b_out[1] == 0.0
    assert np.all(w_out[:, 0] != 0.0)


def test_grad_params_matches_fd_on_random_nets():
    rng = np.random.default_rng(31)
    for trial in range(5):
        widths = (2, rng.integers(2, 5), 1)
        net = DenseNetwork.init(widths, seed=int(rng.integers(1e6)))
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=4)

        def loss(n):
            u, jac, hess = derivatives_batch(n, x)
            res = u[:, 0] - y + 0.3 * jac[:, 0, 0] + 0.1 * hess[:, 1, 0]
            return np.mean(res * res)

        cache = []
        u, jac, hess = derivatives_batch(net, x, cache)
        res = u[:, 0] - y + 0.3 * jac[:, 0, 0] + 0.1 * hess[:, 1, 0]
        g_res = 2.0 * res / res.size
        g_u, g_j, g_h = (np.zeros_like(u), np.zeros_like(jac),
                         np.zeros_like(hess))
        g_u[:, 0] = g_res
        g_j[:, 0, 0] = 0.3 * g_res
        g_h[:, 1, 0] = 0.1 * g_res
        g, _ = grad(net, cache, g_u, g_j, g_h)
        assert_close(g, grad_params(net, loss), rel=1e-4, abs_=1e-7)


def test_derivative_tower_consistency():
    # Gradient of the plain forward value and of the bundle value agree.
    net = DenseNetwork.init((2, 5, 1), seed=8)
    x = np.random.default_rng(3).normal(size=(6, 2))
    g_u = np.full((6, 1), 1.0 / 6.0)
    c_forward, c_bundle = [], []
    forward(net, x, c_forward)
    derivatives_batch(net, x, c_bundle)
    assert_close(grad(net, c_forward, g_u)[0], grad(net, c_bundle, g_u)[0],
                 rel=1e-12)


@pytest.mark.parametrize("module", ["pinn", "featureid"])
def test_training_modules_bind_traced_names(module):
    # the benchmark tracer wraps these module-level bindings by name
    import importlib

    from featpde import neural

    mod = importlib.import_module(f"featpde.{module}")
    for name in ("forward", "derivatives_batch", "adam_step", "grad"):
        assert getattr(mod, name) is getattr(neural, name)


# -------------------------------------------------------------------- adam


def test_adam_zero_gradient_no_motion():
    net = DenseNetwork.init((2, 3, 1), seed=2)
    st0 = AdamState.init(net.theta.size)
    st0.m[:] = 0.5
    st0.v[:] = 0.25
    theta0 = net.theta.copy()
    st1, theta1 = adam_step(st0, theta0, np.zeros_like(theta0), lr=1e-3)
    # moments decay toward zero, parameters barely move (m != 0 still nudges)
    assert np.all(st1.m < 0.5) and np.all(st1.v < 0.25)
    st2, theta2 = adam_step(
        AdamState.init(theta0.size), theta0, np.zeros_like(theta0), lr=1e-3
    )
    assert np.array_equal(theta2, theta0)


def test_adam_first_step_magnitude_is_lr():
    theta = np.zeros(4)
    g = np.array([0.3, -2.0, 5.0, 1e-6])
    _, theta1 = adam_step(AdamState.init(4), theta, g, lr=0.01)
    # bias correction makes the first update ~ lr * sign(g)
    assert_close(np.abs(theta1[:3]), [0.01, 0.01, 0.01], rel=1e-4)
    assert np.all(np.sign(theta1[:3]) == -np.sign(g[:3]))


def test_adam_quadratic_bowl_converges():
    rng = np.random.default_rng(17)
    target = rng.normal(size=10) * 0.5
    theta = np.zeros(10)
    state = AdamState.init(10)
    for _ in range(1000):
        g = 2.0 * (theta - target)
        state, theta = adam_step(state, theta, g, lr=0.01)
    assert np.linalg.norm(theta - target) < 1e-3


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(TrainingError):
        adam_step(AdamState.init(3), np.zeros(3), np.array([1.0, np.nan, 0.0]), 0.01)


# ------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    net = DenseNetwork.init((3, 7, 2), seed=13)
    path = tmp_path / "net.json"
    save_checkpoint(net, str(path), seed=13, extra={"role": "test"})
    loaded, meta = load_checkpoint(str(path))
    assert loaded.widths == net.widths
    assert np.array_equal(loaded.theta, net.theta)
    assert meta["seed"] == 13
    assert meta["extra"] == {"role": "test"}


def test_scaled_zero_params_zero_map():
    net = DenseNetwork.init((3, 5, 2), seed=3)
    net.theta = net.theta * 0.0
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert np.all(forward(net, x) == 0.0)
