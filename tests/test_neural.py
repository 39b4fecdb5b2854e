"""Network engine: nested derivatives, their adjoint, workspaces, Adam."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from featpde import featureid, neural, pinn
from featpde.errors import TrainingError, UsageError
from featpde.featureid import AutoencoderNet, build_preimage, epsilon_default
from featpde.neural import (
    AdamState,
    DenseNetwork,
    Workspace,
    adam_step,
    derivatives_batch,
    forward,
    glorot_init,
    grad,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from featpde.pinn import CollocationSet
from featpde.presets import get_preset

from conftest import assert_close
import gradient_cases as gc
from gradient_cases import (first_layer_outputs, forward_with_derivatives,
                            grad_params)


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


# sha256 of glorot_init((3, 5, 2), seed).tobytes(): the Philox stream
# keyed by (seed, 0), so the top seed is pinned as well
GLOROT_SHA256 = {
    0: "5f1961ac2c7bb8317f0fb607c5ed2179d20ab4afc03416e8f200c7d8185b618b",
    1: "c083216531458428156e797623ad97b2102483f478e888572fdca7b7a2e17f45",
    2**63: "74008ab1511375419bc14a71036959ee0e835d2653e76995c3f2e88caf16bffd",
    2**64 - 1:
        "abca708f164d6ae4a290b337c95defed41a979507a161f9cd81847938c6381d3",
}


@pytest.mark.parametrize("seed", list(GLOROT_SHA256))
def test_glorot_init_keeps_its_bytes(seed):
    theta = glorot_init((3, 5, 2), seed)
    assert hashlib.sha256(theta.tobytes()).hexdigest() == GLOROT_SHA256[seed]


def test_a_decoder_seed_past_64_bits_is_a_usage_error():
    # the decoder is initialised under seed + 1; numpy's OverflowError named
    # neither the seed nor the tag
    with pytest.raises(UsageError, match=re.escape(
            f"(seed {2**64}, tag 0) must be in [0, 2**64)")):
        AutoencoderNet.init(3, 2, (4,), seed=2**64 - 1)


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
    u, _, _ = derivatives_batch(net, x, np.ones((6, 2)))
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


@pytest.mark.parametrize("widths", [(2, 5, 1), (3, 6, 5, 2), (4, 7, 7, 7, 1),
                                    (3, 2)])
def test_weighted_trace_matches_central_differences(widths):
    # L = sum_{i < m} w_i d^2 u / dx_i^2 with weights that differ per row,
    # for no weighted input, some and all of them
    net = random_net(widths, seed=sum(widths))
    rng = np.random.default_rng(len(widths))
    bsz, d_in = 6, widths[0]
    x = rng.normal(size=(bsz, d_in))
    f0 = forward(net, x)
    second = np.empty((d_in, bsz, widths[-1]))
    for i in range(d_in):
        h = 1e-4 * (1.0 + np.abs(x[:, i:i + 1]))
        e = np.zeros_like(x)
        e[:, i:i + 1] = h
        second[i] = (forward(net, x + e) - 2.0 * f0 + forward(net, x - e)) / (
            h * h)
    for m in range(d_in + 1):
        w = rng.uniform(-1.0, 2.0, size=(bsz, m))
        u, _, lap = derivatives_batch(net, x, w)
        assert lap.shape == u.shape
        expected = np.einsum("bi,ibo->bo", w, second[:m])
        assert_close(lap, expected, rel=1e-4, abs_=1e-5)


def test_bundle_rejects_weights_of_another_shape():
    net = random_net((2, 4, 1), seed=1)
    x = np.ones((3, 2))
    for w in (np.ones((3, 3)), np.ones((2, 1)), np.ones(3)):
        with pytest.raises(ValueError):
            derivatives_batch(net, x, w)


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


def bundle_loss(x, weights, a, bj, bl):
    """A scalar loss of (u, J, L) with nonlinear terms in each, and its
    cotangents; ``bj``/``bl`` None drop the J/L terms."""

    def loss(net):
        u, jac, lap = derivatives_batch(net, x, weights)
        val = np.sum(a * u) + 0.5 * np.sum(u * u)
        if bj is not None:
            val += np.sum(bj * jac) + 0.3 * np.sum(jac * jac)
        if bl is not None:
            val += np.sum(bl * lap) + 0.2 * np.sum(lap * lap)
        return val

    def cotangents(u, jac, lap):
        g_j = None if bj is None else bj + 0.6 * jac
        g_l = None if bl is None else bl + 0.4 * lap
        return a + u, g_j, g_l

    return loss, cotangents


@pytest.mark.parametrize("widths", [(2, 1), (3, 2), (2, 5, 1), (3, 6, 4, 2),
                                    (4, 5, 5, 5, 3)])
@pytest.mark.parametrize("terms", ["u", "uJ", "uH", "uJH"])
def test_adjoint_matches_fd_on_random_nets(widths, terms):
    # "H" is the weighted Hessian trace L, with per-row weights on the
    # first m inputs for every m from 0 to d_in
    net = random_net(widths, seed=len(widths) * 10 + widths[-1])
    rng = np.random.default_rng(sum(widths))
    bsz, d_in, d_out = 5, widths[0], widths[-1]
    x = rng.normal(size=(bsz, d_in))
    a = rng.normal(size=(bsz, d_out))
    bj = rng.normal(size=(bsz, d_in, d_out)) if "J" in terms else None
    bl = rng.normal(size=(bsz, d_out)) if "H" in terms else None
    for m in range(d_in + 1):
        weights = rng.uniform(-1.0, 2.0, size=(bsz, m))
        loss, cotangents = bundle_loss(x, weights, a, bj, bl)

        cache = Workspace()
        bundle = derivatives_batch(net, x, weights, cache)
        g, g_x = grad(net, cache, *cotangents(*bundle), input_cotangent=True)
        assert_close(g, grad_params(net, loss), rel=1e-4, abs_=1e-7)

        # the input cotangent, by central differences in each input entry
        g_x_fd = np.empty_like(x)
        for idx in np.ndindex(*x.shape):
            h = 1e-6 * (1.0 + abs(x[idx]))
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            lp = bundle_loss(xp, weights, a, bj, bl)[0](net)
            lm = bundle_loss(xm, weights, a, bj, bl)[0](net)
            g_x_fd[idx] = (lp - lm) / (2.0 * h)
        assert_close(g_x, g_x_fd, rel=1e-4, abs_=1e-7)


def test_adjoint_rejects_bundle_cotangents_on_plain_cache():
    net = random_net((2, 4, 1), seed=1)
    x = np.ones((3, 2))
    cache = Workspace()
    forward(net, x, cache)
    with pytest.raises(ValueError):
        grad(net, cache, np.ones((3, 1)), np.ones((3, 2, 1)))


def test_grad_params_constant_loss_zero():
    net = random_net((2, 4, 1), seed=1)
    x = np.random.default_rng(2).normal(size=(4, 2))
    cache = Workspace()
    u, jac, lap = derivatives_batch(net, x, np.ones((4, 2)), cache)
    g, g_x = grad(net, cache, np.zeros_like(u), np.zeros_like(jac),
                  np.zeros_like(lap), input_cotangent=True)
    assert np.all(g == 0.0) and np.all(g_x == 0.0)
    assert np.all(grad_params(net, lambda n: 3.0) == 0.0)


def test_grad_params_sum_of_squares():
    # L = 1/2 sum u^2 of an affine layer u = x W + b: dW = x^T u, db = sum u
    net = random_net((3, 2), seed=4)
    x = np.random.default_rng(5).normal(size=(6, 3))
    cache = Workspace()
    u = forward(net, x, cache)
    g, g_x = grad(net, cache, u, input_cotangent=True)
    (w, _), = net.layer_views()
    (dw, db), = net.layer_views(g)
    assert_close(dw, x.T @ u, rel=1e-14)
    assert_close(db, u.sum(axis=0), rel=1e-14)
    assert_close(g_x, u @ w.T, rel=1e-14)


def test_grad_of_unused_leaf_is_zero():
    # the loss reads output 0 only: the output weights and bias of output 1
    # get exactly zero gradient, also through the J/L cotangents
    net = random_net((2, 4, 2), seed=6)
    x = np.random.default_rng(7).normal(size=(5, 2))
    cache = Workspace()
    u, jac, lap = derivatives_batch(net, x, np.ones((5, 2)), cache)
    g_u, g_j, g_l = (np.zeros_like(u), np.zeros_like(jac),
                     np.zeros_like(lap))
    g_u[:, 0], g_j[:, :, 0], g_l[:, 0] = 1.0, 0.5, -0.25
    g, _ = grad(net, cache, g_u, g_j, g_l)
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
        # L with one-hot weights is input 1's second derivative
        one_hot = np.tile([0.0, 1.0], (4, 1))

        def loss(n):
            u, jac, h11 = derivatives_batch(n, x, one_hot)
            res = u[:, 0] - y + 0.3 * jac[:, 0, 0] + 0.1 * h11[:, 0]
            return np.mean(res * res)

        cache = Workspace()
        u, jac, h11 = derivatives_batch(net, x, one_hot, cache)
        res = u[:, 0] - y + 0.3 * jac[:, 0, 0] + 0.1 * h11[:, 0]
        g_res = 2.0 * res / res.size
        g_u, g_j = np.zeros_like(u), np.zeros_like(jac)
        g_u[:, 0] = g_res
        g_j[:, 0, 0] = 0.3 * g_res
        g, _ = grad(net, cache, g_u, g_j, 0.1 * g_res[:, None])
        assert_close(g, grad_params(net, loss), rel=1e-4, abs_=1e-7)


def test_derivative_tower_consistency():
    # Gradient of the plain forward value and of the bundle value agree.
    net = DenseNetwork.init((2, 5, 1), seed=8)
    x = np.random.default_rng(3).normal(size=(6, 2))
    g_u = np.full((6, 1), 1.0 / 6.0)
    c_forward, c_bundle = Workspace(), Workspace()
    forward(net, x, c_forward)
    derivatives_batch(net, x, np.ones((6, 2)), c_bundle)
    assert_close(grad(net, c_forward, g_u)[0], grad(net, c_bundle, g_u)[0],
                 rel=1e-12)


# --------------------------------------------------------------- workspace


def _warm_peak(step):
    """tracemalloc peak in bytes of ``step()`` after one warm-up call."""
    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_workspace_returns_the_bundle_in_the_same_buffers():
    net = random_net((3, 6, 4, 2), seed=2)
    rng = np.random.default_rng(3)
    weights = rng.uniform(size=(5, 2))
    ws = Workspace()
    first = derivatives_batch(net, rng.normal(size=(5, 3)), weights, ws)
    x = rng.normal(size=(5, 3))
    second = derivatives_batch(net, x, weights, ws)
    for a, b, fresh in zip(first, second,
                           derivatives_batch(net, x, weights)):
        assert np.shares_memory(a, b)
        assert np.array_equal(b, fresh)
    g_x = grad(net, ws, *second, input_cotangent=True)[1]
    assert np.shares_memory(g_x, grad(net, ws, *second,
                                      input_cotangent=True)[1])


def test_pinn_step_allocates_no_batch_arrays():
    # sys3d-value shapes: 600 collocation points, widths (32, 32, 32)
    problem = get_preset("sys3d-value").pde_problem()
    colloc = CollocationSet.sample(problem.domain, problem.horizon, 600, 0)
    coeffs = (problem.drift(colloc.xi), problem.diffusion_diag(colloc.xi),
              problem.reaction(colloc.xi))
    data = CollocationSet.sample(problem.domain, problem.horizon, 200, 1)
    inputs, data_inputs = colloc.inputs(), data.inputs()
    targets = np.linspace(0.0, 1.0, len(data))
    net = DenseNetwork.init((3, 32, 32, 32, 1), seed=0)
    caches = (Workspace(), Workspace())
    peak = _warm_peak(lambda: pinn._loss_and_grad(
        net, problem, inputs, coeffs, data_inputs, targets, 1.0, 1.0, caches))
    # below one (600, 3, 32) float64 array
    assert peak < 600 * 3 * 32 * 8


def test_autoencoder_step_allocates_no_batch_arrays():
    # feature-ae-3d shapes: 1000 states, 6000 probes, hidden (100, 10)
    preset = get_preset("feature-ae-3d")
    cfg = preset.ae
    batch = np.random.default_rng(4).uniform(size=(cfg.batch_size, 3))
    net = AutoencoderNet.init(3, cfg.k, cfg.encoder_hidden, seed=0)
    feats = net.encode(batch)
    pre = build_preimage(batch, feats, [epsilon_default(f) for f in feats.T])
    cvals = preset.cost_full(batch)
    caches = (Workspace(), Workspace(), Workspace())
    peak = _warm_peak(lambda: featureid._loss_and_grad(
        net, preset.system, batch, cvals, pre, cfg, caches))
    # below one (probes, first hidden width) float64 array
    assert peak < 2 * 3 * cfg.batch_size * cfg.encoder_hidden[0] * 8


def _warm_workspace_bytes(step, cache):
    """The byte split (``gradient_cases.workspace_bytes``) of ``cache``
    after two calls of ``step``, asserting that a third adds and
    reallocates none of its buffers."""
    step()
    step()
    layout = gc.workspace_layout(cache)
    step()
    assert gc.workspace_layout(cache) == layout
    return gc.workspace_bytes(cache)


def test_penalty_workspace_keeps_one_batch_by_width_array():
    # feature-ae-3d: 6000 probes, first hidden width 100; of the first
    # layer only t is held whole, its s, c and cotangents in row blocks
    preset = get_preset("feature-ae-3d")
    cfg = preset.ae
    batch = np.random.default_rng(4).uniform(size=(cfg.batch_size, 3))
    net = AutoencoderNet.init(3, cfg.k, cfg.encoder_hidden, seed=0)
    feats = net.encode(batch)
    pre = build_preimage(batch, feats, [epsilon_default(f) for f in feats.T])
    caches = (Workspace(), Workspace(), Workspace())
    split = _warm_workspace_bytes(lambda: featureid._loss_and_grad(
        net, preset.system, batch, preset.cost_full(batch), pre, cfg, caches),
        caches[2])
    buffers = caches[2]._buffers
    wide = 2 * 3 * cfg.batch_size * cfg.encoder_hidden[0]
    assert [k for k, b in buffers.items() if b.size == wide] == [("z", 0)]
    # 22.86e6 bytes measured (records 15.50e6, cotangents 2.78e6, pool
    # 4.57e6); 28.66e6 with a buffer for each temporary's role, 45.65e6
    # with the whole-array first layer
    assert sum(split.values()) < 23e6, split


def test_pinn_physics_workspace_holds_its_temporaries_in_one_pool():
    # sys3d-value shapes: 600 collocation points, widths (32, 32, 32)
    problem = get_preset("sys3d-value").pde_problem()
    colloc = CollocationSet.sample(problem.domain, problem.horizon, 600, 0)
    coeffs = (problem.drift(colloc.xi), problem.diffusion_diag(colloc.xi),
              problem.reaction(colloc.xi))
    net = DenseNetwork.init((3, 32, 32, 32, 1), seed=0)
    cache = Workspace()
    split = _warm_workspace_bytes(lambda: pinn._physics_term(
        net, problem, colloc.inputs(), coeffs, 1.0, cache), cache)
    # 7.58e6 bytes measured (records 5.26e6, cotangents 1.56e6, pool
    # 0.77e6); 9.42e6 with a buffer for each temporary's role
    assert sum(split.values()) < 8e6, split


@st.composite
def _first_layer_cases(draw):
    """A network with a first width of 300-1000 (row-wise products on it
    take one block) or 100-192 (they take row blocks too), a batch below,
    at or past one block of its batch sums, and a way to call it."""
    d_in = draw(st.integers(1, 4))
    n0 = draw(st.one_of(st.integers(300, 1000), st.integers(100, 192)))
    hidden = draw(st.lists(st.integers(2, 40), max_size=2))
    widths = (d_in, n0, *hidden, draw(st.integers(1, 3)))
    m = draw(st.integers(0, d_in))
    n1 = widths[2]
    rows = neural._sum_rows
    blocks = sorted({rows(d_in, n0), rows(n0, d_in * n1), rows(n0, m * n1)})
    kind = draw(st.sampled_from(["below", "one", "ragged"]))
    if kind == "below":
        bsz = draw(st.integers(1, max(1, blocks[0] - 1)))
    elif kind == "one":
        bsz = draw(st.sampled_from(blocks))
    else:
        lo = blocks[-1] + 1
        bsz = draw(st.integers(lo, max(lo + 1, min(3 * blocks[-1],
                                                   1_200_000 // n0)))
                   .filter(lambda b: all(b % r for r in blocks)))
    return (widths, m, bsz, draw(st.integers(0, 2**16)),
            draw(st.sampled_from(["bundle", "plain", "forward"])),
            draw(st.booleans()))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_first_layer_cases())
# the feature-ae-3d penalty (its reverse chain in five blocks), the PINN,
# first widths of 150 and 600 over many blocks of every sum, and no rows
@example(((3, 100, 10, 2), 3, 6000, 7, "bundle", False))
@example(((3, 32, 32, 32, 1), 2, 600, 8, "bundle", False))
@example(((4, 150, 20, 3, 2), 2, 3001, 9, "bundle", True))
@example(((2, 150, 12, 1), 1, 2500, 10, "forward", False))
@example(((4, 600, 30, 1), 4, 1571, 11, "bundle", True))
@example(((2, 120, 5, 1), 1, 0, 12, "bundle", True))
def test_blocked_first_layer_gives_the_whole_array_bytes(case):
    blocked, whole = first_layer_outputs(*case)
    assert blocked == whole


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


def test_checkpoint_that_json_cannot_encode_keeps_the_old_file(tmp_path):
    net = DenseNetwork.init((3, 7, 2), seed=13)
    path = tmp_path / "net.json"
    save_checkpoint(net, str(path), seed=13)
    old = path.read_bytes()
    with pytest.raises(TypeError):
        save_checkpoint(net, str(path), extra={"points": np.ones(2)})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["net.json"]
    assert save_checkpoint(net, str(path), seed=13) == str(path)
    assert path.read_bytes() == old


def test_scaled_zero_params_zero_map():
    net = DenseNetwork.init((3, 5, 2), seed=3)
    net.theta = net.theta * 0.0
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert np.all(forward(net, x) == 0.0)
