"""Inputs of the recorded gradient and training-log references.

``tests/data/tape_reference.json`` holds, as ``float.hex``, the losses,
parameter gradients and training logs that the closure-tape autodiff
computed on these inputs at commit ddb9a0c, before the explicit adjoint
replaced it.  Every builder here uses only the public featpde API, so the
same cases can be evaluated by any version of the package.

The oracles the neural, PINN and reduction tests compare against live here
too: the one-point ``forward_with_derivatives``, the central-difference
``grad_params``, ``residual``, the PDE residual of any candidate solution,
``flat_explicit``, the FD engine's explicit product in its own axis's line
order, ``full_march``, the full-system Euler-Maruyama march with one new
array per step, the central-difference feature derivatives of
``feature_map_from_functions`` with their check
``verify_feature_derivatives``, and ``full_derivatives_batch`` and
``full_grad``, the network's derivative bundle and its reverse pass with
the first layer's s, c and cotangents held as whole (B, width) arrays,
which the row-blocked ``neural`` functions must match bit for bit.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from featpde.featureid import (
    AeTrainConfig,
    AutoencoderNet,
    build_preimage,
    epsilon_default,
)
from featpde.neural import (DenseNetwork, Workspace, _batch_sum, _check_width,
                            _rank_one_weights, _Record, derivatives_batch,
                            forward, glorot_init, grad)
from featpde.pde import assemble_safety_pde, assemble_value_pde
from featpde.pinn import CollocationSet, PinnConfig, TrainingDataset
from featpde.reduction import FeatureMap, build_reduced_sde
from featpde.sde import StochasticSystem, ZeroPolicy, step_noise

REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                         "tape_reference.json")


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def to_hex(values):
    return [float(v).hex() for v in np.asarray(values, float).ravel()]


def from_hex(strings):
    return np.array([float.fromhex(s) for s in strings])


def rel_dev(actual, expected):
    """Largest deviation relative to the largest reference entry."""
    expected = np.asarray(expected, float)
    return np.abs(np.asarray(actual, float) - expected).max() / np.abs(
        expected).max()


def workspaces(n):
    """``n`` fresh workspaces, one per call site of a training loss."""
    return tuple(Workspace() for _ in range(n))


def perturbed_net(widths, seed):
    """Glorot weights plus a normal perturbation, so no bias is zero."""
    theta = glorot_init(widths, seed)
    theta = theta + 0.2 * np.random.default_rng(seed + 100).normal(
        size=theta.size)
    return DenseNetwork(widths, theta)


# ------------------------------------------------------------------- PINN


def _const(v):
    return lambda s: np.full_like(np.asarray(s, dtype=np.float64), v)


def _reduced():
    return build_reduced_sde(
        alpha=[_const(2.0), lambda s: 1.0 + 0.1 * np.asarray(s, float)],
        beta=[lambda s: -np.asarray(s, float) / 2.0,
              lambda s: np.sin(np.asarray(s, float))],
        ranges=[(-6.0, 6.0), (-6.0, 6.0)],
    )


def _quad(xi):
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    return 0.5 * xi[:, 0] ** 2 + 0.3 * xi[:, 1] ** 2


def value_problem():
    return assemble_value_pde(_reduced(), _quad, 1.0,
                              [(1.0, 2.0), (1.0, 2.0)], 1.5)


def safety_problem():
    return assemble_safety_pde(_reduced(), lambda xi: 1.6 - _quad(xi),
                               [(0.5, 2.0), (0.5, 2.0)], 1.0)


def value_dataset():
    ax = np.linspace(1.0, 2.0, 4)
    times = np.array([1.0, 1.5])
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    vals = np.stack([np.exp(-t * (g1 + 0.5 * g2) / 3.0) for t in times])
    return TrainingDataset.from_grid([ax, ax], times, vals, provenance="file")


def coefficients(problem, xi):
    return (
        np.asarray(problem.drift(xi), dtype=np.float64),
        np.asarray(problem.diffusion_diag(xi), dtype=np.float64),
        np.asarray(problem.reaction(xi), dtype=np.float64),
    )


def pinn_cases():
    """name -> (net, problem, colloc_inputs, coeffs, data_inputs, targets,
    omega_p, omega_d) of the PINN total-loss gradient references."""
    cases = {}
    prob = value_problem()
    colloc = CollocationSet.sample(prob.domain, prob.horizon, 40, seed=3)
    data = value_dataset()
    cases["value_with_data"] = (
        perturbed_net((3, 8, 8, 1), 5), prob, colloc.inputs(),
        coefficients(prob, colloc.xi), data.inputs(), data.target, 1.0, 0.7)
    prob = safety_problem()
    colloc = CollocationSet.sample(prob.domain, prob.horizon, 40, seed=4)
    cases["safety_physics_only"] = (
        perturbed_net((3, 8, 8, 1), 6), prob, colloc.inputs(),
        coefficients(prob, colloc.xi), None, None, 1.3, 0.0)
    return cases


def pinn_log_case():
    """(problem, data, config) of the recorded 200-epoch training log."""
    cfg = PinnConfig(epochs=200, n_domain=50, seed=2, log_every=20,
                     widths=(8, 8))
    return value_problem(), value_dataset(), cfg


# --------------------------------------------------------------- features


def feature_system():
    """Nonlinear drift, diagonal but non-unit sigma sigma^T."""

    def drift(x):
        x = np.atleast_2d(x)
        return np.column_stack([x[:, 0] * x[:, 1] + x[:, 2],
                                np.sin(x[:, 1]) - x[:, 2],
                                0.5 * x[:, 0] ** 2])

    return StochasticSystem(state_dim=3, control_dim=3, drift=drift,
                            diffusion_const=np.diag([1.0, 0.7, 1.5]))


def feature_cost(x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return 0.5 * (x[:, 0] + x[:, 1]) ** 2 + 0.5 * x[:, 2] ** 2


def _saturating_encoder():
    """Feature 2 is tanh(20 x1 - 10): flat near x1 = 0 and x1 = 1, so the
    probes of those states fall under the clamp floor and the others not."""
    enc = perturbed_net((3, 4, 2), 8)
    w0, b0 = enc.layer_views()[0]
    w1, b1 = enc.layer_views()[1]
    w0[:, 3] = [20.0, 0.0, 0.0]
    b0[3] = -10.0
    w1[:, 1] = [0.0, 0.0, 0.0, 1.0]
    return enc


def feature_cases():
    """name -> (net, batch, cost values, preimage, config) of the feature
    total-loss gradient references."""
    batch = np.random.default_rng(3).uniform(0.0, 1.0, (30, 3))
    cvals = feature_cost(batch)
    cases = {}
    smooth = AutoencoderNet(encoder=perturbed_net((3, 6, 4, 2), 7),
                            decoder=perturbed_net((2, 4, 6, 1), 9))
    clamped = AutoencoderNet(encoder=_saturating_encoder(),
                             decoder=perturbed_net((2, 5, 1), 10))
    for name, net, frozen in (("smooth", smooth, False),
                              ("smooth_frozen", smooth, True),
                              ("clamped", clamped, False)):
        feats = net.encode(batch)
        eps = [epsilon_default(feats[:, j]) for j in range(net.k)]
        pre = build_preimage(batch, feats, eps)
        cfg = AeTrainConfig(w_rc=1.0, w_ct=10.0, freeze_encoder=frozen)
        cases[name] = (net, batch, cvals, pre, cfg)
    return cases


def ae_log_cases():
    """name -> (states, config) of the recorded 10-iteration logs."""
    states = np.random.default_rng(3).uniform(0.0, 1.0, (200, 3))
    base = dict(k=2, epochs=1, iterations=10, batch_size=64,
                encoder_hidden=(10, 4), seed=11, d=3)
    return {
        "joint": (states, AeTrainConfig(**base)),
        "frozen": (states, AeTrainConfig(**base, freeze_encoder=True)),
    }


# ------------------------------------------------ one-point network oracles


@dataclass
class DerivativeBundle:
    """Value and input derivatives at one point.

    ``value``: (d_out,); ``input_jacobian``: (d_out, d_in);
    ``input_hessian_diag``: (d_out, d_in) with entries (d^2 out_o / d in_i^2).
    """

    value: np.ndarray
    input_jacobian: np.ndarray
    input_hessian_diag: np.ndarray


def forward_with_derivatives(net: DenseNetwork, x) -> DerivativeBundle:
    """Value, input Jacobian and per-input second derivatives at one point.

    Input i's second derivatives are the bundle's weighted Hessian trace L
    with one-hot weights on input i.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 1:
        raise ValueError("forward_with_derivatives expects a single vector")
    row = xv.reshape(1, -1)
    u, jac, _ = derivatives_batch(net, row, np.empty((1, 0)))
    one_hot = np.eye(net.d_in)
    hess = [derivatives_batch(net, row, one_hot[i:i + 1])[2][0]
            for i in range(net.d_in)]
    return DerivativeBundle(
        value=u[0],
        input_jacobian=jac[0].T.copy(),
        input_hessian_diag=np.stack(hess, axis=1),
    )


def residual(problem, candidate, xi, t):
    """Signed PDE residual of a candidate solution at (xi, t).

    ``candidate(xi, t)`` must return (u, u_t, grad, hess_diag) with shapes
    (N,), (N,), (N, k), (N, k); u_t is the physical time derivative.  For
    value problems the residual is r u - u_t - drift.grad - 1/2 diag.hess;
    for safety problems it is u_t - drift.grad - 1/2 diag.hess.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    tt = np.broadcast_to(np.asarray(t, dtype=np.float64), (xi.shape[0],))
    scalar = np.isscalar(t) and xi.shape[0] == 1
    u, u_t, grad, hess = candidate(xi, tt)
    u = np.asarray(u, dtype=np.float64).reshape(xi.shape[0])
    u_t = np.asarray(u_t, dtype=np.float64).reshape(xi.shape[0])
    grad = np.asarray(grad, dtype=np.float64).reshape(xi.shape)
    hess = np.asarray(hess, dtype=np.float64).reshape(xi.shape)
    drift = np.asarray(problem.drift(xi), dtype=np.float64)
    diag = np.asarray(problem.diffusion_diag(xi), dtype=np.float64)
    transport = (drift * grad).sum(axis=1) + 0.5 * (diag * hess).sum(axis=1)
    if problem.kind == "value":
        r = np.asarray(problem.reaction(xi), dtype=np.float64)
        w = r * u - u_t - transport
    else:
        w = u_t - transport
    return float(w[0]) if scalar else w


def flat_explicit(stencil, x, dt):
    """x + dt/2 A x for one axis's stencil (lo, di, up) and a state ``x``,
    both in that axis's line order, the grid flattened with the axis last.
    This is the FD engine's explicit product formed in that order, where a
    node's neighbours along the axis are the adjacent entries; the engine
    forms it in the next axis's line order, and must match these bytes."""
    lo, di, up = stencil
    out = di * x
    out[1:] += lo[1:] * x[:-1]
    out[:-1] += up[:-1] * x[1:]
    out *= 0.5 * dt
    out += x
    return out


def full_march(system, policy, x0, cfg, t0, observer):
    """The full-system Euler-Maruyama march with each step one expression,
    ``x = x + f * dt + noise``, into a new array, and the step draws taken
    straight from ``step_noise``.  ``sde._run_full`` updates its state in
    place and must match this march's bytes and memory layout (so its
    strides too) at every step."""
    n = cfg.n_paths
    x = np.tile(np.asarray(x0, dtype=np.float64), (n, 1))
    dt = cfg.dt
    sq = np.sqrt(dt)
    const = system.diffusion_const
    diag = None
    if const is not None and system.state_dim == system.control_dim:
        if np.array_equal(const, np.diag(np.diagonal(const))):
            diag = np.diagonal(const).copy()
    observer(0, t0, x, None)
    for s in range(cfg.steps):
        t = t0 + s * dt
        z = step_noise(cfg.seed, s, n, system.control_dim)
        f = np.asarray(system.drift(x), dtype=np.float64)
        if isinstance(policy, ZeroPolicy):
            noise = z * sq
        else:
            noise = policy(x, t) * dt + z * sq
        if diag is not None:
            noise *= diag
        elif const is not None:
            noise = noise @ const.T
        else:
            noise = np.einsum("nij,nj->ni", system.sigma_at(x), noise)
        x = x + f * dt + noise
        observer(s + 1, t + dt, x, z)
    return x


def grad_params(net: DenseNetwork, loss, step=1e-6):
    """Central-difference gradient of a scalar loss in the flat parameters.

    ``loss(net_at)`` receives a copy of the network at each perturbed
    parameter vector and returns a float.  This is the test oracle for
    :func:`grad`: 2 loss evaluations per parameter, steps
    ``step * (1 + |theta_j|)``.
    """
    theta0 = net.theta.copy()

    def at(theta):
        return float(loss(DenseNetwork(net.widths, theta)))

    g = np.empty_like(theta0)
    for j in range(theta0.size):
        h = step * (1.0 + abs(theta0[j]))
        tp = theta0.copy()
        tp[j] += h
        tm = theta0.copy()
        tm[j] -= h
        g[j] = (at(tp) - at(tm)) / (2.0 * h)
    return g


# ------------------------------------------- central-difference features


def feature_map_from_functions(k, n, p):
    """FeatureMap of the feature function ``p`` with central-difference
    derivatives (step h = 1e-5 * (1 + |x_l|) per coordinate): J from first
    and L from second differences of p."""

    def derivatives(xb, w):
        xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
        w = np.asarray(w, dtype=np.float64)
        p0 = p(xb)
        jac = np.empty((len(xb), n, k))
        lap = np.zeros((len(xb), k))
        for l in range(n):
            step = np.zeros_like(xb)
            step[:, l] = 1e-5 * (1.0 + np.abs(xb[:, l]))
            up, down = p(xb + step), p(xb - step)
            h = step[:, l:l + 1]
            jac[:, l] = (up - down) / (2.0 * h)
            if l < w.shape[1]:
                lap += w[:, l:l + 1] * (up - 2.0 * p0 + down) / (h * h)
        return jac, lap

    return FeatureMap(k=k, n=n, p=p, derivatives=derivatives)


def verify_feature_derivatives(fm, probes, rtol=1e-5):
    """Assert that ``fm.derivatives`` agrees with central differences of
    ``fm.p`` at the probes: the Jacobian to ``rtol``, then each coordinate's
    second derivative (L with a unit weight on that coordinate) to
    100 ``rtol``, since second differences are noisier."""
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    ref = feature_map_from_functions(fm.k, fm.n, fm.p)
    none = np.empty((len(probes), 0))
    g = fm.derivatives(probes, none)[0]
    g_fd = ref.derivatives(probes, none)[0]
    err = np.abs(g - g_fd) / (1.0 + np.abs(g_fd))
    assert err.max() <= rtol, (
        f"feature gradient disagrees with finite differences "
        f"(max rel err {err.max():.3e} > {rtol:g})")
    for l in range(fm.n):
        w = np.zeros((len(probes), l + 1))
        w[:, l] = 1.0
        h = fm.derivatives(probes, w)[1]
        h_fd = ref.derivatives(probes, w)[1]
        herr = np.abs(h - h_fd) / (1.0 + np.abs(h_fd))
        assert herr.max() <= 100 * rtol, (
            f"feature second derivative in x{l + 1} disagrees with finite "
            f"differences (max rel err {herr.max():.3e})")


# ------------------------------------------------- whole-array first layer
# neural.derivatives_batch and neural.grad as they were before the first
# layer's s, c and cotangents were formed in row blocks: every (B, width)
# array whole, in a Workspace of its own


def _full_slopes(cache, li, t):
    """s = 1 - t^2 and c = t s of layer ``li``'s tanh output t."""
    s = np.multiply(t, t, out=cache.buffer(("s", li), t.shape))
    np.subtract(1.0, s, out=s)
    return s, np.multiply(t, s, out=cache.buffer(("c", li), t.shape))


def full_derivatives_batch(net: DenseNetwork, x, weights, cache):
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 2:
        raise ValueError("derivatives_batch expects (B, d_in) input")
    bsz, d_in = xv.shape
    _check_width(net, d_in)
    wv = np.asarray(weights, dtype=np.float64)
    if wv.ndim != 2 or len(wv) != bsz or wv.shape[1] > d_in:
        raise ValueError(f"weights must be (B, m) with B = {bsz} and "
                         f"m <= {d_in}, got {wv.shape}")
    m = wv.shape[1]
    records = cache.records
    records.clear()
    layers = cache.layers = net.layer_views()
    wts = cache.weights = cache.buffer("weights", (m, bsz))
    np.copyto(wts, wv.T)

    w, b = layers[0]
    z = np.matmul(xv, w, out=cache.buffer(("z", 0), (bsz, w.shape[1])))
    z += b
    if len(layers) == 1:  # affine network: J = W for every row, L = 0
        records.append(_Record(xv, tz=w[None]))
        jac = np.broadcast_to(w, (bsz, d_in, net.d_out)).copy()
        return z, jac, np.zeros((bsz, net.d_out))
    t = np.tanh(z, out=z)
    s, c = _full_slopes(cache, 0, t)
    records.append(_Record(xv, t, s, c))
    n1 = layers[1][0].shape[1]
    ws, wh = cache.rank_one = _rank_one_weights(w, layers[1][0], m)
    # the B-major products, in buffers grad reuses, moved to channel-major
    # and, for L, summed with the row weights
    flat_j = np.matmul(s, ws, out=cache.buffer(("rank1", "J"),
                                               (bsz, d_in * n1)))
    flat_l = np.matmul(c, wh, out=cache.buffer(("rank1", "L"), (bsz, m * n1)))
    tz = cache.buffer(("tz", 1), (d_in + 1, bsz, n1))
    tz[:d_in] = flat_j.reshape(bsz, d_in, n1).transpose(1, 0, 2)
    np.einsum("ib,bin->bn", wts, flat_l.reshape(bsz, m, n1), out=tz[d_in])
    h, tan = t, None
    for li in range(1, len(layers)):
        w, b = layers[li]
        n = w.shape[1]
        z = np.matmul(h, w, out=cache.buffer(("z", li), (bsz, n)))
        z += b
        if li > 1:
            tz = np.matmul(tan.reshape(-1, w.shape[0]), w,
                           out=cache.buffer(("tz", li), ((d_in + 1) * bsz, n))
                           ).reshape(d_in + 1, bsz, n)
        if li == len(layers) - 1:
            records.append(_Record(h, tan=tan, tz=tz))
            return z, tz[:d_in].transpose(1, 0, 2), tz[d_in]
        t = np.tanh(z, out=z)
        s, c = _full_slopes(cache, li, t)
        wj = np.einsum("ibn,ib->ibn", tz[:m], wts,
                       out=cache.buffer(("wj", li), (m, bsz, n)))
        wsq = np.einsum("ibn,ibn->bn", wj, tz[:m],
                        out=cache.buffer(("wsq", li), t.shape))
        records.append(_Record(h, t, s, c, tan, tz, wj, wsq))
        # J' = s Jz and L' = s Lz on every channel, then L' -= 2 c wsq
        tan = np.multiply(tz, s, out=cache.buffer(("tan", li), tz.shape))
        c2 = np.multiply(c, 2.0, out=cache.buffer(("c2", li), t.shape))
        tan[d_in] -= np.multiply(c2, wsq, out=c2)
        h = t


def full_grad(net: DenseNetwork, cache, g_u, g_J=None, g_L=None,
              input_cotangent=False):
    records, layers = cache.records, cache.layers
    dtheta = np.zeros_like(net.theta)
    dlayers = net.layer_views(dtheta)
    g_h = np.asarray(g_u, dtype=np.float64)
    d_in, bsz = net.d_in, len(g_h)
    bundle = g_J is not None or g_L is not None
    if bundle:
        if records[-1].tz is None:
            raise ValueError("J/L cotangents need a derivatives_batch cache")
        wts = cache.weights
        m = len(wts)
        # the output layer's cotangents of (J, L), channel-major
        g_to = cache.buffer(("g_tan", len(layers)),
                            (d_in + 1, bsz, net.d_out))
        g_to[:d_in] = 0.0 if g_J is None else np.transpose(g_J, (1, 0, 2))
        g_to[d_in] = 0.0 if g_L is None else g_L
    for li in range(len(layers) - 1, -1, -1):
        (w, _), (dw, db) = layers[li], dlayers[li]
        h, t, s, c, tan, tz, wj, wsq = records[li]
        wt = np.ascontiguousarray(w.T)
        # g_z, g_to: cotangents of this layer's affine outputs z, (Jz, Lz)
        if t is None:
            g_z = g_h
        else:
            if bundle:
                # J' = s Jz and L' = s Lz - 2 c wsq with c = t s, so the
                # cotangents of s and c are g_s = sum over channels of
                # g_T' Tz and g_c = -2 g_L' wsq
                # (the first layer's g_s, g_c come from layer 1 below)
                if li > 0:
                    g_s = np.einsum("cbn,cbn->bn", g_to, tz,
                                    out=cache.buffer(("g_s", li), t.shape))
                    g_l = g_to[d_in]
                    g_c = np.multiply(g_l, wsq,
                                      out=cache.buffer(("g_c", li), t.shape))
                    g_c *= -2.0
                    # g_to came from the layer above: update it in place to
                    # g_Jz_i = s g_J'_i - 4 c g_L' w_i Jz_i, g_Lz = s g_L'
                    q = np.multiply(c, g_l,
                                    out=cache.buffer(("q", li), t.shape))
                    q *= 4.0
                    q = np.multiply(wj, q,
                                    out=cache.buffer(("qj", li), wj.shape))
                    g_to *= s
                    g_to[:m] -= q
                # ds/dt = -2t, dc/dt = 1 - 3t^2: g_h - 2t g_s + (1 - 3t^2) g_c,
                # in place: g_h is this layer's own buffer (never the
                # caller's g_u)
                g_s *= t
                g_s *= 2.0
                g_h -= g_s
                dc_dt = np.multiply(t, 3.0, out=g_s)  # g_s is spent
                dc_dt *= t
                g_c *= np.subtract(1.0, dc_dt, out=dc_dt)
                g_h += g_c
            g_z = np.multiply(g_h, s, out=g_h)
        _batch_sum(h, g_z, dw)
        g_z.sum(axis=0, out=db)
        if bundle and li > 1:
            n_in, n_out = w.shape
            g_tz = g_to.reshape(-1, n_out)
            _batch_sum(tan.reshape(-1, n_in), g_tz, dw)
            out = cache.buffer(("g_tan", li), (len(g_tz), n_in))
            if n_out == 1:  # an outer product, which einsum runs faster
                np.einsum("rk,kn->rn", g_tz, wt, out=out)
            else:
                np.matmul(g_tz, wt, out=out)
            g_to = out.reshape(tan.shape)
        elif bundle and li == 1:
            # input J, L come from the first layer's rank-one s W0 and
            # -2 c W0^2 (see _rank_one_weights)
            w0 = layers[0][0]
            s0, c0 = records[0].s, records[0].c
            ws, wh = cache.rank_one
            n0, n1 = w.shape
            g_j = cache.buffer(("rank1", "J"), (bsz, d_in * n1))
            g_j.reshape(bsz, d_in, n1)[...] = g_to[:d_in].transpose(1, 0, 2)
            # the cotangent of c0 @ wh: g_Lz on each weighted input's block
            g_l = cache.buffer(("rank1", "L"), (bsz, m * n1))
            np.einsum("ib,bk->bik", wts, g_to[d_in],
                      out=g_l.reshape(bsz, m, n1))
            # sg[n, i, k] = sum_b s0[b, n] g_Jz[i, b, k], likewise cg with
            # c0 and the weighted g_Lz
            sg = _batch_sum(s0, g_j, np.zeros((n0, d_in * n1))
                            ).reshape(n0, d_in, n1)
            cg = _batch_sum(c0, g_l, np.zeros((n0, m * n1))
                            ).reshape(n0, m, n1)
            w0m = w0[:m]
            dw += (np.einsum("nik,in->nk", sg, w0)
                   - 2.0 * np.einsum("nik,in->nk", cg, w0m * w0m))
            dw0 = np.einsum("nik,nk->in", sg, w)
            dw0[:m] -= 4.0 * w0m * np.einsum("nik,nk->in", cg, w)
            g_s = np.matmul(g_j, ws.T, out=cache.buffer(("g_s", 0), s0.shape))
            g_c = np.matmul(g_l, wh.T, out=cache.buffer(("g_c", 0), s0.shape))
        elif bundle:  # li == 0
            dw += dw0 if t is not None else g_to[:d_in].sum(axis=1)
        if li > 0 or input_cotangent:
            g_h = np.matmul(g_z, wt, out=cache.buffer(("g_in", li), h.shape))
    return dtheta, g_h if input_cotangent else None


def first_layer_outputs(widths, m, bsz, seed, mode, input_cotangent):
    """The bytes of neural's row-blocked functions, then those of the
    whole-array reference, on one random case of (B, d_in) inputs and
    (B, m) Hessian weights: the bundle (u, J, L), then dtheta and g_x
    (None without ``input_cotangent``) of two grad calls on the one record.
    Mode "bundle" passes J/L cotangents, "plain" only g_u, and "forward"
    fills the blocked side's workspace by ``forward`` (u alone compared)
    and backpropagates g_u."""
    rng = np.random.default_rng(seed)
    net = perturbed_net(widths, seed)
    x = rng.normal(size=(bsz, widths[0]))
    weights = rng.uniform(size=(bsz, m))
    cot = (rng.normal(size=(bsz, widths[-1])),)
    if mode == "bundle":
        cot += (rng.normal(size=(bsz, widths[0], widths[-1])),
                rng.normal(size=(bsz, widths[-1])))
    sides = []
    for fwd, bwd in ((derivatives_batch, grad),
                     (full_derivatives_batch, full_grad)):
        ws = Workspace()
        if mode == "forward" and fwd is derivatives_batch:
            out = [forward(net, x, ws).tobytes()]
        else:
            out = [a.tobytes() for a in fwd(net, x, weights, ws)]
            out = out[:1] if mode == "forward" else out
        for _ in range(2):
            dtheta, g_x = bwd(net, ws, *cot, input_cotangent=input_cotangent)
            out += [dtheta.tobytes(), None if g_x is None else g_x.tobytes()]
        sides.append(out)
    return sides

