"""Inputs of the recorded gradient and training-log references.

``tests/data/tape_reference.json`` holds, as ``float.hex``, the losses,
parameter gradients and training logs that the closure-tape autodiff
computed on these inputs at commit ddb9a0c, before the explicit adjoint
replaced it.  Every builder here uses only the public featpde API, so the
same cases can be evaluated by any version of the package.

The oracles the neural and PINN tests compare against live here too: the
one-point ``forward_with_derivatives``, the central-difference
``grad_params``, and ``residual``, the PDE residual of any candidate
solution.
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
from featpde.neural import (DenseNetwork, Workspace, derivatives_batch,
                            glorot_init)
from featpde.pde import assemble_safety_pde, assemble_value_pde
from featpde.pinn import CollocationSet, PinnConfig, TrainingDataset
from featpde.reduction import build_reduced_sde
from featpde.sde import StochasticSystem

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
