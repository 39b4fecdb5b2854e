"""Dense feedforward networks with input derivatives and their adjoint.

:func:`derivatives_batch` propagates the value u, the input Jacobian J and
the input Hessian diagonal H of a tanh network layer by layer; :func:`grad`
is the hand-derived reverse pass of that recursion (Griewank & Walther,
*Evaluating Derivatives*, 2008).  Given the cotangents of a scalar loss with
respect to (u, J, H) it returns the gradient in the flat parameters and in
the input, reusing the intermediates the forward pass stored in ``cache``.
With no J/H cotangents it is plain backpropagation, so the same function
differentiates losses on values (a data term, a decoder) and losses on input
derivatives (a physics residual) without a generic autodiff engine.

Hidden activations are tanh, the output layer is affine.  Parameters live in
one flat float64 vector; per-layer views are provided for inspection.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError

__all__ = [
    "DenseNetwork",
    "AdamState",
    "glorot_init",
    "param_count",
    "forward",
    "derivatives_batch",
    "grad",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]


def param_count(widths) -> int:
    return sum(
        widths[i] * widths[i + 1] + widths[i + 1]
        for i in range(len(widths) - 1)
    )


def glorot_init(widths, seed: int) -> np.ndarray:
    """Flat parameter vector: Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(np.random.Philox(key=np.uint64(seed)))
    chunks = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


@dataclass
class DenseNetwork:
    """A tanh MLP described by layer widths and a flat parameter vector."""

    widths: tuple
    theta: np.ndarray
    activation: str = "tanh"

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if self.activation != "tanh":
            raise ValueError(f"unsupported activation {self.activation!r}")
        self.theta = np.asarray(self.theta, dtype=np.float64)
        expected = param_count(self.widths)
        if self.theta.shape != (expected,):
            raise ValueError(
                f"theta has {self.theta.size} entries, widths {self.widths} "
                f"need {expected}"
            )

    @classmethod
    def init(cls, widths, seed: int) -> "DenseNetwork":
        return cls(widths=tuple(widths), theta=glorot_init(widths, seed))

    @property
    def d_in(self) -> int:
        return self.widths[0]

    @property
    def d_out(self) -> int:
        return self.widths[-1]

    def layer_views(self, theta=None):
        """List of (W, b) ndarray views into the flat vector."""
        theta = self.theta if theta is None else theta
        out = []
        pos = 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            w = theta[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
            pos += fan_in * fan_out
            b = theta[pos : pos + fan_out]
            pos += fan_out
            out.append((w, b))
        return out


def _check_width(net: DenseNetwork, width: int):
    if width != net.d_in:
        raise ValueError(
            f"input width {width} does not match network d_in {net.d_in}"
        )


def forward(net: DenseNetwork, x, cache=None):
    """Evaluate the network.  ``x``: (d_in,) or (B, d_in).

    When ``cache`` is a list, one record per layer is appended to it for
    :func:`grad` (plain backpropagation of the returned values).
    """
    xv = np.asarray(x, dtype=np.float64)
    single = xv.ndim == 1
    h = xv.reshape(1, -1) if single else xv
    _check_width(net, h.shape[-1])
    layers = net.layer_views()
    for w, b in layers[:-1]:
        t = np.tanh(h @ w + b)
        if cache is not None:
            cache.append((h, t, None, None, None, None))
        h = t
    w, b = layers[-1]
    if cache is not None:
        cache.append((h, None, None, None, None, None))
    out = h @ w + b
    return out[0] if single else out


def _rank_one_weights(w0, w1):
    """(n, d_in * m) weights taking the first tanh layer's s = 1 - t^2 and
    c = t s to the second layer's Jz and Hz, flattened over (input, unit).

    The first layer's derivatives are rank one per input i, J[b, i] =
    s[b] W0[i] and H[b, i] = -2 c[b] W0[i]^2, so Jz[b, i] = s[b] @ (W0[i]
    * W1) and Hz[b, i] = c[b] @ (-2 W0[i]^2 * W1) without forming J or H.
    """
    w0t = w0.T[:, :, None]
    ws = w0t * w1[:, None, :]
    wh = -2.0 * (w0t * w0t) * w1[:, None, :]
    return ws.reshape(len(w1), -1), wh.reshape(len(w1), -1)


def derivatives_batch(net: DenseNetwork, x, cache=None):
    """Batched value + input derivatives.

    Returns ``(u, J, H)`` with shapes (B, d_out), (B, d_in, d_out),
    (B, d_in, d_out): ``J[b, i, o] = d out_o / d in_i`` and ``H`` the
    per-input second derivatives.  Through a tanh layer with pre-activation
    z, derivatives Jz = J W and Hz = H W and t = tanh(z):

        J' = (1 - t^2) Jz,    H' = (1 - t^2) Hz - 2 t (1 - t^2) Jz^2.

    The first layer's J', H' are never formed (see ``_rank_one_weights``).
    When ``cache`` is a list, one record per layer (its inputs, t, Jz, Hz)
    is appended to it, so :func:`grad` can differentiate any loss of
    (u, J, H) in the parameters.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 2:
        raise ValueError("derivatives_batch expects (B, d_in) input")
    bsz, d_in = xv.shape
    _check_width(net, d_in)
    layers = net.layer_views()

    w, b = layers[0]
    z = xv @ w + b
    if len(layers) == 1:  # affine network: J = W for every row, H = 0
        if cache is not None:
            cache.append((xv, None, None, None, w[None], None))
        jac = np.broadcast_to(w, (bsz, d_in, net.d_out)).copy()
        return z, jac, np.zeros((bsz, d_in, net.d_out))
    t = np.tanh(z)
    if cache is not None:
        cache.append((xv, t, None, None, None, None))
    one_m_t2 = 1.0 - t * t
    ws, wh = _rank_one_weights(w, layers[1][0])
    jz = (one_m_t2 @ ws).reshape(bsz, d_in, -1)
    hz = ((t * one_m_t2) @ wh).reshape(bsz, d_in, -1)
    h, jac, hess = t, None, None
    for li in range(1, len(layers)):
        w, b = layers[li]
        z = h @ w + b
        if li > 1:
            jz = jac @ w
            hz = hess @ w
        if li == len(layers) - 1:
            if cache is not None:
                cache.append((h, None, jac, hess, jz, hz))
            return z, jz, hz
        t = np.tanh(z)
        if cache is not None:
            cache.append((h, t, jac, hess, jz, hz))
        one_m_t2 = 1.0 - t * t
        s = one_m_t2[:, None, :]
        jsq = jz * jz
        jsq *= 2.0 * (t * one_m_t2)[:, None, :]
        hess = s * hz
        hess -= jsq
        jac = s * jz
        h = t


def grad(net: DenseNetwork, cache, g_u, g_J=None, g_H=None):
    """Reverse pass of :func:`forward` / :func:`derivatives_batch`.

    ``cache`` is the list the forward call filled; ``g_u`` (B, d_out),
    ``g_J`` and ``g_H`` (B, d_in, d_out) are the cotangents dL/du, dL/dJ and
    dL/dH of a scalar loss L.  Returns ``(dtheta, g_x)``: dL/dtheta in the
    flat parameter order and dL/dx (B, d_in), the input cotangent that
    chains a network fed by another network.  With ``g_J`` and ``g_H`` both
    None this is plain backpropagation and any cache will do; otherwise the
    cache must come from :func:`derivatives_batch`, and a missing one of the
    two counts as zero.

    A cache record is ``(h, t, J, H, Jz, Hz)`` per layer: its input, its
    tanh output (None on the output layer), the input derivatives (None
    where implicit: the raw input and the first layer's rank-one ones) and
    the pre-activation derivatives (None in a :func:`forward` cache).
    """
    bundle = g_J is not None or g_H is not None
    if bundle:
        if cache[-1][4] is None:
            raise ValueError("J/H cotangents need a derivatives_batch cache")
        g_J = np.zeros_like(g_H) if g_J is None else g_J
        g_H = np.zeros_like(g_J) if g_H is None else g_H
    layers = net.layer_views()
    dtheta = np.empty_like(net.theta)
    dlayers = net.layer_views(dtheta)
    g_h, g_jo, g_ho = np.asarray(g_u, dtype=np.float64), g_J, g_H
    for li in range(len(layers) - 1, -1, -1):
        (w, _), (dw, db) = layers[li], dlayers[li]
        h, t, jac, hess, jz, hz = cache[li]
        # g_z, g_jz, g_hz: cotangents of this layer's affine outputs z, Jz, Hz
        if t is None:
            g_z, g_jz, g_hz = g_h, g_jo, g_ho
        else:
            s = 1.0 - t * t
            if bundle:
                # J' = s Jz and H' = s Hz - 2 c Jz^2 with c = t s, so
                # dL/ds = sum_i (g_J' Jz + g_H' Hz), dL/dc = -2 sum_i g_H' Jz^2
                # (the first layer's g_s, g_c come from layer 1 below)
                if li > 0:
                    g_s = (np.einsum("bin,bin->bn", g_jo, jz)
                           + np.einsum("bin,bin->bn", g_ho, hz))
                    gh_jz = g_ho * jz
                    g_c = -2.0 * np.einsum("bin,bin->bn", gh_jz, jz)
                    # g_jo and g_ho came from the layer above: update in place
                    # to g_Jz = s g_J' - 4 c Jz g_H' and g_Hz = s g_H'
                    gh_jz *= 4.0 * (t * s)[:, None, :]
                    g_jz = np.multiply(g_jo, s[:, None, :], out=g_jo)
                    g_jz -= gh_jz
                    g_hz = np.multiply(g_ho, s[:, None, :], out=g_ho)
                # ds/dt = -2t, dc/dt = 1 - 3t^2
                g_h = g_h - 2.0 * t * g_s + (1.0 - 3.0 * t * t) * g_c
            g_z = g_h * s
        dw[...] = h.T @ g_z
        db[...] = g_z.sum(axis=0)
        if bundle and li > 1:
            n_in, n_out = w.shape
            dw += jac.reshape(-1, n_in).T @ g_jz.reshape(-1, n_out)
            dw += hess.reshape(-1, n_in).T @ g_hz.reshape(-1, n_out)
            g_jo = g_jz @ w.T
            g_ho = g_hz @ w.T
        elif bundle and li == 1:
            # input J, H are the first layer's rank-one s W0, -2 c W0^2
            w0 = layers[0][0]
            t0 = cache[0][1]
            s0 = 1.0 - t0 * t0
            ws, wh = _rank_one_weights(w0, w)
            g_jz, g_hz = g_jz.reshape(len(h), -1), g_hz.reshape(len(h), -1)
            # sg[n, i, m] = sum_b s0[b, n] g_Jz[b, i, m], likewise cg with c0
            sg = (s0.T @ g_jz).reshape(w0.shape[1], w0.shape[0], -1)
            cg = ((t0 * s0).T @ g_hz).reshape(sg.shape)
            dw += (np.einsum("nim,in->nm", sg, w0)
                   - 2.0 * np.einsum("nim,in->nm", cg, w0 * w0))
            dw0 = (np.einsum("nim,nm->in", sg, w)
                   - 4.0 * w0 * np.einsum("nim,nm->in", cg, w))
            g_s, g_c = g_jz @ ws.T, g_hz @ wh.T
        elif bundle:  # li == 0
            dw += dw0 if t is not None else g_jz.sum(axis=0)
        g_h = g_z @ w.T
    return dtheta, g_h


@dataclass
class AdamState:
    """Adam moments, bias-corrected; beta1=0.9, beta2=0.999, eps=1e-8."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params))


def adam_step(state: AdamState, theta: np.ndarray, g: np.ndarray, lr: float):
    """One bias-corrected Adam update; returns (state, new_theta)."""
    if not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise TrainingError(
            f"non-finite gradient at parameter index {bad} "
            f"(step {state.step + 1})"
        )
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    mhat = state.m / (1.0 - state.beta1 ** state.step)
    vhat = state.v / (1.0 - state.beta2 ** state.step)
    return state, theta - lr * mhat / (np.sqrt(vhat) + state.eps)


def save_checkpoint(net: DenseNetwork, path: str, seed=None, extra=None):
    """Write the network as a JSON container (atomic replace)."""
    payload = {
        "widths": list(net.widths),
        "activation": net.activation,
        "theta": net.theta.tolist(),
        "seed": seed,
    }
    if extra:
        payload["extra"] = extra
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str):
    """Read a checkpoint; returns (DenseNetwork, metadata dict)."""
    with open(path) as fh:
        payload = json.load(fh)
    net = DenseNetwork(
        widths=tuple(payload["widths"]),
        theta=np.asarray(payload["theta"], dtype=np.float64),
        activation=payload.get("activation", "tanh"),
    )
    meta = {k: payload.get(k) for k in ("seed", "extra")}
    return net, meta
