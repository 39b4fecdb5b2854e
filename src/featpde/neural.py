"""Dense feedforward networks with input derivatives and their adjoint.

:func:`derivatives_batch` propagates the value u, the input Jacobian J and
the input Hessian diagonal H of a tanh network layer by layer; :func:`grad`
is the hand-derived reverse pass of that recursion (Griewank & Walther,
*Evaluating Derivatives*, 2008).  Given the cotangents of a scalar loss with
respect to (u, J, H) it returns the gradient in the flat parameters and, on
request, in the input, reusing the intermediates the forward pass recorded.
With no J/H cotangents it is plain backpropagation, so the same function
differentiates losses on values (a data term, a decoder) and losses on input
derivatives (a physics residual) without a generic autodiff engine.

Layout: a layer's J and H are one channel-major (2 d_in, B, n) array, the
d_in J channels first, then the d_in H channels.  A tanh slope (B, n) then
scales every channel as one contiguous slice, each layer takes J and H
through its weight in one flat (2 d_in B, n) @ W product (and its reverse
pass in one product with a contiguous copy of W^T), and the sums over
inputs i are sums over channels.  The bundle is returned, and its
cotangents taken, as (B, d_in, d_out) arrays.

Every matrix product that sums over the batch (the weight gradients
X^T G) goes through :func:`_batch_sum`, which sums fixed row blocks in
block order.  Each block is small enough that OpenBLAS computes it the
same way on one thread or two, so training does not depend on the BLAS
thread count.

A :class:`Workspace` holds one network's intermediates at one call site of a
training loop: every (B, .) array of the forward call (layer outputs t, the
tanh slopes s = 1 - t^2 and c = t s, the J/H arrays) and of the reverse pass
(the cotangents of every layer).  Each buffer is allocated on first use and
again only when its shape changes, so after the first step a training loop
that passes the same workspace every step allocates no batch-sized arrays.
What a call returns from a workspace (the values, the bundle, the input
cotangent) is a view into it, valid until the next call with that
workspace.  Without a workspace, :func:`forward` and
:func:`derivatives_batch` run the same operations into fresh arrays.

Hidden activations are tanh, the output layer is affine.  Parameters live in
one flat float64 vector; per-layer views are provided for inspection.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import TrainingError

__all__ = [
    "DenseNetwork",
    "Workspace",
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


class _Record(NamedTuple):
    """One layer of the forward record :func:`grad` reads.

    ``h`` is the layer input; ``t`` its tanh output, with s = 1 - t^2 and
    c = t s (None on the affine output layer; ``c`` only from
    :func:`derivatives_batch`).  ``tan`` holds the input derivatives J, H
    of h as one channel-major (2 d_in, B, .) array (None where implicit:
    the raw input and the first layer's rank-one ones) and ``tz`` those of
    the pre-activation (None from :func:`forward`).
    """

    h: np.ndarray
    t: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    tan: Optional[np.ndarray] = None
    tz: Optional[np.ndarray] = None


class Workspace:
    """The buffers and the forward record of one network at one call site.

    Pass the same workspace to :func:`forward` or :func:`derivatives_batch`
    and then to :func:`grad` at every training step.  Each call writes its
    (B, .) intermediates into the buffers held here, allocating one only on
    its first use or when its shape changes, so the arrays these calls
    return are views that the next call with this workspace overwrites.
    """

    def __init__(self):
        self.records = []
        self._buffers = {}

    def buffer(self, key, shape) -> np.ndarray:
        """The float64 buffer ``key`` of ``shape``, allocated anew only when
        it is missing or has another shape."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self._buffers[key] = np.empty(shape)
        return buf


def _out(cache, key, shape):
    """``cache``'s buffer ``key``, or a fresh array without one."""
    return np.empty(shape) if cache is None else cache.buffer(key, shape)


def _slopes(cache, li, t):
    """s = 1 - t^2 and c = t s of layer ``li``'s tanh output t."""
    s = np.multiply(t, t, out=_out(cache, ("s", li), t.shape))
    np.subtract(1.0, s, out=s)
    return s, np.multiply(t, s, out=_out(cache, ("c", li), t.shape))


# Limits on each block product of _batch_sum: at most _BLOCK_ROWS rows and
# _BLOCK_MULADDS multiply-adds.  A sweep of X.T @ G over widths m, n from 1
# to 1000 found every such block bitwise equal at 1 and 2 OpenBLAS threads
# (tests/test_threads.py repeats it at the presets' shapes).  Without the
# limits, products of about 10^6 multiply-adds differed, and so did
# matrix-vector ones (n = 1) of 1747 rows by 300 and 5242 rows by 100.
_BLOCK_ROWS = 1024
_BLOCK_MULADDS = 2 ** 19


def _batch_sum(x, g, out):
    """Add x.T @ g, a sum over the batch rows, to ``out`` block by block.

    The rows are cut into fixed blocks within the limits above and summed
    in block order, so the result does not depend on how many threads BLAS
    splits a product over.
    """
    rows = max(1, min(_BLOCK_ROWS,
                      _BLOCK_MULADDS // (x.shape[1] * g.shape[1])))
    for r in range(0, len(x), rows):
        out += x[r:r + rows].T @ g[r:r + rows]
    return out


def forward(net: DenseNetwork, x, cache: Optional[Workspace] = None):
    """Evaluate the network.  ``x``: (d_in,) or (B, d_in).

    With a :class:`Workspace` the layers are computed in its buffers and
    recorded for :func:`grad` (plain backpropagation of the returned
    values); the result is then a view valid until the next call with that
    workspace.  Without one every array is fresh.
    """
    xv = np.asarray(x, dtype=np.float64)
    single = xv.ndim == 1
    h = xv.reshape(1, -1) if single else xv
    _check_width(net, h.shape[-1])
    records = [] if cache is None else cache.records
    records.clear()
    layers = net.layer_views()
    for li, (w, b) in enumerate(layers):
        z = np.matmul(h, w, out=_out(cache, ("z", li), (len(h), w.shape[1])))
        z += b
        if li == len(layers) - 1:
            records.append(_Record(h))
            return z[0] if single else z
        t = np.tanh(z, out=z)
        if cache is not None:
            s = np.multiply(t, t, out=cache.buffer(("s", li), t.shape))
            records.append(_Record(h, t, np.subtract(1.0, s, out=s)))
        h = t


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


def derivatives_batch(net: DenseNetwork, x, cache: Optional[Workspace] = None):
    """Batched value + input derivatives.

    Returns ``(u, J, H)`` with shapes (B, d_out), (B, d_in, d_out),
    (B, d_in, d_out): ``J[b, i, o] = d out_o / d in_i`` and ``H`` the
    per-input second derivatives.  Through a tanh layer with pre-activation
    z, derivatives Jz = J W and Hz = H W and t = tanh(z):

        J' = (1 - t^2) Jz,    H' = (1 - t^2) Hz - 2 t (1 - t^2) Jz^2.

    J and H are held channel-major (see the module docstring) and returned
    as (B, d_in, d_out) views of that array.  The first layer's J', H' are
    never formed (see ``_rank_one_weights``).  With a :class:`Workspace`
    every layer's inputs, t, s = 1 - t^2, c = t s and derivatives live in
    its buffers and are recorded, so :func:`grad` can differentiate any
    loss of (u, J, H) in the parameters; the returned bundle is then a view
    valid until the next call with that workspace.  Without one every array
    is fresh.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 2:
        raise ValueError("derivatives_batch expects (B, d_in) input")
    bsz, d_in = xv.shape
    _check_width(net, d_in)
    records = [] if cache is None else cache.records
    records.clear()
    layers = net.layer_views()

    w, b = layers[0]
    z = np.matmul(xv, w, out=_out(cache, ("z", 0), (bsz, w.shape[1])))
    z += b
    if len(layers) == 1:  # affine network: J = W for every row, H = 0
        records.append(_Record(xv, tz=w[None]))
        jac = np.broadcast_to(w, (bsz, d_in, net.d_out)).copy()
        return z, jac, np.zeros((bsz, d_in, net.d_out))
    t = np.tanh(z, out=z)
    s, c = _slopes(cache, 0, t)
    records.append(_Record(xv, t, s, c))
    ws, wh = _rank_one_weights(w, layers[1][0])
    # the B-major products, in a buffer grad reuses, moved to channel-major
    flat = _out(cache, ("rank1", 1), (2, bsz, ws.shape[1]))
    np.matmul(s, ws, out=flat[0])
    np.matmul(c, wh, out=flat[1])
    tz = _out(cache, ("tz", 1), (2 * d_in, bsz, layers[1][0].shape[1]))
    tz.reshape(2, d_in, bsz, -1)[...] = flat.reshape(
        2, bsz, d_in, -1).transpose(0, 2, 1, 3)
    h, tan = t, None
    for li in range(1, len(layers)):
        w, b = layers[li]
        n = w.shape[1]
        z = np.matmul(h, w, out=_out(cache, ("z", li), (bsz, n)))
        z += b
        if li > 1:
            tz = np.matmul(tan.reshape(-1, w.shape[0]), w,
                           out=_out(cache, ("tz", li), (2 * d_in * bsz, n))
                           ).reshape(2 * d_in, bsz, n)
        if li == len(layers) - 1:
            records.append(_Record(h, tan=tan, tz=tz))
            return (z, tz[:d_in].transpose(1, 0, 2),
                    tz[d_in:].transpose(1, 0, 2))
        t = np.tanh(z, out=z)
        s, c = _slopes(cache, li, t)
        records.append(_Record(h, t, s, c, tan, tz))
        # J' = s Jz on every channel, then H' -= 2 c Jz^2
        tan = np.multiply(tz, s, out=_out(cache, ("tan", li), tz.shape))
        jsq = np.multiply(tz[:d_in], tz[:d_in],
                          out=_out(cache, ("jsq", li), (d_in, bsz, n)))
        jsq *= np.multiply(c, 2.0, out=_out(cache, ("c2", li), c.shape))
        tan[d_in:] -= jsq
        h = t


def grad(net: DenseNetwork, cache: Workspace, g_u, g_J=None, g_H=None,
         input_cotangent: bool = False):
    """Reverse pass of :func:`forward` / :func:`derivatives_batch`.

    ``cache`` is the workspace the forward call filled; ``g_u`` (B, d_out),
    ``g_J`` and ``g_H`` (B, d_in, d_out) are the cotangents dL/du, dL/dJ and
    dL/dH of a scalar loss L.  Returns ``(dtheta, g_x)``: dL/dtheta, a fresh
    array in the flat parameter order, and, with ``input_cotangent``,
    dL/dx (B, d_in), the input cotangent that chains a network fed by
    another network, a view into the workspace valid until its next call
    (else None).  With ``g_J`` and ``g_H`` both None this is plain
    backpropagation and either forward call will do; otherwise the
    workspace must come from :func:`derivatives_batch`, and a missing one
    of the two counts as zero.  The cotangents of the hidden layers are
    written into the workspace's buffers.
    """
    records = cache.records
    layers = net.layer_views()
    dtheta = np.zeros_like(net.theta)
    dlayers = net.layer_views(dtheta)
    g_h = np.asarray(g_u, dtype=np.float64)
    d_in, bsz = net.d_in, len(g_h)
    bundle = g_J is not None or g_H is not None
    if bundle:
        if records[-1].tz is None:
            raise ValueError("J/H cotangents need a derivatives_batch cache")
        # the output layer's cotangents of (J, H), channel-major
        g_to = cache.buffer(("g_tan", len(layers)),
                            (2 * d_in, bsz, net.d_out))
        for half, g in ((g_to[:d_in], g_J), (g_to[d_in:], g_H)):
            if g is None:
                half.fill(0.0)
            else:
                np.copyto(half, np.transpose(g, (1, 0, 2)))
    for li in range(len(layers) - 1, -1, -1):
        (w, _), (dw, db) = layers[li], dlayers[li]
        h, t, s, c, tan, tz = records[li]
        wt = np.ascontiguousarray(w.T)
        # g_z, g_to: cotangents of this layer's affine outputs z, (Jz, Hz)
        if t is None:
            g_z = g_h
        else:
            if bundle:
                # J' = s Jz and H' = s Hz - 2 c Jz^2 with c = t s, so
                # dL/ds = sum over channels of g_T' Tz and
                # dL/dc = -2 sum_i g_H' Jz^2 (the first layer's g_s, g_c
                # come from layer 1 below)
                if li > 0:
                    g_s = np.einsum("cbn,cbn->bn", g_to, tz,
                                    out=cache.buffer(("g_s", li), t.shape))
                    gh_jz = np.multiply(g_to[d_in:], tz[:d_in],
                                        out=cache.buffer(("gh_jz", li),
                                                         (d_in, *t.shape)))
                    g_c = np.einsum("cbn,cbn->bn", gh_jz, tz[:d_in],
                                    out=cache.buffer(("g_c", li), t.shape))
                    g_c *= -2.0
                    # g_to came from the layer above: update it in place to
                    # g_Jz = s g_J' - 4 c Jz g_H' and g_Hz = s g_H'
                    gh_jz *= np.multiply(c, 4.0, out=cache.buffer(
                        ("c4", li), t.shape))
                    g_to *= s
                    g_to[:d_in] -= gh_jz
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
            # input J, H are the first layer's rank-one s W0, -2 c W0^2
            w0 = layers[0][0]
            s0, c0 = records[0].s, records[0].c
            n0, n1 = w.shape
            g_flat = cache.buffer(("rank1", 1), (2, bsz, d_in * n1))
            g_flat.reshape(2, bsz, d_in, n1)[...] = g_to.reshape(
                2, d_in, bsz, n1).transpose(0, 2, 1, 3)
            # sg[n, i, m] = sum_b s0[b, n] g_Jz[i, b, m], likewise cg with c0
            sg = _batch_sum(s0, g_flat[0], np.zeros((n0, d_in * n1))
                            ).reshape(n0, d_in, n1)
            cg = _batch_sum(c0, g_flat[1], np.zeros((n0, d_in * n1))
                            ).reshape(sg.shape)
            dw += (np.einsum("nim,in->nm", sg, w0)
                   - 2.0 * np.einsum("nim,in->nm", cg, w0 * w0))
            dw0 = (np.einsum("nim,nm->in", sg, w)
                   - 4.0 * w0 * np.einsum("nim,nm->in", cg, w))
            ws, wh = _rank_one_weights(w0, w)
            g_s = np.matmul(g_flat[0], np.ascontiguousarray(ws.T),
                            out=cache.buffer(("g_s", 0), s0.shape))
            g_c = np.matmul(g_flat[1], np.ascontiguousarray(wh.T),
                            out=cache.buffer(("g_c", 0), s0.shape))
        elif bundle:  # li == 0
            dw += dw0 if t is not None else g_to[:d_in].sum(axis=1)
        if li > 0 or input_cotangent:
            g_h = np.matmul(g_z, wt, out=cache.buffer(("g_in", li), h.shape))
    return dtheta, g_h if input_cotangent else None


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
