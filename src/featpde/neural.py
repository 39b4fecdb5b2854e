"""Dense feedforward networks with input derivatives and their adjoint.

:func:`derivatives_batch` propagates the value u, the input Jacobian J and
one weighted Hessian trace L = sum_{i<m} w_i d^2u/dx_i^2 of a tanh network
layer by layer (the forward-Laplacian scheme of Li et al., *Forward
Laplacian*, Nat. Mach. Intell. 2024); :func:`grad` is the hand-derived
reverse pass of that recursion (Griewank & Walther, *Evaluating
Derivatives*, 2008).  Given the cotangents of a scalar loss with respect to
(u, J, L) it returns the gradient in the flat parameters and, on request,
in the input, reusing the intermediates the forward pass recorded.  With no
J/L cotangents it is plain backpropagation, so the same function
differentiates losses on values (a data term, a decoder) and losses on input
derivatives (a physics residual) without a generic autodiff engine.  The
weights w (B, m) differ per row and cover the leading m <= d_in inputs, so
a PDE residual that reads the Hessian only as diag . hess u (the PINN's,
the feature penalty's Ito term) gets it as one channel, and an input with
no weight (the PINN's time) costs no Hessian work.

Layout: a layer's J and L are one channel-major (d_in + 1, B, n) array,
the d_in J channels first, then L.  Through a tanh layer with slopes
s = 1 - t^2 and c = t s they follow

    J' = s Jz,    L' = s Lz - 2 c sum_{i<m} w_i Jz_i^2,

so the slope scales every channel as one contiguous slice, each layer
takes J and L through its weight in one flat ((d_in + 1) B, n) @ W product
(and its reverse pass in one product with a contiguous copy of W^T), and
the sums over inputs i are sums over channels.  J is returned, and its
cotangent taken, as a (B, d_in, d_out) array, L as (B, d_out).

Every matrix product that sums over the batch (the weight gradients
X^T G) goes through :func:`_batch_sum`, which sums fixed row blocks in
block order.  Each block is small enough that OpenBLAS computes it the
same way on one thread or two, so training does not depend on the BLAS
thread count.

The first tanh layer, the widest in the feature encoder, keeps only its
output t as a batch-sized array.  Its slopes s and c, and in the reverse
pass its cotangents, are formed in row blocks aligned with those of
:func:`_batch_sum`, so every sum adds the same blocks in the same order and
the results are the bits the whole arrays gave (see :func:`_row_blocks`).

A :class:`Workspace` holds one network's arrays at one call site of a
training loop: a buffer for each record :func:`grad` reads (layer outputs t,
the later layers' s and c, the J/L arrays) and each cotangent that crosses
layers, and one scratch pool for the other temporaries (the first layer's
row blocks, the hidden layers' g_s, g_c and q, the forward's 2c), whose
views overlap only those of other calls.  All are allocated on first use and
again only to grow or change shape, so a loop passing the same workspace
every step allocates no batch-sized arrays after the first.  A call returns
views into it, valid until its next call; without one, :func:`forward` and
:func:`derivatives_batch` run the same operations into fresh arrays.

Hidden activations are tanh, the output layer is affine.  Parameters live in
one flat float64 vector; per-layer views are provided for inspection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .errors import TrainingError
from .grid import write_text
from .sde import INIT_TAG, stream

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
    rng = stream(seed, INIT_TAG)
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
    c = t s (None on the affine output layer and, since :func:`grad` forms
    them in row blocks, on the first layer; ``c`` only from
    :func:`derivatives_batch`).  ``tan`` holds the input derivatives J, L
    of h as one channel-major (d_in + 1, B, .) array (None where implicit:
    the raw input and the first layer's rank-one ones) and ``tz`` those of
    the pre-activation (None from :func:`forward`).  On the hidden layers
    after the first, ``wj`` holds w_i Jz_i for the m weighted inputs and
    ``wsq`` their sum sum_i w_i Jz_i^2.
    """

    h: np.ndarray
    t: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    tan: Optional[np.ndarray] = None
    tz: Optional[np.ndarray] = None
    wj: Optional[np.ndarray] = None
    wsq: Optional[np.ndarray] = None


class Workspace:
    """The buffers and the forward record of one network at one call site.

    Pass the same workspace to :func:`forward` or :func:`derivatives_batch`
    and then to :func:`grad` at every training step.  Each call writes its
    records and cross-layer cotangents into a :meth:`buffer` each and its
    temporaries into :meth:`scratch` views of one pool, which any later call
    may overwrite; what a call returns is a view the next call overwrites.
    The forward call also leaves what :func:`grad` reads besides the layers:
    the (W, b) views it ran with and, from :func:`derivatives_batch`, the
    first layer's rank-one weights and the (m, B) Hessian weights.
    """

    def __init__(self):
        self.records = []
        self.layers = []
        self.rank_one = None
        self.weights = None
        self._buffers = {}

    def buffer(self, key, shape) -> np.ndarray:
        """The float64 buffer ``key`` of ``shape``, allocated anew only when
        it is missing or has another shape."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self._buffers[key] = np.empty(shape)
        return buf

    def scratch(self, *shapes):
        """Float64 views of the pool, one per shape, which never overlap
        each other but may overlap those of other calls."""
        end = [0, *accumulate(map(math.prod, shapes))]
        pool = self._buffers.get("pool")
        if pool is None or len(pool) < end[-1]:
            pool = self._buffers["pool"] = np.empty(end[-1])
        return [pool[a:b].reshape(s) for a, b, s in zip(end, end[1:], shapes)]


def _slopes(t, s, c=None):
    """s = 1 - t^2 of the tanh output t into ``s`` and, given ``c``,
    c = t s into ``c``; returns (s, c)."""
    np.multiply(t, t, out=s)
    np.subtract(1.0, s, out=s)
    if c is not None:
        np.multiply(t, s, out=c)
    return s, c


def _slope_chain(t, g_h, g_s, g_c):
    """Add to g_h, the cotangent of a tanh output t, the paths through
    s = 1 - t^2 and c = t s whose cotangents are g_s and g_c: ds/dt = -2t
    and dc/dt = 1 - 3t^2, so g_h - 2t g_s + (1 - 3t^2) g_c, in place.
    Spends g_s and g_c."""
    g_s *= t
    g_s *= 2.0
    g_h -= g_s
    dc_dt = np.multiply(t, 3.0, out=g_s)  # g_s is spent
    dc_dt *= t
    g_c *= np.subtract(1.0, dc_dt, out=dc_dt)
    g_h += g_c


# Limits on each block product of _batch_sum: at most _BLOCK_ROWS rows and
# _BLOCK_MULADDS multiply-adds.  A sweep of X.T @ G over widths m, n from 1
# to 1000 found every such block bitwise equal at 1 and 2 OpenBLAS threads
# (tests/test_threads.py repeats it at the presets' shapes).  Without the
# limits, products of about 10^6 multiply-adds differed, and so did
# matrix-vector ones (n = 1) of 1747 rows by 300 and 5242 rows by 100.
_BLOCK_ROWS = 1024
_BLOCK_MULADDS = 2 ** 19


def _sum_rows(m, n):
    """The rows of each block :func:`_batch_sum` cuts an x.T @ g of x
    width m and g width n into."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_MULADDS // max(1, m * n)))


def _batch_sum(x, g, out):
    """Add x.T @ g, a sum over the batch rows, to ``out`` block by block.

    The rows are cut into fixed blocks within the limits above and summed
    in block order, so the result does not depend on how many threads BLAS
    splits a product over.
    """
    rows = _sum_rows(x.shape[1], g.shape[1])
    for r in range(0, len(x), rows):
        out += x[r:r + rows].T @ g[r:r + rows]
    return out


# The first layer's s, c and cotangents are formed in row blocks, and a
# row-wise product on a block must round as the same rows of the product
# of all rows do.  A sweep of blocked against whole products with the
# OpenBLAS numpy bundles (0.3.31, AVX-512 cores), at 1 and 2 threads,
# found that to hold for matrix-matrix products of more than
# _SMALL_MULADDS multiply-adds, at most _BLOCK_WIDTH output columns and
# more rows than output columns.  Up to that size OpenBLAS uses
# small-matrix kernels, which can round some output columns differently;
# with no more rows than columns, two threads split the columns instead of
# the rows; past that width, the last columns of a width that is not a
# multiple of 8 round by the rows' position, and so does every row of a
# matrix-vector product.
_SMALL_MULADDS = 10 ** 6
_BLOCK_WIDTH = 192


def _row_blocks(bsz, rows, products=()):
    """Slices cutting [0, bsz) into blocks that start at multiples of
    ``rows``, so a :func:`_batch_sum` of ``rows``-row blocks adds the same
    blocks in the same order over them as over all rows.

    There is at least one block, empty when ``bsz`` is 0.  Without
    ``products`` each block has as many multiples of ``rows`` as fit in
    _BLOCK_ROWS rows (at least one), the last one fewer.
    ``products`` holds the (width, inner width) of each row-wise product a
    loop computes on every block.  Then every block has R rows, the least
    multiple of ``rows`` within the limits above for each product, and the
    last one also takes the rest; a product of width 1 or wider than
    _BLOCK_WIDTH takes all rows as one block.
    """
    products = [(n, k) for n, k in products if n * k]
    if any(n == 1 or n > _BLOCK_WIDTH for n, _ in products):
        return [slice(0, bsz)]
    if not products:
        rows *= max(1, _BLOCK_ROWS // rows)
        return [slice(r, min(r + rows, bsz))
                for r in range(0, max(bsz, 1), rows)]
    least = max(max(_SMALL_MULADDS // (n * k), n) for n, k in products) + 1
    rows *= -(-least // rows)
    n = max(1, bsz // rows)
    return [slice(i * rows, (i + 1) * rows if i < n - 1 else bsz)
            for i in range(n)]


def _slope_blocks(cache, t, blocks, with_c=False):
    """(row slice, s, c) over the row ``blocks`` of the first layer's tanh
    output t: s = 1 - t^2 and, ``with_c``, c = t s (else None), each formed
    in one view of ``cache``'s pool sized for the longest block."""
    k0, n0 = max(b.stop - b.start for b in blocks), t.shape[1]
    s_buf, c_buf = cache.scratch((k0, n0), (k0 * with_c, n0))
    for blk in blocks:
        k = blk.stop - blk.start
        yield blk, *_slopes(t[blk], s_buf[:k], c_buf[:k] if with_c else None)


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
    traced = cache is not None
    cache = Workspace() if cache is None else cache
    cache.records.clear()
    layers = cache.layers = net.layer_views()
    for li, (w, b) in enumerate(layers):
        z = np.matmul(h, w, out=cache.buffer(("z", li), (len(h), w.shape[1])))
        z += b
        if li == len(layers) - 1:
            cache.records.append(_Record(h))
            return z[0] if single else z
        t = np.tanh(z, out=z)
        if traced:  # grad forms the first layer's s itself
            s = _slopes(t, cache.buffer(("s", li), t.shape))[0] if li else None
            cache.records.append(_Record(h, t, s))
        h = t


def _rank_one_weights(w0, w1, m):
    """(n, d_in * m_1) and (n, m * m_1) weights taking the first tanh layer's
    s = 1 - t^2 and c = t s to the second layer's Jz and to the terms
    w_i Hz_i of its Lz, flattened over (input, unit); m_1 is w1's width.

    The first layer's derivatives are rank one per input i, J[b, i] =
    s[b] W0[i] and H[b, i] = -2 c[b] W0[i]^2, so Jz[b, i] = s[b] @ (W0[i]
    * W1) and Hz[b, i] = c[b] @ (-2 W0[i]^2 * W1) without forming J or H;
    only the m weighted inputs need Hz.
    """
    w0t = w0.T[:, :, None]
    ws = w0t * w1[:, None, :]
    wh = -2.0 * (w0t[:, :m] * w0t[:, :m]) * w1[:, None, :]
    return ws.reshape(len(w1), -1), wh.reshape(len(w1), -1)


def derivatives_batch(net: DenseNetwork, x, weights,
                      cache: Optional[Workspace] = None):
    """Batched value, input Jacobian and weighted Hessian trace.

    ``weights`` is (B, m) for the leading m <= d_in inputs.  Returns
    ``(u, J, L)`` with shapes (B, d_out), (B, d_in, d_out), (B, d_out):
    ``J[b, i, o] = d out_o / d in_i`` and ``L[b, o] = sum_{i < m}
    weights[b, i] d^2 out_o / d in_i^2``.  Through a tanh layer with
    pre-activation z, derivatives Jz = J W and Lz = L W and t = tanh(z):

        J' = (1 - t^2) Jz,
        L' = (1 - t^2) Lz - 2 t (1 - t^2) sum_{i<m} w_i Jz_i^2.

    J and L are held channel-major (see the module docstring) and returned
    as (B, d_in, d_out) and (B, d_out) views of that array.  The first
    layer's J', L' are never formed (see ``_rank_one_weights``), and its s
    and c are formed row block by row block.  With a :class:`Workspace`
    every layer's inputs, t, the later layers' s = 1 - t^2, c = t s and
    derivatives live in its buffers and are recorded, so :func:`grad` can
    differentiate any loss of (u, J, L) in the parameters; the returned
    bundle is then a view valid until the next call with that workspace.
    Without one every array is fresh.
    """
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
    cache = Workspace() if cache is None else cache
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
    records.append(_Record(xv, t))
    n0, n1 = w.shape[1], layers[1][0].shape[1]
    ws, wh = cache.rank_one = _rank_one_weights(w, layers[1][0], m)
    # the B-major products, in buffers grad reuses, moved to channel-major
    # and, for L, summed with the row weights; s and c are formed in the
    # row blocks grad sums s^T g_J by
    flat_j = cache.buffer(("rank1", "J"), (bsz, d_in * n1))
    flat_l = cache.buffer(("rank1", "L"), (bsz, m * n1))
    blocks = _row_blocks(bsz, 1, [(d_in * n1, n0), (m * n1, n0)])
    for blk, s, c in _slope_blocks(cache, t, blocks, True):
        np.matmul(s, ws, out=flat_j[blk])
        np.matmul(c, wh, out=flat_l[blk])
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
        s, c = _slopes(t, cache.buffer(("s", li), t.shape),
                       cache.buffer(("c", li), t.shape))
        wj = np.einsum("ibn,ib->ibn", tz[:m], wts,
                       out=cache.buffer(("wj", li), (m, bsz, n)))
        wsq = np.einsum("ibn,ibn->bn", wj, tz[:m],
                        out=cache.buffer(("wsq", li), t.shape))
        records.append(_Record(h, t, s, c, tan, tz, wj, wsq))
        # J' = s Jz and L' = s Lz on every channel, then L' -= 2 c wsq
        tan = np.multiply(tz, s, out=cache.buffer(("tan", li), tz.shape))
        c2 = np.multiply(c, 2.0, out=cache.scratch(t.shape)[0])
        tan[d_in] -= np.multiply(c2, wsq, out=c2)
        h = t


def grad(net: DenseNetwork, cache: Workspace, g_u, g_J=None, g_L=None,
         input_cotangent: bool = False):
    """Reverse pass of :func:`forward` / :func:`derivatives_batch`.

    ``cache`` is the workspace the forward call filled; ``g_u`` (B, d_out),
    ``g_J`` (B, d_in, d_out) and ``g_L`` (B, d_out) are the cotangents of
    a scalar loss with respect to u, J and L.  Returns ``(dtheta, g_x)``:
    the loss's gradient in the flat parameters, a fresh array, and, with
    ``input_cotangent``, its gradient in the input (B, d_in), the input
    cotangent that chains a network fed by another network, a view into
    the workspace valid until its next call (else None).  The Hessian
    weights count as constants.  With ``g_J`` and ``g_L`` both None this
    is plain backpropagation and either forward call will do; otherwise
    the workspace must come from :func:`derivatives_batch`, and a missing
    one of the two counts as zero.  The first tanh layer's cotangents are
    formed in row blocks (see :func:`_first_layer_grad`).
    """
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
    # a hidden first layer is left to _first_layer_grad, after layer 1
    last = 1 if len(layers) > 1 else 0
    for li in range(len(layers) - 1, last - 1, -1):
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
                g_s, g_c, q, qj = cache.scratch(*[t.shape] * 3, wj.shape)
                np.einsum("cbn,cbn->bn", g_to, tz, out=g_s)
                g_l = g_to[d_in]
                np.multiply(g_l, wsq, out=g_c)
                g_c *= -2.0
                # g_to came from the layer above: update it in place to
                # g_Jz_i = s g_J'_i - 4 c g_L' w_i Jz_i, g_Lz = s g_L'
                np.multiply(c, g_l, out=q)
                q *= 4.0
                q = np.multiply(wj, q, out=qj)
                g_to *= s
                g_to[:m] -= q
                # in place: g_h is this layer's buffer, never the caller's g_u
                _slope_chain(t, g_h, g_s, g_c)
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
            t0 = records[0].t
            n0, n1 = w.shape
            g_j = cache.buffer(("rank1", "J"), (bsz, d_in * n1))
            g_j.reshape(bsz, d_in, n1)[...] = g_to[:d_in].transpose(1, 0, 2)
            # the cotangent of c0 @ wh: g_Lz on each weighted input's block
            g_l = cache.buffer(("rank1", "L"), (bsz, m * n1))
            np.einsum("ib,bk->bik", wts, g_to[d_in],
                      out=g_l.reshape(bsz, m, n1))
            # sg[n, i, k] = sum_b s0[b, n] g_Jz[i, b, k], likewise cg with
            # c0 and the weighted g_Lz; s0 and c0 are formed in the blocks
            # of each sum
            sg, cg = np.zeros((n0, d_in * n1)), np.zeros((n0, m * n1))
            for blk, s0, _ in _slope_blocks(
                    cache, t0, _row_blocks(bsz, _sum_rows(n0, d_in * n1))):
                _batch_sum(s0, g_j[blk], sg)
            for blk, _, c0 in _slope_blocks(
                    cache, t0, _row_blocks(bsz, _sum_rows(n0, m * n1)), True):
                _batch_sum(c0, g_l[blk], cg)
            sg, cg = sg.reshape(n0, d_in, n1), cg.reshape(n0, m, n1)
            w0m = w0[:m]
            dw += (np.einsum("nik,in->nk", sg, w0)
                   - 2.0 * np.einsum("nik,in->nk", cg, w0m * w0m))
            dw0 = np.einsum("nik,nk->in", sg, w)
            dw0[:m] -= 4.0 * w0m * np.einsum("nik,nk->in", cg, w)
        elif bundle:  # an affine network: J = W for every row
            dw += g_to[:d_in].sum(axis=1)
        if li > last or (li == 0 and input_cotangent):
            g_h = np.matmul(g_z, wt, out=cache.buffer(("g_in", li), h.shape))
    if last:
        g_h = _first_layer_grad(cache, layers[0][0], dlayers[0], g_z, wt,
                                dw0 if bundle else None, input_cotangent)
    return dtheta, g_h if input_cotangent else None


def _first_layer_grad(cache, w, dparams, g_up, wt_up, dw_rank,
                      input_cotangent):
    """The reverse pass of the first tanh layer, whose record keeps only
    its input h and output t.

    ``g_up @ wt_up`` (layer 1's g_z and W^T) is the cotangent of t.  With
    J/L cotangents, ``dw_rank`` is the part of dW that layer 1 took from
    the rank-one products (see :func:`derivatives_batch`), and the
    cotangents g_s = g_Jz @ ws^T and g_c = g_Lz @ wh^T of those products
    join g_up @ wt_up through s and c; for plain backpropagation it is
    None.  These, s and g_z are formed in the row blocks in which
    :func:`_batch_sum` adds h^T g_z to dW, and the bias gradient adds g_z's
    rows in order: each block after the first is summed below a carry row
    that holds the running sum.  Returns the input cotangent g_z W^T, a
    view into the workspace, or None.
    """
    h, t = cache.records[0].h, cache.records[0].t
    dw, db = dparams
    bsz, n0 = t.shape
    bundle = dw_rank is not None
    products = [(n0, len(wt_up))]
    if bundle:
        ws, wh = cache.rank_one
        g_j = cache.buffer(("rank1", "J"), (bsz, ws.shape[1]))
        g_l = cache.buffer(("rank1", "L"), (bsz, wh.shape[1]))
        products += [(n0, ws.shape[1]), (n0, wh.shape[1])]
    g_x = None
    if input_cotangent:
        wt = np.ascontiguousarray(w.T)
        g_x = cache.buffer(("g_in", 0), h.shape)
        products.append((h.shape[1], n0))
    # with n0 = 1 there is one block (g_up @ wt_up is a matrix-vector
    # product), so db stays a pairwise sum over all rows, as it was
    blocks = _row_blocks(bsz, _sum_rows(h.shape[1], n0), products)
    k0 = max(b.stop - b.start for b in blocks)
    carry, g_s_buf, g_c_buf = cache.scratch((k0 + 1, n0), (k0, n0),
                                            (k0 * bundle, n0))
    for blk in blocks:
        k = blk.stop - blk.start
        g_h = np.matmul(g_up[blk], wt_up, out=carry[1:k + 1])
        if bundle:
            _slope_chain(t[blk], g_h,
                         np.matmul(g_j[blk], ws.T, out=g_s_buf[:k]),
                         np.matmul(g_l[blk], wh.T, out=g_c_buf[:k]))
        # s in g_s's scratch, which the chain has spent
        g_z = np.multiply(g_h, _slopes(t[blk], g_s_buf[:k])[0], out=g_h)
        _batch_sum(h[blk], g_z, dw)
        if blk.start:  # continue the sum from the running db
            carry[0] = db
            carry[:k + 1].sum(axis=0, out=db)
        else:
            g_z.sum(axis=0, out=db)
        if g_x is not None:
            np.matmul(g_z, wt, out=g_x[blk])
    if bundle:
        dw += dw_rank
    return g_x


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
    """Stream the network, ``seed`` and ``extra`` as ``json.dump`` would,
    through ``grid.write_text``; the path.  An ``extra`` that JSON cannot
    encode raises and leaves ``path`` as it was."""
    payload = {
        "widths": list(net.widths),
        "activation": net.activation,
        "theta": net.theta.tolist(),
        "seed": seed,
    }
    if extra:
        payload["extra"] = extra
    return write_text(path, json.JSONEncoder().iterencode(payload))


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
