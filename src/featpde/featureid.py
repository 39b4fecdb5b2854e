"""Automatic feature identification with an encoder/decoder pair.

The encoder maps states to k scalar features, the decoder reconstructs the
running cost (or barrier) from the features alone.  Training minimizes

    w_rc * mean((c(x) - decoder(encoder(x)))^2)
  + w_ct * comparison-theorem penalty

where the second term drives the level coefficients a_i(x) = Dp_i S Dp_i^T
(S = sigma sigma^T) and b_i(x) = A p_i(x) / a_i(x) toward constancy on each
preimage bucket {x : p_i(x) ~ xi}.  Constant-on-level-sets coefficients are
exactly the condition under which module `reduction` can replace the full
dynamics with k scalar SDEs, so a small penalty certifies the learned
features, not just the reconstruction.

The penalty differentiates a_i and b_i in the STATE by central differences
(step 1e-4 * (1 + |x_j|) per coordinate) of the encoder's Jacobian and
Hessian diagonal at the probes.  Its cotangents with respect to those
derivatives are closed-form in a_i and b_i (through the clamp, the
central-difference weights and the bucket weights), and `neural.grad`, the
reverse pass of the derivative bundle, turns them into exact parameter
gradients.  Nested exact third derivatives of the encoder are deliberately
avoided.  The reconstruction term backpropagates through the decoder and,
via the decoder's input cotangent, through the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateThresholdError,
    TrainingError,
    UsageError,
)
from .grid import write_csv
from .neural import (
    AdamState,
    DenseNetwork,
    adam_step,
    derivatives_batch,
    forward,
    grad,
    load_checkpoint,
    save_checkpoint,
)
from .sde import StochasticSystem

__all__ = [
    "AutoencoderNet",
    "PreimageIndex",
    "AeTrainConfig",
    "AeTrainResult",
    "epsilon_default",
    "build_preimage",
    "loss_rc",
    "loss_ct",
    "train_autoencoder",
]

# floor for the level diffusion inside b_i = A p_i / a_i: probing a feature
# with vanishing gradient would otherwise divide by zero.  The clamp keeps
# the barrier finite but large, and clamped probes are counted in the log.
CT_CLAMP_FLOOR = 1e-8
CT_FD_STEP = 1e-4

_BATCH_TAG = 0xFEA7


@dataclass
class AutoencoderNet:
    """Encoder (states -> features) and scalar decoder (features -> cost)."""

    encoder: DenseNetwork
    decoder: DenseNetwork

    def __post_init__(self):
        if self.encoder.d_out != self.decoder.d_in:
            raise UsageError(
                f"encoder produces {self.encoder.d_out} features, decoder "
                f"expects {self.decoder.d_in}"
            )
        if self.decoder.d_out != 1:
            raise UsageError("decoder must output a single reconstruction")

    @property
    def n(self) -> int:
        return self.encoder.d_in

    @property
    def k(self) -> int:
        return self.encoder.d_out

    @classmethod
    def init(cls, n: int, k: int, hidden: Sequence[int] = (100, 10),
             seed: int = 0) -> "AutoencoderNet":
        """Glorot-initialized pair; the decoder mirrors the encoder's
        hidden stack in reverse."""
        hidden = tuple(int(h) for h in hidden)
        if not hidden:
            raise ConfigError("need at least one hidden width")
        enc = DenseNetwork.init((n, *hidden, k), seed)
        dec = DenseNetwork.init((k, *hidden[::-1], 1), seed + 1)
        return cls(encoder=enc, decoder=dec)

    def encode(self, states) -> np.ndarray:
        return np.atleast_2d(forward(self.encoder,
                                     np.atleast_2d(np.asarray(states, float))))

    def reconstruct(self, states) -> np.ndarray:
        feats = self.encode(states)
        return np.atleast_2d(forward(self.decoder, feats))[:, 0]

    def save(self, encoder_path: str, decoder_path: str, seed=None):
        save_checkpoint(self.encoder, encoder_path, seed=seed)
        save_checkpoint(self.decoder, decoder_path, seed=seed)

    @classmethod
    def load(cls, encoder_path: str, decoder_path: str) -> "AutoencoderNet":
        enc, _ = load_checkpoint(encoder_path)
        dec, _ = load_checkpoint(decoder_path)
        return cls(encoder=enc, decoder=dec)


def epsilon_default(samples) -> float:
    """Bucket threshold: one fifth of the mean consecutive gap of the sorted
    feature samples, i.e. (max - min) / (5 (N - 1))."""
    v = np.asarray(samples, dtype=np.float64).reshape(-1)
    if v.size < 2:
        raise UsageError("threshold needs at least two feature samples")
    eps = float(np.mean(np.abs(np.diff(np.sort(v)))) / 5.0)
    if eps == 0.0:
        raise DegenerateThresholdError(
            "all feature samples identical: threshold collapsed to zero"
        )
    return eps


@dataclass
class PreimageIndex:
    """Single-linkage buckets of states by feature value, one set per feature.

    ``keys[i]`` holds the bucket representatives (cluster means) of feature
    i; ``members[i][j]`` the state indices of bucket j.  Two states share a
    bucket exactly when their feature values are chain-connected by gaps
    strictly below ``epsilons[i]``.
    """

    states: np.ndarray
    feats: np.ndarray
    epsilons: np.ndarray
    keys: list
    members: list

    @property
    def k(self) -> int:
        return len(self.keys)

    def n_buckets(self, i: int) -> int:
        return len(self.keys[i])


def build_preimage(states, encoder: DenseNetwork, epsilons) -> PreimageIndex:
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    feats = np.atleast_2d(forward(encoder, states))
    k = feats.shape[1]
    eps = np.asarray(epsilons, dtype=np.float64)
    if eps.ndim == 0:
        eps = np.full(k, float(eps))
    eps = eps.reshape(-1)
    if eps.size != k:
        raise UsageError(f"{eps.size} thresholds for {k} features")
    if np.any(eps <= 0):
        raise UsageError("thresholds must be positive")
    keys, members = [], []
    for i in range(k):
        order = np.argsort(feats[:, i], kind="stable")
        gaps = np.diff(feats[order, i])
        cuts = np.flatnonzero(gaps >= eps[i]) + 1
        groups = np.split(order, cuts)
        keys.append(np.array([feats[g, i].mean() for g in groups]))
        members.append([np.sort(g) for g in groups])
    return PreimageIndex(states=states, feats=feats, epsilons=eps,
                         keys=keys, members=members)


def loss_rc(net: AutoencoderNet, states, cost: Callable) -> float:
    """Mean squared cost-reconstruction error over the batch."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    cvals = np.asarray(cost(states), dtype=np.float64).reshape(-1)
    diff = net.reconstruct(states) - cvals
    return float(np.mean(diff * diff))


def _ct_probes(states):
    """Central-difference probe rows, blocked [+e_j; -e_j] per coordinate."""
    m, n = states.shape
    probes = np.empty((2 * n * m, n))
    steps = np.empty((n, m))
    for j in range(n):
        h = CT_FD_STEP * (1.0 + np.abs(states[:, j]))
        steps[j] = h
        plus = states.copy()
        plus[:, j] += h
        minus = states.copy()
        minus[:, j] -= h
        probes[2 * j * m:(2 * j + 1) * m] = plus
        probes[(2 * j + 1) * m:(2 * j + 2) * m] = minus
    return probes, steps


def _diffusion_diagonal(system: StochasticSystem, probes):
    sig = system.sigma_at(probes)
    ss_diag = np.einsum("plc,plc->pl", sig, sig)
    # the Ito term below contracts the feature Hessian DIAGONAL against
    # sigma sigma^T, which is only the full trace when S is diagonal
    n = probes.shape[1]
    sub = sig[: min(len(sig), 16)]
    full = np.einsum("plc,pqc->plq", sub, sub)
    off = full - full * np.eye(n)
    if np.max(np.abs(off)) > 1e-12 * (1.0 + np.abs(full).max()):
        raise UsageError(
            "comparison-theorem loss requires diagonal sigma sigma^T"
        )
    return ss_diag


def _ct_loss(encoder: DenseNetwork, system: StochasticSystem,
             preimage: PreimageIndex):
    """(penalty, clamped probe count, vjp); ``vjp(weight)`` is the gradient
    of weight * penalty in the encoder parameters."""
    states = preimage.states
    m, n = states.shape
    k = encoder.d_out
    if encoder.d_in != n:
        raise UsageError(
            f"encoder expects {encoder.d_in}-dimensional states, got {n}"
        )
    if preimage.k != k:
        raise UsageError("preimage was built for a different feature count")
    probes, steps = _ct_probes(states)
    cache = []
    u, jac, hess = derivatives_batch(encoder, probes, cache)
    f = np.asarray(system.drift(probes), dtype=np.float64)
    ss_diag = _diffusion_diagonal(system, probes)

    total = 0.0
    n_clamped = 0
    levels = []
    for i in range(k):
        a = ap = 0.0
        for l in range(n):
            g_l = jac[:, l, i]
            a = a + ss_diag[:, l] * (g_l * g_l)
            ap = ap + (f[:, l] * g_l + 0.5 * ss_diag[:, l] * hess[:, l, i])
        n_clamped += int(np.count_nonzero(a < CT_CLAMP_FLOOR))
        kept = a >= CT_CLAMP_FLOOR
        a_c = np.maximum(a, CT_CLAMP_FLOOR)
        b = ap / a_c
        # probe rows are blocked [+e_j; -e_j] per coordinate j
        a2, b2 = a.reshape(n, 2, m), b.reshape(n, 2, m)
        ga = (a2[:, 0] - a2[:, 1]) / (2.0 * steps)
        gb = (b2[:, 0] - b2[:, 1]) / (2.0 * steps)
        pen = (ga * ga + gb * gb).sum(axis=0)

        # two-level average: buckets weigh equally, members within a bucket
        # weigh equally, features weigh 1/k
        w = np.zeros(m)
        buckets = preimage.members[i]
        for idx in buckets:
            w[idx] = 1.0 / (k * len(buckets) * idx.size)
        total += float(np.sum(pen * w))
        levels.append((kept, a_c, b, ga, gb, w))

    def vjp(weight):
        g_jac = np.empty_like(jac)
        g_hess = np.empty_like(hess)
        for i, (kept, a_c, b, ga, gb, w) in enumerate(levels):
            # d pen / d ga_j = 2 ga_j, d ga_j / d a[+-e_j] = +-1 / (2 h_j)
            c_a = weight * w * ga / steps
            c_b = weight * w * gb / steps
            g_a = np.stack([c_a, -c_a], axis=1).reshape(-1)
            g_b = np.stack([c_b, -c_b], axis=1).reshape(-1)
            g_ap = g_b / a_c
            g_a = g_a - kept * (g_b * b / a_c)
            g_jac[:, :, i] = (2.0 * (g_a[:, None] * ss_diag) * jac[:, :, i]
                              + g_ap[:, None] * f)
            g_hess[:, :, i] = 0.5 * g_ap[:, None] * ss_diag
        return grad(encoder, cache, np.zeros_like(u), g_jac, g_hess)[0]

    return total, n_clamped, vjp


def loss_ct(net: AutoencoderNet, system: StochasticSystem,
            preimage: PreimageIndex) -> float:
    """Mean squared state-gradient of the level coefficients a_i, b_i of the
    learned features, averaged per bucket, per level, per feature."""
    return _ct_loss(net.encoder, system, preimage)[0]


def _loss_and_grad(net: AutoencoderNet, system: StochasticSystem, batch,
                   cvals, preimage, cfg: AeTrainConfig):
    """(L_rc, L_ct, clamped probes, gradient) of one training iteration.

    The gradient of w_rc L_rc + w_ct L_ct is flat over the encoder then the
    decoder parameters, and None when that loss is not finite.  A frozen
    encoder gets a zero gradient without a reverse pass through it: the CT
    penalty depends on the encoder alone, so it is then only evaluated.
    """
    lrc = lct = 0.0
    clamped = 0
    if cfg.w_rc > 0:
        enc_cache, dec_cache = [], []
        feats = forward(net.encoder, batch, enc_cache)
        diff = forward(net.decoder, feats, dec_cache)[:, 0] - cvals
        lrc = float(np.mean(diff * diff))
    if cfg.w_ct > 0:
        lct, clamped, ct_vjp = _ct_loss(net.encoder, system, preimage)
    if not np.isfinite(cfg.w_rc * lrc + cfg.w_ct * lct):
        return lrc, lct, clamped, None

    g_enc = np.zeros_like(net.encoder.theta)
    g_dec = np.zeros_like(net.decoder.theta)
    if cfg.w_rc > 0:
        g_recon = (2.0 * cfg.w_rc / diff.size) * diff
        g_dec, g_feats = grad(net.decoder, dec_cache, g_recon[:, None])
        if not cfg.freeze_encoder:
            g_enc += grad(net.encoder, enc_cache, g_feats)[0]
    if cfg.w_ct > 0 and not cfg.freeze_encoder:
        g_enc += ct_vjp(cfg.w_ct)
    return lrc, lct, clamped, np.concatenate([g_enc, g_dec])


@dataclass
class AeTrainConfig:
    """Loss weights, preimage refresh period and optimizer settings."""

    w_rc: float = 1.0
    w_ct: float = 10.0
    k: int = 2
    d: int = 1
    epochs: int = 5
    iterations: int = 100
    batch_size: int = 1000
    lr: float = 1e-3
    seed: int = 0
    encoder_hidden: tuple = (100, 10)
    freeze_encoder: bool = False

    def __post_init__(self):
        if self.w_rc < 0 or self.w_ct < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.w_rc + self.w_ct <= 0:
            raise ConfigError("at least one loss weight must be positive")
        if self.k < 1:
            raise ConfigError("feature count k must be >= 1")
        if self.d < 1:
            raise ConfigError("preimage refresh period d must be >= 1")
        if self.epochs < 1 or self.iterations < 1:
            raise ConfigError("epochs and iterations must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if not self.encoder_hidden:
            raise ConfigError("need at least one hidden width")


@dataclass
class AeTrainResult:
    """Trained pair plus the per-iteration loss log.

    Log rows are (iteration, loss_rc, loss_ct, clamped_probes); ``preimage``
    and ``epsilons`` reflect the last refresh.
    """

    net: AutoencoderNet
    log: list
    preimage: Optional[PreimageIndex] = None
    epsilons: Optional[np.ndarray] = None

    def log_to_csv(self, path: str):
        arr = np.asarray([(it, rc, ct, cl) for it, rc, ct, cl in self.log],
                         dtype=np.float64)
        write_csv(path, "iteration,loss_rc,loss_ct,clamped_probes", arr,
                  ("%d", "%.17g", "%.17g", "%d"))


def train_autoencoder(system: StochasticSystem, cost: Callable, states,
                      cfg: AeTrainConfig,
                      init_net: Optional[AutoencoderNet] = None
                      ) -> AeTrainResult:
    """Joint Adam training of encoder and decoder.

    Each iteration draws a fresh uniform batch; the preimage (and its
    thresholds) is rebuilt from the current batch every cfg.d iterations and
    reused in between, so the comparison-theorem penalty tracks a slightly
    stale bucket structure exactly as the update period dictates.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    n_states, n = states.shape
    if n != system.state_dim:
        raise UsageError(
            f"states have dimension {n}, system expects {system.state_dim}"
        )
    net = init_net if init_net is not None else AutoencoderNet.init(
        n, cfg.k, cfg.encoder_hidden, cfg.seed
    )
    if net.n != n:
        raise UsageError(
            f"network expects {net.n}-dimensional states, data has {n}"
        )
    use_ct = cfg.w_ct > 0
    gen = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, _BATCH_TAG],
                                      dtype=np.uint64))
    )
    ne = net.encoder.theta.size
    adam = AdamState.init(ne + net.decoder.theta.size)
    bs = min(cfg.batch_size, n_states)

    preimage = None
    eps_vec = None
    log = []
    it = 0
    for _ in range(cfg.epochs):
        for _ in range(cfg.iterations):
            idx = gen.choice(n_states, size=bs, replace=False)
            batch = states[idx]
            if use_ct and it % cfg.d == 0:
                feats = net.encode(batch)
                eps_vec = np.array([epsilon_default(feats[:, j])
                                    for j in range(net.k)])
                preimage = build_preimage(batch, net.encoder, eps_vec)

            cvals = (np.asarray(cost(batch), dtype=np.float64).reshape(-1)
                     if cfg.w_rc > 0 else None)
            lrc, lct, clamped, g = _loss_and_grad(net, system, batch, cvals,
                                                  preimage, cfg)
            if g is None:
                raise TrainingError(
                    f"non-finite training loss at iteration {it}"
                )
            theta = np.concatenate([net.encoder.theta, net.decoder.theta])
            adam, theta = adam_step(adam, theta, g, cfg.lr)
            net.encoder.theta = theta[:ne]
            net.decoder.theta = theta[ne:]
            log.append((it, lrc, lct, clamped))
            it += 1
    return AeTrainResult(net=net, log=log, preimage=preimage,
                         epsilons=eps_vec)
