"""Tests for encoder/decoder feature learning and the preimage machinery."""

import threading

import numpy as np
import pytest

import gradient_cases as gc
from conftest import LateHelper
from featpde import featureid
from featpde.errors import (
    ConfigError,
    DegenerateThresholdError,
    UsageError,
)
from featpde.featureid import (
    AeTrainConfig,
    AutoencoderNet,
    build_preimage,
    epsilon_default,
    loss_ct,
    loss_rc,
    train_autoencoder,
    _ct_loss,
)
from featpde.neural import DenseNetwork, Workspace, forward
from featpde.presets import get_preset
from featpde.sde import StochasticSystem


def linear_encoder():
    # p = (x1 + x2, x3) as a bias-free affine network
    net = DenseNetwork.init((3, 2), seed=0)
    net.theta[:] = 0.0
    net.theta[:6] = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).ravel()
    return net


def quad_cost(x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return 0.5 * (x[:, 0] + x[:, 1]) ** 2 + 0.5 * x[:, 2] ** 2


def literal_system():
    def drift(x):
        x = np.atleast_2d(x)
        return np.column_stack([x[:, 0] + x[:, 2], x[:, 1] - x[:, 2],
                                x[:, 2]])
    return StochasticSystem(state_dim=3, control_dim=3, drift=drift,
                            diffusion_const=np.eye(3))


def zero_drift_system():
    return StochasticSystem(state_dim=3, control_dim=3,
                            drift=lambda x: np.zeros_like(np.atleast_2d(x)),
                            diffusion_const=np.eye(3))


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(3).uniform(0.0, 1.0, (200, 3))


# ------------------------------------------------------------- thresholds


def test_epsilon_two_samples():
    # (1/5) * mean consecutive sorted gap: ({0,1} has a single gap of 1)
    assert epsilon_default([0.0, 1.0]) == pytest.approx(0.2, abs=0)


def test_epsilon_arithmetic_sequence():
    h = 0.1
    seq = np.arange(0.0, 1.0 + 1e-12, h)
    assert epsilon_default(seq) == pytest.approx(h / 5.0, rel=1e-12)
    rng = np.random.default_rng(0)
    assert epsilon_default(rng.permutation(seq)) == pytest.approx(
        h / 5.0, rel=1e-12)


def test_epsilon_degenerate_and_short():
    with pytest.raises(DegenerateThresholdError):
        epsilon_default([0.7, 0.7, 0.7])
    with pytest.raises(UsageError):
        epsilon_default([0.7])


# -------------------------------------------------------------- preimage


def linear_feats(states):
    return forward(linear_encoder(), states)


def test_preimage_labels_are_a_partition(batch):
    # labels run 0..n_buckets-1 without holes, in ascending feature order
    feats = linear_feats(batch)
    pre = build_preimage(batch, feats, [0.05, 0.05])
    assert pre.labels.shape == (len(batch), 2)
    for i in range(2):
        lab = pre.labels[:, i]
        assert lab.min() == 0
        assert np.all(np.bincount(lab) > 0)
        assert np.all(np.diff(lab[np.argsort(feats[:, i])]) >= 0)


def test_preimage_chainwise_rule(batch):
    feats = linear_feats(batch)
    eps = 0.05
    pre = build_preimage(batch, feats, eps)
    for i in range(2):
        lab = pre.labels[:, i]
        for b in range(lab.max() + 1):
            v = np.sort(feats[lab == b, i])
            if v.size > 1:
                # members chain with gaps strictly below the threshold
                assert np.max(np.diff(v)) < eps
            if b > 0:
                # consecutive buckets are separated by at least the threshold
                assert v.min() - feats[lab == b - 1, i].max() >= eps


def test_preimage_threshold_extremes(batch):
    feats = linear_feats(batch)
    one = build_preimage(batch, feats, 10.0)
    assert np.all(one.labels == 0)
    tiny = build_preimage(batch, feats, 1e-15)
    assert np.array_equal(np.sort(tiny.labels[:, 0]), np.arange(len(batch)))


def test_preimage_rejects_bad_thresholds(batch):
    feats = linear_feats(batch)
    with pytest.raises(UsageError):
        build_preimage(batch, feats, [0.05, 0.05, 0.05])
    with pytest.raises(UsageError):
        build_preimage(batch, feats, 0.0)


def test_preimage_rejects_mismatched_features(batch):
    with pytest.raises(UsageError):
        build_preimage(batch, linear_feats(batch)[1:], 0.05)


def test_bucket_count_on_grid_snapped_features():
    # states snapped to a 0.01 grid: duplicates merge, so the bucket count
    # is the number of distinct feature values in the draw
    ax = np.round(np.arange(0.0, 1.0001, 0.01), 10)
    grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1).reshape(-1, 3)
    sub = grid[np.random.default_rng(0).choice(len(grid), 1000,
                                               replace=False)]
    feats = linear_feats(sub)
    eps = [epsilon_default(feats[:, 0]), epsilon_default(feats[:, 1])]
    pre = build_preimage(sub, feats, eps)
    for i in range(2):
        distinct = np.unique(np.round(feats[:, i], 9))
        assert pre.labels[:, i].max() + 1 == len(distinct)


# ---------------------------------------------------------------- losses


def test_ct_weights_match_per_bucket_formula(batch):
    feats = linear_feats(batch)
    eps = [0.05, 0.05]
    pre = build_preimage(batch, feats, eps)
    for i in range(2):
        # reference: one weight assignment per bucket
        order = np.argsort(feats[:, i], kind="stable")
        cuts = np.flatnonzero(np.diff(feats[order, i]) >= eps[i]) + 1
        buckets = np.split(order, cuts)
        assert max(idx.size for idx in buckets) > 1
        old = np.zeros(len(batch))
        for idx in buckets:
            old[idx] = 1.0 / (2 * len(buckets) * idx.size)
        assert np.array_equal(
            featureid._bucket_weights(pre.labels[:, i], 2), old)


def test_loss_rc_exact_affine_reconstruction(batch):
    dec = DenseNetwork.init((2, 1), seed=0)
    dec.theta[:] = [2.0, -1.0, 1.0]
    net = AutoencoderNet(encoder=linear_encoder(), decoder=dec)

    def affine_cost(x):
        x = np.atleast_2d(x)
        return 2.0 * (x[:, 0] + x[:, 1]) - x[:, 2] + 1.0

    assert loss_rc(net, batch, affine_cost) < 1e-30


def test_loss_rc_constant_decoder_gives_variance(batch):
    cvals = quad_cost(batch)
    dec = DenseNetwork.init((2, 1), seed=0)
    dec.theta[:] = [0.0, 0.0, cvals.mean()]
    net = AutoencoderNet(encoder=linear_encoder(), decoder=dec)
    assert loss_rc(net, batch, quad_cost) == pytest.approx(np.var(cvals),
                                                           rel=1e-12)


def test_loss_ct_zero_for_driftless_linear_features(batch):
    net = AutoencoderNet(encoder=linear_encoder(),
                         decoder=DenseNetwork.init((2, 4, 1), seed=1))
    pre = build_preimage(batch, linear_feats(batch), [0.05, 0.05])
    assert loss_ct(net, zero_drift_system(), pre) == 0.0


def test_loss_ct_hand_value_for_analytic_features(batch):
    # a = (2, 1) constant; b1 = (x1+x2)/2, b2 = x3 under the literal drift,
    # so the gradient penalty is |(1/2,1/2,0)|^2 = 1/2 and |(0,0,1)|^2 = 1
    # for every bucket member: loss = (1/2) (1/2 + 1) = 3/4
    net = AutoencoderNet(encoder=linear_encoder(),
                         decoder=DenseNetwork.init((2, 4, 1), seed=1))
    pre = build_preimage(batch, linear_feats(batch), [0.05, 0.05])
    assert loss_ct(net, literal_system(), pre) == pytest.approx(0.75,
                                                                rel=1e-10)


def test_loss_ct_clamps_dead_features(batch):
    # second feature has zero gradient everywhere: a_2 = 0 at every probe
    enc = DenseNetwork.init((3, 2), seed=0)
    enc.theta[:] = 0.0
    enc.theta[:6] = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]).ravel()
    net = AutoencoderNet(encoder=enc,
                         decoder=DenseNetwork.init((2, 4, 1), seed=1))
    pre = build_preimage(batch, forward(enc, batch), [0.05, 1.0])
    val, clamped, _ = _ct_loss(enc, literal_system(), pre, Workspace())
    assert clamped == 6 * len(batch)  # every probe of the dead feature
    # the dead feature contributes nothing (its generator drift vanishes
    # too); what remains is feature 1's constant-gradient term at half
    # weight
    assert float(val) == pytest.approx(0.25, rel=1e-10)


def test_loss_ct_rejects_correlated_diffusion(batch):
    net = AutoencoderNet(encoder=linear_encoder(),
                         decoder=DenseNetwork.init((2, 4, 1), seed=1))
    pre = build_preimage(batch, linear_feats(batch), [0.05, 0.05])
    sig = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    crooked = StochasticSystem(state_dim=3, control_dim=3,
                               drift=lambda x: np.zeros_like(np.atleast_2d(x)),
                               diffusion_const=sig)
    with pytest.raises(UsageError):
        loss_ct(net, crooked, pre)


# -------------------------------------------------------------- networks


def test_autoencoder_shapes_and_validation():
    net = AutoencoderNet.init(3, 2, hidden=(8, 4), seed=0)
    assert net.n == 3 and net.k == 2
    assert net.encoder.widths == (3, 8, 4, 2)
    assert net.decoder.widths == (2, 4, 8, 1)
    assert net.encode(np.zeros((5, 3))).shape == (5, 2)
    assert net.reconstruct(np.zeros((5, 3))).shape == (5,)
    with pytest.raises(UsageError):
        AutoencoderNet(encoder=DenseNetwork.init((3, 4, 2), seed=0),
                       decoder=DenseNetwork.init((3, 4, 1), seed=0))
    with pytest.raises(UsageError):
        AutoencoderNet(encoder=DenseNetwork.init((3, 4, 2), seed=0),
                       decoder=DenseNetwork.init((2, 4, 2), seed=0))


def test_autoencoder_save_load_roundtrip(tmp_path):
    net = AutoencoderNet.init(3, 2, hidden=(6,), seed=7)
    enc_p = str(tmp_path / "enc.json")
    dec_p = str(tmp_path / "dec.json")
    net.save(enc_p, dec_p, seed=7)
    back = AutoencoderNet.load(enc_p, dec_p)
    assert np.array_equal(back.encoder.theta, net.encoder.theta)
    assert np.array_equal(back.decoder.theta, net.decoder.theta)
    x = np.random.default_rng(1).uniform(0, 1, (4, 3))
    assert np.array_equal(back.reconstruct(x), net.reconstruct(x))


def test_config_validation():
    with pytest.raises(ConfigError):
        AeTrainConfig(w_rc=-1.0)
    with pytest.raises(ConfigError):
        AeTrainConfig(w_rc=0.0, w_ct=0.0)
    with pytest.raises(ConfigError):
        AeTrainConfig(d=0)
    with pytest.raises(ConfigError):
        AeTrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        AeTrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        AeTrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        AeTrainConfig(k=0)
    with pytest.raises(ConfigError):
        AeTrainConfig(encoder_hidden=())


# -------------------------------------------------------------- training


def test_regression_only_training_fits_linear_cost(batch):
    def affine_cost(x):
        x = np.atleast_2d(x)
        return x[:, 0] + 0.5 * x[:, 1] - x[:, 2]

    cfg = AeTrainConfig(w_rc=1.0, w_ct=0.0, k=2, epochs=2, iterations=150,
                        batch_size=200, lr=3e-3, seed=0,
                        encoder_hidden=(16,))
    res = train_autoencoder(literal_system(), affine_cost, batch, cfg)
    assert loss_rc(res.net, batch, affine_cost) < 1e-3
    assert res.preimage is None
    assert all(ct == 0.0 for _, _, ct, _ in res.log)


def test_penalty_only_training_leaves_the_decoder_as_it_was(batch):
    # with w_rc = 0 no reconstruction is computed: its loss reads 0, and
    # the decoder's gradient is zero, so Adam leaves it bit for bit
    init = AutoencoderNet.init(3, 2, (10, 4), seed=2)
    decoder, encoder = init.decoder.theta.copy(), init.encoder.theta.copy()
    cfg = AeTrainConfig(w_rc=0.0, w_ct=10.0, k=2, epochs=1, iterations=4,
                        batch_size=64, encoder_hidden=(10, 4), seed=11)
    res = train_autoencoder(literal_system(), quad_cost, batch, cfg,
                            init_net=init)
    assert [rc for _, rc, _, _ in res.log] == [0.0] * 4
    assert all(ct > 0.0 for _, _, ct, _ in res.log)
    assert np.array_equal(res.net.decoder.theta, decoder)
    assert not np.array_equal(res.net.encoder.theta, encoder)


def test_decoder_only_fit_with_frozen_analytic_encoder(batch):
    init = AutoencoderNet(encoder=linear_encoder(),
                          decoder=DenseNetwork.init((2, 10, 16, 1), seed=3))
    cfg = AeTrainConfig(w_rc=1.0, w_ct=0.0, k=2, epochs=8, iterations=1000,
                        batch_size=200, lr=1e-2, seed=0,
                        freeze_encoder=True)
    res = train_autoencoder(literal_system(), quad_cost, batch, cfg,
                            init_net=init)
    assert np.array_equal(res.net.encoder.theta, linear_encoder().theta)
    c = quad_cost(batch)
    err = res.net.reconstruct(batch) - c
    rel_l1 = np.sum(np.abs(err)) / np.sum(np.abs(c))
    assert rel_l1 < 0.005


def test_training_is_deterministic(batch):
    cfg = AeTrainConfig(k=2, epochs=1, iterations=8, batch_size=64,
                        encoder_hidden=(10, 4), seed=11)
    r1 = train_autoencoder(literal_system(), quad_cost, batch, cfg)
    r2 = train_autoencoder(literal_system(), quad_cost, batch, cfg)
    assert np.array_equal(r1.net.encoder.theta, r2.net.encoder.theta)
    assert np.array_equal(r1.net.decoder.theta, r2.net.decoder.theta)
    assert r1.log == r2.log


def test_total_loss_improves_for_most_seeds(batch):
    wins = 0
    for seed in range(20):
        cfg = AeTrainConfig(k=2, epochs=1, iterations=25, batch_size=150,
                            encoder_hidden=(20, 5), seed=seed, d=5)
        res = train_autoencoder(literal_system(), quad_cost, batch, cfg)
        first = cfg.w_rc * res.log[0][1] + cfg.w_ct * res.log[0][2]
        last = cfg.w_rc * res.log[-1][1] + cfg.w_ct * res.log[-1][2]
        if last < first:
            wins += 1
    assert wins >= 18, f"loss improved for only {wins}/20 seeds"


def test_preimage_refresh_period(batch):
    cfg = AeTrainConfig(k=2, epochs=1, iterations=6, batch_size=80,
                        encoder_hidden=(8,), seed=2, d=3)
    res = train_autoencoder(literal_system(), quad_cost, batch, cfg)
    assert res.preimage is not None
    assert res.epsilons is not None and res.epsilons.shape == (2,)
    # refreshed at iterations 0 and 3; members come from the iteration-3
    # batch, whose size is the configured batch size
    assert res.preimage.states.shape == (80, 3)


def test_training_log_csv(tmp_path, batch):
    cfg = AeTrainConfig(k=2, epochs=1, iterations=4, batch_size=50,
                        encoder_hidden=(6,), seed=0)
    res = train_autoencoder(literal_system(), quad_cost, batch, cfg)
    path = tmp_path / "ae_log.csv"
    res.log_to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,loss_rc,loss_ct,clamped_probes"
    assert len(lines) == 5


def test_training_input_validation(batch):
    cfg = AeTrainConfig(k=2, epochs=1, iterations=2, batch_size=20,
                        encoder_hidden=(4,))
    two_dim = StochasticSystem(state_dim=2, control_dim=2,
                               drift=lambda x: np.zeros_like(np.atleast_2d(x)),
                               diffusion_const=np.eye(2))
    with pytest.raises(UsageError):
        train_autoencoder(two_dim, quad_cost, batch, cfg)
    wrong_net = AutoencoderNet.init(4, 2, hidden=(4,), seed=0)
    with pytest.raises(UsageError):
        train_autoencoder(literal_system(), quad_cost, batch, cfg,
                          init_net=wrong_net)


# ------------------------------------------- recorded tape references


@pytest.mark.parametrize("name", ["smooth", "smooth_frozen", "clamped"])
def test_gradient_matches_recorded_tape_gradient(name):
    net, batch, cvals, pre, cfg = gc.feature_cases()[name]
    ref = gc.load_reference()["features"][name]
    assert np.array_equal(net.encoder.theta, gc.from_hex(ref["encoder_theta"]))
    assert np.array_equal(net.decoder.theta, gc.from_hex(ref["decoder_theta"]))
    lrc, lct, clamped, g = featureid._loss_and_grad(
        net, gc.feature_system(), batch, cvals, pre, cfg, gc.workspaces(3))
    assert clamped == ref["clamped"]
    assert gc.rel_dev([lrc, lct], gc.from_hex(ref["losses"])) <= 1e-10
    assert gc.rel_dev(g, gc.from_hex(ref["grad"])) <= 1e-10


def test_frozen_encoder_keeps_the_decoder_gradient():
    net, batch, cvals, pre, cfg = gc.feature_cases()["smooth"]
    _, _, _, g_joint = featureid._loss_and_grad(
        net, gc.feature_system(), batch, cvals, pre, cfg, gc.workspaces(3))
    cfg.freeze_encoder = True
    _, _, _, g_frozen = featureid._loss_and_grad(
        net, gc.feature_system(), batch, cvals, pre, cfg, gc.workspaces(3))
    ne = net.encoder.theta.size
    assert np.all(g_frozen[:ne] == 0.0)
    assert np.array_equal(g_frozen[ne:], g_joint[ne:])


@pytest.mark.parametrize("name", ["joint", "frozen"])
def test_training_log_matches_recorded_tape_log(name):
    states, cfg = gc.ae_log_cases()[name]
    ref = gc.load_reference()["ae_log"][name]
    res = train_autoencoder(gc.feature_system(), gc.feature_cost, states, cfg)
    assert [c for *_, c in res.log] == ref["clamped"]
    losses = [v for _, rc, ct, _ in res.log for v in (rc, ct)]
    assert gc.rel_dev(losses, gc.from_hex(ref["losses"])) <= 1e-9
    assert gc.rel_dev(res.net.decoder.theta,
                      gc.from_hex(ref["decoder_theta"])) <= 1e-9
    assert gc.rel_dev(res.net.encoder.theta,
                      gc.from_hex(ref["encoder_theta"])) <= 1e-9
    if cfg.freeze_encoder:
        assert np.array_equal(res.net.encoder.theta,
                              gc.from_hex(ref["encoder_theta"]))


# ---------------------------------- the reconstruction on a helper


def preset_shaped_case(cost_scale=1.0, with_feats=False):
    """``_loss_and_grad``'s arguments at the feature-ae-3d preset's shapes:
    a batch of 1000, 6000 penalty probes, hidden widths (100, 10)."""
    p = get_preset("feature-ae-3d")
    cfg = AeTrainConfig()
    net = AutoencoderNet.init(3, cfg.k, cfg.encoder_hidden, seed=2)
    batch = np.random.default_rng(2).uniform(0.0, 1.0, (cfg.batch_size, 3))
    caches = gc.workspaces(3)
    feats = forward(net.encoder, batch, caches[0])
    pre = build_preimage(batch, feats, [epsilon_default(f) for f in feats.T])
    cvals = cost_scale * p.cost_full(batch)
    return ((net, p.system, batch, cvals, pre, cfg, caches,
             feats if with_feats else None))


@pytest.mark.parametrize("with_feats", [False, True])
def test_loss_and_grad_is_bitwise_the_same_on_the_helper(train_helper,
                                                         monkeypatch,
                                                         with_feats):
    expected = featureid._loss_and_grad(*preset_shaped_case(
        with_feats=with_feats))
    ran_on = []
    real = featureid._recon_term

    def recording(*args):
        ran_on.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(featureid, "_recon_term", recording)
    got = featureid._loss_and_grad(
        *preset_shaped_case(with_feats=with_feats), helper=train_helper)
    assert got[:3] == expected[:3]
    assert got[3].tobytes() == expected[3].tobytes()
    assert ran_on == [threading.current_thread().name
                      if train_helper is None
                      or isinstance(train_helper, LateHelper)
                      else "featpde-test-eager"]


@pytest.mark.parametrize("term", ["recon", "penalty"])
def test_nonfinite_term_gives_no_gradient_on_the_helper(train_helper, term,
                                                        monkeypatch):
    case = preset_shaped_case(1e200 if term == "recon" else 1.0)
    if term == "penalty":
        real = featureid._ct_loss

        def overflowing(*args):
            lct, clamped, vjp = real(*args)
            return np.inf, clamped, vjp

        monkeypatch.setattr(featureid, "_ct_loss", overflowing)
    with np.errstate(over="ignore"):
        lrc, lct, _, g = featureid._loss_and_grad(*case, helper=train_helper)
    assert g is None
    assert not np.isfinite(lrc if term == "recon" else lct)


def test_a_raising_term_raises_what_the_serial_loop_raises(train_helper,
                                                           monkeypatch):
    def failing(name):
        def fail(*args):
            raise RuntimeError(name)
        return fail

    monkeypatch.setattr(featureid, "_recon_term", failing("recon"))
    with pytest.raises(RuntimeError, match="^recon$"):
        featureid._loss_and_grad(*preset_shaped_case(), helper=train_helper)
    monkeypatch.setattr(featureid, "_penalty_term", failing("penalty"))
    with pytest.raises(RuntimeError, match="^penalty$"):
        featureid._loss_and_grad(*preset_shaped_case(), helper=train_helper)


def test_reconstruction_runs_under_the_callers_error_state(train_helper):
    # np.errstate is per thread: the handed reconstruction must still raise
    case = preset_shaped_case(1e200)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            featureid._loss_and_grad(*case, helper=train_helper)


def test_training_joins_its_helper_when_a_term_raises(monkeypatch, batch):
    cfg = AeTrainConfig(epochs=1, iterations=8, batch_size=50, seed=1,
                        encoder_hidden=(6,))
    real = featureid._recon_term
    calls = []

    def fails_late(*args):
        calls.append(threading.current_thread().name)
        if len(calls) == 5:
            raise RuntimeError("reconstruction failed")
        return real(*args)

    monkeypatch.setattr(featureid, "_recon_term", fails_late)
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        train_autoencoder(literal_system(), quad_cost, batch, cfg)
    # the first iteration runs both terms on the calling thread; the
    # fixture no_stray_threads checks that the helper was joined
    assert calls[0] == threading.current_thread().name
