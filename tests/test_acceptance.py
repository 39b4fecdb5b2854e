"""Acceptance gate: the paper's cross-route claims on the shipped presets at
their own scale.

Every number comes from ``harness.run``, the entry point of the CLI
commands, and is compared with the Riccati reference or with another route.
The sampled routes are taken from ``harness.ROUTES``.  Shared work runs once
per module: one FD solve per preset, one PINN and one autoencoder, each
trained at its preset's budget.  Each bound comes from recorded runs at seed
0 with one and with two BLAS threads; CHANGES.md lists the runs.

Select the gate with ``pytest -m acceptance`` and leave it out with
``pytest -m "not acceptance"``.
"""

import numpy as np
import pytest

from featpde import harness
from featpde.featureid import AutoencoderNet
from featpde.pde import riccati_value
from featpde.presets import feature_state_grid, get_preset

pytestmark = pytest.mark.acceptance

SAMPLED = [name for name, route in harness.ROUTES.items()
           if route.role == "sampled"]
POINTS = [[1.1, 1.1], [1.5, 1.5], [1.9, 1.9]]
MC = {"dt": 1e-3, "n_paths": 10000}

# Largest |estimate - reference| / SE of a Monte Carlo estimate.  The points
# share each step's noise and the same Euler bias, so their z share a sign.
# Recorded against Riccati: sys3d-value z = -1.78, -1.84, -1.72
# (mc_reduced) and -2.22, -2.21, -2.05 (mc_full); sys1000d-value z = -0.59
# (mc_reduced) and -0.87 (mc_full).
MAX_Z = 4.0
# Largest |FD - Riccati| on sys3d-value at t = 0.5; recorded 6.0e-5.
FD_VALUE_MAX_ABS = 7.5e-5
# Discrete-monitoring bias of a safety estimate allowed on top of MAX_Z
# standard errors.  Recorded |estimate - FD|: at most 3.4e-4 (mc_reduced)
# and 1.3e-3 (mc_full), with SE between 2.5e-3 and 4.9e-3.
SAFETY_MC_BIAS = 0.01
# Path counts of the 1000-d checks.  The benchmark runs N_BENCH_FULL full
# paths against as many reduced paths as draw the same number of normals;
# recorded errors: 0.61, 2.11, 2.60% (mc_full, 100 paths) and 0.39, 0.48,
# 0.28% (mc_reduced, 50,000 paths).
N_FULL_1000D = 500
N_BENCH_FULL = 100
# The size of the gain at that equal cost, from one estimate-value run per
# route at (1.5, 1.5).  A reduced path's score has the law of a full path's,
# so the standard errors should differ by sqrt(m/k) = sqrt(500) = 22.4 and
# the per-path score variances (SE^2 N) should agree.  Recorded on seeds
# 0-15: SE ratio 19.93-24.32 (21.37 at seed 0), variance ratio, full over
# reduced, 0.795-1.182 (0.913 at seed 0), |z| against Riccati at most 2.62.
# The floor is the band's lower edge in SE terms: sqrt(500 * 0.6) = 17.3.
SE_RATIO_MIN = 17.0
VAR_RATIO_BAND = (0.6, 1.4)
# Relative-L1 error of the PINN against Riccati on the [1,2]^2 surface at
# t = 0.5; recorded 9.11%, the same bytes at one and two BLAS threads.
PINN_MAX_PCT = 12.0
# The same error at each later data time t = 0.6, ..., 1.5; recorded at
# most 7.78% (t = 0.6).
PINN_PROFILE_MAX_PCT = 10.0
# Relative-L1 error of the autoencoder's cost reconstruction on the state
# grid; recorded 14.9%.
RECON_MAX_PCT = 19.0
# R^2 of each true feature (x1 + x2, x3) regressed on the learned pair with
# an intercept; recorded 0.990 and 0.862.
R_SQUARED_MIN = (0.985, 0.825)


def table(path):
    """Body of a CSV artifact."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def estimate(out, preset, estimator, points, **sections):
    """Rows ``xi1, xi2, t, estimate, std_error`` of estimate-<task> at
    ``points`` and the preset's evaluation time."""
    cfg = {"preset": preset, "estimator": estimator,
           "eval": {"points": points}, **sections}
    task = get_preset(preset).task
    return table(harness.run(cfg, f"estimate-{task}", out=str(out))[0])


def riccati(preset, rows):
    """The Riccati value at the (xi, t) of estimate rows."""
    return riccati_value(get_preset(preset).lq, rows[:, :2], float(rows[0, 2]))


@pytest.fixture(scope="module")
def fd(tmp_path_factory):
    """FD rows at POINTS: one solve per preset."""
    return {name: estimate(tmp_path_factory.mktemp(name), name, "fd", POINTS)
            for name in ("sys3d-value", "sys3d-safety")}


@pytest.fixture(scope="module")
def pinn(tmp_path_factory):
    """Artifacts of train-pinn on sys3d-value at the preset's budget."""
    ckpt, _, surface, _ = harness.run({"preset": "sys3d-value"}, "train-pinn",
                                      out=str(tmp_path_factory.mktemp("pinn")))
    return ckpt, surface


@pytest.fixture(scope="module")
def autoencoder(tmp_path_factory):
    """The pair train-features learns on feature-ae-3d at the preset's
    budget."""
    enc, dec, _, _ = harness.run({"preset": "feature-ae-3d"}, "train-features",
                                 out=str(tmp_path_factory.mktemp("ae")))
    return AutoencoderNet.load(enc, dec)


# ---------------------------------------------------------------------------
# value and safety routes on the 3-d system


def test_sys3d_value_fd_matches_riccati(fd):
    rows = fd["sys3d-value"]
    assert (np.abs(rows[:, 3] - riccati("sys3d-value", rows)).max()
            <= FD_VALUE_MAX_ABS)


@pytest.mark.parametrize("estimator", SAMPLED)
def test_sys3d_value_mc_matches_riccati(estimator, tmp_path):
    rows = estimate(tmp_path, "sys3d-value", estimator, POINTS, mc=MC)
    z = (rows[:, 3] - riccati("sys3d-value", rows)) / rows[:, 4]
    assert np.abs(z).max() <= MAX_Z


@pytest.mark.parametrize("estimator", SAMPLED)
def test_sys3d_safety_mc_matches_fd(estimator, fd, tmp_path):
    rows = estimate(tmp_path, "sys3d-safety", estimator, POINTS, mc=MC)
    dev = np.abs(rows[:, 3] - fd["sys3d-safety"][:, 3])
    assert np.all(dev <= SAFETY_MC_BIAS + MAX_Z * rows[:, 4])


# ---------------------------------------------------------------------------
# the 1000-d system and the sample-efficiency claim


@pytest.mark.parametrize("estimator", SAMPLED)
def test_sys1000d_value_mc_matches_riccati(estimator, tmp_path):
    n = N_FULL_1000D if estimator == "mc_full" else MC["n_paths"]
    rows = estimate(tmp_path, "sys1000d-value", estimator, [[1.5, 1.5]],
                    mc={**MC, "n_paths": n})
    z = (rows[:, 3] - riccati("sys1000d-value", rows)) / rows[:, 4]
    assert np.abs(z).max() <= MAX_Z


def test_sys1000d_reduced_mc_beats_full_mc_at_equal_cost(tmp_path):
    # equal cost is equal normals drawn, not equal paths: at equal paths the
    # features of a correct reduction are equal in law to the full system's.
    # A full path draws one normal per noise coordinate and step, a reduced
    # path one per feature.
    p = get_preset("sys1000d-value")
    n_reduced = N_BENCH_FULL * p.system.control_dim // p.k
    errors = {}
    for estimator, n in (("mc_full", N_BENCH_FULL),
                         ("mc_reduced", n_reduced)):
        bench = {"estimators": [estimator], "n_samples": [n],
                 "oracle": "riccati", "repetitions": 3,
                 "points": [[1.5, 1.5]]}
        csv = harness.run({"preset": "sys1000d-value", "benchmark": bench},
                          "benchmark", out=str(tmp_path / estimator))[0]
        errors[estimator] = np.loadtxt(csv, delimiter=",", skiprows=1,
                                       usecols=3)
    assert errors["mc_reduced"].mean() < errors["mc_full"].mean()


def test_sys1000d_reduced_mc_gains_the_sample_efficiency_of_its_size(
        tmp_path):
    p = get_preset("sys1000d-value")
    n = {"mc_full": N_BENCH_FULL,
         "mc_reduced": N_BENCH_FULL * p.system.control_dim // p.k}
    rows = {est: estimate(tmp_path / est, "sys1000d-value", est,
                          [[1.5, 1.5]], mc={**MC, "n_paths": n[est]})
            for est in n}
    se = {est: r[0, 4] for est, r in rows.items()}
    assert se["mc_full"] / se["mc_reduced"] >= SE_RATIO_MIN
    var_ratio = (se["mc_full"] ** 2 * n["mc_full"]
                 / (se["mc_reduced"] ** 2 * n["mc_reduced"]))
    assert VAR_RATIO_BAND[0] <= var_ratio <= VAR_RATIO_BAND[1]
    for r in rows.values():
        z = (r[:, 3] - riccati("sys1000d-value", r)) / r[:, 4]
        assert np.abs(z).max() <= MAX_Z


# ---------------------------------------------------------------------------
# physics-informed network


def test_pinn_surface_matches_riccati(pinn):
    rows = table(pinn[1])
    err = harness.error_against(rows[:, 3], riccati("sys3d-value", rows))
    assert err <= PINN_MAX_PCT


def test_pinn_error_profile_after_eval_time(pinn, tmp_path):
    p = get_preset("sys3d-value")
    profile = {}
    for t in p.data_times[p.data_times > p.eval_time + 1e-9]:
        rows = table(harness.run(
            {"preset": "sys3d-value", "estimator": "pinn",
             "pinn": {"checkpoint": pinn[0]}, "eval": {"time": float(t)}},
            "estimate-value", out=str(tmp_path / f"t{t:.1f}"))[0])
        profile[float(t)] = harness.error_against(
            rows[:, 3], riccati("sys3d-value", rows))
    assert max(profile.values()) <= PINN_PROFILE_MAX_PCT, profile


# ---------------------------------------------------------------------------
# feature learning


def test_learned_features_reconstruct_cost(autoencoder):
    p = get_preset("feature-ae-3d")
    states = feature_state_grid(p)
    err = harness.error_against(autoencoder.reconstruct(states),
                                p.cost_full(states))
    assert err <= RECON_MAX_PCT


def test_learned_features_span_true_features(autoencoder):
    # the learned pair is a mixed basis of (x1 + x2, x3), so each true
    # feature is checked against the pair, not against one learned feature
    p = get_preset("feature-ae-3d")
    states = feature_state_grid(p)
    design = np.column_stack([np.ones(len(states)),
                              autoencoder.encode(states)])
    for true, r2_min in zip(p.features.p(states).T, R_SQUARED_MIN):
        coef, *_ = np.linalg.lstsq(design, true, rcond=None)
        resid = true - design @ coef
        r2 = 1.0 - resid @ resid / ((true - true.mean()) ** 2).sum()
        assert r2 >= r2_min
