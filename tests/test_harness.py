"""Config validation, command dispatch, artifact schemas, reproducibility."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from featpde import cli, harness, reduction
from featpde.errors import ConfigError, UsageError
from featpde.featureid import AutoencoderNet
from featpde.harness import (
    _SCHEMA,
    ExperimentConfig,
    error_against,
    load_config,
    load_dataset_csv,
    run,
    validate_config,
)
from featpde.neural import (DenseNetwork, load_checkpoint,
                            save_checkpoint)
from featpde.pde import riccati_value
from featpde.presets import get_preset
from featpde.sde import SimConfig, ZeroPolicy, simulate, simulate_reduced


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "cfg,fragment",
    [
        ({"bogus": 1}, "unknown config key 'bogus'"),
        ({"preset": "lq-scalar", "pinn": {"epohcs": 3}}, "pinn.epohcs"),
        ({"preset": "lq-scalar", "mc": {"paths": 9}}, "mc.paths"),
        ({"preset": "sys4d"}, "unknown preset"),
        ({"preset": "lq-scalar", "estimator": "magic"}, "unknown estimator"),
        ({"preset": "lq-scalar", "task": "both"}, "task must be"),
        ({"preset": "lq-scalar", "inline": {"alpha": [1.0]}}, "not both"),
        ({"preset": "lq-scalar", "eval": 3}, "must be a mapping"),
        (
            {
                "preset": "lq-scalar",
                "reduction": {
                    "alpha": [1.0],
                    "beta_slope": [-1.0],
                    "encoder_checkpoint": "x.json",
                },
            },
            "not both",
        ),
        (
            {"preset": "lq-scalar",
             "reduction": {"encoder_checkpoint": "/nonexistent.json"}},
            "does not exist",
        ),
        # partial reduction blocks, which would run the preset's own
        # reduction
        ({"preset": "lq-scalar", "reduction": {"alpha": [2.0]}},
         "reduction.beta_slope"),
        ({"preset": "lq-scalar", "reduction": {"beta_slope": [-2.0]}},
         "reduction.alpha"),
        ({"preset": "lq-scalar", "reduction": {"ranges": [[-6.0, 6.0]]}},
         "reduction.alpha"),
        ({"preset": "lq-scalar",
          "reduction": {"alpha": [2.0], "ranges": [[-6.0, 6.0]]}},
         "reduction.beta_slope"),
        ({"preset": "sys3d-value",
          "reduction": {"state_domain": [[0.0, 1.0]] * 3}},
         "reduction.encoder_checkpoint"),
        ({"preset": "sys3d-value", "reduction": {"n_states": 200}},
         "reduction.encoder_checkpoint"),
        ({"preset": "sys3d-value", "reduction": {"n_levels": 8}},
         "reduction.encoder_checkpoint"),
    ],
)
def test_validate_config_rejects_with_field_path(cfg, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("(", "\\(")):
        validate_config(cfg)


def test_mc_bridge_correction_is_not_a_config_key():
    # no command reads it, so accepting it would silently return the
    # uncorrected estimate
    cfg = {"preset": "sys3d-safety", "mc": {"bridge_correction": True}}
    with pytest.raises(ConfigError, match="mc.bridge_correction"):
        validate_config(cfg)


def test_validate_config_accepts_known_keys():
    cfg = {
        "preset": "lq-scalar",
        "estimator": "riccati",
        "seed": 3,
        "eval": {"points": [[0.0]], "time": 0.0},
    }
    assert validate_config(cfg) is cfg


def test_load_config_missing_and_invalid(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("preset: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))


def test_resolve_requires_preset_or_inline():
    with pytest.raises(ConfigError, match="preset"):
        ExperimentConfig.resolve({"estimator": "riccati"})


def test_resolve_rejects_task_mismatch():
    with pytest.raises(ConfigError, match="value task"):
        ExperimentConfig.resolve({"preset": "lq-scalar", "task": "safety"})


def test_eval_grid_step_must_fit_domain():
    xc = ExperimentConfig.resolve(
        {"preset": "lq-scalar",
         "eval": {"domain": [[0.0, 1.0]], "step": 0.3}}
    )
    with pytest.raises(ConfigError, match="whole cells"):
        xc.eval_points()


def test_eval_points_dimension_checked():
    xc = ExperimentConfig.resolve(
        {"preset": "lq-scalar", "eval": {"points": [[0.0, 1.0]]}}
    )
    with pytest.raises(ConfigError, match="k = 1"):
        xc.eval_points()


def test_unknown_command_rejected():
    with pytest.raises(UsageError, match="unknown command"):
        run({"preset": "lq-scalar"}, "estimate-everything")


# ---------------------------------------------------------------------------
# estimate-value / estimate-safety


def test_estimate_value_riccati_artifacts(tmp_path):
    out = tmp_path / "r"
    arts = run(
        {"preset": "lq-scalar", "estimator": "riccati",
         "eval": {"points": [[0.0], [1.0]], "time": 0.0}},
        "estimate-value", out=str(out), seed=7,
    )
    assert [os.path.basename(a) for a in arts] == ["value.csv", "run.json"]
    lines = (out / "value.csv").read_text().splitlines()
    assert lines[0] == "xi1,t,estimate,std_error"
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(0.7436954806413412, rel=1e-12)
    assert float(row[3]) == 0.0
    payload = json.loads((out / "run.json").read_text())
    assert payload["command"] == "estimate-value"
    assert payload["seed"] == 7
    assert payload["artifacts"] == ["value.csv"]


def test_estimate_value_mc_matches_riccati(tmp_path):
    out = tmp_path / "mc"
    run(
        {"preset": "lq-scalar", "estimator": "mc_reduced",
         "mc": {"dt": 0.01, "n_paths": 2000},
         "eval": {"points": [[0.0], [1.0]], "time": 0.0}},
        "estimate-value", out=str(out), seed=7,
    )
    lines = (out / "value.csv").read_text().splitlines()[1:]
    lq = get_preset("lq-scalar").lq
    for ln in lines:
        xi, _, est, se = map(float, ln.split(","))
        truth = riccati_value(lq, np.array([[xi]]), 0.0)
        assert abs(est - truth) < 3.0 * se + 5e-3


def test_run_json_round_trip_is_bit_identical(tmp_path):
    cfg = {
        "preset": "lq-scalar",
        "estimator": "mc_reduced",
        "mc": {"dt": 0.01, "n_paths": 500},
        "eval": {"points": [[0.5]], "time": 0.5},
    }
    first = tmp_path / "a"
    run(cfg, "estimate-value", out=str(first), seed=11)
    payload = json.loads((first / "run.json").read_text())
    second = tmp_path / "b"
    run(payload["config"], payload["command"], out=str(second),
        seed=payload["seed"])
    assert (first / "value.csv").read_bytes() == (
        second / "value.csv"
    ).read_bytes()


def test_estimate_safety_reduced(tmp_path):
    out = tmp_path / "s"
    run(
        {"preset": "sys3d-safety", "estimator": "mc_reduced",
         "mc": {"dt": 1e-3, "n_paths": 1000},
         "eval": {"points": [[1.1, 1.1]], "time": 1.0}},
        "estimate-safety", out=str(out), seed=3,
    )
    lines = (out / "safety.csv").read_text().splitlines()
    assert lines[0] == "xi1,xi2,t,estimate,std_error"
    est = float(lines[1].split(",")[3])
    # frozen in the montecarlo suite for this exact seed and budget
    assert est == pytest.approx(0.447, abs=1e-12)


def test_estimate_value_rejects_safety_preset(tmp_path):
    with pytest.raises(ConfigError, match="value-task"):
        run({"preset": "sys3d-safety", "estimator": "mc_reduced"},
            "estimate-value", out=str(tmp_path))


def test_riccati_estimator_refused_for_safety(tmp_path):
    with pytest.raises(UsageError, match="value tasks only"):
        run(
            {"preset": "sys3d-safety", "estimator": "riccati",
             "eval": {"points": [[1.1, 1.1]]}},
            "estimate-safety", out=str(tmp_path),
        )


def test_mc_full_refused_without_full_system(tmp_path):
    with pytest.raises(UsageError, match="no full system"):
        run(
            {"preset": "lq-scalar", "estimator": "mc_full",
             "eval": {"points": [[0.0]], "time": 0.0},
             "mc": {"dt": 0.01, "n_paths": 10}},
            "estimate-value", out=str(tmp_path),
        )


# ---------------------------------------------------------------------------
# simulate


def test_simulate_reduced_csv(tmp_path):
    out = tmp_path / "sim"
    run(
        {"preset": "sys3d-value",
         "sim": {"kind": "reduced", "xi0": [1.5, 1.5], "dt": 0.01,
                  "horizon": 0.2, "n_paths": 3}},
        "simulate", out=str(out), seed=1,
    )
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "path,t,x1,x2"
    assert len(lines) - 1 == 3 * 21


def test_simulate_full_from_feature_point(tmp_path):
    out = tmp_path / "simf"
    run(
        {"preset": "sys3d-value",
         "sim": {"kind": "full", "xi0": [1.5, 1.5], "dt": 0.01,
                  "horizon": 0.2, "n_paths": 2}},
        "simulate", out=str(out), seed=1,
    )
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "path,t,x1,x2,x3"
    first = np.array(lines[1].split(","), dtype=np.float64)
    assert np.allclose(first[2:], [0.75, 0.75, 1.5])


def test_simulate_full_from_a_state_point(tmp_path):
    x0 = [0.2, -0.4, 1.0]
    run({"preset": "sys3d-value",
         "sim": {"kind": "full", "x0": x0, "dt": 0.01, "horizon": 0.2,
                 "n_paths": 2}},
        "simulate", out=str(tmp_path / "simx"), seed=1)
    p = get_preset("sys3d-value")
    want = simulate(p.system, ZeroPolicy(3), np.array(x0),
                    SimConfig(dt=0.01, horizon=0.2, seed=1, n_paths=2))
    want.to_csv(str(tmp_path / "want.csv"))
    assert ((tmp_path / "simx" / "trajectories.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_simulate_requires_initial_point(tmp_path):
    with pytest.raises(ConfigError, match="xi0"):
        run({"preset": "lq-scalar", "sim": {"kind": "reduced"}},
            "simulate", out=str(tmp_path))


# presets without a reduced SDE; both raised a raw AttributeError
@pytest.mark.parametrize("preset,xi0", [("heat-oracle", [1.0]),
                                        ("feature-ae-3d", [0.5, 0.5])])
def test_simulate_reduced_refused_without_reduced_sde(preset, xi0, tmp_path):
    with pytest.raises(ConfigError) as info:
        run({"preset": preset, "sim": {"kind": "reduced", "xi0": xi0}},
            "simulate", out=str(tmp_path))
    assert str(info.value) == f"preset {preset!r} has no reduced SDE"


# ---------------------------------------------------------------------------
# datasets


@pytest.fixture(scope="module")
def fd_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fdds")
    run({"preset": "sys3d-value", "dataset": {"source": "fd"}},
        "make-dataset", out=str(out))
    return out


def test_fd_dataset_grid_contract(fd_dataset_dir):
    lines = (fd_dataset_dir / "dataset.csv").read_text().splitlines()
    assert lines[0] == "# provenance: fd"
    assert lines[1] == "xi1,xi2,t,value"
    # 11 x 11 spatial nodes at 16 times
    assert len(lines) - 2 == 11 * 11 * 16
    rows = {}
    for ln in lines[2:]:
        a, b, t, v = map(float, ln.split(","))
        rows[(a, b, t)] = v
    # matches the Riccati reference within FD discretization error
    lq = get_preset("sys3d-value").lq
    truth = float(riccati_value(lq, np.array([[1.5, 1.5]]), 0.5))
    assert rows[(1.5, 1.5, 0.5)] == pytest.approx(truth, rel=2e-3)
    # terminal rows equal exp(-r) exactly (grid nodes coincide)
    assert rows[(1.0, 1.0, 1.5)] == pytest.approx(np.exp(-1.0), rel=1e-9)


def test_fd_dataset_loads_back(fd_dataset_dir):
    data = load_dataset_csv(str(fd_dataset_dir / "dataset.csv"))
    assert data.provenance == "FD"
    assert data.xi.shape == (11 * 11 * 16, 2)
    assert data.t.shape == (11 * 11 * 16,)
    assert float(data.target.min()) > 0.0


def test_mc_dataset_flags_and_terminal_rows(tmp_path):
    out = tmp_path / "mcds"
    run(
        {"preset": "lq-scalar",
         "dataset": {"source": "mc", "domain": [[-1.0, 1.0]], "step": 0.5,
                      "times": [0.0, 1.0], "se_ceiling": 0.004,
                      "dt": 0.01, "n_paths": 400}},
        "make-dataset", out=str(out), seed=3,
    )
    lines = (out / "dataset.csv").read_text().splitlines()
    assert lines[0] == "# provenance: mc"
    assert lines[1] == "xi1,t,value,std_error,flagged"
    body = [ln.split(",") for ln in lines[2:]]
    assert len(body) == 10
    for row in body:
        t, se, flag = float(row[1]), float(row[3]), row[4]
        if t == 1.0:
            # horizon rows come from the terminal condition, not sampling
            assert se == 0.0 and flag == "0"
        else:
            assert flag == ("1" if se > 0.004 else "0")
    terminal = {float(r[0]): float(r[2]) for r in body if float(r[1]) == 1.0}
    assert terminal[1.0] == pytest.approx(np.exp(-0.5), rel=1e-12)
    assert terminal[0.0] == 1.0


def test_mc_dataset_agrees_with_fd_within_2_sigma(tmp_path):
    common = {"domain": [[-1.0, 1.0]], "step": 0.5, "times": [0.0, 0.5, 1.0]}
    out_fd = tmp_path / "fd"
    run({"preset": "lq-scalar", "dataset": {"source": "fd", **common}},
        "make-dataset", out=str(out_fd))
    out_mc = tmp_path / "mc"
    run(
        {"preset": "lq-scalar",
         "dataset": {"source": "mc", "dt": 0.01, "n_paths": 4000, **common}},
        "make-dataset", out=str(out_mc), seed=5,
    )
    fd_rows = {}
    for ln in (out_fd / "dataset.csv").read_text().splitlines()[2:]:
        a, t, v = map(float, ln.split(","))
        fd_rows[(a, t)] = v
    agree = total = 0
    for ln in (out_mc / "dataset.csv").read_text().splitlines()[2:]:
        a, t, v, se, _ = map(float, ln.split(","))
        total += 1
        if abs(v - fd_rows[(a, t)]) <= 2.0 * se + 1e-9:
            agree += 1
    assert total == 15
    assert agree / total >= 0.95


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_schema_and_determinism(tmp_path):
    cfg = {
        "preset": "lq-scalar",
        "benchmark": {"estimators": ["mc_reduced"], "n_samples": [100, 400],
                       "oracle": "riccati", "repetitions": 2,
                       "points": [[0.0], [1.0]], "time": 0.0, "dt": 0.01},
    }
    out1 = tmp_path / "b1"
    run(cfg, "benchmark", out=str(out1), seed=0)
    lines = (out1 / "benchmark.csv").read_text().splitlines()
    assert lines[0] == "estimator,n_samples,rep,error_pct"
    assert len(lines) - 1 == 2 * 2
    est, n, rep, err = lines[1].split(",")
    assert est == "mc_reduced" and n == "100" and rep == "0"
    assert float(err) >= 0.0
    out2 = tmp_path / "b2"
    run(cfg, "benchmark", out=str(out2), seed=0)
    assert (out1 / "benchmark.csv").read_bytes() == (
        out2 / "benchmark.csv"
    ).read_bytes()


def test_benchmark_oracle_must_differ_from_estimators(tmp_path):
    with pytest.raises(ConfigError, match="distinct"):
        run(
            {"preset": "lq-scalar",
             "benchmark": {"estimators": ["mc_reduced"],
                            "oracle": "mc_reduced", "n_samples": [100]}},
            "benchmark", out=str(tmp_path),
        )


@pytest.mark.parametrize("bench,message", [
    ({"estimators": ["pinn"], "oracle": "riccati"},
     "benchmark estimator 'pinn' not supported"),
    ({"estimators": ["mc_reduced"], "oracle": "pinn"},
     "benchmark.oracle must be 'fd' or 'riccati'"),
], ids=["estimator", "oracle"])
def test_a_refused_benchmark_leaves_no_out_directory(bench, message,
                                                     tmp_path, capsys):
    # the out directory used to be made before the benchmark section was
    # checked, so a refused run left it behind empty
    path = tmp_path / "run.yaml"
    path.write_text(json.dumps({"preset": "lq-scalar",
                                "benchmark": dict(bench, n_samples=[100])}))
    out = tmp_path / "out"
    assert cli.main(["benchmark", "--config", str(path),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"featpde: error: {message}"), err
    assert not out.exists()


@pytest.mark.parametrize("points", [None, [[0.0, 1.0]]])
def test_benchmark_points_dimension_checked(points, tmp_path):
    # lq-scalar has k = 1; the default points have two coordinates
    bench = {"estimators": ["mc_reduced"], "oracle": "riccati",
             "n_samples": [100]}
    if points is not None:
        bench["points"] = points
    with pytest.raises(ConfigError) as info:
        run({"preset": "lq-scalar", "benchmark": bench}, "benchmark",
            out=str(tmp_path))
    assert str(info.value) == ("benchmark.points rows have 2 coordinates, "
                               "preset has k = 1")


def test_error_metric_is_zero_against_itself():
    vals = np.array([0.3, 0.5, 0.9])
    assert error_against(vals, vals, "percentage") == 0.0
    assert error_against(vals, vals, "absolute") == 0.0
    assert error_against(np.array([1.1]), np.array([1.0]),
                         "percentage") == pytest.approx(10.0, rel=1e-9)


# ---------------------------------------------------------------------------
# training commands


def test_train_pinn_artifacts(tmp_path):
    out = tmp_path / "tp"
    arts = run(
        {"preset": "lq-scalar",
         "pinn": {"epochs": 200, "n_domain": 64},
         "eval": {"time": 0.5}},
        "train-pinn", out=str(out), seed=0,
    )
    names = sorted(os.path.basename(a) for a in arts)
    assert names == ["pinn_checkpoint.json", "pinn_loss_log.csv",
                     "pinn_surface.csv", "run.json"]
    net, meta = load_checkpoint(str(out / "pinn_checkpoint.json"))
    assert net.widths == (2, 16, 16, 1)
    assert meta["extra"]["config"]["pinn"]["epochs"] == 200
    log_lines = (out / "pinn_loss_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,loss_physics,loss_data"
    surf = (out / "pinn_surface.csv").read_text().splitlines()
    assert surf[0] == "xi1,t,value"
    assert len(surf) - 1 == 41  # [-2, 2] at step 0.1, one time slice


def test_pinn_trains_alike_from_a_dataset_file(tmp_path):
    # make-dataset over the preset's training rows (the data grid at the
    # train-window times) writes the rows the FD data source computes
    p = get_preset("lq-scalar")
    lo, hi = p.train_window
    times = p.data_times[(p.data_times >= lo) & (p.data_times <= hi)]
    run({"preset": "lq-scalar", "dataset": {"times": times.tolist()}},
        "make-dataset", out=str(tmp_path / "ds"))
    pinn = {"epochs": 200, "n_domain": 64}
    sources = {"fd": {}, "file": {"data_path": str(tmp_path / "ds"
                                                   / "dataset.csv")}}
    outs = {}
    for source, extra in sources.items():
        outs[source] = tmp_path / source
        run({"preset": "lq-scalar",
             "pinn": dict(pinn, data_source=source, **extra)},
            "train-pinn", out=str(outs[source]), seed=0)
    logs, thetas = [], []
    for out in outs.values():
        logs.append((out / "pinn_loss_log.csv").read_bytes())
        with open(out / "pinn_checkpoint.json") as fh:
            thetas.append(json.load(fh)["theta"])
    assert logs[0] == logs[1]
    assert thetas[0] == thetas[1]


def test_train_features_and_encoder_reduction(tmp_path):
    out = tmp_path / "tf"
    arts = run(
        {"preset": "feature-ae-3d",
         "ae": {"epochs": 1, "iterations": 4, "batch_size": 64,
                 "encoder_hidden": [8], "n_states": 1000}},
        "train-features", out=str(out), seed=0,
    )
    names = sorted(os.path.basename(a) for a in arts)
    assert names == ["decoder_checkpoint.json", "encoder_checkpoint.json",
                     "feature_loss_log.csv", "run.json"]
    log_lines = (out / "feature_loss_log.csv").read_text().splitlines()
    assert log_lines[0] == "iteration,loss_rc,loss_ct,clamped_probes"
    assert len(log_lines) - 1 == 4

    # the trained encoder can stand in for the analytic reduction
    xc = ExperimentConfig.resolve(
        {"preset": "sys3d-value",
         "reduction": {
             "encoder_checkpoint": str(out / "encoder_checkpoint.json"),
             "state_domain": [[0.0, 1.0]] * 3,
             "n_states": 200,
             "n_levels": 8,
         }},
    )
    assert xc.preset.reduced.k == 2
    batch = simulate_reduced(
        xc.preset.reduced, np.array([0.5, 0.5]),
        SimConfig(dt=0.01, horizon=0.05, seed=0, n_paths=4),
    )
    assert np.isfinite(batch.states).all()


_WARM_AE = {"epochs": 1, "iterations": 2, "batch_size": 64, "n_states": 1000}


def _warm_start_pair(tmp_path, n, k):
    """Paths of a saved (n, 8, k) encoder and its (k, 8, 1) decoder."""
    paths = [str(tmp_path / "enc.json"), str(tmp_path / "dec.json")]
    AutoencoderNet.init(n, k, (8,), seed=4).save(*paths)
    return paths


def test_train_features_warm_starts_from_a_saved_pair(tmp_path,
                                                      monkeypatch):
    enc, dec = _warm_start_pair(tmp_path, 3, 2)
    given = []
    real = harness.train_autoencoder

    def recording(*args, init_net=None):
        # training updates the pair in place, so its start is copied here
        given.append([init_net.encoder.theta.copy(),
                      init_net.decoder.theta.copy()])
        return real(*args, init_net=init_net)

    monkeypatch.setattr(harness, "train_autoencoder", recording)
    out = tmp_path / "warm"
    run({"preset": "feature-ae-3d",
         "ae": dict(_WARM_AE, encoder_init=enc, decoder_init=dec)},
        "train-features", out=str(out), seed=0)
    [[enc_theta, dec_theta]] = given
    assert np.array_equal(enc_theta, load_checkpoint(enc)[0].theta)
    assert np.array_equal(dec_theta, load_checkpoint(dec)[0].theta)
    trained = load_checkpoint(str(out / "encoder_checkpoint.json"))[0]
    assert trained.widths == (3, 8, 2)


@pytest.mark.parametrize("n,k,ae", [(3, 2, {"k": 3}), (2, 2, {})],
                         ids=["k", "d_in"])
def test_warm_start_encoder_must_fit_the_state_and_k(n, k, ae, tmp_path):
    # a k = 2 pair under ae.k = 3 used to train a k = 2 encoder that
    # run.json recorded as k = 3
    enc, dec = _warm_start_pair(tmp_path, n, k)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=re.escape(
            f"ae.encoder_init maps {n} inputs to {k} features")):
        run({"preset": "feature-ae-3d",
             "ae": dict(_WARM_AE, encoder_init=enc, decoder_init=dec, **ae)},
            "train-features", out=str(out), seed=0)
    assert not out.exists()


@pytest.mark.parametrize("widths", [(3, 8, 1), (2, 8, 2)],
                         ids=["d_in", "d_out"])
def test_warm_start_decoder_must_fit_the_encoder(widths, tmp_path):
    # a (3, 8, 1) decoder under a (3, 8, 2) encoder used to fail with a
    # UsageError that named no key
    enc, _ = _warm_start_pair(tmp_path, 3, 2)
    dec = str(tmp_path / "wide_dec.json")
    save_checkpoint(DenseNetwork.init(widths, seed=5), dec)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=re.escape(
            f"ae.decoder_init maps {widths[0]} features to {widths[-1]} "
            f"outputs")):
        run({"preset": "feature-ae-3d",
             "ae": dict(_WARM_AE, encoder_init=enc, decoder_init=dec)},
            "train-features", out=str(out), seed=0)
    assert not out.exists()


def test_encoder_reduction_rerun_from_run_json_is_bit_identical(tmp_path):
    # the reduction is tabulated from sampled states, so it must be built
    # from the seed that run.json records, the override included
    enc = tmp_path / "tf"
    run({"preset": "feature-ae-3d",
         "ae": {"epochs": 1, "iterations": 4, "batch_size": 64,
                "encoder_hidden": [8], "n_states": 1000}},
        "train-features", out=str(enc), seed=0)
    cfg = {"preset": "sys3d-value", "estimator": "mc_reduced",
           "mc": {"dt": 0.01, "n_paths": 200},
           "eval": {"points": [[0.5, 0.5]], "time": 0.5},
           "reduction": {
               "encoder_checkpoint": str(enc / "encoder_checkpoint.json"),
               "state_domain": [[0.0, 1.0]] * 3,
               "n_states": 200,
               "n_levels": 8,
           }}
    first = tmp_path / "a"
    run(cfg, "estimate-value", out=str(first), seed=5)
    payload = json.loads((first / "run.json").read_text())
    assert payload["seed"] == 5
    second = tmp_path / "b"
    run(payload["config"], payload["command"], out=str(second))
    assert (first / "value.csv").read_bytes() == (
        second / "value.csv"
    ).read_bytes()


def test_encoder_reduction_knots_are_pinned(tmp_path, monkeypatch):
    # the knots (level keys, mean a, mean b) of one fixed encoder's
    # tabulated reduction, recorded as float.hex when a_i and b_i were
    # evaluated one state at a time with a central-difference Hessian.
    # One bundle call now gives every state's a and b: the keys and a moved
    # by rounding (largest 2.7e-15 and 3.2e-16 relative), b by that
    # Hessian's truncation (largest 4.3e-11 relative)
    calls = []
    bundle = reduction.derivatives_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return bundle(*args, **kwargs)

    monkeypatch.setattr(reduction, "derivatives_batch", counted)
    path = str(tmp_path / "encoder.json")
    save_checkpoint(DenseNetwork.init((3, 10, 2), seed=11), path)
    xc = ExperimentConfig.resolve(
        {"preset": "sys3d-value",
         "reduction": {"encoder_checkpoint": path,
                       "state_domain": [[0.0, 2.0]] * 3}})
    assert len(calls) == 1
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "encoder_reduction_knots.json")) as fh:
        pins = json.load(fh)
    red = xc.preset.reduced
    assert red.k == len(pins) == 2
    for alpha, beta, pin in zip(red.alpha, red.beta, pins):
        want = {name: np.array([float.fromhex(v) for v in pin[name]])
                for name in ("keys", "alpha", "beta")}
        assert np.array_equal(alpha.keywords["xp"], beta.keywords["xp"])
        np.testing.assert_allclose(alpha.keywords["xp"], want["keys"],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(alpha.keywords["fp"], want["alpha"],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(beta.keywords["fp"], want["beta"],
                                   rtol=1e-9, atol=0)


def test_riccati_follows_an_analytic_reduction_override(tmp_path):
    # the override's M = diag(alpha slope) and Sigma = diag(alpha) replace
    # the preset's; R, R_T and the horizon stay.  The preset's own Riccati
    # form gives 0.6408 here, where FD on the override gives 0.8587
    cfg = {"preset": "lq-scalar",
           "reduction": {"alpha": [2.0], "beta_slope": [-3.0]},
           "eval": {"points": [[1.0]], "time": 0.5}}
    values = {}
    for est in ("riccati", "fd"):
        out = tmp_path / est
        run(dict(cfg, estimator=est), "estimate-value", out=str(out))
        line = (out / "value.csv").read_text().splitlines()[1]
        values[est] = float(line.split(",")[2])
    assert abs(values["riccati"] - values["fd"]) < 1e-4
    lq = ExperimentConfig.resolve(cfg).preset.lq
    np.testing.assert_array_equal(lq.M, [[-6.0]])
    np.testing.assert_array_equal(lq.Sigma, [[2.0]])
    np.testing.assert_array_equal(lq.R, [[0.5]])
    np.testing.assert_array_equal(lq.R_T, [[0.5]])
    assert lq.horizon == 1.0


def test_riccati_refuses_under_an_encoder_override(tmp_path):
    # the Riccati form belongs to the analytic features, not learned ones
    path = str(tmp_path / "encoder.json")
    save_checkpoint(DenseNetwork.init((3, 10, 2), seed=11), path)
    cfg = dict(_ENCODER_AT, reduction={"encoder_checkpoint": path,
                                       "state_domain": [[0.0, 2.0]] * 3})
    with pytest.raises(UsageError, match="has no linear-quadratic form"):
        run(cfg, "estimate-value", out=str(tmp_path / "out"))


# ---------------------------------------------------------------------------
# inline systems


def test_inline_system_runs_value_estimate(tmp_path):
    out = tmp_path / "inline"
    run(
        {"inline": {"alpha": [1.0], "beta_slope": [-1.0],
                     "ranges": [[-6.0, 6.0]], "r_scale": 0.5,
                     "horizon": 1.0},
         "estimator": "riccati",
         "eval": {"points": [[0.0]], "time": 0.0}},
        "estimate-value", out=str(out),
    )
    lines = (out / "value.csv").read_text().splitlines()
    # identical problem to the lq-scalar preset
    assert float(lines[1].split(",")[2]) == pytest.approx(
        0.7436954806413412, rel=1e-12
    )


_BAD_RANGES = {"alpha": [1.0], "beta_slope": [-1.0],
               "ranges": [[-6.0, 0.0, 6.0]]}
_INLINE = {"alpha": [1.0], "beta_slope": [-1.0], "ranges": [[-6.0, 6.0]],
           "horizon": 1.0}
_AT_ZERO = {"points": [[0.0]]}
_NAN = float("nan")
_INF = float("inf")
_PINN_AT = {"preset": "sys3d-value", "estimator": "pinn",
            "eval": {"points": [[1.5, 1.5]]}}
_ENCODER_AT = {"preset": "sys3d-value", "estimator": "riccati",
               "eval": {"points": [[1.5, 1.5]]}}


def _checkpoint_file(tmp_path, kind):
    """Write the checkpoint ``kind`` names and return its path: ``narrow``
    is a network on (xi1, t) where sys3d-value needs (xi1, xi2, t),
    ``encoder`` a valid (3, 4, 2) encoder, ``encoder_2d`` and ``encoder_k1``
    encoders of a 2-d state and of one feature where sys3d-value has a 3-d
    state and two features, and the rest a sys3d-value PINN (2,273
    parameters) with one fault."""
    path = str(tmp_path / f"{kind}.json")
    widths = {"narrow": (2, 4, 1), "encoder": (3, 4, 2),
              "encoder_2d": (2, 4, 2), "encoder_k1": (3, 4, 1)}.get(
        kind, (3, 32, 32, 32, 1))
    save_checkpoint(DenseNetwork.init(widths, seed=0), path)
    with open(path) as fh:
        text = fh.read()
    payload = json.loads(text)
    if kind == "truncated":
        text = text[: len(text) // 2]
    elif kind == "no_theta":
        del payload["theta"]
    elif kind == "short_theta":
        payload["theta"] = payload["theta"][:2270]
    elif kind == "relu":
        payload["activation"] = "relu"
    if kind in ("no_theta", "short_theta", "relu"):
        text = json.dumps(payload)
    with open(path, "w") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize(
    "command,cfg,key",
    [
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati", "eval": {"step": 0}},
         "eval.step"),
        ("make-dataset", {"preset": "lq-scalar", "dataset": {"step": 0}},
         "dataset.step"),
        ("train-features",
         {"preset": "feature-ae-3d", "ae": {"n_states": 101 ** 3 + 1}},
         "ae.n_states"),
        ("estimate-value",
         {"inline": dict(_BAD_RANGES, horizon=1.0), "estimator": "riccati"},
         "inline.ranges"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati",
          "reduction": _BAD_RANGES},
         "reduction.ranges"),
        ("estimate-value", dict(_PINN_AT, pinn={"checkpoint": "@narrow"}),
         "pinn.checkpoint"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "fd", "fd": {"dxi": 0},
          "eval": {"points": [[0.0]]}},
         "fd.dxi"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati",
          "eval": {"points": [[0.0]], "time": "x"}},
         "eval.time"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "fd", "fd": {"dt": "x"},
          "eval": {"points": [[0.0]]}},
         "fd.dt"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "mc_reduced",
          "mc": {"n_paths": "x"}, "eval": {"points": [[0.0]]}},
         "mc.n_paths"),
        ("make-dataset",
         {"preset": "lq-scalar",
          "dataset": {"source": "mc", "domain": [[-1.0, 1.0]], "step": 0.5,
                      "times": [0.0], "n_paths": "x"}},
         "dataset.n_paths"),
        ("estimate-value",
         dict(_ENCODER_AT, reduction={"encoder_checkpoint": "@encoder",
                                      "n_levels": 0,
                                      "state_domain": [[0.0, 1.0]] * 3}),
         "reduction.n_levels"),
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"batch_size": "x"}},
         "pinn.batch_size"),
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"batch_size": 0}},
         "pinn.batch_size"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "fd", "fd": {"dt": -0.01},
          "eval": {"points": [[0.0]]}},
         "fd.dt"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "fd", "fd": {"dt": 0},
          "eval": {"points": [[0.0]]}},
         "fd.dt"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "fd", "fd": {"save_every": 0},
          "eval": {"points": [[0.0]]}},
         "fd.save_every"),
        # malformed checkpoint files, written by _checkpoint_file
        ("estimate-value", dict(_PINN_AT, pinn={"checkpoint": "@truncated"}),
         "pinn.checkpoint"),
        ("estimate-value", dict(_PINN_AT, pinn={"checkpoint": "@no_theta"}),
         "pinn.checkpoint"),
        ("estimate-value",
         dict(_PINN_AT, pinn={"checkpoint": "@short_theta"}),
         "pinn.checkpoint"),
        ("estimate-value", dict(_PINN_AT, pinn={"checkpoint": "@relu"}),
         "pinn.checkpoint"),
        ("estimate-value",
         dict(_ENCODER_AT, reduction={"encoder_checkpoint": "@truncated",
                                      "state_domain": [[0.0, 1.0]] * 3}),
         "reduction.encoder_checkpoint"),
        ("estimate-value",
         dict(_ENCODER_AT, reduction={"encoder_checkpoint": "@relu",
                                      "state_domain": [[0.0, 1.0]] * 3}),
         "reduction.encoder_checkpoint"),
        ("train-features",
         {"preset": "feature-ae-3d",
          "ae": {"encoder_init": "@no_theta", "decoder_init": "@no_theta"}},
         "ae.encoder_init"),
        # network widths: a list of positive integers
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"widths": [0]}},
         "pinn.widths"),
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"widths": [-3]}},
         "pinn.widths"),
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"widths": 32}},
         "pinn.widths"),
        ("train-features",
         {"preset": "feature-ae-3d", "ae": {"encoder_hidden": 10}},
         "ae.encoder_hidden"),
        ("train-features",
         {"preset": "feature-ae-3d", "ae": {"encoder_hidden": [0]}},
         "ae.encoder_hidden"),
        # bounds that the library configs check without naming the key
        ("simulate", {"preset": "lq-scalar", "sim": {"xi0": [0.0], "dt": 0}},
         "sim.dt"),
        ("simulate",
         {"preset": "lq-scalar", "sim": {"xi0": [0.0], "horizon": 0}},
         "sim.horizon"),
        ("simulate",
         {"preset": "lq-scalar", "sim": {"xi0": [0.0], "n_paths": 0}},
         "sim.n_paths"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "mc_reduced", "mc": {"dt": 0},
          "eval": _AT_ZERO},
         "mc.dt"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "mc_reduced",
          "mc": {"n_paths": 0}, "eval": _AT_ZERO},
         "mc.n_paths"),
        ("benchmark",
         {"preset": "lq-scalar",
          "benchmark": {"oracle": "riccati", "points": [[0.0]], "dt": 0}},
         "benchmark.dt"),
        ("benchmark",
         {"preset": "lq-scalar",
          "benchmark": {"oracle": "riccati", "points": [[0.0]],
                        "n_samples": [0]}},
         "benchmark.n_samples"),
        ("estimate-value",
         {"inline": dict(_INLINE, horizon=0), "estimator": "riccati",
          "eval": _AT_ZERO},
         "inline.horizon"),
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"epochs": -1}},
         "pinn.epochs"),
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"log_every": 0}},
         "pinn.log_every"),
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"n_domain": 0}},
         "pinn.n_domain"),
        ("train-features",
         {"preset": "feature-ae-3d", "ae": {"batch_size": 0}},
         "ae.batch_size"),
        ("train-features",
         {"preset": "feature-ae-3d", "ae": {"iterations": 0}},
         "ae.iterations"),
        ("train-features", {"preset": "feature-ae-3d", "ae": {"k": 0}},
         "ae.k"),
        ("benchmark",
         {"preset": "lq-scalar", "benchmark": {"repetitions": 0}},
         "benchmark.repetitions"),
        # values of the wrong kind
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati",
          "eval": {"points": "x"}},
         "eval.points"),
        ("make-dataset", {"preset": "lq-scalar", "dataset": {"times": "x"}},
         "dataset.times"),
        ("simulate", {"preset": "lq-scalar", "sim": {"xi0": "x"}}, "sim.xi0"),
        ("estimate-value",
         {"inline": dict(_INLINE, alpha=1.0), "estimator": "riccati",
          "eval": _AT_ZERO},
         "inline.alpha"),
        ("estimate-value",
         {"inline": dict(_INLINE, task="foo"), "estimator": "riccati",
          "eval": _AT_ZERO},
         "inline.task"),
        # values that used to be misread: bool("false") and int(2.5)
        ("train-pinn",
         {"preset": "lq-scalar",
          "pinn": {"resample_collocation": "false", "epochs": 1}},
         "pinn.resample_collocation"),
        ("train-pinn", {"preset": "lq-scalar", "pinn": {"epochs": 2.5}},
         "pinn.epochs"),
        # NaN, which passes every range check, in numbers, lists, rows and
        # intervals; the first two used to write a NaN row and exit 0
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "fd",
          "eval": {"points": [[_NAN]], "time": 0.0}},
         "eval.points"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati",
          "eval": {"points": [[0.0]], "time": _NAN}},
         "eval.time"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati",
          "eval": {"domain": [[_NAN, 1.0]], "step": 0.5, "time": 0.0}},
         "eval.domain"),
        ("estimate-value",
         {"inline": dict(_INLINE, r_scale=_NAN), "estimator": "riccati",
          "eval": _AT_ZERO},
         "inline.r_scale"),
        ("estimate-value",
         {"inline": dict(_INLINE, alpha=[_NAN]), "estimator": "riccati",
          "eval": _AT_ZERO},
         "inline.alpha"),
        ("estimate-value",
         {"inline": dict(_INLINE, ranges=[[_NAN, 6.0]]),
          "estimator": "riccati", "eval": _AT_ZERO},
         "inline.ranges"),
        ("simulate", {"preset": "lq-scalar", "sim": {"xi0": [_NAN]}},
         "sim.xi0"),
        ("simulate",
         {"preset": "lq-scalar", "sim": {"xi0": [0.0], "t0": _NAN}},
         "sim.t0"),
        ("benchmark",
         {"preset": "lq-scalar",
          "benchmark": {"oracle": "riccati", "points": [[0.0]],
                        "time": _NAN}},
         "benchmark.time"),
        ("make-dataset",
         {"preset": "lq-scalar", "dataset": {"times": [_NAN]}},
         "dataset.times"),
        # infinity, where no default uses it; these used to write an inf
        # row and exit 0 or fail late with a message naming no key
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati",
          "eval": {"points": [[_INF]], "time": 0.0}},
         "eval.points"),
        ("simulate",
         {"preset": "lq-scalar", "sim": {"xi0": [0.0], "horizon": _INF}},
         "sim.horizon"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "fd",
          "fd": {"domain": [[-_INF, 1.0]]}, "eval": {"points": [[0.0]]}},
         "fd.domain"),
        ("estimate-value",
         {"inline": dict(_INLINE, horizon=_INF), "estimator": "riccati",
          "eval": _AT_ZERO},
         "inline.horizon"),
        # a reduction override of another length than the preset's k
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati", "eval": _AT_ZERO,
          "reduction": {"alpha": [1.0, 2.0], "beta_slope": [-1.0, -1.0],
                        "ranges": [[-6.0, 6.0]] * 2}},
         "reduction.alpha"),
        # nonpositive alpha and empty ranges are config mistakes, not
        # numerical failures of the reduced-SDE builder
        ("estimate-value",
         {"inline": dict(_INLINE, alpha=[-1.0]), "estimator": "riccati",
          "eval": _AT_ZERO},
         "inline.alpha"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati", "eval": _AT_ZERO,
          "reduction": {"alpha": [0.0], "beta_slope": [-1.0]}},
         "reduction.alpha"),
        ("estimate-value",
         {"inline": dict(_INLINE, ranges=[[6.0, -6.0]]),
          "estimator": "riccati", "eval": _AT_ZERO},
         "inline.ranges"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati", "eval": _AT_ZERO,
          "reduction": {"alpha": [1.0], "beta_slope": [-1.0],
                        "ranges": [[6.0, -6.0]]}},
         "reduction.ranges"),
        ("train-pinn",
         {"preset": "lq-scalar", "pinn": {"data_source": "file"}},
         "pinn.data_path"),
        # an encoder of another state dimension or feature count than the
        # preset's: the first raised an unnamed ValueError in the network,
        # the second resolved and failed later in a route
        ("estimate-value",
         dict(_ENCODER_AT, reduction={"encoder_checkpoint": "@encoder_2d",
                                      "state_domain": [[0.0, 1.0]] * 3}),
         "reduction.encoder_checkpoint"),
        ("estimate-value",
         dict(_ENCODER_AT, estimator="mc_reduced",
              mc={"dt": 0.01, "n_paths": 10},
              reduction={"encoder_checkpoint": "@encoder_k1",
                         "state_domain": [[0.0, 1.0]] * 3}),
         "reduction.encoder_checkpoint"),
        # a start point of the wrong length: the first raised a raw
        # IndexError, the second dropped xi3 and ran, the last two raised
        # errors that did not name the key
        ("simulate",
         {"preset": "sys3d-value", "sim": {"kind": "full", "xi0": [1.0]}},
         "sim.xi0"),
        ("simulate",
         {"preset": "sys1000d-value",
          "sim": {"kind": "full", "xi0": [1.0, 2.0, 3.0], "dt": 0.1,
                  "horizon": 0.1, "n_paths": 2}},
         "sim.xi0"),
        ("simulate", {"preset": "sys3d-value", "sim": {"xi0": [1.0]}},
         "sim.xi0"),
        ("simulate",
         {"preset": "sys3d-value", "sim": {"kind": "full", "x0": [1.0, 2.0]}},
         "sim.x0"),
        # a time outside [0, horizon]: the first wrote rows at t = -0.5 and
        # exited 0, the fd route failed as a numerical error, and the Monte
        # Carlo routes raised errors that named no key
        ("make-dataset",
         {"preset": "sys3d-safety",
          "dataset": {"source": "mc", "times": [-0.5, 0.0]}},
         "dataset.times"),
        ("estimate-value",
         {"preset": "sys3d-value", "estimator": "fd",
          "eval": {"points": [[1.0, 1.0]], "time": 2.0}},
         "eval.time"),
        ("estimate-value",
         {"preset": "sys3d-value", "estimator": "mc_full",
          "mc": {"dt": 0.01, "n_paths": 10},
          "eval": {"points": [[1.0, 1.0]], "time": 2.0}},
         "eval.time"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "mc_reduced",
          "mc": {"dt": 0.01, "n_paths": 10},
          "eval": {"points": [[0.0]], "time": 1.5}},
         "eval.time"),
        ("estimate-safety",
         {"preset": "sys3d-safety", "estimator": "mc_reduced",
          "eval": {"points": [[1.1, 1.1]], "time": -0.5}},
         "eval.time"),
        ("benchmark",
         {"preset": "lq-scalar",
          "benchmark": {"oracle": "riccati", "points": [[0.0]],
                        "time": -0.1, "n_samples": [10], "repetitions": 1,
                        "dt": 0.01}},
         "benchmark.time"),
        # a whole number of 2**64 or more: each raised a TypeError from
        # np.isnan, which named no key
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "riccati", "seed": 2**64},
         "seed"),
        ("estimate-value",
         {"preset": "lq-scalar", "estimator": "mc_reduced",
          "mc": {"n_paths": 10**20}, "eval": {"points": [[0.0]]}},
         "mc.n_paths"),
        ("train-pinn", {"preset": "sys3d-value", "pinn": {"epochs": 2**70}},
         "pinn.epochs"),
        ("train-pinn",
         {"preset": "sys3d-value", "pinn": {"widths": [16, -2**70]}},
         "pinn.widths"),
    ],
)
def test_bad_config_values_name_their_key(command, cfg, key, tmp_path):
    # an "@kind" entry names a checkpoint file that _checkpoint_file writes
    cfg = {
        name: {k: _checkpoint_file(tmp_path, v[1:])
               if isinstance(v, str) and v.startswith("@") else v
               for k, v in section.items()}
        if isinstance(section, dict) else section
        for name, section in cfg.items()
    }
    with pytest.raises(ConfigError, match=re.escape(key)):
        run(cfg, command, out=str(tmp_path / "out"))


def test_a_seed_override_must_fit_the_philox_key(tmp_path):
    # --seed reaches resolve beside the config and meets the same 64 bits
    cfg = {"preset": "lq-scalar", "estimator": "riccati"}
    assert ExperimentConfig.resolve(cfg, seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ConfigError, match=re.escape("seed must be below")):
        run(cfg, "estimate-value", out=str(tmp_path), seed=2**64)


_RESAMPLED = {"epochs": 3, "resample_collocation": True, "n_domain": 10,
              "widths": [4], "log_every": 1}
# command -> (config, the largest seed its derived seeds allow, the start
# of the error one seed more raises)
_DERIVED_SEEDS = {
    "benchmark": (
        {"preset": "lq-scalar",
         "benchmark": {"estimators": ["mc_reduced"], "oracle": "riccati",
                       "n_samples": [20], "repetitions": 3,
                       "points": [[0.5]], "dt": 0.01}},
        2**64 - 3, "benchmark.repetitions: repetition 2 would be keyed by "
                   "seed + 2"),
    "train-pinn": (
        {"preset": "lq-scalar", "pinn": _RESAMPLED},
        2**64 - 3, "pinn.epochs: with pinn.resample_collocation, epoch 2's "
                   "collocation points would be keyed by seed + 2"),
    "estimate-value": (
        {"preset": "lq-scalar", "estimator": "pinn", "pinn": _RESAMPLED,
         "eval": {"points": [[0.0]]}},
        2**64 - 3, "pinn.epochs: with pinn.resample_collocation"),
    "train-features": (
        {"preset": "feature-ae-3d", "ae": dict(_WARM_AE, encoder_hidden=[8])},
        2**64 - 2, "seed: without ae.decoder_init, the decoder's "
                   "initialisation would be keyed by seed + 1"),
}


@pytest.mark.parametrize("command", list(_DERIVED_SEEDS))
def test_a_derived_seed_past_64_bits_names_its_key(command, tmp_path,
                                                    capsys):
    # benchmark used to run two repetitions and then raise an error that
    # named no key; the PINN's and the decoder's seeds raised numpy's
    # OverflowError through the command line as a traceback
    cfg, top, message = _DERIVED_SEEDS[command]
    path = tmp_path / "run.yaml"
    path.write_text(json.dumps(dict(cfg, seed=top + 1)))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"featpde: error: {message}"), err
    assert not out.exists()


@pytest.mark.parametrize("command", list(_DERIVED_SEEDS))
def test_the_largest_seed_a_derivation_allows_still_runs(command, tmp_path):
    cfg, top, _ = _DERIVED_SEEDS[command]
    arts = run(cfg, command, out=str(tmp_path), seed=top)
    assert all(os.path.exists(a) for a in arts) and len(arts) >= 2


def test_a_warm_started_decoder_needs_no_derived_seed(tmp_path):
    enc, dec = _warm_start_pair(tmp_path, 3, 2)
    out = tmp_path / "out"
    run({"preset": "feature-ae-3d",
         "ae": dict(_WARM_AE, encoder_init=enc, decoder_init=dec)},
        "train-features", out=str(out), seed=2**64 - 1)
    assert (out / "decoder_checkpoint.json").exists()


def _schema_keys():
    for name, spec in _SCHEMA.items():
        if isinstance(spec, dict):
            yield from (f"{name}.{sub}" for sub in spec)
        else:
            yield name


@pytest.mark.parametrize("key", list(_schema_keys()))
def test_every_schema_key_rejects_a_value_of_the_wrong_kind(key):
    section, _, name = key.rpartition(".")
    kind = (_SCHEMA[section][name] if section else _SCHEMA[name])[0]
    # a string is no number; a number is no name, list, row or path
    bad = "x" if kind in (float, int) else 1.5
    cfg = {section: {name: bad}} if section else {name: bad}
    if "preset" not in cfg and "inline" not in cfg:
        cfg["preset"] = "lq-scalar"
    with pytest.raises(ConfigError, match=re.escape(key)):
        validate_config(cfg)


def test_infinity_passes_where_a_default_uses_it():
    cfg = {"preset": "lq-scalar", "dataset": {"se_ceiling": float("inf")}}
    assert ExperimentConfig.resolve(cfg).typed["dataset"]["se_ceiling"] == (
        np.inf)


def test_int_keys_take_integral_floats():
    xc = ExperimentConfig.resolve(
        {"preset": "lq-scalar", "pinn": {"epochs": 4000.0}, "seed": 7.0})
    assert xc.pinn_config().epochs == 4000
    assert type(xc.pinn_config().epochs) is int
    assert xc.seed == 7 and xc.raw["seed"] == 7


def test_inline_requires_consistent_lengths():
    with pytest.raises(ConfigError, match="equal length"):
        ExperimentConfig.resolve(
            {"inline": {"alpha": [1.0, 2.0], "beta_slope": [-1.0],
                         "ranges": [[-1.0, 1.0]], "horizon": 1.0}}
        )


@pytest.mark.parametrize("command,cfg,key", [
    ("estimate-value",
     {"preset": "lq-scalar", "estimator": "riccati",
      "eval": {"points": np.array([[0.5]]), "time": 0.5}},
     "eval.points"),
    ("train-pinn",
     {"preset": "lq-scalar", "pinn": {"epochs": 2},
      "eval": {"points": np.array([[0.5]]), "time": 0.5}},
     "eval.points"),
    ("estimate-value",
     {"preset": "lq-scalar", "estimator": "mc_reduced",
      "mc": {"n_paths": np.int64(8)}, "eval": _AT_ZERO},
     "mc.n_paths"),
])
def test_a_value_json_cannot_encode_is_refused_before_the_command(
        command, cfg, key, tmp_path):
    # run.json holds the config, so the command must not run at all
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=re.escape(key)):
        run(cfg, command, out=str(out))
    assert not out.exists()


def test_run_from_a_file_loads_each_checkpoint_once(tmp_path, monkeypatch):
    path = _checkpoint_file(tmp_path, "pinn")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(json.dumps(dict(_PINN_AT, pinn={"checkpoint": path})))
    loads = []
    real = harness.load_checkpoint

    def counting(p):
        loads.append(p)
        return real(p)

    monkeypatch.setattr(harness, "load_checkpoint", counting)
    run(str(cfg), "estimate-value", out=str(tmp_path / "out"))
    assert loads == [path]


def test_resolving_a_loaded_file_loads_each_checkpoint_once(tmp_path,
                                                           monkeypatch):
    path = _checkpoint_file(tmp_path, "pinn")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(json.dumps(dict(_PINN_AT, pinn={"checkpoint": path})))
    loads = []
    real = harness.load_checkpoint
    monkeypatch.setattr(harness, "load_checkpoint",
                        lambda p: loads.append(p) or real(p))
    ExperimentConfig.resolve(load_config(str(cfg)))
    assert loads == [path]


def test_resolving_a_loaded_file_names_its_bad_key(tmp_path):
    # load_config only reads the file; the schema pass is resolve's
    cfg = tmp_path / "run.yaml"
    cfg.write_text("preset: lq-scalar\npinn:\n  epohcs: 3\n")
    loaded = load_config(str(cfg))
    assert loaded == {"preset": "lq-scalar", "pinn": {"epohcs": 3}}
    with pytest.raises(ConfigError, match=re.escape("pinn.epohcs")):
        ExperimentConfig.resolve(loaded)


# ---------------------------------------------------------------------------
# command-line interface


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "featpde.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=child_env(), timeout=120,
    )


def test_cli_success_exit_zero(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "preset: lq-scalar\n"
        "estimator: riccati\n"
        "eval:\n"
        "  points: [[0.0]]\n"
        "  time: 0.0\n"
    )
    res = _cli(["estimate-value", "--config", str(cfg), "--out",
                str(tmp_path / "out")], cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "out" / "value.csv").exists()
    assert "value.csv" in res.stdout


def test_cli_usage_errors_exit_one(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("preset: lq-scalar\npinn:\n  epohcs: 1\n")
    res = _cli(["solve-pde", "--config", str(cfg)], cwd=str(tmp_path))
    assert res.returncode == 1, res.stderr
    assert "pinn.epohcs" in res.stderr
    res = _cli(["no-such-command", "--config", str(cfg)], cwd=str(tmp_path))
    assert res.returncode == 1, res.stderr
    assert "invalid choice" in res.stderr
    assert "no-such-command" in res.stderr
    res = _cli(["estimate-value", "--config", str(tmp_path / "missing.yaml")],
               cwd=str(tmp_path))
    assert res.returncode == 1, res.stderr
    assert "not found" in res.stderr


def test_cli_numerical_failure_exits_two(tmp_path):
    cfg = tmp_path / "blow.yaml"
    cfg.write_text(
        "inline:\n"
        "  alpha: [1.0]\n"
        "  beta_slope: [40.0]\n"
        "  ranges: [[-6.0, 6.0]]\n"
        "  horizon: 1.0\n"
        "estimator: mc_reduced\n"
        "mc:\n"
        "  dt: 0.01\n"
        "  n_paths: 50\n"
        "eval:\n"
        "  points: [[1.0]]\n"
        "  time: 0.0\n"
    )
    res = _cli(["estimate-value", "--config", str(cfg), "--out",
                str(tmp_path / "o")], cwd=str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "numerical failure" in res.stderr


# A sampled route marches each row from its time, over T - t for a value
# and over t for safety.  A span that was no whole number of steps raised
# SimConfig's error, which named no key and printed the span
# (0.050000000000000044) in place of the time the config gives.
_UNEVEN_STEPS = {
    "mc_reduced": (
        "estimate-value",
        {"preset": "sys3d-value", "estimator": "mc_reduced",
         "mc": {"dt": 0.1, "n_paths": 10}, "eval": {"time": 1.45}},
        "eval.time 1.45 is not a whole number of mc.dt = 0.1 steps from "
        "the horizon 1.5"),
    "mc_full": (
        "estimate-value",
        {"preset": "sys3d-value", "estimator": "mc_full",
         "mc": {"dt": 0.1, "n_paths": 10}, "eval": {"time": 1.45}},
        "eval.time 1.45 is not a whole number of mc.dt = 0.1 steps from "
        "the horizon 1.5"),
    "make-dataset": (
        "make-dataset",
        {"preset": "sys3d-value",
         "dataset": {"source": "mc", "dt": 0.4, "n_paths": 10}},
        "dataset.times 0.0 is not a whole number of dataset.dt = 0.4 steps "
        "from the horizon 1.5"),
    "benchmark": (
        "benchmark",
        {"preset": "lq-scalar",
         "benchmark": {"estimators": ["mc_reduced"], "oracle": "riccati",
                       "n_samples": [10], "repetitions": 1,
                       "points": [[0.5]], "dt": 0.3}},
        "benchmark.time 0.5 is not a whole number of benchmark.dt = 0.3 "
        "steps from the horizon 1.0"),
}


@pytest.mark.parametrize("case", list(_UNEVEN_STEPS))
def test_a_step_that_does_not_divide_the_span_names_its_keys(case, tmp_path,
                                                             capsys):
    command, cfg, message = _UNEVEN_STEPS[case]
    path = tmp_path / "run.yaml"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"featpde: error: {message}"), err
    assert not out.exists()


@pytest.mark.parametrize("key", ["batch_size", "n_states"])
def test_a_penalty_batch_of_one_state_names_its_key(key, tmp_path, capsys):
    # the penalty's bucket thresholds need two feature samples; the command
    # line printed "threshold needs at least two feature samples", which
    # named no key
    path = tmp_path / "run.yaml"
    path.write_text(json.dumps(
        {"preset": "feature-ae-3d",
         "ae": {key: 1, "epochs": 1, "iterations": 1}}))
    out = tmp_path / "out"
    assert cli.main(["train-features", "--config", str(path),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"featpde: error: ae.{key} must be at least 2 "
                          f"when ae.w_ct > 0"), err
    assert not out.exists()


def test_a_batch_of_one_state_trains_without_the_penalty(tmp_path):
    cfg = {"preset": "feature-ae-3d",
           "ae": {"batch_size": 1, "w_ct": 0.0, "epochs": 1,
                  "iterations": 2, "encoder_hidden": [8]}}
    arts = run(cfg, "train-features", out=str(tmp_path))
    assert all(os.path.exists(a) for a in arts) and len(arts) == 4
