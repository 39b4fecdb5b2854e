"""Config validation, command dispatch, artifact schemas, reproducibility."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from featpde.errors import ConfigError, UsageError
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
from featpde.sde import SimConfig, simulate_reduced


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


def test_simulate_requires_initial_point(tmp_path):
    with pytest.raises(ConfigError, match="xi0"):
        run({"preset": "lq-scalar", "sim": {"kind": "reduced"}},
            "simulate", out=str(tmp_path))


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
_PINN_AT = {"preset": "sys3d-value", "estimator": "pinn",
            "eval": {"points": [[1.5, 1.5]]}}
_ENCODER_AT = {"preset": "sys3d-value", "estimator": "riccati",
               "eval": {"points": [[1.5, 1.5]]}}


def _checkpoint_file(tmp_path, kind):
    """Write the checkpoint ``kind`` names and return its path: ``narrow``
    is a network on (xi1, t) where sys3d-value needs (xi1, xi2, t),
    ``encoder`` a valid (3, 4, 2) encoder, and the rest a sys3d-value PINN
    (2,273 parameters) with one fault."""
    path = str(tmp_path / f"{kind}.json")
    widths = {"narrow": (2, 4, 1), "encoder": (3, 4, 2)}.get(
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
