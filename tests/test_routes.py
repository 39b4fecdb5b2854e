"""Byte-for-byte pins of every command's artifacts on small, fast configs,
the refusals of the estimator routes, and the names the tracer wraps.

``tests/data/route_outputs.json`` maps each case name to the sha256 of every
file the command writes, ``run.json`` included (the out directory is a
relative path, so it is the same on every machine).  Run from the repository
root with ``src`` on ``PYTHONPATH``,

    python3 tests/test_routes.py [CASE ...]

records the cases that have no pin yet and re-pins only the cases named on
the command line, so an existing pin changes only when its output is meant
to change.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from featpde import harness
from featpde.errors import ConfigError, UsageError
from featpde.harness import run

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "route_outputs.json")

# coarse oracle grids, so every FD solve takes a fraction of a second
FD_VALUE = {"dxi": 0.25, "dt": 0.01, "save_every": 10}
FD_SAFETY = {"dxi": 0.25, "dt": 0.01, "save_every": 10}
FD_SCALAR = {"dxi": 0.1, "dt": 0.01, "save_every": 10}
MC = {"dt": 0.01, "n_paths": 200}
GRID = {"domain": [[1.0, 2.0], [1.0, 2.0]], "step": 0.5}
PINN = {"epochs": 20, "n_domain": 32, "widths": [8], "log_every": 5}

CASES = {
    "value_riccati": ("estimate-value", {
        "preset": "sys3d-value", "estimator": "riccati", "eval": {**GRID},
    }, 0),
    "value_fd": ("estimate-value", {
        "preset": "sys3d-value", "estimator": "fd", "fd": FD_VALUE,
        "eval": {**GRID, "time": 0.25},
    }, 0),
    "value_pinn": ("estimate-value", {
        "preset": "lq-scalar", "estimator": "pinn", "fd": FD_SCALAR,
        "pinn": PINN, "eval": {"points": [[-1.0], [0.0], [0.5]]},
    }, 1),
    "value_mc_reduced": ("estimate-value", {
        "preset": "sys3d-value", "estimator": "mc_reduced", "mc": MC,
        "eval": {**GRID, "time": 0.5},
    }, 2),
    "value_mc_full": ("estimate-value", {
        "preset": "sys3d-value", "estimator": "mc_full", "mc": MC,
        "eval": {"points": [[1.5, 1.5], [1.1, 1.9]], "time": 1.0},
    }, 3),
    "safety_fd": ("estimate-safety", {
        "preset": "sys3d-safety", "estimator": "fd", "fd": FD_SAFETY,
        "eval": {**GRID, "time": 0.5},
    }, 0),
    "safety_pinn": ("estimate-safety", {
        "preset": "sys3d-safety", "estimator": "pinn", "fd": FD_SAFETY,
        "pinn": PINN, "eval": {"points": [[1.5, 1.5], [1.0, 2.0]]},
    }, 4),
    "safety_mc_reduced": ("estimate-safety", {
        "preset": "sys3d-safety", "estimator": "mc_reduced", "mc": MC,
        "eval": {**GRID, "time": 0.5},
    }, 5),
    "safety_mc_full": ("estimate-safety", {
        "preset": "sys3d-safety", "estimator": "mc_full", "mc": MC,
        "eval": {"points": [[1.5, 1.5], [1.1, 1.9]], "time": 0.5},
    }, 6),
    "dataset_fd": ("make-dataset", {
        "preset": "sys3d-value", "fd": FD_VALUE,
        "dataset": {"source": "fd", **GRID, "times": [0.0, 0.7, 1.5]},
    }, 0),
    "dataset_mc_value": ("make-dataset", {
        "preset": "lq-scalar",
        "dataset": {"source": "mc", "domain": [[-1.0, 1.0]], "step": 0.5,
                    "times": [0.0, 0.5, 1.0], "se_ceiling": 0.0155,
                    "dt": 0.01, "n_paths": 200},
    }, 7),
    "dataset_mc_safety": ("make-dataset", {
        "preset": "sys3d-safety",
        "dataset": {"source": "mc", **GRID, "times": [0.0, 0.3, 0.5],
                    "se_ceiling": 0.03, "dt": 0.01, "n_paths": 200},
    }, 8),
    "benchmark_riccati": ("benchmark", {
        "preset": "sys3d-value",
        "benchmark": {"estimators": ["mc_reduced", "mc_full"],
                      "n_samples": [50, 100], "oracle": "riccati",
                      "repetitions": 2, "points": [[1.5, 1.5], [1.2, 1.8]],
                      "time": 1.0, "dt": 0.01},
    }, 9),
    "benchmark_fd": ("benchmark", {
        "preset": "sys3d-value", "fd": FD_VALUE,
        "benchmark": {"estimators": ["mc_reduced", "mc_full"],
                      "n_samples": [60], "oracle": "fd", "repetitions": 2,
                      "points": [[1.5, 1.5]], "time": 1.0, "dt": 0.01,
                      "metric": "absolute"},
    }, 10),
    "simulate_full": ("simulate", {
        "preset": "sys3d-value",
        "sim": {"kind": "full", "xi0": [1.5, 1.5], "dt": 0.01,
                "horizon": 0.05, "n_paths": 3},
    }, 11),
    "simulate_reduced": ("simulate", {
        "preset": "sys3d-value",
        "sim": {"kind": "reduced", "xi0": [1.5, 1.5], "dt": 0.01,
                "horizon": 0.05, "n_paths": 3},
    }, 12),
    "solve_pde": ("solve-pde", {"preset": "sys3d-safety", "fd": FD_SAFETY},
                  0),
    "train_pinn": ("train-pinn", {
        "preset": "lq-scalar", "fd": FD_SCALAR, "pinn": PINN,
        "eval": {"time": 0.5},
    }, 13),
    "train_features": ("train-features", {
        "preset": "feature-ae-3d",
        "ae": {"epochs": 1, "iterations": 3, "batch_size": 64,
               "encoder_hidden": [8], "n_states": 300},
    }, 14),
    # two hidden layers reach the reverse pass's deeper-layer branches
    "train_pinn_deep": ("train-pinn", {
        "preset": "lq-scalar", "fd": FD_SCALAR,
        "pinn": {**PINN, "widths": [8, 8]}, "eval": {"time": 0.5},
    }, 15),
    "train_features_deep": ("train-features", {
        "preset": "feature-ae-3d",
        "ae": {"epochs": 1, "iterations": 3, "batch_size": 64,
               "encoder_hidden": [8, 4], "n_states": 300},
    }, 16),
}


def artifact_hashes(name):
    """sha256 of every file ``CASES[name]`` writes, run into the relative
    directory ``name`` of the working directory."""
    command, cfg, seed = CASES[name]
    arts = run(cfg, command, out=name, seed=seed)
    out = {}
    for path in arts:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_byte_identical(name, pins, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact_hashes(name) == pins[name]


# ---------------------------------------------------------------------------
# refused (task, estimator) pairs


@pytest.mark.parametrize("command,cfg,exc,message", [
    ("estimate-safety",
     {"preset": "sys3d-safety", "estimator": "riccati",
      "eval": {"points": [[1.1, 1.1]]}},
     UsageError, "the riccati estimator applies to value tasks only"),
    ("estimate-value",
     {"preset": "lq-scalar", "estimator": "mc_full", "mc": MC,
      "eval": {"points": [[0.0]], "time": 0.0}},
     UsageError, "preset 'lq-scalar' has no full system; mc_full does not "
                 "apply"),
    ("estimate-value",
     {"preset": "heat-oracle", "estimator": "riccati",
      "eval": {"points": [[1.0]]}},
     UsageError, "preset 'heat-oracle' has no linear-quadratic form; the "
                 "riccati estimator does not apply"),
    ("estimate-value",
     {"preset": "lq-scalar", "eval": {"points": [[0.0]]}},
     ConfigError, "config needs an 'estimator' for this command"),
    ("estimate-safety",
     {"preset": "sys3d-safety", "eval": {"points": [[1.1, 1.1]]}},
     ConfigError, "config needs an 'estimator' for this command"),
    # a preset without a reduced SDE, on a row to march, on an edge row
    # (t = T) and in benchmark's zero-row probe
    ("estimate-value",
     {"preset": "heat-oracle", "estimator": "mc_reduced", "mc": MC,
      "eval": {"points": [[1.0]], "time": 0.0}},
     UsageError, "preset 'heat-oracle' has no reduced SDE; mc_reduced does "
                 "not apply"),
    ("estimate-value",
     {"preset": "heat-oracle", "estimator": "mc_reduced", "mc": MC,
      "eval": {"points": [[1.0]], "time": 1.0}},
     UsageError, "preset 'heat-oracle' has no reduced SDE; mc_reduced does "
                 "not apply"),
    ("benchmark",
     {"preset": "heat-oracle",
      "benchmark": {"points": [[1.0]], "time": 0.0, "n_samples": [10],
                    "repetitions": 1, "dt": 0.01}},
     UsageError, "preset 'heat-oracle' has no reduced SDE; mc_reduced does "
                 "not apply"),
])
def test_refused_pairs(command, cfg, exc, message, tmp_path):
    with pytest.raises(exc) as info:
        run(cfg, command, out=str(tmp_path))
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("bench,message", [
    ({"estimators": ["fd"]},
     "benchmark estimator 'fd' not supported; use mc_full or mc_reduced"),
    ({"estimators": ["mc_reduced"], "oracle": "pinn"},
     "benchmark.oracle must be 'fd' or 'riccati'"),
    ({"estimators": ["mc_reduced"], "oracle": "mc_reduced"},
     "benchmark.oracle must be distinct from the estimators under test"),
    ({"estimators": []}, "benchmark.estimators must be nonempty"),
])
def test_benchmark_refusals(bench, message, tmp_path):
    with pytest.raises(ConfigError) as info:
        run({"preset": "lq-scalar", "benchmark": bench}, "benchmark",
            out=str(tmp_path))
    assert str(info.value) == message


def test_benchmark_refuses_mc_full_before_sampling(tmp_path, monkeypatch):
    counts = _counting(monkeypatch, ["value_grid_reduced"])
    bench = {"estimators": ["mc_reduced", "mc_full"], "n_samples": [50],
             "oracle": "riccati", "repetitions": 1, "points": [[0.5]],
             "time": 0.0, "dt": 0.01}
    with pytest.raises(UsageError) as info:
        run({"preset": "lq-scalar", "benchmark": bench}, "benchmark",
            out=str(tmp_path))
    assert str(info.value) == ("preset 'lq-scalar' has no full system; "
                               "mc_full does not apply")
    assert counts == {"value_grid_reduced": 0}


# ---------------------------------------------------------------------------
# default evaluation time


def test_benchmark_default_time_is_the_eval_default(tmp_path):
    # an inline system's default evaluation time is 0, inside a horizon
    # shorter than the fallback 0.5
    inline = {"alpha": [1.0], "beta_slope": [-1.0], "ranges": [[-6.0, 6.0]],
              "horizon": 0.4}
    bench = {"estimators": ["mc_reduced"], "n_samples": [50],
             "oracle": "riccati", "repetitions": 1, "points": [[0.5]],
             "dt": 0.01}
    implicit = run({"inline": inline, "benchmark": bench}, "benchmark",
                   out=str(tmp_path / "a"), seed=1)
    explicit = run({"inline": inline, "benchmark": {**bench, "time": 0.0}},
                   "benchmark", out=str(tmp_path / "b"), seed=1)
    with open(implicit[0], "rb") as a, open(explicit[0], "rb") as b:
        assert a.read() == b.read()
    # estimate-value on the same system evaluates at the same default time
    xc = harness.ExperimentConfig.resolve(
        {"inline": inline, "eval": {"points": [[0.5]]}})
    assert xc.eval_points()[1] == 0.0


# ---------------------------------------------------------------------------
# the routes look up the traced module globals at call time


def _counting(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(harness, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    return counts


TRACED = ("value_pathintegral", "safety_mc", "solve_fd", "forward", "train")


@pytest.mark.parametrize("name,expected", [
    ("value_mc_full", {"value_pathintegral": 2}),
    ("safety_mc_full", {"safety_mc": 2}),
    ("value_fd", {"solve_fd": 1}),
    ("safety_pinn", {"solve_fd": 1, "train": 1, "forward": 1}),
    ("value_mc_reduced", {}),
    ("dataset_fd", {"solve_fd": 1}),
    ("benchmark_fd", {"solve_fd": 1, "value_pathintegral": 2}),
    ("benchmark_riccati", {"value_pathintegral": 8}),
    ("train_pinn", {"solve_fd": 1, "train": 1}),
])
def test_routes_call_the_traced_names(name, expected, tmp_path, monkeypatch):
    counts = _counting(monkeypatch, TRACED)
    monkeypatch.chdir(tmp_path)
    artifact_hashes(name)
    assert counts == {n: expected.get(n, 0) for n in TRACED}


# ---------------------------------------------------------------------------
# the fd route marches only the span its rows need


def test_fd_route_marches_only_until_its_rows(tmp_path, monkeypatch):
    solves = []
    real = harness.solve_fd

    def recording(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(harness, "solve_fd", recording)
    cfg = {"preset": "sys3d-value"}
    xc = harness.ExperimentConfig.resolve(cfg)
    # the PINN rows lie in the train window [1.0, 1.5]: 200 of 600 steps
    harness._pinn_dataset(xc)
    # a row at t = 0 needs the whole horizon
    harness._fd_rows(xc, np.array([[1.5, 1.5]]), np.array([0.0]), None)
    # solve-pde writes the whole horizon
    run(cfg, "solve-pde", out=str(tmp_path))
    assert [s.metadata["marched_steps"] for s in solves] == [200, 600, 600]
    assert [s.metadata["n_steps"] for s in solves] == [600, 600, 600]


# ---------------------------------------------------------------------------
# rows with no time left to march


@pytest.mark.parametrize("command,cfg", [
    ("estimate-value", {"preset": "sys3d-value", "mc": MC,
                        "eval": {**GRID, "time": 1.5}}),
    # [2.0, 4.5] starts outside the safe set
    ("estimate-safety", {"preset": "sys3d-safety", "mc": MC,
                         "eval": {"points": [[1.5, 1.5], [1.1, 1.9],
                                             [2.0, 4.5]], "time": 0.0}}),
])
def test_mc_full_edge_rows_take_the_boundary_condition(command, cfg,
                                                       tmp_path):
    # the full cost and barrier at x0(xi) equal r(xi) bit for bit on the
    # 3-d presets, so both Monte Carlo routes write the same bytes
    csvs = {}
    for est in ("mc_full", "mc_reduced"):
        out = run({**cfg, "estimator": est}, command, out=str(tmp_path / est))
        with open(out[0], "rb") as fh:
            csvs[est] = fh.read()
    assert csvs["mc_full"] == csvs["mc_reduced"]
    body = np.loadtxt(out[0], delimiter=",", skiprows=1, ndmin=2)
    assert (body[:, -1] == 0.0).all()
    if command == "estimate-safety":
        assert body[:, -2].tolist() == [1.0, 1.0, 0.0]


if __name__ == "__main__":
    import tempfile

    repin = sys.argv[1:]
    unknown = sorted(set(repin) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    with open(PINS) as fh:
        table = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for case in sorted(CASES):
            if case not in table or case in repin:
                table[case] = artifact_hashes(case)
                print(f"pinned {case}")
    with open(PINS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
