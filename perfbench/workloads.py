"""Workload definitions: the commands each workload runs and their configs.

Every config is built from the workload seed alone and uses a shipped
preset.  This module imports nothing from featpde, so the parent process
can write the configs before any fresh child starts.
"""

from __future__ import annotations

GRID_25 = {"domain": [[1.0, 2.0], [1.0, 2.0]], "step": 0.25}


def _cmd(label, command, cfg, csvs):
    """One command of a workload: ``csvs`` maps artifact file -> row count."""
    return {"label": label, "command": command, "config": cfg, "csvs": csvs}


def plan(workload: str, seed: int) -> list:
    """The ordered commands of ``workload`` with their configs for ``seed``."""
    if workload == "mc-estimate":
        return [
            _cmd("value_mc_reduced", "estimate-value", {
                "preset": "sys3d-value", "estimator": "mc_reduced",
                "seed": seed, "eval": {**GRID_25, "time": 0.5},
                "mc": {"dt": 1.0e-3, "n_paths": 4000},
            }, {"value.csv": 25}),
            _cmd("safety_mc_reduced", "estimate-safety", {
                "preset": "sys3d-safety", "estimator": "mc_reduced",
                "seed": seed, "eval": {**GRID_25, "time": 1.0},
                "mc": {"dt": 1.0e-3, "n_paths": 4000},
            }, {"safety.csv": 25}),
            _cmd("value_mc_full", "estimate-value", {
                "preset": "sys1000d-value", "estimator": "mc_full",
                "seed": seed,
                "eval": {"points": [[1.5, 1.5]], "time": 0.5},
                "mc": {"dt": 1.0e-3, "n_paths": 200},
            }, {"value.csv": 1}),
        ]
    if workload == "fd-oracle":
        return [
            # 201 x 201 oracle nodes at 11 saved times (0.0, 0.1, ..., 1.0)
            _cmd("solve_pde", "solve-pde", {
                "preset": "sys3d-safety", "seed": seed,
            }, {"pde_solution.csv": 201 * 201 * 11}),
            # 21 x 21 nodes at 16 times (0.0, 0.1, ..., 1.5)
            _cmd("make_dataset", "make-dataset", {
                "preset": "sys3d-value", "seed": seed,
                "dataset": {"source": "fd", "step": 0.05},
            }, {"dataset.csv": 21 * 21 * 16}),
        ]
    if workload == "train-nets":
        return [
            # log rows at epochs 0, 100, ..., 900 plus the closing row;
            # surface on [1,2]^2 with step 0.1 at t = 0.5
            _cmd("train_pinn", "train-pinn", {
                "preset": "sys3d-value", "seed": seed,
                "pinn": {"epochs": 1000},
            }, {"pinn_loss_log.csv": 11, "pinn_surface.csv": 121}),
            _cmd("train_features", "train-features", {
                "preset": "feature-ae-3d", "seed": seed,
                "ae": {"epochs": 1, "iterations": 40},
            }, {"feature_loss_log.csv": 40}),
        ]
    raise KeyError(workload)


WORKLOADS = ("mc-estimate", "fd-oracle", "train-nets")
# every command label, in workload order
LABELS = [c["label"] for w in WORKLOADS for c in plan(w, 0)]

# Seconds one pass of each workload takes on a 2-core Xeon VM with one BLAS
# thread.  A run makes a fixed number of passes derived from its --seconds,
# so every run of a workload does the same work.
NOMINAL_PASS_S = {"mc-estimate": 30.0, "fd-oracle": 20.0, "train-nets": 29.0}


def passes(workload: str, seconds: float) -> int:
    """Whole passes of ``workload`` that best fill ``seconds``; at least 1."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))
