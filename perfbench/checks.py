"""Output checks for every workload command.

``digests`` hashes the CSV artifacts a command wrote.  ``check`` reads
them, compares them with an independent reference (the Riccati value, or
the recorded FD safety probabilities), and returns the problems found plus
the facts worth recording: row counts, the largest z-score and the value
error against Riccati.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# Largest |estimate - Riccati| / SE accepted for a Monte Carlo value.
MAX_Z = 4.0
# Percentage error of the FD dataset slice at t = 0.5 against Riccati.
# Recorded runs read 0.0324 for every seed (the FD route uses no seed);
# the bound leaves room for a solver that rounds differently.
FD_SLICE_MAX_ERR_PCT = 0.04
EVAL_TIME = 0.5
# sys3d-safety at horizon 1.0 on the 5 x 5 grid of [1,2]^2 with step 0.25
# (rows xi1 = 1.0, 1.25, ..., 2.0; columns xi2), from the preset FD oracle:
# `estimate-safety` with `estimator: fd`.  The FD route uses no seed.
SAFETY_AXIS = (1.0, 1.25, 1.5, 1.75, 2.0)
SAFETY_HORIZON = 1.0
SAFETY_FD = np.array([
    (0.4884729641898784, 0.3983452217856239, 0.29847877966062286,
     0.20277034873042718, 0.12349599536943101),
    (0.41049780304879907, 0.3347571931011154, 0.25083247649248536,
     0.17040202586303949, 0.10378227353596195),
    (0.3294065345364891, 0.26862800743781806, 0.20128209266146213,
     0.1367401735177332, 0.08328073577469353),
    (0.2511106309763024, 0.20477841625253226, 0.15343980156183398,
     0.10423870704375315, 0.06348592367173417),
    (0.1809604549083565, 0.1475715911206011, 0.11057491347030143,
     0.07511861912161182, 0.045750518738485416),
])
# Largest |solve-pde value - SAFETY_FD| at those nodes: room for a solver
# that rounds differently, not for a different scheme.
SAFETY_FD_TOL = 1e-6
# Bias of the Monte Carlo safety estimate (dt = 1e-3, exits seen only at
# step ends) that the check allows on top of MAX_Z standard errors.  Eight
# recorded seeds of `mc-estimate` (b) exceeded SAFETY_FD by 0.0051 on
# average and by at most 0.0092 at one point; their largest
# (|estimate - FD| - SAFETY_MC_BIAS) / SE was 1.81.
SAFETY_MC_BIAS = 0.01


def _read_csv(path: str) -> np.ndarray:
    """Body of a CSV with one header line, after optional # comment lines."""
    with open(path) as fh:
        header = fh.readline()
        while header.startswith("#"):
            header = fh.readline()
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _riccati(preset_name: str, points: np.ndarray) -> np.ndarray:
    from featpde.pde import riccati_value
    from featpde.presets import get_preset

    lq = get_preset(preset_name).lq
    return np.atleast_1d(riccati_value(lq, points, EVAL_TIME))


def _value_err_pct(est: np.ndarray, ref: np.ndarray) -> float:
    from featpde.harness import error_against

    return error_against(est, ref, "percentage")


def _safety_fd(rows: np.ndarray):
    """SAFETY_FD at rows ``xi1, xi2, t``; None if a row is off its grid."""
    axis = np.asarray(SAFETY_AXIS)
    idx = np.rint((rows[:, :2] - axis[0]) / (axis[1] - axis[0])).astype(int)
    if (np.any((idx < 0) | (idx >= axis.size))
            or not np.allclose(axis[idx], rows[:, :2], rtol=0.0, atol=1e-9)
            or not np.allclose(rows[:, 2], SAFETY_HORIZON, rtol=0.0,
                               atol=1e-9)):
        return None
    return SAFETY_FD[idx[:, 0], idx[:, 1]]


def digests(cmd: dict, out_dir: str) -> dict:
    """sha256 of each CSV artifact of an executed command (None if absent).

    Streams the files, so it adds no memory to the measuring process."""
    out = {}
    for name in cmd["csvs"]:
        path = os.path.join(out_dir, name)
        out[name] = None
        if os.path.exists(path):
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[name] = h.hexdigest()
    return out


def check(cmd: dict, out_dir: str) -> tuple:
    """(problems, facts) for the artifacts of one executed command."""
    label = cmd["label"]
    preset = cmd["config"]["preset"]
    problems, facts = [], {"rows": {}}
    tables = {}
    for name, want in cmd["csvs"].items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{label}: missing artifact {name}")
            continue
        tables[name] = _read_csv(path)
        rows = tables[name].shape[0]
        facts["rows"][name] = rows
        if rows != want:
            problems.append(f"{label}: {name} has {rows} rows, expected {want}")
    if problems:
        return problems, facts

    if label in ("value_mc_reduced", "value_mc_full"):
        rows = tables["value.csv"]
        est, se = rows[:, -2], rows[:, -1]
        ref = _riccati(preset, rows[:, :2])
        if not (np.all(np.isfinite(est)) and np.all(se > 0)):
            problems.append(f"{label}: non-finite estimate or zero SE")
            return problems, facts
        z = np.abs(est - ref) / se
        facts["max_z"] = float(z.max())
        facts["value_err_pct"] = _value_err_pct(est, ref)
        if z.max() > MAX_Z:
            problems.append(f"{label}: |estimate - Riccati| reaches "
                            f"{z.max():.2f} SE (limit {MAX_Z})")
    elif label == "safety_mc_reduced":
        rows = tables["safety.csv"]
        est, se = rows[:, -2], rows[:, -1]
        if not np.all((est >= 0.0) & (est <= 1.0)):
            problems.append(f"{label}: a safety estimate lies outside [0, 1]")
            return problems, facts
        ref = _safety_fd(rows[:, :3])
        if ref is None or not np.all(se > 0):
            problems.append(f"{label}: points off the reference grid or "
                            f"zero SE")
            return problems, facts
        z = (np.abs(est - ref) - SAFETY_MC_BIAS) / se
        facts["max_z"] = float(z.max())
        if z.max() > MAX_Z:
            problems.append(f"{label}: |estimate - FD| reaches "
                            f"{SAFETY_MC_BIAS} + {z.max():.2f} SE (limit "
                            f"{SAFETY_MC_BIAS} + {MAX_Z} SE)")
    elif label == "solve_pde":
        body = tables["pde_solution.csv"]
        vals = body[:, -1]
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            problems.append(f"{label}: a solution value lies outside [0, 1]")
            return problems, facts
        on = np.isclose(body[:, 2], SAFETY_HORIZON, rtol=0.0, atol=1e-9)
        for col in (0, 1):
            on &= np.isclose(body[:, col, None], SAFETY_AXIS, rtol=0.0,
                             atol=1e-9).any(axis=1)
        ref = _safety_fd(body[on, :3])
        if ref is None or ref.size != SAFETY_FD.size:
            problems.append(f"{label}: the reference nodes are not all in "
                            f"the solution")
            return problems, facts
        dev = float(np.abs(body[on, -1] - ref).max())
        facts["max_abs_dev_from_reference"] = dev
        if not dev <= SAFETY_FD_TOL:
            problems.append(f"{label}: values at the reference nodes differ "
                            f"from the recorded ones by {dev:.3g} (limit "
                            f"{SAFETY_FD_TOL})")
    elif label == "make_dataset":
        body = tables["dataset.csv"]
        sl = body[np.abs(body[:, 2] - EVAL_TIME) < 1e-9]
        err = _value_err_pct(sl[:, 3], _riccati(preset, sl[:, :2]))
        facts["value_err_pct"] = err
        if not err <= FD_SLICE_MAX_ERR_PCT:
            problems.append(
                f"{label}: FD slice error {err:.4g}% against Riccati exceeds "
                f"{FD_SLICE_MAX_ERR_PCT}%"
            )
    elif label == "train_pinn":
        if not np.all(np.isfinite(tables["pinn_loss_log.csv"])):
            problems.append(f"{label}: non-finite training loss")
        surf = tables["pinn_surface.csv"]
        facts["value_err_pct"] = _value_err_pct(
            surf[:, 3], _riccati(preset, surf[:, :2])
        )
    elif label == "train_features":
        if not np.all(np.isfinite(tables["feature_loss_log.csv"])):
            problems.append(f"{label}: non-finite training loss")
    return problems, facts
