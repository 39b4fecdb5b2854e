"""Experiment runner: validated configs, one route per estimator, CSV
artifacts.

A run is described by a single YAML file of nested key/value sections.
``_SCHEMA`` gives every key its kind, its bound and its constant default,
if it has one.  ``ExperimentConfig.resolve`` converts and checks every
given value once, before any command runs (``validate_config`` makes that
check alone), and an error names the ``section.key`` at fault: unknown
keys are errors, so typos fail loudly instead of silently falling back to
defaults; bool keys take only true or false; int keys take only whole
numbers.  ``ExperimentConfig.typed`` holds the converted values, so the
commands convert nothing.  Every command writes its tables plus a
``run.json`` holding the fully resolved configuration and seed, and lists
the paths its writers return; re-running from that file reproduces the
artifacts byte-for-byte.

``ROUTES`` is the one table of estimators.  A route's ``rows(xc, points,
times, mc)`` returns the ``McGrid`` of the config's task on the given rows,
points (R, k) and one time per row: estimates, and standard errors that are
zero for the deterministic routes.  ``mc`` is the (dt, n_paths, seed) budget
of the sampled routes; the others ignore it.  estimate-value/-safety,
benchmark (its oracle and its estimators), make-dataset and the PINN's FD
data all call a route.  A route looks up the functions it calls as module
globals when it runs, so a wrapper set on one of those names sees every
command's calls.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, UsageError
from .featureid import AeTrainConfig, AutoencoderNet, train_autoencoder
from .grid import nodes, space_time, write_csv, write_text
from .montecarlo import (
    McGrid,
    safety_grid_reduced,
    safety_mc,
    value_grid_reduced,
    value_pathintegral,
)
from .neural import DenseNetwork, forward, load_checkpoint, save_checkpoint
from .pde import FdSolution, riccati_value, solve_fd
from .pinn import PinnConfig, TrainingDataset, predict_grid, train
from .presets import (Preset, feature_state_grid, get_preset,
                      linear_quadratic_preset, preset_names,
                      with_linear_reduction)
from .reduction import (
    build_reduced_sde,
    feature_map_from_encoder,
    level_table,
)
from .sde import (REDUCTION_TAG, SUBSAMPLE_TAG, SimConfig, ZeroPolicy,
                  simulate, simulate_reduced, stream)

__all__ = [
    "ExperimentConfig",
    "ROUTES",
    "load_config",
    "validate_config",
    "run",
    "make_dataset",
    "benchmark",
    "load_dataset_csv",
    "COMMANDS",
]

# ---------------------------------------------------------------------------
# resolution: config dict -> concrete objects


def _axes(domain, step: float, section: str) -> list:
    """Nodes at spacing ``step`` on each (lo, hi) of ``domain``, the
    ``section``.domain and .step of the config; every interval must be a
    whole number of cells."""
    if domain is None:
        raise ConfigError(f"{section}.domain is required for this preset")
    axes = []
    for lo, hi in domain:
        n = round((hi - lo) / step)
        if n < 1 or abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
            raise ConfigError(
                f"{section}.step {step} does not resolve [{lo}, {hi}] into "
                f"whole cells"
            )
        axes.append(np.round(lo + step * np.arange(n + 1), 12))
    return axes


def _check_lengths(section: str, alpha, slope, ranges) -> None:
    if not (len(alpha) == len(slope) == len(ranges)):
        raise ConfigError(
            f"{section}.alpha, beta_slope and ranges must have equal length"
        )


def _inline_preset(inline: dict) -> Preset:
    for req in ("alpha", "beta_slope", "ranges", "horizon"):
        if req not in inline:
            raise ConfigError(f"inline.{req} is required")
    ranges, horizon = inline["ranges"], inline["horizon"]
    _check_lengths("inline", inline["alpha"], inline["beta_slope"], ranges)
    # constant alpha + linear beta + quadratic r is exactly the
    # linear-quadratic form, so the Riccati reference is always available
    return linear_quadratic_preset(
        "inline", inline["alpha"], inline["beta_slope"], ranges,
        inline["r_scale"], horizon,
        terminal_weight=inline["terminal_weight"],
        task=inline["task"],
        data_domain=ranges,
        train_window=(0.0, horizon),
        oracle_dxi=min((hi - lo) for lo, hi in ranges) / 100.0,
        oracle_dt=1e-3,
        oracle_save_every=10,
        pinn=PinnConfig(),
        eval_time=0.0,
    )


def _reduced_from_encoder(system, red: dict, seed: int):
    """Tabulated reduced SDE of a learned encoder.

    Samples states from the declared box and takes the per-level table of
    the learned features there (``reduction.level_table``: one
    derivative-bundle call, ``n_levels`` sections of the states in feature
    order).  alpha_i and beta_i interpolate the level means of a_i and b_i
    at the level means of xi_i, on the range of the sampled feature values.
    """
    if "state_domain" not in red:
        raise ConfigError("reduction.state_domain is required with an "
                          "encoder checkpoint")
    box = red["state_domain"]
    if len(box) != system.state_dim:
        raise ConfigError(
            f"reduction.state_domain lists {len(box)} intervals, system "
            f"has {system.state_dim} coordinates"
        )
    gen = stream(seed, REDUCTION_TAG)
    lo = np.array([ab[0] for ab in box])
    hi = np.array([ab[1] for ab in box])
    states = gen.uniform(lo, hi, (red["n_states"], system.state_dim))
    fm = feature_map_from_encoder(red["encoder_checkpoint"])
    xi, a, b = level_table(system, ZeroPolicy(system.control_dim), fm,
                           states, red["n_levels"])
    alpha = [partial(np.interp, xp=kk, fp=aa) for kk, aa in zip(xi[0], a[0])]
    beta = [partial(np.interp, xp=kk, fp=bb) for kk, bb in zip(xi[0], b[0])]
    ranges = list(zip(xi[1, :, 0], xi[2, :, -1]))
    return build_reduced_sde(alpha, beta, ranges), fm


def _with_section(base, values: dict, seed: int):
    """Library config ``base`` with ``seed`` and a config section's
    ``values`` of its fields."""
    names = {f.name for f in fields(base)}
    return replace(base, seed=seed,
                   **{k: v for k, v in values.items() if k in names})


@dataclass
class ExperimentConfig:
    """A validated config resolved against its preset.

    ``raw`` is the merged, JSON-serializable dictionary embedded in
    ``run.json``; ``typed`` is the same config converted by the schema, with
    the constant defaults of absent keys; the object fields are the live
    counterparts.
    """

    raw: dict
    typed: dict
    preset: Preset
    task: str
    estimator: Optional[str]
    seed: int
    out: str

    @classmethod
    def resolve(cls, cfg: dict, out: Optional[str] = None,
                seed: Optional[int] = None) -> "ExperimentConfig":
        typed = _typed_config(cfg)
        for name, given in (("seed", seed), ("out", out)):
            if given is not None:
                typed[name] = _value(given, _SCHEMA[name], name)
        if "inline" in cfg:
            preset = _inline_preset(typed["inline"])
        elif "preset" in cfg:
            preset = get_preset(typed["preset"])
        else:
            raise ConfigError("config needs a 'preset' name or an 'inline' "
                              "system block")
        red = typed["reduction"]
        if {"alpha", "beta_slope"} <= red.keys():
            alpha, slope = red["alpha"], red["beta_slope"]
            if len(alpha) != preset.k:
                raise ConfigError(
                    f"reduction.alpha has {len(alpha)} entries, preset "
                    f"{preset.name!r} has k = {preset.k} features"
                )
            ranges = red.get("ranges", preset.oracle_domain or [])
            _check_lengths("reduction", alpha, slope, ranges)
            preset = with_linear_reduction(preset, alpha, slope, ranges)
        elif "encoder_checkpoint" in red:
            if preset.system is None:
                raise ConfigError(
                    "an encoder-checkpoint reduction needs a preset with a "
                    "full system"
                )
            enc = red["encoder_checkpoint"]
            if (enc.d_in, enc.d_out) != (preset.system.state_dim, preset.k):
                raise ConfigError(
                    f"reduction.encoder_checkpoint maps {enc.d_in} inputs "
                    f"to {enc.d_out} features, preset {preset.name!r} has "
                    f"{preset.system.state_dim} state coordinates and "
                    f"k = {preset.k} features"
                )
            preset.reduced, preset.features = _reduced_from_encoder(
                preset.system, red, typed["seed"])
            # the Riccati form belongs to the analytic features
            preset.lq = None
        task = typed.get("task", preset.task)
        if task != preset.task and preset.name != "inline":
            raise ConfigError(
                f"preset {preset.name!r} is a {preset.task} task, config "
                f"says {task!r}"
            )
        raw = dict(cfg)
        raw["seed"] = typed["seed"]
        raw["out"] = typed["out"]
        raw.setdefault("task", task)
        for name, value in raw.items():
            _check_encodable(value, name)
        return cls(
            raw=raw,
            typed=typed,
            preset=preset,
            task=task,
            estimator=typed.get("estimator"),
            seed=typed["seed"],
            out=typed["out"],
        )

    # --- resolved sub-configs -------------------------------------------

    def mc_source(self, name: str, section: str = "mc") -> str:
        """The section the sampled routes read ``name`` (dt or n_paths)
        from: mc where the config gives it there, else ``section``."""
        return "mc" if name in self.raw.get("mc", {}) else section

    def mc_budget(self, section: str = "mc") -> tuple:
        """(dt, n_paths, seed) of the sampled routes, each read from its
        ``mc_source``."""
        return tuple(self.typed[self.mc_source(name, section)][name]
                     for name in ("dt", "n_paths")) + (self.seed,)

    def check_seed_offset(self, offset: int, key: str, what: str) -> None:
        """Refuse the config, naming ``key``, when ``what`` would be keyed
        by seed + ``offset``, which leaves the Philox key's 64 bits."""
        if self.seed + offset >= 2**64:
            raise ConfigError(
                f"{key}: {what} would be keyed by seed + {offset} = "
                f"{self.seed + offset}, which must be below 2**64")

    def pinn_config(self) -> PinnConfig:
        """The PINN's training config; refused when resampled collocation
        would key an epoch's points past 64 bits."""
        cfg = _with_section(self.preset.pinn or PinnConfig(),
                            self.typed["pinn"], self.seed)
        if cfg.resample_collocation and cfg.omega_p > 0:
            self.check_seed_offset(
                cfg.epochs - 1, "pinn.epochs",
                f"with pinn.resample_collocation, epoch {cfg.epochs - 1}'s "
                f"collocation points")
        return cfg

    def ae_config(self) -> AeTrainConfig:
        return _with_section(self.preset.ae or AeTrainConfig(),
                             self.typed["ae"], self.seed)

    @property
    def default_time(self) -> float:
        """The evaluation time of estimate-* and benchmark when the config
        gives none: the preset's, else 0."""
        t = self.preset.eval_time
        return 0.0 if t is None else t

    def eval_points(self):
        """Evaluation rows (points, time) from the eval section."""
        ev = self.typed["eval"]
        t = ev.get("time", self.default_time)
        if "points" in ev:
            return self.points("eval", ev["points"]), t
        return nodes(self.eval_axes()), t

    def points(self, section: str, pts: np.ndarray) -> np.ndarray:
        """``section``.points, the (P, k) array ``pts``; each row needs k
        coordinates."""
        if pts.shape[1] != self.preset.k:
            raise ConfigError(
                f"{section}.points rows have {pts.shape[1]} coordinates, "
                f"preset has k = {self.preset.k}"
            )
        return pts

    def eval_axes(self) -> list:
        """Axes of the eval section's tensor grid."""
        ev = self.typed["eval"]
        return _axes(ev.get("domain", self.preset.data_domain),
                     ev.get("step", self.preset.data_step), "eval")


# ---------------------------------------------------------------------------
# estimator routes


def _solve_oracle(xc: ExperimentConfig,
                  until: Optional[float] = None) -> FdSolution:
    """The FD solve of the preset's PDE with the fd section's settings,
    marched over the whole horizon, or only until the first saved slice
    that reaches physical time ``until`` (see ``solve_fd``)."""
    fd = xc.typed["fd"]
    p = xc.preset
    return solve_fd(p.pde_problem(domain=fd.get("domain", p.oracle_domain)),
                    [fd.get("dxi", p.oracle_dxi)] * p.k,
                    fd.get("dt", p.oracle_dt),
                    save_every=fd.get("save_every", p.oracle_save_every),
                    until=until)


def _check_times(xc: ExperimentConfig, times, key: str) -> None:
    """Refuse config ``key`` if a time of it lies outside [0, horizon]."""
    T = xc.preset.horizon
    bad = [t for t in np.ravel(times) if not 0.0 <= t <= T]
    if bad:
        raise ConfigError(f"{key} must be in [0, {T}], got {bad[0]}")


def _sim(mc, horizon: float) -> SimConfig:
    dt, n_paths, seed = mc
    return SimConfig(dt=dt, horizon=horizon, seed=seed, n_paths=n_paths)


def _exact(points, times, values) -> McGrid:
    return McGrid(points=points, times=times, estimates=values,
                  std_errors=np.zeros(len(times)))


def _per_time(points, times, fn) -> np.ndarray:
    """``fn(rows, t)`` evaluated on the rows of each distinct time."""
    out = np.empty(len(times))
    for t in np.unique(times):
        at = times == t
        out[at] = fn(points[at], float(t))
    return out


def _riccati_rows(xc: ExperimentConfig, points, times, mc) -> McGrid:
    p = xc.preset
    if xc.task != "value":
        raise UsageError("the riccati estimator applies to value tasks only")
    if p.lq is None:
        raise UsageError(
            f"preset {p.name!r} has no linear-quadratic form; the "
            f"riccati estimator does not apply"
        )
    return _exact(points, times, _per_time(
        points, times, lambda xi, t: riccati_value(p.lq, xi, t)))


def _fd_rows(xc: ExperimentConfig, points, times, mc) -> McGrid:
    """The FD oracle interpolated at the rows.  It marches only until the
    slice that covers the rows: back to the earliest t of a value task,
    forward to the latest horizon of a safety task."""
    until = times.min() if xc.task == "value" else times.max()
    return _exact(points, times,
                  _solve_oracle(xc, until).interpolate(points, times))


def _pinn_rows(xc: ExperimentConfig, points, times, mc) -> McGrid:
    net = _trained_or_loaded_net(xc)
    # one forward call per time, as predict_grid makes
    return _exact(points, times, _per_time(
        points, times,
        lambda xi, t: forward(net, np.column_stack(
            [xi, np.full(len(xi), t)]))[:, 0]))


def _edge_rows(xc: ExperimentConfig, times) -> np.ndarray:
    """Mask of the rows with no time left to march: t = T for a value, t = 0
    for a safety horizon."""
    if xc.task == "value":
        return np.abs(times - xc.preset.horizon) < 1e-12
    return times <= 1e-12


def _check_steps(xc: ExperimentConfig, times, dt: float, dt_key: str,
                 time_key: str) -> None:
    """Refuse the config, naming ``dt_key`` and ``time_key``, when a
    sampled route would march from a row time over a span that is not a
    whole number of dt steps: T - t for a value, the horizon t for
    safety.  Rows with no time left to march are not marched."""
    times = np.ravel(times)
    value = xc.task == "value"
    T = xc.preset.horizon
    for t in np.unique(times[~_edge_rows(xc, times)]).tolist():
        try:
            SimConfig(dt=dt, horizon=T - t if value else t, seed=0,
                      n_paths=1)
        except UsageError:
            raise ConfigError(
                f"{time_key} {t} is not a whole number of {dt_key} = {dt} "
                f"steps" + (f" from the horizon {T}" if value else "")
            ) from None


def _boundary(xc: ExperimentConfig, r, starts) -> np.ndarray:
    """The boundary condition at ``starts``, the value of rows with no time
    left: exp(-terminal_weight * r) for a value, r > 0 for safety."""
    r0 = np.asarray(r(starts), dtype=np.float64)
    if xc.task == "value":
        return np.exp(-xc.preset.terminal_weight * r0)
    return (r0 > 0).astype(np.float64)


def _mc_reduced_rows(xc: ExperimentConfig, points, times, mc) -> McGrid:
    """Reduced-SDE Monte Carlo of all rows in one grid call.  Rows with no
    time left to march take the boundary condition of r, with a zero
    standard error."""
    p = xc.preset
    if p.reduced is None:
        raise UsageError(f"preset {p.name!r} has no reduced SDE; mc_reduced "
                         f"does not apply")
    edge = _edge_rows(xc, times)
    est = np.empty(len(times))
    se = np.zeros(len(times))
    if edge.any():
        est[edge] = _boundary(xc, p.r, points[edge])
    run = ~edge
    if run.any():
        if xc.task == "value":
            grid = value_grid_reduced(p.reduced, points[run], times[run],
                                      p.horizon, p.r, mc,
                                      terminal_weight=p.terminal_weight)
        else:
            grid = safety_grid_reduced(p.reduced, points[run], times[run],
                                       p.r, mc)
        est[run], se[run] = grid.estimates, grid.std_errors
    return McGrid(points=points, times=times, estimates=est, std_errors=se)


def _mc_full_rows(xc: ExperimentConfig, points, times, mc) -> McGrid:
    """Full-system Monte Carlo, one march per row.  Rows with no time left
    to march take the boundary condition of the full cost or barrier at
    the row's start state, with a zero standard error."""
    p = xc.preset
    if p.system is None or p.x0_of_xi is None:
        raise UsageError(
            f"preset {p.name!r} has no full system; mc_full does not apply"
        )
    value = xc.task == "value"
    edge = _edge_rows(xc, times)
    est = np.empty(len(times))
    se = np.zeros(len(times))
    for j, (xi, t) in enumerate(zip(points, times.tolist())):
        x0 = p.x0_of_xi(xi)
        if edge[j]:
            est[j] = _boundary(xc, p.cost_full if value else p.barrier_full,
                               x0[None])[0]
        elif value:
            m = value_pathintegral(p.system, x0, t, p.horizon, p.cost_full,
                                   _sim(mc, p.horizon - t),
                                   terminal_weight=p.terminal_weight)
            est[j] = np.exp(-m.value)
            se[j] = est[j] * m.std_error
        else:
            m = safety_mc(p.system, ZeroPolicy(p.system.control_dim), x0,
                          p.barrier_full, t, _sim(mc, t))
            est[j], se[j] = m.value, m.std_error
    return McGrid(points=points, times=times, estimates=est, std_errors=se)


class Route(NamedTuple):
    """A rows function and its role: benchmark measures ``sampled`` routes
    against an ``oracle`` route; ``trained`` routes fit a network first."""

    rows: Callable
    role: str


ROUTES = {
    "mc_full": Route(_mc_full_rows, "sampled"),
    "mc_reduced": Route(_mc_reduced_rows, "sampled"),
    "fd": Route(_fd_rows, "oracle"),
    "pinn": Route(_pinn_rows, "trained"),
    "riccati": Route(_riccati_rows, "oracle"),
}


def _with_role(role: str) -> tuple:
    return tuple(name for name, r in ROUTES.items() if r.role == role)


def _pinn_dataset(xc: ExperimentConfig) -> TrainingDataset:
    p = xc.preset
    block = xc.typed["pinn"]
    if block["data_source"] == "file":
        if "data_path" not in block:
            raise ConfigError("pinn.data_path is required with "
                              "data_source: file")
        return load_dataset_csv(block["data_path"])
    times = p.data_times
    if p.train_window is not None:
        lo, hi = p.train_window
        times = times[(times >= lo - 1e-9) & (times <= hi + 1e-9)]
    points, times = space_time(
        _axes(p.data_domain, p.data_step, "preset.data"), times)
    grid = ROUTES["fd"].rows(xc, points, times, None)
    return TrainingDataset(xi=points, t=times, target=grid.estimates,
                           provenance="FD")


def _trained_or_loaded_net(xc: ExperimentConfig) -> DenseNetwork:
    net = xc.typed["pinn"].get("checkpoint")
    if net is not None:
        if net.d_in != xc.preset.k + 1:
            raise ConfigError(
                f"pinn.checkpoint takes {net.d_in} inputs, the preset needs "
                f"k + 1 = {xc.preset.k + 1}"
            )
        return net
    cfg = xc.pinn_config()  # refuses before the FD data is solved
    return train(xc.preset.pde_problem(), _pinn_dataset(xc), cfg).net


# ---------------------------------------------------------------------------
# config schema
#
# Each key's spec is (kind, bound) or (kind, bound, default).  A kind is
# float, int (a whole number), bool (YAML true or false), str, a tuple of
# the allowed names, a list [kind] (a nonempty list of that kind, each item
# meeting the bound), "intervals" ([lo, hi] rows), "points" (rows of
# coordinates), "file" (an existing file) or "checkpoint" (a network
# checkpoint file, loaded).  The bound of a number is _POS, _NONNEG or
# None; of intervals, _POS (every row has lo < hi) or None.
# An absent key takes its default; a default of None only lets the key be
# null (pinn.batch_size: null is full-batch training, the other three mean
# the key is unset).  Defaults that come from the preset are applied where
# a value is read.

_POS, _NONNEG = "positive", "nonnegative"
_TASKS = ("value", "safety")

_SCHEMA = {
    "preset": (tuple(preset_names()), None),
    "task": (_TASKS, None),
    "estimator": (tuple(ROUTES), None, None),
    "seed": (int, _NONNEG, 0),
    "out": (str, None, "."),
    "inline": {
        "alpha": ([float], _POS),
        "beta_slope": ([float], None),
        "ranges": ("intervals", _POS),
        "r_scale": (float, None, 0.5),
        "terminal_weight": (float, None, 1.0),
        "horizon": (float, _POS),
        "task": (_TASKS, None, "value"),
    },
    "eval": {
        "domain": ("intervals", None),
        "step": (float, _POS),
        "time": (float, None),
        "points": ("points", None),
    },
    "mc": {"dt": (float, _POS, 1e-3), "n_paths": (int, _POS, 10000)},
    "fd": {
        "dxi": (float, _POS),
        "dt": (float, _POS),
        "save_every": (int, _POS),
        "domain": ("intervals", None),
    },
    "pinn": {
        "omega_p": (float, _NONNEG),
        "omega_d": (float, _NONNEG),
        "n_domain": (int, _POS),
        "epochs": (int, _POS),
        "lr": (float, _POS),
        "widths": ([int], _POS),
        "batch_size": (int, _POS, None),
        "log_every": (int, _POS),
        "resample_collocation": (bool, None),
        "data_source": (("fd", "file"), None, "fd"),
        "data_path": ("file", None),
        "checkpoint": ("checkpoint", None, None),
    },
    "ae": {
        "w_rc": (float, _NONNEG),
        "w_ct": (float, _NONNEG),
        "k": (int, _POS),
        "d": (int, _POS),
        "epochs": (int, _POS),
        "iterations": (int, _POS),
        "batch_size": (int, _POS),
        "lr": (float, _POS),
        "encoder_hidden": ([int], _POS),
        "n_states": (int, _POS, None),
        "encoder_init": ("checkpoint", None),
        "decoder_init": ("checkpoint", None),
    },
    "dataset": {
        "source": (("fd", "mc"), None, "fd"),
        "domain": ("intervals", None),
        "step": (float, _POS),
        "times": ([float], None),
        "se_ceiling": (float, None, np.inf),
        "dt": (float, _POS, 1e-3),
        "n_paths": (int, _POS, 10000),
    },
    "benchmark": {
        "estimators": ([str], None, ("mc_reduced",)),
        "n_samples": ([int], _POS, (1000,)),
        "metric": (("percentage", "absolute"), None, "percentage"),
        "oracle": (str, None, "fd"),
        "repetitions": (int, _POS, 10),
        "points": ("points", None,
                   np.array([[1.1, 1.1], [1.5, 1.5], [1.9, 1.9]])),
        "time": (float, None),
        "dt": (float, _POS, 1e-3),
    },
    "sim": {
        "kind": (("full", "reduced"), None, "reduced"),
        "x0": ([float], None),
        "xi0": ([float], None),
        "dt": (float, _POS, 1e-3),
        "horizon": (float, _POS),
        "n_paths": (int, _POS, 100),
        "t0": (float, None, 0.0),
    },
    "reduction": {
        "alpha": ([float], _POS),
        "beta_slope": ([float], None),
        "ranges": ("intervals", _POS),
        "encoder_checkpoint": ("checkpoint", None),
        "state_domain": ("intervals", None),
        "n_states": (int, _POS, 1000),
        "n_levels": (int, _POS, 16),
    },
}

# a reduction key and the keys it needs beside it: an analytic override
# gives alpha and beta_slope together, and the sampling keys belong to an
# encoder reduction
_REDUCTION_NEEDS = {
    "alpha": ("beta_slope",),
    "beta_slope": ("alpha",),
    "ranges": ("alpha", "beta_slope"),
    "state_domain": ("encoder_checkpoint",),
    "n_states": ("encoder_checkpoint",),
    "n_levels": ("encoder_checkpoint",),
}


def _value(value, spec: tuple, key: str):
    """Config entry ``key``'s ``value`` converted to the kind of its
    ``spec``; a value of another kind, NaN anywhere in a number, list,
    row or interval, a whole number of 2**64 or more, or a value out of
    bound raises a ConfigError naming ``key``.  Infinity passes only where
    the key's default is infinite."""
    kind, bound = spec[:2]
    if value is None and len(spec) > 2 and spec[2] is None:
        return None
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        if not len(value):
            raise ConfigError(f"{key} must be nonempty")
        return tuple(_value(v, (kind[0], bound), key) for v in value)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"unknown {key} {value!r}: {key} must be one "
                              f"of {', '.join(kind)}")
        return value
    if kind in (bool, str):
        if not isinstance(value, kind):
            what = "true or false" if kind is bool else "a string"
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return value
    if kind in ("file", "checkpoint"):
        if not isinstance(value, str) or not os.path.exists(value):
            raise ConfigError(f"{key} does not exist: {value}")
        if kind == "file":
            return value
        try:
            return load_checkpoint(value)[0]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{key} is not a valid checkpoint: {value} "
                              f"({exc!r})") from None
    try:
        if kind == "intervals":
            out = [(float(lo), float(hi)) for lo, hi in value]
        elif kind == "points":
            out = np.atleast_2d(np.asarray(value, dtype=np.float64))
            if np.ndim(value) == 0 or out.ndim != 2:
                raise ValueError(value)
        elif kind is float:
            out = float(value)
        else:
            out = (value if isinstance(value, (int, np.integer))
                   else float(value))
            if out != int(out):
                raise ValueError(value)
            out = int(out)
    except (TypeError, ValueError, OverflowError):
        what = {"intervals": "a list of [lo, hi] rows",
                "points": "a list of coordinate rows",
                float: "a number", int: "a whole number"}[kind]
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    default = spec[2] if len(spec) > 2 else None
    if kind is int:
        # a seed keys Philox with its 64 bits, and no count comes near them
        if out >= 2**64:
            raise ConfigError(f"{key} must be below 2**64, got {value!r}")
    elif np.isnan(out).any():
        raise ConfigError(f"{key} must not be NaN, got {value!r}")
    elif np.isinf(out).any() and not (isinstance(default, float)
                                      and np.isinf(default)):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if kind == "intervals":
        if bound == _POS and not all(lo < hi for lo, hi in out):
            raise ConfigError(f"{key} rows must have lo < hi, got {value!r}")
    elif bound == _POS and not out > 0 or bound == _NONNEG and not out >= 0:
        raise ConfigError(f"{key} must be {bound}, got {value!r}")
    return out


def _typed_section(given: dict, schema: dict, prefix: str = "") -> dict:
    """Mapping ``given`` converted by ``schema``, whose keys are named
    ``prefix`` + name: each given key's value, and each absent key's
    default."""
    for name in given:
        if name not in schema:
            raise ConfigError(f"unknown config key '{prefix}{name}'")
    typed = {}
    for name, spec in schema.items():
        if isinstance(spec, dict):
            sub = given.get(name, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"config section {name!r} must be a "
                                  f"mapping")
            typed[name] = _typed_section(sub, spec, f"{name}.")
        elif name in given:
            typed[name] = _value(given[name], spec, prefix + name)
        elif len(spec) > 2 and spec[2] is not None:
            typed[name] = spec[2]
    return typed


def _typed_config(cfg) -> dict:
    """The typed view of config ``cfg``: every key converted and checked
    once, each section a mapping of its keys."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    # the rules that join keys, on the given values
    if "preset" in cfg and "inline" in cfg:
        raise ConfigError("give either 'preset' or 'inline', not both")
    red = cfg.get("reduction")
    if isinstance(red, dict):
        if ("encoder_checkpoint" in red
                and {"alpha", "beta_slope"} & red.keys()):
            raise ConfigError(
                "reduction: give analytic alpha/beta_slope or an "
                "encoder_checkpoint, not both"
            )
        for key in red:
            for need in _REDUCTION_NEEDS.get(key, ()):
                if need not in red:
                    raise ConfigError(f"reduction.{need} is required with "
                                      f"reduction.{key}")
    return _typed_section(cfg, _SCHEMA)


def _check_encodable(value, key: str) -> None:
    """Raise a ConfigError naming the first key, config entry ``key`` or one
    under it, whose value JSON cannot encode: ``run.json`` holds them."""
    for name, sub in value.items() if isinstance(value, dict) else ():
        _check_encodable(sub, f"{key}.{name}")
    try:
        json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} cannot go in run.json: {exc}") from None


def validate_config(cfg: dict) -> dict:
    """Strict-schema check: every key known, every value converted and
    checked; returns the config unchanged on success."""
    _typed_config(cfg)
    return cfg


def load_config(path: str) -> dict:
    """The YAML config at ``path``, not yet checked: ``validate_config``
    checks it, and ``ExperimentConfig.resolve`` checks and resolves it."""
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    return cfg if cfg is not None else {}


# ---------------------------------------------------------------------------
# dataset generation


def make_dataset(xc: ExperimentConfig, out_path: str) -> str:
    """Evaluate the configured source on the dataset grid and write CSV.

    ``fd`` rows come from the fd route and read ``xi1,...,xik,t,value``;
    ``mc`` rows come from the mc_reduced route and append
    ``std_error,flagged`` where ``flagged`` marks standard errors above
    ``dataset.se_ceiling``.  A provenance comment precedes the header.
    """
    p = xc.preset
    ds = xc.typed["dataset"]
    source = ds["source"]
    axes = _axes(ds.get("domain", p.data_domain),
                 ds.get("step", p.data_step), "dataset")
    points, times = space_time(axes, ds.get("times", p.data_times))
    _check_times(xc, times, "dataset.times")
    header = ",".join(f"xi{i + 1}" for i in range(p.k)) + ",t,value"
    fmt = "%.17g"
    if source == "fd":
        grid = ROUTES["fd"].rows(xc, points, times, None)
        body = np.column_stack([points, times, grid.estimates])
    else:
        mc = xc.mc_budget("dataset")
        _check_steps(xc, times, mc[0], f"{xc.mc_source('dt', 'dataset')}.dt",
                     "dataset.times")
        grid = ROUTES["mc_reduced"].rows(xc, points, times, mc)
        header += ",std_error,flagged"
        body = np.column_stack([points, times, grid.estimates,
                                grid.std_errors,
                                grid.std_errors > ds["se_ceiling"]])
        fmt = [fmt] * (body.shape[1] - 1) + ["%d"]
    return write_csv(out_path, f"# provenance: {source}\n{header}", body, fmt)


def load_dataset_csv(path: str) -> TrainingDataset:
    """Read a dataset CSV written by make_dataset back into memory."""
    with open(path) as fh:
        first = fh.readline().strip()
        provenance = "file"
        if first.startswith("#"):
            if "provenance:" in first:
                provenance = first.split("provenance:")[1].strip()
            header = fh.readline().strip()
        else:
            header = first
        names = header.split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    k = sum(1 for nm in names if nm.startswith("xi"))
    if "t" not in names or "value" not in names:
        raise UsageError(f"{path} lacks the xi*,t,value dataset schema")
    prov = provenance.upper() if provenance in ("fd", "mc") else provenance
    return TrainingDataset(
        xi=body[:, :k],
        t=body[:, names.index("t")],
        target=body[:, names.index("value")],
        provenance=prov,
    )


# ---------------------------------------------------------------------------
# benchmark


def error_against(estimates: np.ndarray, oracle: np.ndarray,
                  metric: str = "percentage") -> float:
    """Aggregate error of estimates vs oracle values over a point set.

    ``percentage``: 100 * sum|err| / sum|oracle| (relative L1);
    ``absolute``: mean |err|.
    """
    err = np.abs(np.asarray(estimates) - np.asarray(oracle))
    if metric == "percentage":
        return float(100.0 * err.sum() / np.abs(oracle).sum())
    return float(err.mean())


def benchmark(xc: ExperimentConfig, out_path: str) -> str:
    """Run the error-vs-samples study of the benchmark section; rows
    `estimator,n_samples,rep,error_pct`."""
    b = xc.typed["benchmark"]
    sampled = _with_role("sampled")
    for est in b["estimators"]:
        if est not in sampled:
            raise ConfigError(f"benchmark estimator {est!r} not supported; "
                              f"use {' or '.join(sampled)}")
    if b["oracle"] in b["estimators"]:
        raise ConfigError("benchmark.oracle must be distinct from the "
                          "estimators under test")
    oracles = _with_role("oracle")
    if b["oracle"] not in oracles:
        raise ConfigError("benchmark.oracle must be "
                          + " or ".join(map(repr, oracles)))
    last = b["repetitions"] - 1
    xc.check_seed_offset(last, "benchmark.repetitions",
                         f"repetition {last}")
    points = xc.points("benchmark", b["points"])
    times = np.full(points.shape[0], b.get("time", xc.default_time))
    _check_times(xc, times, "benchmark.time")
    _check_steps(xc, times, b["dt"], "benchmark.dt", "benchmark.time")
    truth = ROUTES[b["oracle"]].rows(xc, points, times, None).estimates
    for est in b["estimators"]:  # on no rows: refuses before any sampling
        ROUTES[est].rows(xc, points[:0], times[:0], None)
    lines = ["estimator,n_samples,rep,error_pct"]
    for est in b["estimators"]:
        for n in b["n_samples"]:
            for rep in range(b["repetitions"]):
                grid = ROUTES[est].rows(xc, points, times,
                                        (b["dt"], n, xc.seed + rep))
                err = error_against(grid.estimates, truth, b["metric"])
                lines.append(f"{est},{n},{rep},{err:.17g}")
    return write_text(out_path, (line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# commands


def _emit_run_json(out_dir: str, command: str, xc: ExperimentConfig,
                   artifacts: list) -> str:
    payload = {
        "command": command,
        "config": xc.raw,
        "seed": xc.seed,
        "artifacts": sorted(os.path.basename(a) for a in artifacts),
        "version": __version__,
    }
    return write_text(os.path.join(out_dir, "run.json"),
                      [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def _artifact(xc: ExperimentConfig, name: str) -> str:
    """Path of artifact ``name`` in the out directory, which the first
    artifact written creates, so a refused command leaves none."""
    return os.path.join(xc.out, name)


def cmd_simulate(xc: ExperimentConfig) -> list:
    sim = xc.typed["sim"]
    p = xc.preset
    cfg = SimConfig(dt=sim["dt"], horizon=sim.get("horizon", p.horizon or 1.0),
                    seed=xc.seed, n_paths=sim["n_paths"])
    lengths = {"xi0": p.k}
    if p.system is not None:
        lengths["x0"] = p.system.state_dim
    for key, length in lengths.items():
        if key in sim and len(sim[key]) != length:
            raise ConfigError(f"sim.{key} must have length {length}, got "
                              f"{len(sim[key])}")
    if sim["kind"] == "full":
        if p.system is None:
            raise ConfigError(f"preset {p.name!r} has no full system")
        if "x0" in sim:
            x0 = sim["x0"]
        elif "xi0" in sim and p.x0_of_xi is not None:
            x0 = p.x0_of_xi(sim["xi0"])
        else:
            raise ConfigError("sim.x0 (or sim.xi0) is required for full "
                              "simulation")
        batch = simulate(p.system, ZeroPolicy(p.system.control_dim), x0, cfg,
                         t0=sim["t0"])
    else:
        if p.reduced is None:
            raise ConfigError(f"preset {p.name!r} has no reduced SDE")
        if "xi0" not in sim:
            raise ConfigError("sim.xi0 is required for reduced simulation")
        batch = simulate_reduced(p.reduced, sim["xi0"], cfg, t0=sim["t0"])
    return [batch.to_csv(_artifact(xc, "trajectories.csv"))]


def cmd_estimate(xc: ExperimentConfig, task: str) -> list:
    """estimate-value and estimate-safety: the configured estimator's route
    on the eval rows."""
    if xc.task != task:
        raise ConfigError(f"estimate-{task} needs a {task}-task preset")
    points, t = xc.eval_points()
    _check_times(xc, t, "eval.time")
    if xc.estimator is None:
        raise ConfigError("config needs an 'estimator' for this command")
    mc = xc.mc_budget()
    if ROUTES[xc.estimator].role == "sampled":
        _check_steps(xc, t, mc[0], "mc.dt", "eval.time")
    grid = ROUTES[xc.estimator].rows(xc, points, np.full(len(points), t), mc)
    return [grid.to_csv(_artifact(xc, f"{task}.csv"))]


def cmd_train_pinn(xc: ExperimentConfig) -> list:
    cfg = xc.pinn_config()  # refuses before the FD data is solved
    result = train(xc.preset.pde_problem(), _pinn_dataset(xc), cfg)
    arts = [save_checkpoint(result.net, _artifact(xc, "pinn_checkpoint.json"),
                            seed=xc.seed, extra={"config": xc.raw}),
            result.log_to_csv(_artifact(xc, "pinn_loss_log.csv"))]
    if "points" not in xc.typed["eval"]:
        # surface table only makes sense on a tensor grid
        surface = predict_grid(result.net, xc.eval_axes(),
                               [xc.eval_points()[1]])
        arts.append(surface.to_csv(_artifact(xc, "pinn_surface.csv")))
    return arts


def cmd_train_features(xc: ExperimentConfig) -> list:
    p = xc.preset
    if p.cost_full is None or p.system is None or p.state_grid is None:
        raise ConfigError(f"preset {p.name!r} does not define a "
                          f"feature-learning problem")
    cfg = xc.ae_config()
    ae = xc.typed["ae"]
    if "decoder_init" not in ae:
        xc.check_seed_offset(1, "seed",
                             "without ae.decoder_init, the decoder's "
                             "initialisation")
    states = feature_state_grid(p)
    n_states = ae.get("n_states")
    if cfg.w_ct > 0:
        # the penalty's bucket thresholds need two feature samples a batch
        for key, n in (("batch_size", cfg.batch_size), ("n_states", n_states)):
            if n is not None and n < 2:
                raise ConfigError(f"ae.{key} must be at least 2 when ae.w_ct "
                                  f"> 0, the penalty needs two states a "
                                  f"batch; got {n}")
    if n_states is not None:
        if n_states > len(states):
            raise ConfigError(f"ae.n_states must be in [1, {len(states)}], "
                              f"the state grid size; got {n_states}")
        gen = stream(xc.seed, SUBSAMPLE_TAG)
        states = states[gen.choice(states.shape[0], n_states, replace=False)]
    init = None
    if "encoder_init" in ae or "decoder_init" in ae:
        if not ("encoder_init" in ae and "decoder_init" in ae):
            raise ConfigError("ae.encoder_init and ae.decoder_init must be "
                              "given together")
        enc = ae["encoder_init"]
        if (enc.d_in, enc.d_out) != (p.system.state_dim, cfg.k):
            raise ConfigError(
                f"ae.encoder_init maps {enc.d_in} inputs to {enc.d_out} "
                f"features, preset {p.name!r} has {p.system.state_dim} "
                f"state coordinates and ae.k = {cfg.k}")
        dec = ae["decoder_init"]
        if (dec.d_in, dec.d_out) != (cfg.k, 1):
            raise ConfigError(
                f"ae.decoder_init maps {dec.d_in} features to {dec.d_out} "
                f"outputs; it must map the ae.k = {cfg.k} features to 1")
        init = AutoencoderNet(enc, dec)
    result = train_autoencoder(p.system, p.cost_full, states, cfg,
                               init_net=init)
    return [*result.net.save(_artifact(xc, "encoder_checkpoint.json"),
                             _artifact(xc, "decoder_checkpoint.json"),
                             seed=xc.seed),
            result.log_to_csv(_artifact(xc, "feature_loss_log.csv"))]


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate-value": lambda xc: cmd_estimate(xc, "value"),
    "estimate-safety": lambda xc: cmd_estimate(xc, "safety"),
    "solve-pde": lambda xc: [
        _solve_oracle(xc).to_csv(_artifact(xc, "pde_solution.csv"))],
    "train-pinn": cmd_train_pinn,
    "train-features": cmd_train_features,
    "benchmark": lambda xc: [benchmark(xc, _artifact(xc, "benchmark.csv"))],
    "make-dataset": lambda xc: [make_dataset(xc,
                                             _artifact(xc, "dataset.csv"))],
}


def run(config, command: str, out: Optional[str] = None,
        seed: Optional[int] = None) -> list:
    """Resolve ``config`` (a path or a dict) and execute ``command``.

    Returns the list of artifact paths (the last entry is ``run.json``).
    """
    if command not in COMMANDS:
        raise UsageError(
            f"unknown command {command!r}; one of {', '.join(COMMANDS)}"
        )
    cfg = load_config(config) if isinstance(config, str) else config
    xc = ExperimentConfig.resolve(cfg, out=out, seed=seed)
    arts = COMMANDS[command](xc)
    return arts + [_emit_run_json(xc.out, command, xc, arts)]
