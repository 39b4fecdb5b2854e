"""Experiment runner: validated configs, one route per estimator, CSV
artifacts.

A run is described by a single YAML file (nested key/value sections; unknown
keys are errors, so typos fail loudly instead of silently falling back to
defaults).  Every command writes its tables plus a ``run.json`` holding the
fully resolved configuration and seed; re-running from that file reproduces
the artifacts byte-for-byte.  All file writes go through a
write-temp-then-rename helper so concurrent runs never observe half-written
artifacts.

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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, DomainError, UsageError
from .featureid import AeTrainConfig, AutoencoderNet, train_autoencoder
from .grid import nodes, space_time, write_csv
from .montecarlo import (
    BarrierSpec,
    CostSpec,
    McGrid,
    safety_grid_reduced,
    safety_mc,
    value_grid_reduced,
    value_pathintegral,
)
from .neural import DenseNetwork, forward, load_checkpoint, save_checkpoint
from .pde import FdSolution, LqSpec, riccati_value, solve_fd
from .pinn import PinnConfig, TrainingDataset, predict_grid, train
from .presets import (Preset, _quad_r, feature_state_grid, get_preset,
                      preset_names)
from .reduction import (
    build_reduced_sde,
    coeff_a,
    coeff_b,
    feature_map_from_encoder,
)
from .sde import SimConfig, ZeroPolicy, simulate, simulate_reduced

__all__ = [
    "ExperimentConfig",
    "BenchmarkSpec",
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
# atomic file output


def _atomic_write(path: str, write_fn: Callable[[str], None]) -> str:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def _write_text(path: str, text: str) -> str:
    def do(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)

    return _atomic_write(path, do)


# ---------------------------------------------------------------------------
# config schema


_EVAL_KEYS = {"domain", "step", "time", "points"}
_MC_KEYS = {"dt", "n_paths"}
_FD_KEYS = {"dxi", "dt", "save_every", "domain"}
_PINN_KEYS = {
    "omega_p",
    "omega_d",
    "n_domain",
    "epochs",
    "lr",
    "widths",
    "batch_size",
    "log_every",
    "resample_collocation",
    "data_source",
    "data_path",
    "checkpoint",
}
_AE_KEYS = {
    "w_rc",
    "w_ct",
    "k",
    "d",
    "epochs",
    "iterations",
    "batch_size",
    "lr",
    "encoder_hidden",
    "n_states",
    "encoder_init",
    "decoder_init",
}
_DATASET_KEYS = {"source", "domain", "step", "times", "se_ceiling", "dt",
                 "n_paths"}
_BENCH_KEYS = {"estimators", "n_samples", "metric", "oracle", "repetitions",
               "points", "time", "dt"}
_SIM_KEYS = {"kind", "x0", "xi0", "dt", "horizon", "n_paths", "t0"}
_INLINE_KEYS = {"alpha", "beta_slope", "ranges", "r_scale", "terminal_weight",
                "horizon", "task"}
_REDUCTION_KEYS = {"alpha", "beta_slope", "ranges", "encoder_checkpoint",
                   "state_domain", "n_states", "n_levels"}

_SCHEMA = {
    "preset": None,
    "inline": _INLINE_KEYS,
    "task": None,
    "estimator": None,
    "seed": None,
    "out": None,
    "eval": _EVAL_KEYS,
    "mc": _MC_KEYS,
    "fd": _FD_KEYS,
    "pinn": _PINN_KEYS,
    "ae": _AE_KEYS,
    "dataset": _DATASET_KEYS,
    "benchmark": _BENCH_KEYS,
    "sim": _SIM_KEYS,
    "reduction": _REDUCTION_KEYS,
}


def validate_config(cfg: dict) -> dict:
    """Strict-schema check; returns the config unchanged on success."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    for key, sub in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if allowed is None:
            continue
        if not isinstance(sub, dict):
            raise ConfigError(f"config section {key!r} must be a mapping")
        for name in sub:
            if name not in allowed:
                raise ConfigError(f"unknown config key '{key}.{name}'")
    if "preset" in cfg and cfg["preset"] not in preset_names():
        raise ConfigError(
            f"unknown preset {cfg['preset']!r}; available: "
            f"{', '.join(preset_names())}"
        )
    if "preset" in cfg and "inline" in cfg:
        raise ConfigError("give either 'preset' or 'inline', not both")
    est = cfg.get("estimator")
    if est is not None and est not in ROUTES:
        raise ConfigError(
            f"unknown estimator {est!r}; one of {', '.join(ROUTES)}"
        )
    task = cfg.get("task")
    if task is not None and task not in ("value", "safety"):
        raise ConfigError(f"task must be 'value' or 'safety', got {task!r}")
    red = cfg.get("reduction")
    if red is not None:
        analytic = {"alpha", "beta_slope"} & set(red)
        learned = "encoder_checkpoint" in red
        if analytic and learned:
            raise ConfigError(
                "reduction: give analytic alpha/beta_slope or an "
                "encoder_checkpoint, not both"
            )
        if learned and not os.path.exists(red["encoder_checkpoint"]):
            raise ConfigError(
                f"reduction.encoder_checkpoint does not exist: "
                f"{red['encoder_checkpoint']}"
            )
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    return validate_config(cfg if cfg is not None else {})


# ---------------------------------------------------------------------------
# resolution: config dict -> concrete objects


def _axes(domain, step: float) -> list:
    """Nodes at spacing ``step`` on each (lo, hi) of ``domain``; every
    interval must be a whole number of cells."""
    step = float(step)
    axes = []
    for lo, hi in domain:
        lo, hi = float(lo), float(hi)
        n = round((hi - lo) / step)
        if n < 1 or abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
            raise ConfigError(
                f"step {step} does not resolve [{lo}, {hi}] into whole cells"
            )
        axes.append(np.round(lo + step * np.arange(n + 1), 12))
    return axes


def _inline_preset(inline: dict) -> Preset:
    for req in ("alpha", "beta_slope", "ranges", "horizon"):
        if req not in inline:
            raise ConfigError(f"inline.{req} is required")
    alpha_c = [float(a) for a in inline["alpha"]]
    slope = [float(b) for b in inline["beta_slope"]]
    ranges = [tuple(map(float, ab)) for ab in inline["ranges"]]
    if not (len(alpha_c) == len(slope) == len(ranges)):
        raise ConfigError(
            "inline.alpha, beta_slope and ranges must have equal length"
        )
    alpha = [
        (lambda c: lambda s: np.full_like(
            np.asarray(s, dtype=np.float64), c))(c)
        for c in alpha_c
    ]
    beta = [
        (lambda m: lambda s: m * np.asarray(s, dtype=np.float64))(m)
        for m in slope
    ]
    r_scale = float(inline.get("r_scale", 0.5))
    horizon = float(inline["horizon"])
    k = len(alpha_c)
    # constant alpha + linear beta + quadratic r is exactly the
    # linear-quadratic form, so the Riccati reference is always available
    lq = LqSpec(
        M=np.diag([alpha_c[i] * slope[i] for i in range(k)]),
        Sigma=np.diag(alpha_c),
        R=r_scale * np.eye(k),
        R_T=float(inline.get("terminal_weight", 1.0)) * r_scale * np.eye(k),
        horizon=horizon,
    )
    return Preset(
        name="inline",
        task=str(inline.get("task", "value")),
        horizon=horizon,
        k=k,
        reduced=build_reduced_sde(alpha, beta, ranges),
        r=_quad_r(r_scale),
        terminal_weight=float(inline.get("terminal_weight", 1.0)),
        data_domain=ranges,
        data_times=np.round(np.arange(0.0, horizon + 1e-9, 0.1), 10),
        train_window=(0.0, horizon),
        oracle_domain=ranges,
        oracle_dxi=min((hi - lo) for lo, hi in ranges) / 100.0,
        oracle_dt=1e-3,
        oracle_save_every=10,
        lq=lq,
        pinn=PinnConfig(),
        eval_time=0.0,
    )


def _reduced_from_encoder(system, red_cfg: dict, seed: int):
    """Tabulated reduced SDE of a learned encoder.

    Samples states from the declared box, evaluates the generator
    coefficients a_i, b_i of each learned feature, averages them over
    feature-value bins, and interpolates the bin means into callables.
    """
    encoder, _ = load_checkpoint(red_cfg["encoder_checkpoint"])
    if "state_domain" not in red_cfg:
        raise ConfigError("reduction.state_domain is required with an "
                          "encoder checkpoint")
    box = [tuple(map(float, ab)) for ab in red_cfg["state_domain"]]
    if len(box) != system.state_dim:
        raise ConfigError(
            f"reduction.state_domain lists {len(box)} intervals, system "
            f"has {system.state_dim} coordinates"
        )
    n_states = int(red_cfg.get("n_states", 1000))
    n_levels = int(red_cfg.get("n_levels", 16))
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0x5EDC], dtype=np.uint64))
    )
    lo = np.array([ab[0] for ab in box])
    hi = np.array([ab[1] for ab in box])
    states = gen.uniform(lo, hi, (n_states, system.state_dim))
    fm = feature_map_from_encoder(encoder)
    feats = fm.p(states)
    nominal = ZeroPolicy(system.control_dim)
    alpha, beta, ranges = [], [], []
    for i in range(fm.k):
        order = np.argsort(feats[:, i], kind="stable")
        splits = np.array_split(order, n_levels)
        keys, amean, bmean = [], [], []
        for idx in splits:
            if idx.size == 0:
                continue
            a_vals = [coeff_a(system, fm, i, states[j]) for j in idx]
            b_vals = [coeff_b(system, nominal, fm, i, states[j]) for j in idx]
            keys.append(float(feats[idx, i].mean()))
            amean.append(float(np.mean(a_vals)))
            bmean.append(float(np.mean(b_vals)))
        keys = np.asarray(keys)
        amean = np.asarray(amean)
        bmean = np.asarray(bmean)
        if not np.all(amean > 0):
            raise DomainError(
                f"learned feature {i + 1} has nonpositive mean diffusion "
                f"coefficient on the sampled states"
            )
        alpha.append(
            (lambda kk, aa: lambda s: np.interp(
                np.asarray(s, dtype=np.float64), kk, aa))(keys, amean)
        )
        beta.append(
            (lambda kk, bb: lambda s: np.interp(
                np.asarray(s, dtype=np.float64), kk, bb))(keys, bmean)
        )
        ranges.append((float(feats[:, i].min()), float(feats[:, i].max())))
    return build_reduced_sde(alpha, beta, ranges), fm


@dataclass
class ExperimentConfig:
    """A validated config resolved against its preset.

    ``raw`` is the merged, JSON-serializable dictionary embedded in
    ``run.json``; the object fields are the live counterparts.
    """

    raw: dict
    preset: Preset
    task: str
    estimator: Optional[str]
    seed: int
    out: str

    @classmethod
    def resolve(cls, cfg: dict, out: Optional[str] = None,
                seed: Optional[int] = None) -> "ExperimentConfig":
        cfg = validate_config(dict(cfg))
        if "inline" in cfg:
            preset = _inline_preset(cfg["inline"])
        elif "preset" in cfg:
            preset = get_preset(cfg["preset"])
        else:
            raise ConfigError("config needs a 'preset' name or an 'inline' "
                              "system block")
        red = cfg.get("reduction")
        if red and {"alpha", "beta_slope"} <= set(red):
            ranges = red.get(
                "ranges", [list(ab) for ab in (preset.oracle_domain or [])]
            )
            preset.reduced = _inline_preset(
                {
                    "alpha": red["alpha"],
                    "beta_slope": red["beta_slope"],
                    "ranges": ranges,
                    "horizon": preset.horizon or 1.0,
                }
            ).reduced
        elif red and "encoder_checkpoint" in red:
            if preset.system is None:
                raise ConfigError(
                    "an encoder-checkpoint reduction needs a preset with a "
                    "full system"
                )
            preset.reduced, preset.features = _reduced_from_encoder(
                preset.system, red, int(cfg.get("seed", 0))
            )
        task = cfg.get("task", preset.task)
        if task != preset.task and preset.name != "inline":
            raise ConfigError(
                f"preset {preset.name!r} is a {preset.task} task, config "
                f"says {task!r}"
            )
        resolved_seed = int(seed if seed is not None else cfg.get("seed", 0))
        resolved_out = str(out if out is not None else cfg.get("out", "."))
        raw = dict(cfg)
        raw["seed"] = resolved_seed
        raw["out"] = resolved_out
        raw.setdefault("task", task)
        return cls(
            raw=raw,
            preset=preset,
            task=task,
            estimator=cfg.get("estimator"),
            seed=resolved_seed,
            out=resolved_out,
        )

    # --- resolved sub-configs -------------------------------------------

    def mc_budget(self, defaults=None) -> tuple:
        """(dt, n_paths, seed) of the sampled routes: the mc section over
        ``defaults``."""
        mc = dict(defaults or {})
        mc.update(self.raw.get("mc", {}))
        return (float(mc.get("dt", 1e-3)), int(mc.get("n_paths", 10000)),
                self.seed)

    def pinn_config(self) -> PinnConfig:
        base = self.preset.pinn or PinnConfig()
        over = self.raw.get("pinn", {})
        return PinnConfig(
            omega_p=float(over.get("omega_p", base.omega_p)),
            omega_d=float(over.get("omega_d", base.omega_d)),
            n_domain=int(over.get("n_domain", base.n_domain)),
            epochs=int(over.get("epochs", base.epochs)),
            lr=float(over.get("lr", base.lr)),
            seed=self.seed,
            widths=tuple(int(w) for w in over.get("widths", base.widths)),
            batch_size=over.get("batch_size", base.batch_size),
            log_every=int(over.get("log_every", base.log_every)),
            resample_collocation=bool(
                over.get("resample_collocation", base.resample_collocation)
            ),
        )

    def ae_config(self) -> AeTrainConfig:
        base = self.preset.ae or AeTrainConfig()
        over = dict(self.raw.get("ae", {}))
        return AeTrainConfig(
            w_rc=float(over.get("w_rc", base.w_rc)),
            w_ct=float(over.get("w_ct", base.w_ct)),
            k=int(over.get("k", base.k)),
            d=int(over.get("d", base.d)),
            epochs=int(over.get("epochs", base.epochs)),
            iterations=int(over.get("iterations", base.iterations)),
            batch_size=int(over.get("batch_size", base.batch_size)),
            lr=float(over.get("lr", base.lr)),
            seed=self.seed,
            encoder_hidden=tuple(
                int(w) for w in over.get("encoder_hidden", base.encoder_hidden)
            ),
        )

    @property
    def default_time(self) -> float:
        """The evaluation time of estimate-* and benchmark when the config
        gives none: the preset's, else 0."""
        t = self.preset.eval_time
        return 0.0 if t is None else t

    def eval_points(self):
        """Evaluation rows (points, time) from the eval section."""
        ev = self.raw.get("eval", {})
        t = float(ev.get("time", self.default_time))
        if "points" in ev:
            return self.points("eval", ev["points"]), t
        return nodes(self.eval_axes()), t

    def points(self, section: str, rows) -> np.ndarray:
        """The (P, k) points of ``section``.points; each row needs k
        coordinates."""
        pts = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if pts.shape[1] != self.preset.k:
            raise ConfigError(
                f"{section}.points rows have {pts.shape[1]} coordinates, "
                f"preset has k = {self.preset.k}"
            )
        return pts

    def eval_axes(self) -> list:
        """Axes of the eval section's tensor grid."""
        ev = self.raw.get("eval", {})
        domain = ev.get("domain", self.preset.data_domain)
        if domain is None:
            raise ConfigError("eval.domain is required for this preset")
        return _axes(domain, ev.get("step", self.preset.data_step))


# ---------------------------------------------------------------------------
# estimator routes


def _solve_oracle(xc: ExperimentConfig) -> FdSolution:
    """The FD solve of the preset's PDE with the fd section's settings."""
    fd = xc.raw.get("fd", {})
    p = xc.preset
    domain = [tuple(map(float, ab))
              for ab in fd.get("domain", p.oracle_domain)]
    return solve_fd(p.pde_problem(domain=domain),
                    [float(fd.get("dxi", p.oracle_dxi))] * p.k,
                    float(fd.get("dt", p.oracle_dt)),
                    save_every=int(fd.get("save_every", p.oracle_save_every)))


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
    return _exact(points, times, _solve_oracle(xc).interpolate(points, times))


def _pinn_rows(xc: ExperimentConfig, points, times, mc) -> McGrid:
    net = _trained_or_loaded_net(xc)
    # one forward call per time, as predict_grid makes
    return _exact(points, times, _per_time(
        points, times,
        lambda xi, t: forward(net, np.column_stack(
            [xi, np.full(len(xi), t)]))[:, 0]))


def _mc_reduced_rows(xc: ExperimentConfig, points, times, mc) -> McGrid:
    """Reduced-SDE Monte Carlo of all rows in one grid call.  Rows with no
    time left to march (t = T for a value, t = 0 for a safety horizon) take
    the boundary condition, with a zero standard error."""
    p = xc.preset
    value = xc.task == "value"
    edge = np.abs(times - p.horizon) < 1e-12 if value else times <= 1e-12
    est = np.empty(len(times))
    se = np.zeros(len(times))
    if edge.any():
        r = np.asarray(p.r(points[edge]), dtype=np.float64)
        est[edge] = (np.exp(-p.terminal_weight * r) if value
                     else (r > 0).astype(np.float64))
    run = ~edge
    if run.any():
        if value:
            grid = value_grid_reduced(p.reduced, points[run], times[run],
                                      p.horizon, p.r, mc,
                                      terminal_weight=p.terminal_weight)
        else:
            grid = safety_grid_reduced(p.reduced, points[run], times[run],
                                       p.r, mc)
        est[run], se[run] = grid.estimates, grid.std_errors
    return McGrid(points=points, times=times, estimates=est, std_errors=se)


def _mc_full_rows(xc: ExperimentConfig, points, times, mc) -> McGrid:
    """Full-system Monte Carlo, one march per row."""
    p = xc.preset
    if p.system is None or p.x0_of_xi is None:
        raise UsageError(
            f"preset {p.name!r} has no full system; mc_full does not apply"
        )
    est = np.empty(len(times))
    se = np.empty(len(times))
    for j, (xi, t) in enumerate(zip(points, times.tolist())):
        if xc.task == "value":
            cost = CostSpec(running_cost=p.cost_full,
                            terminal_weight=p.terminal_weight)
            m = value_pathintegral(p.system, p.x0_of_xi(xi), t, p.horizon,
                                   cost, _sim(mc, p.horizon - t))
            est[j] = np.exp(-m.value)
            se[j] = est[j] * m.std_error
        else:
            m = safety_mc(p.system, ZeroPolicy(p.system.control_dim),
                          p.x0_of_xi(xi), BarrierSpec(phi=p.barrier_full), t,
                          _sim(mc, t))
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
    block = xc.raw.get("pinn", {})
    source = block.get("data_source", "fd")
    if source == "file":
        if "data_path" not in block:
            raise ConfigError("pinn.data_path is required with "
                              "data_source: file")
        return load_dataset_csv(block["data_path"])
    if source != "fd":
        raise ConfigError(f"pinn.data_source must be 'fd' or 'file', got "
                          f"{source!r}")
    times = p.data_times
    if p.train_window is not None:
        lo, hi = p.train_window
        times = times[(times >= lo - 1e-9) & (times <= hi + 1e-9)]
    points, times = space_time(_axes(p.data_domain, p.data_step), times)
    grid = ROUTES["fd"].rows(xc, points, times, None)
    return TrainingDataset(xi=points, t=times, target=grid.estimates,
                           provenance="FD")


def _trained_or_loaded_net(xc: ExperimentConfig) -> DenseNetwork:
    ckpt = xc.raw.get("pinn", {}).get("checkpoint")
    if ckpt is not None:
        if not os.path.exists(ckpt):
            raise ConfigError(f"pinn.checkpoint does not exist: {ckpt}")
        net, _ = load_checkpoint(ckpt)
        return net
    return train(xc.preset.pde_problem(), _pinn_dataset(xc),
                 xc.pinn_config()).net


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
    ds = xc.raw.get("dataset", {})
    source = ds.get("source", "fd")
    axes = _axes(ds.get("domain", p.data_domain),
                 ds.get("step", p.data_step))
    points, times = space_time(axes, ds.get("times", p.data_times))
    header = ",".join(f"xi{i + 1}" for i in range(p.k)) + ",t,value"
    fmt = "%.17g"
    if source == "fd":
        grid = ROUTES["fd"].rows(xc, points, times, None)
        body = np.column_stack([points, times, grid.estimates])
    elif source == "mc":
        ceiling = float(ds.get("se_ceiling", np.inf))
        mc = xc.mc_budget({"dt": ds.get("dt", 1e-3),
                           "n_paths": ds.get("n_paths", 10000)})
        grid = ROUTES["mc_reduced"].rows(xc, points, times, mc)
        header += ",std_error,flagged"
        body = np.column_stack([points, times, grid.estimates,
                                grid.std_errors, grid.std_errors > ceiling])
        fmt = [fmt] * (body.shape[1] - 1) + ["%d"]
    else:
        raise ConfigError(f"dataset.source must be 'fd' or 'mc', got "
                          f"{source!r}")
    return _atomic_write(out_path, lambda tmp: write_csv(
        tmp, f"# provenance: {source}\n{header}", body, fmt))


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


@dataclass
class BenchmarkSpec:
    """Error-versus-sample-count study description."""

    estimators: list
    n_samples: list
    oracle: str
    repetitions: int = 10
    metric: str = "percentage"
    time: float = 0.5
    dt: float = 1e-3

    def __post_init__(self):
        if not self.estimators:
            raise ConfigError("benchmark.estimators must be nonempty")
        sampled = _with_role("sampled")
        for est in self.estimators:
            if est not in sampled:
                raise ConfigError(
                    f"benchmark estimator {est!r} not supported; use "
                    f"{' or '.join(sampled)}"
                )
        if self.oracle in self.estimators:
            raise ConfigError(
                "benchmark.oracle must be distinct from the estimators "
                "under test"
            )
        oracles = _with_role("oracle")
        if self.oracle not in oracles:
            raise ConfigError("benchmark.oracle must be "
                              + " or ".join(map(repr, oracles)))
        if self.metric not in ("percentage", "absolute"):
            raise ConfigError("benchmark.metric must be 'percentage' or "
                              "'absolute'")
        if self.repetitions < 1 or not self.n_samples:
            raise ConfigError("benchmark needs repetitions >= 1 and a "
                              "nonempty n_samples list")


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
    """Run the error-vs-samples study; rows `estimator,n_samples,rep,error_pct`."""
    b = dict(xc.raw.get("benchmark", {}))
    spec = BenchmarkSpec(
        estimators=list(b.get("estimators", ["mc_reduced"])),
        n_samples=[int(n) for n in b.get("n_samples", [1000])],
        oracle=b.get("oracle", "fd"),
        repetitions=int(b.get("repetitions", 10)),
        metric=b.get("metric", "percentage"),
        time=float(b.get("time", xc.default_time)),
        dt=float(b.get("dt", 1e-3)),
    )
    points = xc.points("benchmark",
                       b.get("points", [[1.1, 1.1], [1.5, 1.5], [1.9, 1.9]]))
    times = np.full(points.shape[0], spec.time)
    truth = ROUTES[spec.oracle].rows(xc, points, times, None).estimates
    for est in spec.estimators:  # on no rows: refuses before any sampling
        ROUTES[est].rows(xc, points[:0], times[:0], None)
    lines = ["estimator,n_samples,rep,error_pct"]
    for est in spec.estimators:
        for n in spec.n_samples:
            for rep in range(spec.repetitions):
                grid = ROUTES[est].rows(xc, points, times,
                                        (spec.dt, n, xc.seed + rep))
                err = error_against(grid.estimates, truth, spec.metric)
                lines.append(f"{est},{n},{rep},{err:.17g}")
    return _write_text(out_path, "\n".join(lines) + "\n")


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
    return _write_text(os.path.join(out_dir, "run.json"),
                       json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _artifact(xc: ExperimentConfig, name: str) -> str:
    """Path of artifact ``name`` in the out directory, which it creates."""
    os.makedirs(xc.out, exist_ok=True)
    return os.path.join(xc.out, name)


def cmd_simulate(xc: ExperimentConfig) -> list:
    sim = xc.raw.get("sim", {})
    kind = sim.get("kind", "reduced")
    dt = float(sim.get("dt", 1e-3))
    horizon = float(sim.get("horizon", xc.preset.horizon or 1.0))
    n_paths = int(sim.get("n_paths", 100))
    t0 = float(sim.get("t0", 0.0))
    cfg = SimConfig(dt=dt, horizon=horizon, seed=xc.seed, n_paths=n_paths)
    p = xc.preset
    if kind == "full":
        if p.system is None:
            raise ConfigError(f"preset {p.name!r} has no full system")
        if "x0" in sim:
            x0 = np.asarray(sim["x0"], dtype=np.float64)
        elif "xi0" in sim and p.x0_of_xi is not None:
            x0 = p.x0_of_xi(np.asarray(sim["xi0"], dtype=np.float64))
        else:
            raise ConfigError("sim.x0 (or sim.xi0) is required for full "
                              "simulation")
        batch = simulate(p.system, ZeroPolicy(p.system.control_dim), x0, cfg,
                         t0=t0)
    elif kind == "reduced":
        if "xi0" not in sim:
            raise ConfigError("sim.xi0 is required for reduced simulation")
        batch = simulate_reduced(
            p.reduced, np.asarray(sim["xi0"], dtype=np.float64), cfg, t0=t0
        )
    else:
        raise ConfigError(f"sim.kind must be 'full' or 'reduced', got "
                          f"{kind!r}")
    return [_atomic_write(_artifact(xc, "trajectories.csv"), batch.to_csv)]


def cmd_estimate(xc: ExperimentConfig, task: str) -> list:
    """estimate-value and estimate-safety: the configured estimator's route
    on the eval rows."""
    if xc.task != task:
        raise ConfigError(f"estimate-{task} needs a {task}-task preset")
    points, t = xc.eval_points()
    if xc.estimator is None:
        raise ConfigError("config needs an 'estimator' for this command")
    grid = ROUTES[xc.estimator].rows(xc, points, np.full(len(points), t),
                                     xc.mc_budget())
    return [_atomic_write(_artifact(xc, f"{task}.csv"), grid.to_csv)]


def cmd_train_pinn(xc: ExperimentConfig) -> list:
    result = train(xc.preset.pde_problem(), _pinn_dataset(xc),
                   xc.pinn_config())
    ckpt = _artifact(xc, "pinn_checkpoint.json")
    save_checkpoint(result.net, ckpt, seed=xc.seed, extra={"config": xc.raw})
    arts = [ckpt, _atomic_write(_artifact(xc, "pinn_loss_log.csv"),
                                result.log_to_csv)]
    if "points" not in xc.raw.get("eval", {}):
        # surface table only makes sense on a tensor grid
        surface = predict_grid(result.net, xc.eval_axes(),
                               [xc.eval_points()[1]])
        arts.append(_atomic_write(_artifact(xc, "pinn_surface.csv"),
                                  surface.to_csv))
    return arts


def cmd_train_features(xc: ExperimentConfig) -> list:
    p = xc.preset
    if p.cost_full is None or p.system is None or p.state_grid is None:
        raise ConfigError(f"preset {p.name!r} does not define a "
                          f"feature-learning problem")
    cfg = xc.ae_config()
    ae = xc.raw.get("ae", {})
    states = feature_state_grid(p)
    n_states = ae.get("n_states")
    if n_states is not None:
        gen = np.random.Generator(
            np.random.Philox(key=np.array([xc.seed, 0xA11], dtype=np.uint64))
        )
        states = states[gen.choice(states.shape[0], int(n_states),
                                   replace=False)]
    init = None
    if "encoder_init" in ae or "decoder_init" in ae:
        if not ("encoder_init" in ae and "decoder_init" in ae):
            raise ConfigError("ae.encoder_init and ae.decoder_init must be "
                              "given together")
        init = AutoencoderNet.load(ae["encoder_init"], ae["decoder_init"])
    result = train_autoencoder(p.system, p.cost_full, states, cfg,
                               init_net=init)
    arts = [_artifact(xc, "encoder_checkpoint.json"),
            _artifact(xc, "decoder_checkpoint.json")]
    result.net.save(*arts, seed=xc.seed)
    return arts + [_atomic_write(_artifact(xc, "feature_loss_log.csv"),
                                 result.log_to_csv)]


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate-value": lambda xc: cmd_estimate(xc, "value"),
    "estimate-safety": lambda xc: cmd_estimate(xc, "safety"),
    "solve-pde": lambda xc: [_atomic_write(
        _artifact(xc, "pde_solution.csv"), _solve_oracle(xc).to_csv)],
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
    cfg = load_config(config) if isinstance(config, str) else validate_config(
        dict(config)
    )
    xc = ExperimentConfig.resolve(cfg, out=out, seed=seed)
    arts = COMMANDS[command](xc)
    return arts + [_emit_run_json(xc.out, command, xc, arts)]
