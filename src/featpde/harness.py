"""Experiment runner: validated configs, estimator dispatch, CSV artifacts.

A run is described by a single YAML file (nested key/value sections; unknown
keys are errors, so typos fail loudly instead of silently falling back to
defaults).  Every command writes its tables plus a ``run.json`` holding the
fully resolved configuration and seed; re-running from that file reproduces
the artifacts byte-for-byte.  All file writes go through a
write-temp-then-rename helper so concurrent runs never observe half-written
artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, DomainError, UsageError
from .featureid import AeTrainConfig, AutoencoderNet, train_autoencoder
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
from .presets import Preset, feature_state_grid, get_preset, preset_names
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
    "load_config",
    "validate_config",
    "run",
    "make_dataset",
    "benchmark",
    "load_dataset_csv",
    "COMMANDS",
]

_ESTIMATORS = ("mc_full", "mc_reduced", "fd", "pinn", "riccati")


# ---------------------------------------------------------------------------
# atomic file output


def _atomic_write(path: str, write_fn: Callable[[str], None]):
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_text(path: str, text: str):
    def do(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)

    _atomic_write(path, do)


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
    if est is not None and est not in _ESTIMATORS:
        raise ConfigError(
            f"unknown estimator {est!r}; one of {', '.join(_ESTIMATORS)}"
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


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = round((hi - lo) / step)
    if n < 1 or abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
        raise ConfigError(
            f"step {step} does not resolve [{lo}, {hi}] into whole cells"
        )
    return np.round(lo + step * np.arange(n + 1), 12)


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

    def r(xi):
        xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        return r_scale * (xi**2).sum(axis=1)

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
        r=r,
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

    def sim_config(self, horizon: float, defaults=None) -> SimConfig:
        mc = dict(defaults or {})
        mc.update(self.raw.get("mc", {}))
        return SimConfig(
            dt=float(mc.get("dt", 1e-3)),
            horizon=horizon,
            seed=self.seed,
            n_paths=int(mc.get("n_paths", 10000)),
        )

    def fd_settings(self):
        fd = self.raw.get("fd", {})
        p = self.preset
        domain = fd.get("domain", p.oracle_domain)
        return (
            [tuple(map(float, ab)) for ab in domain],
            float(fd.get("dxi", p.oracle_dxi)),
            float(fd.get("dt", p.oracle_dt)),
            int(fd.get("save_every", p.oracle_save_every)),
        )

    def pinn_config(self) -> PinnConfig:
        base = self.preset.pinn or PinnConfig()
        over = {
            k: v
            for k, v in self.raw.get("pinn", {}).items()
            if k not in ("data_source", "data_path")
        }
        if "widths" in over:
            over["widths"] = tuple(int(w) for w in over["widths"])
        return PinnConfig(
            omega_p=float(over.get("omega_p", base.omega_p)),
            omega_d=float(over.get("omega_d", base.omega_d)),
            n_domain=int(over.get("n_domain", base.n_domain)),
            epochs=int(over.get("epochs", base.epochs)),
            lr=float(over.get("lr", base.lr)),
            seed=self.seed,
            widths=over.get("widths", base.widths),
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

    def eval_points(self):
        """Evaluation rows (points, time) from the eval section."""
        ev = self.raw.get("eval", {})
        p = self.preset
        t = float(ev.get("time", p.eval_time if p.eval_time is not None else 0.0))
        if "points" in ev:
            pts = np.atleast_2d(np.asarray(ev["points"], dtype=np.float64))
            if pts.shape[1] != p.k:
                raise ConfigError(
                    f"eval.points rows have {pts.shape[1]} coordinates, "
                    f"preset has k = {p.k}"
                )
            return pts, t
        domain = ev.get("domain", p.data_domain)
        if domain is None:
            raise ConfigError("eval.domain is required for this preset")
        step = float(ev.get("step", p.data_step))
        axes = [_axis(float(lo), float(hi), step) for lo, hi in domain]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids]), t


# ---------------------------------------------------------------------------
# shared evaluation paths


def _solve_oracle(xc: ExperimentConfig) -> FdSolution:
    domain, dxi, dt, save_every = xc.fd_settings()
    problem = xc.preset.pde_problem(domain=domain)
    return solve_fd(problem, [dxi] * xc.preset.k, dt, save_every=save_every)


def fd_dataset(preset: Preset, domain, step, times, sol: FdSolution,
               provenance: str = "FD") -> TrainingDataset:
    """Supervised rows on a tensor grid, interpolated from an FD solution."""
    axes = [_axis(float(lo), float(hi), float(step)) for lo, hi in domain]
    times = np.asarray(times, dtype=np.float64)
    shape = tuple(len(a) for a in axes)
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    values = np.empty((times.size, *shape))
    for j, t in enumerate(times):
        values[j] = sol.interpolate(nodes, float(t)).reshape(shape)
    return TrainingDataset.from_grid(axes, times, values,
                                     provenance=provenance)


def _estimate_value_rows(xc: ExperimentConfig, points, t) -> McGrid:
    p = xc.preset
    est = xc.estimator
    n = points.shape[0]
    if est == "riccati":
        if p.lq is None:
            raise UsageError(
                f"preset {p.name!r} has no linear-quadratic form; the "
                f"riccati estimator does not apply"
            )
        vals = np.asarray(riccati_value(p.lq, points, t), dtype=np.float64)
        vals = np.broadcast_to(np.atleast_1d(vals), (n,)).copy()
        return McGrid(points=points, times=np.full(n, t), estimates=vals,
                      std_errors=np.zeros(n))
    if est == "fd":
        sol = _solve_oracle(xc)
        vals = sol.interpolate(points, t)
        return McGrid(points=points, times=np.full(n, t), estimates=vals,
                      std_errors=np.zeros(n))
    if est == "pinn":
        net = _trained_or_loaded_net(xc)
        vals = forward(
            net, np.column_stack([points, np.full(n, t)])
        )[:, 0]
        return McGrid(points=points, times=np.full(n, t), estimates=vals,
                      std_errors=np.zeros(n))
    if est == "mc_reduced":
        cfg = xc.sim_config(horizon=p.horizon - t)
        return value_grid_reduced(
            p.reduced, points, t, p.horizon, p.r, cfg,
            terminal_weight=p.terminal_weight,
        )
    if est == "mc_full":
        if p.system is None or p.x0_of_xi is None:
            raise UsageError(
                f"preset {p.name!r} has no full system; mc_full does not "
                f"apply"
            )
        cfg = xc.sim_config(horizon=p.horizon - t)
        cost = CostSpec(running_cost=p.cost_full,
                        terminal_weight=p.terminal_weight)
        vals = np.empty(n)
        ses = np.empty(n)
        for j, xi in enumerate(points):
            mc = value_pathintegral(
                p.system, p.x0_of_xi(xi), t, p.horizon, cost, cfg
            )
            vals[j] = np.exp(-mc.value)
            ses[j] = vals[j] * mc.std_error
        return McGrid(points=points, times=np.full(n, t), estimates=vals,
                      std_errors=ses)
    raise ConfigError("config needs an 'estimator' for this command")


def _estimate_safety_rows(xc: ExperimentConfig, points, t) -> McGrid:
    p = xc.preset
    est = xc.estimator
    n = points.shape[0]
    if est in ("fd", "pinn"):
        if est == "fd":
            sol = _solve_oracle(xc)
            vals = sol.interpolate(points, t)
        else:
            net = _trained_or_loaded_net(xc)
            vals = forward(
                net, np.column_stack([points, np.full(n, t)])
            )[:, 0]
        return McGrid(points=points, times=np.full(n, t), estimates=vals,
                      std_errors=np.zeros(n))
    if est == "mc_reduced":
        cfg = xc.sim_config(horizon=t)
        return safety_grid_reduced(p.reduced, points, t, p.r, cfg)
    if est == "mc_full":
        if p.system is None or p.x0_of_xi is None:
            raise UsageError(
                f"preset {p.name!r} has no full system; mc_full does not "
                f"apply"
            )
        cfg = xc.sim_config(horizon=t)
        vals = np.empty(n)
        ses = np.empty(n)
        for j, xi in enumerate(points):
            mc = safety_mc(
                p.system,
                ZeroPolicy(p.system.control_dim),
                p.x0_of_xi(xi),
                BarrierSpec(phi=p.barrier_full),
                t,
                cfg,
            )
            vals[j] = mc.value
            ses[j] = mc.std_error
        return McGrid(points=points, times=np.full(n, t), estimates=vals,
                      std_errors=ses)
    if est == "riccati":
        raise UsageError("the riccati estimator applies to value tasks only")
    raise ConfigError("config needs an 'estimator' for this command")


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
    sol = _solve_oracle(xc)
    times = p.data_times
    if p.train_window is not None:
        lo, hi = p.train_window
        times = times[(times >= lo - 1e-9) & (times <= hi + 1e-9)]
    return fd_dataset(p, p.data_domain, p.data_step, times, sol)


def _trained_or_loaded_net(xc: ExperimentConfig) -> DenseNetwork:
    ckpt = xc.raw.get("pinn", {}).get("checkpoint")
    if ckpt is not None:
        if not os.path.exists(ckpt):
            raise ConfigError(f"pinn.checkpoint does not exist: {ckpt}")
        net, _ = load_checkpoint(ckpt)
        return net
    data = _pinn_dataset(xc)
    result = train(xc.preset.pde_problem(), data, xc.pinn_config())
    return result.net


# ---------------------------------------------------------------------------
# dataset generation


def make_dataset(xc: ExperimentConfig, out_path: str) -> str:
    """Evaluate the configured source on the dataset grid and write CSV.

    FD rows are ``xi1,...,xik,t,value``; MC rows append
    ``std_error,flagged`` where ``flagged`` marks standard errors above
    ``dataset.se_ceiling``.  A provenance comment precedes the header.
    """
    p = xc.preset
    ds = xc.raw.get("dataset", {})
    source = ds.get("source", "fd")
    domain = ds.get("domain", p.data_domain)
    step = float(ds.get("step", p.data_step))
    times = np.asarray(ds.get("times", p.data_times), dtype=np.float64)
    axes = [_axis(float(lo), float(hi), step) for lo, hi in domain]
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    cols = ",".join(f"xi{i + 1}" for i in range(p.k))

    if source == "fd":
        sol = _solve_oracle(xc)
        rows = []
        for t in times:
            vals = sol.interpolate(nodes, float(t))
            rows.append(np.column_stack(
                [nodes, np.full(nodes.shape[0], t), vals]
            ))
        body = np.vstack(rows)
        header = f"{cols},t,value"
        text = "# provenance: fd\n" + header + "\n" + "\n".join(
            ",".join(f"{v:.17g}" for v in row) for row in body
        ) + "\n"
        _write_text(out_path, text)
        return out_path

    if source != "mc":
        raise ConfigError(f"dataset.source must be 'fd' or 'mc', got "
                          f"{source!r}")
    ceiling = float(ds.get("se_ceiling", np.inf))
    mc_cfg = {"dt": ds.get("dt", 1e-3), "n_paths": ds.get("n_paths", 10000)}
    rows = []
    for t in times:
        t = float(t)
        if xc.task == "value":
            if abs(t - p.horizon) < 1e-12:
                vals = np.exp(
                    -p.terminal_weight * np.asarray(p.r(nodes), dtype=np.float64)
                )
                ses = np.zeros(nodes.shape[0])
            else:
                cfg = xc.sim_config(horizon=p.horizon - t, defaults=mc_cfg)
                grid = value_grid_reduced(
                    p.reduced, nodes, t, p.horizon, p.r, cfg,
                    terminal_weight=p.terminal_weight,
                )
                vals, ses = grid.estimates, grid.std_errors
        else:
            if t <= 1e-12:
                vals = (np.asarray(p.r(nodes), dtype=np.float64)
                        > 0).astype(np.float64)
                ses = np.zeros(nodes.shape[0])
            else:
                cfg = xc.sim_config(horizon=t, defaults=mc_cfg)
                grid = safety_grid_reduced(p.reduced, nodes, t, p.r, cfg)
                vals, ses = grid.estimates, grid.std_errors
        flagged = (ses > ceiling).astype(np.float64)
        rows.append(np.column_stack(
            [nodes, np.full(nodes.shape[0], t), vals, ses, flagged]
        ))
    body = np.vstack(rows)
    header = f"{cols},t,value,std_error,flagged"
    lines = []
    for row in body:
        parts = [f"{v:.17g}" for v in row[:-1]] + [f"{int(row[-1])}"]
        lines.append(",".join(parts))
    text = "# provenance: mc\n" + header + "\n" + "\n".join(lines) + "\n"
    _write_text(out_path, text)
    return out_path


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
    points: Optional[np.ndarray] = None
    time: float = 0.5
    dt: float = 1e-3

    def __post_init__(self):
        if not self.estimators:
            raise ConfigError("benchmark.estimators must be nonempty")
        for est in self.estimators:
            if est not in ("mc_full", "mc_reduced"):
                raise ConfigError(
                    f"benchmark estimator {est!r} not supported; use "
                    f"mc_full or mc_reduced"
                )
        if self.oracle in self.estimators:
            raise ConfigError(
                "benchmark.oracle must be distinct from the estimators "
                "under test"
            )
        if self.oracle not in ("fd", "riccati"):
            raise ConfigError("benchmark.oracle must be 'fd' or 'riccati'")
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
    points = np.atleast_2d(np.asarray(
        b.get("points", [[1.1, 1.1], [1.5, 1.5], [1.9, 1.9]]),
        dtype=np.float64,
    ))
    spec = BenchmarkSpec(
        estimators=list(b.get("estimators", ["mc_reduced"])),
        n_samples=[int(n) for n in b.get("n_samples", [1000])],
        oracle=b.get("oracle", "fd"),
        repetitions=int(b.get("repetitions", 10)),
        metric=b.get("metric", "percentage"),
        points=points,
        time=float(b.get("time", xc.preset.eval_time or 0.5)),
        dt=float(b.get("dt", 1e-3)),
    )
    p = xc.preset
    t = spec.time
    if spec.oracle == "riccati":
        if p.lq is None:
            raise UsageError(
                f"preset {p.name!r} has no linear-quadratic form; use the "
                f"fd oracle"
            )
        truth = np.asarray(riccati_value(p.lq, points, t), dtype=np.float64)
        truth = np.broadcast_to(np.atleast_1d(truth), (points.shape[0],))
    else:
        sol = _solve_oracle(xc)
        truth = sol.interpolate(points, t)

    cost = None
    if "mc_full" in spec.estimators:
        if p.system is None or p.x0_of_xi is None:
            raise UsageError(f"preset {p.name!r} has no full system for "
                             f"mc_full")
        cost = CostSpec(running_cost=p.cost_full,
                        terminal_weight=p.terminal_weight)

    lines = ["estimator,n_samples,rep,error_pct"]
    for est in spec.estimators:
        for n in spec.n_samples:
            for rep in range(spec.repetitions):
                cfg = SimConfig(dt=spec.dt, horizon=p.horizon - t,
                                seed=xc.seed + rep, n_paths=n)
                if est == "mc_reduced":
                    grid = value_grid_reduced(
                        p.reduced, points, t, p.horizon, p.r, cfg,
                        terminal_weight=p.terminal_weight,
                    )
                    phat = grid.estimates
                else:
                    phat = np.empty(points.shape[0])
                    for j, xi in enumerate(points):
                        mc = value_pathintegral(
                            p.system, p.x0_of_xi(xi), t, p.horizon, cost, cfg
                        )
                        phat[j] = np.exp(-mc.value)
                err = error_against(phat, truth, spec.metric)
                lines.append(f"{est},{n},{rep},{err:.17g}")
    _write_text(out_path, "\n".join(lines) + "\n")
    return out_path


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
    path = os.path.join(out_dir, "run.json")
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _out_dir(xc: ExperimentConfig) -> str:
    os.makedirs(xc.out, exist_ok=True)
    return xc.out


def cmd_simulate(xc: ExperimentConfig) -> list:
    out = _out_dir(xc)
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
    path = os.path.join(out, "trajectories.csv")
    _atomic_write(path, batch.to_csv)
    return [path, _emit_run_json(out, "simulate", xc, [path])]


def cmd_estimate_value(xc: ExperimentConfig) -> list:
    if xc.task != "value":
        raise ConfigError("estimate-value needs a value-task preset")
    out = _out_dir(xc)
    points, t = xc.eval_points()
    grid = _estimate_value_rows(xc, points, t)
    path = os.path.join(out, "value.csv")
    _atomic_write(path, grid.to_csv)
    return [path, _emit_run_json(out, "estimate-value", xc, [path])]


def cmd_estimate_safety(xc: ExperimentConfig) -> list:
    if xc.task != "safety":
        raise ConfigError("estimate-safety needs a safety-task preset")
    out = _out_dir(xc)
    points, t = xc.eval_points()
    grid = _estimate_safety_rows(xc, points, t)
    path = os.path.join(out, "safety.csv")
    _atomic_write(path, grid.to_csv)
    return [path, _emit_run_json(out, "estimate-safety", xc, [path])]


def cmd_solve_pde(xc: ExperimentConfig) -> list:
    out = _out_dir(xc)
    sol = _solve_oracle(xc)
    path = os.path.join(out, "pde_solution.csv")
    _atomic_write(path, sol.to_csv)
    return [path, _emit_run_json(out, "solve-pde", xc, [path])]


def cmd_train_pinn(xc: ExperimentConfig) -> list:
    out = _out_dir(xc)
    p = xc.preset
    data = _pinn_dataset(xc)
    problem = p.pde_problem()
    result = train(problem, data, xc.pinn_config())
    arts = []
    ckpt = os.path.join(out, "pinn_checkpoint.json")
    save_checkpoint(result.net, ckpt, seed=xc.seed, extra={"config": xc.raw})
    arts.append(ckpt)
    log = os.path.join(out, "pinn_loss_log.csv")
    _atomic_write(log, result.log_to_csv)
    arts.append(log)
    ev = xc.raw.get("eval", {})
    if "points" not in ev:
        # surface table only makes sense on a tensor grid
        _, t = xc.eval_points()
        domain = ev.get("domain", p.data_domain)
        step = float(ev.get("step", p.data_step))
        axes = [_axis(float(lo), float(hi), step) for lo, hi in domain]
        surface = predict_grid(result.net, axes, [t])
        surf = os.path.join(out, "pinn_surface.csv")
        _atomic_write(surf, surface.to_csv)
        arts.append(surf)
    return arts + [_emit_run_json(out, "train-pinn", xc, arts)]


def cmd_train_features(xc: ExperimentConfig) -> list:
    out = _out_dir(xc)
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
    arts = []
    enc_path = os.path.join(out, "encoder_checkpoint.json")
    dec_path = os.path.join(out, "decoder_checkpoint.json")
    result.net.save(enc_path, dec_path, seed=xc.seed)
    arts += [enc_path, dec_path]
    log = os.path.join(out, "feature_loss_log.csv")
    _atomic_write(log, result.log_to_csv)
    arts.append(log)
    return arts + [_emit_run_json(out, "train-features", xc, arts)]


def cmd_benchmark(xc: ExperimentConfig) -> list:
    out = _out_dir(xc)
    path = benchmark(xc, os.path.join(out, "benchmark.csv"))
    return [path, _emit_run_json(out, "benchmark", xc, [path])]


def cmd_make_dataset(xc: ExperimentConfig) -> list:
    out = _out_dir(xc)
    path = make_dataset(xc, os.path.join(out, "dataset.csv"))
    return [path, _emit_run_json(out, "make-dataset", xc, [path])]


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate-value": cmd_estimate_value,
    "estimate-safety": cmd_estimate_safety,
    "solve-pde": cmd_solve_pde,
    "train-pinn": cmd_train_pinn,
    "train-features": cmd_train_features,
    "benchmark": cmd_benchmark,
    "make-dataset": cmd_make_dataset,
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
    return COMMANDS[command](xc)
