"""Spans around featpde's public functions, installed from outside.

``Tracer.install`` replaces each traced function at the name its callers
look up (a module global or a class attribute) with a wrapper that records
a span: name, start, end, parent span and run id.  Spans are recorded only
inside a run span opened by the benchmark around ``harness.run``, are kept
in memory, and are summarised into per-layer metrics (``layer_metrics``)
and written out by the child when the workload ends.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

# span list fields
NAME, START, END, PARENT, RUN, WORK = range(6)

LAYERS = ("harness", "presets", "reduction", "sde", "montecarlo", "pde",
          "neural", "tape", "pinn", "featureid")


def _arg(args, kwargs, cls):
    """The first argument of a call that is an instance of ``cls``."""
    return next(a for a in (*args, *kwargs.values()) if isinstance(a, cls))


def _sim_work(args, kwargs, out):
    """Path-steps of a Monte Carlo estimator: its SimConfig's n_paths * steps."""
    from featpde.sde import SimConfig

    cfg = _arg(args, kwargs, SimConfig)
    return cfg.n_paths * cfg.steps


def _epochs(args, kwargs, out):
    from featpde.pinn import PinnConfig

    return _arg(args, kwargs, PinnConfig).epochs


def _iterations(args, kwargs, out):
    from featpde.featureid import AeTrainConfig

    cfg = _arg(args, kwargs, AeTrainConfig)
    return cfg.epochs * cfg.iterations


def _fd_work(args, kwargs, out):
    return int(np.prod(out.values.shape[1:])) * int(out.metadata["n_steps"])


def _csv_bytes(args, kwargs, out):
    return os.path.getsize(args[1])


class Tracer:
    """In-memory span recorder; ``spans`` rows are indexed by the field
    constants above."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = -1

    def _open(self, name):
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.run_id, 0])
        self.stack.append(i)
        return i

    def _close(self, i):
        self.spans[i][END] = time.perf_counter()
        self.stack.pop()

    def run(self, label, fn):
        """Call ``fn()`` inside a new run span ``harness.run.<label>``."""
        self.run_id += 1
        i = self._open(f"harness.run.{label}")
        try:
            return fn()
        finally:
            self._close(i)

    def wrap(self, owner, attr, name, work=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            i = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if work is not None:
                tracer.spans[i][WORK] = work(args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def install(self):
        """Wrap every traced binding; each call site looks one of them up."""
        from featpde import (featureid, harness, montecarlo, pde, pinn,
                             presets, sde)

        w = self.wrap
        w(harness, "get_preset", "presets.get_preset")
        for mod in (presets, harness):
            w(mod, "build_reduced_sde", "reduction.build_reduced_sde")
        w(sde, "step_noise", "sde.step_noise",
          lambda a, k, out: out.size)
        for mod, attr in ((montecarlo, "value_pathintegral_reduced"),
                          (montecarlo, "safety_mc_reduced"),
                          (harness, "value_pathintegral"),
                          (harness, "safety_mc")):
            w(mod, attr, "montecarlo.estimator", _sim_work)
        w(montecarlo.McGrid, "to_csv", "montecarlo.to_csv")
        w(harness, "solve_fd", "pde.solve_fd", _fd_work)
        w(pde.FdSolution, "interpolate", "pde.interpolate")
        w(pde.FdSolution, "to_csv", "pde.to_csv", _csv_bytes)
        for mod in (harness, pinn, featureid):
            w(mod, "forward", "neural.forward")
        for mod in (pinn, featureid):
            w(mod, "derivatives_batch", "neural.derivatives_batch")
            w(mod, "adam_step", "neural.adam_step")
            w(mod, "grad", f"tape.grad.{mod.__name__.rsplit('.', 1)[1]}")
        w(harness, "train", "pinn.train", _epochs)
        w(pinn.PredictionGrid, "to_csv", "pinn.to_csv")
        w(harness, "train_autoencoder", "featureid.train_autoencoder",
          _iterations)
        w(featureid, "build_preimage", "featureid.build_preimage")

    def span_records(self):
        return [dict(zip(("name", "start", "end", "parent", "run", "work"), s))
                for s in self.spans]


def layer_metrics(spans, labels) -> dict:
    """Per-layer counts, busy and self times from a list of span rows;
    ``labels`` names every command whose run time is reported."""
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    self_t = dur - child
    by = {}
    for s, d, st in zip(spans, dur, self_t):
        e = by.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self": 0.0,
                                    "work": 0, "durs": []})
        e["calls"] += 1
        e["s"] += d
        e["self"] += st
        e["work"] += s[WORK]
        e["durs"].append(d)

    def get(name, key="s"):
        return by.get(name, {}).get(key, 0)

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    def pct(name, q):
        durs = by.get(name, {}).get("durs")
        return float(np.percentile(durs, q)) * 1e3 if durs else 0.0

    runs = [f"harness.run.{label}" for label in labels]
    m = {
        "harness.run_s": sum(get(r) for r in runs),
        "harness.self_s": sum(get(r, "self") for r in runs),
        "presets.get_preset_s": get("presets.get_preset"),
        "reduction.build_reduced_sde_s": get("reduction.build_reduced_sde"),
        "sde.step_noise_calls": get("sde.step_noise", "calls"),
        "sde.step_noise_s": get("sde.step_noise"),
        "sde.noise_numbers": get("sde.step_noise", "work"),
        "montecarlo.estimator_calls": get("montecarlo.estimator", "calls"),
        "montecarlo.estimator_s": get("montecarlo.estimator"),
        "montecarlo.self_s": get("montecarlo.estimator", "self"),
        "montecarlo.path_steps_per_s": rate(
            get("montecarlo.estimator", "work"), get("montecarlo.estimator")),
        "pde.solve_fd_calls": get("pde.solve_fd", "calls"),
        "pde.solve_fd_s": get("pde.solve_fd"),
        "pde.node_steps": get("pde.solve_fd", "work"),
        "pde.node_steps_per_s": rate(get("pde.solve_fd", "work"),
                                     get("pde.solve_fd")),
        "pde.interpolate_calls": get("pde.interpolate", "calls"),
        "pde.interpolate_s": get("pde.interpolate"),
        "pde.csv_write_s": get("pde.to_csv"),
        "pde.csv_bytes": get("pde.to_csv", "work"),
    }
    for fn in ("derivatives_batch", "forward", "adam_step"):
        m[f"neural.{fn}_calls"] = get(f"neural.{fn}", "calls")
        m[f"neural.{fn}_s"] = get(f"neural.{fn}")
    m["tape.grad_calls"] = sum(get(f"tape.grad.{p}", "calls")
                               for p in ("pinn", "featureid"))
    m["tape.grad_s"] = sum(get(f"tape.grad.{p}") for p in ("pinn", "featureid"))
    for p in ("pinn", "featureid"):
        m[f"tape.{p}_grad_p50_ms"] = pct(f"tape.grad.{p}", 50)
        m[f"tape.{p}_grad_p99_ms"] = pct(f"tape.grad.{p}", 99)
    m["pinn.train_s"] = get("pinn.train")
    m["pinn.epoch_ms"] = 1e3 * rate(get("pinn.train"),
                                    get("pinn.train", "work"))
    m["featureid.train_autoencoder_s"] = get("featureid.train_autoencoder")
    m["featureid.iteration_ms"] = 1e3 * rate(
        get("featureid.train_autoencoder"),
        get("featureid.train_autoencoder", "work"))
    m["featureid.build_preimage_s"] = get("featureid.build_preimage")
    total = m["harness.run_s"]
    for layer in LAYERS:
        own = sum(e["self"] for n, e in by.items()
                  if n.split(".", 1)[0] == layer)
        m[f"{layer}.self_share_pct"] = 100.0 * rate(own, total)
    for label, r in zip(labels, runs):
        m[f"harness.run_s.{label}"] = get(r)
    return {k: float(v) for k, v in m.items()}
