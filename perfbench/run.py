"""featpde benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports featpde from ``src/`` there
and writes only under ``.bench_runs/``.  Every featpde process is a fresh
child with single-threaded BLAS:

* ``--trace 0`` runs the workload's commands through
  ``featpde.harness.run`` in one child, for the whole number of passes
  that best fills S seconds (``workloads.passes``), and reports each
  command's median wall time; ``wall_s`` is their sum.  Around that child
  it times ``SETUP_PROBES`` fresh set-ups (import featpde and resolve the
  workload's configs) and reports their median as ``setup_s``.
* ``--trace 1`` runs one untraced and one traced pass in two children and
  reports the per-layer metrics of the traced pass plus the tracing
  overhead (traced minus untraced wall time).

Every command's outputs are checked (see checks.py).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the exit code is 1 when a check failed and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
# A run is stopped with exit 2 after DEADLINE_MARGIN_S plus DEADLINE_FACTOR
# times its expected length: the larger of --seconds and the nominal time
# of the passes it makes.
DEADLINE_MARGIN_S = 30.0
DEADLINE_FACTOR = 3.0
# units of the printed figures that BENCHMARK.json does not list
INFO_UNITS = {"value_err_pct": "%", "failed_frac": "ratio"}
# the command whose output carries the workload's value_err_pct
ERR_SOURCE = {"mc-estimate": "value_mc_reduced", "fd-oracle": "make_dataset",
              "train-nets": "train_pinn"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit(root: str):
    """HEAD of the checkout, or None when it is not a git repository.  Git
    does not look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Bench:
    def __init__(self, root, workload, seed, run_dir, expected_s):
        self.root = root
        self.deadline = (time.monotonic() + DEADLINE_MARGIN_S
                         + DEADLINE_FACTOR * expected_s)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        PYTHONPATH=os.path.join(root, "src"))
        self.run_dir = run_dir
        cmds = workloads.plan(workload, seed)
        for c in cmds:
            c["config_path"] = os.path.join(run_dir, f"{c['label']}.yaml")
            with open(c["config_path"], "w") as fh:
                json.dump(c["config"], fh, indent=1)  # JSON is valid YAML
        self.plan_path = os.path.join(run_dir, "plan.json")
        with open(self.plan_path, "w") as fh:
            json.dump({"root": root, "seed": seed, "run_dir": run_dir,
                       "labels": workloads.LABELS, "commands": cmds},
                      fh, indent=1)

    def _argv(self, *extra):
        return [sys.executable, os.path.join(HERE, "child.py"),
                self.plan_path, *extra]

    def _left(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def setup_seconds(self) -> float:
        """Wall time from spawning a fresh child until it has resolved the
        workload's configs."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(self._argv("--setup-only"), cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                text=True)
        try:
            # the child writes the whole line at once, after its set-up
            if not select.select([proc.stdout], [], [], self._left())[0]:
                raise BenchError("set-up child ran out of time")
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=self._left())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up child failed (exit {code})")
        return dt

    def workload(self, tag, passes=1, trace=False) -> dict:
        out = os.path.join(self.run_dir, f"{tag}.json")
        argv = self._argv("--out", out, "--passes", str(passes))
        if trace:
            argv.append("--trace")
        try:
            code = subprocess.run(argv, cwd=self.root, env=self.env,
                                  stdout=sys.stderr,
                                  timeout=self._left()).returncode
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} child ran out of time") from None
        if code != 0 or not os.path.exists(out):
            raise BenchError(f"{tag} child failed (exit {code})")
        with open(out) as fh:
            return json.load(fh)


def _command_medians(res) -> dict:
    return {f"{label}_s": statistics.median(s)
            for label, s in res["samples"].items() if s}


def measure(bench: Bench, workload: str, seconds: float, trace: bool):
    """(metrics, printed extras, children results) of one run."""
    if not trace:
        # one warm-up set-up, then half the probes before and half after
        # the workload, so that they sample the machine at two moments
        bench.setup_seconds()
        half = SETUP_PROBES // 2
        setup = [bench.setup_seconds() for _ in range(half)]
        res = bench.workload("timed", workloads.passes(workload, seconds))
        setup += [bench.setup_seconds() for _ in range(SETUP_PROBES - half)]
        cmd = _command_medians(res)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(cmd.values()),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        info = dict(cmd)
        info["samples_s"] = res["samples"]
        info["setup_samples_s"] = setup
        return metrics, info, [res]
    plain = bench.workload("untraced")
    traced = bench.workload("traced", trace=True)
    metrics = dict(traced["layers"])
    base = sum(sum(s) for s in plain["samples"].values())
    extra = sum(sum(s) for s in traced["samples"].values()) - base
    metrics["bench.trace_overhead_s"] = extra
    metrics["bench.trace_overhead_pct"] = 100.0 * extra / base
    return metrics, {}, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be a nonnegative 63-bit integer")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "featpde", "harness.py")):
        print(f"error: {root} holds no featpde source tree (src/featpde); "
              f"run from the root of a featpde checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = os.path.join(root, ".bench_runs")
    run_dir = os.path.join(runs, f"{tag}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    nominal = workloads.NOMINAL_PASS_S[args.workload]
    expected = nominal * (2 if args.trace
                          else workloads.passes(args.workload, args.seconds))
    try:
        bench = Bench(root, args.workload, args.seed, run_dir,
                      max(args.seconds, expected))
        metrics, info, results = measure(bench, args.workload, args.seconds,
                                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        spans = os.path.join(run_dir, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(runs, f"{tag}-spans.json"))
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    facts = results[-1]["facts"]
    err = facts.get(ERR_SOURCE[args.workload], {}).get("value_err_pct", 0.0)
    if args.trace:
        metrics["harness.value_err_pct"] = err
    else:
        info["value_err_pct"] = err
    info["failed_frac"] = failed / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(results[-1]["environment"],
                            git_commit=_git_commit(root), seed=args.seed),
        "metrics": metrics,
        "info": info,
        "facts": facts,
        "problems": problems,
    }
    with open(os.path.join(runs, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, value in {**metrics, **info}.items():
        if isinstance(value, float):
            unit = units.get(name, INFO_UNITS.get(name, "s"))
            print(f"{name:36s} {value:12.6g} {unit}")
    print(f"record: {os.path.relpath(os.path.join(runs, tag + '.json'))}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
