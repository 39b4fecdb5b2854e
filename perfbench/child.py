"""One workload in a fresh process: run its commands, check, report.

``run.py`` starts this script with single-threaded BLAS and the checkout's
``src`` on ``PYTHONPATH``; it is not meant to be run by hand.

    child.py PLAN.json --setup-only
        import featpde, resolve every config of the plan, print "ready".
    child.py PLAN.json --out RESULT.json [--passes N] [--trace]
        run every command of the plan, in order, N times; write per-command
        wall times, checks, hashes and, with --trace, the spans and
        per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def _import_featpde(root: str):
    import featpde

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(featpde.__file__).startswith(src + os.sep):
        raise SystemExit(f"featpde was imported from {featpde.__file__}, "
                         f"not from {src}")
    from featpde import harness

    return harness


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    harness = _import_featpde(plan["root"])

    if args.setup_only:
        for cmd in plan["commands"]:
            harness.ExperimentConfig.resolve(
                harness.load_config(cmd["config_path"]))
        print("ready", flush=True)
        return 0

    import checks

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    cmds = plan["commands"]
    samples = {c["label"]: [] for c in cmds}
    hashes = {}
    problems = []
    attempted = failed = 0
    for cmd in [c for _ in range(args.passes) for c in cmds]:
        label = cmd["label"]
        attempted += 1

        def call():
            return harness.run(cmd["config_path"], cmd["command"],
                               out=os.path.join(plan["run_dir"], label),
                               seed=plan["seed"])

        t0 = time.perf_counter()
        try:
            tracer.run(label, call) if tracer else call()
        except Exception:
            traceback.print_exc()
            failed += 1
            problems.append(f"{label}: raised {sys.exc_info()[1]!r}")
            break
        samples[label].append(time.perf_counter() - t0)
        got = checks.digests(cmd, os.path.join(plan["run_dir"], label))
        if hashes.setdefault(label, got) != got:
            failed += 1
            problems.append(f"{label}: a repeated run wrote different CSV "
                            f"bytes")
            break
    # the peak is taken before the checks parse the artifacts
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    facts = {}
    for cmd in cmds:
        label = cmd["label"]
        if label in hashes:
            bad, facts[label] = checks.check(
                cmd, os.path.join(plan["run_dir"], label))
            facts[label]["sha256"] = hashes[label]
            failed += bool(bad)
            problems += bad
    result = {
        "samples": samples,
        "facts": facts,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "environment": _environment(),
    }
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, plan["labels"])
        with open(os.path.join(plan["run_dir"], "spans.json"), "w") as fh:
            json.dump(tracer.span_records(), fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
