"""Self-test of the benchmark: exact counts repeat, and the seed reaches
the program.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it makes two traced
passes with the same seed and requires identical work counts and CSV
hashes.  For the workloads whose outputs depend on the seed (Monte Carlo
and training) it makes one more pass with the next seed and requires its
checks to pass and its CSV hashes to differ.  Exits 1 on any violation.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import workloads

EXACT = ("sde.noise_numbers", "pde.node_steps", "pde.interpolate_calls",
         "montecarlo.estimator_calls", "tape.grad_calls")
SEEDED = ("mc-estimate", "train-nets")
SEED = 1


def _pass(root, workload, seed, trace):
    run_dir = os.path.join(root, ".bench_runs",
                           f"selftest-{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        bench = run.Bench(root, workload, seed, run_dir,
                          workloads.NOMINAL_PASS_S[workload])
        return bench.workload("traced" if trace else "plain", trace=trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _hashes(res):
    return {label: f["sha256"] for label, f in res["facts"].items()}


def main() -> int:
    root = os.getcwd()
    errors = []
    for w in workloads.WORKLOADS:
        a = _pass(root, w, SEED, trace=True)
        b = _pass(root, w, SEED, trace=True)
        for r in (a, b):
            errors += [f"{w}: {p}" for p in r["problems"]]
        for name in EXACT:
            va, vb = a["layers"][name], b["layers"][name]
            print(f"{w:12s} {name:28s} {va:.0f} {vb:.0f}")
            if va != vb:
                errors.append(f"{w}: {name} differs across equal seeds")
        if _hashes(a) != _hashes(b):
            errors.append(f"{w}: CSV hashes differ across equal seeds")
        if w in SEEDED:
            c = _pass(root, w, SEED + 1, trace=False)
            errors += [f"{w} (seed {SEED + 1}): {p}"
                       for p in c["problems"]]
            for label, h in _hashes(c).items():
                same = [n for n in h if h[n] == _hashes(a)[label][n]]
                print(f"{w:12s} {label:28s} other seed changes "
                      f"{len(h) - len(same)}/{len(h)} CSVs")
                if same:
                    errors.append(f"{w}: {label} {same} unchanged by the seed")
    for e in errors:
        print(f"SELFTEST FAILED: {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
