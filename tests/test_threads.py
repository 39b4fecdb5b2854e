"""Training gives the same bytes at 1 and 2 BLAS threads.

Each check starts one child process per ``OPENBLAS_NUM_THREADS`` value,
because OpenBLAS reads the variable once, when it loads.  The guarantee is
checked at 1 and 2 threads with the OpenBLAS that numpy bundles (0.3.31);
another BLAS, or more threads, may split its products differently.
"""

import json
import os
import subprocess
import sys

from conftest import child_env

# a PINN at the sys3d-value preset's shapes (600 collocation points, three
# hidden layers of 32) and an autoencoder at feature-ae-3d's (batch 1000,
# 6000 penalty probes, hidden (100, 10)), kept short; each trains with a
# helper thread that calls BLAS alongside the calling thread.  The second
# autoencoder samples its batches from the whole state grid, whose rows are
# formed from their indices
_TRAIN = """
from featpde.harness import run
run({"preset": "sys3d-value",
     "fd": {"dxi": 0.25, "dt": 0.01, "save_every": 10},
     "pinn": {"epochs": 200, "log_every": 20}}, "train-pinn", out="pinn")
run({"preset": "feature-ae-3d",
     "ae": {"epochs": 1, "iterations": 10, "n_states": 2000}},
    "train-features", out="ae")
run({"preset": "feature-ae-3d", "ae": {"epochs": 1, "iterations": 10}},
    "train-features", out="ae_grid")
"""

# x.T @ g through neural._batch_sum on every (rows, m, n) below; prints the
# sha256 of each result
_SWEEP = """
import hashlib, json, sys
import numpy as np
from featpde.neural import _batch_sum
out = {}
for rows, m, n in json.loads(sys.argv[1]):
    rng = np.random.default_rng(rows * 10007 + m * 101 + n)
    x, g = rng.normal(size=(rows, m)), rng.normal(size=(rows, n))
    out[f"{rows}x{m}x{n}"] = hashlib.sha256(
        _batch_sum(x, g, np.zeros((m, n))).tobytes()).hexdigest()
print(json.dumps(out))
"""

# the row-blocked first layer against the whole-array reference at the
# feature-ae-3d penalty's shapes (6000 probes, hidden (100, 10), m = 3, J/L
# cotangents), in five blocks; prints the sha256s of both sides' outputs
_FIRST_LAYER = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from gradient_cases import first_layer_outputs
sides = first_layer_outputs((3, 100, 10, 2), 3, 6000, 7, "bundle", False)
print(json.dumps([[b and hashlib.sha256(b).hexdigest() for b in side]
                  for side in sides]))
"""

# (m, n) of every batch sum the preset networks run: PINN (3, 32, 32, 32, 1)
# with its rank-one first layer (32 x 3*32 for J, 32 x 2*32 for the two
# weighted inputs of L), encoder (3, 100, 10, 2) with (100 x 3*10), decoder
# (2, 10, 100, 1); then square layers up to 128
_WIDTHS = [(3, 32), (32, 32), (32, 96), (32, 64), (32, 1), (3, 100),
           (100, 10), (100, 30), (10, 2), (2, 10), (10, 100), (100, 1),
           (64, 64), (100, 100), (128, 128)]
# batch rows: PINN data and collocation, autoencoder batch and probes, the
# channel-major ((d_in + 1) B) stacks of both, 2400 and 24000, and 3600 and
# 36000 rows besides
_ROWS = [200, 600, 726, 1000, 2400, 3600, 6000, 24000, 36000]
_SHAPES = [(rows, m, n) for m, n in _WIDTHS for rows in _ROWS
           if rows * m * n <= 4e7]


def _child(code, args, cwd, threads):
    n = str(threads)
    env = child_env(OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                    MKL_NUM_THREADS=n)
    res = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _tree_bytes(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    trees = []
    for threads in (1, 2):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        _child(_TRAIN, [], str(cwd), threads)
        trees.append(_tree_bytes(str(cwd)))
    one, two = trees
    assert sorted(one) == sorted(two)
    assert {"pinn/pinn_checkpoint.json", "pinn/pinn_loss_log.csv",
            "ae/encoder_checkpoint.json",
            "ae/feature_loss_log.csv", "ae_grid/encoder_checkpoint.json",
            "ae_grid/feature_loss_log.csv"} <= set(one)
    differ = sorted(name for name in one if one[name] != two[name])
    assert differ == []


def test_batch_sum_is_bitwise_at_one_and_two_threads(tmp_path):
    args = [json.dumps(_SHAPES)]
    one, two = (json.loads(_child(_SWEEP, args, str(tmp_path), threads))
                for threads in (1, 2))
    assert len(one) == len(_SHAPES)
    assert [k for k in one if one[k] != two[k]] == []


def test_blocked_first_layer_is_bitwise_at_one_and_two_threads(tmp_path):
    tests = os.path.dirname(os.path.abspath(__file__))
    runs = [json.loads(_child(_FIRST_LAYER, [tests], str(tmp_path), threads))
            for threads in (1, 2)]
    for blocked, whole in runs:
        assert blocked == whole
    assert runs[0] == runs[1]
