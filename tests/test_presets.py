"""Pinned constants of the shipped presets."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import child_env
from featpde.errors import UsageError
from featpde.pde import riccati_value
from featpde.presets import (
    _block_coupling_matrix,
    feature_state_grid,
    get_preset,
    preset_names,
    thousand_dim_system,
    three_dim_system,
)
from featpde.reduction import diffusion_diagonal, generator_at
from featpde.sde import ControlPolicy, StochasticSystem, ZeroPolicy

ALL_NAMES = [
    "feature-ae-3d",
    "heat-oracle",
    "lq-scalar",
    "sys1000d-value",
    "sys3d-safety",
    "sys3d-value",
]


def test_preset_names_and_unknown():
    assert preset_names() == ALL_NAMES
    with pytest.raises(UsageError, match="unknown preset"):
        get_preset("sys4d")


def test_presets_build_fresh_instances():
    a = get_preset("lq-scalar")
    b = get_preset("lq-scalar")
    assert a is not b and a.reduced is not b.reduced


def test_three_dim_drift_sign_conventions():
    x = np.array([[1.0, 2.0, 3.0]])
    literal = three_dim_system(stable=False).drift(x)[0]
    stable = three_dim_system(stable=True).drift(x)[0]
    assert np.allclose(literal, [4.0, -1.0, 3.0])
    assert np.allclose(stable, [-4.0, 1.0, -3.0])


def test_sys3d_value_constants():
    p = get_preset("sys3d-value")
    assert p.task == "value" and p.horizon == 1.5 and p.k == 2
    assert np.isclose(p.r(np.array([[1.5, 1.5]]))[0], 2.25)
    assert np.isclose(
        p.cost_full(np.array([[0.75, 0.75, 1.5]]))[0], 2.25
    )
    # features of the preset's state embedding reproduce xi
    xi = np.array([1.3, 1.8])
    assert np.allclose(p.features.p(p.x0_of_xi(xi)[None])[0], xi)
    # frozen reference: cross-validated against the FD oracle and the
    # full-system path-integral estimate in the pde/montecarlo tests
    got = riccati_value(p.lq, np.array([[1.5, 1.5]]), 0.5)
    assert got == pytest.approx(0.17539071051318245, rel=1e-12)
    prob = p.pde_problem()
    assert prob.kind == "value"
    # terminal data is exp(-r)
    pts = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert np.allclose(prob.data(pts), np.exp(-p.r(pts)))


def test_sys3d_value_reduced_coefficients():
    p = get_preset("sys3d-value")
    s = np.array([0.5, -2.0, 4.0])
    assert np.allclose(p.reduced.alpha[0](s), 2.0)
    assert np.allclose(p.reduced.alpha[1](s), 1.0)
    assert np.allclose(p.reduced.beta[0](s), -s / 2.0)
    assert np.allclose(p.reduced.beta[1](s), -s)


def test_sys3d_safety_constants():
    p = get_preset("sys3d-safety")
    assert p.task == "safety" and p.horizon == 1.0
    assert np.isclose(p.r(np.array([[1.1, 1.1]]))[0], 2.9)
    assert np.isclose(
        p.barrier_full(np.array([[0.55, 0.55, 1.1]]))[0], 2.9
    )
    # literal (unstable) drift and positive-slope reduced drift
    assert np.allclose(
        p.system.drift(np.array([[1.0, 2.0, 3.0]]))[0], [4.0, -1.0, 3.0]
    )
    s = np.array([1.0, 2.0])
    assert np.allclose(p.reduced.beta[0](s), s / 2.0)
    prob = p.pde_problem()
    assert prob.kind == "safety" and prob.boundary == "reflect"
    # initial data is the safe-set indicator
    pts = np.array([[1.0, 1.0], [5.0, 1.0], [3.9, 3.9]])
    assert np.allclose(prob.data(pts), [1.0, 0.0, 1.0])


def test_thousand_dim_coupling_matrix_structure():
    sys = thousand_dim_system(stable=False)
    # read the matrix through drift on basis vectors
    e0 = np.zeros((1, 1000))
    e0[0, 0] = 1.0
    col0 = sys.drift(e0)[0]  # column 0 of A_bar
    assert col0[0] == pytest.approx(1.1)
    # column 0 receives +0.1 from rows with (i+2)%500 == 0 or (i+4)%500 == 0
    assert col0[498] == pytest.approx(0.1)
    assert col0[496] == pytest.approx(0.1)
    assert col0[494] == pytest.approx(-0.1)
    assert col0[492] == pytest.approx(-0.1)
    # no cross-block coupling
    assert np.allclose(col0[500:], 0.0)
    e500 = np.zeros((1, 1000))
    e500[0, 500] = 1.0
    col500 = sys.drift(e500)[0]
    assert col500[500] == pytest.approx(1.1)
    assert np.allclose(col500[:500], 0.0)


def _scipy_coupling_matrix():
    """The 1000-d coupling matrix as scipy builds it: each row's COO
    entries in the order of the offsets, ``block_diag``, then ``tocsr``."""
    from scipy import sparse

    half = 500
    offsets = np.array([0, 2, 4, 6, 8])
    rows = np.repeat(np.arange(half), offsets.size)
    cols = (rows + np.tile(offsets, half)) % half
    vals = np.tile([1.1, 0.1, 0.1, -0.1, -0.1], half)
    a = sparse.coo_matrix((vals, (rows, cols)), shape=(half, half))
    return sparse.block_diag([a, a]).tocsr()


def test_the_coupling_arrays_are_scipys_csr_arrays():
    ref = _scipy_coupling_matrix()
    ours = _block_coupling_matrix()
    assert [a.dtype for a in ours] == [ref.indptr.dtype, ref.indices.dtype,
                                       ref.data.dtype]
    assert [a.tobytes() for a in ours] == [
        ref.indptr.tobytes(), ref.indices.tobytes(), ref.data.tobytes()]


def _drift_inputs():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((200, 1000))
    zeros = np.zeros((3, 1000))
    zeros[0, ::2] = -0.0
    zeros[1] = -0.0
    zeros[2, ::3] = rng.standard_normal(334)
    return {"C": x, "F": np.asfortranarray(x), "one-row": x[:1],
            "vector": x[0], "signed-zeros": zeros}


@pytest.mark.parametrize("stable", [False, True])
@pytest.mark.parametrize("name", list(_drift_inputs()))
def test_the_drift_has_the_bytes_and_layout_of_scipys_product(name, stable):
    # guard: the march's row sums and F layout rest on these
    x = _drift_inputs()[name]
    abar = _scipy_coupling_matrix()
    if stable:
        abar = -abar
    got = thousand_dim_system(stable=stable).drift(x)
    want = (abar @ np.atleast_2d(x).T).T
    assert (got.shape, got.strides) == (want.shape, want.strides)
    assert got.tobytes() == want.tobytes()


def test_the_drift_refuses_states_of_another_length():
    # the compiled kernel checks no shape and would read past the state
    with pytest.raises(UsageError,
                       match=r"length 1000, got shape \(2, 999\)"):
        thousand_dim_system().drift(np.zeros((2, 999)))


def _child(code, **env):
    return subprocess.run([sys.executable, "-c", code], env=child_env(**env),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("first", ["featpde", "scipy"])
def test_the_csr_kernel_is_the_module_scipy_sparse_uses(first):
    # each order in a fresh interpreter, with its own sys.modules
    steps = ["from featpde.presets import thousand_dim_system\n"
             "system = thousand_dim_system()",
             "import scipy.sparse"]
    if first == "scipy":
        steps.reverse()
    res = _child("\n".join(["import inspect, sys", "import numpy as np",
                            *steps, (
        "kernel = sys.modules['scipy.sparse._sparsetools']\n"
        "matvecs = inspect.getclosurevars(system.drift)"
        ".nonlocals['matvecs']\n"
        "print(matvecs is kernel.csr_matvecs, "
        "scipy.sparse._compressed._sparsetools is kernel)\n"
        "m = scipy.sparse.csr_matrix(2.0 * np.eye(3))\n"
        "print(np.array_equal(m @ np.ones((3, 2)), np.full((3, 2), 2.0)))")]))
    assert res.stdout.split() == ["True"] * 3, res.stderr


def test_a_scipy_without_its_csr_kernel_names_the_path(tmp_path):
    # LAPACK's module is loaded from the real scipy first; the stub then
    # shadows it for the 1000-d system's kernel
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    res = _child("import sys\nfrom featpde import presets\n"
                 f"sys.path.insert(0, {str(tmp_path)!r})\n"
                 "presets.thousand_dim_system()")
    assert res.returncode == 1
    assert "ImportError: no sparse-matrix extension module " + os.path.join(
        str(tmp_path), "scipy", "sparse", "_sparsetools") in res.stderr, \
        res.stderr


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_1000d_identity_diffusion_is_a_read_only_view():
    # np.eye(1000) traced 8.07 MB here; the view of one (2n - 1) vector
    # leaves 0.18 MB, which is the coupling matrix's CSR arrays
    system, peak = _traced_peak(thousand_dim_system)
    d = get_preset("sys1000d-value").system.diffusion_const
    assert np.array_equal(d, np.eye(1000))
    assert not d.flags.writeable
    assert np.array_equal(system.diffusion_const, d)
    assert peak < 0.5e6


def test_building_sys1000d_raises_the_resident_set_by_under_3_mb():
    # tracemalloc does not see the pages an n x n identity makes resident
    # (numpy asks for huge pages on arrays of 4 MiB or more).  In a fresh
    # interpreter, holding the preset raised VmRSS by 7.88 MB with
    # np.eye(1000) and by 1.16 MB with the view, the same in every run.
    # ru_maxrss would hide part of the rise under the import's own peak.
    res = _child("from featpde.presets import get_preset\n"
                 "def rss():\n"
                 "    with open('/proc/self/status') as fh:\n"
                 "        return next(int(line.split()[1]) for line in fh\n"
                 "                    if line.startswith('VmRSS:'))\n"
                 "before = rss()\n"
                 "preset = get_preset('sys1000d-value')\n"
                 "print((rss() - before) / 1024)")
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) < 3.0


def test_the_identity_view_gives_the_bytes_of_a_dense_identity():
    view = get_preset("sys1000d-value").system
    dense = StochasticSystem(1000, 1000, view.drift,
                             diffusion_const=np.eye(1000))
    x = np.random.default_rng(36).standard_normal((100, 1000))
    # 0.010 MB traced with either matrix; the 16-state check this skips
    # traced 24.0 MB on the dense one
    got, peak = _traced_peak(lambda: diffusion_diagonal(view, x))
    assert got.tobytes() == diffusion_diagonal(dense, x).tobytes()
    assert peak < 1e6
    fm = get_preset("sys1000d-value").features
    for policy in (ZeroPolicy(1000), ControlPolicy(lambda x, t: -0.1 * x)):
        for a, b in zip(generator_at(view, policy, fm, x),
                        generator_at(dense, policy, fm, x)):
            assert a.tobytes() == b.tobytes()


def test_sys1000d_value_consistency():
    p = get_preset("sys1000d-value")
    xi = np.array([1.5, 1.5])
    x0 = p.x0_of_xi(xi)
    assert x0.shape == (1000,)
    assert np.allclose(p.features.p(x0[None])[0], xi)
    # running cost on the embedded state equals r on features
    assert np.isclose(p.cost_full(x0[None])[0], p.r(xi[None])[0])
    assert np.isclose(p.r(xi[None])[0], 4.5 / 500.0)
    s = np.array([2.0])
    assert np.allclose(p.reduced.alpha[0](s), 500.0)
    assert np.allclose(p.reduced.beta[0](s), -1.1 * s / 500.0)


def _has(name, *fields):
    p = get_preset(name)
    return all(getattr(p, f) is not None for f in fields)


@pytest.mark.parametrize("name", [
    n for n in ALL_NAMES if _has(n, "system", "features", "reduced",
                                 "x0_of_xi")])
def test_reduced_sde_matches_full_system(name):
    # at an embedded state the generator coefficients of each feature are
    # the reduced SDE's, and the full cost or barrier is r; every embedded
    # state goes through one generator call
    p = get_preset(name)
    full_r = p.cost_full if p.task == "value" else p.barrier_full
    nominal = ZeroPolicy(p.system.control_dim)
    xi = np.array([[1.5, 1.5], [1.1, 1.9], [-0.7, 2.3]])
    x0 = np.stack([p.x0_of_xi(row) for row in xi])
    a, ap = generator_at(p.system, nominal, p.features, x0)
    for i in range(p.k):
        s = xi[:, i]
        assert a[:, i] == pytest.approx(p.reduced.alpha[i](s), rel=1e-12)
        assert ap[:, i] / a[:, i] == pytest.approx(p.reduced.beta[i](s),
                                                   rel=1e-12)
    assert full_r(x0) == pytest.approx(p.r(xi), rel=1e-12)


@pytest.mark.parametrize("name", [n for n in ALL_NAMES
                                  if _has(n, "lq", "reduced")])
def test_lq_form_matches_reduced_sde(name):
    # d xi = M xi dt + Sigma^(1/2) dB with cost xi^T R xi and terminal
    # weight R_T is the reduced SDE d xi_i = alpha_i beta_i dt +
    # alpha_i^(1/2) dB_i with cost r
    p = get_preset(name)
    xi = np.linspace(-1.5, 2.0, 3 * p.k).reshape(3, p.k)
    alpha = np.column_stack([p.reduced.alpha[i](xi[:, i])
                             for i in range(p.k)])
    beta = np.column_stack([p.reduced.beta[i](xi[:, i])
                            for i in range(p.k)])
    np.testing.assert_allclose(xi @ p.lq.M.T, alpha * beta, rtol=1e-12)
    np.testing.assert_allclose(np.broadcast_to(p.lq.Sigma, (3, p.k, p.k)),
                               alpha[:, :, None] * np.eye(p.k), rtol=1e-12)
    np.testing.assert_allclose(np.einsum("ni,ij,nj->n", xi, p.lq.R, xi),
                               p.r(xi), rtol=1e-12)
    np.testing.assert_allclose(p.lq.R_T, p.terminal_weight * p.lq.R,
                               rtol=1e-12)
    assert p.lq.horizon == p.horizon


def test_lq_scalar_reference_value():
    p = get_preset("lq-scalar")
    got = riccati_value(p.lq, np.array([[0.0]]), 0.0)
    assert got == pytest.approx(0.7436954806413412, rel=1e-12)


def test_heat_oracle_analytic_form():
    p = get_preset("heat-oracle")
    prob = p.pde_problem()
    assert prob is p.problem_override
    xi = np.array([[np.pi / 2.0]])
    # terminal data sin(xi); analytic solution decays by exp(-(T-t)/2)
    assert prob.data(xi)[0] == pytest.approx(1.0)
    assert p.analytic(xi, p.horizon)[0] == pytest.approx(1.0)
    assert p.analytic(xi, 0.0)[0] == pytest.approx(np.exp(-0.5))
    assert p.analytic(np.array([[0.0]]), 0.3)[0] == pytest.approx(0.0)
    # nominal oracle step resolves [0, pi] into whole cells
    assert (np.pi / p.oracle_dxi) == pytest.approx(314.0)


def test_feature_ae_state_grid():
    p = get_preset("feature-ae-3d")
    states = feature_state_grid(p)
    assert states.shape == (101**3, 3)
    assert np.allclose(states[0], [0.0, 0.0, 0.0])
    assert np.allclose(states[-1], [1.0, 1.0, 1.0])
    with pytest.raises(UsageError, match="state grid"):
        feature_state_grid(get_preset("lq-scalar"))
