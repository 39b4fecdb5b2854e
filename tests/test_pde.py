"""Finite-difference solver, Riccati oracle, and PDE assembly tests.

The quantitative anchors are closed forms: the Brownian quadratic-cost
expectation E[exp(-int_0^1 B_s^2 ds)] = cosh(sqrt 2)^(-1/2), the stationary
scalar Riccati fixed point P = 1/2, and the decaying sine solution of the
heat equation.  The 2-d solves are then cross-checked Riccati-vs-FD.
"""

import hashlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LateHelper, child_env
from gradient_cases import flat_explicit, residual
from featpde import pde
from featpde.errors import (
    DomainError,
    NumericalError,
    RiccatiBlowupError,
    UsageError,
)
from featpde.pde import (
    FdSolution,
    LqSpec,
    PdeProblem,
    assemble_safety_pde,
    assemble_value_pde,
    riccati_solution,
    riccati_value,
    solve_fd,
)
from featpde.presets import get_preset
from featpde.reduction import build_reduced_sde


def quad_cost(xi):
    xi = np.atleast_2d(xi)
    return 0.5 * (xi[:, 0] ** 2 + xi[:, 1] ** 2)


def min_barrier(xi):
    xi = np.atleast_2d(xi)
    return np.minimum(-xi[:, 0], -xi[:, 1]) + 4.0


def stable_reduced():
    return build_reduced_sde(
        alpha=[
            lambda s: np.full_like(np.asarray(s, dtype=float), 2.0),
            lambda s: np.ones_like(np.asarray(s, dtype=float)),
        ],
        beta=[
            lambda s: -np.asarray(s, dtype=float) / 2.0,
            lambda s: -np.asarray(s, dtype=float),
        ],
        ranges=[(-6.0, 6.0), (-6.0, 6.0)],
    )


def unstable_reduced():
    return build_reduced_sde(
        alpha=[
            lambda s: np.full_like(np.asarray(s, dtype=float), 2.0),
            lambda s: np.ones_like(np.asarray(s, dtype=float)),
        ],
        beta=[
            lambda s: np.asarray(s, dtype=float) / 2.0,
            lambda s: np.asarray(s, dtype=float),
        ],
        ranges=[(-6.0, 4.0), (-6.0, 4.0)],
    )


def lq_match():
    """LQ problem whose value PDE coincides with the stable 2-feature one."""
    return LqSpec(
        M=-np.eye(2),
        Sigma=np.diag([2.0, 1.0]),
        R=0.5 * np.eye(2),
        R_T=0.5 * np.eye(2),
        horizon=1.5,
    )


def heat_problem():
    """alpha = 2 diffusion (nu = 1) on [0, pi]: exact u = e^{-t} sin(xi)."""
    return PdeProblem(
        kind="safety",
        k=1,
        drift=lambda xi: np.zeros_like(np.atleast_2d(xi)),
        diffusion_diag=lambda xi: np.full_like(np.atleast_2d(xi), 2.0),
        reaction=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        data=lambda xi: np.sin(np.atleast_2d(xi)[:, 0]),
        domain=[(0.0, np.pi)],
        horizon=1.0,
        boundary="dirichlet-data",
        barrier=lambda xi: np.ones(np.atleast_2d(xi).shape[0]),
    )


@pytest.fixture(scope="module")
def value_solution():
    problem = assemble_value_pde(
        stable_reduced(), quad_cost, 1.0, [(-4.5, 6.0), (-3.5, 5.0)], 1.5
    )
    return solve_fd(problem, [0.05, 0.05], 2.5e-3, save_every=40)


@pytest.fixture(scope="module")
def safety_solution():
    problem = assemble_safety_pde(
        unstable_reduced(), min_barrier, [(-6.0, 4.0), (-6.0, 4.0)], 1.0
    )
    return solve_fd(problem, 0.05, 2e-3, save_every=25)


# --- Riccati oracle ---------------------------------------------------------


def test_riccati_matches_brownian_quadratic_closed_form():
    # M=0, Sigma=1, R=1, R_T=0: E[exp(-int_0^1 B^2)] = cosh(sqrt 2)^(-1/2)
    lq = LqSpec(M=[[0.0]], Sigma=[[1.0]], R=[[1.0]], R_T=[[0.0]], horizon=1.0)
    s2 = np.sqrt(2.0)
    assert riccati_value(lq, [0.0], 0.0) == pytest.approx(
        np.cosh(s2) ** -0.5, abs=1e-12
    )
    P, q = riccati_solution(lq, 0.0)
    assert P[0, 0] == pytest.approx(np.sqrt(0.5) * np.tanh(s2), abs=1e-12)
    assert q == pytest.approx(0.5 * np.log(np.cosh(s2)), abs=1e-12)
    # and a non-centred start: V = P xi^2 + q
    assert riccati_value(lq, [0.7], 0.0) == pytest.approx(
        np.exp(-(P[0, 0] * 0.49 + q)), rel=1e-12
    )


def test_riccati_stationary_fixed_point():
    # M=0, Sigma=1, R=R_T=1/2 makes P = 1/2 stationary, q = (T - t)/2
    lq = LqSpec(M=[[0.0]], Sigma=[[1.0]], R=[[0.5]], R_T=[[0.5]], horizon=1.0)
    for t in (0.0, 0.3, 0.77, 1.0):
        P, q = riccati_solution(lq, t)
        assert P[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert q == pytest.approx(0.5 * (1.0 - t), abs=1e-12)


def test_riccati_terminal_slice_is_data():
    lq = lq_match()
    xi = np.array([1.2, -0.4])
    expected = np.exp(-xi @ (0.5 * np.eye(2)) @ xi)
    assert riccati_value(lq, xi, 1.5) == pytest.approx(expected, rel=1e-14)


def test_riccati_blowup_guard():
    # negative running cost drives P to -infinity in finite time
    lq = LqSpec(M=[[0.0]], Sigma=[[1.0]], R=[[-5.0]], R_T=[[0.0]], horizon=5.0)
    with pytest.raises(RiccatiBlowupError):
        riccati_solution(lq, 0.0, step=1e-3)


def test_riccati_batch_and_validation():
    lq = lq_match()
    out = riccati_value(lq, np.array([[1.0, 1.0], [1.5, 1.5]]), 0.5)
    assert out.shape == (2,)
    with pytest.raises(UsageError):
        riccati_solution(lq, -0.1)
    with pytest.raises(UsageError):
        riccati_value(lq, [1.0, 2.0, 3.0], 0.5)
    with pytest.raises(UsageError):
        LqSpec(M=np.eye(2), Sigma=np.eye(2), R=np.eye(3), R_T=np.eye(2),
               horizon=1.0)
    with pytest.raises(UsageError):
        LqSpec(M=[[0.0]], Sigma=[[1.0]], R=[[1.0]], R_T=[[0.0]], horizon=0.0)


# --- value problem vs Riccati ------------------------------------------------


def test_value_fd_matches_riccati_on_comparison_grid(value_solution):
    lq = lq_match()
    g = np.arange(1.0, 2.0 + 1e-12, 0.05)
    pts = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
    fd = value_solution.interpolate(pts, 0.5)
    ref = riccati_value(lq, pts, 0.5)
    rel = np.abs(fd - ref) / ref
    assert rel.max() < 0.01
    assert rel.max() < 2e-3  # regression guard: measured ~5e-4
    assert value_solution.interpolate([1.5, 1.5], 0.5) == pytest.approx(
        0.17539071051318245, abs=1e-3
    )


def test_value_fd_terminal_slice_is_data(value_solution):
    sol = value_solution
    assert sol.times[-1] == pytest.approx(1.5)
    g1, g2 = np.meshgrid(sol.axes[0], sol.axes[1], indexing="ij")
    terminal = np.exp(-0.5 * (g1**2 + g2**2))
    np.testing.assert_array_equal(sol.values[-1], terminal)


def test_value_solution_metadata_and_verify(value_solution):
    md = value_solution.metadata
    assert md["scheme"] == "crank-nicolson-adi"
    assert md["rannacher_steps"] == 0
    assert md["n_steps"] == 600
    assert value_solution.verify(n_pairs=2)


# --- heat-equation accuracy oracle -------------------------------------------


def test_heat_solution_accuracy_and_convergence():
    errs = {}
    for label, (nx, dt, sv) in {
        "coarse": (314, 1e-3, 100),
        "fine": (628, 5e-4, 200),
    }.items():
        sol = solve_fd(heat_problem(), np.pi / nx, dt, save_every=sv)
        x = sol.axes[0]
        errs[label] = max(
            np.max(np.abs(sol.values[j] - np.exp(-t) * np.sin(x)))
            for j, t in enumerate(sol.times)
        )
    assert errs["coarse"] <= 1e-3
    assert errs["coarse"] <= 1e-5  # measured 3.2e-6
    assert errs["coarse"] / errs["fine"] >= 3.0


def test_heat_verify_bitwise():
    sol = solve_fd(heat_problem(), np.pi / 100, 1e-2, save_every=20)
    assert sol.verify()


# --- safety problem -----------------------------------------------------------


def test_safety_solution_stays_in_unit_interval(safety_solution):
    sol = safety_solution
    assert sol.values.min() >= 0.0
    assert sol.values.max() <= 1.0
    # only floating-point roundoff may be trimmed, never real overshoot
    assert sol.metadata["max_clip_correction"] <= 1e-12


def test_safety_initial_slice_is_indicator(safety_solution):
    sol = safety_solution
    g1, g2 = np.meshgrid(sol.axes[0], sol.axes[1], indexing="ij")
    inside = (np.minimum(-g1, -g2) + 4.0) > 0
    np.testing.assert_array_equal(sol.values[0], inside.astype(float))


def test_safety_probability_decreases_in_horizon(safety_solution):
    sol = safety_solution
    for pt in ([1.1, 1.1], [0.0, 0.0], [1.9, 1.9]):
        vals = [sol.interpolate(pt, t) for t in sol.times]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_safety_reference_values(safety_solution):
    # cross-checked against Monte-Carlo exit-time estimates (dt -> 0 limit)
    sol = safety_solution
    expected = {
        (1.1, 1.1): (0.998941, 0.926541, 0.426046),
        (1.5, 1.5): (0.992148, 0.793871, 0.201284),
        (1.9, 1.9): (0.957327, 0.548391, 0.064937),
    }
    for pt, refs in expected.items():
        for t, ref in zip((0.25, 0.5, 1.0), refs):
            assert sol.interpolate(list(pt), t) == pytest.approx(ref, abs=1e-4)


def test_safety_unsafe_nodes_pinned_to_zero(safety_solution):
    sol = safety_solution
    # the barrier vanishes on the far faces xi_i = 4, so those rows stay 0
    assert np.all(sol.values[:, -1, :] == 0.0)
    assert np.all(sol.values[:, :, -1] == 0.0)


def test_safety_verify_bitwise(safety_solution):
    assert safety_solution.verify(n_pairs=2)


# --- agreement with the Thomas-elimination engine ----------------------------

# Node values (saved-time index, node index...) -> value recorded from the
# engine that solved each axis by Thomas elimination in a Python row loop
# (commit 4722a29), on the value_solution and safety_solution fixtures and on
# heat_problem solved as in test_heat_verify_bitwise.  The banded line solve
# pivots and rounds differently, so the bound is absolute, not bitwise.
THOMAS_VALUES = {
    "value": {
        (0, 120, 100): 0.1357895768389073,
        (0, 90, 70): 0.3302702252193114,
        (7, 150, 50): 0.06691537876719526,
        (7, 120, 100): 0.19007960451274958,
        (14, 60, 120): 0.027125145383563445,
    },
    "safety": {
        (1, 150, 150): 0.9999999999943144,
        (5, 142, 142): 0.9989413947582747,
        (10, 150, 150): 0.7938709520080824,
        (20, 158, 158): 0.0649365310566412,
        (20, 142, 142): 0.4260464994054136,
        (20, 120, 80): 0.9329497449244549,
    },
    "heat": {
        (1, 10): 0.25301810521517104,
        (3, 50): 0.54886341340294,
        (5, 90): 0.1136950857195533,
        (5, 50): 0.36792502609614314,
    },
}


def test_fd_engine_matches_recorded_thomas_values(value_solution,
                                                  safety_solution):
    sols = {
        "value": value_solution,
        "safety": safety_solution,
        "heat": solve_fd(heat_problem(), np.pi / 100, 1e-2, save_every=20),
    }
    for name, recorded in THOMAS_VALUES.items():
        for idx, ref in recorded.items():
            got = sols[name].values[idx]
            assert abs(got - ref) <= 1e-12, (name, idx, got, ref)


# sha256 of the saved slices' bytes, recorded from the engine that moved each
# axis into line order with moveaxis copies and allocated every stencil
# product (commit 7d8b59f); the march's arithmetic is fixed, so any rewrite of
# it must reproduce these bit for bit
VALUES_SHA256 = {
    "value": "ca0b4d7e6226234bd1fe414ed7457aac31d8e71021bb1126d35b05e8214aa3cd",
    "safety": "377f49eaf093eb3dfcbb970a34ab2d3c82ccb672b2960daad875fd86414fe002",
    "heat": "19e503b3060c26628652f22df65bd3c368cbf1fb6d1394a234f6c14b42856fd8",
}


@pytest.fixture(scope="module")
def fd_solutions(value_solution, safety_solution):
    return {
        "value": value_solution,
        "safety": safety_solution,
        "heat": solve_fd(heat_problem(), np.pi / 100, 1e-2, save_every=20),
    }


@pytest.mark.parametrize("name", sorted(VALUES_SHA256))
def test_fd_values_are_bitwise_pinned(fd_solutions, name):
    values = fd_solutions[name].values
    assert hashlib.sha256(values.tobytes()).hexdigest() == VALUES_SHA256[name]


@pytest.mark.parametrize("name", sorted(VALUES_SHA256))
def test_fd_values_are_one_array_with_or_without_until(fd_solutions, name):
    # an until on the march's last slice takes the cut path and keeps
    # every slice
    whole = fd_solutions[name]
    end = whole.times[0] if whole.problem.kind == "value" else whole.times[-1]
    cut = solve_fd(whole.problem, whole.d_xi, whole.dt,
                   save_every=whole.metadata["save_every"], until=end)
    assert cut.metadata["marched_steps"] == whole.metadata["n_steps"]
    for sol in (whole, cut):
        assert sol.values.flags.owndata and sol.values.flags.c_contiguous
        assert hashlib.sha256(
            sol.values.tobytes()).hexdigest() == VALUES_SHA256[name]


def test_oracle_solve_holds_its_slices_once():
    # the sys3d-safety oracle keeps 11 slices of 201 x 201 nodes (3.6 MB)
    # beside a 6.5 MB engine.  Filling one result array in place peaked
    # at 10.77-10.78 MB in every measured run, alone and after other test
    # modules: the engine's set-up, above the march's 10.70 MB.  Keeping a
    # list of the slices and stacking it at the end peaked at 13.61 MB,
    # and a helper that kept the calls taken back from it at 11.35-12.65.
    p = get_preset("sys3d-safety")
    problem = p.pde_problem(domain=p.oracle_domain)
    tracemalloc.start()
    try:
        sol = solve_fd(problem, [p.oracle_dxi] * p.k, p.oracle_dt,
                       save_every=p.oracle_save_every)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.values.shape == (11, 201, 201)
    assert peak < 11.2e6


@pytest.mark.parametrize("name", sorted(VALUES_SHA256))
def test_engine_step_neither_writes_its_input_nor_reuses_its_output(
        fd_solutions, name):
    # value: reaction factors and pinned data edges; safety: Rannacher
    # startup, the inside mask and reflecting faces; heat: k = 1
    engine = fd_solutions[name]._engine
    u = fd_solutions[name].values[1].copy()
    for s in (0, 2):  # safety's steps 0 and 1 are the Rannacher startup
        before = u.tobytes()
        out = engine.step(u, s)
        assert u.tobytes() == before
        kept = out.tobytes()
        nxt = engine.step(out, s + 1)
        assert out.tobytes() == kept
        assert not np.shares_memory(out, nxt)
        u = nxt


# --- two-half line solves -------------------------------------------------------


@st.composite
def _stencil_cases(draw):
    """An engine on a small random grid (k = 1 or 2, reflecting or
    Dirichlet faces, a safe set or none) and a state holding +0.0 and
    -0.0 among its values."""
    k = draw(st.sampled_from([1, 2]))
    n = [draw(st.integers(3, 6)) for _ in range(k)]
    coef = st.floats(-3.0, 3.0)
    slope = [draw(coef) for _ in range(k)]
    shift = [draw(coef) for _ in range(k)]
    spread = [draw(st.floats(0.2, 2.0)) for _ in range(k)]
    cut = draw(st.floats(-0.5, n[0] - 1.5))
    safety = draw(st.booleans())

    def drift(xi):
        xi = np.atleast_2d(xi)
        return np.column_stack([shift[i] + slope[i] * xi[:, i]
                                for i in range(k)])

    problem = PdeProblem(
        kind="safety" if safety else "value",
        k=k,
        drift=drift,
        diffusion_diag=lambda xi: np.tile(spread, (len(np.atleast_2d(xi)),
                                                   1)),
        reaction=lambda xi: np.zeros(len(np.atleast_2d(xi))),
        data=lambda xi: np.atleast_2d(xi)[:, 0],
        domain=[(0.0, m - 1.0) for m in n],
        horizon=1.0,
        boundary=draw(st.sampled_from(["reflect", "dirichlet-data"])),
        barrier=lambda xi: np.atleast_2d(xi)[:, 0] - cut,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Peclet upwinding warning
        engine = pde._FdEngine(problem, 1.0, 0.1)
    values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))
    x = np.array(draw(st.lists(values, min_size=int(np.prod(n)),
                               max_size=int(np.prod(n)))))
    return engine, x


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_stencil_cases())
def test_line_order_product_equals_the_flat_product(case):
    # each solve axis forms the previous axis's explicit product in its own
    # line order, one line-aligned half at a time; every half it can take
    # has the bytes of the product formed in the previous axis's order
    engine, x = case
    shape = engine.shape
    for ax in range(engine.problem.k):
        prev = (ax - 1) % engine.problem.k
        width = x.size // shape[prev]  # ax's order is (shape[prev], width)

        def own(z):  # ax's line order -> prev's
            return z.reshape(shape[prev], width).T.ravel()

        *stencil, stride = engine.stencils[ax]
        assert stride == width
        flat = flat_explicit([own(c) for c in stencil], own(x), engine.dt)
        expected = flat.reshape(width, shape[prev]).T.ravel()
        # halves split ax's lines (runs of shape[ax] nodes) at any boundary
        splits = range(shape[ax], x.size, shape[ax])
        for rows in [slice(0, x.size)] + [r for o in splits for r in (
                slice(0, o), slice(o, x.size))]:
            out = np.full(x.size, np.nan)
            engine._explicit(ax, x, out, rows)
            assert out[rows].tobytes() == expected[rows].tobytes()
            outside = np.ones(x.size, dtype=bool)
            outside[rows] = False
            assert np.isnan(out[outside]).all()


def _short_value_problem():
    return assemble_value_pde(
        stable_reduced(), quad_cost, 1.0, [(-4.5, 6.0), (-3.5, 5.0)], 0.1
    )


def _short_safety_problem():
    return assemble_safety_pde(
        unstable_reduced(), min_barrier, [(-6.0, 4.0), (-6.0, 4.0)], 0.1
    )


# 211 x 171 and 201 x 201 nodes: odd line counts above the floor, so the
# halves hold unequal numbers of lines; 43 x 35 and 41 x 41 lie below it
@pytest.mark.parametrize("make, dxi, dt", [
    (_short_value_problem, 0.05, 2.5e-3),
    (_short_safety_problem, 0.05, 2e-3),
    (_short_value_problem, 0.25, 2.5e-3),
    (_short_safety_problem, 0.25, 2e-3),
])
def test_split_and_whole_solves_march_the_same_bytes(monkeypatch, make,
                                                     dxi, dt):
    problem = make()
    default = solve_fd(problem, dxi, dt, save_every=10)
    size = default.values[0].size
    split_by_default = size >= pde._SPLIT_NODES
    for ax in range(2):
        assert len(default._engine.halves[ax]) == 1 + split_by_default
    # flip the floor: a grid above it runs whole, one below it split
    monkeypatch.setattr(pde, "_SPLIT_NODES", 0 if not split_by_default
                        else size + 1)
    flipped = solve_fd(problem, dxi, dt, save_every=10)
    for ax in range(2):
        assert len(flipped._engine.halves[ax]) == 2 - split_by_default
    assert flipped.values.tobytes() == default.values.tobytes()
    assert flipped.verify() and default.verify()


def test_one_line_grid_is_never_split(monkeypatch):
    real = pde.dgttrs
    threads = set()

    def recording(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(pde, "dgttrs", recording)
    monkeypatch.setattr(pde, "_SPLIT_NODES", 0)
    sol = solve_fd(heat_problem(), np.pi / 100, 1e-2, save_every=20)
    assert len(sol._engine.halves[0]) == 1
    assert threads == {threading.current_thread().name}
    digest = hashlib.sha256(sol.values.tobytes()).hexdigest()
    assert digest == VALUES_SHA256["heat"]


@pytest.mark.parametrize("name", sorted(VALUES_SHA256))
def test_verify_remarches_every_pinned_solution(fd_solutions, name):
    sol = fd_solutions[name]
    assert sol.verify()
    # it compares bytes: one flipped last bit of a saved slice fails it
    last = len(sol.times) - 1 if sol.problem.kind == "safety" else 0
    saved = sol.values[last].copy()
    flat = sol.values[last].reshape(-1)
    j = int(np.flatnonzero(flat != 0.0)[0])
    flat.view(np.int64)[j] ^= 1
    try:
        assert not sol.verify()
    finally:
        sol.values[last] = saved


def _half_sizes():
    """Node counts of the calling thread's and the helper's halves of the
    split 201 x 201 axes of ``_short_safety_problem``."""
    engine = pde._FdEngine(_short_safety_problem(), 0.05, 2e-3)
    sizes = [[factors[1].size for _, factors in halves]
             for halves in engine.halves]
    assert sizes[0] == sizes[1] and len(sizes[0]) == 2
    return sizes[0]


def test_split_halves_run_on_two_threads_at_once(monkeypatch):
    _, second = _half_sizes()
    real = pde.dgttrs
    begun = threading.Semaphore(0)
    waits, second_threads = [], []

    def fake(dl, d, *args, **kwargs):
        if d.size == second:
            second_threads.append(threading.current_thread().name)
            begun.release()
        else:
            # the first half cannot end before the second has begun; after
            # one wait has timed out the rest fail at once
            waits.append(begun.acquire(timeout=10 if all(waits) else 0))
        return real(dl, d, *args, **kwargs)

    monkeypatch.setattr(pde, "dgttrs", fake)
    solve_fd(_short_safety_problem(), 0.05, 2e-3)
    assert len(waits) == len(second_threads) > 0 and all(waits)
    assert all(name.startswith("featpde-fd") for name in second_threads)


@pytest.mark.parametrize("failing", ["calling", "helper"])
def test_failed_half_solve_raises_after_both_halves_finish(monkeypatch,
                                                           failing):
    sizes = _half_sizes()
    bad = sizes[failing == "helper"]
    real = pde.dgttrs
    finished = []

    def fake(dl, d, *args, **kwargs):
        x, info = real(dl, d, *args, **kwargs)
        finished.append(d.size)
        return x, int(d.size == bad)

    monkeypatch.setattr(pde, "dgttrs", fake)
    with pytest.raises(NumericalError, match=r"gttrs failed on axis 1 "
                                             r"\(info 1\)"):
        solve_fd(_short_safety_problem(), 0.05, 2e-3)
    # the first solve's two halves both ran to the end, and nothing after
    assert sorted(finished) == sorted(sizes)


def test_late_helper_leaves_its_half_to_the_calling_thread(monkeypatch):
    # a helper held back until the march has ended claims no handed-over
    # half, so the calling thread solves both halves of every split solve
    first, second = _half_sizes()
    real = pde.dgttrs
    solved = []
    freed = []

    def recording(dl, d, *args, **kwargs):
        solved.append((d.size, threading.current_thread().name))
        return real(dl, d, *args, **kwargs)

    class LateHelper(pde._Helper):
        def __init__(self):
            super().__init__()
            self.free = threading.Event()

        def _serve(self):
            # False if the march waited for this thread until the timeout
            freed.append(self.free.wait(timeout=20))
            super()._serve()

        def __exit__(self, *exc):
            self.free.set()
            super().__exit__(*exc)

    problem = _short_safety_problem()
    monkeypatch.setattr(pde, "dgttrs", recording)
    monkeypatch.setattr(pde, "_Helper", LateHelper)
    late = solve_fd(problem, 0.05, 2e-3, save_every=10)
    assert freed == [True]
    assert {name for _, name in solved} == {threading.current_thread().name}
    sizes = [size for size, _ in solved]
    assert sizes.count(first) == sizes.count(second) > 0
    assert sorted(set(sizes)) == sorted((first, second))
    monkeypatch.setattr(pde, "_SPLIT_NODES", 201 * 201 + 1)
    whole = solve_fd(problem, 0.05, 2e-3, save_every=10)
    assert len(whole._engine.halves[0]) == 1
    assert late.values.tobytes() == whole.values.tobytes()


def test_every_handed_call_runs_exactly_once_under_contention():
    # three callers, each with its own helper, on two cores and switching
    # threads every microsecond: a call handed over runs on the helper or,
    # if the caller claims it first, on the caller, and never on both
    def record(out, item):
        time.sleep(0)  # hands the GIL over in the middle of the call
        out.append(item)

    def lane(j, out):
        with pde._Helper() as helper:
            for i in range(3000):
                call = helper.hand(record, out, (j, i, "theirs"))
                record(out, (j, i, "mine"))
                if not call.claim():
                    record(out, (j, i, "theirs"))

    outs = [[] for _ in range(3)]
    threads = [threading.Thread(target=lane, args=(j, out))
               for j, out in enumerate(outs)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for j, out in enumerate(outs):
        assert sorted(out) == [(j, i, half) for i in range(3000)
                               for half in ("mine", "theirs")]


class _Slice:
    pass


def test_helper_frees_a_served_call_before_waiting_for_the_next():
    # a half solve handed over closes over its step's array; a helper that
    # held its last call while it waited kept one more slice alive
    ran = threading.Event()
    with pde._Helper() as helper:
        arg = _Slice()
        ref = weakref.ref(arg)
        call = helper.hand(lambda _: ran.set(), arg)
        assert ran.wait(timeout=20) and call.claim()
        del arg, call
        deadline = time.monotonic() + 5.0
        while ref() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ref() is None


def test_a_call_taken_back_frees_its_arguments_in_the_queue():
    # a helper that has fallen behind keeps the calls taken back from it
    # queued; they no longer keep their steps' arrays alive
    with LateHelper() as helper:
        arg = _Slice()
        ref = weakref.ref(arg)
        assert not helper.hand(lambda _: None, arg).claim()
        del arg
        assert ref() is None


# --- grid convergence of the preset oracles ------------------------------------

# Crank-Nicolson with Rannacher start-up is second order in (d_xi, dt), so
# halving d_xi with dt = d_xi / 50 should cut the change between successive
# grids fourfold, and a third of the last change (Richardson, order 2)
# estimates the error left at the finest grid.  Recorded at the nine points
# {1, 1.5, 2}^2 (largest changes):
#   sys3d-safety, t = 1, d_xi 0.2 -> 0.1 -> 0.05: 4.435e-3, 1.024e-3; order
#     2.115; estimate 3.41e-4, against the gate's 0.01 allowance
#   sys3d-value, t = 0.5, d_xi 0.25 -> 0.125 -> 0.0625 (0.2 does not divide
#     its domain): 1.170e-3, 2.907e-4; order 2.009; estimate 9.69e-5, and the
#     true error against Riccati 9.674e-5; extrapolated, 1.9e-7
# Bounds are 1.25x the recorded figures; the value estimate's gap to the true
# error (recorded 0.2%) is held under 5%.
_NINE = np.array([[a, b] for a in (1.0, 1.5, 2.0) for b in (1.0, 1.5, 2.0)])


def _oracle_ladder(name, spacings, t):
    preset = get_preset(name)
    problem = preset.pde_problem(domain=preset.oracle_domain)
    out = []
    for h in spacings:
        dt = h / 50
        sol = solve_fd(problem, h, dt, save_every=round(0.5 / dt))
        out.append(sol.interpolate(_NINE, t))
    changes = [np.abs(b - a).max() for a, b in zip(out, out[1:])]
    return out, np.log2(changes[0] / changes[1]), changes[1] / 3


def test_safety_oracle_converges_at_second_order():
    _, order, estimate = _oracle_ladder("sys3d-safety", [0.2, 0.1, 0.05], 1.0)
    assert abs(order - 2.0) <= 0.25
    assert estimate <= 1.25 * 3.41e-4  # about 0.01 / 23


def test_value_oracle_ladder_predicts_its_riccati_error():
    values, order, estimate = _oracle_ladder(
        "sys3d-value", [0.25, 0.125, 0.0625], 0.5)
    assert abs(order - 2.0) <= 0.25
    assert estimate <= 1.25 * 9.69e-5
    ref = riccati_value(get_preset("sys3d-value").lq, _NINE, 0.5)
    error = np.abs(values[-1] - ref).max()
    assert abs(estimate - error) <= 0.05 * error
    extrapolated = values[-1] + (values[-1] - values[-2]) / 3
    assert np.abs(extrapolated - ref).max() <= 1.25 * 1.9e-7


# --- residual ------------------------------------------------------------------


def test_residual_vanishes_for_exact_heat_solution():
    prob = heat_problem()

    def candidate(xi, t):
        x = xi[:, 0]
        u = np.exp(-t) * np.sin(x)
        u_t = -u
        grad = (np.exp(-t) * np.cos(x))[:, None]
        hess = -u[:, None]
        return u, u_t, grad, hess

    pts = np.column_stack([np.linspace(0.3, 2.8, 9)])
    res = residual(prob, candidate, pts, 0.4)
    assert np.max(np.abs(res)) < 1e-12


def test_residual_value_form_and_scalar_return():
    prob = PdeProblem(
        kind="value",
        k=1,
        drift=lambda xi: np.zeros_like(np.atleast_2d(xi)),
        diffusion_diag=lambda xi: np.full_like(np.atleast_2d(xi), 2.0),
        reaction=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        data=lambda xi: np.sin(np.atleast_2d(xi)[:, 0]),
        domain=[(0.0, np.pi)],
        horizon=1.0,
    )

    def exact(xi, t):
        # u = e^{-(T - t)} sin(xi) solves the backward form exactly
        x = xi[:, 0]
        u = np.exp(-(1.0 - t)) * np.sin(x)
        return u, u, (np.exp(-(1.0 - t)) * np.cos(x))[:, None], -u[:, None]

    assert abs(residual(prob, exact, [1.1], 0.3)) < 1e-12

    def undecayed(xi, t):
        x = xi[:, 0]
        u = np.sin(x)
        return u, np.zeros_like(u), np.cos(x)[:, None], -u[:, None]

    # residual = -0 - 1/2 * 2 * (-sin) = sin(xi)
    assert residual(prob, undecayed, [1.1], 0.3) == pytest.approx(np.sin(1.1))


# --- a march cut at the slice its rows need ------------------------------------


def _preset_solve(name, **kwargs):
    """The preset's oracle steps and saved slices on a coarse grid."""
    p = get_preset(name)
    return solve_fd(p.pde_problem(domain=p.oracle_domain), 0.25, p.oracle_dt,
                    save_every=p.oracle_save_every, **kwargs)


@pytest.fixture(scope="module")
def whole_solves():
    return {name: _preset_solve(name)
            for name in ("sys3d-value", "sys3d-safety")}


# until on a saved slice, between two, and at the far end of the horizon
@pytest.mark.parametrize("name,until,marched", [
    ("sys3d-value", 1.0, 200),
    ("sys3d-value", 0.95, 240),
    ("sys3d-value", 0.0, 600),
    ("sys3d-safety", 0.5, 1000),
    ("sys3d-safety", 0.55, 1200),
    ("sys3d-safety", 1.0, 2000),
])
def test_cut_march_keeps_the_bytes_of_the_whole_march(whole_solves, name,
                                                     until, marched):
    whole = whole_solves[name]
    cut = _preset_solve(name, until=until)
    assert cut.metadata["marched_steps"] == marched
    assert cut.metadata["n_steps"] == whole.metadata["n_steps"]
    assert whole.metadata["marched_steps"] == whole.metadata["n_steps"]
    n = len(cut.times)
    assert cut.saved_steps == whole.saved_steps[:n]
    # value slices ascend in t, so its march's first slices come last
    kept = slice(-n, None) if name == "sys3d-value" else slice(None, n)
    assert np.array_equal(cut.times, whole.times[kept])
    assert np.array_equal(cut.values, whole.values[kept])
    assert cut.verify()
    # rows on each kept slice time, between slices and at until, at grid
    # nodes and off them, one time per call and all times in one call
    rng = np.random.default_rng(11)
    pts = np.vstack([[[cut.axes[0][m], cut.axes[1][m]] for m in (10, 20)],
                     rng.uniform(-3.5, 4.0, size=(20, 2))])
    times = np.concatenate([cut.times, 0.5 * (cut.times[:-1] + cut.times[1:]),
                            [until]])
    for t in times:
        assert np.array_equal(cut.interpolate(pts, t),
                              whole.interpolate(pts, t))
    rows = np.tile(pts, (len(times), 1))
    row_times = np.repeat(times, len(pts))
    assert np.array_equal(cut.interpolate(rows, row_times),
                          whole.interpolate(rows, row_times))


# --- interpolation and serialization -------------------------------------------


def test_interpolate_nodes_and_midpoints(safety_solution):
    sol = safety_solution
    i, j, m = 8, 110, 130
    t = sol.times[i]
    node_val = sol.values[i, j, m]
    xi = [sol.axes[0][j], sol.axes[1][m]]
    assert sol.interpolate(xi, t) == pytest.approx(node_val, rel=1e-12)
    mid = [
        0.5 * (sol.axes[0][j] + sol.axes[0][j + 1]),
        sol.axes[1][m],
    ]
    expected = 0.5 * (sol.values[i, j, m] + sol.values[i, j + 1, m])
    assert sol.interpolate(mid, t) == pytest.approx(expected, rel=1e-12)
    # a (1, k) batch is a batch: it returns a (1,) array, not a float
    one = sol.interpolate(np.array([xi]), t)
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == sol.interpolate(xi, t)
    # one batched call is bitwise the per-point loop, at nodes and off them
    rng = np.random.default_rng(3)
    pts = np.vstack([xi, mid, rng.uniform(-6.0, 4.0, size=(50, 2))])
    for t in (sol.times[i], 0.37):
        assert np.array_equal(sol.interpolate(pts, t),
                              [sol.interpolate(p, t) for p in pts])


def test_interpolate_rejects_out_of_grid(safety_solution):
    with pytest.raises(DomainError):
        safety_solution.interpolate([5.0, 0.0], 0.5)
    with pytest.raises(DomainError):
        safety_solution.interpolate([0.0, 0.0], 1.5)


def test_interpolate_rejects_nan(safety_solution):
    nan = float("nan")
    for xi, t, what in (([[0.0, 0.0], [nan, 0.0]], 0.5, "xi1"),
                        ([0.0, nan], 0.5, "xi2"),
                        ([0.0, 0.0], nan, "t")):
        with pytest.raises(DomainError, match=f"^{what} = nan outside"):
            safety_solution.interpolate(xi, t)


def test_interpolate_rejects_wrong_point_width(safety_solution):
    # a k = 2 solution refuses one and three coordinates
    for xi in ([1.5], [[1.5, 1.5, -7.0]]):
        with pytest.raises(UsageError) as info:
            safety_solution.interpolate(xi, 0.5)
        assert str(info.value) == (f"points have {np.shape(xi)[-1]} "
                                   f"coordinates, the solution has k = 2")
    # a k = 1 solution refuses (1.5, -7.0) instead of reading it as 1.5
    sol = solve_fd(heat_problem(), np.pi / 100, 1e-2, save_every=20)
    with pytest.raises(UsageError, match="points have 2 coordinates"):
        sol.interpolate([1.5, -7.0], 0.5)
    # times are one for all points or one per point
    for xi in ([[0.0, 0.0], [1.0, 1.0], [1.5, 1.5]], [1.5, 1.5]):
        with pytest.raises(UsageError) as info:
            safety_solution.interpolate(xi, [0.5, 0.6])
        assert str(info.value) == (
            "t must be one time or one per point: got 2 times for "
            f"{len(np.atleast_2d(xi))} points")


def test_to_csv_schema_roundtrip(tmp_path):
    sol = solve_fd(heat_problem(), np.pi / 8, 0.25, save_every=2)
    path = tmp_path / "heat.csv"
    sol.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "xi1,t,value"
    body = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert body.shape == (len(sol.times) * 9, 3)
    # ascending t blocks, lexicographic nodes inside each block
    np.testing.assert_allclose(body[:9, 0], sol.axes[0])
    np.testing.assert_array_equal(body[:9, 1], np.zeros(9))
    np.testing.assert_array_equal(body[:9, 2], sol.values[0])
    np.testing.assert_array_equal(body[-9:, 2], sol.values[-1])


# --- drift-dominated regime ------------------------------------------------------


def test_strong_drift_triggers_upwinding_and_stays_bounded():
    prob = PdeProblem(
        kind="value",
        k=1,
        drift=lambda xi: np.full_like(np.atleast_2d(xi), -50.0),
        diffusion_diag=lambda xi: np.full_like(np.atleast_2d(xi), 0.2),
        reaction=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        data=lambda xi: np.exp(-np.atleast_2d(xi)[:, 0] ** 2),
        domain=[(-4.0, 4.0)],
        horizon=0.5,
    )
    with pytest.warns(UserWarning, match="Peclet"):
        sol = solve_fd(prob, 0.1, 1e-3, save_every=100)
    assert sol.metadata["upwind_fraction"][0] > 0.9
    assert sol.values.min() > -1e-9
    assert sol.values.max() < 1.0 + 1e-9


# --- construction and validation ---------------------------------------------------


def test_problem_validation_errors():
    ok = dict(
        kind="value",
        k=1,
        drift=lambda xi: np.zeros_like(np.atleast_2d(xi)),
        diffusion_diag=lambda xi: np.ones_like(np.atleast_2d(xi)),
        reaction=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        data=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        domain=[(0.0, 1.0)],
        horizon=1.0,
    )
    with pytest.raises(UsageError):
        PdeProblem(**{**ok, "kind": "elliptic"})
    with pytest.raises(UsageError):
        PdeProblem(**{**ok, "boundary": "absorbing"})
    with pytest.raises(UsageError):
        PdeProblem(**{**ok, "domain": [(0.0, 1.0), (0.0, 1.0)]})
    with pytest.raises(UsageError):
        PdeProblem(**{**ok, "domain": [(1.0, 1.0)]})
    with pytest.raises(UsageError):
        PdeProblem(**{**ok, "horizon": -0.5})
    with pytest.raises(UsageError):
        PdeProblem(**{**ok, "kind": "safety"})  # no barrier


def test_assemble_value_fields_and_directions():
    red = unstable_reduced()
    prob = assemble_value_pde(red, quad_cost, 1.0, [(-4.0, 4.0), (-4.0, 4.0)],
                              1.5)
    assert prob.kind == "value" and prob.time_direction == "backward"
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    np.testing.assert_allclose(prob.drift(pts),
                               np.column_stack([pts[:, 0], pts[:, 1]]))
    np.testing.assert_allclose(prob.diffusion_diag(pts),
                               np.tile([2.0, 1.0], (2, 1)))
    np.testing.assert_allclose(prob.data(pts), np.exp(-quad_cost(pts)))
    safety = assemble_safety_pde(red, min_barrier,
                                 [(-6.0, 4.0), (-6.0, 4.0)], 1.0)
    assert safety.time_direction == "forward"
    assert safety.boundary == "reflect"


def test_assemble_rejects_degenerate_inputs():
    bad = build_reduced_sde(
        alpha=[lambda s: np.asarray(s, dtype=float) + 10.0],
        beta=[lambda s: np.zeros_like(np.asarray(s, dtype=float))],
        ranges=[(-5.0, 5.0)],
    )
    # alpha = xi + 10 goes nonpositive on a domain reaching -10
    with pytest.raises(DomainError):
        assemble_value_pde(bad, lambda xi: np.atleast_2d(xi)[:, 0] ** 2, 1.0,
                           [(-12.0, 0.0)], 1.0)
    good = build_reduced_sde(
        alpha=[lambda s: np.ones_like(np.asarray(s, dtype=float))],
        beta=[lambda s: np.zeros_like(np.asarray(s, dtype=float))],
        ranges=[(-1.0, 1.0)],
    )
    with pytest.raises(DomainError):
        assemble_safety_pde(
            good, lambda xi: -1.0 - np.atleast_2d(xi)[:, 0] ** 2,
            [(-1.0, 1.0)], 1.0
        )


def test_solver_grid_validation():
    with pytest.raises(UsageError):
        solve_fd(heat_problem(), 0.3, 1e-2)  # 0.3 does not divide pi
    with pytest.raises(UsageError):
        solve_fd(heat_problem(), np.pi / 10, 0.3)  # 0.3 does not divide 1.0
    with pytest.raises(UsageError):
        solve_fd(heat_problem(), np.pi / 10, 1e-2, save_every=0)
    three = PdeProblem(
        kind="value",
        k=3,
        drift=lambda xi: np.zeros_like(np.atleast_2d(xi)),
        diffusion_diag=lambda xi: np.ones_like(np.atleast_2d(xi)),
        reaction=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        data=lambda xi: np.zeros(np.atleast_2d(xi).shape[0]),
        domain=[(0.0, 1.0)] * 3,
        horizon=1.0,
    )
    with pytest.raises(UsageError):
        solve_fd(three, 0.5, 0.5)


@pytest.mark.filterwarnings("ignore:cell Peclet")
def test_scalar_spacing_broadcasts(safety_solution):
    prob = assemble_safety_pde(
        unstable_reduced(), min_barrier, [(-6.0, 4.0), (-6.0, 4.0)], 0.1
    )
    a = solve_fd(prob, 0.5, 0.05)
    b = solve_fd(prob, [0.5, 0.5], 0.05)
    np.testing.assert_array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# LAPACK loading, each case in a fresh interpreter with its own sys.modules


def _child(code, **env):
    return subprocess.run([sys.executable, "-c", code], env=child_env(**env),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("first", ["featpde", "scipy"])
def test_lapack_routines_are_the_objects_scipy_exports(first):
    imports = ["from featpde import pde", "from scipy.linalg import lapack"]
    if first == "scipy":
        imports.reverse()
    res = _child("\n".join(["import sys", *imports, (
        "print(pde.dgttrf is lapack.dgttrf, pde.dgttrs is lapack.dgttrs, "
        "pde._LAPACK is lapack._flapack "
        "is sys.modules['scipy.linalg._flapack'])")]))
    assert res.stdout.split() == ["True"] * 3, res.stderr


def test_a_scipy_without_its_lapack_module_names_the_path(tmp_path):
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    res = _child("import featpde.pde", PYTHONPATH=str(tmp_path))
    assert res.returncode == 1
    assert "ImportError: no LAPACK extension module " + os.path.join(
        str(tmp_path), "scipy", "linalg", "_flapack") in res.stderr
