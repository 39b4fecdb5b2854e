"""Finite-difference solver, Riccati oracle, and PDE assembly tests.

The quantitative anchors are closed forms: the Brownian quadratic-cost
expectation E[exp(-int_0^1 B_s^2 ds)] = cosh(sqrt 2)^(-1/2), the stationary
scalar Riccati fixed point P = 1/2, and the decaying sine solution of the
heat equation.  The 2-d solves are then cross-checked Riccati-vs-FD.
"""

import hashlib

import numpy as np
import pytest

from gradient_cases import residual
from featpde.errors import DomainError, RiccatiBlowupError, UsageError
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
