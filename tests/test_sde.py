"""Simulation engine checks: scheme correctness, RNG contract, serialization."""

import re
import threading
import time
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featpde import sde
from featpde.errors import DomainError, SimulationError, UsageError
from featpde.presets import get_preset
from featpde.reduction import build_reduced_sde
from featpde.sde import (
    ControlPolicy,
    SimConfig,
    StochasticSystem,
    ZeroPolicy,
    simulate,
    simulate_reduced,
    step_noise,
)
from gradient_cases import full_march


def three_dim_literal():
    """dx1=(x1+x3)dt + u1 dt + dW1, dx2=(x2-x3)dt + ..., dx3=x3 dt + ..."""

    def drift(x):
        return np.column_stack([x[:, 0] + x[:, 2], x[:, 1] - x[:, 2], x[:, 2]])

    return StochasticSystem(3, 3, drift, diffusion_const=np.eye(3))


def test_zero_dynamics_paths_stay_put():
    sys0 = StochasticSystem(
        3, 3, lambda x: np.zeros_like(x), diffusion_const=np.zeros((3, 3))
    )
    cfg = SimConfig(dt=0.1, horizon=0.5, seed=1, n_paths=7)
    batch = simulate(sys0, ZeroPolicy(3), np.array([1.0, 2.0, 3.0]), cfg)
    assert batch.states.shape == (7, 6, 3)
    assert np.all(batch.states == np.array([1.0, 2.0, 3.0]))


def test_simconfig_validation():
    with pytest.raises(UsageError):
        SimConfig(dt=0.3, horizon=1.0, seed=0, n_paths=1)
    with pytest.raises(UsageError):
        SimConfig(dt=-0.1, horizon=1.0, seed=0, n_paths=1)
    with pytest.raises(UsageError):
        SimConfig(dt=0.1, horizon=1.0, seed=0, n_paths=0)
    with pytest.raises(UsageError):
        SimConfig(dt=0.1, horizon=1.0, seed=2**64, n_paths=1)
    cfg = SimConfig(dt=1e-3, horizon=0.25, seed=0, n_paths=1)
    assert cfg.steps == 250


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", "1"), ("n_paths", 2.5), ("n_paths", 3.0),
])
def test_simconfig_refuses_a_non_integer_seed_or_path_count(field, value):
    kwargs = dict(dt=0.1, horizon=1.0, seed=1, n_paths=2)
    kwargs[field] = value
    with pytest.raises(UsageError, match=f"{field} must be an integer"):
        SimConfig(**kwargs)
    kwargs[field] = np.int64(2)
    assert getattr(SimConfig(**kwargs), field) == 2


def test_brownian_motion_variance():
    bm = StochasticSystem(
        1, 1, lambda x: np.zeros_like(x), diffusion_const=np.array([[1.0]])
    )
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=11, n_paths=100_000)
    batch = simulate(bm, ZeroPolicy(1), np.zeros(1), cfg)
    v = batch.states[:, -1, 0].var()
    assert 0.97 <= v <= 1.03


def test_three_dim_mean_growth():
    # E[x1 + x2] solves dm/dt = m from m(0) = 1 under the uncontrolled drift
    sys3 = three_dim_literal()
    cfg = SimConfig(dt=1e-3, horizon=0.5, seed=5, n_paths=10_000)
    batch = simulate(sys3, ZeroPolicy(3), np.array([1.0, 0.0, 1.0]), cfg)
    s = batch.states[:, -1, 0] + batch.states[:, -1, 1]
    se = s.std(ddof=1) / np.sqrt(len(s))
    assert abs(s.mean() - np.exp(0.5)) <= 3 * se


def test_weak_convergence_in_dt():
    lin = StochasticSystem(
        1,
        1,
        lambda x: 0.5 * x,
        diffusion_const=np.array([[1e-6]]),
    )
    errs = []
    for dt in (1e-2, 1e-3):
        cfg = SimConfig(dt=dt, horizon=1.0, seed=2, n_paths=100)
        batch = simulate(lin, ZeroPolicy(1), np.ones(1), cfg)
        errs.append(abs(batch.states[:, -1, 0].mean() - np.exp(0.5)))
    assert errs[1] < errs[0]


def test_reduced_brownian_and_diffusion_scaling():
    red1 = build_reduced_sde(
        [lambda xi: np.ones_like(xi)],
        [lambda xi: np.zeros_like(xi)],
        [(-10.0, 10.0)],
    )
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=3, n_paths=100_000)
    v1 = simulate_reduced(red1, np.zeros(1), cfg).states[:, -1, 0].var()
    assert 0.97 <= v1 <= 1.03

    red4 = build_reduced_sde(
        [lambda xi: 4.0 * np.ones_like(xi)],
        [lambda xi: np.zeros_like(xi)],
        [(-40.0, 40.0)],
    )
    v4 = simulate_reduced(red4, np.zeros(1), cfg).states[:, -1, 0].var()
    assert 3.88 <= v4 <= 4.12


def test_determinism_bitwise():
    sys3 = three_dim_literal()
    cfg = SimConfig(dt=0.05, horizon=0.5, seed=77, n_paths=13)
    x0 = np.array([1.0, 0.0, 1.0])
    b1 = simulate(sys3, ZeroPolicy(3), x0, cfg)
    b2 = simulate(sys3, ZeroPolicy(3), x0, cfg)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.times, b2.times)
    assert np.all(b1.states[:, 0, :] == x0)
    dts = np.diff(b1.times)
    assert np.all(dts > 0)
    assert np.allclose(dts, 0.05, rtol=0, atol=1e-15)


def test_controlled_and_uncontrolled_share_noise():
    bm = StochasticSystem(
        1, 1, lambda x: np.zeros_like(x), diffusion_const=np.array([[1.0]])
    )
    cfg = SimConfig(dt=0.01, horizon=1.0, seed=9, n_paths=500)
    x0 = np.zeros(1)
    free = simulate(bm, ZeroPolicy(1), x0, cfg)
    pushed = simulate(
        bm, ControlPolicy(lambda x, t: np.ones((x.shape[0], 1))), x0, cfg
    )
    # same Brownian increments => trajectories differ by exactly int u dt
    gap = pushed.states[:, -1, 0] - free.states[:, -1, 0]
    assert np.max(np.abs(gap - 1.0)) < 1e-10


def test_step_noise_is_pure_and_prefix_stable():
    z = step_noise(7, 3, 5, 2)
    assert np.array_equal(z, step_noise(7, 3, 5, 2))
    assert not np.array_equal(z, step_noise(7, 4, 5, 2))
    assert not np.array_equal(z, step_noise(8, 3, 5, 2))
    # growing the path count extends the draw without disturbing old rows,
    # so estimates are reproducible prefixes of larger runs
    assert np.array_equal(z, step_noise(7, 3, 9, 2)[:5])


@pytest.mark.parametrize("seed,tag", [(2**64, 0), (-1, 0), (0, 2**64),
                                      (2**64 - 1, -1), (np.int64(-1), 0),
                                      (0, np.int32(-5)), (3.0, 0)])
def test_a_philox_key_outside_64_bits_is_a_usage_error(seed, tag):
    # numpy raises an OverflowError that names neither word of the key, and
    # used to wrap a negative numpy integer round to 2**64 - 1 silently
    with pytest.raises(UsageError, match=re.escape(
            f"(seed {seed}, tag {tag}) must be in [0, 2**64)")):
        sde.stream(seed, tag)


def test_the_largest_philox_key_is_accepted():
    top = 2**64 - 1
    draw = sde.stream(top, top).standard_normal(3)
    assert np.isfinite(draw).all()
    # guard: a numpy word is read as the integer it holds
    assert sde.stream(np.uint64(top), np.uint64(top)).standard_normal(
        3).tobytes() == draw.tobytes()


@st.composite
def _square_matrices(draw):
    """A diagonal (n, n) matrix with up to two entries then overwritten,
    every entry from a set holding both zeros, NaN and both infinities."""
    entries = st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf,
                               np.nan])
    n = draw(st.integers(1, 4))
    a = np.diag(draw(st.lists(entries, min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 2))):
        a[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            entries)
    return a


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_square_matrices())
def test_a_diagonal_diffusion_is_found_as_comparing_with_np_diag_finds_it(a):
    assert sde._is_diagonal(a) == np.array_equal(a, np.diag(np.diagonal(a)))


def test_step_noise_into_a_buffer_gives_the_same_bits():
    buf = np.empty((5, 2))
    assert step_noise(7, 3, 5, 2, out=buf) is buf
    assert buf.tobytes() == step_noise(7, 3, 5, 2).tobytes()


# --- the step-draw source ------------------------------------------------------

def _count_draws(monkeypatch, fail_at=None):
    """Record sde.step_noise calls by step; step ``fail_at`` raises."""
    real = sde.step_noise
    drawn = []

    def noise(seed, step, n, m, out=None):
        drawn.append(step)
        if step == fail_at:
            raise MemoryError(f"no room for step {step}")
        return real(seed, step, n, m, out=out)

    monkeypatch.setattr(sde, "step_noise", noise)
    return drawn


def _read(source, reader, steps, got):
    """Take every step of ``source`` as ``reader`` into ``got`` (a copy of
    each draw, or the error that ends the reading), then leave."""
    try:
        for s in range(steps):
            got.append(source.take(reader, s).copy())
    except Exception as err:
        got.append(err)
    finally:
        source.leave(reader)


def _run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads)


def _bits(draws):
    return [z.tobytes() for z in draws]


def test_two_readers_and_a_filler_draw_each_step_once(monkeypatch):
    drawn = _count_draws(monkeypatch)
    # 40 steps, far past the window, so the ring's buffers are reused
    source = sde.DrawSource(5, 6, 2, 40, readers=2)
    got = [[], []]
    _run_threads(partial(_read, source, 0, 40, got[0]),
                 partial(_read, source, 1, 40, got[1]), source.fill)
    assert sorted(drawn) == list(range(40))
    want = _bits(step_noise(5, s, 6, 2) for s in range(40))
    assert _bits(got[0]) == want and _bits(got[1]) == want


def test_draw_source_take_returns_a_read_only_view():
    source = sde.DrawSource(5, 6, 2, 3)
    z = source.take(0, 0)
    source.leave(0)
    assert z.base is not None and not z.flags.writeable
    assert z.tobytes() == step_noise(5, 0, 6, 2).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        z[0, 0] = 1.0


def test_failed_draw_is_raised_to_every_reader_of_its_step(monkeypatch):
    _count_draws(monkeypatch, fail_at=2)
    source = sde.DrawSource(5, 6, 2, 10, readers=2)
    got = [[], []]
    _run_threads(partial(_read, source, 0, 10, got[0]),
                 partial(_read, source, 1, 10, got[1]))
    for draws in got:
        assert _bits(draws[:2]) == _bits(step_noise(5, s, 6, 2)
                                         for s in range(2))
        assert len(draws) == 3 and isinstance(draws[2], MemoryError)


def test_reader_that_leaves_lets_the_other_pass_the_window():
    steps = sde._AHEAD + 4
    source = sde.DrawSource(5, 6, 2, steps, readers=2)
    got = []
    reader = threading.Thread(target=_read, args=(source, 0, steps, got))
    reader.start()
    try:
        # reader 1 is still at step 0, so reader 0 stops after the window
        deadline = time.monotonic() + 20
        while len(got) <= sde._AHEAD and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)
        assert len(got) == sde._AHEAD + 1
    finally:
        source.leave(1)
        reader.join(timeout=20)
    assert not reader.is_alive()
    assert _bits(got) == _bits(step_noise(5, s, 6, 2) for s in range(steps))


def _waiting_system(event):
    """A 2-d system whose drift waits until ``event`` is set."""

    def drift(x):
        assert event.wait(timeout=20), "the helper did not begin"
        return -x

    return StochasticSystem(2, 2, drift, diffusion_const=np.eye(2))


def test_own_source_filler_runs_under_the_callers_errstate(monkeypatch):
    seen = []
    helper_drew = threading.Event()
    real = sde.step_noise

    def noise(seed, step, n, m, out=None):
        seen.append((threading.current_thread().name, np.geterr()["over"]))
        if threading.current_thread() is not threading.main_thread():
            helper_drew.set()
        return real(seed, step, n, m, out=out)

    monkeypatch.setattr(sde, "step_noise", noise)
    cfg = SimConfig(dt=0.1, horizon=1.0, seed=2, n_paths=4)
    with np.errstate(over="raise"):
        # the first drift waits until the helper has drawn a step
        simulate(_waiting_system(helper_drew), ZeroPolicy(2), np.zeros(2),
                 cfg)
    assert "featpde-noise" in {name for name, _ in seen}
    assert {over for _, over in seen} == {"raise"}


def test_own_source_filler_error_is_raised_on_the_calling_thread(
        monkeypatch):
    began = threading.Event()

    def fill(self):
        began.set()
        raise RuntimeError("the filler failed")

    monkeypatch.setattr(sde.DrawSource, "fill", fill)
    cfg = SimConfig(dt=0.1, horizon=1.0, seed=2, n_paths=4)
    # the march draws every step itself, then finds the filler's error
    with pytest.raises(RuntimeError, match="the filler failed"):
        simulate(_waiting_system(began), ZeroPolicy(2), np.zeros(2), cfg)


def test_csv_round_trip(tmp_path):
    sys3 = three_dim_literal()
    cfg = SimConfig(dt=0.25, horizon=0.5, seed=4, n_paths=2)
    batch = simulate(sys3, ZeroPolicy(3), np.array([1.0, 0.0, 1.0]), cfg)
    out = tmp_path / "paths.csv"
    batch.to_csv(str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "path,t,x1,x2,x3"
    assert len(lines) == 1 + 2 * 3
    first_col = [int(float(ln.split(",")[0])) for ln in lines[1:]]
    assert first_col == [0, 0, 0, 1, 1, 1]
    row = lines[2].split(",")
    assert float(row[1]) == 0.25
    vals = np.array([float(v) for v in row[2:]])
    assert np.array_equal(vals, batch.states[0, 1, :])


def test_reduced_domain_error_names_coordinate():
    red = build_reduced_sde(
        [lambda xi: 1.0 - xi],
        [lambda xi: 5.0 * np.ones_like(xi)],
        [(-1.0, 0.9)],
    )
    cfg = SimConfig(dt=0.01, horizon=5.0, seed=1, n_paths=64)
    with pytest.raises(DomainError, match="alpha_1"):
        simulate_reduced(red, np.zeros(1), cfg)


def test_nonfinite_drift_reports_path_and_step():
    bad = StochasticSystem(
        2,
        1,
        lambda x: np.full_like(x, np.nan),
        diffusion_const=np.zeros((2, 1)),
    )
    cfg = SimConfig(dt=0.1, horizon=0.2, seed=0, n_paths=3)
    with pytest.raises(SimulationError, match="path 0 at step 0"):
        simulate(bad, ZeroPolicy(1), np.zeros(2), cfg)


@pytest.mark.parametrize("layout", ["C", "F", "coordinate_major"])
def test_check_finite_flags_only_rows_holding_nan_or_inf(layout):
    # row 0's sum overflows to inf, but every value in it is finite
    rows = np.array([[1e308, 1e308, 0.0], [1.0, 2.0, 3.0]])

    def check(a):
        if layout == "coordinate_major":
            sde._check_finite(np.ascontiguousarray(a.T), 4, "drift",
                              coordinate_major=True)
        else:
            sde._check_finite(np.asarray(a, order=layout), 4, "drift")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check(rows)
        for value in (np.nan, np.inf, -np.inf):
            bad = rows.copy()
            bad[1, 1] = value
            with pytest.raises(SimulationError,
                               match="non-finite drift on path 1 at step 4"):
                check(bad)


def test_diffusion_shape_check():
    bad = StochasticSystem(
        2, 2, lambda x: np.zeros_like(x), diffusion=lambda x: np.ones((3, 2, 2))
    )
    cfg = SimConfig(dt=0.1, horizon=0.2, seed=0, n_paths=4)
    with pytest.raises(SimulationError, match="diffusion returned shape"):
        simulate(bad, ZeroPolicy(2), np.zeros(2), cfg)


def test_a_constant_diffusion_matrix_goes_in_diffusion_const():
    # a diffusion callable returns one matrix per state, never one for all
    cfg = SimConfig(dt=0.1, horizon=0.2, seed=0, n_paths=3)
    const = StochasticSystem(2, 2, np.zeros_like, diffusion=lambda x: np.eye(2))
    with pytest.raises(SimulationError, match=re.escape(
            "diffusion returned shape (2, 2), expected (3, 2, 2)")):
        simulate(const, ZeroPolicy(2), np.zeros(2), cfg)
    fixed = StochasticSystem(2, 2, np.zeros_like, diffusion_const=np.eye(2))
    assert simulate(fixed, ZeroPolicy(2), np.zeros(2), cfg).states.shape == (
        3, 3, 2)


def test_system_and_x0_validation():
    with pytest.raises(UsageError):
        StochasticSystem(0, 1, lambda x: x, diffusion_const=np.zeros((0, 1)))
    with pytest.raises(UsageError):
        StochasticSystem(2, 1, lambda x: x)  # no diffusion at all
    with pytest.raises(UsageError):
        StochasticSystem(
            2,
            1,
            lambda x: x,
            diffusion=lambda x: x,
            diffusion_const=np.zeros((2, 1)),
        )
    sys1 = StochasticSystem(
        2, 1, lambda x: np.zeros_like(x), diffusion_const=np.zeros((2, 1))
    )
    cfg = SimConfig(dt=0.1, horizon=0.2, seed=0, n_paths=1)
    with pytest.raises(UsageError, match="x0"):
        simulate(sys1, ZeroPolicy(1), np.zeros(3), cfg)


# --- the in-place full march against the one-expression reference ---------

_MATRIX = np.array([[0.5, 0.0, 0.2], [0.1, 1.0, 0.0],
                    [0.0, -0.3, 0.7], [0.4, 0.2, 0.1]])

# (diffusion keyword, its value, control dimension) of each noise branch;
# "state_view" returns a read-only view of the state
_NOISE = {
    "unit": ("diffusion_const", np.eye(4), 4),
    "diagonal": ("diffusion_const", np.diag([0.5, 1.5, 2.0, 0.25]), 4),
    "matrix": ("diffusion_const", _MATRIX, 3),
    "state": ("diffusion",
              lambda x: np.tanh(x)[:, :, None] * 0.2 + _MATRIX, 3),
    "state_view": ("diffusion",
                   lambda x: np.broadcast_to(x[:, :, None], x.shape + (3,)),
                   3),
}

# drifts returning a C array, an F array and a view of their input
_DRIFTS = {
    "C": lambda x: np.ascontiguousarray(-0.7 * x + 0.2),
    "F": lambda x: np.asfortranarray(-0.7 * x + 0.2),
    "view": lambda x: x[:, ::-1],
}


def _recorder(log):
    def observer(s, t, x, z):
        log.append((s, t, x.strides, x.tobytes(),
                    None if z is None else z.tobytes()))
    return observer


def _assert_march_is_the_reference(system, policy, x0, cfg):
    got, want = [], []
    end = sde._run_full(system, policy, x0, cfg, 0.5, _recorder(got))
    ref = full_march(system, policy, x0, cfg, 0.5, _recorder(want))
    assert len(got) == cfg.steps + 1
    assert got == want
    assert end.strides == ref.strides
    assert end.tobytes() == ref.tobytes()
    return got


@pytest.mark.parametrize("n_paths", [7, 9000])  # 9000 x 4 is above 256 KiB
@pytest.mark.parametrize("drift", sorted(_DRIFTS))
@pytest.mark.parametrize("controlled", [False, True])
@pytest.mark.parametrize("noise", sorted(_NOISE))
def test_full_march_equals_the_one_expression_march(noise, controlled, drift,
                                                    n_paths):
    key, value, m = _NOISE[noise]
    system = StochasticSystem(4, m, _DRIFTS[drift], **{key: value})
    if controlled:
        # a view of the state, as the drift may return
        policy = ControlPolicy(lambda x, t: x[:, ::-1][:, :m])
    else:
        policy = ZeroPolicy(m)
    cfg = SimConfig(dt=0.01, horizon=0.04, seed=3, n_paths=n_paths)
    _assert_march_is_the_reference(system, policy, [0.3, -1.0, 0.5, 2.0],
                                   cfg)


@pytest.mark.parametrize("n_paths", [1, 32, 33, 200])
def test_thousand_dim_march_equals_the_reference_around_elision(n_paths):
    p = get_preset("sys1000d-value")
    cfg = SimConfig(dt=1e-2, horizon=0.03, seed=6, n_paths=n_paths)
    got = _assert_march_is_the_reference(
        p.system, ZeroPolicy(1000), p.x0_of_xi(np.array([1.5, 1.5])), cfg)
    # a state of 33 or more paths (over 256 KiB) is F-ordered after step 1
    later = (8, 8 * n_paths) if n_paths > 32 else (8000, 8)
    assert [entry[2] for entry in got] == [(8000, 8)] + [later] * 3
