import os
import threading

import numpy as np
import pytest

import featpde

# the directory holding the featpde this process imported
_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(featpde.__file__)))


def child_env(**extra):
    """This process's environment plus ``extra``, for a child Python that
    must import the same featpde: its directory goes first on PYTHONPATH,
    since a relative PYTHONPATH does not resolve from the child's working
    directory."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PKG_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def numeric_grad(f, x, step=1e-6):
    """Central-difference gradient of scalar f at 1-D point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def assert_close(actual, expected, rel=1e-9, abs_=0.0, msg=""):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    tol = abs_ + rel * (1.0 + np.abs(expected))
    err = np.abs(actual - expected)
    assert np.all(err <= tol), (
        f"{msg} max err {err.max():.3e} tol {np.min(tol):.3e}\n"
        f"actual={actual}\nexpected={expected}"
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_stray_threads():
    """Fail any test that leaves a thread alive: every helper thread of a
    Monte Carlo march is joined before the march returns or raises."""
    before = set(threading.enumerate())
    yield
    extra = [t.name for t in threading.enumerate() if t not in before]
    if extra:
        pytest.fail(f"threads left alive after the test: {extra}")
