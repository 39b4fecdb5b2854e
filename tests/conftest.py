import os
import threading

import numpy as np
import pytest

import featpde
from featpde import handoff

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
    march or training loop is joined before it returns or raises."""
    before = set(threading.enumerate())
    yield
    extra = [t.name for t in threading.enumerate() if t not in before]
    if extra:
        pytest.fail(f"threads left alive after the test: {extra}")


class EagerHelper(handoff._Helper):
    """A helper that has run each handed call before ``hand`` returns, so
    the calling thread never takes one back."""

    def __init__(self):
        super().__init__("featpde-test-eager")

    def hand(self, fn, *args):
        done = threading.Event()

        def run(*a):
            try:
                return fn(*a)
            finally:
                done.set()

        call = super().hand(run, *args)
        assert done.wait(timeout=20), "the helper did not run the call"
        return call


class LateHelper(handoff._Helper):
    """A helper that serves nothing until its ``with`` block ends, so the
    calling thread takes every handed call back and runs it itself."""

    def __init__(self):
        super().__init__("featpde-test-late")
        self._free = threading.Event()

    def _serve(self):
        self._free.wait(timeout=20)
        super()._serve()

    def __exit__(self, *exc):
        self._free.set()
        super().__exit__(*exc)


@pytest.fixture(params=["serial", "eager", "late"])
def train_helper(request):
    """No helper, a helper that runs every handed term, or one that runs
    none of them; the helper is joined when the test ends."""
    if request.param == "serial":
        yield None
        return
    with {"eager": EagerHelper, "late": LateHelper}[request.param]() as h:
        yield h
