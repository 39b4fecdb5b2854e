"""Controlled stochastic systems and Euler-Maruyama simulation.

Full systems follow ``dx = f(x) dt + sigma(x) (u dt + dW)``; reduced feature
systems follow per-coordinate ``dxi_i = alpha_i(xi) beta_i(xi) dt +
sqrt(alpha_i(xi)) dB_i``.

Drift, diffusion, alpha and beta callables are vectorized: they accept a
batch of states shaped (N, d) and return (N, d), (N, d, m) and (N,)
respectively.  A plain (d,) vector works too.  A constant (d, m) diffusion
matrix is given as ``diffusion_const``, not returned by ``diffusion``.

Randomness is counter-based: every generator featpde makes is
``stream(seed, tag)``, Philox keyed by (seed, tag).  The Gaussian increments
for step ``s`` of a run come from tag ``s``, and path ``i`` reads row ``i``
of that step's (N, m) draw.  Every other draw reads one of the named tags
declared beside ``stream``.  Consequences used elsewhere in the package:

* path ``i``'s noise sequence is a pure function of (seed, i) -- independent
  across paths, reproducible, and unchanged when N grows or shrinks;
* extending the horizon appends steps without disturbing earlier ones, so
  survival indicators are comparable path-by-path across horizons;
* simulating with a different control policy under the same seed reuses the
  identical increments (Girsanov-style reuse for importance sampling);
* a block of P start points of the reduced SDE is marched as one (P*N, k)
  state with one draw per step shared by every point, so each point's paths
  equal those of its own one-point run bit for bit.  This needs alpha and
  beta (and any observer's r) to act row by row, as the contract above
  already requires.  A ``Constant`` alpha coordinate is not evaluated
  row by row: its noise term is computed once per path and broadcast over
  the block's start points;
* every march, alone or as a block of a grid, runs in ``_march_rounds``:
  marches 2j and 2j + 1 are the two readers of one ``DrawSource``, and a
  march without a partner reads one whose filler draws ahead; the second
  of each round runs on a ``handoff`` helper.  A source draws each step
  once, by
  whichever thread asks first.  Outputs do not change, because a draw
  depends only on (seed, step).  The draws live in a ring of
  ``_AHEAD + 1`` buffers, so the ``z`` an observer receives is read-only
  and valid only during that call, as is the reduced state ``xi``;
* the full march updates its state in place after the first step's
  ``x + f * dt``, in the memory layout numpy gave that sum (so the bits of
  any row sum an observer takes are those of a march that makes a new
  array each step), and the ``x`` an observer receives is likewise valid
  only during that call.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SimulationError, UsageError
from .grid import write_csv
from .handoff import _Helper, run_pair

__all__ = [
    "Constant",
    "StochasticSystem",
    "ControlPolicy",
    "ZeroPolicy",
    "SimConfig",
    "TrajectoryBatch",
    "simulate",
    "simulate_reduced",
    "step_noise",
    "stream",
]

# Steps a draw source may draw past its slowest reader; its ring holds
# _AHEAD + 1 step draws.
_AHEAD = 3


@dataclass(frozen=True)
class Constant:
    """A coefficient that takes ``value`` at every state.

    A call returns ``value`` in the shape of its argument, like any other
    vectorized coefficient.  The reduced march reads ``value`` instead, so
    a constant alpha is checked and square-rooted once per coordinate and
    step, and its noise term is computed once per path.
    """

    value: float

    def __call__(self, s):
        return np.full_like(np.asarray(s, dtype=np.float64), self.value)


@dataclass
class StochasticSystem:
    """Drift/diffusion description of a controlled diffusion.

    ``drift``: states (N, n) -> (N, n).  ``diffusion``: states (N, n) ->
    (N, n, m).  State-independent noise is a constant (n, m) array in
    ``diffusion_const`` instead, which the march takes a fast path for.
    It may be a read-only view; featpde never writes to it.
    """

    state_dim: int
    control_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diffusion_const: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.state_dim <= 0 or self.control_dim <= 0:
            raise UsageError("state_dim and control_dim must be positive")
        if (self.diffusion is None) == (self.diffusion_const is None):
            raise UsageError(
                "exactly one of diffusion / diffusion_const is required"
            )
        if self.diffusion_const is not None:
            self.diffusion_const = np.asarray(
                self.diffusion_const, dtype=np.float64
            )
            if self.diffusion_const.shape != (self.state_dim, self.control_dim):
                raise UsageError(
                    f"diffusion_const must be (n, m) = "
                    f"({self.state_dim}, {self.control_dim})"
                )

    def sigma_at(self, x: np.ndarray) -> np.ndarray:
        """Diffusion matrix batch (N, n, m) at states (N, n)."""
        if self.diffusion_const is not None:
            return np.broadcast_to(
                self.diffusion_const,
                (x.shape[0], self.state_dim, self.control_dim),
            )
        out = np.asarray(self.diffusion(x), dtype=np.float64)
        if out.shape != (x.shape[0], self.state_dim, self.control_dim):
            raise SimulationError(
                f"diffusion returned shape {out.shape}, expected "
                f"({x.shape[0]}, {self.state_dim}, {self.control_dim})"
            )
        return out


class ControlPolicy:
    """State-feedback control u(x, t): (N, n), t -> (N, m)."""

    def __init__(self, policy: Callable[[np.ndarray, float], np.ndarray]):
        self._policy = policy

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self._policy(x, t), dtype=np.float64)


class ZeroPolicy(ControlPolicy):
    """The uncontrolled policy u == 0 (sampling measure for path integrals)."""

    def __init__(self, control_dim: int):
        self.control_dim = control_dim
        super().__init__(lambda x, t: np.zeros((x.shape[0], control_dim)))


@dataclass(frozen=True)
class SimConfig:
    """Time step, horizon, seed and path count for one simulation run."""

    dt: float
    horizon: float
    seed: int
    n_paths: int

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise UsageError("dt and horizon must be positive")
        for name in ("seed", "n_paths"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if self.n_paths <= 0:
            raise UsageError("n_paths must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise UsageError("seed must fit in 64 unsigned bits")
        steps = round(self.horizon / self.dt)
        if steps < 1 or abs(steps * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise UsageError(
                f"horizon {self.horizon} is not an integer number of steps "
                f"of dt={self.dt} (within 1e-9 relative)"
            )

    @property
    def steps(self) -> int:
        return round(self.horizon / self.dt)


@dataclass
class TrajectoryBatch:
    """N paths on a shared uniform time grid; states is (N, steps+1, d)."""

    times: np.ndarray
    states: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def to_csv(self, path: str) -> str:
        """Rows `path,t,x1,...,xd`, path-major then time."""
        n, s, d = self.states.shape
        header = "path,t," + ",".join(f"x{i + 1}" for i in range(d))
        idx = np.repeat(np.arange(n), s)
        tt = np.tile(self.times, n)
        flat = self.states.reshape(n * s, d)
        return write_csv(path, header, np.column_stack([idx, tt, flat]),
                         ["%d"] + ["%.17g"] * (d + 1))


# The named tags of ``stream``, each declared here and nowhere else.  Step s
# of a march reads tag s, so a march of more steps than a tag's value also
# reads that tag's stream.
INIT_TAG = 0  # every network's Glorot initialisation
SUBSAMPLE_TAG = 0xA11  # train-features' state subsample
REDUCTION_TAG = 0x5EDC  # an encoder reduction's sampled states
AE_BATCH_TAG = 0xFEA7  # the autoencoder's batches
PINN_BATCH_TAG = 0xBA7C4  # the PINN's data batches
COLLOCATION_TAG = 0xC0110C  # the PINN's collocation points
BOOTSTRAP_TAG = 2**32 + 1  # the control refinement's bootstrap


def stream(seed: int, tag: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, tag); both must be integers
    (Python or numpy) in [0, 2**64)."""
    try:
        # as Python ints, which numpy refuses out of range; a numpy word
        # would be cast, -1 to 2**64 - 1
        key = np.array([operator.index(seed), operator.index(tag)],
                       dtype=np.uint64)
    except (TypeError, OverflowError):
        raise UsageError(f"the Philox key (seed {seed}, tag {tag}) must be "
                         f"in [0, 2**64)") from None
    return np.random.Generator(np.random.Philox(key=key))


def step_noise(seed: int, step: int, n: int, m: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard-normal increments (n, m) for one step; pure in (seed, step).
    With ``out`` (a C-contiguous float64 (n, m) array) the draw is written
    there, with the same bits, and ``out`` is returned."""
    return stream(seed, step).standard_normal((n, m), out=out)


class DrawSource:
    """The (n, m) step draws of one run, steps 0 .. steps - 1 of ``seed``,
    shared by ``readers`` marches that each take every step in order.

    Each step is drawn once, by whichever thread needs it first.  A reader
    whose step is not ready draws the next unclaimed step itself, and waits
    only when no step may be drawn; ``fill`` draws ahead on a helper thread.
    At most ``_AHEAD`` steps past the slowest reader are drawn, into a ring
    of ``_AHEAD + 1`` buffers, so the draw ``take`` returns is valid until
    that reader's next ``take``.  A failed draw is raised to each reader of
    its step.  A reader that is done, or raises, must ``leave``, so that
    the window no longer waits for it.
    """

    def __init__(self, seed: int, n: int, m: int, steps: int,
                 readers: int = 1):
        self._seed = seed
        self._shape = (n, m)
        self._steps = steps
        self._pos = dict.fromkeys(range(readers), 0)  # reader -> its step
        self._next = 0  # the first unclaimed step
        self._ring = [None] * (_AHEAD + 1)
        self._held = [-1] * (_AHEAD + 1)  # the step each buffer holds
        self._errors = {}
        self._cond = threading.Condition()

    def _claim(self) -> Optional[int]:
        """Claim the next step if the window allows (lock held)."""
        c = self._next
        if c >= self._steps or not self._pos:
            return None
        if c > min(self._pos.values()) + _AHEAD:
            return None
        self._next += 1
        return c

    def _draw(self, step: int):
        slot = step % len(self._ring)
        try:
            if self._ring[slot] is None:
                self._ring[slot] = np.empty(self._shape)
            step_noise(self._seed, step, *self._shape, out=self._ring[slot])
        except Exception as err:
            with self._cond:
                self._errors[step] = err
                self._cond.notify_all()
            return
        with self._cond:
            self._held[slot] = step
            self._cond.notify_all()

    def take(self, reader: int, step: int) -> np.ndarray:
        """The read-only draw of ``step`` for ``reader``, which is done with
        every earlier step."""
        slot = step % len(self._ring)
        with self._cond:
            self._pos[reader] = step
            self._cond.notify_all()
        while True:
            with self._cond:
                claimed = None
                while claimed is None and not (
                        step in self._errors or self._held[slot] == step):
                    claimed = self._claim()
                    if claimed is None:
                        self._cond.wait()
                if claimed is None:
                    if step in self._errors:
                        raise self._errors[step]
                    z = self._ring[slot].view()
                    z.flags.writeable = False
                    return z
            self._draw(claimed)

    def fill(self):
        """Draw ahead of the readers until every step is claimed or every
        reader has left."""
        while True:
            with self._cond:
                claimed = self._claim()
                while (claimed is None and self._pos
                       and self._next < self._steps):
                    self._cond.wait()
                    claimed = self._claim()
            if claimed is None:
                return
            self._draw(claimed)

    def leave(self, reader: int):
        with self._cond:
            self._pos.pop(reader, None)
            self._cond.notify_all()


def _march_rounds(marches, cfg, m, helper=None):
    """The results, in order, of each ``march(take)`` on the (cfg.n_paths,
    m) step draws of ``cfg``; ``take(step)`` reads the march's source.

    Marches 2j and 2j + 1 are readers 0 and 1 of one ``DrawSource``, run
    through ``handoff.run_pair`` on the calling thread and ``helper``
    (without one, a ``featpde-noise`` helper of this call's own), which
    fills the source of a march without a partner.  Each reader leaves
    when done or raising.  March 2j can wait in the draw window for reader
    1, so the helper must begin a handed round at once, as an idle one
    does.  The error raised is the one a single march of all their rows
    would raise: the earliest ``march_position`` (errors raised outside
    the march rank last), then the lowest march's.
    """
    if helper is None:
        with _Helper("featpde-noise") as helper:
            return _march_rounds(marches, cfg, m, helper)

    def run(march, source, reader):
        try:
            return march(functools.partial(source.take, reader))
        except Exception as err:
            return err
        finally:
            # also when the march raises before it reads a step
            source.leave(reader)

    results = []
    for j in range(0, len(marches), 2):
        pair = marches[j:j + 2]
        source = DrawSource(cfg.seed, cfg.n_paths, m, cfg.steps, len(pair))
        mine = functools.partial(run, pair[0], source, 0)
        theirs = (functools.partial(run, pair[1], source, 1)
                  if len(pair) == 2 else source.fill)
        results += run_pair(helper, mine, theirs)[:len(pair)]
    errors = [(getattr(res, "march_position", (np.inf,)), b)
              for b, res in enumerate(results) if isinstance(res, Exception)]
    if errors:
        raise results[min(errors)[1]]
    return results


def _check_finite(x: np.ndarray, step: int, what: str, starts=None,
                  coordinate_major=False):
    """Raise on the first row of ``x`` that holds a NaN or an inf (rows
    along axis 0, or along axis 1 of a (k, rows) array if
    ``coordinate_major``); with ``starts`` (P, k), row j is path j % N of
    start point j // N.  One sum over all of ``x`` clears the common case;
    the rows are searched only when it is not finite, and a sum that
    overflows on finite values raises nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.add.reduce(x, axis=None)):
            return
    if coordinate_major:
        bad = ~np.isfinite(x).all(axis=0)
    else:
        bad = ~np.isfinite(x.reshape(x.shape[0], -1)).all(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        row = x[:, i] if coordinate_major else x[i]
        raise SimulationError(
            f"non-finite {what} on {_path_name(i, bad.size, starts)} at "
            f"step {step}: state/value row {np.asarray(row).ravel()[:8]}"
        )


def _path_name(j: int, rows: int, starts) -> str:
    if starts is None:
        return f"path {j}"
    n = rows // len(starts)
    return f"path {j % n} of start point {starts[j // n]}"


def _is_diagonal(a) -> bool:
    """Whether the square ``a`` equals ``np.diag(np.diagonal(a))``, found
    without building that matrix: no NaN on the diagonal and no nonzero
    entry off it (-0.0 counts as zero in both)."""
    d = np.diagonal(a)
    return (not np.isnan(d).any()
            and np.count_nonzero(a) == np.count_nonzero(d))


def _run_full(system, policy, x0, cfg, t0, observer, take=None):
    """March the full system, calling observer(step, t, x, z) each step.

    ``observer`` is called once with (0, t0, x, None) for the initial state,
    then after every Euler-Maruyama update with the post-step state and the
    standard-normal draw that produced it.  Step s's draw is ``take(s)``,
    the march's reader in a ``_march_rounds`` round; without ``take`` the
    march is a one-march round of its own.

    Each update is ``(x + f * dt) + noise``, rounded in that order, with
    ``noise = (u * dt + z * sqrt(dt))`` times the diffusion; a ``ZeroPolicy``
    march adds no control term.  The first update's ``x + f * dt`` makes a
    new array, and numpy picks its memory layout: F for the sparse 1000-d
    drift once the state reaches 256 KiB, where the sum is written into the
    ``f * dt`` temporary, and C below that.  Everything else is added in
    place in that array, through one scratch of the same layout, so the
    state keeps that layout at every step, as a march that makes a new
    array per step would, and every row sum an observer takes keeps its
    bits.  A constant diagonal diffusion copies each step draw into that
    layout once and scales it in place (not at all for the identity); any
    other noise term is formed before the state changes.  No array the
    drift, control or diffusion returns is written to.  The ``x`` an
    observer receives, like ``z``, is valid only during that call.
    """
    if take is None:
        return _march_rounds([functools.partial(
            _run_full, system, policy, x0, cfg, t0, observer)],
            cfg, system.control_dim)[0]
    n = cfg.n_paths
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (system.state_dim,):
        raise UsageError(
            f"x0 must have length {system.state_dim}, got shape {x0.shape}"
        )
    x = np.tile(x0, (n, 1))
    dt = cfg.dt
    sq = np.sqrt(dt)
    const_diag = None
    if (system.diffusion_const is not None
            and system.state_dim == system.control_dim
            and _is_diagonal(system.diffusion_const)):
        const_diag = np.diagonal(system.diffusion_const).copy()
    # scaling by an identity diffusion's ones changes no bit, so it is skipped
    unit_diag = const_diag is not None and bool((const_diag == 1.0).all())
    uncontrolled = isinstance(policy, ZeroPolicy)
    scratch = None  # made after the first drift step, in its layout
    observer(0, t0, x, None)
    for s in range(cfg.steps):
        t = t0 + s * dt
        z = take(s)
        f = np.asarray(system.drift(x), dtype=np.float64)
        _check_finite(f, s, "drift")
        u_dt = None if uncontrolled else policy(x, t) * dt
        if const_diag is None:
            # formed before the state changes, which sigma may view
            noise = z * sq if u_dt is None else u_dt + z * sq
            if system.diffusion_const is not None:
                noise = noise @ system.diffusion_const.T
            else:
                sig = system.sigma_at(x)
                _check_finite(sig, s, "diffusion")
                noise = np.einsum("nij,nj->ni", sig, noise)
        if scratch is None:
            x = x + f * dt
            scratch = np.empty_like(x)
        else:
            np.multiply(f, dt, out=scratch)
            x += scratch
        del f  # free it before the noise term
        if const_diag is not None:
            np.copyto(scratch, z)
            scratch *= sq
            if u_dt is not None:
                scratch += u_dt
            if not unit_diag:
                scratch *= const_diag
            noise = scratch
        x += noise
        del u_dt, noise  # free them before the next step's drift
        observer(s + 1, t + dt, x, z)
    return x


def _run_reduced(reduced, starts, cfg, t0, observer, take=None):
    """March the reduced feature SDE (diagonal, per-coordinate alpha/beta)
    from a block of P start points (P, k), N = cfg.n_paths paths each.

    Row j of the block is path j % N of start point j // N, and every start
    point reads the same step draw, so each point's paths are exactly those
    of a one-point run.  Step s's draw is ``take(s)``, as in ``_run_full``.
    The state is kept coordinate-major, (k, P*N), in two buffers that take
    turns; ``observer(step, t, xi, z)`` sees it as a (P*N, k) view and z as
    the read-only step draw, both valid only during the call.

    Coordinate i's update is ``(xi + (a * b) * dt) + (sqrt(a) * z) * sqrt(dt)``
    with a = alpha_i and b = beta_i at the rows, rounded in that order.  For
    a ``Constant`` alpha, a is its one value: the positivity check and the
    square root are taken once, and the noise term is computed once per path
    and broadcast over the block's P start points.  Any other alpha is
    evaluated, checked and square-rooted row by row.

    An exception raised while marching carries ``march_position``, the
    (step, stage) it was raised at: stage i < k is coordinate i's update,
    k the drift check and k + 1 the observer that follows (the initial
    observer is at (-1, k + 1)).  ``_march_rounds`` orders the errors of
    several blocks by it.
    """
    if take is None:
        return _march_rounds([functools.partial(
            _run_reduced, reduced, starts, cfg, t0, observer)],
            cfg, reduced.k)[0]
    k = reduced.k
    starts = np.asarray(starts, dtype=np.float64)
    if starts.ndim != 2 or starts.shape[1] != k:
        raise UsageError(
            f"start points must be (P, {k}), got shape {starts.shape}"
        )
    n = cfg.n_paths
    p = starts.shape[0]
    xi = np.repeat(starts, n, axis=0).T.copy()
    dt = cfg.dt
    sq = np.sqrt(dt)
    new = np.empty_like(xi)
    drift = np.empty_like(xi)
    where = (-1, k + 1)
    try:
        observer(0, t0, xi.T, None)
        for s in range(cfg.steps):
            z = take(s)
            for i in range(k):
                where = (s, i)
                alpha = reduced.alpha[i]
                if isinstance(alpha, Constant):
                    a = np.float64(alpha.value)
                else:
                    a = np.asarray(alpha(xi[i]), dtype=np.float64)
                bad = ~(a > 0)
                if bad.any():
                    j = int(np.flatnonzero(bad)[0])
                    raise DomainError(
                        f"alpha_{i + 1} <= 0 at xi_{i + 1} = "
                        f"{xi[i, j]:.6g} ({_path_name(j, p * n, starts)}, "
                        f"step {s})"
                    )
                b = np.asarray(reduced.beta[i](xi[i]), dtype=np.float64)
                np.multiply(a, b, out=drift[i])
                # xi + drift * dt + sqrt(a) * z * sq, rounded in that order
                np.multiply(drift[i], dt, out=new[i])
                new[i] += xi[i]
                root = np.sqrt(a)
                if root.ndim:
                    root = root.reshape(p, n)
                block = new[i].reshape(p, n)
                block += root * z[:, i] * sq
            where = (s, k)
            _check_finite(drift, s, "reduced drift", starts,
                          coordinate_major=True)
            xi, new = new, xi
            where = (s, k + 1)
            observer(s + 1, t0 + (s + 1) * dt, xi.T, z)
    except Exception as err:
        err.march_position = where
        raise
    return xi.T


def simulate(
    system: StochasticSystem,
    policy: ControlPolicy,
    x0,
    cfg: SimConfig,
    t0: float = 0.0,
) -> TrajectoryBatch:
    """Euler-Maruyama paths of the full system; materializes all states."""
    times = t0 + cfg.dt * np.arange(cfg.steps + 1)
    states = np.empty((cfg.n_paths, cfg.steps + 1, system.state_dim))

    def observer(s, t, x, z):
        states[:, s, :] = x

    _run_full(system, policy, x0, cfg, t0, observer)
    return TrajectoryBatch(times=times, states=states)


def simulate_reduced(reduced, xi0, cfg: SimConfig, t0: float = 0.0) -> TrajectoryBatch:
    """Euler-Maruyama paths of a reduced feature SDE."""
    times = t0 + cfg.dt * np.arange(cfg.steps + 1)
    states = np.empty((cfg.n_paths, cfg.steps + 1, reduced.k))

    def observer(s, t, xi, z):
        states[:, s, :] = xi

    _run_reduced(reduced, np.asarray(xi0, dtype=np.float64)[None], cfg, t0,
                 observer)
    return TrajectoryBatch(times=times, states=states)
