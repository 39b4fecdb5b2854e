"""Feature-map reduction: generator coefficients a, b, level-set assumption
checks, and construction of the reduced per-coordinate SDE.

For a feature p_i and control policy U the generator drift is

    A^U p_i(x) = Dp_i . f(x) + Dp_i . sigma(x) U(x) + 1/2 Tr(D^2 p_i sigma sigma^T)

and the level diffusion coefficient is a_i(x) = Dp_i sigma sigma^T Dp_i^T.
When a_i and b_i = A^U p_i / a_i are constant on every level set of p_i (and
positive / Lipschitz respectively), the feature process is exactly the scalar
SDE dxi_i = alpha_i(xi_i) beta_i(xi_i) dt + sqrt(alpha_i(xi_i)) dB_i.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import json
import os

import numpy as np

from .errors import (
    AssumptionViolationError,
    DomainError,
    EmptyLevelSetError,
    UsageError,
)
from .neural import DenseNetwork, derivatives_batch, forward
from .sde import ControlPolicy, StochasticSystem

__all__ = [
    "FeatureMap",
    "GeneratorCoefficients",
    "ReducedSde",
    "AssumptionReport",
    "LevelSetSampler",
    "apply_generator",
    "coeff_a",
    "coeff_b",
    "generator_coefficients",
    "level_set_bounds",
    "check_assumptions",
    "build_reduced_sde",
    "feature_map_from_encoder",
    "verify_feature_derivatives",
]


@dataclass
class FeatureMap:
    """Smooth feature function with derivative access.

    ``p``: states (N, n) -> (N, k).  ``grad_p``: (N, n) -> (N, k, n).
    ``hess_p``: single state (n,) and feature index -> (n, n).
    ``synthesized`` marks finite-difference derivatives (self-check skipped).
    """

    k: int
    n: int
    p: Callable[[np.ndarray], np.ndarray]
    grad_p: Callable[[np.ndarray], np.ndarray]
    hess_p: Callable[[np.ndarray, int], np.ndarray]
    synthesized: bool = False

    @classmethod
    def from_functions(cls, k, n, p, grad_p=None, hess_p=None):
        """Wrap a feature function, synthesizing missing derivatives by
        central differences (step 1e-5 * (1 + |x|), per component)."""
        synthesized = grad_p is None or hess_p is None

        def fd_grad(xb):
            xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
            out = np.empty((xb.shape[0], k, n))
            for j in range(n):
                h = 1e-5 * (1.0 + np.abs(xb[:, j]))
                xp = xb.copy()
                xp[:, j] += h
                xm = xb.copy()
                xm[:, j] -= h
                out[:, :, j] = (p(xp) - p(xm)) / (2.0 * h)[:, None]
            return out

        g = grad_p if grad_p is not None else fd_grad

        def fd_hess(x, i):
            x = np.asarray(x, dtype=np.float64)
            rows = np.empty((n, n))
            for j in range(n):
                h = 1e-5 * (1.0 + abs(x[j]))
                xp = x.copy()
                xp[j] += h
                xm = x.copy()
                xm[j] -= h
                rows[j] = (g(xp[None])[0, i] - g(xm[None])[0, i]) / (2.0 * h)
            return 0.5 * (rows + rows.T)

        return cls(
            k=k,
            n=n,
            p=p,
            grad_p=g,
            hess_p=hess_p if hess_p is not None else fd_hess,
            synthesized=synthesized,
        )


def verify_feature_derivatives(fm: FeatureMap, probes: np.ndarray, rtol=1e-5):
    """Check grad_p/hess_p against central differences of p at the probes.

    Raises AssumptionViolationError on disagreement.  Skipped (returns False)
    for synthesized derivatives, which would be compared against themselves.
    """
    if fm.synthesized:
        return False
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    ref = FeatureMap.from_functions(fm.k, fm.n, fm.p)
    g = fm.grad_p(probes)
    g_fd = ref.grad_p(probes)
    err = np.abs(g - g_fd) / (1.0 + np.abs(g_fd))
    if err.max() > rtol:
        raise AssumptionViolationError(
            f"feature gradient disagrees with finite differences "
            f"(max rel err {err.max():.3e} > {rtol:g})"
        )
    for x in probes:
        for i in range(fm.k):
            h = fm.hess_p(x, i)
            h_fd = ref.hess_p(x, i)
            herr = np.abs(h - h_fd) / (1.0 + np.abs(h_fd))
            if herr.max() > 100 * rtol:  # second differences are noisier
                raise AssumptionViolationError(
                    f"feature Hessian (coordinate {i + 1}) disagrees with "
                    f"finite differences (max rel err {herr.max():.3e})"
                )
    return True


@dataclass
class GeneratorCoefficients:
    """Level coefficients as callables a(x, i), b(x, i)."""

    a: Callable[[np.ndarray, int], float]
    b: Callable[[np.ndarray, int], float]


@dataclass
class ReducedSde:
    """k scalar feature SDEs: per-coordinate alpha, beta on ranges I_i."""

    k: int
    alpha: Sequence[Callable]
    beta: Sequence[Callable]
    ranges: Sequence[tuple]


def apply_generator(
    system: StochasticSystem,
    policy: ControlPolicy,
    fm: FeatureMap,
    i: int,
    x: np.ndarray,
) -> float:
    """Generator drift A^U p_i(x); the policy is frozen at t = 0."""
    x = np.asarray(x, dtype=np.float64)
    x1 = x[None]
    jac = fm.grad_p(x1)[0, i]  # (n,)
    f = np.asarray(system.drift(x1), dtype=np.float64)[0]
    sig = system.sigma_at(x1)[0]
    u = policy(x1, 0.0)[0]
    hess = fm.hess_p(x, i)
    ito = 0.5 * float(np.sum(hess * (sig @ sig.T)))
    return float(jac @ f + jac @ (sig @ u) + ito)


def coeff_a(system: StochasticSystem, fm: FeatureMap, i: int, x) -> float:
    """Level diffusion a_i(x) = Dp_i sigma sigma^T Dp_i^T (must be > 0)."""
    x = np.asarray(x, dtype=np.float64)
    x1 = x[None]
    jac = fm.grad_p(x1)[0, i]
    sig = system.sigma_at(x1)[0]
    a = float(np.sum((sig.T @ jac) ** 2))
    if not a > 0.0:
        raise AssumptionViolationError(
            f"diffusion coefficient a_{i + 1}(x) = {a:.6g} is not positive "
            f"at x = {x.ravel()[:8]}"
        )
    return a


def coeff_b(
    system: StochasticSystem,
    policy: ControlPolicy,
    fm: FeatureMap,
    i: int,
    x,
) -> float:
    """Level drift b_i(x) = A^U p_i(x) / a_i(x)."""
    return apply_generator(system, policy, fm, i, x) / coeff_a(system, fm, i, x)


def generator_coefficients(
    system: StochasticSystem, policy: ControlPolicy, fm: FeatureMap
) -> GeneratorCoefficients:
    return GeneratorCoefficients(
        a=lambda x, i: coeff_a(system, fm, i, x),
        b=lambda x, i: coeff_b(system, policy, fm, i, x),
    )


@dataclass(frozen=True)
class LevelSetSampler:
    """Uniform rejection sampling over a box for level-set probing.

    ``band`` defaults to 1e-3 times the sampled feature range.  The uniform
    stream is counter-based, so growing ``n_samples`` extends the same
    sequence (bounds are monotone in the sample count).
    """

    box_min: tuple
    box_max: tuple
    n_samples: int = 4096
    band: Optional[float] = None
    seed: int = 0

    def draw(self, n_dim: int) -> np.ndarray:
        lo = np.asarray(self.box_min, dtype=np.float64)
        hi = np.asarray(self.box_max, dtype=np.float64)
        if lo.shape != (n_dim,) or hi.shape != (n_dim,):
            raise UsageError("sampler box does not match state dimension")
        gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        )
        return lo + (hi - lo) * gen.uniform(size=(self.n_samples, n_dim))


def level_set_bounds(
    system: StochasticSystem,
    policy: ControlPolicy,
    fm: FeatureMap,
    i: int,
    xi: float,
    sampler: LevelSetSampler,
):
    """Empirical (a-, a+, b-, b+) over sampled states with p_i(x) near xi."""
    pts = sampler.draw(fm.n)
    vals = fm.p(pts)[:, i]
    width = float(vals.max() - vals.min())
    band = sampler.band if sampler.band is not None else 1e-3 * max(width, 1e-12)
    keep = np.abs(vals - xi) <= band
    if not keep.any():
        raise EmptyLevelSetError(
            f"no probe point with |p_{i + 1}(x) - {xi:.6g}| <= {band:.3g} "
            f"among {sampler.n_samples} samples"
        )
    sel = pts[keep]
    a_vals = np.array([coeff_a(system, fm, i, x) for x in sel])
    b_vals = np.array(
        [apply_generator(system, policy, fm, i, x) for x in sel]
    ) / a_vals
    return (
        float(a_vals.min()),
        float(a_vals.max()),
        float(b_vals.min()),
        float(b_vals.max()),
    )


def _project_to_level(fm: FeatureMap, i: int, x: np.ndarray, xi: float,
                      newton_steps: int = 2) -> np.ndarray:
    """Move x onto the exact level set {p_i = xi} along the feature gradient.

    Band-accepted probes sit within 1e-3 of the level, which dominates the
    coefficient spread for any xi-dependent b; one or two Newton steps remove
    that bias so the spread measures level-set constancy only.
    """
    y = np.asarray(x, dtype=np.float64).copy()
    for _ in range(newton_steps):
        g = fm.grad_p(y[None])[0, i]
        gn = float(g @ g)
        if not gn > 0:
            break
        y = y + (xi - float(fm.p(y[None])[0, i])) / gn * g
    return y


@dataclass
class LevelEntry:
    coordinate: int
    xi: float
    a_minus: float
    a_plus: float
    b_minus: float
    b_plus: float
    verdict: str


@dataclass
class AssumptionReport:
    """Per-level spreads of a and b plus Lipschitz estimates of alpha, beta."""

    entries: list
    lipschitz_alpha: list
    lipschitz_beta: list
    tol: float
    satisfied: bool

    def to_json(self, path: str):
        payload = {
            "tol": self.tol,
            "satisfied": self.satisfied,
            "lipschitz_alpha": self.lipschitz_alpha,
            "lipschitz_beta": self.lipschitz_beta,
            "levels": [
                {
                    "coordinate": e.coordinate,
                    "xi": e.xi,
                    "a_minus": e.a_minus,
                    "a_plus": e.a_plus,
                    "b_minus": e.b_minus,
                    "b_plus": e.b_plus,
                    "verdict": e.verdict,
                }
                for e in self.entries
            ],
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1)
        os.replace(tmp, path)


def check_assumptions(
    system: StochasticSystem,
    policy: ControlPolicy,
    fm: FeatureMap,
    sampler: LevelSetSampler,
    tol: float = 1e-6,
    n_levels: int = 5,
    xi_values: Optional[Sequence[np.ndarray]] = None,
) -> AssumptionReport:
    """Probe level-set constancy of a and b over a grid of levels.

    Band-accepted probes are projected onto the exact level set before the
    coefficients are evaluated, so a feature like p = x1 + x2 with b
    proportional to xi reports a spread at floating-point noise rather than
    at the acceptance-band width.  A level passes when both spreads are at
    most ``tol * (1 + |coeff|)``.  Lipschitz estimates are max
    finite-difference slopes of the level means across the xi grid.
    """
    if fm.k == 0:
        return AssumptionReport([], [], [], tol, True)
    pts = sampler.draw(fm.n)
    feats = fm.p(pts)
    entries = []
    lips_a, lips_b = [], []
    ok = True
    for i in range(fm.k):
        if xi_values is not None:
            grid = np.asarray(xi_values[i], dtype=np.float64)
        else:
            lo, hi = feats[:, i].min(), feats[:, i].max()
            inner = np.linspace(lo, hi, n_levels + 2)[1:-1]
            grid = inner
        width = float(feats[:, i].max() - feats[:, i].min())
        band = sampler.band if sampler.band is not None else 1e-3 * max(
            width, 1e-12
        )
        mids_a, mids_b = [], []
        for xi in grid:
            keep = np.abs(feats[:, i] - xi) <= band
            if not keep.any():
                raise EmptyLevelSetError(
                    f"no probe point with |p_{i + 1}(x) - {xi:.6g}| <= "
                    f"{band:.3g} among {sampler.n_samples} samples"
                )
            proj = [_project_to_level(fm, i, x, float(xi)) for x in pts[keep]]
            a_vals = np.array([coeff_a(system, fm, i, x) for x in proj])
            b_vals = np.array(
                [apply_generator(system, policy, fm, i, x) for x in proj]
            ) / a_vals
            a_lo, a_hi = float(a_vals.min()), float(a_vals.max())
            b_lo, b_hi = float(b_vals.min()), float(b_vals.max())
            pass_a = (a_hi - a_lo) <= tol * (1.0 + abs(a_hi))
            pass_b = (b_hi - b_lo) <= tol * (1.0 + abs(b_hi))
            verdict = "satisfied" if (pass_a and pass_b) else "violated"
            ok = ok and pass_a and pass_b
            entries.append(
                LevelEntry(i + 1, float(xi), a_lo, a_hi, b_lo, b_hi, verdict)
            )
            mids_a.append(0.5 * (a_lo + a_hi))
            mids_b.append(0.5 * (b_lo + b_hi))
        if len(grid) >= 2:
            dxi = np.diff(grid)
            lips_a.append(float(np.max(np.abs(np.diff(mids_a)) / dxi)))
            lips_b.append(float(np.max(np.abs(np.diff(mids_b)) / dxi)))
        else:
            lips_a.append(0.0)
            lips_b.append(0.0)
    return AssumptionReport(entries, lips_a, lips_b, tol, ok)


def build_reduced_sde(alpha, beta, ranges, n_grid: int = 101) -> ReducedSde:
    """Construct a ReducedSde, validating alpha > 0 on a grid of each range."""
    alpha = list(alpha)
    beta = list(beta)
    ranges = [tuple(map(float, r)) for r in ranges]
    if not (len(alpha) == len(beta) == len(ranges)):
        raise UsageError("alpha, beta, ranges must have equal length")
    for i, ((lo, hi), af, bf) in enumerate(zip(ranges, alpha, beta)):
        if not lo < hi:
            raise UsageError(f"range {i + 1} is empty: ({lo}, {hi})")
        grid = np.linspace(lo, hi, n_grid)
        a = np.asarray(af(grid), dtype=np.float64)
        if not np.all(a > 0):
            j = int(np.flatnonzero(~(a > 0))[0])
            raise DomainError(
                f"alpha_{i + 1}({grid[j]:.6g}) = {a[j]:.6g} is not positive"
            )
        b = np.asarray(bf(grid), dtype=np.float64)
        if not np.all(np.isfinite(b)):
            raise DomainError(f"beta_{i + 1} is non-finite on its range")
    return ReducedSde(k=len(alpha), alpha=alpha, beta=beta, ranges=ranges)


def feature_map_from_encoder(encoder: DenseNetwork) -> FeatureMap:
    """Wrap a trained encoder network as a FeatureMap.

    Gradient comes from the network's derivative bundle; the full Hessian is
    synthesized by central differences of the gradient.
    """
    n, k = encoder.d_in, encoder.d_out

    def p(xb):
        return np.atleast_2d(forward(encoder, np.atleast_2d(xb)))

    def grad_p(xb):
        xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
        _, jac, _ = derivatives_batch(encoder, xb, np.empty((len(xb), 0)))
        return np.swapaxes(jac, 1, 2)  # (N, k, n)

    # the Hessian is a central difference of the exact gradient; not marked
    # synthesized, so verify_feature_derivatives still checks both
    return replace(FeatureMap.from_functions(k, n, p, grad_p),
                   synthesized=False)
