"""Feature-map reduction: generator coefficients a, b, level-set assumption
checks, and construction of the reduced per-coordinate SDE.

For a feature p_i and control policy U the generator drift is

    A^U p_i(x) = Dp_i . (f(x) + sigma(x) U(x)) + 1/2 Tr(D^2 p_i S(x)),

with S = sigma sigma^T, and the level diffusion coefficient is
a_i(x) = Dp_i S Dp_i^T.  Only a diagonal S is accepted, so the Ito term is
1/2 sum_l S_ll d^2 p_i / dx_l^2: the weighted Hessian trace L of a feature
map's batched derivatives with weights 1/2 S_ll.  Every coefficient is thus
evaluated for a whole batch of states from one ``FeatureMap.derivatives``
call (for an encoder, one derivative-bundle call) through
``generator_terms``, the helper the feature-learning penalty shares.
When a_i and b_i = A^U p_i / a_i are constant on every level set of p_i (and
positive / Lipschitz respectively), the feature process is exactly the scalar
SDE dxi_i = alpha_i(xi_i) beta_i(xi_i) dt + sqrt(alpha_i(xi_i)) dB_i.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "ReducedSde",
    "AssumptionReport",
    "LevelSetSampler",
    "diffusion_diagonal",
    "generator_terms",
    "generator_at",
    "level_set_bounds",
    "check_assumptions",
    "build_reduced_sde",
    "feature_map_from_encoder",
    "verify_feature_derivatives",
]


@dataclass
class FeatureMap:
    """Smooth feature function with batched derivatives.

    ``p``: states (N, n) -> (N, k).  ``derivatives(x, w)``: states (N, n)
    and weights (N, m) of the leading m <= n coordinates -> (J, L), in the
    orientation of :func:`derivatives_batch`: the Jacobian J (N, n, k),
    ``J[r, l, i] = d p_i / d x_l``, and L (N, k) = sum_{l < m} w_l
    d^2 p_i / d x_l^2.  ``synthesized`` marks central-difference derivatives
    (self-check skipped).
    """

    k: int
    n: int
    p: Callable[[np.ndarray], np.ndarray]
    derivatives: Callable[[np.ndarray, np.ndarray], tuple]
    synthesized: bool = False

    @classmethod
    def from_functions(cls, k, n, p):
        """Wrap a feature function with central-difference derivatives
        (step h = 1e-5 * (1 + |x_l|) per coordinate): J from first and L
        from second differences of p."""

        def derivatives(xb, w):
            xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
            w = np.asarray(w, dtype=np.float64)
            p0 = p(xb)
            jac = np.empty((len(xb), n, k))
            lap = np.zeros((len(xb), k))
            for l in range(n):
                step = np.zeros_like(xb)
                step[:, l] = 1e-5 * (1.0 + np.abs(xb[:, l]))
                up, down = p(xb + step), p(xb - step)
                h = step[:, l:l + 1]
                jac[:, l] = (up - down) / (2.0 * h)
                if l < w.shape[1]:
                    lap += w[:, l:l + 1] * (up - 2.0 * p0 + down) / (h * h)
            return jac, lap

        return cls(k=k, n=n, p=p, derivatives=derivatives, synthesized=True)


def verify_feature_derivatives(fm: FeatureMap, probes: np.ndarray, rtol=1e-5):
    """Check ``fm.derivatives`` against central differences of p at the
    probes: the Jacobian, then each coordinate's second derivative (L with a
    unit weight on that coordinate).

    Raises AssumptionViolationError on disagreement.  Skipped (returns False)
    for synthesized derivatives, which would be compared against themselves.
    """
    if fm.synthesized:
        return False
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    ref = FeatureMap.from_functions(fm.k, fm.n, fm.p)
    none = np.empty((len(probes), 0))
    g = fm.derivatives(probes, none)[0]
    g_fd = ref.derivatives(probes, none)[0]
    err = np.abs(g - g_fd) / (1.0 + np.abs(g_fd))
    if err.max() > rtol:
        raise AssumptionViolationError(
            f"feature gradient disagrees with finite differences "
            f"(max rel err {err.max():.3e} > {rtol:g})"
        )
    for l in range(fm.n):
        w = np.zeros((len(probes), l + 1))
        w[:, l] = 1.0
        h = fm.derivatives(probes, w)[1]
        h_fd = ref.derivatives(probes, w)[1]
        herr = np.abs(h - h_fd) / (1.0 + np.abs(h_fd))
        if herr.max() > 100 * rtol:  # second differences are noisier
            raise AssumptionViolationError(
                f"feature second derivative in x{l + 1} disagrees with "
                f"finite differences (max rel err {herr.max():.3e})"
            )
    return True


@dataclass
class ReducedSde:
    """k scalar feature SDEs: per-coordinate alpha, beta on ranges I_i."""

    k: int
    alpha: Sequence[Callable]
    beta: Sequence[Callable]
    ranges: Sequence[tuple]


def diffusion_diagonal(system: StochasticSystem, x):
    """Diagonal S_ll of S = sigma sigma^T at states x (N, n), as (N, n).

    The generator's Ito term contracts only the Hessian diagonal against S,
    which is the full trace only when S is diagonal, so a non-diagonal S
    (checked on the first 16 states) is refused.  A constant diffusion is
    read once and broadcast.
    """
    const = system.diffusion_const is not None
    sig = system.diffusion_const[None] if const else system.sigma_at(x)
    ss_diag = np.einsum("plc,plc->pl", sig, sig)
    sub = sig[:16]
    full = np.matmul(sub, sub.transpose(0, 2, 1))
    off = full - full * np.eye(x.shape[1])
    if np.max(np.abs(off)) > 1e-12 * (1.0 + np.abs(full).max()):
        raise UsageError("the feature generator requires diagonal sigma "
                         "sigma^T")
    return np.broadcast_to(ss_diag, x.shape)


def generator_terms(jac, ito, drift, ss_diag):
    """(a, A p) at N states, each (N, k): a_i = sum_l S_ll J_li^2 and
    A p_i = ito_i + sum_l f_l J_li, from the Jacobian J (N, n, k), the Ito
    term (N, k) (the weighted Hessian trace with weights 1/2 S_ll), the
    drift f (N, n) and the diagonal S_ll (N, n) of sigma sigma^T."""
    a = np.empty(ito.shape)
    ap = np.empty(ito.shape)
    for i in range(jac.shape[2]):
        a_i, ap_i = 0.0, ito[:, i]
        for l in range(jac.shape[1]):
            g_l = jac[:, l, i]
            a_i = a_i + ss_diag[:, l] * (g_l * g_l)
            ap_i = ap_i + drift[:, l] * g_l
        a[:, i] = a_i
        ap[:, i] = ap_i
    return a, ap


def generator_at(system: StochasticSystem, policy: ControlPolicy,
                 fm: FeatureMap, x):
    """(a, A^U p), each (N, k), at states x (N, n) from one
    ``fm.derivatives`` call; the policy is frozen at t = 0.  Raises
    AssumptionViolationError where some a_i(x) is not positive, so
    b = A^U p / a is defined."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    ss_diag = diffusion_diagonal(system, x)
    jac, ito = fm.derivatives(x, 0.5 * ss_diag)
    drift = np.asarray(system.drift(x), dtype=np.float64) + np.einsum(
        "rlc,rc->rl", system.sigma_at(x), policy(x, 0.0))
    a, ap = generator_terms(jac, ito, drift, ss_diag)
    bad = np.argwhere(~(a > 0.0))
    if len(bad):
        r, i = bad[0]
        raise AssumptionViolationError(
            f"diffusion coefficient a_{i + 1}(x) = {a[r, i]:.6g} is not "
            f"positive at x = {x[r, :8]}"
        )
    return a, ap


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
    a, ap = generator_at(system, policy, fm, pts[keep])
    b = ap[:, i] / a[:, i]
    return (
        float(a[:, i].min()),
        float(a[:, i].max()),
        float(b.min()),
        float(b.max()),
    )


def _project_to_level(fm: FeatureMap, i: int, x: np.ndarray, xi,
                      newton_steps: int = 2) -> np.ndarray:
    """Move each state x (N, n) onto its level set {p_i = xi} (xi (N,))
    along the feature gradient.

    Band-accepted probes sit within 1e-3 of the level, which dominates the
    coefficient spread for any xi-dependent b; one or two Newton steps remove
    that bias so the spread measures level-set constancy only.  A state
    where the gradient vanishes stays where it is.
    """
    y = np.array(x, dtype=np.float64)
    none = np.empty((len(y), 0))
    for _ in range(newton_steps):
        g = fm.derivatives(y, none)[0][:, :, i]
        gn = np.einsum("rl,rl->r", g, g)
        step = np.divide(xi - fm.p(y)[:, i], gn, out=np.zeros_like(gn),
                         where=gn > 0)
        y += step[:, None] * g
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
    at the acceptance-band width.  All probes of one feature, over every
    level, are projected and evaluated as one batch.  A level passes when
    both spreads are at most ``tol * (1 + |coeff|)``.  Lipschitz estimates
    are max finite-difference slopes of the level means across the xi grid
    (0 with fewer than two levels).
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
            grid = np.linspace(lo, hi, n_levels + 2)[1:-1]
        width = float(feats[:, i].max() - feats[:, i].min())
        band = sampler.band if sampler.band is not None else 1e-3 * max(
            width, 1e-12
        )
        keep = np.abs(feats[:, i] - grid[:, None]) <= band
        counts = keep.sum(axis=1)
        if not counts.all():
            raise EmptyLevelSetError(
                f"no probe point with |p_{i + 1}(x) - "
                f"{grid[np.argmin(counts)]:.6g}| <= {band:.3g} among "
                f"{sampler.n_samples} samples"
            )
        # probe rows grouped by level, in grid order
        level, probe = np.nonzero(keep)
        proj = _project_to_level(fm, i, pts[probe], grid[level])
        a, ap = generator_at(system, policy, fm, proj)
        a, b = a[:, i], ap[:, i] / a[:, i]
        starts = np.cumsum(counts) - counts
        a_lo, a_hi = (r.reduceat(a, starts) for r in (np.minimum, np.maximum))
        b_lo, b_hi = (r.reduceat(b, starts) for r in (np.minimum, np.maximum))
        passed = ((a_hi - a_lo) <= tol * (1.0 + np.abs(a_hi))) & (
            (b_hi - b_lo) <= tol * (1.0 + np.abs(b_hi)))
        ok = ok and bool(passed.all())
        entries += [
            LevelEntry(i + 1, float(xi), float(al), float(ah), float(bl),
                       float(bh), "satisfied" if p else "violated")
            for xi, al, ah, bl, bh, p in zip(grid, a_lo, a_hi, b_lo, b_hi,
                                             passed)
        ]
        for lips, c_lo, c_hi in ((lips_a, a_lo, a_hi), (lips_b, b_lo, b_hi)):
            slopes = np.abs(np.diff(0.5 * (c_lo + c_hi))) / np.diff(grid)
            lips.append(float(np.max(slopes, initial=0.0)))
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
    """Wrap a trained encoder network as a FeatureMap whose derivatives are
    one call of the network's derivative bundle."""

    def p(xb):
        return np.atleast_2d(forward(encoder, np.atleast_2d(xb)))

    def derivatives(xb, w):
        _, jac, lap = derivatives_batch(encoder, np.atleast_2d(xb), w)
        return jac, lap

    return FeatureMap(k=encoder.d_out, n=encoder.d_in, p=p,
                      derivatives=derivatives)
