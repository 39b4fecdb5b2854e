"""Feature-map reduction: generator coefficients a, b, their per-level
table, and construction of the reduced per-coordinate SDE.

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
``level_table`` bins sampled states by feature level and gives each level's
mean, minimum and maximum of xi, a and b: the means are the knots of a
tabulated reduction, and a level's max - min is how far a and b are from
constant there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AssumptionViolationError, DomainError, UsageError
from .neural import DenseNetwork, derivatives_batch, forward
from .sde import ControlPolicy, StochasticSystem, _is_diagonal

__all__ = [
    "FeatureMap",
    "ReducedSde",
    "diffusion_diagonal",
    "generator_terms",
    "generator_at",
    "level_table",
    "build_reduced_sde",
    "feature_map_from_encoder",
]


@dataclass
class FeatureMap:
    """Smooth feature function with batched derivatives.

    ``p``: states (N, n) -> (N, k).  ``derivatives(x, w)``: states (N, n)
    and weights (N, m) of the leading m <= n coordinates -> (J, L), in the
    orientation of :func:`derivatives_batch`: the Jacobian J (N, n, k),
    ``J[r, l, i] = d p_i / d x_l``, and L (N, k) = sum_{l < m} w_l
    d^2 p_i / d x_l^2.
    """

    k: int
    n: int
    p: Callable[[np.ndarray], np.ndarray]
    derivatives: Callable[[np.ndarray, np.ndarray], tuple]


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
    read once and broadcast; when it has no nonzero entry off its diagonal,
    S is exactly diagonal and the check is skipped.
    """
    const = system.diffusion_const is not None
    sig = system.diffusion_const[None] if const else system.sigma_at(x)
    ss_diag = np.einsum("plc,plc->pl", sig, sig)
    if not (const and _is_diagonal(system.diffusion_const)):
        sub = sig[:16]
        full = np.matmul(sub, sub.transpose(0, 2, 1))
        bound = 1e-12 * (1.0 + np.abs(full).max())
        np.einsum("pll->pl", full)[...] = 0.0  # leaves the off-diagonal
        if np.max(np.abs(full)) > bound:
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


def level_table(system: StochasticSystem, policy: ControlPolicy,
                fm: FeatureMap, states, n_levels: int):
    """Per-level (xi, a, b) tables of the features at sampled states.

    One ``fm.p`` and one ``generator_at`` call evaluate xi = p(x), a and
    b = A^U p / a at every state (N, n).  For each feature the states are
    ranked by its value and cut into min(n_levels, N) levels, the sections
    of ``np.array_split`` in feature order, so no level is empty.  Returns
    (xi, a, b), each (3, k, L): the level's mean, minimum and maximum.

    A level's max - min is the spread that a reduction built from the means
    averages over.  It includes the change of alpha and beta across the
    level's xi range: where they vary with xi, a level whose states span
    several xi values has a nonzero spread even when a and b are constant
    on every level set.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    n_bins = min(n_levels, len(states))
    feats = fm.p(states)
    a, ap = generator_at(system, policy, fm, states)
    each, extra = divmod(len(states), n_bins)
    sizes = [each + 1] * extra + [each] * (n_bins - extra)
    rank_level = np.repeat(np.arange(n_bins), sizes)
    order = np.argsort(feats, axis=0, kind="stable")
    # bins[j, i]: feature i's level of state j, numbered apart per feature
    bins = np.empty(order.shape, dtype=np.intp)
    np.put_along_axis(bins, order, rank_level[:, None]
                      + n_bins * np.arange(fm.k), axis=0)
    starts = np.cumsum(sizes) - sizes

    def table(v):
        ranked = np.take_along_axis(v, order, axis=0)
        # bincount adds in state order, the order of the recorded knots
        sums = np.bincount(bins.ravel(), weights=v.ravel())
        return np.stack([sums.reshape(fm.k, n_bins) / sizes,
                         np.minimum.reduceat(ranked, starts).T,
                         np.maximum.reduceat(ranked, starts).T])

    return table(feats), table(a), table(ap / a)


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
