"""Per-cell risk evaluators on a finite filtered space.

Everything here is exact on finite supports: the distorted-expectation
evaluator is a sorted cumulative sum, quantiles scan CDF breakpoints, and the
tail-mean integrals are step integrals with closed-form pieces.  All
operations return one value per information cell at the requested time; each
reads the payoff's laws on the whole level (:class:`~distrisk.space.LevelLaws`)
and evaluates every cell in the same few array expressions.  A payoff is
sorted by value once, on first use, and keeps the laws of every level it was
evaluated on, for the space and filtration of its last evaluation
(:func:`~distrisk.space.level_laws`), so evaluating it again on that tree, at
any level seen before, builds nothing; another space or filtration replaces
the kept laws, so a payoff holds at most one tree's levels, 36 bytes per
merged point and 24 per cell on each.  The ``distribution_*`` functions
compute the same quantities on one :class:`~distrisk.space.DiscreteDistribution`
and serve as the per-cell reference.
"""

from __future__ import annotations

import numpy as np

from .distortion import Distortion, DistortionMeasure, MinVar, psi_from_measure
from .space import (
    AdaptedValue,
    DiscreteDistribution,
    DomainError,
    Filtration,
    LevelLaws,
    RandomVariable,
    ScenarioSpace,
    conditional_distribution,  # noqa: F401  (the per-cell path; perfbench/tracer.py times it here)
    level_laws,
)
from .tolerance import CROSS_CHECK_TOL


def distribution_choquet(dist: DiscreteDistribution, psi: Distortion) -> float:
    """Distorted negative expectation of a finite law.

    With sorted support x_1 < ... < x_n and cumulative weights F_i this is
    -sum_i x_i (psi(F_i) - psi(F_{i-1})), the exact value of the
    tail-distorted integral for step distributions.
    """
    F = np.minimum(np.cumsum(dist.weights), 1.0)  # round-off may pass 1 early
    F[-1] = 1.0
    psi_F = np.asarray(psi(F), dtype=float)
    increments = np.diff(np.concatenate(([0.0], psi_F)))
    return -float(np.add.reduce(dist.support * increments))


def choquet(
    space: ScenarioSpace,
    filtration: Filtration,
    X: RandomVariable,
    t: int,
    psi: Distortion,
) -> AdaptedValue:
    """Distortion risk of X given the information at time t, per cell."""
    if not psi.regular:
        raise DomainError("risk evaluation needs a concave continuous distortion")
    return AdaptedValue(t, _distorted(level_laws(space, filtration, X, t), psi))


def _distorted(laws: LevelLaws, psi: Distortion) -> np.ndarray:
    psi_F = np.asarray(psi(laws.F), dtype=float)
    return -laws.sum(laws.support * (psi_F - laws.shift(psi_F)))


def distribution_quantile_upper(dist: DiscreteDistribution, alpha: float) -> float:
    """sup of the set where the CDF stays <= alpha."""
    F = np.cumsum(dist.weights)
    idx = int(np.argmax(F > alpha)) if np.any(F > alpha) else dist.support.size - 1
    return float(dist.support[idx])


def distribution_quantile_lower(dist: DiscreteDistribution, alpha: float) -> float:
    """inf of the set where the CDF reaches alpha."""
    F = np.cumsum(dist.weights)
    F[-1] = 1.0
    idx = int(np.argmax(F >= alpha))
    return float(dist.support[idx])


def _check_alpha_open(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError("quantile level must lie in (0, 1)")
    return alpha


def quantile_upper(space, filtration, X, t, alpha) -> AdaptedValue:
    """Upper conditional quantile at level alpha, per cell."""
    alpha = _check_alpha_open(alpha)
    laws = level_laws(space, filtration, X, t)
    return AdaptedValue(t, laws.support[laws.first(laws.F > alpha)])


def quantile_lower(space, filtration, X, t, alpha) -> AdaptedValue:
    """Lower conditional quantile at level alpha, per cell."""
    alpha = _check_alpha_open(alpha)
    laws = level_laws(space, filtration, X, t)
    return AdaptedValue(t, laws.support[laws.first(laws.F >= alpha)])


def var(space, filtration, X, t, alpha) -> AdaptedValue:
    """Value at risk: negated upper conditional quantile."""
    q = quantile_upper(space, filtration, X, t, alpha)
    return AdaptedValue(t, -q.cell_values)


def distribution_avar(dist: DiscreteDistribution, alpha: float) -> float:
    """Tail mean -1/alpha * integral of the upper quantile over (0, alpha).

    The quantile is the step function taking value x_i on the level interval
    (F_{i-1}, F_i]; the integral is the sum of step values times overlap
    lengths with (0, alpha), computed exactly.
    """
    alpha = _check_alpha_tail(alpha)
    F = np.cumsum(dist.weights)
    F[-1] = 1.0
    lo = np.concatenate(([0.0], F[:-1]))
    overlap = np.clip(np.minimum(F, alpha) - lo, 0.0, None)
    return -float(dist.support @ overlap) / alpha


def _check_alpha_tail(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError("tail level must lie in (0, 1]")
    return alpha


def _tail_mean(laws: LevelLaws, alpha: float) -> np.ndarray:
    alpha = _check_alpha_tail(alpha)
    overlap = np.clip(np.minimum(laws.F, alpha) - laws.lo, 0.0, None)
    return -laws.sum(laws.support * overlap) / alpha


def avar(space, filtration, X, t, alpha) -> AdaptedValue:
    """Conditional average value at risk at level alpha, per cell."""
    return AdaptedValue(t, _tail_mean(level_laws(space, filtration, X, t), alpha))


def distribution_avar_robust(dist: DiscreteDistribution, alpha: float) -> float:
    """Same tail mean through its change-of-measure maximizer.

    The density is 1/alpha below the upper quantile q, a fractional weight on
    the atom at q chosen so the density integrates to 1, and 0 above.
    """
    alpha = _check_alpha_tail(alpha)
    if alpha == 1.0:
        return -dist.mean()
    q = distribution_quantile_upper(dist, alpha)
    below = dist.support < q
    at = dist.support == q
    p_below = float(dist.weights[below].sum())
    p_at = float(dist.weights[at].sum())
    eps = (alpha - p_below) / p_at if p_at > 0.0 else 0.0
    density = (below + eps * at) / alpha
    return -float((dist.support * density) @ dist.weights)


def avar_robust(space, filtration, X, t, alpha) -> AdaptedValue:
    """Conditional average value at risk via the maximizing density."""
    alpha = _check_alpha_tail(alpha)
    laws = level_laws(space, filtration, X, t)
    if alpha == 1.0:
        return AdaptedValue(t, -laws.sum(laws.support * laws.weights))
    q = laws.first(laws.F > alpha)  # the upper quantile's point in each cell
    eps = (alpha - laws.lo[q]) / laws.weights[q]
    point = np.arange(laws.support.size)
    at = q[laws.cell]
    density = ((point < at) + eps[laws.cell] * (point == at)) / alpha
    return AdaptedValue(t, -laws.sum(laws.support * density * laws.weights))


def distribution_dwvar(dist: DiscreteDistribution, mu: DistortionMeasure) -> float:
    """Mixture of tail means over the levels of mu."""
    return float(
        sum(
            w * distribution_avar(dist, s)
            for s, w in zip(mu.support, mu.weights)
        )
    )


def dwvar(space, filtration, X, t, mu: DistortionMeasure) -> AdaptedValue:
    """Weighted value at risk given the information at time t, per cell.

    Evaluated as the mixture of tail means; an independent quantile-integral
    form is computed alongside and a disagreement beyond ``CROSS_CHECK_TOL``
    times the cell's largest payoff magnitude is raised as an internal
    inconsistency.
    """
    if not isinstance(mu, DistortionMeasure):
        raise DomainError("dwvar needs a finitely supported level measure")
    psi = psi_from_measure(mu)
    laws = level_laws(space, filtration, X, t)
    v = sum(w * _tail_mean(laws, s) for s, w in zip(mu.support, mu.weights))
    v_alt = _distorted(laws, psi)
    # slack relative to each cell's payoff magnitude, which also bounds |v|
    scale = np.maximum(np.abs(laws.support[laws.start]), np.abs(laws.support[laws.stop - 1]))
    bad = np.abs(v - v_alt) > CROSS_CHECK_TOL * scale
    if np.any(bad):
        k = int(np.argmax(bad))
        raise AssertionError(
            f"dwvar internal cross-check failed: {v[k]} vs {v_alt[k]}"
        )
    return AdaptedValue(t, v)


def min_iid_rho(space, filtration, X, t, k: int) -> AdaptedValue:
    """Negative conditional mean of the minimum of k conditionally iid copies.

    Built exactly from the tail probabilities: the minimum exceeds y iff all
    copies do, so its survival function is the k-th power of the original,
    and its law is the original distorted by MinVar(k - 1).
    """
    if not (1 <= k < np.inf and k % 1 == 0):  # nan and inf fail the bounds
        raise DomainError("copy count must be a positive integer")
    return AdaptedValue(t, _distorted(level_laws(space, filtration, X, t), MinVar(int(k) - 1)))
