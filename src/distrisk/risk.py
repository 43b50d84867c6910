"""Conditional risk evaluators on a finite filtered space.

Everything here is exact on finite supports: the distorted-expectation
evaluator is a sorted cumulative sum, the very sum of each ``dcai`` probe,
quantiles scan CDF breakpoints, and the tail-mean integrals are step
integrals with closed-form pieces.  All operations return one value per
information cell at the requested time; each reads the payoff's laws on the
whole level (:class:`~distrisk.space.LevelLaws`) and evaluates every cell in
the same few array expressions.  A payoff is sorted by value once, on first
use, and keeps the laws of every level it was evaluated on, for the space and
filtration of its last evaluation (:func:`~distrisk.space.level_laws`), so
evaluating it again on that tree, at any level seen before, builds nothing;
another space or filtration replaces the kept laws, so a payoff holds at most
one tree's levels, 36 bytes per merged point and 24 per cell on each.
"""

from __future__ import annotations

import numpy as np

from .distortion import Distortion, DistortionMeasure, MinVar, psi_from_measure
from .space import (
    AdaptedValue,
    DomainError,
    Filtration,
    LevelLaws,
    RandomVariable,
    ScenarioSpace,
    conditional_distribution,  # noqa: F401  (perfbench/tracer.py patches this name; no library path calls it)
    level_laws,
)
from .tolerance import CROSS_CHECK_TOL


def choquet(
    space: ScenarioSpace,
    filtration: Filtration,
    X: RandomVariable,
    t: int,
    psi: Distortion,
) -> AdaptedValue:
    """Distortion risk of X given the information at time t, per cell."""
    psi = _regular(psi)
    return AdaptedValue(t, _distorted(level_laws(space, filtration, X, t), psi))


def _regular(psi: Distortion) -> Distortion:
    """psi, once it is known concave and continuous (DomainError otherwise):
    the premise of :func:`choquet` and of each ``dcai`` probe."""
    if not psi.regular:
        raise DomainError("risk evaluation needs a concave continuous distortion")
    return psi


def _distorted(laws: LevelLaws, psi: Distortion) -> np.ndarray:
    return _choquet(laws.support, np.asarray(psi(laws.F), dtype=float), laws.start)


def _choquet(support: np.ndarray, psi_F: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Risk of each cell whose points begin at ``start``: minus the per-cell
    np.add.reduceat of the support times psi(F)'s increments, restarting at
    each start; a whole level for :func:`choquet`, one cell for a dcai probe."""
    terms = np.empty_like(psi_F)
    np.subtract(psi_F[1:], psi_F[:-1], out=terms[1:])
    terms[start] = psi_F[start]
    terms *= support
    return -np.add.reduceat(terms, start)


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


def _check_alpha_tail(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError("tail level must lie in (0, 1]")
    return alpha


def _tail_mean(laws: LevelLaws, alpha: float) -> np.ndarray:
    alpha = _check_alpha_tail(alpha)
    overlap = np.clip(np.minimum(laws.F, alpha) - laws.lo, 0.0, None)
    # divided by alpha first: a subnormal overlap times a payoff drops digits
    return -laws.sum(laws.support * (overlap / alpha))


def avar(space, filtration, X, t, alpha) -> AdaptedValue:
    """Conditional average value at risk at level alpha, per cell."""
    return AdaptedValue(t, _tail_mean(level_laws(space, filtration, X, t), alpha))


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
