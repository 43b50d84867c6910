"""Acceptability indices from increasing families of distortions.

The index of a payoff at a cell is the largest family parameter whose risk is
still non-positive.  Because the risk is monotone in the parameter the level
set is an interval and the boundary is found by geometric bracketing plus
bisection.
"""

from __future__ import annotations

import math

import numpy as np

from .distortion import (
    FAMILY_NOT_INCREASING,
    CheckReport,
    DistortionFamily,
    check_family_monotone,
)
from .space import (
    AdaptedValue,
    DomainError,
    Filtration,
    RandomVariable,
    ScenarioSpace,
    conditional_distribution,  # noqa: F401  (the per-cell path; perfbench/tracer.py times it here)
    level_laws,
)
from .tolerance import BISECT_TOL, INDEX_TOL, X_MAX, X_MIN


def _rho_at(support, F, family, x: float) -> float:
    """Risk of one cell's law (sorted support, cumulative weights F) under
    the family member x."""
    # np.diff(prepend=0.0)'s increments, bit for bit; numpy sums them, not a thread-timed BLAS dot
    psi_F = np.asarray(family(x)(F), dtype=float)
    terms = np.empty_like(psi_F)
    terms[0] = psi_F[0]
    np.subtract(psi_F[1:], psi_F[:-1], out=terms[1:])
    terms *= support
    return -float(np.add.reduce(terms))


def _halve(below, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve the bracket [lo, hi] at its midpoint until it is at most tol
    wide, keeping the end where below(x) holds as lo."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _cell_index(support, F, family: DistortionFamily) -> float:
    if _rho_at(support, F, family, X_MIN) > 0.0:
        return 0.0
    lo, hi = X_MIN, 2.0 * X_MIN
    while hi <= X_MAX:
        if _rho_at(support, F, family, hi) > 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        if _rho_at(support, F, family, X_MAX) <= 0.0:
            return math.inf
        hi = X_MAX
    return _halve(lambda x: _rho_at(support, F, family, x) <= 0.0, lo, hi, BISECT_TOL)[0]


def dcai(
    space: ScenarioSpace,
    filtration: Filtration,
    X: RandomVariable,
    t: int,
    family: DistortionFamily,
) -> AdaptedValue:
    """Largest family parameter with non-positive risk, per cell, as an
    adapted value.

    Each cell's index is 0 when even the smallest probe parameter ``X_MIN``
    is rejected, math.inf when the risk stays non-positive up to the bracket
    cap ``X_MAX``, and otherwise the bisected boundary of the acceptance
    interval to width ``BISECT_TOL``.

    The family is first probed with :func:`check_family_monotone`, and only
    its monotonicity failure rejects it (DomainError): a right-continuity
    failure alone does not.
    """
    if FAMILY_NOT_INCREASING in check_family_monotone(family).failures:
        raise DomainError("family is not increasing on the probe grid")
    laws = level_laws(space, filtration, X, t)
    return AdaptedValue(t, [
        _cell_index(laws.support[a:b], laws.F[a:b], family)
        for a, b in zip(laws.start, laws.stop)
    ])


def dcai_axiom_check(
    space: ScenarioSpace,
    filtration: Filtration,
    X: RandomVariable,
    Y: RandomVariable,
    t: int,
    family: DistortionFamily,
) -> CheckReport:
    """Spot-check the index axioms on a concrete pair of payoffs.

    Monotonicity is checked only when X <= Y pointwise; scaling uses a fixed
    positive factor per cell; locality restricts the payoff to one cell;
    quasi-concavity probes mixtures of X and Y on a small weight grid.

    Indices lie in [0, inf]: a <= b + INDEX_TOL orders them (inf is above
    every finite index and at most inf), and two are equal when within
    INDEX_TOL of each other or both inf.
    """
    def index(Z: RandomVariable) -> np.ndarray:
        return dcai(space, filtration, Z, t, family).cell_values

    def at_most(a, b) -> bool:
        return bool(np.all(a <= b + INDEX_TOL))

    def same(a, b) -> bool:
        return bool(np.all(np.isclose(a, b, rtol=0.0, atol=INDEX_TOL)))

    a_x = index(X)
    a_y = index(Y)
    monotone_ok = not np.all(X.values <= Y.values) or at_most(a_x, a_y)
    cell_of = filtration.cell_of_atom(t)
    beta = 1.0 + 3.0 * (cell_of % 3)  # positive, measurable at time t
    scale_invariant_ok = same(a_x, index(RandomVariable(beta * X.values)))
    masked = RandomVariable(np.where(cell_of == 0, X.values, 0.0))
    local_ok = same(a_x[0], index(masked)[0])
    mixes = [
        index(RandomVariable(lam * X.values + (1.0 - lam) * Y.values))
        for lam in (0.25, 0.5, 0.75)
    ]
    quasi_concave_ok = at_most(np.minimum(a_x, a_y), np.min(mixes, axis=0))
    return CheckReport.of(
        (monotone_ok, "monotonicity: X <= Y but index decreased"),
        (scale_invariant_ok, "scale invariance: positive measurable scaling moved the index"),
        (local_ok, "locality: masking other cells changed the index on cell 0"),
        (quasi_concave_ok, "quasi-concavity: a mixture fell below both endpoints"),
    )
