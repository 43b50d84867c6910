"""Acceptability indices from increasing families of distortions.

The index of a payoff at a cell is the largest family parameter whose risk is
still non-positive.  Because the risk is monotone in the parameter the level
set is an interval and the boundary is found by geometric bracketing plus
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionFamily, check_family_monotone
from .space import (
    DomainError,
    Filtration,
    LevelLaws,
    RandomVariable,
    ScenarioSpace,
    conditional_distribution,  # noqa: F401  (the per-cell path; perfbench/tracer.py times it here)
)
from .tolerance import BISECT_TOL, INDEX_TOL, X_MAX, X_MIN


@dataclass(frozen=True)
class AcceptabilityResult:
    """Per-cell index values in [0, +inf]; math.inf marks unbounded
    acceptability."""

    time: int
    cell_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.cell_values):
            raise DomainError("acceptability values must be non-negative")
        object.__setattr__(self, "cell_values", tuple(float(v) for v in self.cell_values))


def _rho_at(support, F, family, x: float) -> float:
    """Risk of one cell's law (sorted support, cumulative weights F) under
    the family member x."""
    psi_F = np.asarray(family(x)(F), dtype=float)
    return -float(support @ np.diff(psi_F, prepend=0.0))


def _cell_index(support, F, family: DistortionFamily) -> float:
    if _rho_at(support, F, family, X_MIN) > 0.0:
        return 0.0
    lo = X_MIN
    hi = 2.0 * X_MIN
    while hi <= X_MAX:
        if _rho_at(support, F, family, hi) > 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        if _rho_at(support, F, family, X_MAX) <= 0.0:
            return math.inf
        hi = X_MAX
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _rho_at(support, F, family, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def dcai(
    space: ScenarioSpace,
    filtration: Filtration,
    X: RandomVariable,
    t: int,
    family: DistortionFamily,
    probe_family: bool = True,
) -> AcceptabilityResult:
    """Largest family parameter with non-positive risk, per cell.

    Returns 0 when even the smallest probe parameter ``X_MIN`` is rejected,
    math.inf when the risk stays non-positive up to the bracket cap
    ``X_MAX``, and otherwise the bisected boundary of the acceptance interval
    to width ``BISECT_TOL``.
    """
    if probe_family:
        report = check_family_monotone(family)
        if not report.monotone_ok:
            raise DomainError("family is not increasing on the probe grid")
    laws = LevelLaws(space, filtration, X, t)
    return AcceptabilityResult(t, tuple(
        _cell_index(laws.support[a:b], laws.F[a:b], family)
        for a, b in zip(laws.start, laws.stop)
    ))


@dataclass(frozen=True)
class AxiomReport:
    monotone_ok: bool
    scale_invariant_ok: bool
    local_ok: bool
    quasi_concave_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def dcai_axiom_check(
    space: ScenarioSpace,
    filtration: Filtration,
    X: RandomVariable,
    Y: RandomVariable,
    t: int,
    family: DistortionFamily,
) -> AxiomReport:
    """Spot-check the index axioms on a concrete pair of payoffs.

    Monotonicity is checked only when X <= Y pointwise; scaling uses a fixed
    positive factor per cell; locality restricts the payoff to one cell;
    quasi-concavity probes mixtures of X and Y on a small weight grid.

    Indices lie in [0, inf]: a <= b + INDEX_TOL orders them (inf is above
    every finite index and at most inf), and two are equal when within
    INDEX_TOL of each other or both inf.
    """
    def index(Z: RandomVariable) -> np.ndarray:
        result = dcai(space, filtration, Z, t, family, probe_family=False)
        return np.asarray(result.cell_values)

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
    verdicts = (
        (monotone_ok, "monotonicity: X <= Y but index decreased"),
        (scale_invariant_ok, "scale invariance: positive measurable scaling moved the index"),
        (local_ok, "locality: masking other cells changed the index on cell 0"),
        (quasi_concave_ok, "quasi-concavity: a mixture fell below both endpoints"),
    )
    return AxiomReport(
        monotone_ok, scale_invariant_ok, local_ok, quasi_concave_ok,
        tuple(message for ok, message in verdicts if not ok),
    )
