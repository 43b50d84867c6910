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


def _le_extended(a, b) -> bool:
    if math.isinf(a):
        return math.isinf(b)
    if math.isinf(b):
        return True
    return a <= b + INDEX_TOL


def _same_index(u, v) -> bool:
    """Equal extended indices: both infinite, or both finite within INDEX_TOL."""
    if math.isinf(u) or math.isinf(v):
        return math.isinf(u) and math.isinf(v)
    return abs(u - v) <= INDEX_TOL


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
    """
    failures: list[str] = []
    a_x = dcai(space, filtration, X, t, family, probe_family=False)
    a_y = dcai(space, filtration, Y, t, family, probe_family=False)

    monotone_ok = True
    if np.all(X.values <= Y.values):
        for vx, vy in zip(a_x.cell_values, a_y.cell_values):
            if not _le_extended(vx, vy):
                monotone_ok = False
    if not monotone_ok:
        failures.append("monotonicity: X <= Y but index decreased")

    cell_of = filtration.cell_of_atom(t)
    beta = 1.0 + 3.0 * (cell_of % 3)  # positive, measurable at time t
    a_scaled = dcai(
        space, filtration, RandomVariable(beta * X.values), t, family,
        probe_family=False,
    )
    scale_invariant_ok = all(
        _same_index(u, v)
        for u, v in zip(a_x.cell_values, a_scaled.cell_values)
    )
    if not scale_invariant_ok:
        failures.append("scale invariance: positive measurable scaling moved the index")

    masked = RandomVariable(np.where(cell_of == 0, X.values, 0.0))
    a_masked = dcai(space, filtration, masked, t, family, probe_family=False)
    local_ok = _same_index(a_x.cell_values[0], a_masked.cell_values[0])
    if not local_ok:
        failures.append("locality: masking other cells changed the index on cell 0")

    quasi_concave_ok = True
    for lam in (0.25, 0.5, 0.75):
        mix = RandomVariable(lam * X.values + (1.0 - lam) * Y.values)
        a_mix = dcai(space, filtration, mix, t, family, probe_family=False)
        for vm, vx, vy in zip(a_mix.cell_values, a_x.cell_values, a_y.cell_values):
            floor = min(vx, vy)
            if not _le_extended(floor, vm):
                quasi_concave_ok = False
    if not quasi_concave_ok:
        failures.append("quasi-concavity: a mixture fell below both endpoints")

    return AxiomReport(
        monotone_ok, scale_invariant_ok, local_ok, quasi_concave_ok,
        tuple(failures),
    )
