"""Spot checks of the paper's premises, used by the tests.

The library computes; these functions check what its results rest on, on
grids and concrete payoffs.  `check_regular` tests that a distortion is
regular (fixes 0 and 1, non-decreasing, concave, continuous, above the
diagonal), the premise under which it generates a dynamic coherent risk
measure; `dcai_axiom_check` tests the acceptability-index axioms of
Cherny & Madan (2009) and Bielecki, Cialenco & Zhang (2014) on a pair of
payoffs; `check_nonweak1_inequality` tests the sign of
`psi_mu(m_mu) + m_mu - 1`, on which the continuum weak-acceptance
counterexample rests.  `check_regular` and `dcai_axiom_check` return the
library's `CheckReport(failures)`, one message per failed test.

Two grid constants belong to `check_regular` alone:

| Name | Value | Meaning |
|---|---|---|
| `REGULARITY_GRID_STEP` | 1e-4 | grid spacing of `check_regular` |
| `CONTINUITY_GRID_RATIO` | 0.99 | ratio of `check_regular`'s geometric grid towards 0; a concave `psi` with `psi(0) = 0` has `psi(r y) >= r psi(y)`, so it rises at most `1 - r = 100 * REGULARITY_GRID_STEP` per step |

`check_regular`'s continuity check fails a map when one step of `psi` exceeds
`100 * REGULARITY_GRID_STEP` on the uniform grid merged with the geometric
grid `CONTINUITY_GRID_RATIO ** k`, down to the smallest normal double. A jump
anywhere fails it, at 0 included. A concave map that rises steeply but
continuously from 0, such as `prop_hazard:0.3` or `maxvar:2`, passes. A map
whose rise from 0 lies below the smallest normal double still fails, such as
`maxvar:1000`, whose value there is already 0.49.

`dcai_axiom_check` looks `dcai` up on `distrisk.acceptability` at call time,
so a test that replaces that name feeds it chosen indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from distrisk import acceptability
from distrisk.consistency import is_pprime
from distrisk.distortion import (
    CheckReport,
    Distortion,
    DistortionFamily,
    DistortionMeasure,
    m_mu,
    psi_from_measure,
)
from distrisk.space import Filtration, RandomVariable, ScenarioSpace
from distrisk.tolerance import INDEX_TOL, LEQ_TOL, SHAPE_TOL

REGULARITY_GRID_STEP = 1e-4
CONTINUITY_GRID_RATIO = 0.99


def check_regular(psi: Distortion) -> CheckReport:
    """Grid-based regularity verdicts: boundaries, monotone, concave,
    continuity proxy, and strict domination of the diagonal for non-identity
    maps.

    The continuity proxy bounds every step of psi by ``100 *
    REGULARITY_GRID_STEP`` on the uniform grid merged with the geometric grid
    ``CONTINUITY_GRID_RATIO ** k`` down to the smallest normal double, so a
    concave map that rises steeply but continuously from 0 passes and a jump
    anywhere, at 0 included, fails."""
    grid = np.arange(0.0, 1.0 + REGULARITY_GRID_STEP / 2, REGULARITY_GRID_STEP)
    grid[-1] = 1.0
    vals = np.asarray(psi(grid), dtype=float)
    mid = psi((grid[:-2] + grid[2:]) / 2.0)
    k = np.arange(int(np.log(np.finfo(float).tiny) / np.log(CONTINUITY_GRID_RATIO)) + 1)
    fine = np.union1d(grid, CONTINUITY_GRID_RATIO ** k)
    steps = np.abs(np.diff(np.asarray(psi(fine), dtype=float)))
    inner = grid[1:-1]
    identity = psi.is_identity() or np.max(np.abs(vals - grid)) == 0.0
    return CheckReport.of(
        (vals[0] == 0.0 and vals[-1] == 1.0, "boundary: psi(0) != 0 or psi(1) != 1"),
        (np.all(np.diff(vals) >= -SHAPE_TOL), "monotone: decreasing step on grid"),
        (np.all(mid >= (vals[:-2] + vals[2:]) / 2.0 - SHAPE_TOL),
         "concave: midpoint test failed on grid"),
        (np.max(steps) <= 100.0 * REGULARITY_GRID_STEP,
         "continuous: grid jump exceeds proxy bound"),
        (identity or np.all(psi(inner) > inner),
         "domination: psi(y) <= y at an interior grid point"),
    )


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
        return acceptability.dcai(space, filtration, Z, t, family).cell_values

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


@dataclass(frozen=True)
class DichotomyReport:
    value: float
    on_boundary: bool
    verdict_ok: bool


def check_nonweak1_inequality(mu: DistortionMeasure) -> DichotomyReport:
    """Sign of psi_mu(m_mu) + m_mu - 1: zero exactly on the boundary family,
    strictly negative off it."""
    psi = psi_from_measure(mu)
    m = m_mu(mu)
    value = float(psi(m)) + m - 1.0
    boundary = is_pprime(mu)
    ok = abs(value) <= LEQ_TOL if boundary else value < -LEQ_TOL
    return DichotomyReport(value, boundary, ok)
