"""Acceptability indices from increasing families of distortions.

The index of a payoff at a cell is the largest family parameter whose risk is
still non-positive.  Because the risk is monotone in the parameter the level
set is an interval: a bisection over the exponent k of the doubling grid
X_MIN * 2**k brackets its boundary, and a bisection of the bracket finds it.
Each probe is the cell's :func:`~distrisk.risk.choquet` risk under one member,
formed by the same sum (:func:`distrisk.risk._choquet`), so an index is the
edge of the acceptance that ``choquet`` reports.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .distortion import (
    FAMILY_NOT_INCREASING,
    DistortionFamily,
    check_family_monotone,
)
from .risk import _choquet
from .space import (
    AdaptedValue,
    DomainError,
    Filtration,
    RandomVariable,
    ScenarioSpace,
    conditional_distribution,  # noqa: F401  (the per-cell path; perfbench/tracer.py times it here)
    level_laws,
)
from .tolerance import BISECT_TOL, X_MAX, X_MIN


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


_START = np.zeros(1, dtype=np.intp)  # a cell slice's one start, for _choquet

_K = 0  # the last exponent k of the doubling grid X_MIN * 2**k inside the cap X_MAX: 49
while X_MIN * 2.0 ** (_K + 1) <= X_MAX:
    _K += 1


def _cell_index(support, F, family: DistortionFamily) -> float:
    def rho(x: float) -> float:
        return float(_choquet(support, np.asarray(family(x)(F), dtype=float), _START)[0])
    if rho(X_MIN) > 0.0:
        return 0.0
    # the first rejected doubling X_MIN * 2**k, k in 1.._K, by bisection over k (_K + 1: none)
    k = bisect.bisect_left(range(_K + 1), True, lo=1, key=lambda k: rho(X_MIN * 2.0**k) > 0.0)
    if k <= _K:
        lo, hi = X_MIN * 2.0 ** (k - 1), X_MIN * 2.0**k
    elif rho(X_MAX) <= 0.0:
        return math.inf
    else:
        lo, hi = X_MIN * 2.0**_K, X_MAX
    return _halve(lambda x: rho(x) <= 0.0, lo, hi, BISECT_TOL)[0]


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
    interval to width ``BISECT_TOL``.  Each probe's risk is the cell's
    :func:`~distrisk.risk.choquet` risk under that member, bit for bit.  The
    bracket is the first rejected doubling ``X_MIN * 2**k`` (k <= 49), found
    in at most 6 probes by bisecting over k: a cell costs 1 probe at the
    floor, at most 8 at the cap and at most 7 + k inside (a linear doubling
    scan about 2k), with that scan's exact indices whenever the risk's sign is
    monotone in the parameter.

    Only :func:`check_family_monotone`'s monotonicity failure rejects the
    family (DomainError), not a right-continuity failure alone; a family
    increasing only on that probe grid may bracket unlike a linear scan.
    """
    if FAMILY_NOT_INCREASING in check_family_monotone(family).failures:
        raise DomainError("family is not increasing on the probe grid")
    laws = level_laws(space, filtration, X, t)
    return AdaptedValue(t, [
        _cell_index(laws.support[a:b], laws.F[a:b], family)
        for a, b in zip(laws.start, laws.stop)
    ])
