"""Distortion functions and their generating measures.

A distortion is a non-decreasing map of [0,1] onto itself fixing the
endpoints; the regular ones (concave and continuous) generate the coherent
evaluators in :mod:`distrisk.risk`.  Concave distortions are in one-to-one
correspondence with probability measures on (0,1]; both directions of that
correspondence are implemented here, together with the parametric families
used to build acceptability indices.

Each built-in kind is a :class:`Distortion` subclass that holds its spec
name ``kind`` (``minvar`` in the spec ``minvar:2``; the CLI grammar and the
family names read it from there) and its closed form as the pair of hooks
``_psi(y)`` and ``_dpsi(z)``.  The base class owns the domain checks,
the identity member's exact unit slope, the infinite slope at 0 and the
scalar unwrapping; the members MinVar, MaxVar, MaxMinVar and MinMaxVar of
the Cherny-Madan families also share their parameter check, label and
identity at x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .space import DomainError
from .tolerance import (
    CONTINUITY_GRID_RATIO,
    PROB_SUM_TOL,
    PROBE_OFFSET,
    REGULARITY_GRID_STEP,
    RIGHT_CONTINUITY_TOL,
    SHAPE_TOL,
)


def _check_unit(y) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("argument must lie in [0, 1]")
    return arr


class Distortion:
    """Base class: evaluable on [0,1] with a right derivative on [0,1).

    A subclass supplies its closed form as two hooks on checked float
    arrays, ``_psi(y)`` for the map and ``_dpsi(z)`` for its right
    derivative; the base checks the domains, returns exact ones for an
    identity member and unwraps 0-d results.
    """

    #: spec name of a built-in kind (``minvar`` in ``minvar:2``), also its family's name
    kind: str
    label = "distortion"
    #: concave and continuous, hence usable in the Choquet evaluator
    regular = True
    #: the right derivative diverges at 0, whatever ``_dpsi`` gives there
    infinite_slope_at_zero = False

    def __call__(self, y):
        return self._psi(_check_unit(y))

    def right_derivative(self, z):
        """Right derivative at z in [0,1); math.inf where it diverges."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0) or np.any(z >= 1):
            raise DomainError("right derivative needs z in [0, 1)")
        if self.is_identity():
            return np.ones_like(z) if z.ndim else 1.0
        with np.errstate(divide="ignore"):
            d = self._dpsi(z)
        if self.infinite_slope_at_zero:
            d = np.where(z > 0, d, math.inf)
        return d if d.ndim else float(d)

    def derivative_at_one_minus(self) -> float:
        """Left limit of the derivative at 1 (the mass the measure puts at 1)."""
        raise NotImplementedError

    def is_identity(self) -> bool:
        """True when the map is pointwise the identity."""
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


class Identity(Distortion):
    kind = label = "identity"

    def _psi(self, y):
        return y

    def derivative_at_one_minus(self) -> float:
        return 1.0

    def is_identity(self) -> bool:
        return True


class ProportionalHazard(Distortion):
    """psi(y) = y**gamma with gamma in (0, 1]."""

    kind = "prop_hazard"
    infinite_slope_at_zero = True

    def __init__(self, gamma: float):
        gamma = float(gamma)
        if not 0.0 < gamma <= 1.0:
            raise DomainError("proportional-hazard exponent must be in (0, 1]")
        self.gamma = gamma
        self.label = f"{self.kind}:{gamma:g}"

    def _psi(self, y):
        return y ** self.gamma

    def _dpsi(self, z):
        return self.gamma * z ** (self.gamma - 1.0)

    def derivative_at_one_minus(self) -> float:
        return self.gamma

    def is_identity(self) -> bool:
        return self.gamma == 1.0


class _Parametric(Distortion):
    """Member x >= 0 of one of the Cherny-Madan families; x = 0 is the identity."""

    infinite_slope_at_zero = True

    def __init__(self, x: float):
        x = float(x)
        if not 0.0 <= x < math.inf:
            raise DomainError("family parameter must be a finite non-negative number")
        self.x = x
        self.label = f"{self.kind}:{x:g}"

    def derivative_at_one_minus(self) -> float:
        return 1.0 if self.x == 0 else 0.0

    def is_identity(self) -> bool:
        return self.x == 0.0


class MinVar(_Parametric):
    """psi(y) = 1 - (1 - y)**(x + 1), x >= 0."""

    kind = "minvar"
    infinite_slope_at_zero = False

    def _psi(self, y):
        return 1.0 - (1.0 - y) ** (self.x + 1.0)

    def _dpsi(self, z):
        return (self.x + 1.0) * (1.0 - z) ** self.x


class MaxVar(_Parametric):
    """psi(y) = y**(1/(x + 1)), x >= 0."""

    kind = "maxvar"

    def _psi(self, y):
        return y ** (1.0 / (self.x + 1.0))

    def _dpsi(self, z):
        e = 1.0 / (self.x + 1.0)
        return e * z ** (e - 1.0)

    def derivative_at_one_minus(self) -> float:
        return 1.0 / (self.x + 1.0)


class MaxMinVar(_Parametric):
    """psi(y) = (1 - (1 - y)**(x + 1))**(1/(x + 1)), x >= 0."""

    kind = "maxminvar"

    def _psi(self, y):
        k = self.x + 1.0
        return (1.0 - (1.0 - y) ** k) ** (1.0 / k)

    def _dpsi(self, z):
        k = self.x + 1.0
        inner = 1.0 - (1.0 - z) ** k
        return (1.0 / k) * inner ** (1.0 / k - 1.0) * k * (1.0 - z) ** (k - 1.0)


class MinMaxVar(_Parametric):
    """psi(y) = 1 - (1 - y**(1/(x + 1)))**(x + 1), x >= 0."""

    kind = "minmaxvar"

    def _psi(self, y):
        k = self.x + 1.0
        return 1.0 - (1.0 - y ** (1.0 / k)) ** k

    def _dpsi(self, z):
        k = self.x + 1.0
        return (1.0 - z ** (1.0 / k)) ** (k - 1.0) * z ** (1.0 / k - 1.0)


class PiecewiseLinear(Distortion):
    """Knot-interpolated distortion; concavity is recorded, not assumed.

    Non-concave instances are accepted (they are needed as defect fixtures)
    but the risk evaluators reject them.
    """

    def __init__(self, knots_y, knots_v, label: str = "piecewise_linear"):
        y = np.asarray(knots_y, dtype=float)
        v = np.asarray(knots_v, dtype=float)
        if y.ndim != 1 or y.shape != v.shape or y.size < 2:
            raise DomainError("need matching knot vectors with at least two points")
        if y[0] != 0.0 or y[-1] != 1.0:
            raise DomainError("knot abscissae must start at 0 and end at 1")
        if np.any(np.diff(y) <= 0):
            raise DomainError("knot abscissae must be strictly increasing")
        if v[0] != 0.0 or v[-1] != 1.0:
            raise DomainError("a distortion must map 0 to 0 and 1 to 1")
        if np.any(np.diff(v) < 0):
            raise DomainError("a distortion must be non-decreasing")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(v))):
            raise DomainError("knots must be finite numbers")
        self.knots_y = y
        self.knots_v = v
        self.slopes = np.diff(v) / np.diff(y)
        self.concave = bool(np.all(np.diff(self.slopes) <= SHAPE_TOL))
        self.label = label

    @property
    def regular(self) -> bool:  # type: ignore[override]
        return self.concave

    def _psi(self, y):
        return np.interp(y, self.knots_y, self.knots_v)

    def _dpsi(self, z):
        # segment to the right of z: first knot strictly above z bounds it
        seg = np.searchsorted(self.knots_y, z, side="right") - 1
        return self.slopes[np.clip(seg, 0, self.slopes.size - 1)]

    def derivative_at_one_minus(self) -> float:
        return float(self.slopes[-1])

    def is_identity(self) -> bool:
        return bool(np.allclose(self.knots_v, self.knots_y, rtol=0, atol=0))


@dataclass(frozen=True)
class DistortionMeasure:
    """Finitely supported probability measure on (0, 1]."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.support, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.shape != w.shape or s.ndim != 1 or s.size == 0:
            raise DomainError("support and weights must be matching non-empty vectors")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(w))):
            raise DomainError("support and weights must be finite")
        if np.any(s <= 0.0) or np.any(s > 1.0):
            raise DomainError("support must lie in (0, 1]")
        if np.any(np.diff(s) <= 0):
            raise DomainError("support must be strictly increasing")
        if np.any(w <= 0):
            raise DomainError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > PROB_SUM_TOL:
            raise DomainError("weights must sum to 1")
        s = s.copy()
        w = w.copy()
        s.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class MeasureDescriptor:
    """Analytic description of the measure behind a smooth concave distortion.

    The continuous part is exposed as an evaluable CDF on [0, 1]; the atom at
    1 carries the left-limit slope of the distortion there.
    """

    cdf: Callable[[float], float]
    atom_at_one: float


def dirac(s: float) -> DistortionMeasure:
    return DistortionMeasure(np.asarray([float(s)]), np.asarray([1.0]))


def pprime_measure(a: float) -> DistortionMeasure:
    """Two-atom boundary measure ((a-1)/a) at 1/(a+1) plus (1/a) at 1, a >= 1."""
    a = float(a)
    if not 1.0 <= a < math.inf:
        raise DomainError("boundary-family parameter must be finite with a >= 1")
    if a == 1.0:
        return dirac(1.0)
    return DistortionMeasure(
        np.asarray([1.0 / (a + 1.0), 1.0]),
        np.asarray([(a - 1.0) / a, 1.0 / a]),
    )


def psi_from_measure(mu: DistortionMeasure, label: str | None = None) -> PiecewiseLinear:
    """Concave piecewise-linear distortion generated by mu.

    On the gap below each support point s_k the slope is the tail sum of
    w_j / s_j over s_j >= s_k; the graph is flat at 1 above the largest
    support point.
    """
    s = mu.support
    w = mu.weights
    tail = np.cumsum((w / s)[::-1])[::-1]  # slope left of each support point
    knots_y = [0.0]
    knots_v = [0.0]
    for k in range(s.size):
        knots_y.append(float(s[k]))
        knots_v.append(knots_v[-1] + tail[k] * (knots_y[-1] - knots_y[-2]))
    knots_v[-1] = 1.0  # exact by construction, pin against round-off
    if knots_y[-1] < 1.0:
        knots_y.append(1.0)
        knots_v.append(1.0)
    return PiecewiseLinear(knots_y, knots_v, label=label or "from_measure")


def pprime_distortion(a: float) -> PiecewiseLinear:
    return psi_from_measure(pprime_measure(a), label=f"pprime:{float(a):g}")


def measure_from_distortion(psi: Distortion) -> DistortionMeasure | MeasureDescriptor:
    """Invert the generating correspondence.

    Piecewise-linear concave distortions yield exact atoms (the jump sizes of
    the induced distribution function); smooth kinds yield the distribution
    function as a callable plus the exact atom at 1.
    """
    if psi.is_identity():
        return dirac(1.0)
    if isinstance(psi, PiecewiseLinear):
        if not psi.concave:
            raise DomainError("measure extraction needs a concave distortion")
        support: list[float] = []
        weights: list[float] = []
        slopes = psi.slopes
        for k in range(1, psi.knots_y.size - 1):
            jump = psi.knots_y[k] * (slopes[k - 1] - slopes[k])
            if jump > 0.0:
                support.append(float(psi.knots_y[k]))
                weights.append(float(jump))
        if slopes[-1] > 0.0:
            support.append(1.0)
            weights.append(float(slopes[-1]))
        return DistortionMeasure(np.asarray(support), np.asarray(weights))
    if not psi.regular:
        raise DomainError("measure extraction needs a concave distortion")

    def cdf(y: float) -> float:
        y = float(y)
        if y <= 0.0:
            return 0.0
        if y >= 1.0:
            return 1.0
        return float(psi(y) - y * psi.right_derivative(y))

    return MeasureDescriptor(cdf=cdf, atom_at_one=psi.derivative_at_one_minus())


def m_mu(mu: DistortionMeasure) -> float:
    """Half the mean of mu; equals the slope-weighted first moment of psi_mu."""
    return 0.5 * float(mu.support @ mu.weights)


@dataclass(frozen=True)
class RegularityReport:
    boundary_ok: bool
    monotone_ok: bool
    concave_ok: bool
    continuous_ok: bool
    dominates_ok: bool | None  # None when the identity exclusion applies
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_regular(psi: Distortion) -> RegularityReport:
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
    failures: list[str] = []

    boundary_ok = vals[0] == 0.0 and vals[-1] == 1.0
    if not boundary_ok:
        failures.append("boundary: psi(0) != 0 or psi(1) != 1")

    diffs = np.diff(vals)
    monotone_ok = bool(np.all(diffs >= -SHAPE_TOL))
    if not monotone_ok:
        failures.append("monotone: decreasing step on grid")

    mid = psi((grid[:-2] + grid[2:]) / 2.0)
    concave_ok = bool(np.all(mid >= (vals[:-2] + vals[2:]) / 2.0 - SHAPE_TOL))
    if not concave_ok:
        failures.append("concave: midpoint test failed on grid")

    k = np.arange(int(np.log(np.finfo(float).tiny) / np.log(CONTINUITY_GRID_RATIO)) + 1)
    fine = np.union1d(grid, CONTINUITY_GRID_RATIO ** k)
    steps = np.abs(np.diff(np.asarray(psi(fine), dtype=float)))
    continuous_ok = bool(np.max(steps) <= 100.0 * REGULARITY_GRID_STEP)
    if not continuous_ok:
        failures.append("continuous: grid jump exceeds proxy bound")

    inner = grid[1:-1]
    if psi.is_identity() or np.max(np.abs(vals - grid)) == 0.0:
        dominates_ok = None
    else:
        dominates_ok = bool(np.all(psi(inner) > inner))
        if not dominates_ok:
            failures.append("domination: psi(y) <= y at an interior grid point")

    return RegularityReport(
        boundary_ok, monotone_ok, concave_ok, continuous_ok, dominates_ok,
        tuple(failures),
    )


@dataclass(frozen=True)
class DistortionFamily:
    """Distortions indexed by a positive parameter; the acceptability index
    assumes them increasing in it (see :func:`check_family_monotone`)."""

    generator: Callable[[float], Distortion]
    name: str = "family"

    def __call__(self, x: float) -> Distortion:
        return self.generator(float(x))


def minvar_family() -> DistortionFamily:
    return DistortionFamily(MinVar, name=MinVar.kind)


def maxvar_family() -> DistortionFamily:
    return DistortionFamily(MaxVar, name=MaxVar.kind)


def maxminvar_family() -> DistortionFamily:
    return DistortionFamily(MaxMinVar, name=MaxMinVar.kind)


def minmaxvar_family() -> DistortionFamily:
    return DistortionFamily(MinMaxVar, name=MinMaxVar.kind)


@dataclass(frozen=True)
class FamilyReport:
    monotone_ok: bool
    right_continuous_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_family_monotone(family: DistortionFamily) -> FamilyReport:
    """Probe monotonicity in the index and right-continuity by finite offset."""
    x_grid = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    y_grid = np.linspace(0.0, 1.0, 41)
    failures: list[str] = []

    vals = [np.asarray(family(x)(y_grid), dtype=float) for x in x_grid]
    monotone_ok = True
    for a, b in zip(vals[:-1], vals[1:]):
        if np.any(b < a - SHAPE_TOL):
            monotone_ok = False
    if not monotone_ok:
        failures.append("family not increasing in the index on the probe grid")

    right_continuous_ok = True
    for x, v in zip(x_grid, vals):
        # estimate the right limit from two offsets; the linear extrapolation
        # cancels the O(offset) drift of a smooth family while a genuine jump
        # survives in full
        v1 = np.asarray(family(x + PROBE_OFFSET)(y_grid), dtype=float)
        v2 = np.asarray(family(x + 2.0 * PROBE_OFFSET)(y_grid), dtype=float)
        if np.max(np.abs(2.0 * v1 - v2 - v)) > RIGHT_CONTINUITY_TOL:
            right_continuous_ok = False
    if not right_continuous_ok:
        failures.append("family fails the finite-offset right-continuity probe")

    return FamilyReport(monotone_ok, right_continuous_ok, tuple(failures))
