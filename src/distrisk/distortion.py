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
the identity member's exact unit slope, the infinite slope at 0, the slope
at 1 (``_dpsi`` there) and the scalar unwrapping; the Cherny-Madan kinds
MinVar, MaxVar, MaxMinVar and MinMaxVar state their map once, as a static
``kernel(y, x)`` broadcasting over both, and share their parameter check,
label and identity at x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .space import DiscreteDistribution, DomainError
from .tolerance import (
    PROBE_OFFSET,
    RIGHT_CONTINUITY_TOL,
    SHAPE_TOL,
)


def _check_unit(y) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if not ((arr >= 0.0).all() and (arr <= 1.0).all()):  # NaN fails; ndarray.all: no np.all layers
        raise DomainError("argument must lie in [0, 1]")
    return arr


class Distortion:
    """Base class: evaluable on [0,1] with a right derivative on [0,1).

    A subclass supplies its closed form as two hooks on checked float
    arrays, ``_psi(y)`` for the map and ``_dpsi(z)`` for its right
    derivative; the base checks the domains, returns exact ones for an
    identity member, takes the slope at 1 from ``_dpsi`` and unwraps 0-d results.
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
        if not ((z >= 0).all() and (z < 1).all()):  # NaN fails both
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
        return 1.0 if self.is_identity() else float(self._dpsi(np.float64(1.0)))

    def is_identity(self) -> bool:
        """True when the map is pointwise the identity."""
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


class Identity(Distortion):
    kind = label = "identity"

    def _psi(self, y):
        return y

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

    def _psi(self, y):
        return self.kernel(y, self.x)

    def is_identity(self) -> bool:
        return self.x == 0.0


class MinVar(_Parametric):
    """psi(y) = 1 - (1 - y)**(x + 1), x >= 0."""

    kind = "minvar"
    infinite_slope_at_zero = False

    @staticmethod
    def kernel(y, x):
        return 1.0 - (1.0 - y) ** (x + 1.0)

    def _dpsi(self, z):
        return (self.x + 1.0) * (1.0 - z) ** self.x


class MaxVar(_Parametric):
    """psi(y) = y**(1/(x + 1)), x >= 0."""

    kind = "maxvar"

    @staticmethod
    def kernel(y, x):
        return y ** (1.0 / (x + 1.0))

    def _dpsi(self, z):
        e = 1.0 / (self.x + 1.0)
        return e * z ** (e - 1.0)


class MaxMinVar(_Parametric):
    """psi(y) = (1 - (1 - y)**(x + 1))**(1/(x + 1)), x >= 0."""

    kind = "maxminvar"

    @staticmethod
    @np.errstate(divide="ignore")  # log1p(-1) = -inf, so psi(1) = 1 exactly
    def kernel(y, x):
        # 1 - (1 - y)**k as -expm1(k log1p(-y)), which does not cancel below y = eps
        k = x + 1.0
        return (-np.expm1(k * np.log1p(-y))) ** (1.0 / k)

    def _dpsi(self, z):
        return ((1.0 - z) / self._psi(z)) ** self.x


class MinMaxVar(_Parametric):
    """psi(y) = 1 - (1 - y**(1/(x + 1)))**(x + 1), x >= 0."""

    kind = "minmaxvar"

    @staticmethod
    def kernel(y, x):
        k = x + 1.0
        return 1.0 - (1.0 - y ** (1.0 / k)) ** k

    def _dpsi(self, z):
        e = 1.0 / (self.x + 1.0)
        return (1.0 - z ** e) ** self.x * z ** (e - 1.0)


class PiecewiseLinear(Distortion):
    """Knot-interpolated distortion; concavity is recorded as ``regular``,
    not assumed.

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
        self.regular = bool(np.all(np.diff(self.slopes) <= SHAPE_TOL))
        self.label = label

    def _psi(self, y):
        return np.interp(y, self.knots_y, self.knots_v)

    def _dpsi(self, z):
        # segment to the right of z: first knot strictly above z bounds it
        seg = np.searchsorted(self.knots_y, z, side="right") - 1
        return self.slopes[np.clip(seg, 0, self.slopes.size - 1)]

    def is_identity(self) -> bool:
        return bool(np.allclose(self.knots_v, self.knots_y, rtol=0, atol=0))


@dataclass(frozen=True)
class DistortionMeasure(DiscreteDistribution):
    """Finitely supported probability measure on (0, 1]."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.support[0] <= 0.0 or self.support[-1] > 1.0:  # the support increases
            raise DomainError("support must lie in (0, 1]")


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
    # running sums as np.add.accumulate (np.cumsum's ufunc, without its
    # wrapper's overhead on the few atoms a measure usually has)
    tail = np.add.accumulate((mu.weights / s)[::-1])[::-1]  # slope left of each support point
    knots_y = np.concatenate(((0.0,), s, (1.0,)))
    knots_v = np.concatenate(((0.0,), np.add.accumulate(tail * (s - knots_y[:-2])), (1.0,)))
    knots_v[-2] = 1.0  # exact by construction, pin against round-off
    end = None if s[-1] < 1.0 else -1  # no closing knot when 1 is in the support
    return PiecewiseLinear(knots_y[:end], knots_v[:end], label=label or "from_measure")


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
    if not psi.regular:
        raise DomainError("measure extraction needs a concave distortion")
    if isinstance(psi, PiecewiseLinear):
        slopes = psi.slopes
        # the slope drop at each inner knot times the knot, then the last slope at 1
        support = np.concatenate((psi.knots_y[1:-1], (1.0,)))
        weights = np.concatenate((support[:-1] * (slopes[:-1] - slopes[1:]), slopes[-1:]))
        keep = weights > 0.0
        return DistortionMeasure(support[keep], weights[keep])

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
    return 0.5 * mu.mean()


@dataclass(frozen=True)
class CheckReport:
    """What a premise check found wrong: one message per failed test."""

    failures: tuple[str, ...]

    @classmethod
    def of(cls, *checks) -> CheckReport:
        """The report on (ok, message) pairs: the messages of those not ok."""
        return cls(tuple(message for ok, message in checks if not ok))

    @property
    def passed(self) -> bool:
        return not self.failures


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


FAMILY_NOT_INCREASING = "family not increasing in the index on the probe grid"


def check_family_monotone(family: DistortionFamily) -> CheckReport:
    """Probe monotonicity in the index and right-continuity by finite offset."""
    x_grid = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    y_grid = np.linspace(0.0, 1.0, 41)

    def values(offset: float) -> np.ndarray:  # one row per grid parameter
        return np.array([family(x + offset)(y_grid) for x in x_grid], dtype=float)

    v = values(0.0)
    # estimate the right limit from two offsets; the linear extrapolation
    # cancels the O(offset) drift of a smooth family while a genuine jump
    # survives in full
    v1, v2 = values(PROBE_OFFSET), values(2.0 * PROBE_OFFSET)
    jumps = np.max(np.abs(2.0 * v1 - v2 - v), axis=1)
    return CheckReport.of(
        (not np.any(v[1:] < v[:-1] - SHAPE_TOL), FAMILY_NOT_INCREASING),
        (not np.any(jumps > RIGHT_CONTINUITY_TOL),
         "family fails the finite-offset right-continuity probe"),
    )
