"""Time-consistency checks and the explicit counterexamples.

Checkers compare the risk at an earlier time with per-cell aggregates of the
risk at a later time and report margins with witnesses.  Builders construct
the three scenario trees on which the stronger consistency notions provably
fail, each carrying its expected values and verifying itself on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .acceptability import dcai
from .distortion import (
    Distortion,
    DistortionFamily,
    DistortionMeasure,
    ProportionalHazard,
    m_mu,
    pprime_distortion,
    psi_from_measure,
)
from .risk import choquet
from .space import (
    DomainError,
    Filtration,
    RandomVariable,
    ScenarioSpace,
    conditional_expectation,
    lift,
)
from .tolerance import (
    ANALYTIC_TOL,
    INDEX_TOL,
    LEQ_TOL,
    PPRIME_TOL,
    ROOT_BRACKET_SLACK,
    ROOT_TOL,
    SUBMARTINGALE_TOL,
)


@dataclass(frozen=True)
class ConsistencyReport:
    property_name: str
    t: int
    s: int | None
    margins: tuple[float, ...]
    verdict: str  # "holds" or "violated"
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _report(
    name: str, t: int, s: int | None, values, witness: dict | None
) -> ConsistencyReport:
    """A checker's report: violated exactly when there is a witness."""
    verdict = "holds" if witness is None else "violated"
    return ConsistencyReport(name, t, s, tuple(map(float, values)), verdict, witness)


@dataclass(frozen=True)
class Counterexample:
    """A concrete tree, payoff and distortion with expected risk values.

    expected maps a label like "rho_0" or "rho_1" to the target numbers;
    tolerance is the accuracy the risk module must reproduce them with.  The
    constructor re-evaluates everything, keeps the risks it computed per
    label in computed and the largest deviation in max_error, and fails
    loudly on any mismatch.
    """

    name: str
    space: ScenarioSpace
    filtration: Filtration
    X: RandomVariable
    psi: Distortion
    expected: dict
    tolerance: float
    computed: dict = field(init=False)
    max_error: float = field(init=False)

    def __post_init__(self) -> None:
        computed = {}
        max_error = 0.0
        for label, target in self.expected.items():
            t = int(label.split("_")[1])
            got = computed[label] = choquet(self.space, self.filtration, self.X, t, self.psi)
            target_arr = np.atleast_1d(np.asarray(target, dtype=float))
            if got.cell_values.shape != target_arr.shape:
                raise AssertionError(f"{self.name}: {label} shape mismatch")
            err = float(np.max(np.abs(got.cell_values - target_arr)))
            if err > self.tolerance:
                raise AssertionError(
                    f"{self.name}: {label} off by {err} (> {self.tolerance})"
                )
            max_error = max(max_error, err)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "max_error", max_error)


def check_submartingale(
    space, filtration, X, psi: Distortion, t: int, s: int
) -> ConsistencyReport:
    """Earlier risk must dominate the conditional mean of later risk."""
    if t > s:
        raise DomainError("need t <= s")
    rho_t = choquet(space, filtration, X, t, psi)
    rho_s = choquet(space, filtration, X, s, psi)
    mean_later = conditional_expectation(space, filtration, lift(filtration, rho_s), t)
    margins = rho_t.cell_values - mean_later.cell_values
    bad = int(np.argmin(margins))
    witness = None
    if not margins[bad] >= -SUBMARTINGALE_TOL:
        witness = {"cell": bad, "margin": float(margins[bad])}
    return _report("submartingale", t, s, margins, witness)


def check_super_strict_failure(
    space, filtration, X, psi: Distortion, t: int
) -> ConsistencyReport:
    """Strict gap over the conditional mean wherever the payoff is random.

    For a non-identity distortion the risk at t strictly exceeds the risk of
    the terminal conditional mean on every cell where the payoff is not
    constant, so the super-martingale property can never hold with equality.
    """
    if psi.is_identity():
        raise DomainError("the identity distortion is the excluded case")
    rho_t = choquet(space, filtration, X, t, psi)
    neg_mean = -conditional_expectation(space, filtration, X, t).cell_values
    margins = rho_t.cell_values - neg_mean
    cell_of = filtration.cell_of_atom(t)
    low = np.full(margins.size, np.inf)
    high = np.full(margins.size, -np.inf)
    np.minimum.at(low, cell_of, X.values)
    np.maximum.at(high, cell_of, X.values)
    constant = low == high
    ok = np.where(constant, np.abs(margins) <= LEQ_TOL, margins > LEQ_TOL)
    witness = None
    if not np.all(ok):
        k = int(np.argmin(ok))
        witness = {"cell": k, "margin": float(margins[k]), "constant": bool(constant[k])}
    return _report("super_strict_failure", t, None, margins, witness)


def check_weak_acceptance(
    space, filtration, X, psi: Distortion, t: int, s: int
) -> ConsistencyReport:
    """Acceptance at every later cell should imply acceptance earlier.

    Violated when some t-cell has non-positive risk on all of its s-children
    yet strictly positive risk itself.
    """
    if t >= s:
        raise DomainError("need t < s")
    rho_t = choquet(space, filtration, X, t, psi).cell_values
    rho_s = choquet(space, filtration, X, s, psi).cell_values
    parent = filtration.parent(t, s)
    rejected_children = np.bincount(parent, weights=rho_s > LEQ_TOL, minlength=rho_t.size)
    bad = (rejected_children == 0) & (rho_t > LEQ_TOL)
    witness = None
    if np.any(bad):
        k = int(np.argmax(bad))
        witness = {
            "cell": k,
            "rho_t": float(rho_t[k]),
            "rho_s_children": [float(v) for v in rho_s[parent == k]],
        }
    return _report("weak_acceptance", t, s, rho_t, witness)


def check_weak_rejection_dcai(
    space, filtration, X, family: DistortionFamily, t: int, s: int
) -> ConsistencyReport:
    """Index capped at every later cell should stay capped earlier.

    Probed at each level realized by the later index: if all s-children of a
    t-cell are at or below the level, the t-cell must be too.
    """
    if t >= s:
        raise DomainError("need t < s")
    a_t = np.asarray(dcai(space, filtration, X, t, family).cell_values)
    a_s = np.asarray(dcai(space, filtration, X, s, family).cell_values)
    parent = filtration.parent(t, s)
    # child j's index m = a_s[j] is a violating level of its parent k when
    # every child of k is at or below m and k itself is above it
    top_child = np.full(a_t.size, -np.inf)
    np.maximum.at(top_child, parent, a_s)
    level = a_s + INDEX_TOL
    bad = np.isfinite(a_s) & (top_child[parent] <= level) & (a_t[parent] > level)
    witness = None
    if np.any(bad):
        k = int(parent[bad].min())
        j = int(np.argmax(bad & (parent == k)))
        witness = {
            "cell": k,
            "level": float(a_s[j]),
            "index_t": float(a_t[k]),
            "index_s_children": [float(v) for v in a_s[parent == k]],
        }
    return _report("dcai_weak_rejection", t, s, a_t, witness)


def middle_rejection_probe(
    space, filtration, X, psi: Distortion, t: int, s: int
) -> ConsistencyReport:
    """Probe with the canonical witness: the later risk paid out as cash.

    Y is the negated later risk spread over atoms, so X and Y carry the same
    risk at time s.  A negative margin rho_t(X) - rho_t(Y) on some cell
    certifies that equal later risk does not force equal earlier risk.
    """
    if t >= s:
        raise DomainError("need t < s")
    rho_s = choquet(space, filtration, X, s, psi)
    Y = RandomVariable(-lift(filtration, rho_s).values)
    rho_t_x = choquet(space, filtration, X, t, psi).cell_values
    rho_t_y = choquet(space, filtration, Y, t, psi).cell_values
    margins = rho_t_x - rho_t_y
    bad = int(np.argmin(margins))
    witness = None
    if margins[bad] < -LEQ_TOL:
        witness = {
            "cell": bad,
            "rho_t_X": float(rho_t_x[bad]),
            "rho_t_Y": float(rho_t_y[bad]),
        }
    return _report("middle_rejection", t, s, margins, witness)


def build_nonmiddle_example() -> Counterexample:
    """Two-period binomial tree where middle rejection fails.

    Four equiprobable atoms with payoff (2, 0, 0, -2) under the square-root
    distortion.  The later risks are (sqrt(2)-2, sqrt(2)); paying them out as
    cash produces a payoff Y with the same time-1 risk but strictly larger
    time-0 risk: 2*sqrt(2)-2 against sqrt(3)-1.
    """
    space = ScenarioSpace(np.full(4, 0.25))
    filtration = Filtration((
        ((0, 1, 2, 3),),
        ((0, 1), (2, 3)),
        ((0,), (1,), (2,), (3,)),
    ))
    X = RandomVariable(np.asarray([2.0, 0.0, 0.0, -2.0]))
    psi = ProportionalHazard(0.5)
    expected = {
        "rho_1": [math.sqrt(2.0) - 2.0, math.sqrt(2.0)],
        "rho_0": [math.sqrt(3.0) - 1.0],
    }
    ce = Counterexample("nonmiddle", space, filtration, X, psi, expected, ANALYTIC_TOL)
    rho_0_Y = choquet(
        space, filtration,
        RandomVariable(-lift(filtration, choquet(space, filtration, X, 1, psi)).values),
        0, psi,
    ).cell_values[0]
    if abs(rho_0_Y - (2.0 * math.sqrt(2.0) - 2.0)) > ANALYTIC_TOL:
        raise AssertionError("nonmiddle: witness risk mismatch")
    return ce


def build_weakacc_pprime(a: float) -> Counterexample:
    """Four-atom tree where weak acceptance fails for the two-atom boundary
    distortion with parameter a > 1.

    Both time-1 cells carry exactly zero risk while the time-0 risk equals
    (a - 1) / (4a) > 0.
    """
    a = float(a)
    if a <= 1.0:
        raise DomainError("need a > 1")
    if not math.isfinite(a):
        raise DomainError(f"parameter a must be finite, got {a}")
    q = 1.0 / (4.0 * (a + 1.0))
    space = ScenarioSpace(np.asarray([0.5 - q, 0.5 - q, q, q]))
    X = RandomVariable(np.asarray([2.0, 1.0, -(a + 2.0) / a, -(2.0 * a + 4.0) / a]))
    filtration = Filtration((
        ((0, 1, 2, 3),),
        ((0, 3), (1, 2)),
        ((0,), (1,), (2,), (3,)),
    ))
    expected = {
        "rho_1": [0.0, 0.0],
        "rho_0": [(a - 1.0) / (4.0 * a)],
    }
    return Counterexample(
        f"weakacc_pprime_a{a:g}", space, filtration, X, pprime_distortion(a),
        expected, ANALYTIC_TOL,
    )


def is_pprime(mu: DistortionMeasure) -> bool:
    """Whether mu has the two-atom boundary form ((a-1)/a, 1/a) at
    (1/(a+1), 1) for some a >= 1, within ``PPRIME_TOL``."""
    if mu.support.size == 1:
        return abs(mu.support[0] - 1.0) <= PPRIME_TOL
    if mu.support.size != 2:
        return False
    s1, s2 = mu.support
    w1, w2 = mu.weights
    if abs(s2 - 1.0) > PPRIME_TOL:
        return False
    a = 1.0 / s1 - 1.0
    if a < 1.0:
        return False
    return abs(w1 - (a - 1.0) / a) <= PPRIME_TOL and abs(w2 - 1.0 / a) <= PPRIME_TOL


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


def build_weakacc_continuous(mu: DistortionMeasure, n_atoms: int) -> Counterexample:
    """Discretized uniform tree where weak acceptance fails for psi_mu.

    Off the boundary family the deficit psi_mu(m) + m - 1 is strictly
    negative, so psi_mu(z) + z - 1 has a root z0 in (m, 1/2].  The payoff is
    uniform on [a, d] with a = -m - z0, b = -m, c = 1 - m, d = 2 - m - z0,
    split at time 1 into the outer piece [a,b) with [c,d] and the middle
    piece [b,c).  In the continuum both time-1 risks are 0 while the time-0
    risk is z0 - m > 0; the midpoint discretization with n_atoms atoms
    reproduces these within O(1/n_atoms).
    """
    if is_pprime(mu):
        raise DomainError("mu lies on the boundary family; no strict violation")
    n = int(n_atoms)
    if n < 4:
        raise DomainError("need at least 4 atoms")
    if n > np.iinfo(np.int32).max:  # Filtration indexes atoms with int32
        raise DomainError(f"need at most {np.iinfo(np.int32).max} atoms")
    psi = psi_from_measure(mu)
    m = m_mu(mu)

    def g(z: float) -> float:
        return float(psi(z)) + z - 1.0

    lo, hi = m, 0.5
    if not (g(lo) < 0.0 <= g(hi) + ROOT_BRACKET_SLACK):
        raise AssertionError("root of psi(z) + z - 1 not bracketed in (m, 1/2]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROOT_TOL:
            break
    z0 = 0.5 * (lo + hi)

    a, b, c, d = -m - z0, -m, 1.0 - m, 2.0 - m - z0
    h = (d - a) / n
    values = a + (np.arange(n) + 0.5) * h
    space = ScenarioSpace(np.full(n, 1.0 / n))
    outer = tuple(int(i) for i in np.where((values < b) | (values >= c))[0])
    middle = tuple(int(i) for i in np.where((values >= b) & (values < c))[0])
    filtration = Filtration((
        (tuple(range(n)),),
        (outer, middle),
        tuple((i,) for i in range(n)),
    ))
    rho0 = -a - (d - a) * m
    rho1_outer = -(a + d) / 2.0 + (d - a) / 2.0 * (
        float(psi(2.0 * (b - a) / (d - a))) - m
    )
    rho1_middle = -b - (d - a) / 2.0 * m
    expected = {
        "rho_1": [rho1_outer, rho1_middle],
        "rho_0": [rho0],
    }
    tol = 10.0 * (d - a) / n
    ce = Counterexample(
        f"weakacc_continuous_n{n}", space, filtration,
        RandomVariable(values), psi, expected, tol,
    )
    return ce
