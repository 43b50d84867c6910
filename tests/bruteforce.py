"""Per-cell reference implementations, used as test oracles.

Evaluators walk the cells one at a time: `conditional_distribution` gives
each cell's law as a `DiscreteDistribution`, and the `distribution_*`
functions here evaluate one such law (the library evaluates only on
`LevelLaws`, every cell of a level at once); `dcai` brackets and bisects
each cell's law with its own search bounds; `merge_ties` is the two-key
(cell, value) sort that the level laws must line up with; the structural
maps and the checkers are the straightforward loops over cells and
children, and the sub-martingale and middle-rejection checks take every
risk from the per-cell laws; `validate` is the set-based structural report
and `document_to_text` the writer that renders every atom and cell through
`dumps_17g`;
`build_weakacc_continuous` lists the continuum counterexample's cells as
int tuples; `dcai_scalar` is the index search with the increments taken by
`np.diff(prepend=0.0)`, from which `check_weak_rejection_dcai` takes its
indices.  The other checkers look up `choquet` on `distrisk.consistency` at
call time, so a test that replaces that name (and `dcai_scalar` here) feeds
the library checker and its oracle the same values.
"""

from __future__ import annotations

import math

import numpy as np

from distrisk import consistency
from distrisk.consistency import (
    LEQ_TOL,
    SUBMARTINGALE_TOL,
    ConsistencyReport,
    Counterexample,
    build_weakacc_continuous as library_weakacc_continuous,
)
from distrisk.distortion import Distortion, DistortionMeasure, m_mu
from distrisk.risk import _check_alpha_tail
from distrisk.space import (
    RENORM_WINDOW,
    DiscreteDistribution,
    Filtration,
    RandomVariable,
    conditional_distribution,
    level_laws,
)
from distrisk.tolerance import BISECT_TOL, X_MAX, X_MIN
from distrisk.treedoc import SCHEMA_VERSION, dumps_17g

# the bounds of the per-cell index search, written out here rather than read
# from distrisk.tolerance, so that the oracle does not move with the library
DCAI_X_MIN = 1e-9
DCAI_X_MAX = 1e6
DCAI_TOL = 1e-9


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


def distribution_dwvar(dist: DiscreteDistribution, mu: DistortionMeasure) -> float:
    """Mixture of tail means over the levels of mu."""
    return float(
        sum(
            w * distribution_avar(dist, s)
            for s, w in zip(mu.support, mu.weights)
        )
    )


def laws(space, filtration, X, t):
    return [
        conditional_distribution(space, filtration, X, t, k)
        for k in range(filtration.n_cells(t))
    ]


def choquet(cell_laws, psi):
    return np.asarray([distribution_choquet(d, psi) for d in cell_laws])


def quantile_upper(cell_laws, alpha):
    return np.asarray([distribution_quantile_upper(d, alpha) for d in cell_laws])


def quantile_lower(cell_laws, alpha):
    return np.asarray([distribution_quantile_lower(d, alpha) for d in cell_laws])


def avar(cell_laws, alpha):
    return np.asarray([distribution_avar(d, alpha) for d in cell_laws])


def avar_robust(cell_laws, alpha):
    return np.asarray([distribution_avar_robust(d, alpha) for d in cell_laws])


def dwvar(cell_laws, mu):
    return np.asarray([distribution_dwvar(d, mu) for d in cell_laws])


def min_iid_rho(cell_laws, k):
    out = []
    for d in cell_laws:
        F = np.cumsum(d.weights)
        F[-1] = 1.0
        F_min = 1.0 - (1.0 - F) ** k
        out.append(-float(d.support @ np.diff(np.concatenate(([0.0], F_min)))))
    return np.asarray(out)


def dcai(cell_laws, family):
    """Geometric bracketing plus bisection on each cell's law."""

    def rho(d, x):
        return distribution_choquet(d, family(x))

    out = []
    for d in cell_laws:
        if rho(d, DCAI_X_MIN) > 0.0:
            out.append(0.0)
            continue
        lo, hi = DCAI_X_MIN, 2.0 * DCAI_X_MIN
        while hi <= DCAI_X_MAX and rho(d, hi) <= 0.0:
            lo, hi = hi, 2.0 * hi
        if hi > DCAI_X_MAX:
            if rho(d, DCAI_X_MAX) <= 0.0:
                out.append(math.inf)
                continue
            hi = DCAI_X_MAX
        while hi - lo > DCAI_TOL:
            mid = 0.5 * (lo + hi)
            if rho(d, mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        out.append(lo)
    return out


def _rho_at(support, F, family, x):
    terms = np.diff(np.asarray(family(x)(F), dtype=float), prepend=0.0)
    terms *= support
    return -float(np.add.reduce(terms))


def _cell_index(support, F, family):
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
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _rho_at(support, F, family, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def dcai_scalar(space, filtration, X, t, family):
    """The library's index search as it was with its increments taken by
    np.diff(prepend=0.0), cell by cell on the same level_laws slices: the
    oracle the library must match byte for byte."""
    laws = level_laws(space, filtration, X, t)
    return np.asarray([
        _cell_index(laws.support[a:b], laws.F[a:b], family)
        for a, b in zip(laws.start, laws.stop)
    ])


def conditional_expectation(space, filtration, X, t):
    out = []
    for cell in filtration.cells(t):
        idx = list(cell)
        p = space.probabilities[idx]
        out.append(float(X.values[idx] @ p / p.sum()))
    return np.asarray(out)


def merge_ties(cell_of, x, p):
    """Two-key sort of the atoms by (cell, value), then the merge of equal
    values within a cell: the cell, the value and the total probability of
    each merged point.  The order `LevelLaws` must reproduce exactly."""
    order = np.lexsort((x, cell_of))
    cell = cell_of[order]
    x = x[order]
    new = np.ones(x.size, dtype=bool)
    new[1:] = (cell[1:] != cell[:-1]) | (x[1:] != x[:-1])
    runs = np.flatnonzero(new)
    return cell[runs], x[runs], np.add.reduceat(p[order], runs)


def lift(filtration, t, cell_values):
    out = np.empty(filtration.n_atoms)
    for k, cell in enumerate(filtration.cells(t)):
        out[list(cell)] = cell_values[k]
    return out


def cell_of_atom(filtration, t):
    out = np.empty(filtration.n_atoms, dtype=int)
    for k, cell in enumerate(filtration.cells(t)):
        out[list(cell)] = k
    return out


def parent(filtration, t, s):
    cell_of = cell_of_atom(filtration, t)
    return [int(cell_of[cell[0]]) for cell in filtration.cells(s)]


def check_super_strict_failure(space, filtration, X, psi, t):
    rho_t = consistency.choquet(space, filtration, X, t, psi)
    neg_mean = -consistency.conditional_expectation(space, filtration, X, t).cell_values
    margins = rho_t.cell_values - neg_mean
    cell_of = cell_of_atom(filtration, t)
    witness = None
    for k in range(filtration.n_cells(t)):
        vals = X.values[cell_of == k]
        constant = bool(np.all(vals == vals[0]))
        ok = abs(margins[k]) <= LEQ_TOL if constant else margins[k] > LEQ_TOL
        if not ok:
            witness = {"cell": k, "margin": float(margins[k]), "constant": constant}
            break
    return ConsistencyReport(None, tuple(float(m) for m in margins), witness)


def check_submartingale(space, filtration, X, psi, t, s):
    rho_t = choquet(laws(space, filtration, X, t), psi)
    rho_s = choquet(laws(space, filtration, X, s), psi)
    later = RandomVariable(lift(filtration, s, rho_s))
    margins = rho_t - conditional_expectation(space, filtration, later, t)
    bad = min(range(margins.size), key=lambda k: margins[k])
    witness = None
    if not margins[bad] >= -SUBMARTINGALE_TOL:
        witness = {"cell": bad, "margin": float(margins[bad])}
    return ConsistencyReport(s, tuple(float(m) for m in margins), witness)


def middle_rejection_probe(space, filtration, X, psi, t, s):
    rho_s = choquet(laws(space, filtration, X, s), psi)
    Y = RandomVariable(lift(filtration, s, -rho_s))
    rho_t_x = choquet(laws(space, filtration, X, t), psi)
    rho_t_y = choquet(laws(space, filtration, Y, t), psi)
    margins = rho_t_x - rho_t_y
    bad = min(range(margins.size), key=lambda k: margins[k])
    witness = None
    if margins[bad] < -LEQ_TOL:
        witness = {
            "cell": bad,
            "rho_t_X": float(rho_t_x[bad]),
            "rho_t_Y": float(rho_t_y[bad]),
        }
    return ConsistencyReport(s, tuple(float(m) for m in margins), witness)


def check_weak_acceptance(space, filtration, X, psi, t, s):
    rho_t = consistency.choquet(space, filtration, X, t, psi).cell_values
    rho_s = consistency.choquet(space, filtration, X, s, psi).cell_values
    par = parent(filtration, t, s)
    witness = None
    for k in range(filtration.n_cells(t)):
        children = [j for j, p in enumerate(par) if p == k]
        if all(rho_s[j] <= LEQ_TOL for j in children) and rho_t[k] > LEQ_TOL:
            witness = {
                "cell": k,
                "rho_t": float(rho_t[k]),
                "rho_s_children": [float(rho_s[j]) for j in children],
            }
            break
    return ConsistencyReport(s, tuple(float(v) for v in rho_t), witness)


def check_weak_rejection_dcai(space, filtration, X, family, t, s):
    a_t = dcai_scalar(space, filtration, X, t, family)
    a_s = dcai_scalar(space, filtration, X, s, family)
    par = parent(filtration, t, s)
    index_slack = 1e-6
    witness = None
    for k in range(filtration.n_cells(t)):
        children = [j for j, p in enumerate(par) if p == k]
        for m in (a_s[j] for j in children):
            if math.isinf(m):
                continue
            if all(a_s[j] <= m + index_slack for j in children) and a_t[k] > m + index_slack:
                witness = {
                    "cell": k,
                    "level": float(m),
                    "index_t": float(a_t[k]),
                    "index_s_children": [float(a_s[j]) for j in children],
                }
                break
        if witness:
            break
    return ConsistencyReport(s, tuple(float(v) for v in a_t), witness)


def validate(probabilities, partitions, *value_vectors):
    report = []
    p = np.asarray(probabilities, dtype=float)
    n = p.size
    if p.ndim != 1 or n == 0:
        report.append("probabilities: not a non-empty vector")
        return report
    if np.any(~np.isfinite(p)):
        report.append("probabilities: non-finite entries")
    if np.any(p <= 0):
        report.append("probabilities: non-positive entries")
    total = float(p.sum())
    if abs(total - 1.0) > RENORM_WINDOW:
        report.append(f"probabilities: sum {total} outside renormalization window")

    levels = [[tuple(int(i) for i in cell) for cell in lvl] for lvl in partitions]
    if not levels:
        report.append("partitions: not a non-empty sequence of levels")
    # int() also takes 0.9, "1" and True; a level holding one is no partition
    integral = [
        all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
            for cell in lvl for i in cell)
        for lvl in partitions
    ]
    atom_set = set(range(n))
    ok_shape = True
    for t, level in enumerate(levels):
        flat = [i for cell in level for i in cell]
        if (not integral[t] or len(flat) != len(set(flat)) or set(flat) != atom_set
                or () in level):
            report.append(f"partition t={t}: not a partition of the atom set")
            ok_shape = False
    if ok_shape and levels:
        if len(levels[0]) != 1:
            report.append("partition t=0: not the trivial single cell")
        if len(levels[-1]) != n:
            report.append(f"partition t={len(levels) - 1}: does not separate all atoms")
        for t in range(len(levels) - 1):
            parent_of = {}
            for k, cell in enumerate(levels[t]):
                for i in cell:
                    parent_of[i] = k
            for cell in levels[t + 1]:
                parents = {parent_of[i] for i in cell}
                if len(parents) > 1:
                    report.append(
                        f"refinement t={t + 1}: cell {cell} straddles cells "
                        f"{sorted(parents)} of t={t}"
                    )
    for j, vec in enumerate(value_vectors):
        v = np.asarray(vec, dtype=float)
        if v.ndim != 1:
            report.append(f"payoff {j}: not a vector of numbers")
        elif v.size != n:
            report.append(f"payoff {j}: length {v.size} != atom count {n}")
        elif np.any(~np.isfinite(v)):
            report.append(f"payoff {j}: non-finite values")
    return report


def document_to_text(doc):
    names = list(doc.payoffs)
    atoms = [
        {
            "probability": float(doc.space.probabilities[i]),
            "payoffs": {n: float(doc.payoffs[n].values[i]) for n in names},
        }
        for i in range(doc.space.n_atoms)
    ]
    body = {
        "schema_version": SCHEMA_VERSION,
        "atoms": atoms,
        "filtration": [
            [list(cell) for cell in level] for level in doc.filtration.partitions
        ],
        "metadata": {str(k): str(v) for k, v in doc.metadata.items()},
    }
    return dumps_17g(body) + "\n"


def build_weakacc_continuous(mu, n_atoms):
    """The library's continuum counterexample with its filtration built from
    int tuples, cell by cell: the root, the outer piece [a, b) with [c, d]
    then the middle piece [b, c), every atom alone."""
    ce = library_weakacc_continuous(mu, n_atoms)
    n, values = ce.space.n_atoms, ce.X.values
    b, c = -m_mu(mu), 1.0 - m_mu(mu)
    outer = tuple(int(i) for i in np.where((values < b) | (values >= c))[0])
    middle = tuple(int(i) for i in np.where((values >= b) & (values < c))[0])
    filtration = Filtration((
        (tuple(range(n)),),
        (outer, middle),
        tuple((i,) for i in range(n)),
    ))
    return Counterexample(ce.name, ce.space, filtration, ce.X, ce.psi, ce.expected, ce.tolerance)
