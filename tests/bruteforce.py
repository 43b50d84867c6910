"""Per-cell reference implementations, used as test oracles.

Evaluators walk the cells one at a time through `conditional_distribution`
and the `distribution_*` functions; the structural maps and the checkers are
the straightforward loops over cells and children; `validate` is the
set-based structural report and `document_to_text` the writer that renders
every atom and cell through `dumps_17g`.  The checkers look up
`choquet` and `dcai` on `distrisk.consistency` at call time, so a test that
replaces those names feeds the library checker and its oracle the same
values.
"""

from __future__ import annotations

import math

import numpy as np

from distrisk import consistency
from distrisk.consistency import LEQ_TOL, ConsistencyReport
from distrisk.risk import (
    distribution_avar,
    distribution_avar_robust,
    distribution_choquet,
    distribution_dwvar,
    distribution_quantile_lower,
    distribution_quantile_upper,
)
from distrisk.space import RENORM_WINDOW, conditional_distribution
from distrisk.treedoc import SCHEMA_VERSION, dumps_17g


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


def dcai(cell_laws, family, x_min=1e-9, x_max=1e6, tol=1e-9):
    """Geometric bracketing plus bisection on each cell's law."""

    def rho(d, x):
        return distribution_choquet(d, family(x))

    out = []
    for d in cell_laws:
        if rho(d, x_min) > 0.0:
            out.append(0.0)
            continue
        lo, hi = x_min, 2.0 * x_min
        while hi <= x_max and rho(d, hi) <= 0.0:
            lo, hi = hi, 2.0 * hi
        if hi > x_max:
            if rho(d, x_max) <= 0.0:
                out.append(math.inf)
                continue
            hi = x_max
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if rho(d, mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        out.append(lo)
    return out


def conditional_expectation(space, filtration, X, t):
    out = []
    for cell in filtration.cells(t):
        idx = list(cell)
        p = space.probabilities[idx]
        out.append(float(X.values[idx] @ p / p.sum()))
    return np.asarray(out)


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
    verdict = "holds"
    witness = None
    for k in range(filtration.n_cells(t)):
        vals = X.values[cell_of == k]
        constant = bool(np.all(vals == vals[0]))
        ok = abs(margins[k]) <= LEQ_TOL if constant else margins[k] > LEQ_TOL
        if not ok:
            verdict = "violated"
            witness = {"cell": k, "margin": float(margins[k]), "constant": constant}
            break
    return ConsistencyReport(
        "super_strict_failure", t, None, tuple(float(m) for m in margins),
        verdict, witness,
    )


def check_weak_acceptance(space, filtration, X, psi, t, s):
    rho_t = consistency.choquet(space, filtration, X, t, psi).cell_values
    rho_s = consistency.choquet(space, filtration, X, s, psi).cell_values
    par = parent(filtration, t, s)
    verdict = "holds"
    witness = None
    for k in range(filtration.n_cells(t)):
        children = [j for j, p in enumerate(par) if p == k]
        if all(rho_s[j] <= LEQ_TOL for j in children) and rho_t[k] > LEQ_TOL:
            verdict = "violated"
            witness = {
                "cell": k,
                "rho_t": float(rho_t[k]),
                "rho_s_children": [float(rho_s[j]) for j in children],
            }
            break
    return ConsistencyReport(
        "weak_acceptance", t, s, tuple(float(v) for v in rho_t), verdict, witness
    )


def check_weak_rejection_dcai(space, filtration, X, family, t, s):
    a_t = consistency.dcai(space, filtration, X, t, family).cell_values
    a_s = consistency.dcai(space, filtration, X, s, family).cell_values
    par = parent(filtration, t, s)
    index_slack = 1e-6
    verdict = "holds"
    witness = None
    for k in range(filtration.n_cells(t)):
        children = [j for j, p in enumerate(par) if p == k]
        for m in (a_s[j] for j in children):
            if math.isinf(m):
                continue
            if all(a_s[j] <= m + index_slack for j in children) and a_t[k] > m + index_slack:
                verdict = "violated"
                witness = {
                    "cell": k,
                    "level": float(m),
                    "index_t": float(a_t[k]),
                    "index_s_children": [float(a_s[j]) for j in children],
                }
                break
        if witness:
            break
    return ConsistencyReport(
        "dcai_weak_rejection", t, s, tuple(float(v) for v in a_t), verdict, witness
    )


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
    atom_set = set(range(n))
    ok_shape = True
    for t, level in enumerate(levels):
        flat = [i for cell in level for i in cell]
        if len(flat) != len(set(flat)) or set(flat) != atom_set or () in level:
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
        if v.size != n:
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
