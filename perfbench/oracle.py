"""Independent reference formulas in plain numpy.

Nothing here imports distrisk.  Every formula works per information cell on
the atoms of that cell sorted by value: with conditional weights w_i and
cumulative weights F_i (F_0 = 0), the Choquet risk is
-sum_i x_i (psi(F_i) - psi(F_{i-1})), the tail mean at level alpha is
-(1/alpha) sum_i x_i |(F_{i-1}, F_i] cut by (0, alpha)|, and the upper/lower
quantiles are the first sorted value with F_i > alpha / F_i >= alpha.  All of
these are invariant under splitting tied values into separate atoms, so no
tie merging is done.  Cells of equal size are handled together as the rows
of one matrix, which keeps every cumulative sum exact per cell.
"""

from __future__ import annotations

import numpy as np

# Decision thresholds of the checkers, as the library documents them.
LEQ_TOL = 1e-12
SUBMARTINGALE_TOL = 1e-10
INDEX_SLACK = 1e-6
# dcai bracket and bisection: floor probe, cap, bisection width.
X_MIN, X_MAX, BISECT_TOL = 1e-9, 1e6, 1e-9


def measure_psi(support, weights):
    """Piecewise-linear distortion generated by a finite measure on (0, 1]."""
    s = np.asarray(support, dtype=float)
    w = np.asarray(weights, dtype=float)
    return lambda y: sum(wk * np.minimum(y / sk, 1.0) for sk, wk in zip(s, w))


def pprime_psi(a):
    a = float(a)
    return measure_psi([1.0 / (a + 1.0), 1.0], [(a - 1.0) / a, 1.0 / a])


FAMILIES = {
    "minvar": lambda y, x: 1.0 - (1.0 - y) ** (x + 1.0),
    "maxvar": lambda y, x: y ** (1.0 / (x + 1.0)),
    "maxminvar": lambda y, x: (1.0 - (1.0 - y) ** (x + 1.0)) ** (1.0 / (x + 1.0)),
    "minmaxvar": lambda y, x: 1.0 - (1.0 - y ** (1.0 / (x + 1.0))) ** (x + 1.0),
}


def distortion(spec: str):
    """Closed-form psi for the descriptors the benchmark uses."""
    kind, _, arg = spec.partition(":")
    if kind == "prop_hazard":
        g = float(arg)
        return lambda y: y**g
    if kind in FAMILIES:
        x = float(arg)
        return lambda y: FAMILIES[kind](y, x)
    if kind == "pprime":
        return pprime_psi(float(arg))
    raise ValueError(f"no oracle for {spec!r}")


def parse_measure(spec: str):
    pairs = [pair.split(",") for pair in spec.split(";")]
    return [float(s) for s, _ in pairs], [float(w) for _, w in pairs]


class Laws:
    """Sorted conditional laws of one payoff on one partition."""

    def __init__(self, p, x, cell_of, n_cells: int) -> None:
        p = np.asarray(p, dtype=float)
        x = np.asarray(x, dtype=float)
        cell_of = np.asarray(cell_of)
        self.n_cells = n_cells
        order = np.argsort(cell_of, kind="stable")
        sizes = np.bincount(cell_of, minlength=n_cells)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self.groups = []  # (cell ids, sorted values, F, F shifted right)
        for size in np.unique(sizes):
            cells = np.flatnonzero(sizes == size)
            idx = order[starts[cells][:, None] + np.arange(size)]
            vals = x[idx]
            srt = np.argsort(vals, axis=1, kind="stable")
            vals = np.take_along_axis(vals, srt, axis=1)
            w = np.take_along_axis(p[idx], srt, axis=1)
            F = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
            F[:, -1] = 1.0
            F = np.minimum(F, 1.0)
            lo = np.concatenate((np.zeros((len(cells), 1)), F[:, :-1]), axis=1)
            self.groups.append((cells, vals, F, lo))

    def _per_cell(self, fn) -> np.ndarray:
        out = np.empty(self.n_cells)
        for cells, vals, F, lo in self.groups:
            out[cells] = fn(cells, vals, F, lo)
        return out

    def choquet(self, psi) -> np.ndarray:
        return self._per_cell(lambda c, v, F, lo: -np.sum(v * (psi(F) - psi(lo)), axis=1))

    def family_rho(self, name: str, xpar) -> np.ndarray:
        """Risk under family member x, one parameter per cell."""
        f = FAMILIES[name]
        xpar = np.broadcast_to(np.asarray(xpar, dtype=float), (self.n_cells,))

        def rho(c, v, F, lo):
            x = xpar[c][:, None]
            return -np.sum(v * (f(F, x) - f(lo, x)), axis=1)

        return self._per_cell(rho)

    def tail_mean(self, alpha: float) -> np.ndarray:
        def fn(c, v, F, lo):
            overlap = np.clip(np.minimum(F, alpha) - lo, 0.0, None)
            return -np.sum(v * overlap, axis=1) / alpha

        return self._per_cell(fn)

    def dwvar(self, support, weights) -> np.ndarray:
        return sum(w * self.tail_mean(s) for s, w in zip(support, weights))

    def quantile_upper(self, alpha: float) -> np.ndarray:
        return self._per_cell(
            lambda c, v, F, lo: v[np.arange(len(c)), np.argmax(F > alpha, axis=1)]
        )

    def quantile_lower(self, alpha: float) -> np.ndarray:
        return self._per_cell(
            lambda c, v, F, lo: v[np.arange(len(c)), np.argmax(F >= alpha, axis=1)]
        )

    def mean(self) -> np.ndarray:
        return self._per_cell(lambda c, v, F, lo: np.sum(v * (F - lo), axis=1))

    def constant(self) -> np.ndarray:
        return self._per_cell(lambda c, v, F, lo: v[:, 0] == v[:, -1]).astype(bool)

    def scale(self) -> np.ndarray:
        return self._per_cell(lambda c, v, F, lo: np.max(np.abs(v), axis=1))


def dcai_sandwich(laws: Laws, family: str, index) -> np.ndarray:
    """Per cell: does the returned index sit on the boundary of acceptance?

    0 needs rho(X_MIN) > 0 (floor); inf needs rho(X_MAX) <= 0 (cap); any other
    value a needs rho(a) <= 0 and rho(a + 2 * BISECT_TOL) > 0.  Signs are
    taken with a round-off allowance scaled by the cell's largest |x|.
    """
    a = np.asarray(index, dtype=float)
    eps = 1e-12 * (1.0 + laws.scale())
    floor = a == 0.0
    cap = np.isinf(a)
    inner = ~(floor | cap)
    at = np.where(inner, a, np.where(floor, X_MIN, X_MAX))
    rho_at = laws.family_rho(family, at)
    rho_above = laws.family_rho(family, np.where(inner, a + 2.0 * BISECT_TOL, X_MIN))
    ok = np.where(floor, rho_at > -eps, True)
    ok &= np.where(cap, rho_at <= eps, True)
    ok &= np.where(inner, (rho_at <= eps) & (rho_above > -eps) & (a >= X_MIN), True)
    return ok


def children(parent: np.ndarray, n_parents: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n_parents)]
    for j, k in enumerate(parent):
        out[int(k)].append(j)
    return out


def weak_acceptance(rho_t, rho_s, parent) -> tuple[str, int | None]:
    """First t-cell accepted on every child at s yet rejected at t."""
    for k, kids in enumerate(children(parent, len(rho_t))):
        if all(rho_s[j] <= LEQ_TOL for j in kids) and rho_t[k] > LEQ_TOL:
            return "violated", k
    return "holds", None


def weak_rejection(a_t, a_s, parent) -> tuple[str, int | None]:
    """First t-cell whose index exceeds a level that caps all its children."""
    for k, kids in enumerate(children(parent, len(a_t))):
        for m in (a_s[j] for j in kids):
            if np.isinf(m):
                continue
            if all(a_s[j] <= m + INDEX_SLACK for j in kids) and a_t[k] > m + INDEX_SLACK:
                return "violated", k
    return "holds", None


def verdict_min(margins, threshold) -> tuple[str, int | None]:
    """Verdict of a min-margin test: violated when the smallest margin falls
    below the threshold."""
    bad = int(np.argmin(margins))
    if margins[bad] < threshold:
        return "violated", bad
    return "holds", None
