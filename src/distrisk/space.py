"""Finite filtered probability spaces.

Atoms with strictly positive probabilities, refining partitions modeling the
information flow, terminal payoffs per atom, and the per-cell conditional
machinery (conditional laws and conditional expectations) everything else in
this package is built on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tolerance import PROB_SUM_TOL, RENORM_WINDOW


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


@dataclass(frozen=True)
class ScenarioSpace:
    """Atom probabilities of a finite sample space.

    Inputs whose total is within ``RENORM_WINDOW`` of 1 are renormalized;
    anything further off, or any non-positive entry, is rejected.
    """

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DomainError("probabilities must form a non-empty vector")
        if not np.all(np.isfinite(p)):
            raise DomainError("probabilities must be finite")
        if np.any(p <= 0.0):
            raise DomainError("zero or negative atom probability")
        total = float(p.sum())
        if abs(total - 1.0) > RENORM_WINDOW:
            raise DomainError(
                f"probabilities sum to {total}, outside the renormalization window"
            )
        p = p / total
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def n_atoms(self) -> int:
        return int(self.probabilities.size)


def _partition_problem(t: int, atoms: np.ndarray, sizes: np.ndarray, n: int) -> str | None:
    """Why the level at time t, given as its atom indices flat in cell order
    and its cell sizes, is not a partition of the atoms 0..n-1; None if it is."""
    if np.any(sizes == 0):
        return f"empty cell at time {t}"
    uncovered = f"level {t} does not cover the same atom set"
    if atoms.size and (atoms.min() < 0 or atoms.max() >= n):
        return "atom indices must be 0..n-1" if t == 0 else uncovered
    if np.bincount(atoms, minlength=n).max(initial=0) > 1:
        return f"overlapping cells at time {t}"
    return uncovered if atoms.size != n else None


class Filtration:
    """Per-time partitions of the atom index set.

    The constructor only enforces that every level is a genuine partition of
    the same atom set (non-empty disjoint cells covering all atoms).  The
    structural invariants that make it a filtration -- trivial root, refinement
    from one time to the next, full separation at the horizon -- are reported
    by :func:`validate`, so defective structures can still be built and
    diagnosed.

    Each level is kept as one flat array of atom indices in the caller's cell
    order, the cell sizes, and a read-only atom -> cell map, all int32 (half
    the memory of the default integer; np.fromiter rejects indices that do
    not fit); the cells as int tuples are built from those on first request.
    """

    def __init__(self, partitions) -> None:
        self._atoms: list[np.ndarray] = []
        self._sizes: list[np.ndarray] = []
        self._cell_of: list[np.ndarray] = []
        n = None
        for t, level in enumerate(partitions):
            sizes = np.fromiter(map(len, level), dtype=np.int32)
            atoms = np.fromiter(
                itertools.chain.from_iterable(level), dtype=np.int32,
                count=int(sizes.sum()),
            )
            if n is None:
                n = atoms.size
            problem = _partition_problem(t, atoms, sizes, n)
            if problem is not None:
                raise DomainError(problem)
            cell_of = np.empty(n, dtype=np.int32)
            cell_of[atoms] = np.repeat(np.arange(sizes.size), sizes)
            for a in (atoms, sizes, cell_of):
                a.setflags(write=False)
            self._atoms.append(atoms)
            self._sizes.append(sizes)
            self._cell_of.append(cell_of)
        if n is None:
            raise DomainError("filtration needs at least one level")
        self._cells: list = [None] * len(self._atoms)
        self._ints: list | None = None

    @property
    def partitions(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every level's cells, as :meth:`cells` gives them."""
        return tuple(self.cells(t) for t in range(self.horizon + 1))

    @property
    def horizon(self) -> int:
        return len(self._atoms) - 1

    @property
    def n_atoms(self) -> int:
        return int(self._atoms[0].size)

    def _check_time(self, t: int) -> int:
        if not 0 <= t <= self.horizon:
            raise DomainError(f"time {t} outside 0..{self.horizon}")
        return t

    def cells(self, t: int) -> tuple[tuple[int, ...], ...]:
        """The cells at time t as int tuples, in the order they were given."""
        if self._cells[self._check_time(t)] is None:
            if self._ints is None:  # one int object per atom, shared by all levels
                self._ints = list(range(self.n_atoms))
            atoms = list(map(self._ints.__getitem__, self._atoms[t].tolist()))
            ends = np.cumsum(self._sizes[t]).tolist()
            self._cells[t] = tuple(
                tuple(atoms[a:b]) for a, b in zip([0] + ends[:-1], ends)
            )
        return self._cells[t]

    def level(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The atoms at time t, flat in cell order, and the cell sizes."""
        return self._atoms[self._check_time(t)], self._sizes[t]

    def n_cells(self, t: int) -> int:
        return int(self._sizes[self._check_time(t)].size)

    def cell_of_atom(self, t: int) -> np.ndarray:
        """Map atom index -> cell index at time t (a read-only array)."""
        return self._cell_of[self._check_time(t)]

    def parent(self, t: int, s: int) -> np.ndarray:
        """Index of the t-cell containing each s-cell.

        Read off at the first listed atom of every s-cell; when the level at s
        refines the level at t, that is the t-cell holding the whole s-cell.
        """
        sizes = self._sizes[self._check_time(s)]
        first = self._atoms[s][np.cumsum(sizes) - sizes]
        return self.cell_of_atom(t)[first]


@dataclass(frozen=True)
class RandomVariable:
    """Terminal payoff: one real value per atom."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("values must form a non-empty vector")
        if not np.all(np.isfinite(v)):
            raise DomainError("values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class AdaptedValue:
    """One real value per cell of the partition at a fixed time."""

    time: int
    cell_values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.cell_values, dtype=float)
        if v.ndim != 1:
            raise DomainError("cell_values must form a vector")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "cell_values", v)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported law: strictly increasing support, positive weights."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.support, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.shape != w.shape or s.ndim != 1 or s.size == 0:
            raise DomainError("support and weights must be matching non-empty vectors")
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

    def mean(self) -> float:
        return float(self.support @ self.weights)


def conditional_distribution(
    space: ScenarioSpace,
    filtration: Filtration,
    X: RandomVariable,
    t: int,
    cell_index: int,
) -> DiscreteDistribution:
    """Law of X given the information cell at time t.

    Atoms sharing the exact same value are merged by summing their
    cell-conditional probabilities.
    """
    cells = filtration.cells(t)
    if not 0 <= cell_index < len(cells):
        raise DomainError(f"unknown cell {cell_index} at time {t}")
    idx = list(cells[cell_index])
    if X.values.size != space.n_atoms:
        raise DomainError("payoff length does not match atom count")
    vals = X.values[idx]
    probs = space.probabilities[idx]
    cell_p = probs.sum()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    probs = probs[order]
    support: list[float] = []
    weights: list[float] = []
    for v, p in zip(vals, probs):
        if support and v == support[-1]:
            weights[-1] += p
        else:
            support.append(float(v))
            weights.append(float(p))
    w = np.asarray(weights) / cell_p
    return DiscreteDistribution(np.asarray(support), w)


def _merge_ties(cell_of: np.ndarray, x: np.ndarray, p: np.ndarray):
    """Sort the atoms by (cell, value) and merge equal values within a cell:
    the cell, the value and the total probability of each merged point."""
    order = np.lexsort((x, cell_of))
    cell = cell_of[order]
    x = x[order]
    new = np.ones(x.size, dtype=bool)
    new[1:] = (cell[1:] != cell[:-1]) | (x[1:] != x[:-1])
    runs = np.flatnonzero(new)
    return cell[runs], x[runs], np.add.reduceat(p[order], runs)


class LevelLaws:
    """Conditional laws of one payoff on every cell of the partition at time t.

    One lexsort by (cell, value) lines up each cell's atoms in increasing
    value order, cell after cell; atoms of one cell sharing the exact same
    value are merged by summing their probabilities.  The laws are kept as
    flat arrays over the merged points, cell by cell:

    - ``cell``: the cell of each point;
    - ``support``: its value, strictly increasing within a cell;
    - ``weights``: its probability conditional on the cell;
    - ``F``: cumulative conditional weight within the cell, exactly 1 at the
      cell's last point;
    - ``lo``: the left end of the point's level interval, that is ``F`` of
      the previous point of the same cell, 0 at a cell's first point;
    - ``start``, ``stop``: the range of each cell's points.

    ``F`` is a separate cumulative sum per cell, so it carries no round-off
    from earlier cells: cells with equally many points are stacked as the
    rows of one matrix and summed along the rows.
    """

    def __init__(
        self, space: ScenarioSpace, filtration: Filtration, X: RandomVariable, t: int
    ) -> None:
        if not X.values.size == space.n_atoms == filtration.n_atoms:
            raise DomainError("payoff length does not match atom count")
        cell_of = filtration.cell_of_atom(t)
        p = space.probabilities
        n_cells = filtration.n_cells(t)
        self.cell, self.support, mass = _merge_ties(cell_of, X.values, p)
        cell_mass = np.bincount(cell_of, weights=p, minlength=n_cells)
        self.weights = mass / cell_mass[self.cell]
        counts = np.bincount(self.cell, minlength=n_cells)
        self.stop = np.cumsum(counts)
        self.start = self.stop - counts
        self.F = np.empty_like(self.weights)
        for size in np.flatnonzero(np.bincount(counts)):
            rows = self.start[counts == size, None] + np.arange(size)
            self.F[rows] = np.cumsum(self.weights[rows], axis=1)
        self.F[self.stop - 1] = 1.0
        self.lo = self.shift(self.F)

    def shift(self, a: np.ndarray) -> np.ndarray:
        """Pointwise values moved one point later within each cell, 0 first."""
        out = np.empty_like(a)
        out[1:] = a[:-1]
        out[self.start] = 0.0
        return out

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Per-cell sum of a pointwise array."""
        return np.add.reduceat(a, self.start)

    def first(self, mask: np.ndarray) -> np.ndarray:
        """Per cell, the first point where a mask that is False then True
        within the cell (like ``F > alpha``) turns True."""
        return self.start + np.add.reduceat(~mask, self.start, dtype=np.intp)


def conditional_expectation(
    space: ScenarioSpace, filtration: Filtration, X: RandomVariable, t: int
) -> AdaptedValue:
    """Probability-weighted mean of X on each cell at time t."""
    if X.values.size != space.n_atoms:
        raise DomainError("payoff length does not match atom count")
    cell_of = filtration.cell_of_atom(t)
    p = space.probabilities
    n = filtration.n_cells(t)
    mass = np.bincount(cell_of, weights=X.values * p, minlength=n)
    return AdaptedValue(t, mass / np.bincount(cell_of, weights=p, minlength=n))


def lift(filtration: Filtration, adapted: AdaptedValue) -> RandomVariable:
    """Spread an adapted value back onto atoms (constant on each cell)."""
    if adapted.cell_values.size != filtration.n_cells(adapted.time):
        raise DomainError("cell value count does not match partition")
    return RandomVariable(adapted.cell_values[filtration.cell_of_atom(adapted.time)])


def _level_arrays(level):
    """One level's atom indices, flat in the listed order, and its cell sizes,
    or None where the level is not a list of lists of integers that fit an
    int64."""
    try:
        sizes = np.fromiter(map(len, level), dtype=np.intp)
        atoms = np.fromiter(
            itertools.chain.from_iterable(level), dtype=np.int64,
            count=int(sizes.sum()),
        )
    except (TypeError, ValueError, OverflowError):
        return None
    return atoms, sizes


def _floats(values):
    """values as a float array, or None where they are not numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def validate(probabilities, partitions, *value_vectors) -> list[str]:
    """Diagnostic report on raw structural inputs.

    Never raises: returns one message per violated invariant, empty list iff
    everything checks out.  Accepts raw sequences so that defective inputs the
    constructors would reject can still be diagnosed.  A level with an empty
    cell, or whose entries are not integers or too large for an int64, is not
    a partition of the atom set.
    """
    report: list[str] = []
    p = _floats(probabilities)
    if p is None or p.ndim != 1 or p.size == 0:
        report.append("probabilities: not a non-empty vector")
        return report
    n = p.size
    if np.any(~np.isfinite(p)):
        report.append("probabilities: non-finite entries")
    if np.any(p <= 0):
        report.append("probabilities: non-positive entries")
    total = float(p.sum())
    if abs(total - 1.0) > RENORM_WINDOW:
        report.append(f"probabilities: sum {total} outside renormalization window")

    levels = [_level_arrays(level) for level in partitions]
    ok_shape = True
    for t, level in enumerate(levels):
        if level is None or _partition_problem(t, *level, n) is not None:
            report.append(f"partition t={t}: not a partition of the atom set")
            ok_shape = False
    if ok_shape and levels:
        if levels[0][1].size != 1:
            report.append("partition t=0: not the trivial single cell")
        if levels[-1][1].size != n:
            report.append(f"partition t={len(levels) - 1}: does not separate all atoms")
        cell_of = np.empty(n, dtype=np.intp)
        for t in range(len(levels) - 1):
            atoms, sizes = levels[t]
            cell_of[atoms] = np.repeat(np.arange(sizes.size), sizes)
            # each listed atom of t+1: its cell, and the t-cell holding it
            atoms, sizes = levels[t + 1]
            cell = np.repeat(np.arange(sizes.size), sizes)
            start = np.cumsum(sizes) - sizes
            up = cell_of[atoms]
            straddling = np.bincount(cell[up != up[start[cell]]], minlength=sizes.size)
            for k in np.flatnonzero(straddling).tolist():
                span = slice(start[k], start[k] + sizes[k])
                report.append(
                    f"refinement t={t + 1}: cell {tuple(atoms[span].tolist())} "
                    f"straddles cells {sorted(set(up[span].tolist()))} of t={t}"
                )
    for j, vec in enumerate(value_vectors):
        v = _floats(vec)
        if v is None:
            report.append(f"payoff {j}: not a vector of numbers")
        elif v.size != n:
            report.append(f"payoff {j}: length {v.size} != atom count {n}")
        elif np.any(~np.isfinite(v)):
            report.append(f"payoff {j}: non-finite values")
    return report
