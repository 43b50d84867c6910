"""Finite filtered probability spaces.

Atoms with strictly positive probabilities, refining partitions modeling the
information flow, terminal payoffs per atom, and the per-cell conditional
machinery (conditional laws and conditional expectations) everything else in
this package is built on.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

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


class Level(NamedTuple):
    """A filtration level as int32 arrays: atoms flat in cell order, cell sizes."""

    atoms: np.ndarray
    sizes: np.ndarray


def _level_arrays(level) -> Level:
    """Cells as a :class:`Level` (np.fromiter raises on entries beyond int32, and
    truncates a float); a Level as it is, if both its fields are int32 vectors."""
    if isinstance(level, Level):
        if all(isinstance(a, np.ndarray) and a.dtype == np.int32 and a.ndim == 1 for a in level):
            return level
        raise DomainError("a Level holds two one-dimensional int32 arrays")
    sizes = np.fromiter(map(len, level), dtype=np.int32)
    atoms = np.fromiter(
        itertools.chain.from_iterable(level), dtype=np.int32, count=int(sizes.sum())
    )
    return Level(atoms, sizes)


def _cell_map(t: int, atoms: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """The level's atom -> cell map, or DomainError naming why it is not a
    partition of 0..n-1: its atoms, scattered once into n -1s, cover fewer
    entries than they list where cells overlap, fewer than n where one is left out."""
    smallest = sizes.min(initial=1)
    if smallest < 0:
        raise DomainError(f"negative cell size at time {t}")
    if smallest == 0:
        raise DomainError(f"empty cell at time {t}")
    uncovered = f"level {t} does not cover the same atom set"
    if atoms.min(initial=0) < 0 or atoms.max(initial=-1) >= n:
        raise DomainError("atom indices must be 0..n-1" if t == 0 else uncovered)
    adds_up = sizes.sum() == atoms.size
    cell_of = np.full(n, -1, dtype=np.int32)
    cell_of[atoms] = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes) if adds_up else 0
    covered = n - np.count_nonzero(cell_of < 0)
    if covered < atoms.size:
        raise DomainError(f"overlapping cells at time {t}")
    if covered < n:
        raise DomainError(uncovered)
    if not adds_up:
        raise DomainError(f"cell sizes at time {t} do not add up to its atoms")
    return cell_of


class Filtration:
    """Per-time partitions of the atom index set.

    The constructor only enforces, with the one scatter that builds each
    level's atom -> cell map, that every level is a genuine partition of the
    same atom set (non-empty disjoint cells covering all atoms), and names the
    fault where one is not.  The structural invariants that make it a
    filtration -- trivial root, refinement from one time to the next, full
    separation at the horizon -- are reported by :func:`validate`, so
    defective structures can still be built and diagnosed.

    Each level is kept as one :class:`Level` (atom indices flat in the
    caller's cell order, and the cell sizes) with a read-only atom -> cell
    map, all int32; the cells as int tuples are built on first request.  A
    given Level is kept, its arrays made read-only once all levels pass.
    Integer cells are taken as given, their type unchecked (a float index is
    truncated): :func:`validate` and the document reader are the checked doors.
    """

    def __init__(self, partitions) -> None:
        self._levels: list[Level] = []
        self._cell_of: list[np.ndarray] = []
        for t, level in enumerate(partitions):
            level = _level_arrays(level)
            n = self._levels[0].atoms.size if t else level.atoms.size
            self._levels.append(level)
            self._cell_of.append(_cell_map(t, *level, n))
        if not self._levels:
            raise DomainError("filtration needs at least one level")
        for level, cell_of in zip(self._levels, self._cell_of):
            for a in (*level, cell_of):
                a.setflags(write=False)
        self._cells: list = [None] * len(self._levels)
        self._ints: list | None = None

    @property
    def partitions(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Every level's cells, as :meth:`cells` gives them."""
        return tuple(self.cells(t) for t in range(self.horizon + 1))

    @property
    def horizon(self) -> int:
        return len(self._levels) - 1

    @property
    def n_atoms(self) -> int:
        return int(self._levels[0].atoms.size)

    def _check_time(self, t: int) -> int:
        if not 0 <= t <= self.horizon:
            raise DomainError(f"time {t} outside 0..{self.horizon}")
        return t

    def cells(self, t: int) -> tuple[tuple[int, ...], ...]:
        """The cells at time t as int tuples, in the order they were given."""
        if self._cells[self._check_time(t)] is None:
            if self._ints is None:  # one int object per atom, shared by all levels
                self._ints = list(range(self.n_atoms))
            atoms = list(map(self._ints.__getitem__, self._levels[t].atoms.tolist()))
            ends = np.cumsum(self._levels[t].sizes).tolist()
            self._cells[t] = tuple(
                tuple(atoms[a:b]) for a, b in zip([0] + ends[:-1], ends)
            )
        return self._cells[t]

    def level(self, t: int) -> Level:
        """The atoms at time t, flat in cell order, and the cell sizes."""
        return self._levels[self._check_time(t)]

    def n_cells(self, t: int) -> int:
        return int(self._levels[self._check_time(t)].sizes.size)

    def cell_of_atom(self, t: int) -> np.ndarray:
        """Map atom index -> cell index at time t (a read-only array)."""
        return self._cell_of[self._check_time(t)]

    def parent(self, t: int, s: int) -> np.ndarray:
        """Index of the t-cell containing each s-cell, for t <= s.

        Read off at the first listed atom of every s-cell; when the level at s
        refines the level at t, that is the t-cell holding the whole s-cell.
        """
        if self._check_time(s) < self._check_time(t):
            raise DomainError("need t <= s")
        atoms, sizes = self._levels[s]
        first = atoms[np.cumsum(sizes) - sizes]
        return self.cell_of_atom(t)[first]


@dataclass(frozen=True)
class RandomVariable:
    """Terminal payoff: one real value per atom.

    Besides its values, a payoff keeps what evaluating it costs to work out:
    its value order (:attr:`value_order`) and the laws of every level of the
    tree it was last evaluated on (:func:`level_laws`).  Neither is a field,
    so the constructor, ``==``, ``repr`` and ``dataclasses.replace`` see only
    the values, and a replaced payoff starts with nothing kept.
    """

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

    @functools.cached_property
    def value_order(self) -> np.ndarray:
        """The atoms in increasing value order, tied values in atom order
        (read-only); sorted on first use and kept, 8 bytes per atom.  The
        values are read-only, so the order never goes stale."""
        order = np.argsort(self.values, kind="stable")
        order.setflags(write=False)
        return order

    @functools.cached_property
    def _kept_laws(self) -> list:
        """[space, filtration, {t: laws}] of the tree last evaluated; kept
        and replaced by :func:`level_laws`."""
        return [None, None, {}]


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
    """Finitely supported law: finite, strictly increasing support and
    positive weights summing to 1 within ``PROB_SUM_TOL``."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.support, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.shape != w.shape or s.ndim != 1 or s.size == 0:
            raise DomainError("support and weights must be matching non-empty vectors")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(w))):
            raise DomainError("support and weights must be finite")
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


def _check_sizes(space: ScenarioSpace, filtration: Filtration, X: RandomVariable) -> None:
    if not X.values.size == space.n_atoms == filtration.n_atoms:
        raise DomainError("payoff length does not match atom count")


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
    _check_sizes(space, filtration, X)
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


def _merge_ties(group: np.ndarray, n_groups: int, X: RandomVariable, mass: np.ndarray):
    """Line up the items by (group, value) and merge equal values within a
    group: the group, the value and the total mass of each merged point.

    A stable sort of the group ids along the value order kept on ``X`` keeps
    each group's items in value order, ties in item order: the same
    permutation as a two-key sort by (group, value).  The ids are sorted 16
    bits at a time, low bits first, as uint16, which numpy sorts by radix: no
    pass for one group, one up to 65,536 groups."""
    order = X.value_order
    for shift in range(0, (n_groups - 1).bit_length(), 16):
        order = order[np.argsort((group[order] >> shift).astype(np.uint16), kind="stable")]
    cell = group[order]
    x = X.values[order]
    new = np.ones(x.size, dtype=bool)
    new[1:] = (cell[1:] != cell[:-1]) | (x[1:] != x[:-1])
    runs = np.flatnonzero(new)
    return cell[runs], x[runs], np.add.reduceat(mass[order], runs)


class LevelLaws:
    """Conditional laws of one payoff on every cell of the partition at time t.

    The payoff's value order, sorted once per payoff
    (:attr:`RandomVariable.value_order`), and one stable pass over the cell
    ids line up each cell's atoms in increasing value order, cell after cell;
    atoms of one cell sharing the exact same value are merged by summing
    their probabilities.  The laws are kept as flat read-only arrays over the
    merged points, cell by cell:

    - ``cell``: the cell of each point;
    - ``support``: its value, strictly increasing within a cell;
    - ``weights``: its probability conditional on the cell;
    - ``F``: cumulative conditional weight within the cell, at most 1 and
      exactly 1 at the cell's last point;
    - ``lo``: the left end of the point's level interval, that is ``F`` of
      the previous point of the same cell, 0 at a cell's first point;

    and over the cells:

    - ``mass``: the probability of each cell;
    - ``start``, ``stop``: the range of each cell's points.

    ``F`` is a separate cumulative sum per cell, so it carries no round-off
    from earlier cells: cells with equally many points are summed along the
    rows of one matrix, a reshaped view of ``weights`` where those cells sit
    side by side (a one-cell level, say), else the rows of an index matrix.

    The laws are those of the values of ``X``, one per item of probability
    ``mass``, on the ``n_groups`` cells of the items with each ``group`` id:
    the atoms grouped by cell on a tree level (:func:`level_laws` builds
    those and keeps them on the payoff), or any other items, such as a later
    risk given per s-cell and grouped by the t-cell holding each s-cell, at
    a cost that scales with the items.  Each construction builds afresh.
    """

    def __init__(
        self, group: np.ndarray, n_groups: int, X: RandomVariable, mass: np.ndarray
    ) -> None:
        self.cell, self.support, point_mass = _merge_ties(group, n_groups, X, mass)
        self.mass = np.bincount(group, weights=mass, minlength=n_groups)
        self.weights = point_mass / self.mass[self.cell]
        counts = np.bincount(self.cell, minlength=n_groups)
        self.stop = np.cumsum(counts)
        self.start = self.stop - counts
        self.F = np.empty_like(self.weights)
        by_size = np.argsort(counts, kind="stable")  # each size's cells in cell order
        for cells in np.split(by_size, np.flatnonzero(np.diff(counts[by_size])) + 1):
            size = counts[cells[0]]
            if cells[-1] - cells[0] + 1 == cells.size:
                a, b = self.start[cells[0]], self.stop[cells[-1]]
                np.cumsum(self.weights[a:b].reshape(-1, size), axis=1,
                          out=self.F[a:b].reshape(-1, size))
            else:
                rows = self.start[cells, None] + np.arange(size)
                self.F[rows] = np.cumsum(self.weights[rows], axis=1)
        np.minimum(self.F, 1.0, out=self.F)  # round-off may pass 1 before the last point
        self.F[self.stop - 1] = 1.0
        self.lo = np.empty_like(self.F)
        self.lo[1:] = self.F[:-1]
        self.lo[self.start] = 0.0
        for array in (self.cell, self.support, self.weights, self.F, self.lo,
                      self.mass, self.start, self.stop):
            array.setflags(write=False)

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Per-cell sum of a pointwise array."""
        return np.add.reduceat(a, self.start)

    def first(self, mask: np.ndarray) -> np.ndarray:
        """Per cell, the first point where a mask that is False then True
        within the cell (like ``F > alpha``) turns True."""
        return self.start + np.add.reduceat(~mask, self.start, dtype=np.intp)


def level_laws(
    space: ScenarioSpace, filtration: Filtration, X: RandomVariable, t: int
) -> LevelLaws:
    """The payoff's :class:`LevelLaws` at time t, built on first use and kept
    on the payoff.

    A payoff keeps the laws of every level it was evaluated on, for the space
    and filtration of its last evaluation, compared by identity (both held, so
    an id cannot be reused).  A call with another space or filtration, even
    an equal one, drops the kept laws and starts anew, so a payoff keeps at
    most one tree's levels: per level, 36 bytes per merged point and 24 per
    cell.  The arguments are checked before the lookup, so a bad call raises
    the same error however warm the payoff is.
    """
    _check_sizes(space, filtration, X)
    cell_of = filtration.cell_of_atom(t)  # a bad t fails here
    t = operator.index(t)
    kept = X._kept_laws
    if kept[0] is not space or kept[1] is not filtration:
        kept[:] = space, filtration, {}
    laws = kept[2].get(t)
    if laws is None:
        laws = kept[2][t] = LevelLaws(cell_of, filtration.n_cells(t), X, space.probabilities)
    return laws


def conditional_expectation(
    space: ScenarioSpace, filtration: Filtration, X: RandomVariable, t: int
) -> AdaptedValue:
    """Probability-weighted mean of X on each cell at time t."""
    _check_sizes(space, filtration, X)
    cell_of = filtration.cell_of_atom(t)
    p = space.probabilities
    n = filtration.n_cells(t)
    mass = np.bincount(cell_of, weights=X.values * p, minlength=n)
    return AdaptedValue(t, mass / np.bincount(cell_of, weights=p, minlength=n))


def lift(filtration: Filtration, adapted: AdaptedValue) -> RandomVariable:
    """Spread an adapted value back onto atoms (constant on each cell)."""
    v = adapted.cell_values
    if v.size != filtration.n_cells(adapted.time):
        raise DomainError("cell value count does not match partition")
    return RandomVariable(v[filtration.cell_of_atom(adapted.time)])


def _floats(values):
    """values as a float array, or None where they are not numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def _integer_level(level) -> Level:
    """A level from outside as a :class:`Level`: one type scan over a flat list of
    its entries, then np.fromiter; DomainError unless each is a non-bool int in int32."""
    if isinstance(level, Level):
        return _level_arrays(level)
    try:
        flat = list(itertools.chain.from_iterable(level))
        if all(issubclass(k, (int, np.integer)) and k is not bool for k in set(map(type, flat))):
            return Level(np.fromiter(flat, np.int32, len(flat)),
                         np.fromiter(map(len, level), np.int32))
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError("level entries must be integers within int32")


def validate(probabilities, partitions, *value_vectors) -> list[str]:
    """Diagnostic report on raw structural inputs.

    Never raises: returns one message per violated invariant, empty list iff
    everything checks out.  Accepts raw sequences so that defective inputs the
    constructors would reject can still be diagnosed; a level may also be
    given as a :class:`Level` of int32 vectors.  Each level goes through the
    strict converter and Filtration's own partition check, whose atom -> cell
    maps then serve the refinement check.  A level with an empty cell, or an
    entry that is not an integer or too large for an int32, is not a partition.
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

    try:
        levels = list(partitions)
    except TypeError:  # not iterable
        levels = []
    if not levels:
        report.append("partitions: not a non-empty sequence of levels")
    maps = []
    for t, level in enumerate(levels):
        try:
            levels[t] = _integer_level(level)
            maps.append(_cell_map(t, *levels[t], n))
        except DomainError:
            report.append(f"partition t={t}: not a partition of the atom set")
    if levels and len(maps) == len(levels):  # every level partitions the atoms
        if levels[0][1].size != 1:
            report.append("partition t=0: not the trivial single cell")
        if levels[-1][1].size != n:
            report.append(f"partition t={len(levels) - 1}: does not separate all atoms")
        for t in range(len(levels) - 1):
            # each listed atom of t+1: its cell, and the t-cell holding it
            atoms, sizes = levels[t + 1]
            cell, up = maps[t + 1][atoms], maps[t][atoms]
            start = np.cumsum(sizes) - sizes
            straddling = np.bincount(cell[up != up[start[cell]]], minlength=sizes.size)
            for k in np.flatnonzero(straddling).tolist():
                span = slice(start[k], start[k] + sizes[k])
                report.append(
                    f"refinement t={t + 1}: cell {tuple(atoms[span].tolist())} "
                    f"straddles cells {sorted(set(up[span].tolist()))} of t={t}"
                )
    for j, vec in enumerate(value_vectors):
        v = _floats(vec)
        if v is None or v.ndim != 1:
            report.append(f"payoff {j}: not a vector of numbers")
        elif v.size != n:
            report.append(f"payoff {j}: length {v.size} != atom count {n}")
        elif np.any(~np.isfinite(v)):
            report.append(f"payoff {j}: non-finite values")
    return report
