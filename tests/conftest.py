"""Shared fixture machinery: seeded random trees, payoffs and distortions."""

from __future__ import annotations

import numpy as np
import pytest

from distrisk import (
    DistortionMeasure,
    Filtration,
    LevelLaws,
    MaxMinVar,
    MaxVar,
    MinMaxVar,
    MinVar,
    ProportionalHazard,
    RandomVariable,
    ScenarioSpace,
    psi_from_measure,
)

SEED = 20240817
INTERIOR_SEED = 20261019  # the pool whose index searches end in the bisection

# one verdict line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_tree(rng, max_atoms: int = 12, max_levels: int = 3):
    """Random scenario space and filtration with at most max_levels partitions.

    The root is always trivial and the last level always separates atoms; a
    middle level, when present, is a random coarsening of the singletons.
    """
    n = int(rng.integers(2, max_atoms + 1))
    probs = rng.random(n) + 0.1
    space = ScenarioSpace(probs / probs.sum())
    levels = [tuple([tuple(range(n))])]
    if max_levels >= 3 and rng.random() < 0.7 and n >= 3:
        order = rng.permutation(n)
        k = int(rng.integers(2, n))
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        cells = [tuple(int(i) for i in part) for part in np.split(order, cuts)]
        levels.append(tuple(cells))
    levels.append(tuple((i,) for i in range(n)))
    return space, Filtration(tuple(levels))


def interior_tree(rng, depth: int = 3):
    """Random tree with `depth` levels below the root, 2-3 children per cell
    and 2-4 atoms in every leaf cell, the atoms numbered in a random order,
    and a payoff whose cells mostly have a positive mean and a negative atom,
    so that their acceptability index is interior (neither 0 nor inf)."""
    branching, nodes = [], 1
    for _ in range(depth):
        branching.append(rng.integers(2, 4, size=nodes))
        nodes = int(branching[-1].sum())
    widths = [rng.integers(2, 5, size=nodes)]  # atoms per cell, from the leaves up
    for b in reversed(branching):
        widths.insert(0, np.add.reduceat(widths[0], np.cumsum(b) - b))
    order = rng.permutation(int(widths[-1].sum())).tolist()
    levels = []
    for w in widths:
        ends = np.cumsum(w).tolist()
        levels.append([order[a:b] for a, b in zip([0] + ends[:-1], ends)])
    n = len(order)
    probs = rng.random(n) + 0.1
    space = ScenarioSpace(probs / probs.sum())
    X = RandomVariable(np.round(rng.normal(1.0, 2.0, size=n), 3))
    return space, Filtration(levels), X


def fresh_laws(space, filtration, X, t) -> LevelLaws:
    """The laws `level_laws` gives for a tree level, built afresh on every
    call: nothing is read from or kept on the payoff."""
    return LevelLaws(filtration.cell_of_atom(t), filtration.n_cells(t), X, space.probabilities)


def random_payoff(rng, n: int) -> RandomVariable:
    vals = np.round(rng.normal(0.0, 3.0, size=n), 3)
    return RandomVariable(vals)


def random_measure(rng, max_atoms: int = 4) -> DistortionMeasure:
    k = int(rng.integers(1, max_atoms + 1))
    support = np.sort(rng.random(k) * 0.98 + 0.01)
    while np.any(np.diff(support) <= 1e-6):
        support = np.sort(rng.random(k) * 0.98 + 0.01)
    if rng.random() < 0.3:
        support[-1] = 1.0
    weights = rng.random(k) + 0.1
    return DistortionMeasure(support, weights / weights.sum())


def random_regular_distortion(rng):
    pick = int(rng.integers(0, 6))
    if pick == 0:
        return MinVar(float(rng.uniform(0.1, 4.0)))
    if pick == 1:
        return MaxVar(float(rng.uniform(0.1, 4.0)))
    if pick == 2:
        return MaxMinVar(float(rng.uniform(0.1, 4.0)))
    if pick == 3:
        return MinMaxVar(float(rng.uniform(0.1, 4.0)))
    if pick == 4:
        return ProportionalHazard(float(rng.uniform(0.2, 1.0)))
    return psi_from_measure(random_measure(rng))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def fixture_pool():
    """500 random (space, filtration, payoff) triples reused across suites."""
    gen = np.random.default_rng(SEED)
    pool = []
    for _ in range(500):
        space, filtration = random_tree(gen)
        pool.append((space, filtration, random_payoff(gen, space.n_atoms)))
    return pool


@pytest.fixture(scope="session")
def interior_pool():
    """12 (space, filtration, payoff) triples from :func:`interior_tree`."""
    gen = np.random.default_rng(INTERIOR_SEED)
    return [interior_tree(gen) for _ in range(12)]
