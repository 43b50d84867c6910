"""The one-sort-per-level evaluators against the per-cell reference path.

Every level-wide evaluator, the structural maps and the linear-time checkers
must agree with the brute-force versions in `bruteforce.py`: values to
1e-13 relative (summation order differs), verdicts and witnesses exactly.
"""

import math

import numpy as np
import pytest

import bruteforce
from distrisk import (
    AcceptabilityResult,
    AdaptedValue,
    DomainError,
    Filtration,
    Identity,
    LevelLaws,
    MinVar,
    RandomVariable,
    ScenarioSpace,
    avar,
    avar_robust,
    build_nonmiddle_example,
    build_weakacc_continuous,
    build_weakacc_pprime,
    check_super_strict_failure,
    check_weak_acceptance,
    check_weak_rejection_dcai,
    choquet,
    conditional_expectation,
    dcai,
    dirac,
    dwvar,
    lift,
    min_iid_rho,
    minvar_family,
    pprime_distortion,
    quantile_lower,
    quantile_upper,
    var,
)
from distrisk import consistency
from distrisk.space import conditional_distribution

from conftest import random_measure, random_regular_distortion, random_tree

REL_TOL = 1e-13


def assert_close(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= REL_TOL * np.maximum(1.0, np.abs(want))), (got, want)


def assert_same_quantile(got, want, cell_laws, alpha):
    """Equal quantiles, except on cells where alpha sits on a CDF breakpoint:
    there the level-wide and the per-cell cumulative sums, rounded in a
    different order, may fall on either side of alpha."""
    for g, w, d in zip(got, want, cell_laws):
        if g != w:
            assert np.min(np.abs(np.cumsum(d.weights) - alpha)) <= REL_TOL, (g, w, alpha)


def tie_heavy_tree():
    """60 atoms, payoff on five values; the middle level lists unequal cells
    in non-ascending atom order."""
    gen = np.random.default_rng(5)
    n = 60
    probs = np.where(np.arange(n) % 3 == 0, 2.0, 1.0)
    space = ScenarioSpace(probs / probs.sum())
    order = gen.permutation(n)
    sizes = (1, 3, 7, 14, 35)
    cuts = np.cumsum(sizes)[:-1]
    middle = tuple(tuple(int(i) for i in part) for part in np.split(order, cuts))[::-1]
    filtration = Filtration((
        (tuple(range(n - 1, -1, -1)),),
        middle,
        tuple((i,) for i in range(n)),
    ))
    X = RandomVariable(gen.integers(-2, 3, size=n).astype(float))
    return space, filtration, X


def assert_evaluators_agree(space, filtration, X, psi, mu):
    for t in range(filtration.horizon + 1):
        cell_laws = bruteforce.laws(space, filtration, X, t)
        assert_close(choquet(space, filtration, X, t, psi).cell_values,
                     bruteforce.choquet(cell_laws, psi))
        for alpha in (0.05, 0.5, 0.9):
            upper = bruteforce.quantile_upper(cell_laws, alpha)
            assert_same_quantile(quantile_upper(space, filtration, X, t, alpha).cell_values,
                                 upper, cell_laws, alpha)
            assert_same_quantile(quantile_lower(space, filtration, X, t, alpha).cell_values,
                                 bruteforce.quantile_lower(cell_laws, alpha), cell_laws, alpha)
            assert_same_quantile(-var(space, filtration, X, t, alpha).cell_values,
                                 upper, cell_laws, alpha)
        for alpha in (0.05, 0.5, 1.0):
            assert_close(avar(space, filtration, X, t, alpha).cell_values,
                         bruteforce.avar(cell_laws, alpha))
            assert_close(avar_robust(space, filtration, X, t, alpha).cell_values,
                         bruteforce.avar_robust(cell_laws, alpha))
        assert_close(dwvar(space, filtration, X, t, mu).cell_values,
                     bruteforce.dwvar(cell_laws, mu))
        assert_close(min_iid_rho(space, filtration, X, t, 3).cell_values,
                     bruteforce.min_iid_rho(cell_laws, 3))
        assert_close(conditional_expectation(space, filtration, X, t).cell_values,
                     bruteforce.conditional_expectation(space, filtration, X, t))
        values = np.arange(filtration.n_cells(t), dtype=float) - 1.5
        assert np.array_equal(lift(filtration, AdaptedValue(t, values)).values,
                              bruteforce.lift(filtration, t, values))
        assert np.array_equal(filtration.cell_of_atom(t),
                              bruteforce.cell_of_atom(filtration, t))


class TestEvaluatorsMatchPerCellPath:
    def test_fixture_pool_every_level(self, fixture_pool):
        gen = np.random.default_rng(211)
        for space, filtration, X in fixture_pool:
            assert_evaluators_agree(
                space, filtration, X, random_regular_distortion(gen), random_measure(gen)
            )

    def test_counterexample_trees(self):
        trees = [build_nonmiddle_example(), build_weakacc_continuous(dirac(0.5), 2000)]
        trees += [build_weakacc_pprime(a) for a in (2.0, 3.0, 5.0)]
        gen = np.random.default_rng(223)
        for ce in trees:
            assert_evaluators_agree(ce.space, ce.filtration, ce.X, ce.psi, random_measure(gen))

    def test_tie_heavy_unordered_cells(self):
        space, filtration, X = tie_heavy_tree()
        gen = np.random.default_rng(227)
        for psi in (MinVar(2.0), pprime_distortion(3.0), Identity()):
            assert_evaluators_agree(space, filtration, X, psi, random_measure(gen))

    def test_dcai_matches_per_cell_bisection(self, fixture_pool):
        family = minvar_family()
        trees = list(fixture_pool[:40]) + [tie_heavy_tree()]
        for space, filtration, X in trees:
            for t in range(filtration.horizon + 1):
                got = dcai(space, filtration, X, t, family, probe_family=False).cell_values
                want = bruteforce.dcai(bruteforce.laws(space, filtration, X, t), family)
                assert [math.isinf(v) for v in got] == [math.isinf(v) for v in want]
                assert_close([v for v in got if not math.isinf(v)],
                             [v for v in want if not math.isinf(v)])


class TestLevelLaws:
    def test_merged_laws_match_conditional_distribution(self):
        space, filtration, X = tie_heavy_tree()
        for t in range(filtration.horizon + 1):
            laws = LevelLaws(space, filtration, X, t)
            for k, (a, b) in enumerate(zip(laws.start, laws.stop)):
                d = conditional_distribution(space, filtration, X, t, k)
                assert np.array_equal(laws.support[a:b], d.support)
                assert np.all(laws.cell[a:b] == k)
                assert_close(laws.weights[a:b], d.weights)
                F = np.cumsum(d.weights)
                F[-1] = 1.0
                assert_close(laws.F[a:b], F)
                assert laws.F[b - 1] == 1.0
                assert laws.lo[a] == 0.0
                assert np.array_equal(laws.lo[a + 1:b], laws.F[a:b - 1])

    def test_length_mismatch_rejected(self):
        space, filtration, _ = tie_heavy_tree()
        with pytest.raises(DomainError, match="payoff length"):
            LevelLaws(space, filtration, RandomVariable(np.zeros(3)), 1)


class TestFiltrationArrays:
    def non_contiguous(self):
        return Filtration((
            ((4, 0, 5, 2, 1, 3),),
            ((5, 1), (3, 0, 4), (2,)),
            ((3,), (1,), (0, 4), (5,), (2,)),
            ((4,), (3,), (1,), (5,), (0,), (2,)),
        ))

    def test_cell_of_atom_and_parent(self):
        filtration = self.non_contiguous()
        assert list(filtration.cell_of_atom(1)) == [1, 0, 2, 1, 1, 0]
        assert list(filtration.parent(1, 2)) == [1, 0, 1, 0, 2]
        for t in range(filtration.horizon + 1):
            assert np.array_equal(filtration.cell_of_atom(t),
                                  bruteforce.cell_of_atom(filtration, t))
            for s in range(t, filtration.horizon + 1):
                assert list(filtration.parent(t, s)) == bruteforce.parent(filtration, t, s)

    def test_maps_are_read_only(self):
        filtration = self.non_contiguous()
        with pytest.raises(ValueError):
            filtration.cell_of_atom(1)[0] = 2

    def test_cells_keep_caller_order(self):
        filtration = self.non_contiguous()
        assert filtration.cells(2) == ((3,), (1,), (0, 4), (5,), (2,))
        assert filtration.partitions[0] == ((4, 0, 5, 2, 1, 3),)
        filtration = Filtration([[np.array([1, 0])], [[np.int64(1)], [0]]])
        assert filtration.partitions == (((1, 0),), ((1,), (0,)))
        assert all(type(i) is int for i in filtration.cells(0)[0])

    @pytest.mark.parametrize("levels, message", [
        ((((0, 1), (1,)),), "overlapping cells at time 0"),
        ((((0, 1, 2),), ((0, 1), (1, 2))), "overlapping cells at time 1"),
        ((((0, 1, 2),), ((0,), ())), "empty cell at time 1"),
        ((((0, 1, 2),), ((0,), (1,))), "level 1 does not cover the same atom set"),
        ((((0, 1, 2),), ((0,), (1,), (3,))), "level 1 does not cover the same atom set"),
        ((((0, 2),), ((0,), (2,))), "atom indices must be 0..n-1"),
        ((((-1, 0),),), "atom indices must be 0..n-1"),
        ((), "filtration needs at least one level"),
    ])
    def test_malformed_partitions(self, levels, message):
        with pytest.raises(DomainError, match=message.replace(".", r"\.")):
            Filtration(levels)


def random_checker_values(gen, n, kind):
    """Cell values with ties at the decision thresholds."""
    if kind == "risk":
        pool = np.asarray([-1.0, 0.0, 1e-12, 2e-12, 0.5])
    else:
        pool = np.asarray([0.0, 1.0, 1.0 + 5e-7, 1.0 + 2e-6, 2.0, math.inf])
    return pool[gen.integers(0, pool.size, size=n)]


class TestCheckersMatchBruteForce:
    def assert_same(self, got, want):
        assert got.margins == want.margins
        assert got.verdict == want.verdict
        assert got.witness == want.witness

    def test_super_strict_on_pool(self, fixture_pool):
        gen = np.random.default_rng(229)
        for space, filtration, X in fixture_pool:
            psi = random_regular_distortion(gen)
            if psi.is_identity():
                continue
            for t in range(filtration.horizon + 1):
                for Y in (X, RandomVariable(np.round(X.values))):
                    self.assert_same(
                        check_super_strict_failure(space, filtration, Y, psi, t),
                        bruteforce.check_super_strict_failure(space, filtration, Y, psi, t),
                    )

    def test_weak_acceptance_on_pool(self, fixture_pool):
        gen = np.random.default_rng(233)
        for space, filtration, X in fixture_pool:
            psi = random_regular_distortion(gen)
            for t in range(filtration.horizon):
                for s in range(t + 1, filtration.horizon + 1):
                    self.assert_same(
                        check_weak_acceptance(space, filtration, X, psi, t, s),
                        bruteforce.check_weak_acceptance(space, filtration, X, psi, t, s),
                    )

    def test_weak_acceptance_interleaved_children(self):
        # two copies of the four-atom tree, their time-2 cells interleaved
        ce = build_weakacc_pprime(2.0)
        p = np.concatenate([ce.space.probabilities] * 2) / 2.0
        X = RandomVariable(np.concatenate([ce.X.values] * 2))
        filtration = Filtration((
            (tuple(range(8)),),
            ((0, 1, 2, 3), (4, 5, 6, 7)),
            ((4, 7), (0, 3), (5, 6), (1, 2)),
            tuple((i,) for i in range(8)),
        ))
        space = ScenarioSpace(p)
        for t, s in ((0, 2), (1, 2)):
            got = check_weak_acceptance(space, filtration, X, ce.psi, t, s)
            self.assert_same(
                got, bruteforce.check_weak_acceptance(space, filtration, X, ce.psi, t, s)
            )
            assert got.verdict == "violated"
        assert got.witness["cell"] == 0
        assert len(got.witness["rho_s_children"]) == 2

    def test_checkers_on_random_cell_values(self, monkeypatch):
        """Feed both checkers the same arbitrary per-cell values, so that
        violations, ties at the thresholds and capped indices all occur."""
        gen = np.random.default_rng(239)
        space, filtration, X = tie_heavy_tree()
        trees = [(space, filtration)] + [random_tree(gen) for _ in range(40)]

        def fake_choquet(space, filtration, X, t, psi):
            return AdaptedValue(t, values[t])

        def fake_dcai(space, filtration, X, t, family):
            return AcceptabilityResult(t, tuple(values[t]))

        monkeypatch.setattr(consistency, "choquet", fake_choquet)
        monkeypatch.setattr(consistency, "dcai", fake_dcai)
        seen = set()
        for space, filtration in trees:
            X = RandomVariable(np.zeros(space.n_atoms))
            for t in range(filtration.horizon):
                for s in range(t + 1, filtration.horizon + 1):
                    for _ in range(20):
                        values = {
                            u: random_checker_values(gen, filtration.n_cells(u), "risk")
                            for u in (t, s)
                        }
                        got = check_weak_acceptance(space, filtration, X, None, t, s)
                        self.assert_same(got, bruteforce.check_weak_acceptance(
                            space, filtration, X, None, t, s))
                        seen.add(("weak_acceptance", got.verdict))
                        values = {
                            u: random_checker_values(gen, filtration.n_cells(u), "index")
                            for u in (t, s)
                        }
                        got = check_weak_rejection_dcai(space, filtration, X, None, t, s)
                        self.assert_same(got, bruteforce.check_weak_rejection_dcai(
                            space, filtration, X, None, t, s))
                        seen.add(("weak_rejection", got.verdict))
        assert len(seen) == 4
