"""Structure and conditional-law tests for the filtered-space module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distrisk import (
    AdaptedValue,
    DiscreteDistribution,
    DomainError,
    Filtration,
    RandomVariable,
    ScenarioSpace,
    conditional_distribution,
    conditional_expectation,
    lift,
    validate,
)
from distrisk.space import Level

from bruteforce import distribution_quantile_lower
from conftest import random_payoff, random_tree


def binomial_tree():
    space = ScenarioSpace(np.full(4, 0.25))
    filtration = Filtration((
        ((0, 1, 2, 3),),
        ((0, 1), (2, 3)),
        ((0,), (1,), (2,), (3,)),
    ))
    return space, filtration


class TestScenarioSpace:
    def test_renormalizes_close_sums(self):
        space = ScenarioSpace(np.asarray([0.5, 0.5 + 5e-10]))
        assert abs(space.probabilities.sum() - 1.0) <= 1e-12

    def test_rejects_far_sums(self):
        with pytest.raises(DomainError):
            ScenarioSpace(np.asarray([0.5, 0.4]))

    def test_rejects_zero_probability(self):
        with pytest.raises(DomainError):
            ScenarioSpace(np.asarray([1.0, 0.0]))

    @pytest.mark.parametrize("probabilities, message", [
        ([], "probabilities must form a non-empty vector"),
        ([[0.5, 0.5]], "probabilities must form a non-empty vector"),
        ([np.nan, 0.5], "probabilities must be finite"),
        ([np.inf, 0.5], "probabilities must be finite"),
    ], ids=["empty", "matrix", "nan", "inf"])
    def test_malformed_probabilities_named(self, probabilities, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            ScenarioSpace(probabilities)


class TestFiltration:
    def test_cells_and_horizon(self):
        _, filtration = binomial_tree()
        assert filtration.horizon == 2
        assert filtration.n_cells(1) == 2
        assert filtration.cells(1)[0] == (0, 1)

    def test_rejects_overlapping_cells(self):
        with pytest.raises(DomainError):
            Filtration((((0, 1), (1,)),))

    def test_cell_of_atom(self):
        _, filtration = binomial_tree()
        assert list(filtration.cell_of_atom(1)) == [0, 0, 1, 1]

    def test_level_sizes_must_add_up_to_its_atoms(self):
        atoms = np.arange(3, dtype=np.int32)
        with pytest.raises(DomainError, match="^cell sizes at time 0 do not add up to its atoms$"):
            Filtration((Level(atoms, np.array([2, 1, 1], dtype=np.int32)),))
        # the sizes add up to the atoms, but a negative one overlaps the cells
        with pytest.raises(DomainError, match="^negative cell size at time 0$"):
            Filtration((Level(atoms, np.array([2, -1, 2], dtype=np.int32)),))
        # the sizes do not add up, and an atom is listed twice: the overlap is named
        twice = np.array([0, 0, 1], dtype=np.int32)
        with pytest.raises(DomainError, match="^overlapping cells at time 0$"):
            Filtration((Level(twice, np.array([1, 1], dtype=np.int32)),))

    def test_level_kept_as_one_object(self):
        given = Level(np.array([1, 0], dtype=np.int32), np.array([2], dtype=np.int32))
        filtration = Filtration([given, [[0], [1]]])
        assert filtration.level(0) is given
        assert filtration.level(1) is filtration.level(1)
        assert not given.atoms.flags.writeable and not given.sizes.flags.writeable

    def test_cells_given_as_arrays(self):
        # one atom per cell, and an array cell of two atoms, whose bool() raises
        filtration = Filtration(([np.array([2, 0]), np.array([1])],
                                 [np.array([i]) for i in (2, 0, 1)]))
        assert filtration.cells(0) == ((2, 0), (1,))
        assert filtration.cell_of_atom(0).tolist() == [0, 1, 0]
        assert filtration.cell_of_atom(1).tolist() == [1, 2, 0]
        with pytest.raises(DomainError, match="^empty cell at time 0$"):
            Filtration(([np.array([0, 1]), np.array([], dtype=int)],))


class TestConditionalDistribution:
    def test_binomial_cell_merges_nothing(self):
        space, filtration = binomial_tree()
        X = RandomVariable(np.asarray([2.0, 0.0, 0.0, -2.0]))
        d = conditional_distribution(space, filtration, X, 1, 0)
        assert list(d.support) == [0.0, 2.0]
        assert list(d.weights) == [0.5, 0.5]

    def test_constant_payoff_degenerates(self):
        space, filtration = binomial_tree()
        X = RandomVariable(np.full(4, 3.25))
        d = conditional_distribution(space, filtration, X, 1, 1)
        assert list(d.support) == [3.25]
        assert list(d.weights) == [1.0]

    def test_merges_equal_values(self):
        space = ScenarioSpace(np.asarray([0.2, 0.3, 0.5]))
        filtration = Filtration((((0, 1, 2),), ((0,), (1,), (2,))))
        X = RandomVariable(np.asarray([1.0, 1.0, 3.0]))
        d = conditional_distribution(space, filtration, X, 0, 0)
        assert list(d.support) == [1.0, 3.0]
        assert np.allclose(d.weights, [0.5, 0.5], atol=1e-15)

    def test_unknown_cell_rejected(self):
        space, filtration = binomial_tree()
        X = RandomVariable(np.zeros(4))
        with pytest.raises(DomainError):
            conditional_distribution(space, filtration, X, 1, 5)

    def test_weights_sum_to_one_on_random_trees(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            for t in range(filtration.horizon + 1):
                for k in range(filtration.n_cells(t)):
                    d = conditional_distribution(space, filtration, X, t, k)
                    assert abs(d.weights.sum() - 1.0) <= 1e-12


class TestDiscreteDistribution:
    @pytest.mark.parametrize("support, weights", [
        ([np.nan], [1.0]),
        ([1.0, np.inf], [0.5, 0.5]),
        ([1.0, 2.0], [np.nan, 0.5]),
    ], ids=["nan-support", "inf-support", "nan-weight"])
    def test_rejects_non_finite(self, support, weights):
        with pytest.raises(DomainError, match="^support and weights must be finite$"):
            DiscreteDistribution(np.asarray(support), np.asarray(weights))

    @pytest.mark.parametrize("support, weights, message", [
        ([], [], "support and weights must be matching non-empty vectors"),
        ([1.0, 2.0], [1.0], "support and weights must be matching non-empty vectors"),
        ([[1.0]], [[1.0]], "support and weights must be matching non-empty vectors"),
        ([1.0, 2.0], [0.0, 1.0], "weights must be strictly positive"),
        ([1.0, 2.0], [-0.5, 1.5], "weights must be strictly positive"),
    ], ids=["empty", "lengths", "matrix", "zero-weight", "negative-weight"])
    def test_malformed_law_named(self, support, weights, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            DiscreteDistribution(np.asarray(support), np.asarray(weights))


class TestConditionalExpectation:
    def test_binomial_values(self):
        space, filtration = binomial_tree()
        X = RandomVariable(np.asarray([2.0, 0.0, 0.0, -2.0]))
        assert conditional_expectation(space, filtration, X, 0).cell_values[0] == 0.0
        up = conditional_expectation(space, filtration, X, 1).cell_values
        assert list(up) == [1.0, -1.0]

    def test_weighted_mean(self):
        space = ScenarioSpace(np.asarray([0.2, 0.3, 0.5]))
        filtration = Filtration((((0, 1, 2),), ((0,), (1,), (2,))))
        X = RandomVariable(np.asarray([1.0, 1.0, 3.0]))
        assert conditional_expectation(space, filtration, X, 0).cell_values[0] == 2.0

    def test_tower_property(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            s = filtration.horizon
            inner = conditional_expectation(space, filtration, X, s)
            outer = conditional_expectation(
                space, filtration, lift(filtration, inner), 0
            )
            direct = conditional_expectation(space, filtration, X, 0)
            assert np.max(np.abs(outer.cell_values - direct.cell_values)) <= 1e-12

    def test_lift_needs_one_value_per_cell(self):
        _, filtration = binomial_tree()
        with pytest.raises(DomainError, match="^cell value count does not match partition$"):
            lift(filtration, AdaptedValue(1, [1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("cell_values", [1.0, [[1.0, 2.0]]], ids=["scalar", "matrix"])
    def test_adapted_value_must_be_a_vector(self, cell_values):
        with pytest.raises(DomainError, match="^cell_values must form a vector$"):
            AdaptedValue(0, cell_values)

    def test_quantile_step_integral_matches_mean(self):
        # the mean is the integral of the lower quantile over levels in (0,1)
        gen = np.random.default_rng(13)
        for _ in range(30):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            for k in range(filtration.n_cells(1) if filtration.horizon >= 1 else 0):
                d = conditional_distribution(space, filtration, X, 1, k)
                F = np.cumsum(d.weights)
                lo = np.concatenate(([0.0], F[:-1]))
                integral = float(d.support @ (F - lo))
                assert abs(integral - d.mean()) <= 1e-12
                # spot-check the step function against the quantile evaluator
                for z in (0.25, 0.5, 0.9):
                    idx = int(np.argmax(F >= z))
                    assert distribution_quantile_lower(d, z) == d.support[idx]


class TestValidate:
    def test_clean_structure(self):
        report = validate([0.5, 0.5], [[[0, 1]], [[0], [1]]], [1.0, -1.0])
        assert report == []

    def test_refinement_violation_named(self):
        report = validate(
            [0.25] * 4,
            [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0, 2], [1], [3]]],
        )
        assert any("straddles" in msg for msg in report)

    def test_bad_normalization(self):
        report = validate([0.4, 0.5], [[[0, 1]], [[0], [1]]])
        assert any("sum" in msg for msg in report)

    def test_never_raises_on_garbage(self):
        report = validate([0.5, 0.5, -1.0], [[[0, 1]], [[0], [1]]], [1.0])
        assert report  # several problems, reported not raised

    def test_level_whose_sizes_do_not_add_up_reported(self):
        # Filtration rejects it; validate names it as no partition, not raise
        level = Level(np.arange(3, dtype=np.int32), np.array([2, 2], dtype=np.int32))
        with pytest.raises(DomainError, match="^cell sizes at time 0 do not add up"):
            Filtration([level])
        assert validate([0.25, 0.5, 0.25], [level]) == [
            "partition t=0: not a partition of the atom set"
        ]

    def test_no_levels_reported(self):
        with pytest.raises(DomainError, match="at least one level"):
            Filtration([])
        assert validate([1.0], []) == ["partitions: not a non-empty sequence of levels"]

    def test_matrix_payoff_reported(self):
        with pytest.raises(DomainError):
            RandomVariable(np.asarray([[1.0, 2.0]]))
        report = validate([0.5, 0.5], [[[0, 1]], [[0], [1]]], [[1.0, 2.0]])
        assert report == ["payoff 0: not a vector of numbers"]

    def test_none_payoff_is_not_a_vector(self):
        assert validate([1.0], [[[0]]], None) == ["payoff 0: not a vector of numbers"]


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
    ),
    shift=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_conditional_mean_is_affine(values, shift):
    n = len(values)
    space = ScenarioSpace(np.full(n, 1.0 / n))
    filtration = Filtration(((tuple(range(n)),), tuple((i,) for i in range(n))))
    X = RandomVariable(np.asarray(values))
    base = conditional_expectation(space, filtration, X, 0).cell_values[0]
    shifted = conditional_expectation(
        space, filtration, RandomVariable(X.values + shift), 0
    ).cell_values[0]
    assert abs(shifted - (base + shift)) <= 1e-9
