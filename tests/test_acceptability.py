"""Acceptability index tests: bracketing, conventions, and axioms."""

import math

import numpy as np
import pytest

from distrisk import (
    AcceptabilityResult,
    DistortionFamily,
    DomainError,
    Filtration,
    MinVar,
    RandomVariable,
    ScenarioSpace,
    choquet,
    dcai,
    dcai_axiom_check,
    minvar_family,
)
from distrisk import acceptability
from distrisk.tolerance import INDEX_TOL

from conftest import random_payoff, random_tree


def coin_tree():
    space = ScenarioSpace(np.asarray([0.5, 0.5]))
    filtration = Filtration((((0, 1),), ((0,), (1,))))
    return space, filtration


class TestDcai:
    def test_coin_payoff_index_one(self):
        # risk under the family is 4 psi_x(1/2) - 3, which crosses zero at
        # parameter 1
        space, filtration = coin_tree()
        X = RandomVariable(np.asarray([3.0, -1.0]))
        out = dcai(space, filtration, X, 0, minvar_family())
        assert abs(out.cell_values[0] - 1.0) <= 1e-6

    def test_positive_constant_unbounded(self):
        space, filtration = coin_tree()
        X = RandomVariable(np.asarray([2.0, 2.0]))
        out = dcai(space, filtration, X, 0, minvar_family())
        assert out.cell_values[0] == math.inf

    def test_negative_constant_zero(self):
        space, filtration = coin_tree()
        X = RandomVariable(np.asarray([-2.0, -2.0]))
        out = dcai(space, filtration, X, 0, minvar_family())
        assert out.cell_values[0] == 0.0

    def test_zero_payoff_unbounded(self):
        space, filtration = coin_tree()
        X = RandomVariable(np.zeros(2))
        out = dcai(space, filtration, X, 0, minvar_family())
        assert out.cell_values[0] == math.inf

    def test_non_monotone_family_rejected(self):
        space, filtration = coin_tree()
        X = RandomVariable(np.asarray([3.0, -1.0]))
        bad = DistortionFamily(lambda x: MinVar(1.0 / x), name="inverted")
        with pytest.raises(DomainError):
            dcai(space, filtration, X, 0, bad)

    def test_bisection_sandwich(self):
        gen = np.random.default_rng(47)
        family = minvar_family()
        for _ in range(30):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            out = dcai(space, filtration, X, 0, family, probe_family=False)
            x_star = out.cell_values[0]
            if x_star == 0.0 or math.isinf(x_star):
                continue
            d_lo = choquet(space, filtration, X, 0, family(max(x_star - 1e-6, 1e-12)))
            d_hi = choquet(space, filtration, X, 0, family(x_star + 1e-6))
            assert d_lo.cell_values[0] <= 1e-6
            assert d_hi.cell_values[0] >= -1e-6

    def test_risk_recovered_from_index(self):
        # the risk at parameter x is the negated break-even cash level of the
        # index capped at x, probed on a coarse cash grid
        space, filtration = coin_tree()
        X = RandomVariable(np.asarray([3.0, -1.0]))
        family = minvar_family()
        x = 2.0
        rho = choquet(space, filtration, X, 0, family(x)).cell_values[0]
        c_grid = np.linspace(-rho - 0.5, -rho + 0.5, 201)
        crossing = None
        for c in c_grid:
            shifted = RandomVariable(X.values - c)
            idx = dcai(
                space, filtration, shifted, 0, family, probe_family=False
            ).cell_values[0]
            if idx <= x:
                crossing = c
                break
        assert crossing is not None
        assert abs(-crossing - rho) <= 2e-2  # grid resolution dominates

    def test_law_invariance(self):
        space = ScenarioSpace(np.full(4, 0.25))
        filtration = Filtration((((0, 1, 2, 3),), ((0,), (1,), (2,), (3,))))
        family = minvar_family()
        a = dcai(space, filtration, RandomVariable(np.asarray([4.0, -1.0, 2.0, 0.5])), 0, family)
        b = dcai(space, filtration, RandomVariable(np.asarray([-1.0, 2.0, 0.5, 4.0])), 0, family)
        assert a.cell_values == b.cell_values


class TestAxiomCheck:
    def test_random_fixtures_pass(self):
        gen = np.random.default_rng(53)
        family = minvar_family()
        for _ in range(30):
            space, filtration = random_tree(gen, max_atoms=8)
            X = random_payoff(gen, space.n_atoms)
            Y = RandomVariable(X.values + np.abs(random_payoff(gen, space.n_atoms).values))
            report = dcai_axiom_check(space, filtration, X, Y, 0, family)
            assert report.passed, report.failures

    def test_scale_invariance_concrete(self):
        space, filtration = coin_tree()
        X = RandomVariable(np.asarray([3.0, -1.0]))
        scaled = RandomVariable(7.0 * X.values)
        family = minvar_family()
        a = dcai(space, filtration, X, 0, family).cell_values[0]
        b = dcai(space, filtration, scaled, 0, family).cell_values[0]
        assert abs(a - b) <= 1e-6
        assert abs(a - 1.0) <= 1e-6

    def test_monotone_pair(self):
        space, filtration = coin_tree()
        X = RandomVariable(np.asarray([1.0, -2.0]))
        Y = RandomVariable(np.asarray([2.0, -1.0]))
        family = minvar_family()
        a = dcai(space, filtration, X, 0, family).cell_values[0]
        b = dcai(space, filtration, Y, 0, family).cell_values[0]
        assert a <= b + 1e-9


MONOTONE = "monotonicity: X <= Y but index decreased"
SCALE = "scale invariance: positive measurable scaling moved the index"
LOCAL = "locality: masking other cells changed the index on cell 0"
QUASI = "quasi-concavity: a mixture fell below both endpoints"
JUST_OVER = float(np.nextafter(INDEX_TOL, 1.0))
INF = math.inf


def axiom_failures(monkeypatch, a_x, a_y, scaled=None, masked=None, mix=None, ordered=True):
    """The failures dcai_axiom_check reports on a two-cell level when dcai
    gives these indices for X, Y, the scaled X, the masked X and each of the
    three mixtures, in that order.  Scaled and masked default to X's indices,
    the mixtures to the larger endpoint; X <= Y pointwise iff ordered."""
    results = iter(
        [a_x, a_y, scaled or a_x, masked or a_x] + [mix or tuple(map(max, a_x, a_y))] * 3
    )

    def fake_dcai(space, filtration, X, t, family, probe_family=True):
        return AcceptabilityResult(t, next(results))

    monkeypatch.setattr(acceptability, "dcai", fake_dcai)
    space, filtration = coin_tree()
    X = RandomVariable(np.asarray([0.0, 1.0]))
    Y = RandomVariable(X.values + (1.0 if ordered else np.asarray([1.0, -1.0])))
    report = dcai_axiom_check(space, filtration, X, Y, 1, minvar_family())
    assert next(results, None) is None
    return report.failures


class TestAxiomVerdicts:
    """Each axiom's comparison of extended indices in [0, inf]: inf equals
    only inf, finite is below inf, and INDEX_TOL is the largest gap that
    still counts as equal."""

    def test_consistent_indices_pass(self, monkeypatch):
        assert axiom_failures(monkeypatch, (1.0, 2.0), (1.5, INF)) == ()

    def test_every_failure_in_order(self, monkeypatch):
        failures = axiom_failures(
            monkeypatch, (2.0, 1.0), (1.0, 1.0),
            scaled=(3.0, 1.0), masked=(4.0, 1.0), mix=(0.0, 0.0),
        )
        assert failures == (MONOTONE, SCALE, LOCAL, QUASI)

    @pytest.mark.parametrize("a_x, a_y, failed", [
        ((2.0, 1.0), (1.0, 1.0), True),
        ((1.0, 2.0), (1.0, 1.0), True),
        ((INF, 1.0), (5.0, 1.0), True),
        ((5.0, 1.0), (INF, 1.0), False),
        ((INF, 1.0), (INF, 1.0), False),
        ((INDEX_TOL, 1.0), (0.0, 1.0), False),
        ((JUST_OVER, 1.0), (0.0, 1.0), True),
    ])
    def test_monotonicity(self, monkeypatch, a_x, a_y, failed):
        assert axiom_failures(monkeypatch, a_x, a_y) == ((MONOTONE,) if failed else ())

    def test_monotonicity_needs_ordered_payoffs(self, monkeypatch):
        assert axiom_failures(monkeypatch, (2.0, 1.0), (1.0, 1.0), ordered=False) == ()

    @pytest.mark.parametrize("a_x, scaled, failed", [
        ((1.0, 2.0), (1.0, 2.5), True),
        ((INF, 2.0), (INF, 2.0), False),
        ((INF, 2.0), (5.0, 2.0), True),
        ((1.0, 5.0), (1.0, INF), True),
        ((0.0, 2.0), (INDEX_TOL, 2.0), False),
        ((0.0, 2.0), (JUST_OVER, 2.0), True),
    ])
    def test_scale_invariance(self, monkeypatch, a_x, scaled, failed):
        failures = axiom_failures(monkeypatch, a_x, a_x, scaled=scaled)
        assert failures == ((SCALE,) if failed else ())

    @pytest.mark.parametrize("a_x, masked, failed", [
        ((1.0, 2.0), (1.5, 2.0), True),
        ((1.0, 2.0), (1.0, 7.0), False),
        ((INF, 2.0), (INF, 0.0), False),
        ((INF, 2.0), (5.0, 2.0), True),
        ((5.0, 2.0), (INF, 2.0), True),
        ((0.0, 2.0), (INDEX_TOL, 2.0), False),
        ((0.0, 2.0), (JUST_OVER, 2.0), True),
    ])
    def test_locality_on_cell_zero(self, monkeypatch, a_x, masked, failed):
        failures = axiom_failures(monkeypatch, a_x, a_x, masked=masked)
        assert failures == ((LOCAL,) if failed else ())

    @pytest.mark.parametrize("a_x, a_y, mix, failed", [
        ((1.0, 2.0), (3.0, 2.0), (0.5, 2.0), True),
        ((1.0, 2.0), (3.0, 2.0), (1.0, 2.0), False),
        ((INF, 2.0), (INF, 2.0), (5.0, 2.0), True),
        ((INF, 2.0), (5.0, 2.0), (5.0, 2.0), False),
        ((1.0, 2.0), (3.0, 2.0), (INF, 2.0), False),
        ((INDEX_TOL, 2.0), (1.0, 2.0), (0.0, 2.0), False),
        ((JUST_OVER, 2.0), (1.0, 2.0), (0.0, 2.0), True),
    ])
    def test_quasi_concavity(self, monkeypatch, a_x, a_y, mix, failed):
        failures = axiom_failures(monkeypatch, a_x, a_y, mix=mix, ordered=False)
        assert failures == ((QUASI,) if failed else ())
