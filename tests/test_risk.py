"""Risk evaluator tests: distorted expectations, quantiles, tail means."""

import math

import numpy as np
import pytest

from distrisk import (
    DistortionMeasure,
    DomainError,
    Filtration,
    Identity,
    MinVar,
    ProportionalHazard,
    RandomVariable,
    ScenarioSpace,
    avar,
    avar_robust,
    choquet,
    conditional_expectation,
    dirac,
    dwvar,
    lift,
    min_iid_rho,
    pprime_measure,
    psi_from_measure,
    quantile_lower,
    quantile_upper,
    var,
)
from distrisk.distortion import PiecewiseLinear
from distrisk.space import conditional_distribution
from distrisk.tolerance import CROSS_CHECK_TOL

from bruteforce import distribution_choquet
from conftest import (
    random_measure,
    random_payoff,
    random_regular_distortion,
    random_tree,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def binomial_tree():
    space = ScenarioSpace(np.full(4, 0.25))
    filtration = Filtration((
        ((0, 1, 2, 3),),
        ((0, 1), (2, 3)),
        ((0,), (1,), (2,), (3,)),
    ))
    X = RandomVariable(np.asarray([2.0, 0.0, 0.0, -2.0]))
    return space, filtration, X


def three_point():
    space = ScenarioSpace(np.asarray([0.25, 0.5, 0.25]))
    filtration = Filtration((((0, 1, 2),), ((0,), (1,), (2,))))
    X = RandomVariable(np.asarray([-2.0, 0.0, 2.0]))
    return space, filtration, X


class TestChoquet:
    def test_binomial_sqrt_time_one(self):
        space, filtration, X = binomial_tree()
        out = choquet(space, filtration, X, 1, ProportionalHazard(0.5))
        assert abs(out.cell_values[0] - (SQRT2 - 2.0)) <= 1e-12
        assert abs(out.cell_values[1] - SQRT2) <= 1e-12

    def test_binomial_sqrt_time_zero(self):
        space, filtration, X = binomial_tree()
        out = choquet(space, filtration, X, 0, ProportionalHazard(0.5))
        assert abs(out.cell_values[0] - (SQRT3 - 1.0)) <= 1e-12

    def test_binomial_sqrt_witness(self):
        space, filtration, X = binomial_tree()
        psi = ProportionalHazard(0.5)
        rho1 = choquet(space, filtration, X, 1, psi)
        Y = RandomVariable(-lift(filtration, rho1).values)
        out = choquet(space, filtration, Y, 0, psi)
        assert abs(out.cell_values[0] - (2.0 * SQRT2 - 2.0)) <= 1e-12

    def test_identity_is_negated_mean(self):
        gen = np.random.default_rng(17)
        for _ in range(30):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            for t in range(filtration.horizon + 1):
                out = choquet(space, filtration, X, t, Identity())
                mean = conditional_expectation(space, filtration, X, t)
                assert np.max(np.abs(out.cell_values + mean.cell_values)) <= 1e-12

    def test_non_concave_rejected(self):
        space, filtration, X = binomial_tree()
        y = np.linspace(0, 1, 11)
        with pytest.raises(DomainError):
            choquet(space, filtration, X, 0, PiecewiseLinear(y, y**2))

    def test_law_invariance_under_permutation(self):
        space = ScenarioSpace(np.asarray([0.25, 0.25, 0.25, 0.25]))
        filtration = Filtration((
            ((0, 1, 2, 3),), ((0,), (1,), (2,), (3,)),
        ))
        psi = MinVar(2)
        a = choquet(space, filtration, RandomVariable(np.asarray([1.0, 5.0, -3.0, 2.0])), 0, psi)
        b = choquet(space, filtration, RandomVariable(np.asarray([5.0, -3.0, 2.0, 1.0])), 0, psi)
        assert a.cell_values[0] == b.cell_values[0]

    def test_comonotone_additivity(self):
        gen = np.random.default_rng(19)
        for _ in range(30):
            space, filtration = random_tree(gen)
            n = space.n_atoms
            Z = random_payoff(gen, n).values
            X = RandomVariable(np.round(2.0 * Z + 1.0, 6))
            Y = RandomVariable(np.round(np.maximum(Z, 0.0), 6))
            psi = random_regular_distortion(gen)
            for t in range(filtration.horizon + 1):
                rx = choquet(space, filtration, X, t, psi).cell_values
                ry = choquet(space, filtration, Y, t, psi).cell_values
                rxy = choquet(
                    space, filtration, RandomVariable(X.values + Y.values), t, psi
                ).cell_values
                assert np.max(np.abs(rxy - rx - ry)) <= 1e-10

    def test_halfline_integral_oracle(self):
        # numerically integrate psi(P(-X > y)) over [0, inf) after a cash
        # shift making the loss non-negative, for a distortion with bounded
        # slope near 0
        space, filtration, X = three_point()
        psi = MinVar(2)
        shift = 5.0  # -X + 5 ranges in [3, 7]
        d = conditional_distribution(
            space, filtration, RandomVariable(X.values - shift), 0, 0
        )
        # the tail of the shifted loss is piecewise constant with breakpoints
        # at the negated support, so the half-line integral is a finite sum
        breaks = np.sort(-d.support)
        prev = 0.0
        total = 0.0
        for b in breaks:
            if b <= 0:
                continue
            tail = float(d.weights[-d.support > prev].sum())
            total += psi(np.asarray([tail]))[0] * (b - prev)
            prev = b
        expected = distribution_choquet(d, psi)
        assert abs(total - expected) <= 1e-12


class TestQuantiles:
    def test_three_point_levels(self):
        space = ScenarioSpace(np.asarray([1 / 3, 1 / 3, 1 / 3]))
        filtration = Filtration((((0, 1, 2),), ((0,), (1,), (2,))))
        X = RandomVariable(np.asarray([1.0, 2.0, 3.0]))
        up = quantile_upper(space, filtration, X, 0, 1 / 3).cell_values[0]
        lo = quantile_lower(space, filtration, X, 0, 1 / 3).cell_values[0]
        assert up == 2.0
        assert lo == 1.0

    def test_constant(self):
        space, filtration, _ = three_point()
        X = RandomVariable(np.full(3, 4.5))
        for alpha in (0.1, 0.5, 0.9):
            assert quantile_upper(space, filtration, X, 0, alpha).cell_values[0] == 4.5
            assert quantile_lower(space, filtration, X, 0, alpha).cell_values[0] == 4.5

    def test_duality(self):
        gen = np.random.default_rng(23)
        for _ in range(100):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            negX = RandomVariable(-X.values)
            for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
                up = quantile_upper(space, filtration, X, 1, alpha).cell_values
                lo = quantile_lower(space, filtration, negX, 1, 1.0 - alpha).cell_values
                assert np.all(up == -lo)

    def test_alpha_domain(self):
        space, filtration, X = three_point()
        with pytest.raises(DomainError):
            quantile_upper(space, filtration, X, 0, 0.0)
        with pytest.raises(DomainError):
            quantile_lower(space, filtration, X, 0, 1.0)


class TestVar:
    def test_three_point(self):
        space, filtration, X = three_point()
        assert var(space, filtration, X, 0, 0.1).cell_values[0] == 2.0

    def test_constant(self):
        space, filtration, _ = three_point()
        X = RandomVariable(np.full(3, 1.5))
        assert var(space, filtration, X, 0, 0.3).cell_values[0] == -1.5

    def test_cash_additivity(self):
        space, filtration, X = three_point()
        shifted = RandomVariable(X.values + 0.7)
        a = var(space, filtration, X, 0, 0.25).cell_values[0]
        b = var(space, filtration, shifted, 0, 0.25).cell_values[0]
        assert abs(b - (a - 0.7)) <= 1e-12


class TestAvar:
    def test_three_point_half(self):
        space, filtration, X = three_point()
        assert avar(space, filtration, X, 0, 0.5).cell_values[0] == 1.0

    def test_full_level_is_negated_mean(self):
        space, filtration, X = three_point()
        assert avar(space, filtration, X, 0, 1.0).cell_values[0] == 0.0

    def test_two_step_cell(self):
        space = ScenarioSpace(np.asarray([5 / 6, 1 / 6]))
        filtration = Filtration((((0, 1),), ((0,), (1,))))
        X = RandomVariable(np.asarray([2.0, -4.0]))
        out = avar(space, filtration, X, 0, 1 / 3).cell_values[0]
        assert abs(out - 1.0) <= 1e-12

    def test_zero_level_rejected(self):
        space, filtration, X = three_point()
        with pytest.raises(DomainError):
            avar(space, filtration, X, 0, 0.0)

    def test_robust_form_three_point(self):
        space, filtration, X = three_point()
        assert avar_robust(space, filtration, X, 0, 0.5).cell_values[0] == 1.0

    def test_robust_full_level(self):
        space, filtration, X = three_point()
        assert avar_robust(space, filtration, X, 0, 1.0).cell_values[0] == 0.0

    def test_two_forms_agree(self):
        gen = np.random.default_rng(29)
        for _ in range(100):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                a = avar(space, filtration, X, 1, alpha).cell_values
                b = avar_robust(space, filtration, X, 1, alpha).cell_values
                assert np.max(np.abs(a - b)) <= 1e-12


class TestDwvar:
    def test_dirac_half(self):
        space, filtration, X = three_point()
        out = dwvar(space, filtration, X, 0, dirac(0.5))
        assert out.cell_values[0] == 1.0

    def test_dirac_one_is_negated_mean(self):
        space, filtration, X = three_point()
        out = dwvar(space, filtration, X, 0, dirac(1.0))
        assert out.cell_values[0] == 0.0

    def test_matches_choquet_of_generated_distortion(self):
        gen = np.random.default_rng(31)
        for _ in range(100):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            mu = random_measure(gen)
            psi = psi_from_measure(mu)
            for t in range(filtration.horizon + 1):
                a = dwvar(space, filtration, X, t, mu).cell_values
                b = choquet(space, filtration, X, t, psi).cell_values
                assert np.max(np.abs(a - b)) <= 1e-10

    def test_boundary_measure_identity(self):
        # the two-atom boundary measure mixes one tail mean with the mean
        gen = np.random.default_rng(37)
        for _ in range(50):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            for a in (2.0, 3.0, 5.0):
                mu = pprime_measure(a)
                left = dwvar(space, filtration, X, 0, mu).cell_values
                tail = avar(space, filtration, X, 0, 1.0 / (a + 1.0)).cell_values
                mean = conditional_expectation(space, filtration, X, 0).cell_values
                right = (a - 1.0) / a * tail - mean / a
                assert np.max(np.abs(left - right)) <= 1e-12

    def test_invalid_measure_rejected(self):
        space, filtration, X = three_point()
        with pytest.raises(DomainError):
            dwvar(space, filtration, X, 0, "not a measure")

    @pytest.mark.parametrize("gap, fails", [(10.0, True), (0.1, False)])
    def test_cross_check_threshold(self, monkeypatch, gap, fails):
        # the distortion form sees psi(1/4) raised by d, which moves the
        # risk of (-2, 0, 1, 3) from 1 by d * (0 - (-2)) = 2d
        d = gap * CROSS_CHECK_TOL / 2.0
        monkeypatch.setattr(
            "distrisk.risk.psi_from_measure",
            lambda mu: PiecewiseLinear([0.0, 0.25, 0.5, 1.0], [0.0, 0.5 + d, 1.0, 1.0]),
        )
        space = ScenarioSpace(np.full(4, 0.25))
        filtration = Filtration((((0, 1, 2, 3),), ((0,), (1,), (2,), (3,))))
        X = RandomVariable(np.asarray([-2.0, 0.0, 1.0, 3.0]))
        if fails:
            with pytest.raises(AssertionError, match="dwvar internal cross-check failed"):
                dwvar(space, filtration, X, 0, dirac(0.5))
        else:
            assert dwvar(space, filtration, X, 0, dirac(0.5)).cell_values[0] == 1.0

    def test_large_payoffs_near_zero_risk(self):
        """Payoffs near 1e9 whose weighted VaR is near 0: the two forms differ
        by round-off of the payoffs' size, which the slack scales with.
        Scaling by a power of two commutes with rounding, so each scaled
        payoff gives the scaled values exactly, and never raises."""
        space = ScenarioSpace(np.full(3, 0.3333333333333333))
        filtration = Filtration((((0, 1, 2),), ((0,), (1,), (2,))))
        X = np.asarray([1226114709.9920166, 734933642.6742454, -898660665.1135026])
        mu = DistortionMeasure(np.asarray([0.5, 1.0]), np.asarray([0.5, 0.5]))
        gen = np.random.default_rng(61)
        cases = [(space, filtration, X)]
        for _ in range(30):
            # random trees, payoffs up to 1e11 shifted by cash to a root risk of 0
            sp, f = random_tree(gen)
            Z = gen.normal(0.0, 1.0, sp.n_atoms) * 10.0 ** gen.uniform(0.0, 11.0)
            rho = choquet(sp, f, RandomVariable(Z), 0, psi_from_measure(mu)).cell_values[0]
            cases.append((sp, f, Z + rho))
        for sp, f, Z in cases:
            for t in range(f.horizon + 1):
                base = dwvar(sp, f, RandomVariable(Z), t, mu).cell_values
                for k in (-40, -7, 13, 40):
                    got = dwvar(sp, f, RandomVariable(2.0**k * Z), t, mu).cell_values
                    assert got.tobytes() == (2.0**k * base).tobytes()
        assert dwvar(space, filtration, RandomVariable(X), 0, mu).cell_values.tolist() == [0.0]


class TestMinIid:
    def test_single_copy_is_negated_mean(self):
        space, filtration, X = three_point()
        assert min_iid_rho(space, filtration, X, 0, 1).cell_values[0] == 0.0

    def test_two_copies_enumerated(self):
        space = ScenarioSpace(np.asarray([0.5, 0.5]))
        filtration = Filtration((((0, 1),), ((0,), (1,))))
        X = RandomVariable(np.asarray([3.0, -1.0]))
        out = min_iid_rho(space, filtration, X, 0, 2).cell_values[0]
        assert abs(out - 0.0) <= 1e-12

    def test_matches_distortion_evaluator(self):
        gen = np.random.default_rng(41)
        for _ in range(50):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            for k in range(1, 6):
                a = min_iid_rho(space, filtration, X, 1, k).cell_values
                b = choquet(space, filtration, X, 1, MinVar(k - 1)).cell_values
                assert np.max(np.abs(a - b)) <= 1e-12

    def test_integral_float_copy_count(self):
        space, filtration, X = three_point()
        want = min_iid_rho(space, filtration, X, 0, 3).cell_values.tobytes()
        for k in (3.0, np.float64(3.0), np.int64(3)):
            assert min_iid_rho(space, filtration, X, 0, k).cell_values.tobytes() == want

    @pytest.mark.parametrize("k", [2.99, 0.5, 1.5, math.nan, math.inf, -math.inf])
    def test_non_integral_copy_count_rejected(self, k):
        space, filtration, X = three_point()
        with pytest.raises(DomainError, match="^copy count must be a positive integer$"):
            min_iid_rho(space, filtration, X, 0, k)

    def test_no_copies_rejected(self):
        space, filtration, X = three_point()
        with pytest.raises(DomainError, match="^copy count must be a positive integer$"):
            min_iid_rho(space, filtration, X, 0, 0)


class TestDcrmAxioms:
    def test_axiom_suite_small(self):
        gen = np.random.default_rng(43)
        for _ in range(50):
            space, filtration = random_tree(gen)
            n = space.n_atoms
            X = random_payoff(gen, n)
            Y = random_payoff(gen, n)
            psi = random_regular_distortion(gen)
            t = min(1, filtration.horizon)
            cell_of = filtration.cell_of_atom(t)
            rx = choquet(space, filtration, X, t, psi).cell_values
            ry = choquet(space, filtration, Y, t, psi).cell_values

            zero = choquet(space, filtration, RandomVariable(np.zeros(n)), t, psi)
            assert np.max(np.abs(zero.cell_values)) == 0.0

            m = 1.0 + cell_of.astype(float)
            cash = choquet(
                space, filtration, RandomVariable(X.values + m), t, psi
            ).cell_values
            assert np.max(np.abs(cash - (rx - (1.0 + np.arange(len(rx)))))) <= 1e-10

            dominated = choquet(
                space, filtration, RandomVariable(X.values - 1.0), t, psi
            ).cell_values
            assert np.all(dominated >= rx - 1e-12)

            gamma = 2.0 + cell_of.astype(float)
            hom = choquet(
                space, filtration, RandomVariable(gamma * X.values), t, psi
            ).cell_values
            assert np.max(np.abs(hom - (2.0 + np.arange(len(rx))) * rx)) <= 1e-10

            sub = choquet(
                space, filtration, RandomVariable(X.values + Y.values), t, psi
            ).cell_values
            assert np.all(sub <= rx + ry + 1e-10)

            masked = choquet(
                space, filtration,
                RandomVariable(np.where(cell_of == 0, X.values, 0.0)), t, psi,
            ).cell_values
            assert abs(masked[0] - rx[0]) <= 1e-12
