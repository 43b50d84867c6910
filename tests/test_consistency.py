"""Time-consistency checkers and the bundled counterexamples."""

import math

import numpy as np
import pytest

from distrisk import (
    Counterexample,
    DomainError,
    Filtration,
    Identity,
    MinVar,
    ProportionalHazard,
    RandomVariable,
    ScenarioSpace,
    build_nonmiddle_example,
    build_weakacc_continuous,
    build_weakacc_pprime,
    check_nonweak1_inequality,
    check_submartingale,
    check_super_strict_failure,
    check_weak_acceptance,
    check_weak_rejection_dcai,
    choquet,
    dirac,
    middle_rejection_probe,
    minvar_family,
    pprime_measure,
)
from distrisk import acceptability
from distrisk.consistency import is_pprime

from conftest import random_measure, random_payoff, random_regular_distortion, random_tree

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestSubmartingale:
    def test_identity_margin_zero(self):
        ce = build_nonmiddle_example()
        rep = check_submartingale(ce.space, ce.filtration, ce.X, Identity(), 0, 1)
        assert rep.holds
        assert abs(rep.margins[0]) <= 1e-12

    def test_nonmiddle_margin_positive(self):
        ce = build_nonmiddle_example()
        rep = check_submartingale(ce.space, ce.filtration, ce.X, ce.psi, 0, 1)
        assert rep.holds
        assert abs(rep.margins[0] - ((SQRT3 - 1.0) - (SQRT2 - 1.0))) <= 1e-12

    def test_random_sweep_holds(self):
        gen = np.random.default_rng(59)
        for _ in range(100):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            psi = random_regular_distortion(gen)
            for t in range(filtration.horizon):
                rep = check_submartingale(
                    space, filtration, X, psi, t, filtration.horizon
                )
                assert rep.holds, rep

    def test_bad_times_rejected(self):
        ce = build_nonmiddle_example()
        with pytest.raises(DomainError):
            check_submartingale(ce.space, ce.filtration, ce.X, ce.psi, 2, 1)


class TestSuperStrictFailure:
    def test_nonmiddle_margin(self):
        ce = build_nonmiddle_example()
        rep = check_super_strict_failure(ce.space, ce.filtration, ce.X, ce.psi, 0)
        assert rep.holds
        assert abs(rep.margins[0] - (SQRT3 - 1.0)) <= 1e-12

    def test_constant_payoff_zero_margin(self):
        ce = build_nonmiddle_example()
        X = RandomVariable(np.full(4, 2.5))
        rep = check_super_strict_failure(ce.space, ce.filtration, X, ce.psi, 0)
        assert rep.holds
        assert rep.margins[0] == 0.0

    def test_identity_excluded(self):
        ce = build_nonmiddle_example()
        with pytest.raises(DomainError):
            check_super_strict_failure(ce.space, ce.filtration, ce.X, Identity(), 0)

    def test_random_sweep(self):
        gen = np.random.default_rng(61)
        for _ in range(50):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            rep = check_super_strict_failure(space, filtration, X, MinVar(2), 0)
            assert rep.holds, rep


class TestWeakAcceptance:
    def test_pprime_fixture_violated(self):
        ce = build_weakacc_pprime(2.0)
        rep = check_weak_acceptance(ce.space, ce.filtration, ce.X, ce.psi, 0, 1)
        assert not rep.holds
        assert rep.witness["cell"] == 0

    def test_identity_never_violated(self):
        gen = np.random.default_rng(67)
        for _ in range(50):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            rep = check_weak_acceptance(
                space, filtration, X, Identity(), 0, filtration.horizon
            )
            assert rep.holds


class TestDcaiWeakRejection:
    def test_pprime_fixture_holds(self):
        ce = build_weakacc_pprime(2.0)
        rep = check_weak_rejection_dcai(
            ce.space, ce.filtration, ce.X, minvar_family(), 0, 1
        )
        assert rep.holds

    def test_random_fixtures_hold(self):
        gen = np.random.default_rng(71)
        for _ in range(20):
            space, filtration = random_tree(gen, max_atoms=8)
            X = random_payoff(gen, space.n_atoms)
            rep = check_weak_rejection_dcai(
                space, filtration, X, minvar_family(), 0, filtration.horizon
            )
            assert rep.holds, rep

    def test_family_probed_once(self, monkeypatch):
        # once per dcai call: the index at t, then the index at s
        probe = acceptability.check_family_monotone
        probed = []

        def counting(family):
            probed.append(family)
            return probe(family)

        monkeypatch.setattr(acceptability, "check_family_monotone", counting)
        ce = build_weakacc_pprime(2.0)
        family = minvar_family()
        assert check_weak_rejection_dcai(ce.space, ce.filtration, ce.X, family, 0, 1).holds
        assert probed == [family, family]


class TestMiddleRejection:
    def test_nonmiddle_violated(self):
        ce = build_nonmiddle_example()
        rep = middle_rejection_probe(ce.space, ce.filtration, ce.X, ce.psi, 0, 1)
        assert not rep.holds
        expected_margin = (SQRT3 - 1.0) - (2.0 * SQRT2 - 2.0)
        assert abs(rep.margins[0] - expected_margin) <= 1e-12

    def test_identity_margin_zero(self):
        ce = build_nonmiddle_example()
        rep = middle_rejection_probe(ce.space, ce.filtration, ce.X, Identity(), 0, 1)
        assert rep.holds
        assert abs(rep.margins[0]) <= 1e-12

    def test_minvar_probe_reports_sign(self):
        ce = build_nonmiddle_example()
        rep = middle_rejection_probe(ce.space, ce.filtration, ce.X, MinVar(1), 0, 1)
        assert rep.verdict in ("holds", "violated")
        assert len(rep.margins) == 1


class TestBuilders:
    def test_nonmiddle_values(self):
        ce = build_nonmiddle_example()
        assert isinstance(ce.psi, ProportionalHazard)
        rho1 = choquet(ce.space, ce.filtration, ce.X, 1, ce.psi).cell_values
        assert abs(rho1[0] - (SQRT2 - 2.0)) <= 1e-12
        assert abs(rho1[1] - SQRT2) <= 1e-12

    def test_pprime_family_values(self):
        for a in (2.0, 3.0, 5.0):
            ce = build_weakacc_pprime(a)
            rho1 = choquet(ce.space, ce.filtration, ce.X, 1, ce.psi).cell_values
            rho0 = choquet(ce.space, ce.filtration, ce.X, 0, ce.psi).cell_values
            assert np.max(np.abs(rho1)) <= 1e-12
            assert abs(rho0[0] - (a - 1.0) / (4.0 * a)) <= 1e-12

    def test_pprime_a2_concrete_tree(self):
        ce = build_weakacc_pprime(2.0)
        assert list(ce.X.values) == [2.0, 1.0, -2.0, -4.0]
        assert np.allclose(ce.space.probabilities, [5 / 12, 5 / 12, 1 / 12, 1 / 12])

    @pytest.mark.parametrize("expected, message", [
        ({"rho_0": [0.0, 0.0]}, "tiny: rho_0 shape mismatch"),
        ({"rho_0": [0.25]}, "tiny: rho_0 off by 0.25 (> 0.125)"),
    ], ids=["shape", "off-by"])
    def test_self_check_failures_named(self, expected, message):
        # one atom paying 0: its only risk is 0, one cell at time 0
        tree = (ScenarioSpace([1.0]), Filtration([[[0]]]), RandomVariable([0.0]), Identity())
        with pytest.raises(AssertionError) as err:
            Counterexample("tiny", *tree, expected, 0.125)
        assert str(err.value) == message

    def test_pprime_boundary_rejected(self):
        with pytest.raises(DomainError):
            build_weakacc_pprime(1.0)

    def test_continuous_pipeline_dirac_half(self):
        ce = build_weakacc_continuous(dirac(0.5), 2000)
        vals = ce.X.values
        a, d = vals[0], vals[-1]
        h = (d - a) / (len(vals) - 1)
        assert abs((a - h / 2) - (-7.0 / 12.0)) <= 1e-9
        assert abs((d + h / 2) - (17.0 / 12.0)) <= 1e-9
        rho0 = choquet(ce.space, ce.filtration, ce.X, 0, ce.psi).cell_values[0]
        assert abs(rho0 - 1.0 / 12.0) <= 1e-2

    def test_continuous_rejects_boundary_measure(self):
        with pytest.raises(DomainError):
            build_weakacc_continuous(pprime_measure(2.0), 1000)

    def test_continuous_weak_acceptance_search(self):
        ce = build_weakacc_continuous(dirac(0.5), 4000)
        rho1 = choquet(ce.space, ce.filtration, ce.X, 1, ce.psi).cell_values
        rho0 = choquet(ce.space, ce.filtration, ce.X, 0, ce.psi).cell_values[0]
        # discrete time-1 risks hug zero while time-0 risk stays near 1/12
        assert np.max(np.abs(rho1)) <= 1e-3
        assert rho0 > 0.05


class TestDichotomy:
    def test_dirac_one(self):
        rep = check_nonweak1_inequality(dirac(1.0))
        assert rep.on_boundary
        assert rep.value == 0.0
        assert rep.verdict_ok

    def test_boundary_family_exact_zero(self):
        for a in (1.0, 2.0, 3.0, 5.0):
            rep = check_nonweak1_inequality(pprime_measure(a))
            assert rep.on_boundary
            assert abs(rep.value) <= 1e-12
            assert rep.verdict_ok

    def test_dirac_half_strictly_negative(self):
        rep = check_nonweak1_inequality(dirac(0.5))
        assert not rep.on_boundary
        assert abs(rep.value - (-0.25)) <= 1e-15
        assert rep.verdict_ok

    def test_random_measures_negative(self):
        gen = np.random.default_rng(73)
        count = 0
        while count < 50:
            mu = random_measure(gen)
            if is_pprime(mu):
                continue
            rep = check_nonweak1_inequality(mu)
            assert rep.value < -1e-12, mu
            count += 1
