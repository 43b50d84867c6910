"""Distortion evaluation, the measure correspondence, and regularity checks."""

import math

import numpy as np
import pytest
from scipy.special import betainc

from distrisk import (
    Distortion,
    DistortionFamily,
    DistortionMeasure,
    DomainError,
    Identity,
    MaxMinVar,
    MaxVar,
    MinMaxVar,
    MinVar,
    ProportionalHazard,
    check_family_monotone,
    check_regular,
    dirac,
    m_mu,
    maxvar_family,
    measure_from_distortion,
    minvar_family,
    pprime_measure,
    psi_from_measure,
)
from distrisk.distortion import FAMILY_NOT_INCREASING, MeasureDescriptor, PiecewiseLinear

from conftest import random_measure


class TestEvaluation:
    def test_minvar_closed_form(self):
        assert MinVar(1)(0.5) == 0.75

    def test_maxvar_closed_form(self):
        assert MaxVar(1)(0.25) == 0.5

    def test_minmaxvar_collapses_at_zero(self):
        psi = MinMaxVar(0)
        y = np.linspace(0, 1, 11)
        assert np.allclose(psi(y), y, atol=0)

    def test_maxminvar_collapses_at_zero(self):
        psi = MaxMinVar(0)
        y = np.linspace(0, 1, 11)
        assert np.allclose(psi(y), y, atol=0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            MinVar(1)(1.5)
        with pytest.raises(DomainError):
            ProportionalHazard(0.0)
        with pytest.raises(DomainError):
            MinVar(-1)

    @pytest.mark.parametrize("psi", [
        Identity(), ProportionalHazard(0.5), MinVar(1), MaxVar(1), MaxMinVar(1), MinMaxVar(1),
        psi_from_measure(dirac(0.5)),
    ], ids=lambda psi: type(psi).__name__)
    @pytest.mark.parametrize("y", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
    def test_nan_argument_rejected(self, psi, y):
        with pytest.raises(DomainError, match=r"^argument must lie in \[0, 1\]$"):
            psi(y)
        with pytest.raises(DomainError, match=r"^right derivative needs z in \[0, 1\)$"):
            psi.right_derivative(y)

    @pytest.mark.parametrize("kind", [MinVar, MaxVar, MaxMinVar, MinMaxVar])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, kind, x):
        with pytest.raises(DomainError, match="finite"):
            kind(x)

    @pytest.mark.parametrize("support, weights", [
        ([math.nan], [1.0]),
        ([0.5, 1.0], [math.nan, 0.5]),
        ([0.5], [math.inf]),
    ])
    def test_non_finite_measure_rejected(self, support, weights):
        with pytest.raises(DomainError, match="finite"):
            DistortionMeasure(np.asarray(support), np.asarray(weights))

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_boundary_parameter_rejected(self, a):
        with pytest.raises(DomainError, match="finite"):
            pprime_measure(a)

    @pytest.mark.parametrize("knots_y, knots_v", [
        ([0.0, math.nan, 1.0], [0.0, 0.5, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, math.nan, 1.0]),
    ])
    def test_nan_knots_rejected(self, knots_y, knots_v):
        with pytest.raises(DomainError, match="knots must be finite"):
            PiecewiseLinear(knots_y, knots_v)

    @pytest.mark.parametrize("knots_y, knots_v, message", [
        ([0.0, 1.0], [0.0, 0.5, 1.0], "need matching knot vectors with at least two points"),
        ([1.0], [1.0], "need matching knot vectors with at least two points"),
        ([[0.0, 1.0]], [[0.0, 1.0]], "need matching knot vectors with at least two points"),
        ([0.0, 0.5], [0.0, 1.0], "knot abscissae must start at 0 and end at 1"),
        ([0.1, 1.0], [0.0, 1.0], "knot abscissae must start at 0 and end at 1"),
        ([0.0, 0.6, 0.6, 1.0], [0.0, 0.5, 0.7, 1.0], "knot abscissae must be strictly increasing"),
        ([0.0, 0.5, 1.0], [0.0, 0.5, 0.9], "a distortion must map 0 to 0 and 1 to 1"),
        ([0.0, 0.5, 1.0], [0.1, 0.5, 1.0], "a distortion must map 0 to 0 and 1 to 1"),
        ([0.0, 0.5, 1.0], [0.0, 1.2, 1.0], "a distortion must be non-decreasing"),
    ], ids=["lengths", "one-knot", "matrix", "end", "start", "repeated-knot", "at-one",
            "at-zero", "decreasing"])
    def test_malformed_knots_rejected(self, knots_y, knots_v, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            PiecewiseLinear(knots_y, knots_v)


class TestRightDerivative:
    def test_identity(self):
        assert Identity().right_derivative(0.37) == 1.0

    def test_dirac_half_measure_slopes(self):
        psi = psi_from_measure(dirac(0.5))
        assert psi.right_derivative(0.3) == 2.0
        assert psi.right_derivative(0.7) == 0.0

    def test_minvar_at_zero(self):
        assert MinVar(1).right_derivative(0.0) == 2.0

    def test_infinite_at_zero_reported(self):
        assert MaxVar(1).right_derivative(0.0) == math.inf
        assert ProportionalHazard(0.5).right_derivative(0.0) == math.inf

    def test_rejects_one(self):
        with pytest.raises(DomainError):
            MinVar(1).right_derivative(1.0)


class TestPsiFromMeasure:
    def test_dirac_one_is_identity(self):
        psi = psi_from_measure(dirac(1.0))
        assert psi.is_identity()

    def test_dirac_half_is_clipped_double(self):
        psi = psi_from_measure(dirac(0.5))
        y = np.linspace(0, 1, 101)
        assert np.allclose(psi(y), np.minimum(2 * y, 1.0), atol=1e-15)

    def test_two_atom_boundary_measure(self):
        psi = psi_from_measure(pprime_measure(2))
        assert abs(psi(1.0 / 3.0) - 2.0 / 3.0) <= 1e-15
        assert psi.right_derivative(0.1) == 2.0
        assert psi.right_derivative(0.5) == 0.5

    def test_support_at_zero_rejected(self):
        with pytest.raises(DomainError):
            DistortionMeasure(np.asarray([0.0, 1.0]), np.asarray([0.5, 0.5]))


class TestMeasureFromDistortion:
    def test_identity_gives_dirac_one(self):
        mu = measure_from_distortion(Identity())
        assert list(mu.support) == [1.0]
        assert list(mu.weights) == [1.0]

    def test_minvar_is_beta(self):
        desc = measure_from_distortion(MinVar(1))
        assert isinstance(desc, MeasureDescriptor)
        y = np.linspace(0.01, 0.99, 50)
        for yi in y:
            assert abs(desc.cdf(yi) - yi**2) <= 1e-12
        assert desc.atom_at_one == 0.0

    def test_minvar_matches_beta_cdf_family(self):
        for x in range(1, 6):
            desc = measure_from_distortion(MinVar(x))
            grid = np.arange(1e-3, 1.0, 1e-3)
            ref = betainc(2, x, grid)
            got = np.asarray([desc.cdf(y) for y in grid])
            assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("y, want", [(-0.5, 0.0), (0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    def test_cdf_clamped_outside_the_open_unit_interval(self, y, want):
        assert measure_from_distortion(MinVar(1)).cdf(y) == want

    def test_maxvar_atom_at_one(self):
        for x in (1, 2, 5):
            desc = measure_from_distortion(MaxVar(x))
            assert desc.atom_at_one == 1.0 / (x + 1)

    def test_non_concave_rejected(self):
        y = np.linspace(0, 1, 21)
        convex = PiecewiseLinear(y, y**2)
        with pytest.raises(DomainError):
            measure_from_distortion(convex)

    def test_round_trip_measure_exact(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            mu = random_measure(gen)
            back = measure_from_distortion(psi_from_measure(mu))
            assert back.support.size == mu.support.size
            assert np.max(np.abs(back.support - mu.support)) <= 1e-12
            assert np.max(np.abs(back.weights - mu.weights)) <= 1e-12

    def test_round_trip_distortion_on_grid(self):
        gen = np.random.default_rng(5)
        grid = np.linspace(0, 1, 201)
        for _ in range(50):
            mu = random_measure(gen)
            psi = psi_from_measure(mu)
            again = psi_from_measure(measure_from_distortion(psi))
            assert np.max(np.abs(psi(grid) - again(grid))) <= 1e-10


class TestMMu:
    def test_dirac_one(self):
        assert m_mu(dirac(1.0)) == 0.5

    def test_boundary_family(self):
        for a in (1.0, 2.0, 3.0, 5.0):
            assert abs(m_mu(pprime_measure(a)) - 1.0 / (a + 1.0)) <= 1e-15

    def test_dirac_half(self):
        assert m_mu(dirac(0.5)) == 0.25


class JumpAt(Distortion):
    """psi(y) = y up to the jump point, 0.5 + 0.5 y beyond it."""

    def __init__(self, at: float):
        self.at = at

    def _psi(self, y):
        return np.where(y > self.at, 0.5 + 0.5 * y, y)


class TestCheckRegular:
    @pytest.mark.parametrize("psi", [
        ProportionalHazard(0.3), MaxVar(2), MaxMinVar(2), MinMaxVar(2),
        PiecewiseLinear([0, 1e-4, 1], [0, 0.9, 1]),
    ], ids=lambda psi: psi.label)
    def test_steep_concave_maps_pass(self, psi):
        # each rises by more than 100 grid steps' worth on the first uniform
        # grid step from 0, yet is continuous there
        report = check_regular(psi)
        assert "continuous: grid jump exceeds proxy bound" not in report.failures
        assert report.passed, report.failures

    @pytest.mark.parametrize("at", [0.0, 5e-5])
    def test_jumps_fail_continuity(self, at):
        report = check_regular(JumpAt(at))
        assert "continuous: grid jump exceeds proxy bound" in report.failures

    def test_minvar_passes(self):
        assert check_regular(MinVar(2)).passed

    def test_convex_samples_fail_concavity(self):
        y = np.linspace(0, 1, 21)
        report = check_regular(PiecewiseLinear(y, y**2))
        # the convex map also fails domination, so the concavity message is
        # one failure among others
        assert "concave: midpoint test failed on grid" in report.failures

    def test_identity_skips_domination(self):
        report = check_regular(Identity())
        assert report.passed
        assert "domination: psi(y) <= y at an interior grid point" not in report.failures

    def test_strict_domination_on_regular_kinds(self):
        grid = np.linspace(0.01, 0.99, 99)
        for psi in (MinVar(1), MaxVar(2), MaxMinVar(0.5), MinMaxVar(3),
                    ProportionalHazard(0.7)):
            assert np.all(psi(grid) > grid)


class TestFamilies:
    def test_minvar_family_monotone(self):
        assert check_family_monotone(minvar_family()).passed

    def test_maxvar_family_monotone(self):
        assert check_family_monotone(maxvar_family()).passed

    def test_decreasing_reparametrization_fails(self):
        bad = DistortionFamily(lambda x: MinVar(1.0 / x), name="inverted")
        report = check_family_monotone(bad)
        assert FAMILY_NOT_INCREASING in report.failures
