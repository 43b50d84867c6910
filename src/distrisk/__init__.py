"""Distortion-generated risk measures and acceptability indices on finite
scenario trees."""

from .space import (
    AdaptedValue,
    DiscreteDistribution,
    DomainError,
    Filtration,
    LevelLaws,
    RandomVariable,
    ScenarioSpace,
    conditional_distribution,
    conditional_expectation,
    lift,
    validate,
)
from .distortion import (
    CheckReport,
    Distortion,
    DistortionFamily,
    DistortionMeasure,
    Identity,
    MaxMinVar,
    MaxVar,
    MinMaxVar,
    MinVar,
    PiecewiseLinear,
    ProportionalHazard,
    check_family_monotone,
    dirac,
    m_mu,
    maxminvar_family,
    maxvar_family,
    measure_from_distortion,
    minmaxvar_family,
    minvar_family,
    pprime_distortion,
    pprime_measure,
    psi_from_measure,
)
from .risk import (
    avar,
    avar_robust,
    choquet,
    dwvar,
    min_iid_rho,
    quantile_lower,
    quantile_upper,
    var,
)
from .acceptability import dcai
from .consistency import (
    ConsistencyReport,
    Counterexample,
    build_nonmiddle_example,
    build_weakacc_continuous,
    build_weakacc_pprime,
    check_submartingale,
    check_super_strict_failure,
    check_weak_acceptance,
    check_weak_rejection_dcai,
    middle_rejection_probe,
)
from .treedoc import ParseError, TreeDocument, document_from_text, document_to_text

__version__ = "0.1.0"
