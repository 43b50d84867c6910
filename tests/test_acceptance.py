"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Each test builds its verdict line, registers it for the terminal summary
(where it is echoed uncaptured after the run), and asserts the criterion at
its stated tolerance.
"""

import math

import conftest

import numpy as np
from scipy.special import betainc

from distrisk import (
    Identity,
    MaxMinVar,
    MaxVar,
    MinMaxVar,
    MinVar,
    ProportionalHazard,
    RandomVariable,
    ScenarioSpace,
    Filtration,
    avar,
    avar_robust,
    build_nonmiddle_example,
    build_weakacc_continuous,
    build_weakacc_pprime,
    check_submartingale,
    check_super_strict_failure,
    check_weak_acceptance,
    choquet,
    conditional_expectation,
    dcai,
    dirac,
    dwvar,
    measure_from_distortion,
    middle_rejection_probe,
    min_iid_rho,
    minvar_family,
    pprime_distortion,
    pprime_measure,
    psi_from_measure,
)
from distrisk.consistency import is_pprime
from distrisk.space import conditional_distribution

from bruteforce import distribution_choquet, distribution_dwvar
from conftest import (
    random_measure,
    random_payoff,
    random_regular_distortion,
    random_tree,
)
from premises import check_nonweak1_inequality

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:2d} [{title}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_binomial_counterexample():
    ce = build_nonmiddle_example()
    rho1 = choquet(ce.space, ce.filtration, ce.X, 1, ce.psi).cell_values
    rho0 = choquet(ce.space, ce.filtration, ce.X, 0, ce.psi).cell_values[0]
    probe = middle_rejection_probe(ce.space, ce.filtration, ce.X, ce.psi, 0, 1)
    rho0_y = probe.margins[0] - rho0  # margin = rho0(X) - rho0(Y)
    errs = [
        abs(rho1[0] - (SQRT2 - 2.0)),
        abs(rho1[1] - SQRT2),
        abs(rho0 - (SQRT3 - 1.0)),
        abs(-rho0_y - (2.0 * SQRT2 - 2.0)),
    ]
    ok = max(errs) <= 1e-12 and probe.verdict == "violated"
    verdict(1, "binomial tree values + middle-rejection failure", ok,
            f"max err {max(errs):.2e}")


def test_criterion_02_four_atom_counterexample():
    worst = 0.0
    ok = True
    for a in (2.0, 3.0, 5.0):
        ce = build_weakacc_pprime(a)
        rho1 = choquet(ce.space, ce.filtration, ce.X, 1, ce.psi).cell_values
        rho0 = choquet(ce.space, ce.filtration, ce.X, 0, ce.psi).cell_values[0]
        worst = max(worst, float(np.max(np.abs(rho1))),
                    abs(rho0 - (a - 1.0) / (4.0 * a)))
        rep = check_weak_acceptance(ce.space, ce.filtration, ce.X, ce.psi, 0, 1)
        ok = ok and rep.verdict == "violated"
    ok = ok and worst <= 1e-12
    verdict(2, "four-atom trees a=2,3,5 + weak-acceptance failure", ok,
            f"max err {worst:.2e}")


def test_criterion_03_uniform_discretization():
    mu = dirac(0.5)
    ce = build_weakacc_continuous(mu, 10_000)
    vals = ce.X.values
    h = (vals[-1] - vals[0]) / (len(vals) - 1)
    corners = np.asarray([vals[0] - h / 2, vals[-1] + h / 2])
    corner_err = float(np.max(np.abs(corners - [-7.0 / 12.0, 17.0 / 12.0])))

    def max_err(n):
        c = build_weakacc_continuous(mu, n)
        g0 = choquet(c.space, c.filtration, c.X, 0, c.psi).cell_values[0]
        g1 = choquet(c.space, c.filtration, c.X, 1, c.psi).cell_values
        return max(abs(g0 - 1.0 / 12.0), float(np.max(np.abs(g1))))

    e1, e2 = max_err(10_000), max_err(20_000)
    ok = corner_err <= 1e-9 and e1 <= 5e-4 and e2 <= e1 / 2.0 * 1.5
    verdict(3, "uniform-payoff pipeline, N=1e4 and halving", ok,
            f"corners {corner_err:.1e}, err {e1:.2e} -> {e2:.2e}")


def test_criterion_04_mixture_equals_generated_distortion(fixture_pool):
    gen = np.random.default_rng(101)
    worst = 0.0
    for space, filtration, X in fixture_pool:
        t = min(1, filtration.horizon)
        laws = [
            conditional_distribution(space, filtration, X, t, k)
            for k in range(filtration.n_cells(t))
        ]
        for _ in range(20):
            mu = random_measure(gen)
            psi = psi_from_measure(mu)
            for law in laws:
                gap = abs(
                    distribution_dwvar(law, mu) - distribution_choquet(law, psi)
                )
                worst = max(worst, gap)
    ok = worst <= 1e-10
    verdict(4, "tail-mean mixture equals generated-distortion risk", ok,
            f"max gap {worst:.2e}")


def test_criterion_05_avar_dual_agreement(fixture_pool):
    worst = 0.0
    levels = np.arange(0.1, 0.95, 0.1)
    for space, filtration, X in fixture_pool:
        t = min(1, filtration.horizon)
        for alpha in levels:
            a = avar(space, filtration, X, t, alpha).cell_values
            b = avar_robust(space, filtration, X, t, alpha).cell_values
            worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-12
    verdict(5, "tail mean: step integral vs density maximizer", ok,
            f"max gap {worst:.2e}")


def test_criterion_06_axiom_suite(fixture_pool):
    gen = np.random.default_rng(103)
    kinds = [MinVar(1.5), MaxVar(2.0), MaxMinVar(1.0), MinMaxVar(0.7),
             ProportionalHazard(0.5)]
    failures = []
    for i, (space, filtration, X) in enumerate(fixture_pool):
        psi = kinds[i % len(kinds)]
        n = space.n_atoms
        t = min(1, filtration.horizon)
        cell_of = filtration.cell_of_atom(t)
        k_cells = filtration.n_cells(t)
        rx = choquet(space, filtration, X, t, psi).cell_values

        zero = choquet(space, filtration, RandomVariable(np.zeros(n)), t, psi)
        if np.max(np.abs(zero.cell_values)) > 0.0:
            failures.append((i, "normalization"))
        m = np.round(gen.normal(0, 2, size=k_cells), 3)
        cash = choquet(
            space, filtration, RandomVariable(X.values + m[cell_of]), t, psi
        ).cell_values
        if np.max(np.abs(cash - (rx - m))) > 1e-10:
            failures.append((i, "cash additivity"))
        bigger = RandomVariable(X.values + np.abs(np.round(gen.normal(0, 1, n), 3)))
        rb = choquet(space, filtration, bigger, t, psi).cell_values
        if np.any(rb > rx + 1e-10):
            failures.append((i, "monotonicity"))
        g = np.round(np.abs(gen.normal(1, 0.5, size=k_cells)), 3)
        hom = choquet(
            space, filtration, RandomVariable(g[cell_of] * X.values), t, psi
        ).cell_values
        if np.max(np.abs(hom - g * rx)) > 1e-10:
            failures.append((i, "positive homogeneity"))
        Y = random_payoff(gen, n)
        ry = choquet(space, filtration, Y, t, psi).cell_values
        rsum = choquet(
            space, filtration, RandomVariable(X.values + Y.values), t, psi
        ).cell_values
        if np.any(rsum > rx + ry + 1e-10):
            failures.append((i, "subadditivity"))
        masked = choquet(
            space, filtration,
            RandomVariable(np.where(cell_of == 0, X.values, 0.0)), t, psi,
        ).cell_values
        if abs(masked[0] - rx[0]) > 1e-12:
            failures.append((i, "locality"))
        # law invariance: permute atoms inside the first cell
        idx = np.where(cell_of == 0)[0]
        perm = X.values.copy()
        perm[idx] = perm[idx[::-1]]
        if not np.all(
            np.asarray(space.probabilities[idx])
            == np.asarray(space.probabilities[idx[::-1]])
        ):
            pass  # unequal probabilities: permuting changes the law, skip
        else:
            rp = choquet(space, filtration, RandomVariable(perm), t, psi).cell_values
            if rp[0] != rx[0]:
                failures.append((i, "law invariance"))
    ok = not failures
    verdict(6, "coherence axiom sweep over 500 fixtures x 5 kinds", ok,
            f"{len(failures)} failures")


def test_criterion_07_submartingale_and_strict_gap(fixture_pool):
    gen = np.random.default_rng(107)
    kinds = [MinVar(2.0), MaxVar(1.0), MaxMinVar(0.5), MinMaxVar(2.0),
             ProportionalHazard(0.6)]
    violations = 0
    total = 0
    strict_ok = True
    for rep_i in range(2):  # 2 passes over 500 fixtures = 1000 sweeps
        for i, (space, filtration, X) in enumerate(fixture_pool):
            psi = kinds[(i + rep_i) % len(kinds)]
            rep = check_submartingale(
                space, filtration, X, psi, 0, filtration.horizon
            )
            total += 1
            if not rep.holds:
                violations += 1
    for i in range(100):
        space, filtration, X = fixture_pool[i]
        psi = kinds[i % len(kinds)]
        rep = check_super_strict_failure(space, filtration, X, psi, 0)
        if not rep.holds:
            strict_ok = False
    ok = violations == 0 and strict_ok
    verdict(7, "sub-martingale sweep + strict super-martingale gap", ok,
            f"{violations}/{total} violations")


def test_criterion_08_iid_minimum(fixture_pool):
    worst = 0.0
    for space, filtration, X in fixture_pool[:100]:
        t = min(1, filtration.horizon)
        for k in range(1, 6):
            a = min_iid_rho(space, filtration, X, t, k).cell_values
            b = choquet(space, filtration, X, t, MinVar(k - 1)).cell_values
            worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-12
    verdict(8, "iid-minimum construction matches its distortion", ok,
            f"max gap {worst:.2e}")


def test_criterion_09_beta_correspondence():
    worst = 0.0
    atom_exact = True
    grid = np.arange(1e-3, 1.0, 1e-3)
    for x in range(1, 6):
        desc = measure_from_distortion(MinVar(x))
        got = np.asarray([desc.cdf(y) for y in grid])
        worst = max(worst, float(np.max(np.abs(got - betainc(2, x, grid)))))
        if measure_from_distortion(MaxVar(x)).atom_at_one != 1.0 / (x + 1):
            atom_exact = False
    ok = worst <= 1e-12 and atom_exact
    verdict(9, "induced measures: Beta(2,x) CDF and atom at 1", ok,
            f"max CDF err {worst:.2e}")


def test_criterion_10_acceptability_index(fixture_pool):
    space = ScenarioSpace(np.asarray([0.5, 0.5]))
    filtration = Filtration((((0, 1),), ((0,), (1,))))
    family = minvar_family()
    base = dcai(space, filtration, RandomVariable(np.asarray([3.0, -1.0])), 0, family)
    pos = dcai(space, filtration, RandomVariable(np.full(2, 1.0)), 0, family)
    neg = dcai(space, filtration, RandomVariable(np.full(2, -1.0)), 0, family)
    ok = (
        abs(base.cell_values[0] - 1.0) <= 1e-6
        and pos.cell_values[0] == math.inf
        and neg.cell_values[0] == 0.0
    )
    gen = np.random.default_rng(109)
    suite_ok = True
    for space_i, filtration_i, X in fixture_pool[:200]:
        t = min(1, filtration_i.horizon)
        a = dcai(space_i, filtration_i, X, t, family).cell_values
        scale = float(gen.uniform(0.5, 5.0))
        a_s = dcai(
            space_i, filtration_i, RandomVariable(scale * X.values), t, family
        ).cell_values
        for u, v in zip(a, a_s):
            if math.isinf(u) != math.isinf(v):
                suite_ok = False
            elif not math.isinf(u) and abs(u - v) > 1e-6:
                suite_ok = False
        up = RandomVariable(X.values + np.abs(np.round(gen.normal(0, 1, X.values.size), 3)))
        a_up = dcai(space_i, filtration_i, up, t, family).cell_values
        for u, v in zip(a, a_up):
            if math.isinf(u) and not math.isinf(v):
                suite_ok = False
            elif not math.isinf(u) and not math.isinf(v) and v < u - 1e-6:
                suite_ok = False
    ok = ok and suite_ok
    verdict(10, "acceptability index: pin value, constants, axioms", ok)


def test_criterion_11_dichotomy():
    worst_boundary = 0.0
    for a in (1.0, 2.0, 3.0, 5.0):
        rep = check_nonweak1_inequality(pprime_measure(a))
        worst_boundary = max(worst_boundary, abs(rep.value))
    gen = np.random.default_rng(113)
    off_ok = True
    count = 0
    while count < 50:
        mu = random_measure(gen)
        if is_pprime(mu):
            continue
        rep = check_nonweak1_inequality(mu)
        if not rep.value < -1e-12:
            off_ok = False
        count += 1
    ok = worst_boundary <= 1e-12 and off_ok
    verdict(11, "deficit zero on boundary family, negative off it", ok,
            f"boundary max {worst_boundary:.2e}")


def test_criterion_12_boundary_distortion_identity(fixture_pool):
    worst = 0.0
    params = (2.0, 3.0, 5.0)
    for i, (space, filtration, X) in enumerate(fixture_pool[:200]):
        a = params[i % len(params)]
        t = min(1, filtration.horizon)
        left = choquet(space, filtration, X, t, pprime_distortion(a)).cell_values
        tail = avar(space, filtration, X, t, 1.0 / (a + 1.0)).cell_values
        mean = conditional_expectation(space, filtration, X, t).cell_values
        right = (a - 1.0) / a * tail - mean / a
        worst = max(worst, float(np.max(np.abs(left - right))))
    ok = worst <= 1e-12
    verdict(12, "boundary distortion = tail-mean/mean combination", ok,
            f"max gap {worst:.2e}")
