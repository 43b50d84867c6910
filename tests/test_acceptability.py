"""Acceptability index tests: bracketing, conventions, and axioms."""

import math

import numpy as np
import pytest

from distrisk import (
    AdaptedValue,
    DistortionFamily,
    DomainError,
    Filtration,
    MinVar,
    RandomVariable,
    ScenarioSpace,
    check_family_monotone,
    check_weak_rejection_dcai,
    choquet,
    dcai,
    maxminvar_family,
    maxvar_family,
    minmaxvar_family,
    minvar_family,
)
from distrisk import acceptability
from distrisk.space import level_laws
from distrisk.tolerance import INDEX_TOL, X_MAX, X_MIN

import bruteforce
from conftest import random_payoff, random_tree
from premises import dcai_axiom_check


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

    def test_capped_bracket(self):
        # accepted at every doubling up to 2**49 * X_MIN, about 5.6e5, so the
        # bisection runs between that and the cap X_MAX; the risk
        # 2 psi_x(1e-6) - 1 crosses zero where (1 - 1e-6)**(x + 1) = 1/2
        space = ScenarioSpace(np.asarray([1e-6, 1.0 - 1e-6]))
        filtration = Filtration((((0, 1),), ((0,), (1,))))
        X = RandomVariable(np.asarray([-1.0, 1.0]))
        family = minvar_family()
        got = dcai(space, filtration, X, 0, family).cell_values[0]
        assert got == 693145.8339663653
        assert [got] == bruteforce.dcai(bruteforce.laws(space, filtration, X, 0), family)
        exact = math.log(2.0) / -math.log1p(-1e-6) - 1.0
        assert abs(got - exact) <= 1e-9 * exact

    def test_non_monotone_family_rejected(self):
        space, filtration = coin_tree()
        X = RandomVariable(np.asarray([3.0, -1.0]))
        bad = DistortionFamily(lambda x: MinVar(1.0 / x), name="inverted")
        with pytest.raises(DomainError):
            dcai(space, filtration, X, 0, bad)

    def test_right_discontinuous_family_still_indexed(self):
        # increasing in the index but left-continuous at the integers: the
        # probe flags right-continuity only, and only monotonicity rejects
        family = DistortionFamily(lambda x: MinVar(math.ceil(x)), name="ceil")
        assert check_family_monotone(family).failures == (
            "family fails the finite-offset right-continuity probe",
        )
        space = ScenarioSpace(np.full(4, 0.25))
        filtration = Filtration((
            ((0, 1, 2, 3),), ((0, 1), (2, 3)), ((0,), (1,), (2,), (3,)),
        ))
        X = RandomVariable(np.asarray([3.0, 1.0, 2.0, -1.0]))
        got = dcai(space, filtration, X, 1, family).cell_values
        assert got.tolist() == [math.inf, 0.0]
        assert got.tolist() == bruteforce.dcai(bruteforce.laws(space, filtration, X, 1), family)

    def test_bisection_sandwich(self):
        gen = np.random.default_rng(47)
        family = minvar_family()
        for _ in range(30):
            space, filtration = random_tree(gen)
            X = random_payoff(gen, space.n_atoms)
            out = dcai(space, filtration, X, 0, family)
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
            idx = dcai(space, filtration, shifted, 0, family).cell_values[0]
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
        assert np.array_equal(a.cell_values, b.cell_values)


FAMILIES = (minvar_family, maxvar_family, maxminvar_family, minmaxvar_family)
INTERIOR_CHECK_TREES = 5  # trees of the interior pool the weak-rejection and axiom checks run on


def exit_kind(index: float) -> str:
    return "floor" if index == 0.0 else "cap" if math.isinf(index) else "interior"


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f().name)
def test_interior_pool_matches_scalar_search(interior_pool, family):
    # every level of every tree, where most indices end in the bisection
    family = family()
    kinds = []
    for space, filtration, X in interior_pool:
        for t in range(filtration.horizon + 1):
            got = dcai(space, filtration, X, t, family).cell_values
            want = bruteforce.dcai_scalar(space, filtration, X, t, family)
            assert got.tobytes() == want.tobytes()
            kind = list(map(exit_kind, got))
            cell_laws = bruteforce.laws(space, filtration, X, t)
            assert kind == list(map(exit_kind, bruteforce.dcai(cell_laws, family)))
            kinds += kind
    assert kinds.count("interior") > len(kinds) / 2


K = acceptability._K  # the last doubling exponent inside the cap
BRACKET_SEED = 61
BRACKET_RANDOM_CELLS = 200


def bracket_tree(gen):
    """One tree whose level-1 cells reach every exit of the index search
    under the minvar family, then BRACKET_RANDOM_CELLS seeded random cells.

    The fixed cells are, in order: a floor (0), a cap (inf), the
    test_capped_bracket cell (bracket [X_MIN * 2**K, X_MAX]), a cell whose
    first rejected doubling is K, the coin cell of index 1 (k = 30) and the
    same coin paid out its risk at 1.5 X_MIN (k = 1).  A random cell is paid
    out its minvar risk at a log-uniform parameter in [1e-8, 1e5], which
    moves its minvar index there where the risk still rises."""
    cells = [  # conditional probabilities, values, parameter whose risk is paid out
        ((0.5, 0.5), (-2.0, -1.0), None),
        ((0.5, 0.5), (1.0, 2.0), None),
        ((1e-6, 1.0 - 1e-6), (-1.0, 1.0), None),
        ((2e-6, 1.0 - 2e-6), (-1.0, 1.0), None),
        ((0.5, 0.5), (3.0, -1.0), None),
        ((0.5, 0.5), (3.0, -1.0), 1.5 * X_MIN),
    ]
    for _ in range(BRACKET_RANDOM_CELLS):
        n = int(gen.integers(2, 6))
        cells.append((gen.dirichlet(np.ones(n)), gen.normal(0.0, 1.0, n), 10.0 ** gen.uniform(-8.0, 5.0)))
    ends = np.cumsum([len(q) for q, _, _ in cells]).tolist()
    level = tuple(tuple(range(a, b)) for a, b in zip([0] + ends, ends))
    space = ScenarioSpace(np.concatenate([q for q, _, _ in cells]) / len(cells))
    filtration = Filtration(((tuple(range(ends[-1])),), level, tuple((i,) for i in range(ends[-1]))))
    Z = RandomVariable(np.concatenate([np.asarray(z, dtype=float) for _, z, _ in cells]))
    laws = level_laws(space, filtration, Z, 1)
    family = minvar_family()
    cash = [
        0.0 if x is None else bruteforce._rho_at(laws.support[a:b], laws.F[a:b], family, x)
        for (_, _, x), a, b in zip(cells, laws.start, laws.stop)
    ]
    return space, filtration, RandomVariable(Z.values + np.asarray(cash)[filtration.cell_of_atom(1)])


@pytest.fixture(scope="module")
def bracket_cells():
    space, filtration, X = bracket_tree(np.random.default_rng(BRACKET_SEED))
    return space, filtration, X, level_laws(space, filtration, X, 1)


def first_rejected_doubling(support, F, family) -> int:
    """The k of the first doubling X_MIN * 2**k a linear scan rejects (K + 1: none)."""
    return next(
        (k for k in range(1, K + 1) if bruteforce._rho_at(support, F, family, X_MIN * 2.0**k) > 0.0),
        K + 1,
    )


def cell_slices(laws):
    return [(laws.support[a:b], laws.F[a:b]) for a, b in zip(laws.start, laws.stop)]


def test_doubling_grid_ends_inside_the_cap():
    assert K == 49 and X_MIN * 2.0**K <= X_MAX < X_MIN * 2.0 ** (K + 1)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f().name)
def test_bracket_cells_match_scalar_search(bracket_cells, family):
    space, filtration, X, laws = bracket_cells
    got = dcai(space, filtration, X, 1, family()).cell_values
    assert got.tobytes() == bruteforce.dcai_scalar(space, filtration, X, 1, family()).tobytes()
    if family is not minvar_family:  # the cells are built to their minvar brackets
        return
    ks = [first_rejected_doubling(*cell, family()) for cell in cell_slices(laws)]
    assert list(map(exit_kind, got[:6])) == ["floor", "cap"] + ["interior"] * 4
    assert ks[2:6] == [K + 1, K, 30, 1]
    assert got[2] == 693145.8339663653
    random_indices = got[6:][(got[6:] > 0.0) & np.isfinite(got[6:])]
    assert random_indices.min() < 1e-7 and random_indices.max() > 1e4


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f().name)
def test_probes_per_cell(bracket_cells, monkeypatch, family):
    # the exponent bisection costs at most 6 probes over k = 1..49, and the
    # halving of [X_MIN * 2**(k - 1), X_MIN * 2**k] about k - 1 more
    _, _, _, laws = bracket_cells
    family = family()
    probes = 0
    choquet_sum = acceptability._choquet

    def counted(*args):
        nonlocal probes
        probes += 1
        return choquet_sum(*args)

    monkeypatch.setattr(acceptability, "_choquet", counted)
    for support, F in cell_slices(laws):
        k = first_rejected_doubling(support, F, family)
        probes = 0
        index = acceptability._cell_index(support, F, family)
        if index == 0.0:
            assert probes == 1
        elif math.isinf(index):
            assert probes <= 1 + math.ceil(math.log2(K + 1)) + 1 == 8
        else:
            assert probes <= 1 + 6 + k, (k, probes)


PROBE_XS = (1e-3, 0.37, 2.0, 55.5)  # family parameters at which the one sum is compared
MIN_CELL_POINTS = 3  # merged points of a cell whose probe sum is compared
TIE_SEED = 67


def tie_tree(gen):
    """A 48-atom tree of 4 and then 12 cells whose integer payoffs tie within
    cells and mostly have a positive mean, so most indices are interior."""
    n = 48
    order = gen.permutation(n).tolist()
    levels = [[order], [order[12 * i:12 * i + 12] for i in range(4)],
              [order[4 * i:4 * i + 4] for i in range(12)], [[i] for i in range(n)]]
    probs = gen.random(n) + 0.1
    X = RandomVariable(gen.integers(-2, 5, size=n).astype(float))
    return ScenarioSpace(probs / probs.sum()), Filtration(levels), X


@pytest.fixture(scope="module")
def sum_trees(fixture_pool):
    return fixture_pool + [tie_tree(np.random.default_rng(TIE_SEED))]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f().name)
def test_probe_sum_is_the_choquet_risk(sum_trees, family):
    # a probe's risk on one cell slice is the cell's choquet risk under ==,
    # not merely within round-off: both are the one sum risk._choquet
    family = family()
    compared = 0
    for space, filtration, X in sum_trees:
        for t in range(filtration.horizon + 1):
            laws = level_laws(space, filtration, X, t)
            cells = np.flatnonzero(laws.stop - laws.start >= MIN_CELL_POINTS)
            if not cells.size:
                continue
            for x in PROBE_XS:
                want = choquet(space, filtration, X, t, family(x)).cell_values
                for k in cells:
                    F = laws.F[laws.start[k]:laws.stop[k]]
                    psi_F = np.asarray(family(x)(F), dtype=float)
                    support = laws.support[laws.start[k]:laws.stop[k]]
                    got = acceptability._choquet(support, psi_F, acceptability._START)
                    assert got[0] == want[k], (t, k, x)
                    compared += 1
    assert compared > 2000


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f().name)
def test_probes_read_the_choquet_risk(monkeypatch, family):
    # every probe dcai makes on the tie tree, at the parameters its search
    # picks, decides its sign on the cell's choquet risk at that parameter
    space, filtration, X = tie_tree(np.random.default_rng(TIE_SEED))
    family = family()
    xs, risks = [], []
    choquet_sum = acceptability._choquet

    def recorded(*args):
        out = choquet_sum(*args)
        risks.append(out[0])
        return out

    monkeypatch.setattr(acceptability, "_choquet", recorded)
    probing = DistortionFamily(lambda x: xs.append(x) or family(x), name=family.name)
    compared = 0
    for t in (0, 1, 2):
        laws = level_laws(space, filtration, X, t)
        for k, (a, b) in enumerate(zip(laws.start, laws.stop)):
            xs.clear()
            risks.clear()
            acceptability._cell_index(laws.support[a:b], laws.F[a:b], probing)
            assert len(xs) == len(risks)
            for x, risk in zip(xs, risks):
                assert risk == choquet(space, filtration, X, t, family(x)).cell_values[k]
            compared += len(xs)
    assert compared > 200


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f().name)
def test_interior_pool_weak_rejection_matches_bruteforce(interior_pool, family):
    # every (t, s) pair, where the indices at t and at s are mostly interior
    family = family()
    for space, filtration, X in interior_pool[:INTERIOR_CHECK_TREES]:
        H = filtration.horizon
        for t, s in ((t, s) for t in range(H) for s in range(t + 1, H + 1)):
            got = check_weak_rejection_dcai(space, filtration, X, family, t, s)
            want = bruteforce.check_weak_rejection_dcai(space, filtration, X, family, t, s)
            assert np.array(got.margins).tobytes() == np.array(want.margins).tobytes()
            assert got.witness == want.witness


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f().name)
def test_interior_pool_axioms_hold(interior_pool, family):
    # Y lies above X by rounded normal noise, so monotonicity is checked too
    family = family()
    gen = np.random.default_rng(59)
    for space, filtration, X in interior_pool[:INTERIOR_CHECK_TREES]:
        Y = RandomVariable(X.values + np.abs(np.round(gen.normal(0.0, 1.0, X.values.size), 3)))
        for t in range(filtration.horizon + 1):
            report = dcai_axiom_check(space, filtration, X, Y, t, family)
            assert report.passed, (t, report.failures)


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

    def fake_dcai(space, filtration, X, t, family):
        return AdaptedValue(t, next(results))

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
