"""The level-wide evaluators against the per-cell reference path.

Every level-wide evaluator, the structural maps and the linear-time checkers
must agree with the brute-force versions in `bruteforce.py`: values to
1e-13 relative (summation order differs), verdicts and witnesses exactly.
The level laws built from the payoff's kept value order must equal, bit for
bit, those built with the two-key (cell, value) sort of `bruteforce.py`, and
every result read from the laws a payoff keeps must equal, bit for bit, the
result of a fresh build.
"""

import dataclasses
import math
import weakref

import numpy as np
import pytest

import bruteforce
from distrisk import (
    AdaptedValue,
    DomainError,
    Filtration,
    Identity,
    LevelLaws,
    MinVar,
    ProportionalHazard,
    RandomVariable,
    ScenarioSpace,
    avar,
    avar_robust,
    build_nonmiddle_example,
    build_weakacc_continuous,
    build_weakacc_pprime,
    check_submartingale,
    check_super_strict_failure,
    check_weak_acceptance,
    check_weak_rejection_dcai,
    choquet,
    conditional_expectation,
    dcai,
    dirac,
    dwvar,
    lift,
    middle_rejection_probe,
    min_iid_rho,
    minvar_family,
    pprime_distortion,
    quantile_lower,
    quantile_upper,
    var,
)
from distrisk import acceptability, consistency, risk
from distrisk import space as space_module
from distrisk.space import Level, conditional_distribution, level_laws
from distrisk.tolerance import ANALYTIC_TOL

from conftest import fresh_laws, random_measure, random_regular_distortion, random_tree

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
                got = dcai(space, filtration, X, t, family).cell_values
                want = bruteforce.dcai(bruteforce.laws(space, filtration, X, t), family)
                assert np.all(got >= 0.0)
                assert [math.isinf(v) for v in got] == [math.isinf(v) for v in want]
                assert_close([v for v in got if not math.isinf(v)],
                             [v for v in want if not math.isinf(v)])


class TestLevelLaws:
    def test_merged_laws_match_conditional_distribution(self):
        space, filtration, X = tie_heavy_tree()
        for t in range(filtration.horizon + 1):
            laws = fresh_laws(space, filtration, X, t)
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
            level_laws(space, filtration, RandomVariable(np.zeros(3)), 1)

    def test_filtration_size_mismatch_rejected(self):
        space = ScenarioSpace([0.25, 0.25, 0.5])
        filtration = Filtration((((0, 1, 2, 3),), ((0,), (1,), (2,), (3,))))
        X = RandomVariable([1.0, 2.0, 3.0])
        for t in (0, 1):
            with pytest.raises(DomainError, match="payoff length"):
                level_laws(space, filtration, X, t)
            with pytest.raises(DomainError, match="payoff length"):
                conditional_expectation(space, filtration, X, t)


    def test_F_is_each_cells_running_sum(self):
        """F equals each cell's own cumulative sum bit for bit, whether the
        cells of one size sit side by side (a reshaped view) or not (an
        index matrix)."""
        gen = np.random.default_rng(257)
        n = 5000
        p = gen.random(n) + 0.5
        one_cell = (ScenarioSpace(p / p.sum()),
                    Filtration(((tuple(gen.permutation(n).tolist()),),)),
                    RandomVariable(np.round(gen.normal(0.0, 1.0, n), 1)))
        # merged sizes 2, 2, 3, 2: the size-2 cells do not sit side by side
        mixed = (ScenarioSpace(np.full(9, 1.0 / 9)),
                 Filtration((((tuple(range(9))),), ((0, 1), (2, 3), (4, 5, 6), (7, 8)))),
                 RandomVariable(gen.random(9)))
        for space, filtration, X in (one_cell, mixed, tie_heavy_tree(),
                                     paired_tree(300, gen)):
            for t in range(filtration.horizon + 1):
                laws = fresh_laws(space, filtration, X, t)
                for a, b in zip(laws.start, laws.stop):
                    assert np.array_equal(laws.F[a:b - 1], np.cumsum(laws.weights[a:b])[:-1])
                    assert laws.F[b - 1] == 1.0

    def test_F_stays_at_most_one(self):
        """Cells whose running weight rounds above 1 before a last atom of
        probability below 1e-17: F is clipped at 1, and the distorted risk
        and the index match the per-cell path, which clips the same way."""
        gen = np.random.default_rng(293)
        cells, probs = [], []
        for _ in range(400):
            k = int(gen.integers(3, 9))
            w = np.round(gen.uniform(0.1, 1.0, k), 3)
            w[-1] = gen.uniform(1e-19, 1e-17)
            cells.append(tuple(range(len(probs), len(probs) + k)))
            probs.extend((w / w.sum() / 400).tolist())
        n = len(probs)
        space = ScenarioSpace(probs)
        filtration = Filtration(((tuple(range(n)),), tuple(cells), tuple((i,) for i in range(n))))
        X = RandomVariable(np.concatenate([np.arange(len(c), dtype=float) for c in cells]))
        laws = fresh_laws(space, filtration, X, 1)
        past_one = [np.cumsum(laws.weights[a:b])[:-1].max() > 1.0
                    for a, b in zip(laws.start, laws.stop)]
        assert sum(past_one) > 0
        assert laws.F.max() == 1.0 and np.all(laws.lo <= laws.F)
        cell_laws = bruteforce.laws(space, filtration, X, 1)
        psi = MinVar(1.0)
        assert_close(choquet(space, filtration, X, 1, psi).cell_values,
                     bruteforce.choquet(cell_laws, psi))
        family = minvar_family()
        picked = [k for k, hit in enumerate(past_one) if hit][:5]
        got = dcai(space, filtration, X, 1, family).cell_values[picked]
        assert np.array_equal(got, bruteforce.dcai([cell_laws[k] for k in picked], family))
        # the smallest such cell, on its own
        space = ScenarioSpace([0.342, 0.558, 0.1, 5e-17])
        filtration = Filtration((((0, 1, 2, 3),), ((0,), (1,), (2,), (3,))))
        X = RandomVariable([0.0, 1.0, 2.0, 3.0])
        assert fresh_laws(space, filtration, X, 0).F.tolist() == [0.342, 0.9000000000000001, 1.0, 1.0]
        d = conditional_distribution(space, filtration, X, 0, 0)
        assert choquet(space, filtration, X, 0, psi).cell_values[0] == bruteforce.distribution_choquet(d, psi)
        assert dcai(space, filtration, X, 0, family).cell_values.tolist() == [math.inf]


LAW_FIELDS = ("cell", "support", "weights", "F", "lo", "start", "stop")


def oracle_laws(monkeypatch, space, filtration, X, t):
    """LevelLaws with its sort replaced by the two-key (cell, value) oracle."""
    with monkeypatch.context() as m:
        m.setattr(space_module, "_merge_ties",
                  lambda cell_of, n_cells, X, p: bruteforce.merge_ties(cell_of, X.values, p))
        return fresh_laws(space, filtration, X, t)


def assert_same_laws(monkeypatch, space, filtration, X):
    """Every level's laws equal the oracle's bit for bit, signed zeros included."""
    for t in range(filtration.horizon + 1):
        got = fresh_laws(space, filtration, X, t)
        want = oracle_laws(monkeypatch, space, filtration, X, t)
        for name in LAW_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, (t, name)
            assert np.array_equal(a, b), (t, name)
            assert np.array_equal(np.signbit(a), np.signbit(b)), (t, name)


def paired_tree(n_cells, gen):
    """A root, n_cells cells of two atoms each listed in a shuffled order,
    and the singletons; the payoff takes five values."""
    n = 2 * n_cells
    p = gen.random(n) + 0.5
    pairs = gen.permutation(n).reshape(n_cells, 2).tolist()
    filtration = Filtration(((tuple(range(n)),), pairs, [(i,) for i in range(n)]))
    X = RandomVariable(gen.integers(0, 5, size=n).astype(float))
    return ScenarioSpace(p / p.sum()), filtration, X


class TestExactOrder:
    """The value order kept on the payoff, followed by a stable sort of the
    cell ids, lines the atoms up exactly as the two-key sort does."""

    def test_fixture_pool_every_level(self, fixture_pool, monkeypatch):
        for space, filtration, X in fixture_pool:
            assert_same_laws(monkeypatch, space, filtration, X)

    def test_tie_heavy_tree(self, monkeypatch):
        assert_same_laws(monkeypatch, *tie_heavy_tree())

    def test_signed_zeros_in_one_cell(self, monkeypatch):
        values = [0.0, -0.0, 1.0, -0.0, 1.0, 0.0, -0.0, 2.0, 0.0, 1.0, -0.0, 0.0]
        space = ScenarioSpace(np.full(12, 1.0 / 12))
        filtration = Filtration((
            (tuple(range(12)),),
            ((11, 3, 0, 7, 5, 9), (1, 2, 4, 6, 8, 10)),
            tuple((i,) for i in range(12)),
        ))
        X = RandomVariable(values)
        assert_same_laws(monkeypatch, space, filtration, X)
        # the merged zero of each cell keeps the sign of its lowest atom
        laws = fresh_laws(space, filtration, X, 1)
        zeros = laws.support == 0.0
        assert list(laws.cell[zeros]) == [0, 1]
        assert list(np.signbit(laws.support[zeros])) == [False, True]
        assert not np.signbit(fresh_laws(space, filtration, X, 0).support[0])

    @pytest.mark.parametrize("n_cells", [1 << 16, (1 << 16) + 1])
    def test_many_cells(self, n_cells, monkeypatch):
        # at most 65,536 cells the ids are sorted as uint16, beyond as int32
        space, filtration, X = paired_tree(n_cells, np.random.default_rng(241))
        assert_same_laws(monkeypatch, space, filtration, X)

    def test_one_cell(self, monkeypatch):
        gen = np.random.default_rng(251)
        n = 5000
        p = gen.random(n) + 0.5
        X = RandomVariable(np.round(gen.normal(0.0, 1.0, n), 1))
        filtration = Filtration(((tuple(gen.permutation(n).tolist()),),))
        assert_same_laws(monkeypatch, ScenarioSpace(p / p.sum()), filtration, X)


class TestValueOrder:
    def test_read_only_and_computed_once(self):
        X = RandomVariable([2.0, 1.0, 2.0, -0.0, 0.0, 1.0])
        order = X.value_order
        assert X.value_order is order
        assert list(order) == [3, 4, 1, 5, 0, 2]
        with pytest.raises(ValueError):
            order[0] = 1

    def test_fields_equality_and_repr_unchanged(self):
        assert [f.name for f in dataclasses.fields(RandomVariable)] == ["values"]
        X = RandomVariable([1.5])
        before = repr(X)
        X.value_order
        assert repr(X) == before == repr(RandomVariable([1.5]))
        assert X == RandomVariable([1.5])
        assert X != RandomVariable([2.5])


def assert_lifted_order(filtration, t, cell_values):
    """A lifted payoff's order is the stable float argsort of its values."""
    Y = lift(filtration, AdaptedValue(t, cell_values))
    want = np.argsort(Y.values, kind="stable")
    assert Y.value_order.dtype == want.dtype
    assert np.array_equal(Y.value_order, want), (t, cell_values)
    assert not Y.value_order.flags.writeable
    return Y


class TestLiftedValueOrder:
    """A lifted payoff gets the same cached value order as any payoff."""

    def test_fixture_pool_every_level(self, fixture_pool):
        gen = np.random.default_rng(271)
        for space, filtration, X in fixture_pool:
            for t in range(filtration.horizon + 1):
                mean = conditional_expectation(space, filtration, X, t).cell_values
                n = mean.size
                for values in (mean, np.round(mean), gen.integers(-1, 2, n) * 0.0,
                               gen.integers(-2, 3, n).astype(float)):
                    assert_lifted_order(filtration, t, values)

    def test_equal_values_in_different_cells(self):
        space, filtration, _ = tie_heavy_tree()
        for values in ([1.0, 2.0, 1.0, 2.0, 1.0], [3.0] * 5, [5.0, 4.0, 3.0, 2.0, 1.0]):
            assert_lifted_order(filtration, 1, np.asarray(values))

    def test_signed_zeros_in_neighbouring_cells(self):
        filtration = Filtration((
            (tuple(range(6)),),
            ((4, 1), (0, 5), (3,), (2,)),
            tuple((i,) for i in range(6)),
        ))
        Y = assert_lifted_order(filtration, 1, np.asarray([-0.0, 0.0, -1.0, -0.0]))
        assert list(Y.value_order) == [3, 0, 1, 2, 4, 5]
        assert list(np.signbit(Y.values)) == [False, True, True, True, True, False]

    @pytest.mark.parametrize("n_values", [1 << 16, (1 << 16) + 1])
    def test_many_distinct_values(self, n_values):
        gen = np.random.default_rng(277)
        _, filtration, _ = paired_tree(n_values + 5, gen)
        values = gen.permutation(np.linspace(-1.0, 1.0, n_values))
        values = np.concatenate([values, values[:5]])  # five values twice
        assert_lifted_order(filtration, 1, values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_fail_before_any_sort(self, bad, monkeypatch):
        _, filtration, _ = tie_heavy_tree()
        values = np.asarray([0.0, 1.0, bad, 2.0, 3.0])
        with pytest.raises(DomainError) as want:
            RandomVariable(values[filtration.cell_of_atom(1)])

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted before the values were checked")

        monkeypatch.setattr(np, "argsort", no_sort)
        with pytest.raises(DomainError) as got:
            lift(filtration, AdaptedValue(1, values))
        assert str(got.value) == str(want.value)

    def test_fields_equality_repr_and_replace_unchanged(self):
        filtration = Filtration((((0, 1),), ((0,), (1,))))
        Y = lift(filtration, AdaptedValue(1, [1.5, -1.5]))
        assert [f.name for f in dataclasses.fields(Y)] == ["values"]
        assert repr(Y) == repr(RandomVariable([1.5, -1.5]))
        copy = dataclasses.replace(Y)
        assert repr(copy) == repr(Y)
        assert copy.value_order is not Y.value_order
        assert np.array_equal(copy.value_order, Y.value_order)
        one = lift(Filtration((((0,),),)), AdaptedValue(0, [1.5]))
        assert one == RandomVariable([1.5]) and one != RandomVariable([2.5])


def canonical(result):
    """A result as bytes, exact to the last bit and the sign of zero."""
    if isinstance(result, consistency.ConsistencyReport):
        return repr(result)  # floats only, and repr of a float is exact
    return result.time, np.asarray(result.cell_values, dtype=float).tobytes()


def every_call(space, filtration, psi, mu, with_dcai):
    """Every evaluator at every time and every checker at every pair of
    times, each as a function of the payoff."""
    family = minvar_family()
    calls = []
    for t in range(filtration.horizon + 1):
        calls += [
            lambda X, t=t: choquet(space, filtration, X, t, psi),
            lambda X, t=t: quantile_upper(space, filtration, X, t, 0.5),
            lambda X, t=t: quantile_lower(space, filtration, X, t, 0.5),
            lambda X, t=t: var(space, filtration, X, t, 0.05),
            lambda X, t=t: avar(space, filtration, X, t, 0.05),
            lambda X, t=t: avar_robust(space, filtration, X, t, 0.05),
            lambda X, t=t: dwvar(space, filtration, X, t, mu),
            lambda X, t=t: min_iid_rho(space, filtration, X, t, 3),
        ]
        if not psi.is_identity():
            calls.append(lambda X, t=t: check_super_strict_failure(space, filtration, X, psi, t))
        if with_dcai:
            calls.append(lambda X, t=t: dcai(space, filtration, X, t, family))
        for s in range(t + 1, filtration.horizon + 1):
            calls += [
                lambda X, t=t, s=s: check_submartingale(space, filtration, X, psi, t, s),
                lambda X, t=t, s=s: check_weak_acceptance(space, filtration, X, psi, t, s),
                lambda X, t=t, s=s: middle_rejection_probe(space, filtration, X, psi, t, s),
            ]
            if with_dcai:
                calls.append(
                    lambda X, t=t, s=s: check_weak_rejection_dcai(space, filtration, X, family, t, s)
                )
    return calls


def assert_cold_warm_fresh_agree(monkeypatch, space, filtration, X, psi, mu, with_dcai):
    """Each call on a new payoff (cold), repeated on one payoff (warm) and
    with the laws built afresh on every read (fresh) gives the same bits."""
    warm = RandomVariable(X.values)
    for call in every_call(space, filtration, psi, mu, with_dcai):
        cold = canonical(call(RandomVariable(X.values)))
        call(warm)
        assert canonical(call(warm)) == cold
        with monkeypatch.context() as m:
            m.setattr(risk, "level_laws", fresh_laws)
            m.setattr(acceptability, "level_laws", fresh_laws)
            assert canonical(call(RandomVariable(X.values))) == cold


class TestKeptLaws:
    """The laws a payoff keeps (`level_laws`) against fresh builds."""

    def test_cold_warm_and_fresh_agree_on_pool(self, fixture_pool, monkeypatch):
        gen = np.random.default_rng(263)
        for i, (space, filtration, X) in enumerate(fixture_pool[::5]):
            assert_cold_warm_fresh_agree(
                monkeypatch, space, filtration, X,
                random_regular_distortion(gen), random_measure(gen), with_dcai=i < 20,
            )

    def test_cold_warm_and_fresh_agree_on_ties(self, monkeypatch):
        space, filtration, X = tie_heavy_tree()
        gen = np.random.default_rng(269)
        for k, psi in enumerate((MinVar(2.0), pprime_distortion(3.0), Identity())):
            assert_cold_warm_fresh_agree(
                monkeypatch, space, filtration, X, psi, random_measure(gen), with_dcai=k == 0
            )

    def test_kept_laws_equal_a_fresh_build(self):
        space, filtration, X = tie_heavy_tree()
        for t in range(filtration.horizon + 1):
            got = level_laws(space, filtration, X, t)
            assert level_laws(space, filtration, X, t) is got
            want = fresh_laws(space, filtration, X, t)
            assert want is not got
            for name in LAW_FIELDS:
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_one_build_per_level_across_passes(self, monkeypatch):
        """Two passes of the benchmark's many-cells op order on one payoff,
        its levels 12, 8, 11 and 7 mapped to 4, 2, 3 and 1 of a depth-4
        binary tree: each level's laws are built once."""
        n = 16
        gen = np.random.default_rng(283)
        p = gen.uniform(0.5, 1.5, n)
        space = ScenarioSpace(p / p.sum())
        filtration = Filtration([
            [tuple(range(a, a + n // 2**d)) for a in range(0, n, n // 2**d)]
            for d in range(5)
        ])
        X = RandomVariable(gen.integers(-3, 4, size=n).astype(float))
        psi, family = MinVar(2.0), minvar_family()
        mu = random_measure(gen)
        ops = [
            lambda: choquet(space, filtration, X, 4, psi),
            lambda: quantile_upper(space, filtration, X, 4, 0.05),
            lambda: avar(space, filtration, X, 4, 0.05),
            lambda: dwvar(space, filtration, X, 4, mu),
            lambda: dcai(space, filtration, X, 2, family),
            lambda: check_submartingale(space, filtration, X, psi, 3, 4),
            lambda: avar_robust(space, filtration, X, 4, 0.05),
            lambda: dcai(space, filtration, X, 2, family),
            lambda: check_super_strict_failure(space, filtration, X, psi, 3),
            lambda: var(space, filtration, X, 4, 0.05),
            lambda: check_weak_acceptance(space, filtration, X, psi, 3, 4),
            lambda: min_iid_rho(space, filtration, X, 4, 3),
            lambda: check_weak_rejection_dcai(space, filtration, X, family, 1, 2),
            lambda: middle_rejection_probe(space, filtration, X, psi, 3, 4),
        ]
        built = []
        init = LevelLaws.__init__

        def counting(self, group, n_groups, X, mass):
            if mass is space.probabilities:  # a tree level, not the paid-out risk
                built.append(next(t for t in range(5) if filtration.cell_of_atom(t) is group))
            init(self, group, n_groups, X, mass)

        monkeypatch.setattr(LevelLaws, "__init__", counting)
        for _ in range(2):
            for op in ops:
                op()
        assert sorted(built) == [1, 2, 3, 4]

    def test_other_space_or_filtration_replaces_kept_laws(self):
        space, filtration, X = tie_heavy_tree()
        at0 = level_laws(space, filtration, X, 0)
        at1 = level_laws(space, filtration, X, 1)
        other_space = ScenarioSpace(space.probabilities[::-1])
        other_filtration = Filtration(filtration.partitions)
        for s, f in ((other_space, filtration), (space, other_filtration),
                     (space, filtration)):
            got = [level_laws(s, f, X, t) for t in (0, 1, 2)]
            assert got[0] is not at0 and got[1] is not at1
            for t, laws in enumerate(got):
                assert level_laws(s, f, X, t) is laws
                want = fresh_laws(s, f, X, t)
                for name in LAW_FIELDS:
                    assert getattr(laws, name).tobytes() == getattr(want, name).tobytes()

    def test_equal_but_distinct_space_or_filtration_misses(self):
        space, filtration, X = tie_heavy_tree()
        laws = level_laws(space, filtration, X, 1)
        same_filtration = Filtration(filtration.partitions)
        same_space = ScenarioSpace(space.probabilities)
        for s, f in ((same_space, filtration), (space, same_filtration)):
            got = level_laws(s, f, X, 1)
            assert got is not laws
            assert got.weights.tobytes() == fresh_laws(s, f, X, 1).weights.tobytes()
        # other probabilities on the same atoms: other laws, the right ones
        other = ScenarioSpace(space.probabilities[::-1])
        psi = MinVar(2.0)
        got = choquet(other, filtration, X, 1, psi).cell_values
        want = choquet(other, filtration, RandomVariable(X.values), 1, psi).cell_values
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, choquet(space, filtration, X, 1, psi).cell_values)

    def test_kept_arrays_reject_writes(self):
        space, filtration, X = tie_heavy_tree()
        laws = level_laws(space, filtration, X, 1)
        for name in LAW_FIELDS:
            with pytest.raises(ValueError):
                getattr(laws, name)[0] = 0

    def test_laws_go_with_the_payoff(self):
        space, filtration, X = tie_heavy_tree()
        X = RandomVariable(X.values)
        ref = weakref.ref(level_laws(space, filtration, X, 1))
        assert ref() is not None
        del X
        assert ref() is None

    def test_fields_equality_repr_and_replace_unchanged(self):
        space = ScenarioSpace([1.0])
        filtration = Filtration((((0,),),))
        X = RandomVariable([1.5])
        before = repr(X)
        laws = level_laws(space, filtration, X, 0)
        assert [f.name for f in dataclasses.fields(RandomVariable)] == ["values"]
        assert repr(X) == before == repr(RandomVariable([1.5]))
        assert X == RandomVariable([1.5])
        assert X != RandomVariable([2.5])
        copy = dataclasses.replace(X)
        assert copy == X and repr(copy) == before
        assert level_laws(space, filtration, copy, 0) is not laws
        other = dataclasses.replace(X, values=[-2.0])
        assert repr(other) == repr(RandomVariable([-2.0]))
        assert list(level_laws(space, filtration, other, 0).support) == [-2.0]

    def test_checkers_cold_warm_and_fresh_agree(self, fixture_pool, monkeypatch):
        """The checkers that read a level's laws directly (super-strict) or
        group the later risks by cell (middle rejection), and the
        sub-martingale check, give the same bits cold, warm and fresh; fresh
        here also builds every law afresh in `consistency`."""
        gen = np.random.default_rng(281)
        trees = list(fixture_pool[::10]) + [tie_heavy_tree()]
        for space, filtration, X in trees:
            psi = random_regular_distortion(gen)
            H = filtration.horizon
            calls = [lambda Y, t=t, s=s: middle_rejection_probe(space, filtration, Y, psi, t, s)
                     for t in range(H) for s in range(t + 1, H + 1)]
            calls += [lambda Y, t=t, s=s: check_submartingale(space, filtration, Y, psi, t, s)
                      for t in range(H) for s in range(t + 1, H + 1)]
            if not psi.is_identity():
                calls += [lambda Y, t=t: check_super_strict_failure(space, filtration, Y, psi, t)
                          for t in range(H + 1)]
            warm = RandomVariable(X.values)
            for call in calls:
                cold = canonical(call(RandomVariable(X.values)))
                call(warm)
                assert canonical(call(warm)) == cold
                with monkeypatch.context() as m:
                    for module in (risk, acceptability, consistency):
                        m.setattr(module, "level_laws", fresh_laws)
                    assert canonical(call(RandomVariable(X.values))) == cold

    @pytest.mark.parametrize("t", [1.0, 0.5, -1, 3])
    def test_bad_time_fails_alike_cold_and_warm(self, t):
        space, filtration, X = tie_heavy_tree()
        psi = MinVar(2.0)

        def failure(call):
            with pytest.raises((DomainError, TypeError)) as info:
                call()
            return type(info.value), str(info.value)

        cold = failure(lambda: choquet(space, filtration, X, t, psi))
        assert failure(lambda: fresh_laws(space, filtration, X, t)) == cold
        for u in (0, 1):
            choquet(space, filtration, X, u, psi)
        assert failure(lambda: choquet(space, filtration, X, t, psi)) == cold
        assert failure(lambda: level_laws(space, filtration, X, t)) == cold


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

    def test_parent_needs_t_at_most_s(self):
        filtration = Filtration((((0, 1, 2, 3),), ((0, 1), (2, 3)), ((0,), (1,), (2,), (3,))))
        assert list(filtration.parent(1, 1)) == [0, 1]
        for t, s in ((2, 1), (1, 0), (2, 0)):
            with pytest.raises(DomainError, match="need t <= s"):
                filtration.parent(t, s)
        with pytest.raises(DomainError, match="outside"):
            filtration.parent(3, 1)

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
        ((((0, 1, 2),), ((0,), (0,))), "overlapping cells at time 1"),  # and 1, 2 left out
        ((((0, 1, 2),), ((0,), ())), "empty cell at time 1"),
        ((((0, 1, 2),), ((0,), (1,))), "level 1 does not cover the same atom set"),
        ((((0, 1, 2),), ((0,), (1,), (3,))), "level 1 does not cover the same atom set"),
        ((((0, 2),), ((0,), (2,))), "atom indices must be 0..n-1"),
        ((((-1, 0),),), "atom indices must be 0..n-1"),
        ((), "filtration needs at least one level"),
        *(((level,), "a Level holds two one-dimensional int32 arrays") for level in (
            Level(np.array([0.0, 1.0]), np.array([2])),
            Level(np.array([0, 1]), np.array([2.0])),
            Level([0, 1], [2]),
            Level(np.array([0, 1], dtype=np.int64), np.array([2], dtype=np.int64)),
            Level(np.array([[0, 1]], dtype=np.int32), np.array([2], dtype=np.int32)),
        )),
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

    def assert_near(self, got, want):
        """Same verdict and witness cell; margins and witness risks equal up
        to the round-off of summing per cell instead of per level."""
        assert_close(got.margins, want.margins)
        assert got.verdict == want.verdict
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.keys() == want.witness.keys()
            assert got.witness["cell"] == want.witness["cell"]
            for key in got.witness.keys() - {"cell"}:
                assert_close(got.witness[key], want.witness[key])

    def test_submartingale_and_middle_rejection_on_pool(self, fixture_pool):
        gen = np.random.default_rng(283)
        seen = set()
        for space, filtration, X in fixture_pool:
            psi = random_regular_distortion(gen)
            for t in range(filtration.horizon):
                for s in range(t + 1, filtration.horizon + 1):
                    for Y in (X, RandomVariable(np.round(X.values))):
                        for checker in ("check_submartingale", "middle_rejection_probe"):
                            got = getattr(consistency, checker)(space, filtration, Y, psi, t, s)
                            want = getattr(bruteforce, checker)(space, filtration, Y, psi, t, s)
                            self.assert_near(got, want)
                            seen.add((checker, got.verdict))
        assert seen >= {("middle_rejection_probe", "violated"),
                        ("middle_rejection_probe", "holds"),
                        ("check_submartingale", "holds")}

    def test_super_strict_constant_cells(self, monkeypatch):
        """A cell is constant when its atoms share one value: a one-atom
        cell, a cell of equal values and a cell of -0.0 and 0.0 are; the
        flag of each cell's witness matches the oracle's."""
        values = [-0.0, 2.0, 1.0, 2.0, 0.0, 3.0, 2.0, 5.0, -0.0]
        space = ScenarioSpace(np.linspace(1.0, 2.0, 9) / 13.5)
        filtration = Filtration((
            (tuple(range(9)),),
            ((2,), (6, 1, 3), (8, 0, 4), (5, 7)),
            tuple((i,) for i in range(9)),
        ))
        X = RandomVariable(values)
        psi = MinVar(2.0)
        got = check_super_strict_failure(space, filtration, X, psi, 1)
        self.assert_same(got, bruteforce.check_super_strict_failure(space, filtration, X, psi, 1))
        assert got.verdict == "holds"
        constant = [True, True, True, False]
        neg_mean = -conditional_expectation(space, filtration, X, 1).cell_values
        real_choquet = consistency.choquet
        for k in range(4):
            # every cell passes but cell k, which fails as its kind can
            rho = neg_mean + np.where(constant, 0.0, 1.0)
            rho[k] += 1.0 if constant[k] else -2.0

            def fake_choquet(space, filtration, X, t, psi):
                real_choquet(space, filtration, X, t, psi)
                return AdaptedValue(t, rho)

            with monkeypatch.context() as m:
                m.setattr(consistency, "choquet", fake_choquet)
                got = check_super_strict_failure(space, filtration, X, psi, 1)
                want = bruteforce.check_super_strict_failure(space, filtration, X, psi, 1)
            self.assert_same(got, want)
            assert got.witness["cell"] == k
            assert got.witness["constant"] is constant[k]

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
            return AdaptedValue(t, values[t])

        def fake_dcai_scalar(space, filtration, X, t, family):
            return values[t]

        monkeypatch.setattr(consistency, "choquet", fake_choquet)
        monkeypatch.setattr(consistency, "dcai", fake_dcai)
        monkeypatch.setattr(bruteforce, "dcai_scalar", fake_dcai_scalar)
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


def later_cells_tree():
    """Ten atoms over four levels.  At s=2 the cells are listed out of the
    order of their t=1 parents, and the parent (3, 6) has a single child;
    the singletons at s=3 are listed in reverse.  Under any distortion the
    first t=1 cell holds two s=2 cells of equal risk (-1.25) and two of risk
    0.0 and -0.0: (5,) pays -0.0 and (2, 9) pays 0.0."""
    probs = np.linspace(1.0, 2.0, 10)
    space = ScenarioSpace(probs / probs.sum())
    filtration = Filtration((
        ((3, 8, 0, 9, 1, 7, 2, 6, 4, 5),),
        ((9, 2, 5, 0, 7), (4, 1, 8), (3, 6)),
        ((7,), (4, 1), (2, 9), (8,), (0,), (5,), (3, 6)),
        tuple((i,) for i in range(9, -1, -1)),
    ))
    X = RandomVariable([1.25, -1.0, 0.0, 2.0, 3.0, -0.0, -2.0, 1.25, 0.5, 0.0])
    return space, filtration, X


def feed_risks(monkeypatch, X, values):
    """Give the payoff X the risks values[t] at each time t, in the library
    checkers and in their per-cell oracles alike; any other payoff (the
    oracles' lifted Y) keeps the risks computed from its laws."""
    real, real_laws, real_choquet = consistency.choquet, bruteforce.laws, bruteforce.choquet

    def library_choquet(space, filtration, Y, t, psi):
        return AdaptedValue(t, values[t]) if Y is X else real(space, filtration, Y, t, psi)

    def oracle_choquet(args, psi):
        return values[args[3]] if args[2] is X else real_choquet(real_laws(*args), psi)

    monkeypatch.setattr(consistency, "choquet", library_choquet)
    monkeypatch.setattr(bruteforce, "laws", lambda *args: args)
    monkeypatch.setattr(bruteforce, "choquet", oracle_choquet)


def oracle_paid_out_risk(space, filtration, psi, t, s, rho_s):
    """rho_t of the later risk rho_s paid out as cash, on the per-cell path."""
    Y = RandomVariable(bruteforce.lift(filtration, s, -np.asarray(rho_s)))
    return bruteforce.choquet(bruteforce.laws(space, filtration, Y, t), psi)


class TestLaterCellCheckers:
    """The sub-martingale and middle-rejection checks, which read the later
    risk per s-cell, against the per-atom oracles: margins to `REL_TOL`,
    verdicts and witness cells exactly."""

    assert_near = TestCheckersMatchBruteForce.assert_near
    PSIS = (MinVar(2.0), ProportionalHazard(0.5), pprime_distortion(3.0), Identity())

    def assert_both_near(self, space, filtration, X, psi, t, s):
        for checker in ("check_submartingale", "middle_rejection_probe"):
            if checker == "middle_rejection_probe" and t == s:
                continue
            got = getattr(consistency, checker)(space, filtration, X, psi, t, s)
            self.assert_near(got, getattr(bruteforce, checker)(space, filtration, X, psi, t, s))

    def test_horizon_and_equal_times_on_pool(self, fixture_pool):
        # s = horizon has one s-cell per atom; t = s averages each cell alone
        gen = np.random.default_rng(307)
        for space, filtration, X in fixture_pool[::2]:
            psi = random_regular_distortion(gen)
            H = filtration.horizon
            for t in range(H + 1):
                self.assert_both_near(space, filtration, X, psi, t, H)
                self.assert_both_near(space, filtration, X, psi, t, t)

    def test_ties_signed_zeros_and_out_of_order_cells(self):
        space, filtration, X = later_cells_tree()
        H = filtration.horizon
        for psi in self.PSIS:
            for t in range(H + 1):
                for s in range(t, H + 1):
                    self.assert_both_near(space, filtration, X, psi, t, s)

    def test_sibling_risks_merge_into_one_point(self):
        space, filtration, X = later_cells_tree()
        for psi in self.PSIS:
            rho_s = choquet(space, filtration, X, 2, psi).cell_values
            assert rho_s[0] == rho_s[4] == -1.25  # (7,) and (0,)
            assert rho_s[2] == rho_s[5] == 0.0  # (2, 9) and (5,)
            assert np.signbit(rho_s[2]) and not np.signbit(rho_s[5])
            paid_out = RandomVariable(-rho_s)
            got = LevelLaws(filtration.parent(1, 2), 3, paid_out,
                            level_laws(space, filtration, X, 2).mass)
            lifted = fresh_laws(space, filtration, lift(filtration, AdaptedValue(2, -rho_s)), 1)
            # cell (9, 2, 5, 0, 7): four s-cells, two points, 0 and 1.25
            assert list(got.support[got.start[0]:got.stop[0]]) == [0.0, 1.25]
            assert list(got.stop - got.start) == [2, 2, 1]
            assert np.array_equal(got.cell, lifted.cell)
            assert np.array_equal(got.support, lifted.support)
            for name in ("weights", "F", "lo", "mass"):
                assert_close(getattr(got, name), getattr(lifted, name))
            assert np.array_equal(got.start, lifted.start)
            assert np.array_equal(got.stop, lifted.stop)
            assert got.mass.tobytes() == np.bincount(
                filtration.parent(1, 2), weights=level_laws(space, filtration, X, 2).mass,
                minlength=3).tobytes()

    def test_injected_later_risks(self, monkeypatch):
        """Later risks with ties and signed zeros fed to both checkers and
        their oracles; the earlier risks put one cell clearly below the
        bound, so the witness paths run, or every cell above it."""
        gen = np.random.default_rng(311)
        pool = np.asarray([-1.0, -0.0, 0.0, 0.25, 0.25, 2.0])
        trees = [later_cells_tree()[:2], tie_heavy_tree()[:2]]
        trees += [random_tree(gen, max_atoms=9) for _ in range(20)]
        psi = MinVar(2.0)
        seen = set()
        for space, filtration in trees:
            X = RandomVariable(np.zeros(space.n_atoms))
            H = filtration.horizon
            for t in range(H):
                for s in range(t + 1, H + 1):
                    rho_s = pool[gen.integers(0, pool.size, size=filtration.n_cells(s))]
                    later = RandomVariable(bruteforce.lift(filtration, s, rho_s))
                    # each checker's bound on rho_t
                    bounds = {
                        "check_submartingale":
                            bruteforce.conditional_expectation(space, filtration, later, t),
                        "middle_rejection_probe":
                            oracle_paid_out_risk(space, filtration, psi, t, s, rho_s),
                    }
                    k = int(gen.integers(0, filtration.n_cells(t)))
                    for checker, bound in bounds.items():
                        for below in (True, False):
                            offset = np.ones(bound.size)
                            offset[k] = -1.0 if below else 0.5
                            with monkeypatch.context() as m:
                                feed_risks(m, X, {t: bound + offset, s: rho_s})
                                got = getattr(consistency, checker)(
                                    space, filtration, X, psi, t, s)
                                want = getattr(bruteforce, checker)(
                                    space, filtration, X, psi, t, s)
                            self.assert_near(got, want)
                            assert got.verdict == ("violated" if below else "holds")
                            seen.add(checker)
                            if below:
                                assert got.witness["cell"] == k
        assert len(seen) == 2

    def test_warm_checkers_touch_no_atom(self, monkeypatch):
        """With both levels' laws kept, the checkers lift nothing, average
        nothing over atoms, and merge and order only the s-cells."""
        space, filtration, X = later_cells_tree()
        t, s = 1, 2
        n_later = filtration.n_cells(s)
        psi = ProportionalHazard(0.5)
        calls = [lambda: check_submartingale(space, filtration, X, psi, t, s),
                 lambda: middle_rejection_probe(space, filtration, X, psi, t, s)]
        before = [canonical(call()) for call in calls]
        sizes = []
        real_merge, real_rv = space_module._merge_ties, consistency.RandomVariable

        def merge(group, n_groups, Y, mass):
            sizes.append(group.size)
            return real_merge(group, n_groups, Y, mass)

        def random_variable(values):
            sizes.append(np.size(values))
            return real_rv(values)

        def refuse(*args):
            raise AssertionError("per-atom work")

        monkeypatch.setattr(space_module, "_merge_ties", merge)
        monkeypatch.setattr(consistency, "RandomVariable", random_variable)
        for name in ("lift", "conditional_expectation"):
            monkeypatch.setattr(consistency, name, refuse)
        assert [canonical(call()) for call in calls] == before
        assert sizes == [n_later, n_later]  # the paid-out risk and its merge

    def test_nonmiddle_probe_matches_lifted_witness(self):
        ce = build_nonmiddle_example()
        report = middle_rejection_probe(ce.space, ce.filtration, ce.X, ce.psi, 0, 1)
        assert report.verdict == "violated"
        Y = lift(ce.filtration, AdaptedValue(1, -ce.computed["rho_1"].cell_values))
        lifted = choquet(ce.space, ce.filtration, Y, 0, ce.psi).cell_values[0]
        assert abs(report.witness["rho_t_Y"] - lifted) <= ANALYTIC_TOL
        assert abs(report.witness["rho_t_Y"] - (2.0 * math.sqrt(2.0) - 2.0)) <= ANALYTIC_TOL


class TestCellMass:
    def test_mass_is_each_cells_probability(self, fixture_pool):
        trees = list(fixture_pool[::5]) + [tie_heavy_tree(), later_cells_tree()]
        for space, filtration, X in trees:
            for t in range(filtration.horizon + 1):
                laws = fresh_laws(space, filtration, X, t)
                want = np.bincount(filtration.cell_of_atom(t), weights=space.probabilities,
                                   minlength=filtration.n_cells(t))
                assert laws.mass.dtype == want.dtype
                assert laws.mass.tobytes() == want.tobytes()

    def test_mass_is_read_only(self):
        space, filtration, X = later_cells_tree()
        for laws in (fresh_laws(space, filtration, X, 2), level_laws(space, filtration, X, 2)):
            with pytest.raises(ValueError):
                laws.mass[0] = 0.0
