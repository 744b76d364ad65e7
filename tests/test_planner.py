"""Planner: optimal fractions, integer scaling, bounds, path-strategy check."""

import math
from fractions import Fraction

import pytest

from cutplan import (
    BudgetTooSmall,
    CutsetMatrix,
    FractionPlan,
    InputError,
    IntegerPlan,
    InternalInvariantError,
    InvalidAlpha,
    brute_force_plan,
    confidence_bound,
    evaluate_plan,
    find_n_zero,
    integer_plan,
    min_cutset_tests,
    optimize_fractions,
    shortest_path_check,
)

from conftest import (
    asymmetric_matrix,
    names,
    plan_minimum,
    series_matrix,
    slow_n_zero,
    two_of_three_matrix,
)

F = Fraction


class TestOptimizeFractions:
    def test_asymmetric_five(self):
        fp = optimize_fractions(asymmetric_matrix())
        assert fp.fractions == (F(1, 5), F(1, 5), F(1, 5), F(0), F(2, 5))
        assert fp.cutset_fraction == F(2, 5)
        assert fp.n_zero == 5
        assert not fp.multiple_optima

    def test_two_of_three(self):
        fp = optimize_fractions(two_of_three_matrix())
        assert fp.fractions == (F(1, 3), F(1, 3), F(1, 3))
        assert fp.cutset_fraction == F(2, 3)
        assert fp.n_zero == 3

    def test_single_component(self):
        fp = optimize_fractions(series_matrix(1))
        assert fp.fractions == (F(1),)
        assert fp.cutset_fraction == F(1)
        assert fp.n_zero == 1

    def test_series_of_four(self):
        fp = optimize_fractions(series_matrix(4))
        assert fp.fractions == (F(1, 4),) * 4
        assert fp.cutset_fraction == F(1, 4)
        assert fp.n_zero == 4

    def test_exact_identities_over_corpus(self, corpus_structures):
        for label, matrix in corpus_structures:
            fp = optimize_fractions(matrix)
            assert sum(fp.fractions) == 1, label
            totals = [
                sum(f for j, f in enumerate(fp.fractions) if row >> j & 1) for row in matrix.rows
            ]
            assert min(totals) == fp.cutset_fraction, label


class TestFindNZero:
    def test_known_values(self):
        assert find_n_zero((F(1, 5), F(1, 5), F(1, 5), F(0), F(2, 5))) == 5
        assert find_n_zero((F(1, 3), F(1, 3), F(1, 3))) == 3
        assert find_n_zero((F(1, 6), F(1, 10), F(11, 15))) == 30

    def test_agrees_with_increment_search(self):
        import random

        rng = random.Random(7)
        for _ in range(30):
            length = rng.randint(1, 3)
            fractions = [
                F(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(length)
            ]
            assert find_n_zero(fractions) == slow_n_zero(fractions)


class TestIntegerPlan:
    def test_worked_example_budget(self):
        fp = optimize_fractions(asymmetric_matrix())
        plan = integer_plan(fp, 20003, cutsets=asymmetric_matrix())
        assert plan.n == (4000, 4000, 4000, 0, 8000)
        assert plan.n_minus == 20000
        assert plan.n_plus == 20005
        assert plan.n_min == 8000
        assert plan.remainder == 3
        assert not plan.remainder_distributed

    def test_small_budget_scales_fractions(self):
        matrix = asymmetric_matrix()
        plan = integer_plan(optimize_fractions(matrix), 5, cutsets=matrix)
        assert plan.n == (1, 1, 1, 0, 2)
        assert plan.n_min == 2
        assert plan.remainder == 0
        assert plan_minimum(matrix.rows, plan.n) == 2

    def test_single_component(self):
        fp = FractionPlan(counts=(1,), n_zero=1, cutset_tests=1)
        plan = integer_plan(fp, 7)
        assert plan.n == (7,)
        assert plan.n_min == 7

    def test_budget_below_n_zero(self):
        fp = optimize_fractions(asymmetric_matrix())
        with pytest.raises(BudgetTooSmall) as excinfo:
            integer_plan(fp, 3)
        assert excinfo.value.n_zero == 5
        assert "smallest usable total is 5" in str(excinfo.value)

    def test_plan_without_matrix_uses_fractions_only(self):
        # Replanning from a cached fraction plan must not need the matrix.
        fp = optimize_fractions(asymmetric_matrix())
        bare = integer_plan(fp, 20003)
        full = integer_plan(fp, 20003, cutsets=asymmetric_matrix())
        assert bare == full

    def test_distribute_remainder(self):
        matrix = asymmetric_matrix()
        fp = optimize_fractions(matrix)
        plan = integer_plan(fp, 20003, cutsets=matrix, distribute_remainder=True)
        assert sum(plan.n) == 20003
        assert plan.n == (4001, 4001, 4001, 0, 8000)
        assert plan.remainder == 3
        assert plan.remainder_distributed
        assert plan.n_min == plan_minimum(matrix.rows, plan.n)
        assert plan.n_min >= 8000

    def test_distribute_remainder_requires_matrix(self):
        fp = optimize_fractions(asymmetric_matrix())
        with pytest.raises(InputError):
            integer_plan(fp, 20003, distribute_remainder=True)

    def test_n_min_matches_guarantee_exactly(self, corpus_structures):
        for label, matrix in corpus_structures:
            fp = optimize_fractions(matrix)
            for multiple in (1, 2, 3):
                total = fp.n_zero * multiple
                plan = integer_plan(fp, total, cutsets=matrix)
                assert plan.n_min == fp.cutset_fraction * total, label

    def test_n_min_nondecreasing_in_budget(self):
        matrix = asymmetric_matrix()
        fp = optimize_fractions(matrix)
        values = [
            integer_plan(fp, total, cutsets=matrix).n_min for total in range(5, 60)
        ]
        assert values == sorted(values)

    @pytest.mark.parametrize("n", [(1.5,), (True,), (-1,)])
    def test_integer_plan_counts_must_be_ints(self, n):
        with pytest.raises(InputError):
            IntegerPlan(n=n, n_total_requested=1, n_minus=1, n_plus=2, n_min=1, remainder=0)

    def test_integer_arithmetic_matches_the_fractions(self, corpus_structures):
        # The plan is kept in integers; the fractions it stands for must give
        # the same N0, the same counts and the same guarantee.
        for label, matrix in corpus_structures:
            fp = optimize_fractions(matrix)
            assert fp.n_zero == slow_n_zero(fp.fractions), label
            for total in (fp.n_zero + 1, 7 * fp.n_zero - 1, 10**6 + 3):
                for cutsets in (None, matrix):
                    plan = integer_plan(fp, total, cutsets=cutsets)
                    assert list(plan.n) == [f * plan.n_minus for f in fp.fractions], label
                    assert plan.n_min == fp.cutset_fraction * plan.n_minus, label

    def test_optimal_at_usable_total(self, corpus_structures):
        # At any multiple of n_zero no integer allocation beats the plan.
        for label, matrix in corpus_structures:
            if matrix.m > 5:
                continue
            fp = optimize_fractions(matrix)
            total = fp.n_zero * max(1, min(3, 12 // fp.n_zero))
            if total > 40:
                continue
            oracle = brute_force_plan(matrix, total)
            assert oracle.best_n_min == fp.cutset_fraction * total, label


class TestConfidenceBound:
    def test_worked_example_value(self):
        bound = confidence_bound(8000, 0.05)
        expected = math.log(20.0) / 8000.0
        assert math.isclose(bound.q_upper, expected, rel_tol=1e-12)

    def test_clamped_at_one(self):
        assert confidence_bound(1, 0.05).q_upper == 1.0
        assert confidence_bound(0, 0.05).q_upper == 1.0
        assert confidence_bound(0, 0.999).q_upper == 1.0

    def test_alpha_validation(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidAlpha):
                confidence_bound(10, alpha)

    def test_monotone_in_n_min_and_alpha(self):
        values = [confidence_bound(n, 0.05).q_upper for n in range(1, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        by_alpha = [confidence_bound(100, a).q_upper for a in (0.01, 0.05, 0.10, 0.5)]
        assert all(a >= b for a, b in zip(by_alpha, by_alpha[1:]))


class TestAuditAndPathCheck:
    def test_evaluate_arbitrary_plan(self):
        matrix = asymmetric_matrix()
        # Nothing on C5 leaves one cutset untested: the bound degrades to 1.
        starved = evaluate_plan(matrix, (1, 1, 1, 1, 0), 0.05)
        assert starved.n_min == 0
        assert starved.q_upper == 1.0
        assert min_cutset_tests(matrix, (4000, 4000, 4000, 0, 8000)) == 8000

    @pytest.mark.parametrize("counts", [(0.5, 2.5), (1.0, 2), (True, 2)])
    def test_evaluate_rejects_counts_that_are_not_ints(self, counts):
        with pytest.raises(InputError):
            evaluate_plan(series_matrix(2), counts, 0.05)

    def test_path_check_asymmetric(self):
        matrix = asymmetric_matrix()
        check = shortest_path_check(optimize_fractions(matrix), matrix)
        assert check.shortest_path_length == 3
        assert check.path_fraction == F(1, 3)
        assert check.gap == F(2, 5) - F(1, 3)

    def test_path_check_two_of_three(self):
        matrix = two_of_three_matrix()
        check = shortest_path_check(optimize_fractions(matrix), matrix)
        assert check.shortest_path_length == 2
        assert check.cutset_fraction == F(2, 3)

    def test_path_bound_tight_for_series(self):
        for m in (1, 2, 4):
            matrix = series_matrix(m)
            check = shortest_path_check(optimize_fractions(matrix), matrix)
            assert check.shortest_path_length == m
            assert check.gap == 0

    def test_inconsistent_fraction_plan_detected(self):
        # A plan whose g = 1/4 falls below the path floor 1/2 trips the check.
        fake = FractionPlan(counts=(1, 3), n_zero=4, cutset_tests=1)
        matrix = CutsetMatrix.from_index_sets(names(2), [(0,), (1,)])
        with pytest.raises(InternalInvariantError):
            shortest_path_check(fake, matrix)


class TestFractionPlanValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(InputError):
            FractionPlan(counts=(1,), n_zero=2, cutset_tests=1)

    @pytest.mark.parametrize("cutset_tests", [0, 3])
    def test_cutset_tests_must_lie_in_the_total(self, cutset_tests):
        with pytest.raises(InputError):
            FractionPlan(counts=(1, 1), n_zero=2, cutset_tests=cutset_tests)

    def test_n_zero_must_match_denominators(self):
        with pytest.raises(InputError):
            FractionPlan(counts=(2, 2), n_zero=4, cutset_tests=2)
