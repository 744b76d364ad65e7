"""Brute-force verifiers: exhaustive plan search and LP vertex enumeration."""

import random
from fractions import Fraction

import pytest

from cutplan import (
    INFEASIBLE,
    OPTIMAL,
    CutsetMatrix,
    LpProblem,
    SearchSpaceTooLarge,
    TooManyConstraints,
    brute_force_plan,
    enumerate_lp_vertices,
    solve_lp,
)

from conftest import asymmetric_matrix, names, plan_minimum, two_of_three_matrix

F = Fraction


class TestBruteForcePlan:
    def test_two_of_three_small_budget(self):
        result = brute_force_plan(two_of_three_matrix(), 3)
        assert result.best_n_min == 2
        assert result.witness_plans == ((1, 1, 1),)
        assert result.instances_searched <= 10

    def test_asymmetric_small_budget(self):
        result = brute_force_plan(asymmetric_matrix(), 5)
        assert result.best_n_min == 2
        assert (1, 1, 1, 0, 2) in result.witness_plans

    def test_zero_budget(self):
        result = brute_force_plan(asymmetric_matrix(), 0)
        assert result.best_n_min == 0
        assert result.witness_plans == ((0, 0, 0, 0, 0),)

    def test_search_space_cap(self):
        with pytest.raises(SearchSpaceTooLarge) as excinfo:
            brute_force_plan(asymmetric_matrix(), 20000)
        assert excinfo.value.count > excinfo.value.cap

    def test_witness_cap(self):
        # A single two-component cutset: every split of 40 tests ties.
        matrix = CutsetMatrix.from_index_sets(names(2), [(0, 1)])
        result = brute_force_plan(matrix, 40)
        assert result.best_n_min == 40
        assert len(result.witness_plans) == 32
        assert result.instances_searched == 41

    def test_witnesses_are_valid(self):
        matrix = asymmetric_matrix()
        result = brute_force_plan(matrix, 10)
        for plan in result.witness_plans:
            assert sum(plan) == 10
            assert plan_minimum(matrix.rows, plan) == result.best_n_min

    def test_small_budget_beats_floored_fraction_plan(self):
        # Recorded observation: below the smallest integer-exact total,
        # flooring the optimal fractions can waste the whole budget while an
        # exhaustive search still finds a nonzero minimum.
        from cutplan import optimize_fractions

        matrix = two_of_three_matrix()
        fp = optimize_fractions(matrix)
        budget = 2
        assert budget < fp.n_zero
        floored = tuple(int(f * budget) for f in fp.fractions)
        assert floored == (0, 0, 0)
        assert plan_minimum(matrix.rows, floored) == 0
        assert brute_force_plan(matrix, budget).best_n_min == 1


class TestVertexEnumeration:
    def test_asymmetric_relaxation(self):
        problem = LpProblem(
            cost=(F(1),) * 5,
            constraint_matrix=(
                (1, 1, 0, 0, 0),
                (0, 1, 1, 0, 0),
                (1, 0, 1, 1, 0),
                (0, 0, 0, 0, 1),
            ),
            rhs=(F(1),) * 4,
        )
        result = enumerate_lp_vertices(problem)
        assert result.status == OPTIMAL
        assert result.objective == F(5, 2)

    def test_two_of_three_relaxation(self):
        problem = LpProblem(
            cost=(F(1),) * 3,
            constraint_matrix=((1, 1, 0), (1, 0, 1), (0, 1, 1)),
            rhs=(F(1),) * 3,
        )
        assert enumerate_lp_vertices(problem).objective == F(3, 2)

    def test_one_by_one(self):
        problem = LpProblem(cost=(F(1),), constraint_matrix=((F(1),),), rhs=(F(1),))
        assert enumerate_lp_vertices(problem).objective == F(1)

    def test_infeasible_zero_row(self):
        problem = LpProblem(cost=(F(1),), constraint_matrix=((F(0),),), rhs=(F(1),))
        assert enumerate_lp_vertices(problem).status == INFEASIBLE

    def test_constraint_limit(self):
        problem = LpProblem(
            cost=(F(1),) * 10,
            constraint_matrix=tuple(
                tuple(F(1) if i == j else F(0) for j in range(10)) for i in range(10)
            ),
            rhs=(F(1),) * 10,
        )
        with pytest.raises(TooManyConstraints):
            enumerate_lp_vertices(problem)

    def test_agreement_with_simplex(self):
        rng = random.Random(99)
        optimal_seen = infeasible_seen = 0
        for _ in range(60):
            s = rng.randint(1, 4)
            m = rng.randint(1, 4)
            rows = tuple(
                tuple(F(rng.randint(0, 1)) for _ in range(m)) for _ in range(s)
            )
            problem = LpProblem(cost=(F(1),) * m, constraint_matrix=rows, rhs=(F(1),) * s)
            slow = enumerate_lp_vertices(problem)
            fast = solve_lp(problem)
            assert slow.status == fast.status
            if slow.status == OPTIMAL:
                optimal_seen += 1
                assert slow.objective == fast.objective
            else:
                infeasible_seen += 1
        assert optimal_seen and infeasible_seen

    def test_int_problem_stays_exact(self):
        # LpProblem keeps int entries; the reference must still divide exactly.
        rng = random.Random(31)
        for _ in range(40):
            s = rng.randint(1, 4)
            m = rng.randint(1, 4)
            rows = tuple(tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(s))
            cost = tuple(rng.randint(1, 3) for _ in range(m))
            problem = LpProblem(cost=cost, constraint_matrix=rows, rhs=tuple(rng.randint(1, 3) for _ in range(s)))
            assert problem.constraint_matrix == rows and all(type(c) is int for c in problem.cost)
            slow = enumerate_lp_vertices(problem)
            fast = solve_lp(problem)
            assert slow.status == fast.status
            if slow.status == OPTIMAL:
                assert all(type(v) is F for v in (slow.objective, *slow.variables))
                assert slow.objective == fast.objective
