"""Independent brute-force verifiers for the planner and the LP solver.

Both searches are intentionally exhaustive: they establish ground truth on
desk-sized instances for the test suite and the CLI audit mode, and share no
code with the paths they check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, SearchSpaceTooLarge, TooManyConstraints
from .simplex import INFEASIBLE, OPTIMAL, LpProblem, LpSolution
from .structure import CutsetMatrix

DEFAULT_ALLOCATION_CAP = 50_000_000
DEFAULT_WITNESS_CAP = 32
DEFAULT_CONSTRAINT_LIMIT = 18


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive optimum over integer allocations of a fixed test total."""

    best_n_min: int
    witness_plans: tuple[tuple[int, ...], ...]
    instances_searched: int


def brute_force_plan(
    cutsets: CutsetMatrix,
    n_total: int,
    allocation_cap: int = DEFAULT_ALLOCATION_CAP,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> OracleResult:
    """Maximize the minimum cutset test count over every integer allocation.

    Enumerates all ways to split ``n_total`` tests over the components
    (stars-and-bars recursion in lexicographic order), pruning branches whose
    best completable value already falls below the incumbent; pruning never
    discards a tying branch, so the optimum and its witnesses stay exact.
    """
    if n_total < 0:
        raise InputError("test total must be nonnegative")
    m = cutsets.m
    count = math.comb(n_total + m - 1, m - 1)
    if count > allocation_cap:
        raise SearchSpaceTooLarge(count, allocation_cap)

    rows = cutsets.rows
    # A row can still gain tests while components up to its largest member
    # remain unassigned.
    row_max = [row.bit_length() - 1 for row in rows]

    best = -1
    witnesses: list[tuple[int, ...]] = []
    searched = 0
    prefix = [0] * m
    row_sums = [0] * len(rows)

    def leaf():
        nonlocal best, searched
        searched += 1
        value = min(row_sums)
        if value > best:
            best = value
            witnesses.clear()
        if value == best and len(witnesses) < witness_cap:
            witnesses.append(tuple(prefix))

    def assign(j: int, remaining: int):
        if j == m - 1:
            prefix[j] = remaining
            touched = [i for i, row in enumerate(rows) if row >> j & 1]
            for i in touched:
                row_sums[i] += remaining
            leaf()
            for i in touched:
                row_sums[i] -= remaining
            prefix[j] = 0
            return
        reachable = min(
            row_sums[i] + (remaining if row_max[i] >= j else 0)
            for i in range(len(rows))
        )
        if reachable < best:
            return
        touched = [i for i, row in enumerate(rows) if row >> j & 1]
        for value in range(remaining + 1):
            prefix[j] = value
            for i in touched:
                row_sums[i] += value
            assign(j + 1, remaining - value)
            for i in touched:
                row_sums[i] -= value
        prefix[j] = 0

    assign(0, n_total)
    return OracleResult(
        best_n_min=best,
        witness_plans=tuple(witnesses),
        instances_searched=searched,
    )


def enumerate_lp_vertices(
    problem: LpProblem,
    constraint_limit: int = DEFAULT_CONSTRAINT_LIMIT,
) -> LpSolution:
    """Exact LP optimum by enumerating every basic solution.

    Each choice of num_vars tight constraints (from the rows and the
    nonnegativity bounds) is solved as a square linear system with its own
    Gaussian elimination; feasible solutions are ranked by exact objective.
    Assumes the objective is bounded below on the feasible region, which holds
    for the nonnegative costs used throughout this package.
    """
    s = problem.num_rows
    m = problem.num_vars
    if s + m > constraint_limit:
        raise TooManyConstraints(
            "vertex enumeration handles at most %d constraints, got %d"
            % (constraint_limit, s + m)
        )

    zero = Fraction(0)
    # Constraint pool, in Fractions: row i tight (A_i.x = b_i), then bound j tight (x_j = 0).
    pool = [(tuple(map(Fraction, row)), Fraction(b)) for row, b in zip(problem.constraint_matrix, problem.rhs)]
    for j in range(m):
        unit = [zero] * m
        unit[j] = Fraction(1)
        pool.append((tuple(unit), zero))

    best_obj = None
    best_x = None
    for combo in itertools.combinations(range(s + m), m):
        matrix = [list(pool[k][0]) for k in combo]
        rhs = [pool[k][1] for k in combo]
        x = _solve_square(matrix, rhs)
        if x is None:
            continue
        if any(xj < 0 for xj in x):
            continue
        feasible = all(
            sum(v * xj for v, xj in zip(row, x)) >= bi
            for row, bi in zip(problem.constraint_matrix, problem.rhs)
        )
        if not feasible:
            continue
        obj = sum((cj * xj for cj, xj in zip(problem.cost, x)), zero)
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_x = tuple(x)
    if best_obj is None:
        return LpSolution(status=INFEASIBLE)
    return LpSolution(status=OPTIMAL, objective=best_obj, variables=best_x)


def _solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Exact solution of a square system, or None when singular."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]
