"""From minimal cutsets to an optimal integer test plan and its pfd bound.

The continuous relaxation maximizes the test fraction g guaranteed to every
minimal cutset.  Writing h = f/g and H = 1/g turns that into the linear
program   minimize sum(h)  subject to  Y.h >= 1,  h >= 0,   whose exact
optimum recovers the per-component fractions f = h/H and g = 1/H.  Scaled to
coprime integers, h is the plan at the smallest integer-exact total N0: it
sums to N0 and gives every minimal cutset at least g*N0 tests.  It depends
only on the structure, so it is computed once and reused; k times it is the
plan for k*N0 tests.  Fractions are built only to report or store the plan.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BudgetTooSmall,
    InputError,
    InternalInvariantError,
    InvalidAlpha,
)
from .simplex import OPTIMAL, LpProblem, solve_lp
from .structure import CutsetMatrix, shortest_path_length

log = logging.getLogger("cutplan.planner")


def _check_counts(counts: Sequence[int]):
    """Test counts are nonnegative ints; a bool or a float is not a count."""
    if not all(type(c) is int and c >= 0 for c in counts):
        raise InputError("test counts must be nonnegative ints")


@dataclass(frozen=True)
class FractionPlan:
    """Optimal test plan for a structure, independent of any budget.

    Component j gets ``counts[j]`` of the ``n_zero`` tests of the plan at the
    smallest integer-exact total, and every minimal cutset at least
    ``cutset_tests`` (with equality on at least one row, checked where the
    matrix is available).  ``fractions`` and ``cutset_fraction`` (g) are the
    same plan as exact shares of the total.
    """

    counts: tuple[int, ...]
    n_zero: int
    cutset_tests: int
    multiple_optima: bool = False

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        _check_counts((*self.counts, self.n_zero, self.cutset_tests))
        if sum(self.counts) != self.n_zero:
            raise InputError("test counts must sum to n_zero")
        # Also rejects an empty plan, whose n_zero would have to be 0.
        if math.gcd(self.n_zero, *self.counts) != 1:
            raise InputError("n_zero must be the smallest total at which the plan is whole")
        if not 0 < self.cutset_tests <= self.n_zero:
            raise InputError("cutset tests must lie in (0, n_zero]")

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n_zero) for c in self.counts)

    @property
    def cutset_fraction(self) -> Fraction:
        return Fraction(self.cutset_tests, self.n_zero)


@dataclass(frozen=True)
class IntegerPlan:
    """Integer test counts for a concrete budget.

    ``n_minus`` is the largest multiple of the plan's n_zero not exceeding the
    requested total and ``n_plus`` the next one above it; ``remainder`` tests
    are left unallocated unless the caller asked to distribute them.  ``n_min``
    is the minimum, over minimal cutsets, of the tests landing inside the
    cutset, computed from the emitted allocation.
    """

    n: tuple[int, ...]
    n_total_requested: int
    n_minus: int
    n_plus: int
    n_min: int
    remainder: int
    remainder_distributed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(self.n))
        _check_counts(self.n)
        allocated = self.n_minus + (self.remainder if self.remainder_distributed else 0)
        if sum(self.n) != allocated:
            raise InternalInvariantError("allocation does not sum to the planned total")


@dataclass(frozen=True)
class BoundResult:
    """Conservative upper confidence bound on system pfd.

    q_upper = min(ln(1/alpha) / n_min, 1), clamped to 1 when n_min is 0.
    The only floating-point value in the pipeline.
    """

    alpha: float
    n_min: int
    q_upper: float


@dataclass(frozen=True)
class PathStrategyCheck:
    """Optimal cutset fraction versus the single-shortest-path strategy.

    Splitting all tests over one shortest success path of length P guarantees
    each cutset only N/P tests, so ``path_fraction`` is 1/P; the optimum can
    never fall below it, and ``gap`` is the exact margin g - 1/P.
    """

    shortest_path_length: int
    cutset_fraction: Fraction
    path_fraction: Fraction
    gap: Fraction


def optimize_fractions(cutsets: CutsetMatrix) -> FractionPlan:
    """Solve the continuous relaxation exactly and return the optimal plan at N0."""
    rows = tuple(tuple(row >> j & 1 for j in range(cutsets.m)) for row in cutsets.rows)
    problem = LpProblem(cost=(1,) * cutsets.m, constraint_matrix=rows, rhs=(1,) * cutsets.s)
    solution = solve_lp(problem)
    if solution.status != OPTIMAL:
        # h = (1,...,1) is always feasible (every row has a member) and the
        # objective is bounded below by zero, so anything else is a bug.
        raise InternalInvariantError("relaxation reported %s" % solution.status)
    log.info(
        "solved the %dx%d relaxation in %d pivots (largest tableau integer: %d bits)",
        cutsets.s,
        cutsets.m,
        solution.pivots,
        solution.max_bits,
    )
    # h times the lcm L of its denominators is the plan at N0, and g = 1/H.
    # Its counts are coprime: a prime dividing all of them would divide the
    # total L of a tight row, yet some h_j has its full power in its denominator.
    scale = math.lcm(*(hj.denominator for hj in solution.variables))
    counts = [hj.numerator * (scale // hj.denominator) for hj in solution.variables]
    n_zero = sum(counts)
    cutset_tests = min_cutset_tests(cutsets, counts)
    if cutset_tests * solution.objective.numerator != n_zero * solution.objective.denominator:
        raise InternalInvariantError("minimum cutset fraction does not equal g")
    return FractionPlan(
        counts=counts, n_zero=n_zero, cutset_tests=cutset_tests, multiple_optima=solution.multiple_optima
    )


def find_n_zero(fractions: Sequence[Fraction]) -> int:
    """Smallest positive integer scaling every fraction to an integer.

    Fractions are kept in lowest terms, so this is the lcm of their
    denominators; identical to incrementing a candidate total until all
    products are integer, but O(m).
    """
    return math.lcm(*(Fraction(f).denominator for f in fractions))


def min_cutset_tests(cutsets: CutsetMatrix, n: Sequence[int]) -> int:
    """Minimum over minimal cutsets of the tests allocated inside the cutset.

    Valid for any integer allocation, not just plans produced here; this is
    the quantity the confidence bound is driven by.
    """
    if len(n) != cutsets.m:
        raise InputError("allocation length must match the number of components")
    _check_counts(n)
    return min(sum(n[j] for j in cutsets.row_members(i)) for i in range(cutsets.s))


def integer_plan(
    fp: FractionPlan,
    n_requested: int,
    cutsets: CutsetMatrix | None = None,
    distribute_remainder: bool = False,
) -> IntegerPlan:
    """Scale the plan at N0 to an integer plan for a concrete budget.

    The budget holds k = N // N0 copies of the plan at N0, so cached plans
    replan new budgets without re-solving.  The remainder below the next
    integer-exact total cannot raise the guaranteed minimum, so it stays
    unallocated unless ``distribute_remainder`` hands it out round-robin
    (which requires the matrix to recompute ``n_min`` from the emitted plan).
    """
    if n_requested < 1:
        raise InputError("requested test total must be positive")
    if n_requested < fp.n_zero:
        raise BudgetTooSmall(n_requested, fp.n_zero)
    if cutsets is not None and cutsets.m != len(fp.counts):
        raise InputError("cutset matrix and fraction plan disagree on component count")

    k, remainder = divmod(n_requested, fp.n_zero)
    counts = [k * c for c in fp.counts]

    distributed = False
    if distribute_remainder and remainder:
        if cutsets is None:
            raise InputError("distributing the remainder requires the cutset matrix")
        for i in range(remainder):
            counts[i % len(counts)] += 1
        distributed = True

    guaranteed = k * fp.cutset_tests
    if cutsets is not None:
        achieved = min_cutset_tests(cutsets, counts)
        if not distributed and achieved != guaranteed:
            raise InternalInvariantError("plan does not achieve g times the usable total")
        if distributed and achieved < guaranteed:
            raise InternalInvariantError("distributing spare tests lowered the minimum")
        n_min = achieved
    else:
        n_min = guaranteed

    return IntegerPlan(
        n=tuple(counts),
        n_total_requested=n_requested,
        n_minus=k * fp.n_zero,
        n_plus=(k + 1) * fp.n_zero,
        n_min=n_min,
        remainder=remainder,
        remainder_distributed=distributed,
    )


def confidence_bound(n_min: int, alpha: float) -> BoundResult:
    """Upper confidence bound on system pfd after n_min failure-free cutset tests."""
    if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise InvalidAlpha("alpha must lie strictly between 0 and 1, got %r" % (alpha,))
    if n_min < 0:
        raise InputError("n_min must be nonnegative")
    if n_min == 0:
        q_upper = 1.0
    else:
        q_upper = min(math.log(1.0 / alpha) / n_min, 1.0)
    return BoundResult(alpha=float(alpha), n_min=n_min, q_upper=q_upper)


def evaluate_plan(cutsets: CutsetMatrix, n: Sequence[int], alpha: float) -> BoundResult:
    """Audit an arbitrary user-supplied allocation: its n_min and pfd bound."""
    return confidence_bound(min_cutset_tests(cutsets, n), alpha)


def shortest_path_check(fp: FractionPlan, cutsets: CutsetMatrix) -> PathStrategyCheck:
    """Verify g >= 1/P exactly and report the margin over the path strategy."""
    p = shortest_path_length(cutsets)
    g = fp.cutset_fraction
    if fp.cutset_tests * p < fp.n_zero:
        raise InternalInvariantError(
            "optimal cutset fraction %s fell below the shortest-path floor 1/%d" % (g, p)
        )
    path_fraction = Fraction(1, p)
    return PathStrategyCheck(
        shortest_path_length=p,
        cutset_fraction=g,
        path_fraction=path_fraction,
        gap=g - path_fraction,
    )
