"""From minimal cutsets to an optimal integer test plan and its pfd bound.

The continuous relaxation maximizes the test fraction g guaranteed to every
minimal cutset.  Writing h = f/g and H = 1/g turns that into the linear
program   minimize sum(h)  subject to  Y.h >= 1,  h >= 0,   whose exact
optimum recovers the per-component fractions f = h/H and g = 1/H.  The
fractions depend only on the structure, so they are computed once and reused:
scaling by any multiple of the smallest integer-exact total N0 yields an
integer plan whose minimum cutset test count is exactly g times the total.
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


@dataclass(frozen=True)
class FractionPlan:
    """Optimal test fractions for a structure, independent of any budget.

    ``fractions[j]`` is the share of all tests component j receives,
    ``cutset_fraction`` is the share g that every minimal cutset is guaranteed
    (Y.f >= g holds with equality on at least one row, checked where the
    matrix is available), and ``n_zero`` is the smallest positive total at
    which every fractions[j] * total is an integer.
    """

    fractions: tuple[Fraction, ...]
    cutset_fraction: Fraction
    n_zero: int
    multiple_optima: bool = False

    def __post_init__(self):
        fractions = tuple(Fraction(f) for f in self.fractions)
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "cutset_fraction", Fraction(self.cutset_fraction))
        if not fractions:
            raise InputError("a fraction plan needs at least one component")
        if any(f < 0 for f in fractions):
            raise InputError("test fractions must be nonnegative")
        if sum(fractions) != 1:
            raise InputError("test fractions must sum to exactly 1")
        if not 0 < self.cutset_fraction <= 1:
            raise InputError("cutset fraction must lie in (0, 1]")
        if self.n_zero != find_n_zero(fractions):
            raise InputError("n_zero must be the least common denominator of the fractions")


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
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if any(v < 0 for v in self.n):
            raise InputError("test counts must be nonnegative")
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
    """Solve the continuous relaxation exactly and return the optimal fractions."""
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
    big_h = solution.objective
    if big_h < 1:
        raise InternalInvariantError("relaxation objective fell below 1")
    fractions = tuple(hj / big_h for hj in solution.variables)
    fp = FractionPlan(
        fractions=fractions,
        cutset_fraction=1 / big_h,
        n_zero=find_n_zero(fractions),
        multiple_optima=solution.multiple_optima,
    )
    if not _achieves_g(fp, cutsets):
        raise InternalInvariantError("minimum cutset fraction does not equal g")
    return fp


def _achieves_g(fp: FractionPlan, cutsets: CutsetMatrix) -> bool:
    """Whether the plan fits the matrix: min over cutsets of Y.f is exactly g.

    Checked in integers on the counts f * n_zero, which n_zero makes whole.
    """
    counts = [f.numerator * (fp.n_zero // f.denominator) for f in fp.fractions]
    return len(counts) == cutsets.m and min_cutset_tests(cutsets, counts) == fp.cutset_fraction * fp.n_zero


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
    if any(v < 0 for v in n):
        raise InputError("test counts must be nonnegative")
    return min(sum(n[j] for j in cutsets.row_members(i)) for i in range(cutsets.s))


def integer_plan(
    fp: FractionPlan,
    n_requested: int,
    cutsets: CutsetMatrix | None = None,
    distribute_remainder: bool = False,
) -> IntegerPlan:
    """Scale the optimal fractions to an integer plan for a concrete budget.

    Only (fractions, cutset_fraction, n_zero) are needed, so cached fraction
    plans replan new budgets without re-solving.  The remainder below the next
    integer-exact total cannot raise the guaranteed minimum, so it stays
    unallocated unless ``distribute_remainder`` hands it out round-robin
    (which requires the matrix to recompute ``n_min`` from the emitted plan).
    """
    if n_requested < 1:
        raise InputError("requested test total must be positive")
    if n_requested < fp.n_zero:
        raise BudgetTooSmall(n_requested, fp.n_zero)
    if cutsets is not None and cutsets.m != len(fp.fractions):
        raise InputError("cutset matrix and fraction plan disagree on component count")

    remainder = n_requested % fp.n_zero
    n_minus = n_requested - remainder
    counts = []
    for f in fp.fractions:
        scaled = f * n_minus
        if scaled.denominator != 1:
            raise InternalInvariantError("scaled fraction is not integer at a multiple of n_zero")
        counts.append(int(scaled))

    distributed = False
    if distribute_remainder and remainder:
        if cutsets is None:
            raise InputError("distributing the remainder requires the cutset matrix")
        for k in range(remainder):
            counts[k % len(counts)] += 1
        distributed = True

    guaranteed = fp.cutset_fraction * n_minus
    if guaranteed.denominator != 1:
        raise InternalInvariantError("guaranteed minimum is not integer at a multiple of n_zero")
    guaranteed = int(guaranteed)

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
        n_minus=n_minus,
        n_plus=n_minus + fp.n_zero,
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
    path_fraction = Fraction(1, p)
    if fp.cutset_fraction < path_fraction:
        raise InternalInvariantError(
            "optimal cutset fraction %s fell below the shortest-path floor 1/%d"
            % (fp.cutset_fraction, p)
        )
    return PathStrategyCheck(
        shortest_path_length=p,
        cutset_fraction=fp.cutset_fraction,
        path_fraction=path_fraction,
        gap=fp.cutset_fraction - path_fraction,
    )
