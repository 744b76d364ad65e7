"""Exact two-phase simplex for small dense linear programs.

Solves   minimize c.x   subject to   A.x >= b,  x >= 0
exactly: no tolerances exist anywhere in this module, so optima, tight
constraints, and dual certificates are exact.  Pivoting uses Bland's
smallest-index rule, which guarantees termination and makes the returned basic
optimum a deterministic function of the input.

Every row gets a surplus and an artificial variable; phase 1 drives the
artificials to zero (or proves infeasibility), phase 2 optimizes the true
cost.  Artificials never re-enter the basis, and the optimal dual multipliers
are the reduced costs of the surplus columns.  Each optimal solve is
self-checked: primal feasibility, the dual certificate (y >= 0, A'y <= c), and
strong duality (b.y == c.x) are asserted exactly, in integers.

The tableau is integer-preserving (Bareiss/Edmonds elimination).  Each
constraint row, and the cost vector, is scaled to integers by the lcm of its
denominators, and the tableau is held as integers over one common denominator
d, the determinant of the current basis up to sign.  A pivot on entry p turns
every other entry v into (p*v - f*w) / d, where f is the entry of v's row in
the pivot column and w the entry of the pivot row in v's column; the division
is always exact.  Then d = p, with the whole tableau negated if that made d
negative.  Divided by d, a row not yet pivoted is L_i times its row in the
rational tableau (L_i > 0 its scale), a pivoted row equals its rational row,
and the objective rows are positive multiples of the reduced costs.  So every
sign, zero test and ratio comparison (done by cross-multiplying) agrees with
the rational tableau: the pivot sequence, and hence the solution, is the same.
Int and Fraction entries are kept as given, other values become Fractions;
Fractions are only read to scale the input and built for the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Sequence

from .errors import InputError, InternalInvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _as_exact_vector(values: Sequence) -> tuple[int | Fraction, ...]:
    return tuple(v if type(v) in (int, Fraction) else Fraction(v) for v in values)


@dataclass(frozen=True)
class LpProblem:
    """minimize cost.x  subject to  constraint_matrix.x >= rhs,  x >= 0."""

    cost: tuple[int | Fraction, ...]
    constraint_matrix: tuple[tuple[int | Fraction, ...], ...]
    rhs: tuple[int | Fraction, ...]

    def __post_init__(self):
        cost = _as_exact_vector(self.cost)
        matrix = tuple(_as_exact_vector(row) for row in self.constraint_matrix)
        rhs = _as_exact_vector(self.rhs)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "constraint_matrix", matrix)
        object.__setattr__(self, "rhs", rhs)
        if not cost:
            raise InputError("problem needs at least one variable")
        if not matrix:
            raise InputError("problem needs at least one constraint row")
        if len(rhs) != len(matrix):
            raise InputError("rhs length must match the number of constraint rows")
        if any(len(row) != len(cost) for row in matrix):
            raise InputError("every constraint row must have one entry per variable")

    @property
    def num_rows(self) -> int:
        return len(self.constraint_matrix)

    @property
    def num_vars(self) -> int:
        return len(self.cost)


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve.

    ``objective``/``variables`` are exact rationals when ``status`` is
    ``optimal`` and None otherwise.  ``dual`` holds one multiplier per
    constraint row; it certifies optimality via strong duality.
    ``multiple_optima`` flags a zero reduced cost on a nonbasic column at the
    optimum, meaning other optimal vertices may exist.

    ``pivots`` (every pivot of both phases) and ``max_bits`` (bit length of
    the largest integer the tableau held) describe the work done; they take
    no part in comparing solutions.
    """

    status: str
    objective: Fraction | None = None
    variables: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    multiple_optima: bool = False
    pivots: int = field(default=0, compare=False)
    max_bits: int = field(default=0, compare=False)


def _scaled(values: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """The lcm L of the denominators (a common denominator) and the integers L*v."""
    scale = math.lcm(*[v.denominator for v in values])
    return scale, [v.numerator * (scale // v.denominator) for v in values]


@dataclass(frozen=True)
class _IntegerProblem:
    """The problem with row i multiplied by row_scales[i] and the cost by cost_scale."""

    rows: list[list[int]]
    rhs: list[int]
    row_scales: list[int]
    cost: list[int]
    cost_scale: int

    @classmethod
    def of(cls, problem: LpProblem) -> "_IntegerProblem":
        rows, rhs, scales = [], [], []
        for row, b in zip(problem.constraint_matrix, problem.rhs):
            scale, ints = _scaled((*row, b))
            scales.append(scale)
            rhs.append(ints.pop())
            rows.append(ints)
        cost_scale, cost = _scaled(problem.cost)
        return cls(rows, rhs, scales, cost, cost_scale)


def _bits(rows: list[list[int]]) -> int:
    """Bit length of the largest magnitude in the rows."""
    return max(map(abs, chain.from_iterable(rows)), default=0).bit_length()


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the program exactly; deterministic for identical input."""
    ip = _IntegerProblem.of(problem)
    s = problem.num_rows
    m = problem.num_vars

    # Column layout: x_0..x_{m-1} | surplus per row | rhs.  Artificial i has
    # the index n_struct + i in the basis but no stored column: its column
    # is always its row's surplus column times -1 (or +1 in a negated row),
    # and nothing reads it, since artificials never enter and the dual is
    # read off the surplus columns.
    n_struct = m + s
    rhs_col = n_struct

    # Rows with a negative right-hand side are negated so the all-artificial
    # basis starts feasible.  Row i keeps its scale L_i on the surplus column
    # too, so it is exactly L_i times the rational row.
    negated = [b < 0 for b in ip.rhs]
    rows: list[list[int]] = []
    for i in range(s):
        sign = -1 if negated[i] else 1
        row = [sign * v for v in ip.rows[i]] + [0] * (s + 1)
        row[m + i] = -sign * ip.row_scales[i]
        row[rhs_col] = sign * ip.rhs[i]
        rows.append(row)
    basis = [n_struct + i for i in range(s)]
    d = 1
    pivots = 0
    max_bits = _bits(rows)

    def pivot(objs: list[list[int]], pr: int, pc: int):
        nonlocal d, pivots, max_bits
        prow = rows[pr]
        p = prow[pc]
        targets = [rows[r] for r in range(s) if r != pr] + objs
        for row in targets:
            f = row[pc]
            if f:
                row[:] = [(p * v - f * w) // d for v, w in zip(row, prow)]
            elif p != d:
                row[:] = [p * v // d for v in row]
        d = p
        if d < 0:
            d = -d
            for row in rows + objs:
                row[:] = [-v for v in row]
        basis[pr] = pc
        pivots += 1
        max_bits = max(max_bits, _bits(targets))

    def run_phase(obj: list[int]) -> str:
        while True:
            # Bland: entering column is the smallest eligible index.  The
            # artificial columns never re-enter once driven out.
            enter = next((j for j in range(n_struct) if obj[j] < 0), None)
            if enter is None:
                return OPTIMAL
            # d > 0 here, so row r's ratio is rows[r][rhs_col] / coef and two
            # ratios compare by cross-multiplying their positive coefs.
            leave = None
            for r in range(s):
                coef = rows[r][enter]
                if coef > 0:
                    num = rows[r][rhs_col]
                    if leave is None:
                        leave, best_num, best_coef = r, num, coef
                        continue
                    lhs = num * best_coef
                    rhs = best_num * coef
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave, best_num, best_coef = r, num, coef
            if leave is None:
                return UNBOUNDED
            pivot([obj], leave, enter)

    # Phase 1: minimize the artificial total.  For the all-artificial basis
    # its reduced costs outside the artificial columns are -sum_i row_i / L_i;
    # obj1 holds them times K, the lcm of the row scales.
    k = math.lcm(*ip.row_scales)
    obj1 = [0] * (rhs_col + 1)
    for row, scale in zip(rows, ip.row_scales):
        weight = k // scale
        obj1 = [v - weight * w for v, w in zip(obj1, row)]
    max_bits = max(max_bits, _bits([obj1]))
    if run_phase(obj1) != OPTIMAL:
        raise InternalInvariantError("phase 1 objective is bounded below by zero")
    if obj1[rhs_col] != 0:
        return LpSolution(status=INFEASIBLE, pivots=pivots, max_bits=max_bits)

    # Drive any leftover artificials (at value zero) out of the basis.  Rows
    # here always admit a structural pivot because each carries its own
    # surplus column, keeping the equality system full row rank.  The pivot
    # may be negative; pivot() then negates the tableau to keep d > 0.
    for r in range(s):
        if basis[r] >= n_struct:
            pc = next((j for j in range(n_struct) if rows[r][j] != 0), None)
            if pc is None:
                raise InternalInvariantError("constraint rows became linearly dependent")
            pivot([], r, pc)

    # Phase 2: true cost.  Every row is now pivoted, so the tableau is d times
    # the rational one, and obj2 is d * cost_scale times the reduced costs.
    cost = ip.cost
    obj2 = [d * cj for cj in cost] + [0] * (s + 1)
    for r in range(s):
        f = cost[basis[r]] if basis[r] < m else 0
        if f:
            obj2 = [v - f * w for v, w in zip(obj2, rows[r])]
    max_bits = max(max_bits, _bits([obj2]))
    if run_phase(obj2) == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, pivots=pivots, max_bits=max_bits)

    x = [Fraction(0)] * m
    for r in range(s):
        if basis[r] < m:
            x[basis[r]] = Fraction(rows[r][rhs_col], d)
    # The rhs entry of obj2 is minus the objective; the reduced cost of
    # surplus i is the multiplier of the original row i, whether or not the
    # row was negated on entry.
    cost_den = d * ip.cost_scale
    objective = Fraction(-obj2[rhs_col], cost_den)
    dual = tuple(Fraction(obj2[m + i], cost_den) for i in range(s))

    basic = set(basis)
    multiple = any(
        obj2[j] == 0 and j not in basic for j in range(n_struct)
    )

    solution = LpSolution(
        status=OPTIMAL,
        objective=objective,
        variables=tuple(x),
        dual=dual,
        multiple_optima=multiple,
        pivots=pivots,
        max_bits=max_bits,
    )
    _check_certificate(ip, solution)
    return solution


def _check_certificate(ip: _IntegerProblem, solution: LpSolution):
    """Exact self-check of primal feasibility and the strong-duality certificate.

    Works on the integer form of the problem: x = X / x_den, y = Y / y_den,
    objective = obj_num / obj_den, row i scaled by L_i and the cost by L_c.
    """
    x_den, x = _scaled(solution.variables)
    y_den, y = _scaled(solution.dual)
    obj_num = solution.objective.numerator
    obj_den = solution.objective.denominator
    if any(xj < 0 for xj in x):
        raise InternalInvariantError("optimal point has a negative variable")
    for i, (row, b) in enumerate(zip(ip.rows, ip.rhs)):
        if sum(map(mul, row, x)) < b * x_den:
            raise InternalInvariantError("optimal point violates constraint %d" % i)
    if sum(map(mul, ip.cost, x)) * obj_den != obj_num * ip.cost_scale * x_den:
        raise InternalInvariantError("objective does not match cost.variables")
    if any(yi < 0 for yi in y):
        raise InternalInvariantError("dual certificate has a negative multiplier")
    # Row i of the scaled problem carries the multiplier y_i / L_i, which is
    # w_i / (y_den * K) with K the lcm of the row scales.
    k = math.lcm(*ip.row_scales)
    w = [yi * (k // scale) for yi, scale in zip(y, ip.row_scales)]
    totals = [0] * len(ip.cost)
    for wi, row in zip(w, ip.rows):
        if wi:
            totals = [t + wi * v for t, v in zip(totals, row)]
    bound = y_den * k
    for j, (total, cj) in enumerate(zip(totals, ip.cost)):
        if total * ip.cost_scale > cj * bound:
            raise InternalInvariantError("dual certificate is infeasible on column %d" % j)
    if sum(map(mul, w, ip.rhs)) * obj_den != obj_num * bound:
        raise InternalInvariantError("dual objective does not match the primal optimum")
