"""Integer-preserving simplex: golden solutions, counters, certificate check.

``data/simplex_golden.json`` holds a fixed corpus of programs (its "about"
field says how they were drawn) with the complete ``LpSolution`` the earlier
Fraction-tableau Bland simplex returned for each.  Exact arithmetic and the
same pivot rule reach the same basis, so every field must match exactly:
status, objective, vertex, dual and the multiple-optima flag.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cutplan import OPTIMAL, InternalInvariantError, LpProblem, LpSolution, solve_lp
from cutplan.simplex import _check_certificate, _IntegerProblem

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "simplex_golden.json").read_text(encoding="utf-8")
)["cases"]


def fractions(values):
    return None if values is None else tuple(Fraction(v) for v in values)


def problem_of(case):
    return LpProblem(
        cost=fractions(case["cost"]),
        constraint_matrix=tuple(fractions(row) for row in case["constraint_matrix"]),
        rhs=fractions(case["rhs"]),
    )


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_solution_matches_golden(case):
    problem = problem_of(case)
    want = case["expected"]
    expected = LpSolution(
        status=want["status"],
        objective=None if want["objective"] is None else Fraction(want["objective"]),
        variables=fractions(want["variables"]),
        dual=fractions(want["dual"]),
        multiple_optima=want["multiple_optima"],
    )
    assert solve_lp(problem) == expected


def test_counters_on_the_covering_corpus():
    solutions = [solve_lp(problem_of(c)) for c in GOLDEN if c["name"].startswith("covering")]
    assert len(solutions) == 40
    assert all(sol.pivots > 0 for sol in solutions)
    # Bareiss keeps every entry a minor of the 0/1 input; without the exact
    # division by the previous pivot the entries would grow with every pivot.
    assert max(sol.max_bits for sol in solutions) <= 16


BEALE = LpProblem(
    cost=(Fraction(-3, 4), Fraction(150), Fraction(-1, 50), Fraction(6)),
    constraint_matrix=(
        (Fraction(-1, 4), Fraction(60), Fraction(1, 25), Fraction(-9)),
        (Fraction(-1, 2), Fraction(90), Fraction(1, 50), Fraction(-3)),
        (Fraction(0), Fraction(0), Fraction(-1), Fraction(0)),
    ),
    rhs=(Fraction(0), Fraction(0), Fraction(-1)),
)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"variables": fractions(["-1/25", "0", "1", "0"])}, "negative variable"),
        ({"variables": fractions(["1/25", "0", "2", "0"])}, "violates constraint 2"),
        ({"objective": Fraction(-1, 21)}, "objective does not match"),
        ({"dual": fractions(["-1/2", "3/2", "1/20"])}, "negative multiplier"),
        ({"dual": fractions(["0", "3", "1/20"])}, "infeasible on column 1"),
        ({"dual": fractions(["0", "3/2", "1/10"])}, "dual objective does not match"),
    ],
)
def test_certificate_check_rejects_a_wrong_solution(changes, message):
    # Beale's rows scale by 100, 50 and 1 and its cost by 100, so the
    # integer check must undo different scales per row.
    solution = solve_lp(BEALE)
    assert solution.status == OPTIMAL
    assert solution.variables == fractions(["1/25", "0", "1", "0"])
    assert solution.dual == fractions(["0", "3/2", "1/20"])
    with pytest.raises(InternalInvariantError, match=message):
        _check_certificate(_IntegerProblem.of(BEALE), dataclasses.replace(solution, **changes))
