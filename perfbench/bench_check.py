"""Independent checks of cutplan JSON plan reports.

Nothing here imports cutplan.  Each report is parsed and compared against the
generated structure and the request that produced it.  The one check that
needs an LP solver, g against a float optimum from ``scipy.optimize.linprog``,
runs in a worker process (bench_lp.py), so scipy never loads into the process
whose memory is measured.  The worker answers each check before the next
request is sent, so it never runs while a request is being timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

from bench_inputs import Request, Structure

LP_WORKER = Path(__file__).with_name("bench_lp.py")
LP_WORKER_TIMEOUT_S = 10


class CheckerError(RuntimeError):
    """The checks themselves could not run."""


def minimalize(family) -> frozenset[frozenset]:
    """Drop duplicates and every set that strictly contains another."""
    unique = {frozenset(s) for s in family}
    return frozenset(s for s in unique if not any(o < s for o in unique))


def _decimal12(value: float) -> str:
    return format(value, ".12g")


def _check_plan(plan: dict, requested: int, g: Fraction, n_zero: int,
                cutsets: list[list[int]], distribute: bool) -> list[str]:
    problems = []
    n = plan["n"]
    n_minus = plan["n_minus"]
    remainder = plan["remainder"]
    if plan["n_total_requested"] != requested:
        problems.append("plan echoes %r tests, requested %d" % (plan["n_total_requested"], requested))
    if n_minus % n_zero or not requested - n_zero < n_minus <= requested:
        problems.append("n_minus %d is not the largest multiple of n_zero %d up to %d"
                        % (n_minus, n_zero, requested))
    if plan["n_plus"] != n_minus + n_zero:
        problems.append("n_plus %d != n_minus + n_zero" % plan["n_plus"])
    if remainder != requested - n_minus:
        problems.append("remainder %d != requested - n_minus" % remainder)
    distributed = distribute and remainder > 0
    if plan["remainder_distributed"] != distributed:
        problems.append("remainder_distributed is %r, expected %r"
                        % (plan["remainder_distributed"], distributed))
    if any(not isinstance(v, int) or v < 0 for v in n):
        problems.append("allocation has a negative or non-integer count")
        return problems
    expected_sum = n_minus + (remainder if distributed else 0)
    if sum(n) != expected_sum:
        problems.append("allocation sums to %d, expected %d" % (sum(n), expected_sum))
    achieved = min(sum(n[j] for j in cut) for cut in cutsets)
    if achieved != plan["n_min"]:
        problems.append("n_min %d but the allocation gives %d" % (plan["n_min"], achieved))
    if not distributed and plan["n_min"] != g * n_minus:
        problems.append("n_min %d != g * n_minus = %s" % (plan["n_min"], g * n_minus))
    return problems


def _check_bound(bound: dict, n_min: int, alpha: float) -> list[str]:
    expected = 1.0 if n_min == 0 else min(math.log(1.0 / alpha) / n_min, 1.0)
    problems = []
    if bound["n_min"] != n_min:
        problems.append("bound n_min %d != plan n_min %d" % (bound["n_min"], n_min))
    if bound["q_upper"] != _decimal12(expected):
        problems.append("q_upper %s != %s" % (bound["q_upper"], _decimal12(expected)))
    return problems


class LpChecker:
    """The bench_lp.py worker process; use as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(LP_WORKER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # Wait for scipy to load, so that the loading does not overlap timed requests.
        if self._proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise CheckerError("LP worker did not start")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=LP_WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        return False

    def problem(self, structure: Structure, g: Fraction) -> str | None:
        """Why g is not the float LP optimum of the structure, or None."""
        msg = {"m": structure.m, "cutsets": structure.cutsets, "g": [g.numerator, g.denominator]}
        try:
            self._proc.stdin.write(json.dumps(msg) + "\n")
            self._proc.stdin.flush()
            answer = self._proc.stdout.readline()
        except BrokenPipeError as exc:
            raise CheckerError("LP worker exited early") from exc
        if not answer:
            raise CheckerError("LP worker exited early")
        return json.loads(answer)["problem"]


class ReportChecker:
    """Checks reports one by one.

    What must agree across requests for one structure is kept per generated
    Structure object, weakly: a pool's structures are remembered for the
    whole run, a cold_solve structure only while its one request is checked,
    so the checker's memory does not grow with the number of requests.
    The float LP cross-check runs once per structure, on its first report;
    without an LpChecker it is skipped.
    """

    def __init__(self, lp: LpChecker | None = None):
        self._lp = lp
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def check(self, text: str, structure: Structure, request: Request) -> list[str]:
        """Problems found in one report; an empty list means it passed."""
        try:
            problems, g, digest = self._check(json.loads(text), structure, request)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            problems, g, digest = ["malformed report: %s: %s" % (type(exc).__name__, exc)], None, None
        seen = self._seen.get(structure)
        if seen is None and g is not None:
            lp_problem = self._lp.problem(structure, g) if self._lp is not None else None
            seen = (digest, lp_problem)
            self._seen[structure] = seen
        elif seen is not None and digest is not None and digest != seen[0]:
            problems.append("fractions block differs from an earlier request for this structure")
        if seen is not None and seen[1] is not None:
            problems.append(seen[1])
        return problems

    def _check(self, r: dict, st: Structure, req: Request):
        problems = []
        names = r["structure"]["components"]
        if names != list(st.components):
            return ["components %r differ from the document" % names], None, None
        index = {name: j for j, name in enumerate(names)}

        expected = minimalize(frozenset(st.components[j] for j in cut) for cut in st.listed_cutsets)
        reported = [frozenset(c) for c in r["structure"]["minimal_cutsets"]]
        if len(reported) != len(expected) or frozenset(reported) != expected:
            problems.append("minimal cutsets differ from the generated family")
        cutsets = [[index[name] for name in c] for c in expected]

        block = r["fractions"]
        fractions = [Fraction(c["exact"]) for c in block["per_component"]]
        g = Fraction(block["cutset_fraction"]["exact"])
        n_zero = block["n_zero"]
        if len(fractions) != st.m or any(f < 0 for f in fractions) or sum(fractions) != 1:
            problems.append("fractions are not a distribution over the components")
        elif min(sum(fractions[j] for j in cut) for cut in cutsets) != g:
            problems.append("no cutset receives exactly the fraction g")
        if n_zero != math.lcm(*(f.denominator for f in fractions)):
            problems.append("n_zero %d is not the lcm of the denominators" % n_zero)

        digest = hashlib.sha256(json.dumps(block, sort_keys=True).encode()).digest()

        paths = r["paths"]
        shortest = paths["shortest_pathset"]
        if any(not set(shortest) & set(names[j] for j in cut) for cut in cutsets):
            problems.append("shortest pathset %r misses a cutset" % (shortest,))
        if paths["shortest_path_length"] != len(shortest):
            problems.append("shortest_path_length disagrees with the reported pathset")
        if paths["path_strategy_n_min"] != req.tests // len(shortest):
            problems.append("path_strategy_n_min is not floor(N / P)")

        alpha = float(req.alpha)
        plan = r["plan"]
        problems += _check_plan(plan, req.tests, g, n_zero, cutsets, req.distribute_remainder)
        problems += _check_bound(r["bound"], plan["n_min"], alpha)
        plus = r["plus_plan"]
        if req.plus:
            problems += [
                "plus plan: " + p
                for p in _check_plan(plus, plan["n_plus"], g, n_zero, cutsets, False)
                + _check_bound(r["plus_bound"], plus["n_min"], alpha)
            ]
        elif plus is not None:
            problems.append("plus plan emitted without --plus")
        return problems, g, digest
