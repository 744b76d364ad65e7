"""Command-line frontend: structure file in, test plan report out.

Pipeline: parse the structure document, reduce it to minimal cutsets, fetch or
solve the optimal fractions (persistent cache), scale to an integer plan for
the requested budget, compute the pfd bound, and cross-check against the
shortest-path floor.  Reports go to stdout (text or JSON); diagnostics such as
cache hits go to stderr so reports stay byte-reproducible.

Exit codes: 0 success, 2 input error, 3 budget too small, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .cache import PlanCache, default_cache_dir
from .documents import document_to_structure, load_document
from .errors import (
    BudgetTooSmall,
    CutplanError,
    InputError,
    InternalInvariantError,
    InvalidAlpha,
    SearchSpaceTooLarge,
)
from .oracle import DEFAULT_ALLOCATION_CAP, brute_force_plan
from .planner import confidence_bound, integer_plan, min_cutset_tests, optimize_fractions, shortest_path_check
from .report import AuditSummary, PlanReport
from .structure import minimal_cutsets, minimal_pathsets

log = logging.getLogger("cutplan.cli")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutplan",
        description=(
            "Compute an optimal statistical test plan for a multi-component "
            "system described by its cutsets or truth table, and the resulting "
            "conservative upper bound on system probability of failure on demand."
        ),
    )
    parser.add_argument("structure", help="path to a JSON structure document")
    parser.add_argument(
        "--tests",
        type=int,
        default=None,
        metavar="N",
        help="total test budget; omit to report the optimal fractions only",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="1 - confidence level (default 0.05)",
    )
    parser.add_argument(
        "--plus",
        action="store_true",
        help="also emit the plan for the next integer-exact total above the budget",
    )
    parser.add_argument(
        "--distribute-remainder",
        action="store_true",
        help="hand leftover tests out round-robin instead of leaving them unallocated",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="cross-check the plan against exhaustive search when sizes permit",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always recompute the fractions; do not read or write the cache",
    )
    parser.add_argument(
        "--verify-cache",
        action="store_true",
        help="recompute fresh even on a cache hit and fail if the entry diverges",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache directory (default: $CUTPLAN_CACHE_DIR or ~/.cache/cutplan)",
    )
    return parser


def run(args: argparse.Namespace) -> PlanReport:
    """Execute the pipeline and build the report; raises CutplanError subtypes."""
    alpha = args.alpha
    if not 0 < alpha < 1:
        raise InvalidAlpha("alpha must lie strictly between 0 and 1, got %r" % alpha)
    if args.tests is not None and args.tests < 1:
        raise InputError("--tests must be a positive integer")

    doc = load_document(args.structure)
    structure = document_to_structure(doc)
    matrix = minimal_cutsets(structure)
    digest = matrix.canonical_digest()
    # Before the fractions: a structure over PATHSET_LIMIT fails here,
    # without a solve or a cache entry.
    pathsets = minimal_pathsets(matrix)
    shortest = min(pathsets, key=len)

    fp = _resolve_fractions(args, matrix, digest, len(shortest))
    path_check = shortest_path_check(fp, matrix)

    warnings = []
    zero_columns = matrix.zero_columns()
    for j in zero_columns:
        warnings.append(
            "component %s appears in no minimal cutset and is allocated no tests"
            % matrix.component_names[j]
        )
    if fp.multiple_optima:
        warnings.append(
            "alternative optimal fraction plans may exist; reported plan is the "
            "deterministic solver optimum"
        )

    plan = bound = plus_plan = plus_bound = audit = None
    path_strategy_n_min = None
    if args.tests is not None:
        plan = integer_plan(
            fp, args.tests, cutsets=matrix, distribute_remainder=args.distribute_remainder
        )
        bound = confidence_bound(plan.n_min, alpha)
        path_strategy_n_min = args.tests // path_check.shortest_path_length
        if args.plus:
            plus_plan = integer_plan(fp, plan.n_plus, cutsets=matrix)
            plus_bound = confidence_bound(plus_plan.n_min, alpha)
        if args.audit:
            audit = _run_audit(matrix, fp, plan)

    return PlanReport(
        structure_digest=digest,
        component_names=matrix.component_names,
        minimal_cutsets=tuple(
            tuple(matrix.component_names[j] for j in matrix.row_members(i))
            for i in range(matrix.s)
        ),
        irrelevant_components=tuple(matrix.component_names[j] for j in zero_columns),
        alpha=alpha,
        requested_tests=args.tests,
        fraction_plan=fp,
        path_check=path_check,
        pathset_count=len(pathsets),
        shortest_pathset=tuple(matrix.component_names[j] for j in shortest),
        plan=plan,
        bound=bound,
        plus_plan=plus_plan,
        plus_bound=plus_bound,
        path_strategy_n_min=path_strategy_n_min,
        audit=audit,
        warnings=tuple(warnings),
    )


def _resolve_fractions(args, matrix, digest, shortest_path):
    cache = None
    if not args.no_cache:
        cache = PlanCache(args.cache_dir if args.cache_dir else default_cache_dir())
    cached = cache.lookup(digest) if cache else None

    if cached is not None and not args.verify_cache:
        # A hit must fit the matrix and clear the shortest-path floor g >= 1/P.
        fits = len(cached.counts) == matrix.m and min_cutset_tests(matrix, cached.counts) == cached.cutset_tests
        if fits and cached.cutset_tests * shortest_path >= cached.n_zero:
            log.info("cache hit for structure %s", digest[:12])
            return cached
        log.warning(
            "ignoring corrupt cache entry %s: its plan does not fit the structure",
            cache.entry_path(digest),
        )
        cached = None

    fresh = optimize_fractions(matrix)
    if cached is not None:
        if cached != fresh:
            raise InternalInvariantError(
                "cache entry for %s diverges from a fresh solve" % digest
            )
        log.info("cache entry for structure %s verified against a fresh solve", digest[:12])
        return cached
    if cache is not None:
        # The cache only saves work: a failed store must not fail the request.
        try:
            path = cache.store(digest, fresh)
        except OSError as exc:
            log.warning("could not cache the fraction plan: %s", exc)
        else:
            log.info("cached fraction plan at %s", path)
    return fresh


def _run_audit(matrix, fp, plan) -> AuditSummary:
    guaranteed = plan.n_minus // fp.n_zero * fp.cutset_tests
    try:
        result = brute_force_plan(matrix, plan.n_minus)
    except SearchSpaceTooLarge as exc:
        return AuditSummary(
            performed=False,
            reason="search space of %d allocations exceeds the cap of %d"
            % (exc.count, DEFAULT_ALLOCATION_CAP),
        )
    if result.best_n_min != guaranteed:
        raise InternalInvariantError(
            "exhaustive search found a plan with minimum %d but the solver "
            "guaranteed %d" % (result.best_n_min, guaranteed)
        )
    return AuditSummary(
        performed=True,
        n_total=plan.n_minus,
        best_n_min=result.best_n_min,
        matches_plan=True,
        instances_searched=result.instances_searched,
    )


class _JsonLogFormatter(logging.Formatter):
    """One JSON object per record, so JSON-mode stderr parses line by line."""

    def format(self, record: logging.LogRecord) -> str:
        entry = {"level": record.levelname, "message": record.getMessage()}
        return json.dumps({"log": entry}, sort_keys=True)


def _emit_error(exc: Exception, fmt: str):
    name = type(exc).__name__
    if fmt == "json":
        payload = {"error": {"type": name, "message": str(exc)}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print("error: %s: %s" % (name, exc), file=sys.stderr)


def _asks_for_json(argv) -> bool:
    """Whether the last --format on a command line, parsed or not, is json.

    Like argparse, this takes any prefix of --format longer than "--" (no
    other option starts with "--f"), followed by its value or by "=value".
    """
    fmt = None
    for arg, following in zip(argv, [*argv[1:], None]):
        flag, eq, value = arg.partition("=")
        if len(flag) > 2 and "--format".startswith(flag):
            fmt = value if eq else following
    return fmt == "json"


def _raise_usage_error(message):
    raise InputError(message)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if _asks_for_json(argv):
        # Usage errors come back as InputError and are reported as JSON
        # below; in text mode argparse prints its usage as always.
        parser.error = _raise_usage_error
    try:
        args = parser.parse_args(argv)
    except InputError as exc:
        _emit_error(exc, "json")
        return EXIT_INPUT
    # basicConfig does nothing when the caller has already set up logging.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLogFormatter() if args.format == "json" else logging.Formatter("%(message)s"))
    logging.basicConfig(level=logging.INFO, handlers=[handler])
    try:
        report = run(args)
    except BudgetTooSmall as exc:
        _emit_error(exc, args.format)
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        _emit_error(exc, args.format)
        return EXIT_INTERNAL
    except CutplanError as exc:
        _emit_error(exc, args.format)
        return EXIT_INPUT
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
