"""Plan reports: every number the pipeline produced, rendered deterministically.

Exact rationals are serialized as ``num/den`` strings next to a decimal
rendering at 12 significant digits, so identical inputs always yield
byte-identical output in both the JSON and the text format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .planner import BoundResult, FractionPlan, IntegerPlan, PathStrategyCheck

REPORT_VERSION = 1


def decimal12(value) -> str:
    """Decimal rendering at 12 significant digits."""
    return format(float(value), ".12g")


def _exact(value: Fraction) -> dict:
    return {"exact": str(value), "decimal": decimal12(value)}


@dataclass(frozen=True)
class AuditSummary:
    """Outcome of the optional brute-force cross-check."""

    performed: bool
    reason: str | None = None
    n_total: int | None = None
    best_n_min: int | None = None
    matches_plan: bool | None = None
    instances_searched: int | None = None

    def to_json_dict(self) -> dict:
        if not self.performed:
            return {"performed": False, "reason": self.reason}
        return {
            "performed": True,
            "n_total": self.n_total,
            "best_n_min": self.best_n_min,
            "matches_plan": self.matches_plan,
            "instances_searched": self.instances_searched,
        }


@dataclass(frozen=True)
class PlanReport:
    """Full result of one planning run."""

    structure_digest: str
    component_names: tuple[str, ...]
    minimal_cutsets: tuple[tuple[str, ...], ...]
    irrelevant_components: tuple[str, ...]
    alpha: float
    requested_tests: int | None
    fraction_plan: FractionPlan
    path_check: PathStrategyCheck
    pathset_count: int
    shortest_pathset: tuple[str, ...]
    plan: IntegerPlan | None = None
    bound: BoundResult | None = None
    plus_plan: IntegerPlan | None = None
    plus_bound: BoundResult | None = None
    path_strategy_n_min: int | None = None
    audit: AuditSummary | None = None
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        fp = self.fraction_plan
        payload = {
            "report_version": REPORT_VERSION,
            "structure": {
                "digest": self.structure_digest,
                "components": list(self.component_names),
                "minimal_cutsets": [list(c) for c in self.minimal_cutsets],
                "irrelevant_components": list(self.irrelevant_components),
            },
            "alpha": decimal12(self.alpha),
            "requested_tests": self.requested_tests,
            "paths": {
                "shortest_path_length": self.path_check.shortest_path_length,
                "pathset_count": self.pathset_count,
                "shortest_pathset": list(self.shortest_pathset),
                "path_fraction": _exact(self.path_check.path_fraction),
                "optimality_gap": _exact(self.path_check.gap),
                "path_strategy_n_min": self.path_strategy_n_min,
            },
            "fractions": {
                "per_component": [
                    {"component": name, **_exact(f)}
                    for name, f in zip(self.component_names, fp.fractions)
                ],
                "cutset_fraction": _exact(fp.cutset_fraction),
                "n_zero": fp.n_zero,
                "multiple_optima": fp.multiple_optima,
            },
            "plan": _plan_dict(self.plan),
            "bound": _bound_dict(self.bound),
            "plus_plan": _plan_dict(self.plus_plan),
            "plus_bound": _bound_dict(self.plus_bound),
            "audit": self.audit.to_json_dict() if self.audit else None,
            "warnings": list(self.warnings),
        }
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        fp = self.fraction_plan
        lines = []
        lines.append("structure digest: %s" % self.structure_digest)
        lines.append(
            "components (%d): %s" % (len(self.component_names), " ".join(self.component_names))
        )
        lines.append(
            "minimal cutsets (%d): %s"
            % (
                len(self.minimal_cutsets),
                " ".join("{%s}" % ",".join(c) for c in self.minimal_cutsets),
            )
        )
        lines.append(
            "shortest success path: length %d, e.g. {%s} (%d minimal path sets)"
            % (
                self.path_check.shortest_path_length,
                ",".join(self.shortest_pathset),
                self.pathset_count,
            )
        )
        lines.append("")
        lines.append("optimal test fractions:")
        width = max(len(name) for name in self.component_names)
        for name, f in zip(self.component_names, fp.fractions):
            lines.append("  %-*s  %-8s  %s" % (width, name, str(f), decimal12(f)))
        lines.append(
            "  guaranteed cutset fraction: %s (%s)"
            % (fp.cutset_fraction, decimal12(fp.cutset_fraction))
        )
        lines.append("  smallest integer-exact total: %d" % fp.n_zero)
        if fp.multiple_optima:
            lines.append("  note: alternative optimal fraction plans may exist")

        if self.plan is not None:
            plan = self.plan
            lines.append("")
            lines.append("integer plan for %d requested tests:" % plan.n_total_requested)
            lines.append(
                "  usable total: %d  (next integer-exact total: %d)"
                % (plan.n_minus, plan.n_plus)
            )
            if plan.remainder:
                how = (
                    "distributed round-robin"
                    if plan.remainder_distributed
                    else "left unallocated"
                )
                lines.append("  remainder: %d tests %s" % (plan.remainder, how))
            lines += self._allocation_lines(plan, self.bound, width)
        if self.path_strategy_n_min is not None:
            lines.append(
                "  single-shortest-path strategy would guarantee only %d"
                % self.path_strategy_n_min
            )

        if self.plus_plan is not None:
            plan = self.plus_plan
            lines.append("")
            lines.append("plan for the next integer-exact total (%d tests):" % plan.n_minus)
            lines += self._allocation_lines(plan, self.plus_bound, width)

        if self.audit is not None:
            lines.append("")
            if self.audit.performed:
                verdict = "matches" if self.audit.matches_plan else "DOES NOT MATCH"
                lines.append(
                    "audit: exhaustive optimum over %d tests is %d (%s the plan; "
                    "%d allocations examined)"
                    % (
                        self.audit.n_total,
                        self.audit.best_n_min,
                        verdict,
                        self.audit.instances_searched,
                    )
                )
            else:
                lines.append("audit: skipped (%s)" % self.audit.reason)

        lines.append("")
        if self.warnings:
            for w in self.warnings:
                lines.append("warning: %s" % w)
        else:
            lines.append("warnings: none")
        return "\n".join(lines) + "\n"

    def _allocation_lines(self, plan: IntegerPlan, bound: BoundResult | None, width: int) -> list[str]:
        """Per-component counts, the cutset minimum and the pfd bound of one plan."""
        lines = ["  %-*s  %d" % (width, name, count) for name, count in zip(self.component_names, plan.n)]
        lines.append("  minimum tests over any cutset: %d" % plan.n_min)
        if bound is not None:
            lines.append(
                "  pfd upper bound at alpha %s: %s" % (decimal12(bound.alpha), decimal12(bound.q_upper))
            )
        return lines


def _plan_dict(plan: IntegerPlan | None) -> dict | None:
    if plan is None:
        return None
    return {
        "n": list(plan.n),
        "n_total_requested": plan.n_total_requested,
        "n_minus": plan.n_minus,
        "n_plus": plan.n_plus,
        "n_min": plan.n_min,
        "remainder": plan.remainder,
        "remainder_distributed": plan.remainder_distributed,
    }


def _bound_dict(bound: BoundResult | None) -> dict | None:
    if bound is None:
        return None
    return {
        "alpha": decimal12(bound.alpha),
        "n_min": bound.n_min,
        "q_upper": decimal12(bound.q_upper),
    }
