"""In-memory span tracing around the cutplan functions the CLI calls.

The tracer replaces module and class attributes with timing wrappers, so the
program itself is unchanged: a span is recorded at every call of a wrapped
layer boundary, with the span that was open when it started as its parent.
Spans stay in memory until :meth:`Tracer.write` and are summarised as
per-request self time (duration minus the time covered by child spans) and
call counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "cli.main"

# (module, attribute holder inside it or None, attribute, span name).  Names
# bound in cutplan.cli are wrapped there, where the CLI looks them up; the
# planner and structure modules are patched for the calls they make
# internally (solve_lp from optimize_fractions, minimal_pathsets from
# shortest_path_check via shortest_path_length).
TARGETS = (
    ("cutplan.cli", None, "main", ROOT_SPAN),
    ("cutplan.cli", None, "load_document", "documents.load_document"),
    ("cutplan.cli", None, "document_to_structure", "documents.document_to_structure"),
    ("cutplan.cli", None, "minimal_cutsets", "structure.minimal_cutsets"),
    ("cutplan.cli", None, "minimal_pathsets", "structure.minimal_pathsets"),
    ("cutplan.structure", None, "minimal_pathsets", "structure.minimal_pathsets"),
    ("cutplan.cli", None, "optimize_fractions", "planner.optimize_fractions"),
    ("cutplan.planner", None, "solve_lp", "simplex.solve_lp"),
    ("cutplan.cli", None, "shortest_path_check", "planner.shortest_path_check"),
    ("cutplan.cli", None, "integer_plan", "planner.integer_plan"),
    ("cutplan.cli", None, "confidence_bound", "planner.confidence_bound"),
    ("cutplan.cache", "PlanCache", "lookup", "cache.lookup"),
    ("cutplan.cache", "PlanCache", "store", "cache.store"),
    ("cutplan.report", "PlanReport", "to_json", "report.to_json"),
)

SELF_TIME_SPANS = (
    "simplex.solve_lp",
    "structure.minimal_pathsets",
    "documents.load_document",
    "documents.document_to_structure",
    "structure.minimal_cutsets",
    "cache.lookup",
    "cache.store",
    "planner.optimize_fractions",
    "planner.shortest_path_check",
    "planner.integer_plan",
    "planner.confidence_bound",
    "report.to_json",
    ROOT_SPAN,
)
CALL_COUNT_SPANS = ("simplex.solve_lp", "structure.minimal_pathsets", "planner.integer_plan")


class Tracer:
    """Records spans while installed; restores the original attributes on exit."""

    def __init__(self):
        self._originals = []
        self._stack: list[int] = []
        self._next_id = 0
        self.request_id = 0
        # (request id, span id, parent id or -1, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.missing: set[str] = set()
        self.lookups = 0
        self.hits = 0

    def __enter__(self):
        for module_name, holder, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if holder is not None:
                owner = getattr(owner, holder, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add("%s.%s" % (module_name, attr))
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        return False

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((self.request_id, span_id, parent, name, start, end))
            if name == "cache.lookup":
                self.lookups += 1
                self.hits += result is not None
            return result

        return wrapper

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name over all recorded spans."""
        child_time = defaultdict(int)
        for _req, _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(int)
        for _req, sid, _parent, name, start, end in self.spans:
            totals[name] += end - start - child_time[sid]
        return totals

    def call_counts(self) -> dict[str, int]:
        counts = defaultdict(int)
        for span in self.spans:
            counts[span[3]] += 1
        return counts

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("request", "span", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
