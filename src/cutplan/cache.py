"""Persistent library of solved fraction plans, keyed by structure digest.

The fractions depend only on the minimal cutset matrix, so one solve serves
every future budget for the same structure.  Entries store exact fraction
strings plus solver provenance; anything that fails validation is treated as
corrupt, warned about, and recomputed.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from .errors import CutplanError
from .planner import FractionPlan

log = logging.getLogger("cutplan.cache")

ENTRY_VERSION = 1
ENV_CACHE_DIR = "CUTPLAN_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cutplan"


def _tests_out_of(stored, n_zero: int) -> int:
    """The tests out of n_zero that a stored fraction stands for; it must be whole.

    The fraction is read as stored, never coerced: only its canonical string
    (``str(Fraction(...))``, as :meth:`PlanCache.store` writes it) is accepted,
    not true, 1.0, " 1 " or "2/4".
    """
    if type(stored) is not str:
        raise ValueError("fraction %r is not a JSON string" % (stored,))
    f = Fraction(stored)
    if str(f) != stored:
        raise ValueError("fraction %r is not written as %r" % (stored, str(f)))
    tests, rest = divmod(f.numerator * n_zero, f.denominator)
    if rest:
        raise ValueError("fraction %s is not a multiple of 1/%d" % (stored, n_zero))
    return tests


class PlanCache:
    """Directory of one JSON entry per solved structure."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def entry_path(self, digest: str) -> Path:
        return self.directory / ("%s.json" % digest)

    def lookup(self, digest: str) -> FractionPlan | None:
        """Return the stored plan, or None on miss or corrupt entry."""
        path = self.entry_path(digest)
        if not path.exists():
            return None
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            if raw["entry_version"] != ENTRY_VERSION:
                raise ValueError("unsupported entry_version %r" % raw["entry_version"])
            if raw["digest"] != digest:
                raise ValueError("entry digest does not match its file name")
            # Read as stored, not coerced: bool("false") would be True.
            n_zero, multiple_optima = raw["n_zero"], raw["multiple_optima"]
            fractions = raw["fractions"]
            if type(n_zero) is not int or type(multiple_optima) is not bool:
                raise ValueError("n_zero must be a JSON integer and multiple_optima a JSON bool")
            if type(fractions) is not list:
                raise ValueError("fractions must be a JSON list")
            return FractionPlan(
                counts=tuple(_tests_out_of(f, n_zero) for f in fractions),
                n_zero=n_zero,
                cutset_tests=_tests_out_of(raw["cutset_fraction"], n_zero),
                multiple_optima=multiple_optima,
            )
        except (
            OSError, ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError, CutplanError
        ) as exc:
            log.warning("ignoring corrupt cache entry %s: %s", path, exc)
            return None

    def store(self, digest: str, plan: FractionPlan) -> Path:
        """Write the entry atomically; raises OSError if the directory is unusable."""
        from . import __version__

        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.entry_path(digest)
        payload = {
            "entry_version": ENTRY_VERSION,
            "digest": digest,
            "fractions": [str(f) for f in plan.fractions],
            "cutset_fraction": str(plan.cutset_fraction),
            "n_zero": plan.n_zero,
            "multiple_optima": plan.multiple_optima,
            "solver": {
                "name": "cutplan exact simplex (Bland pivoting)",
                "package_version": __version__,
            },
        }
        # A private temp file per store: concurrent writers never share one,
        # and each reader sees either no entry or a complete one.
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=digest + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path
