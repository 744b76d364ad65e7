"""Float LP cross-check of the guaranteed cutset fraction g.

Runs as a separate process, so that scipy's memory stays out of the benchmark
process whose peak resident memory is measured.  Reads one JSON object per
line on stdin, ``{"m": m, "cutsets": [...], "g": [numerator, denominator]}``,
and answers each with one line, ``{"problem": null}`` or ``{"problem": why}``,
before it reads the next, so it is idle whenever no check is waiting.  It
writes ``ready`` once scipy is loaded.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.optimize import linprog

RELATIVE_TOLERANCE = 1e-9


def lp_problem(m: int, cutsets: list[list[int]], g: float) -> str | None:
    """Why g is not 1 / min{sum(h) : Y h >= 1, h >= 0}, or None if it is."""
    y = np.zeros((len(cutsets), m))
    for i, cut in enumerate(cutsets):
        y[i, cut] = 1.0
    res = linprog(np.ones(m), A_ub=-y, b_ub=-np.ones(len(cutsets)), method="highs")
    if res.status != 0:
        return "scipy linprog failed: %s" % res.message
    g_float = 1.0 / res.fun
    if abs(g - g_float) > RELATIVE_TOLERANCE * g_float:
        return "g %.15g differs from the float LP optimum %.15g" % (g, g_float)
    return None


def main() -> int:
    print("ready", flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        num, den = msg["g"]
        sys.stdout.write(json.dumps({"problem": lp_problem(msg["m"], msg["cutsets"], num / den)}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
