"""Seeded generation of structure documents and plan requests.

Everything here is a pure function of the workload seed and is independent of
the cutplan package: the program under test only ever sees the documents this
module writes.  A structure is a family of pairwise incomparable cutsets in
which every component appears, so its minimal cutset family is the family
itself and its size is exactly the one asked for.  Cutset documents also list
a few redundant supersets, which the program must reduce away.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# Cutset sizes 2..4; single-component cutsets would pin the optimum to a
# trivial vertex and make the LP work unrepresentative.
CUTSET_SIZES = (2, 3, 4)
CUTSET_SIZE_WEIGHTS = (4, 4, 1)

REDUNDANT_CUTSETS = 2

BUDGET_LOG10_RANGE = (3.0, 9.0)
ALPHA_LOG10_RANGE = (-4.0, -1.0)
PLUS_SHARE = 0.25
DISTRIBUTE_SHARE = 0.25


@dataclass(frozen=True)
class Structure:
    """A generated system: component labels, its minimal cutset family, and
    the cutsets its document lists (the minimal ones plus redundant ones)."""

    components: tuple[str, ...]
    cutsets: tuple[tuple[int, ...], ...]  # sorted member-index tuples, sorted
    listed_cutsets: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.components)

    def relabelled(self, rng: random.Random) -> "Structure":
        """The same cutset matrix under a random permutation of the labels."""
        names = list(self.components)
        rng.shuffle(names)
        return Structure(tuple(names), self.cutsets, self.listed_cutsets)


@dataclass(frozen=True)
class Request:
    """One plan request: which structure, and the CLI arguments besides paths."""

    structure_index: int
    tests: int
    alpha: str
    plus: bool
    distribute_remainder: bool

    def cli_args(self) -> list[str]:
        args = ["--tests", str(self.tests), "--alpha", self.alpha, "--format", "json"]
        if self.plus:
            args.append("--plus")
        if self.distribute_remainder:
            args.append("--distribute-remainder")
        return args


def random_structure(rng: random.Random, m: int, s: int) -> Structure:
    """Draw s pairwise incomparable cutsets covering all m components."""
    while True:
        family: list[frozenset[int]] = []
        attempts = 0
        while len(family) < s and attempts < 50 * s:
            attempts += 1
            size = rng.choices(CUTSET_SIZES, CUTSET_SIZE_WEIGHTS)[0]
            cut = frozenset(rng.sample(range(m), size))
            if all(not (cut <= other or other <= cut) for other in family):
                family.append(cut)
        if len(family) == s and frozenset().union(*family) == frozenset(range(m)):
            break
    listed = list(family)
    for _ in range(REDUNDANT_CUTSETS):
        cut = rng.choice(family)
        listed.append(cut | {rng.choice([j for j in range(m) if j not in cut])})
    rng.shuffle(listed)
    return Structure(
        components=tuple("C%d" % (j + 1) for j in range(m)),
        cutsets=tuple(sorted(tuple(sorted(c)) for c in family)),
        listed_cutsets=tuple(tuple(sorted(c)) for c in listed),
    )


def distinct_structures(rng: random.Random, m: int, s: int):
    """Endless stream of structures, no two with the same cutset family.

    Families are remembered by their hash, not kept: the stream may run to
    thousands of structures in the process whose memory is measured.
    """
    seen = set()
    while True:
        st = random_structure(rng, m, s)
        if hash(st.cutsets) not in seen:
            seen.add(hash(st.cutsets))
            yield st


def random_request(rng: random.Random, structure_index: int) -> Request:
    return Request(
        structure_index=structure_index,
        tests=int(10 ** rng.uniform(*BUDGET_LOG10_RANGE)),
        alpha="%.4g" % 10 ** rng.uniform(*ALPHA_LOG10_RANGE),
        plus=rng.random() < PLUS_SHARE,
        distribute_remainder=rng.random() < DISTRIBUTE_SHARE,
    )


def cutset_document(st: Structure) -> str:
    """The cutset-list form of a structure document."""
    payload = {
        "schema_version": 1,
        "components": list(st.components),
        "cutsets": [[st.components[j] for j in cut] for cut in st.listed_cutsets],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def truth_table_document(st: Structure) -> str:
    """The full truth-table form: all 2^m states, character k = components[k]."""
    m = st.m
    masks = [sum(1 << j for j in cut) for cut in st.cutsets]
    entries = []
    for state in range(1 << m):
        failed = int(any(state & cm == cm for cm in masks))
        bits = "".join("1" if state >> k & 1 else "0" for k in range(m))
        entries.append({"state": bits, "failed": failed})
    payload = {"schema_version": 1, "components": list(st.components), "truth_table": entries}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class InputDigest:
    """Running SHA-256 over the documents and requests a run generated."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add_document(self, text: str):
        self._h.update(b"doc\0" + text.encode("utf-8") + b"\0")

    def add_request(self, req: Request):
        line = "%d %s" % (req.structure_index, " ".join(req.cli_args()))
        self._h.update(b"req\0" + line.encode("ascii") + b"\0")

    def hexdigest(self) -> str:
        return self._h.hexdigest()
