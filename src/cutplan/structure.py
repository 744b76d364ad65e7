"""System fault-tolerance structures, minimal cutsets, and minimal pathsets.

A system of m components is described by a coherent (monotone) boolean
structure function phi over component-failure indicators: phi(x) = 1 means the
combination of failed components x brings the whole system down.  Structures
are given either as an explicit truth table or as a list of cutsets; both
reduce to the canonical incidence matrix of inclusion-minimal cutsets that the
planner operates on.  Sets of components are int bitmasks (bit j for
component j), and a truth table is one int of 2^m bits: bit ``mask`` is phi(mask).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DegenerateStructure, InputError, NonCoherentStructure

# Truth tables are enumerated exhaustively; beyond this many components the
# 2^m table is no longer reasonable and callers must supply cutsets directly.
TRUTH_TABLE_MAX_COMPONENTS = 20

# Most minimal transversals minimal_pathsets carries from one cutset to the
# next; beyond it the request fails with InputError instead of running for
# minutes.  The family doubles with each disjoint cutset pair, and its peak is
# 55 on the benchmark's replan catalog and 26,313 on a seeded m=32 family of
# 25 cutsets (the largest the tests plan).
PATHSET_LIMIT = 50_000

# Byte values 0/1 to the ASCII digits that int(..., 2) reads.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _check_component_names(names: Sequence[str]) -> tuple[str, ...]:
    """The component labels as a tuple: nonempty, nonempty strings, unique."""
    names = tuple(names)
    if not names:
        raise InputError("components must be a nonempty list of labels")
    if not all(isinstance(name, str) and name for name in names):
        raise InputError("component labels must be nonempty strings")
    if len(set(names)) != len(names):
        raise InputError("component labels must be unique")
    return names


def _check_truth_table_size(m: int):
    if m > TRUTH_TABLE_MAX_COMPONENTS:
        raise InputError(
            "truth tables are limited to %d components; give cutsets instead"
            % TRUTH_TABLE_MAX_COMPONENTS
        )


@dataclass(frozen=True)
class SystemStructure:
    """Coherent structure function over m components.

    Exactly one of ``cutsets`` / ``truth_table`` is set.  ``cutsets`` holds
    component masks (bit j for component j), each nonzero and below 2^m;
    failure of all components in any one of them fails the system.
    ``truth_table`` is phi as one int of 2^m bits: bit ``mask`` is phi(mask),
    where bit j of mask is set when component j has failed.

    Instances are validated on construction: truth tables must be monotone
    (witnessed ``NonCoherentStructure`` otherwise) and non-constant, so every
    constructed value satisfies phi(all working) = 0 and phi(all failed) = 1.
    """

    component_names: tuple[str, ...]
    cutsets: tuple[int, ...] | None = None
    truth_table: int | None = None

    def __post_init__(self):
        names = _check_component_names(self.component_names)
        object.__setattr__(self, "component_names", names)
        if (self.cutsets is None) == (self.truth_table is None):
            raise InputError("provide exactly one of cutsets or truth_table")
        if self.cutsets is not None:
            self._validate_cutsets()
        else:
            self._validate_truth_table()

    @property
    def m(self) -> int:
        return len(self.component_names)

    @classmethod
    def from_cutsets(cls, component_names: Sequence[str], cutsets: Iterable[Iterable[int]]) -> "SystemStructure":
        """Build from cutsets given as iterables of component indices."""
        names = tuple(component_names)
        masks = []
        for cut in cutsets:
            members = set(cut)
            if not all(isinstance(j, int) and 0 <= j < len(names) for j in members):
                raise InputError("cutset members must be component indices in range")
            masks.append(sum(1 << j for j in members))
        return cls(names, cutsets=tuple(masks))

    @classmethod
    def from_truth_table(cls, component_names: Sequence[str], table: Sequence[int]) -> "SystemStructure":
        """Build from a full 0/1 truth table indexed by failed-component bitmask."""
        names = _check_component_names(component_names)
        _check_truth_table_size(len(names))
        if len(table) != 1 << len(names):
            raise InputError("truth table must list all %d states" % (1 << len(names)))
        if not set(table) <= {0, 1}:
            raise InputError("truth table values must be 0 or 1")
        digits = bytes(map(int, reversed(table))).translate(_BIT_DIGITS)
        return cls(names, truth_table=int(digits, 2))

    def _validate_cutsets(self):
        if not self.cutsets:
            raise DegenerateStructure("no cutsets given: the system can never fail")
        if not all(isinstance(cut, int) and 0 < cut < 1 << self.m for cut in self.cutsets):
            raise InputError("cutsets must be nonempty component sets")

    def _validate_truth_table(self):
        m = self.m
        _check_truth_table_size(m)
        table = self.truth_table
        if not isinstance(table, int) or table < 0 or table >> (1 << m):
            raise InputError("truth table must be an int of %d bits" % (1 << m))
        # Monotone: failing one more component never repairs the system.
        # broken[j] marks the failed states with j working that work once j
        # fails; the witness is the lowest such state, then the lowest j.
        broken = [table & works & ~(table >> (1 << j)) for j, works in enumerate(_works_masks(m))]
        witnesses = [((b & -b).bit_length() - 1, j) for j, b in enumerate(broken) if b]
        if witnesses:
            low, j = min(witnesses)
            raise NonCoherentStructure(_mask_to_state(low, m), _mask_to_state(low | 1 << j, m))
        if table & 1:
            # Monotone with phi(0...0) = 1 means phi is constant 1.
            raise DegenerateStructure("the system fails even with no failed components")
        if not table >> ((1 << m) - 1):
            raise DegenerateStructure("the system survives failure of every component")


@dataclass(frozen=True)
class CutsetMatrix:
    """0/1 incidence matrix of the minimal cutsets: one row per cutset.

    Entry (i, j) is 1 when component j belongs to minimal cutset i.  Rows are
    pairwise distinct and incomparable under the subset order.  A column of
    zeros is legal (a component irrelevant to system failure) and is surfaced
    via :meth:`zero_columns`.
    """

    component_names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    # Row i as a component bitmask; derived from ``rows``.
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = _check_component_names(self.component_names)
        object.__setattr__(self, "component_names", names)
        m = len(names)
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise InputError("cutset matrix needs at least one row")
        if any(len(row) != m for row in rows):
            raise InputError("every matrix row must have one entry per component")
        if not set(itertools.chain.from_iterable(rows)) <= {0, 1}:
            raise InputError("matrix entries must be 0 or 1")
        masks = tuple(int("".join(map(str, reversed(row))), 2) for row in rows)
        if not all(masks):
            raise InputError("every cutset row needs at least one member")
        if any(a & b in (a, b) for a, b in itertools.combinations(masks, 2)):
            raise InputError("cutset rows must be distinct and pairwise incomparable")
        object.__setattr__(self, "_masks", masks)

    @property
    def s(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.component_names)

    @classmethod
    def from_index_sets(cls, component_names: Sequence[str], sets: Iterable[Iterable[int]]) -> "CutsetMatrix":
        names = tuple(component_names)
        rows = []
        for members in sets:
            row = [0] * len(names)
            for j in members:
                row[j] = 1
            rows.append(tuple(row))
        return cls(names, tuple(rows))

    def row_members(self, i: int) -> tuple[int, ...]:
        """Component indices of cutset i, ascending."""
        return _members(self._masks[i])

    def row_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_members(mask)) for mask in self._masks)

    def zero_columns(self) -> tuple[int, ...]:
        """Indices of components that appear in no minimal cutset."""
        return tuple(j for j in range(self.m) if all(row[j] == 0 for row in self.rows))

    def canonical_digest(self) -> str:
        """Hex digest identifying the matrix independent of row order and labels."""
        payload = "m=%d;rows=%s" % (
            self.m,
            "|".join(",".join(map(str, key)) for key in _canonical(self._masks)),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _works_masks(m: int) -> list[int]:
    """For each component j, the 2^m-bit int whose bit ``mask`` is set when j works in mask.

    Built by doubling: going from k to k + 1 components repeats each pattern
    in the upper half of the states and adds component k, working in the lower.
    """
    masks: list[int] = []
    for k in range(m):
        masks = [works | works << (1 << k) for works in masks] + [(1 << (1 << k)) - 1]
    return masks


def _members(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of mask, ascending."""
    digits = bin(mask)[:1:-1]
    found = []
    k = digits.find("1")
    while k >= 0:
        found.append(k)
        k = digits.find("1", k + 1)
    return tuple(found)


def _mask_to_state(mask: int, m: int) -> tuple[int, ...]:
    return tuple((mask >> j) & 1 for j in range(m))


def _canonical(masks: Iterable[int]) -> list[tuple[int, ...]]:
    """Sorted member-index tuples, lexicographic by component index."""
    return sorted(_members(mask) for mask in masks)


def minimal_cutsets(structure: SystemStructure) -> CutsetMatrix:
    """Reduce a structure to its inclusion-minimal cutsets, canonically ordered.

    For truth-table input these are the failed states with no failed state one
    component smaller; for cutset input, duplicates and supersets are removed.
    """
    if structure.truth_table is not None:
        table = structure.truth_table
        covered = 0
        for j, works in enumerate(_works_masks(structure.m)):
            covered |= (table & works) << (1 << j)
        family = _members(table & ~covered)
    else:
        unique = set(structure.cutsets)
        family = [a for a in unique if not any(b != a and a & b == b for b in unique)]
    return CutsetMatrix.from_index_sets(structure.component_names, _canonical(family))


def minimal_pathsets(cutsets: CutsetMatrix) -> tuple[tuple[int, ...], ...]:
    """All inclusion-minimal component sets intersecting every minimal cutset.

    These are the minimal path sets of the dual structure: keeping every
    component of any one of them working guarantees system success.  Computed
    by Berge's sequential transversal algorithm on bitmasks: the minimal
    transversals of the cutsets seen so far are carried to the next cutset C,
    and each one p that misses C is extended to q = p | {j} for each j in C.
    q is minimal exactly when every member of p has a private cutset, one that
    meets q in that member alone (j has C).  Cutsets are taken smallest first,
    which keeps the intermediate families small.  A family larger than
    ``PATHSET_LIMIT`` raises InputError.
    """
    paths = [0]
    seen: list[int] = []
    for cut in sorted(cutsets._masks, key=int.bit_count):
        seen.append(cut)
        bits = [1 << j for j in _members(cut)]
        extended = [p for p in paths if p & cut]
        for p in paths:
            if not p & cut:
                extended += [p | b for b in bits if _members_have_private_cuts(p, p | b, seen)]
                if len(extended) > PATHSET_LIMIT:
                    raise InputError(
                        "too many minimal pathsets: the %d smallest minimal cutsets alone "
                        "have more than %d (PATHSET_LIMIT)" % (len(seen), PATHSET_LIMIT)
                    )
        paths = extended
    return tuple(_canonical(paths))


def _members_have_private_cuts(p: int, q: int, cuts: list[int]) -> bool:
    """Whether each member of p is the only member of q in one of the cuts."""
    private = 0
    for cut in cuts:
        shared = cut & q
        if not shared & (shared - 1):  # at most one member
            private |= shared
    return not p & ~private


def shortest_path_length(cutsets: CutsetMatrix) -> int:
    """Size of the smallest minimal pathset (fewest components that must work)."""
    return min(len(p) for p in minimal_pathsets(cutsets))
