"""System fault-tolerance structures, minimal cutsets, and minimal pathsets.

A system of m components is described by a coherent (monotone) boolean
structure function phi over component-failure indicators: phi(x) = 1 means the
combination of failed components x brings the whole system down.  Structures
are given either as an explicit truth table or as a list of cutsets; both
reduce to the canonical incidence matrix of inclusion-minimal cutsets that the
planner operates on.  Sets of components are int bitmasks (bit j for
component j) everywhere, the rows of that matrix included, and a truth table
is one int of 2^m bits: bit ``mask`` is phi(mask).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
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


def _check_masks(masks: tuple, m: int):
    """Each mask must be a nonempty set of the m components: an int with 0 < mask < 2^m."""
    if not all(isinstance(mask, int) and 0 < mask < 1 << m for mask in masks):
        raise InputError("cutsets must be nonempty component sets")


def _index_masks(sets: Iterable[Iterable[int]], m: int) -> tuple[int, ...]:
    """Component masks of sets given as iterables of component indices 0..m-1."""
    masks = []
    for members in sets:
        members = set(members)
        if not all(isinstance(j, int) and 0 <= j < m for j in members):
            raise InputError("cutset members must be component indices in range")
        masks.append(sum(1 << j for j in members))
    return tuple(masks)


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
        return cls(component_names, cutsets=_index_masks(cutsets, len(component_names)))

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
        _check_masks(self.cutsets, self.m)

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
    """Incidence matrix of the minimal cutsets, one component mask per row.

    Bit j of ``rows[i]`` is set when component j belongs to minimal cutset i,
    so row i is the 0/1 matrix row read as a binary number, component 0
    lowest.  Rows are nonzero, below 2^m, pairwise distinct and incomparable
    under the subset order.  A component in no row is legal (irrelevant to
    system failure) and is surfaced via :meth:`zero_columns`.
    """

    component_names: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        names = _check_component_names(self.component_names)
        object.__setattr__(self, "component_names", names)
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise InputError("cutset matrix needs at least one row")
        _check_masks(rows, len(names))
        if any(a & b in (a, b) for a, b in itertools.combinations(rows, 2)):
            raise InputError("cutset rows must be distinct and pairwise incomparable")

    @property
    def s(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.component_names)

    @classmethod
    def from_index_sets(cls, component_names: Sequence[str], sets: Iterable[Iterable[int]]) -> "CutsetMatrix":
        """Build from rows given as iterables of component indices."""
        return cls(component_names, _index_masks(sets, len(component_names)))

    def row_members(self, i: int) -> tuple[int, ...]:
        """Component indices of cutset i, ascending."""
        return _members(self.rows[i])

    def zero_columns(self) -> tuple[int, ...]:
        """Indices of components that appear in no minimal cutset."""
        used = 0
        for row in self.rows:
            used |= row
        return _members(((1 << self.m) - 1) & ~used)

    def canonical_digest(self) -> str:
        """Hex digest identifying the matrix independent of row order and labels."""
        payload = "m=%d;rows=%s" % (
            self.m,
            "|".join(",".join(map(str, key)) for key in _canonical(self.rows)),
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
    return CutsetMatrix(structure.component_names, tuple(sorted(family, key=_members)))


def minimal_pathsets(cutsets: CutsetMatrix) -> tuple[tuple[int, ...], ...]:
    """All inclusion-minimal component sets intersecting every minimal cutset.

    These are the minimal path sets of the dual structure: keeping every
    component of any one of them working guarantees system success.  Computed
    by Berge's sequential transversal algorithm on bitmasks: the minimal
    transversals of the cutsets seen so far are carried to the next cutset C,
    and each one p that misses C is extended to p | {j} for the j in C that
    keep it minimal.  Each member i of p has a private cutset, one that meets
    p in i alone, and p | {j} is minimal exactly when some private cutset of
    each i misses j.  So one pass over the seen cutsets takes, for each member
    of p, the AND of its private cutsets, and the members of C outside all of
    these ANDs are the j to extend by.  Cutsets are taken smallest first,
    which keeps the intermediate families small.  A family larger than
    ``PATHSET_LIMIT`` raises InputError.
    """
    paths = [0]
    seen: list[int] = []
    for cut in sorted(cutsets.rows, key=int.bit_count):
        seen.append(cut)
        bits = [1 << j for j in _members(cut)]
        extended = [p for p in paths if p & cut]
        for p in paths:
            if not p & cut:
                private: dict[int, int] = {}
                for other in seen:
                    shared = other & p
                    if shared and not shared & (shared - 1):  # one member
                        private[shared] = private.get(shared, other) & other
                blocked = 0
                for meet in private.values():
                    blocked |= meet
                extended += [p | b for b in bits if not b & blocked]
                if len(extended) > PATHSET_LIMIT:
                    raise InputError(
                        "too many minimal pathsets: the %d smallest minimal cutsets alone "
                        "have more than %d (PATHSET_LIMIT)" % (len(seen), PATHSET_LIMIT)
                    )
        paths = extended
    return tuple(_canonical(paths))


def shortest_path_length(cutsets: CutsetMatrix) -> int:
    """Size of the smallest minimal pathset (fewest components that must work)."""
    return min(len(p) for p in minimal_pathsets(cutsets))
