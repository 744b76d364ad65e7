"""Shared structures and independent brute-force helpers for the suite."""

import itertools
import random
from fractions import Fraction

import pytest

from cutplan import CutsetMatrix, InputError, structure

# The five-component asymmetric demo used throughout the docs: C1..C4 carry
# redundancy, C5 is a single point of failure.
ASYMMETRIC_NAMES = ("C1", "C2", "C3", "C4", "C5")
ASYMMETRIC_SETS = ((0, 1), (1, 2), (0, 2, 3), (4,))


def names(m):
    return tuple("C%d" % (j + 1) for j in range(m))


def asymmetric_matrix():
    return CutsetMatrix.from_index_sets(ASYMMETRIC_NAMES, ASYMMETRIC_SETS)


def two_of_three_matrix():
    return CutsetMatrix.from_index_sets(names(3), [(0, 1), (0, 2), (1, 2)])


def series_matrix(m):
    return CutsetMatrix.from_index_sets(names(m), [(j,) for j in range(m)])


def voting_matrix(k_required, n):
    """System needing k of n components: cutsets are all (n-k+1)-subsets."""
    size = n - k_required + 1
    return CutsetMatrix.from_index_sets(
        names(n), itertools.combinations(range(n), size)
    )


def zero_column_matrix():
    """Three components, C3 in no cutset."""
    return CutsetMatrix.from_index_sets(names(3), [(0,), (1,)])


def random_coherent_matrix(rng: random.Random, max_m=5, max_draws=6):
    """Random minimal cutset family; coherent by construction."""
    while True:
        m = rng.randint(2, max_m)
        draws = rng.randint(1, max_draws)
        family = set()
        for _ in range(draws):
            size = rng.randint(1, m)
            family.add(frozenset(rng.sample(range(m), size)))
        minimal = {s for s in family if not any(o < s for o in family)}
        if minimal:
            ordered = sorted(tuple(sorted(s)) for s in minimal)
            return CutsetMatrix.from_index_sets(names(m), ordered)


def corpus():
    """Fixed spread of structures exercised by the property suites."""
    structures = [
        ("two_of_three", two_of_three_matrix()),
        ("asymmetric_five", asymmetric_matrix()),
        ("single_component", series_matrix(1)),
        ("series_three", series_matrix(3)),
        ("series_four", series_matrix(4)),
        ("parallel_pair", CutsetMatrix.from_index_sets(names(2), [(0, 1)])),
        ("vote_2_of_4", voting_matrix(2, 4)),
        ("vote_3_of_5", voting_matrix(3, 5)),
        ("zero_column", zero_column_matrix()),
    ]
    rng = random.Random(20240911)
    for i in range(6):
        structures.append(("random_%d" % i, random_coherent_matrix(rng)))
    return structures


@pytest.fixture(scope="session")
def corpus_structures():
    return corpus()


# ---------------------------------------------------------------------------
# Independent oracles (no shared code with the package internals they check).


def slow_n_zero(fractions):
    """Increment a candidate total until every scaled fraction is integer."""
    fractions = [Fraction(f) for f in fractions]
    k = 1
    while True:
        if all((k * f.numerator) % f.denominator == 0 for f in fractions):
            return k
        k += 1


def brute_force_minimal_hitting_sets(families, m):
    """All inclusion-minimal hitting sets by scanning every subset of 2^m."""
    hitting = [
        frozenset(s)
        for r in range(m + 1)
        for s in itertools.combinations(range(m), r)
        if all(set(s) & set(fam) for fam in families)
    ]
    return sorted(
        tuple(sorted(h))
        for h in hitting
        if not any(o < h for o in hitting)
    )


def scan_monotonicity_witness(table, m):
    """First (failed state, working superset) pair of a per-state scan.

    States ascend, then the component added; None for a monotone table.
    """
    for mask in range(1 << m):
        if not table[mask]:
            continue
        for j in range(m):
            larger = mask | (1 << j)
            if larger != mask and not table[larger]:
                return mask, larger
    return None


def reference_truth_table(raw, m):
    """Truth-table entries read one by one into the table int; bit mask is phi(mask).

    Raises the document reader's InputError for the first fault in listed
    order: an entry's shape, its state, its flag, a repeated state, and after
    the last entry a missing state.
    """
    if not isinstance(raw, list) or not raw:
        raise InputError("truth_table must be a nonempty list of entries")
    digits = bytearray(1 << m)
    for entry in raw:
        if not isinstance(entry, dict) or len(entry) != 2 or "state" not in entry or "failed" not in entry:
            raise InputError("truth table entries must have exactly state and failed fields")
        state, failed = entry["state"], entry["failed"]
        if not isinstance(state, str) or len(state) != m or state.strip("01"):
            raise InputError("state %r is not a bit string of length %d" % (state, m))
        if failed not in (0, 1):
            raise InputError("failed flag must be 0 or 1")
        mask = int(state[::-1], 2)
        if digits[~mask]:
            raise InputError("state %r appears more than once" % state)
        digits[~mask] = 49 if failed else 48
    if len(raw) != 1 << m:
        raise InputError("truth table lists %d of the %d states" % (len(raw), 1 << m))
    return int(digits, 2)


def reference_minimal_pathsets(cutsets):
    """Berge's transversal listing with a scan of every seen cutset per extension.

    Each p missing the next cutset C is extended to q = p | {j} for each j in
    C, and q is kept when every member of p is the only member of q in one of
    the seen cutsets.  Same order, ``PATHSET_LIMIT`` check and message as
    ``structure.minimal_pathsets``.
    """
    paths = [0]
    seen = []
    for cut in sorted(cutsets.rows, key=int.bit_count):
        seen.append(cut)
        bits = [1 << j for j in range(cutsets.m) if cut >> j & 1]
        extended = [p for p in paths if p & cut]
        for p in paths:
            if not p & cut:
                for b in bits:
                    q = p | b
                    private = 0
                    for other in seen:
                        shared = other & q
                        if not shared & (shared - 1):  # at most one member
                            private |= shared
                    if not p & ~private:
                        extended.append(q)
                if len(extended) > structure.PATHSET_LIMIT:
                    raise InputError(
                        "too many minimal pathsets: the %d smallest minimal cutsets alone "
                        "have more than %d (PATHSET_LIMIT)" % (len(seen), structure.PATHSET_LIMIT)
                    )
        paths = extended
    return tuple(sorted(tuple(j for j in range(cutsets.m) if p >> j & 1) for p in paths))


def superset_table(cutsets, m):
    """Bytes truth table of a cutset family: entry mask is 1 when mask covers a cutset."""
    covered = 0
    for cut in cutsets:
        # Doubling over components: j in the cutset keeps only the upper
        # half (j failed), any other j repeats the table in both halves.
        table = b"\x01"
        for j in range(m):
            table = bytes(len(table)) + table if j in cut else table + table
        covered |= int.from_bytes(table, "little")
    return covered.to_bytes(1 << m, "little")


def plan_minimum(rows, allocation):
    """Direct evaluation of the minimum cutset test total over mask rows."""
    return min(sum(n for j, n in enumerate(allocation) if row >> j & 1) for row in rows)
