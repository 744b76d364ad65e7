"""Structure reduction: minimal cutsets, pathsets, shortest path length."""

import itertools
import random
import time

import pytest

from cutplan import (
    CutsetMatrix,
    DegenerateStructure,
    InputError,
    NonCoherentStructure,
    SystemStructure,
    minimal_cutsets,
    minimal_pathsets,
    shortest_path_length,
    structure,
)

from conftest import (
    ASYMMETRIC_NAMES,
    ASYMMETRIC_SETS,
    asymmetric_matrix,
    brute_force_minimal_hitting_sets,
    names,
    reference_minimal_pathsets,
    scan_monotonicity_witness,
    series_matrix,
    superset_table,
    two_of_three_matrix,
)


def two_of_three_table():
    return [1 if bin(mask).count("1") >= 2 else 0 for mask in range(8)]


class TestMinimalCutsets:
    def test_two_of_three_truth_table(self):
        structure = SystemStructure.from_truth_table(names(3), two_of_three_table())
        matrix = minimal_cutsets(structure)
        assert matrix.rows == (0b011, 0b101, 0b110)

    def test_cutset_list_is_minimalized_and_canonical(self):
        # Scrambled order plus a duplicate and a superset of an existing cutset.
        structure = SystemStructure.from_cutsets(
            ASYMMETRIC_NAMES,
            [(4,), (0, 2, 3), (1, 2), (0, 1), (1, 2), (0, 1, 3)],
        )
        matrix = minimal_cutsets(structure)
        assert [matrix.row_members(i) for i in range(matrix.s)] == [
            (0, 1),
            (0, 2, 3),
            (1, 2),
            (4,),
        ]

    def test_series_truth_table(self):
        # System fails as soon as any component fails.
        table = [1 if mask else 0 for mask in range(4)]
        structure = SystemStructure.from_truth_table(names(2), table)
        matrix = minimal_cutsets(structure)
        assert matrix.rows == (0b01, 0b10)

    def test_subset_minimality(self):
        structure = SystemStructure.from_cutsets(names(2), [(0,), (0, 1)])
        matrix = minimal_cutsets(structure)
        assert matrix.rows == (0b01,)

    def test_truth_table_and_cutsets_give_same_digest(self):
        from_table = minimal_cutsets(
            SystemStructure.from_truth_table(names(3), two_of_three_table())
        )
        from_sets = minimal_cutsets(
            SystemStructure.from_cutsets(names(3), [(1, 2), (0, 1), (0, 2)])
        )
        assert from_table.canonical_digest() == from_sets.canonical_digest()


class TestValidation:
    def test_non_monotone_table_rejected_with_witness(self):
        table = two_of_three_table()
        table[0b011] = 1  # C1,C2 failed -> system failed
        table[0b111] = 0  # ...but all failed -> system fine
        with pytest.raises(NonCoherentStructure) as excinfo:
            SystemStructure.from_truth_table(names(3), table)
        err = excinfo.value
        assert err.state_low == (1, 1, 0)
        assert err.state_high == (1, 1, 1)

    def test_witness_matches_per_state_scan(self):
        rng = random.Random(2604)
        witnessed = 0
        for trial in range(600):
            m = rng.randint(1, 6)
            if trial % 2:
                table = [rng.randint(0, 1) for _ in range(1 << m)]
            else:
                # A weighted threshold function with a few states flipped.
                weights = [rng.randint(0, 3) for _ in range(m)]
                threshold = rng.randint(1, sum(weights) + 1)
                table = [
                    int(sum(w for j, w in enumerate(weights) if mask >> j & 1) >= threshold)
                    for mask in range(1 << m)
                ]
                for _ in range(rng.randint(0, 2)):
                    table[rng.randrange(1 << m)] ^= 1
            try:
                SystemStructure.from_truth_table(names(m), table)
                found = None
            except NonCoherentStructure as err:
                found = (err.state_low, err.state_high)
                witnessed += 1
            except DegenerateStructure:
                found = None
            expected = scan_monotonicity_witness(table, m)
            if expected is not None:
                expected = tuple(tuple(mask >> j & 1 for j in range(m)) for mask in expected)
            assert found == expected, table
        assert witnessed > 200

    def test_constant_tables_rejected(self):
        with pytest.raises(DegenerateStructure):
            SystemStructure.from_truth_table(names(2), [0, 0, 0, 0])
        with pytest.raises(DegenerateStructure):
            SystemStructure.from_truth_table(names(2), [1, 1, 1, 1])

    def test_empty_cutset_list_rejected(self):
        with pytest.raises(DegenerateStructure):
            SystemStructure.from_cutsets(names(2), [])

    def test_truth_table_component_cap(self):
        with pytest.raises(InputError, match="limited to 20"):
            SystemStructure.from_truth_table(names(21), [0])

    def test_cutset_members_in_range(self):
        with pytest.raises(InputError, match="in range"):
            SystemStructure.from_cutsets(names(2), [(0,), (2,)])
        with pytest.raises(InputError, match="nonempty component sets"):
            SystemStructure.from_cutsets(names(2), [(0,), ()])
        for mask in (0b100, 0, -1, frozenset({0})):
            with pytest.raises(InputError, match="nonempty component sets"):
                SystemStructure(names(2), cutsets=(0b01, mask))

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            SystemStructure.from_cutsets(("A", "A"), [(0,)])

    def test_matrix_rows_must_be_incomparable(self):
        for rows in ((0b01, 0b11), (0b11, 0b01), (0b10, 0b10)):
            with pytest.raises(InputError, match="incomparable"):
                CutsetMatrix(names(2), rows)

    @pytest.mark.parametrize("sets", [[(-1,), (0,)], [(0,), (3,)], [(0,), (1, 1.5)]])
    def test_matrix_index_sets_in_range(self, sets):
        # A negative index used to mark the last component, one past the end
        # raised IndexError.
        with pytest.raises(InputError, match="in range"):
            CutsetMatrix.from_index_sets(("A", "B", "C"), sets)

    @pytest.mark.parametrize("row", [(1.5, 0), (1, 0), 1.5, "1", None, 0, -1, 0b100, 0b111])
    def test_matrix_rows_are_component_masks(self, row):
        # 0/1 tuples are no longer rows; (1.5, 0) used to be coerced to (1, 0).
        with pytest.raises(InputError, match="nonempty component sets"):
            CutsetMatrix(names(2), (row,))
        with pytest.raises(InputError, match="nonempty component sets"):
            CutsetMatrix(names(2), (0b01, row))

    def test_matrix_from_index_sets_gives_masks(self):
        matrix = CutsetMatrix.from_index_sets(("A", "B", "C"), [(2, 0, 2), [1]])
        assert matrix.rows == (0b101, 0b010)

    def test_zero_columns_reported(self):
        matrix = CutsetMatrix.from_index_sets(names(3), [(0,), (1,)])
        assert matrix.zero_columns() == (2,)
        assert asymmetric_matrix().zero_columns() == ()


class TestPathsets:
    def test_two_of_three_is_self_dual(self):
        matrix = two_of_three_matrix()
        assert minimal_pathsets(matrix) == ((0, 1), (0, 2), (1, 2))

    def test_asymmetric_family(self):
        paths = minimal_pathsets(asymmetric_matrix())
        assert (0, 1, 4) in paths
        assert min(len(p) for p in paths) == 3
        assert paths == ((0, 1, 4), (0, 2, 4), (1, 2, 4), (1, 3, 4))

    def test_single_cutset_dualizes_to_singletons(self):
        matrix = CutsetMatrix.from_index_sets(names(2), [(0, 1)])
        assert minimal_pathsets(matrix) == ((0,), (1,))

    def test_shortest_path_lengths(self):
        assert shortest_path_length(two_of_three_matrix()) == 2
        assert shortest_path_length(asymmetric_matrix()) == 3
        for m in (1, 2, 5):
            assert shortest_path_length(series_matrix(m)) == m


def random_family(rng, m, count, sizes):
    """Up to count pairwise incomparable random cutsets over m components, as a matrix."""
    family = []
    for _ in range(10 * count):
        cut = frozenset(rng.sample(range(m), min(m, rng.choice(sizes))))
        if all(not (cut <= o or o <= cut) for o in family):
            family.append(cut)
            if len(family) == count:
                break
    return CutsetMatrix.from_index_sets(names(m), sorted(tuple(sorted(c)) for c in family))


class TestPathsetKernel:
    def test_matches_the_scan_reference(self):
        rng = random.Random(1414)
        with_zero_columns = 0
        for trial in range(500):
            m = rng.randint(1, 14)
            matrix = random_family(rng, m, rng.randint(1, 16), range(1, 5))
            with_zero_columns += bool(matrix.zero_columns())
            assert minimal_pathsets(matrix) == reference_minimal_pathsets(matrix), (trial, matrix.rows)
        assert with_zero_columns >= 100

    def test_limit_fails_at_the_same_cutset(self, monkeypatch):
        monkeypatch.setattr(structure, "PATHSET_LIMIT", 300)
        rng = random.Random(4040)
        for trial in range(4):
            matrix = random_family(rng, 40, 74, (2, 3, 4))
            assert matrix.s == 74
            messages = []
            for kernel in (minimal_pathsets, reference_minimal_pathsets):
                with pytest.raises(InputError, match=r"more than 300 \(PATHSET_LIMIT\)") as excinfo:
                    kernel(matrix)
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1], trial


class TestProperties:
    def test_truth_table_equivalence_with_cutset_covering(self):
        # phi(x) = 1 exactly when x covers a minimal cutset, for monotone
        # tables that were not generated from cutsets (weighted thresholds).
        rng = random.Random(1702)
        for m in (3, 4, 6, 12):
            weights = [rng.randint(0, 4) for _ in range(m)]
            if not any(weights):
                weights[0] = 1
            threshold = max(1, sum(weights) // 2)
            table = [
                1 if sum(w for j, w in enumerate(weights) if mask >> j & 1) >= threshold else 0
                for mask in range(1 << m)
            ]
            structure = SystemStructure.from_truth_table(names(m), table)
            matrix = minimal_cutsets(structure)
            members = [set(matrix.row_members(i)) for i in range(matrix.s)]
            for mask in range(1 << m):
                failed = {j for j in range(m) if mask >> j & 1}
                covered = any(cut <= failed for cut in members)
                assert covered == bool(table[mask]), (weights, threshold, mask)

    def test_dualization_is_an_involution(self, corpus_structures):
        for label, matrix in corpus_structures:
            if matrix.m > 8:
                continue
            paths = minimal_pathsets(matrix)
            dual = CutsetMatrix.from_index_sets(matrix.component_names, paths)
            back = minimal_pathsets(dual)
            original = sorted(matrix.row_members(i) for i in range(matrix.s))
            assert sorted(back) == original, label

    def test_every_pathset_hits_every_cutset(self, corpus_structures):
        for label, matrix in corpus_structures:
            cuts = [set(matrix.row_members(i)) for i in range(matrix.s)]
            for path in minimal_pathsets(matrix):
                assert all(set(path) & cut for cut in cuts), label

    def test_pathsets_match_brute_force_hitting_sets(self, corpus_structures):
        for label, matrix in corpus_structures:
            if matrix.m > 8:
                continue
            cuts = [matrix.row_members(i) for i in range(matrix.s)]
            expected = brute_force_minimal_hitting_sets(cuts, matrix.m)
            assert list(minimal_pathsets(matrix)) == expected, label

    def test_uniform_cutset_size_shortest_path(self):
        # Cutsets of every k-subset of n components leave success paths of
        # exactly n - k + 1 components.
        for n in range(2, 6):
            for k in range(1, n + 1):
                matrix = CutsetMatrix.from_index_sets(
                    names(n), itertools.combinations(range(n), k)
                )
                cuts = [matrix.row_members(i) for i in range(matrix.s)]
                expected = brute_force_minimal_hitting_sets(cuts, n)
                assert shortest_path_length(matrix) == n - k + 1
                assert min(len(p) for p in expected) == n - k + 1


class TestLargeStructures:
    def test_m20_truth_table_reduces_quickly(self):
        rng = random.Random(2020)
        family = set()
        while len(family) < 14:
            family.add(frozenset(rng.sample(range(20), rng.randint(2, 5))))
        expected = sorted(tuple(sorted(c)) for c in family if not any(o < c for o in family))
        table = superset_table(family, 20)
        start = time.perf_counter()
        matrix = minimal_cutsets(SystemStructure.from_truth_table(names(20), table))
        elapsed = time.perf_counter() - start
        assert [matrix.row_members(i) for i in range(matrix.s)] == expected
        assert elapsed < 0.5

    def test_m32_pathsets_are_distinct_minimal_hitting_sets(self):
        rng = random.Random(3232)
        family = []
        while len(family) < 25:
            cut = frozenset(rng.sample(range(32), rng.randint(2, 6)))
            if all(not (cut <= o or o <= cut) for o in family):
                family.append(cut)
        matrix = CutsetMatrix.from_index_sets(names(32), sorted(tuple(sorted(c)) for c in family))
        start = time.perf_counter()
        paths = minimal_pathsets(matrix)
        elapsed = time.perf_counter() - start
        assert elapsed < 2
        assert len(set(paths)) == len(paths)
        cuts = [sum(1 << j for j in cut) for cut in family]
        for path in paths:
            hit = sum(1 << j for j in path)
            assert all(hit & cut for cut in cuts), path
            for j in path:
                assert not all(hit & ~(1 << j) & cut for cut in cuts), (path, j)
