"""Structure documents: envelope checks, content checks, and the structures they read into."""

import json
import random

import pytest

from cutplan import (
    CutplanError,
    DegenerateStructure,
    InputError,
    NonCoherentStructure,
    SystemStructure,
    minimal_cutsets,
)
from cutplan.documents import document_to_structure, parse_document

from conftest import names, reference_truth_table, scan_monotonicity_witness, superset_table


def read(payload):
    """The structure of a document given as its JSON payload."""
    return document_to_structure(parse_document(json.dumps(payload)))


def state_string(mask, m):
    """Character k is bit k of mask."""
    return "".join("1" if mask >> k & 1 else "0" for k in range(m))


def truth_table_doc(table, m, order=None):
    """A truth-table document listing table[mask] for each mask, in the given order."""
    order = range(1 << m) if order is None else order
    return {
        "schema_version": 1,
        "components": list(names(m)),
        "truth_table": [{"state": state_string(mask, m), "failed": table[mask]} for mask in order],
    }


def two_of_three_doc():
    return truth_table_doc([1 if bin(mask).count("1") >= 2 else 0 for mask in range(8)], 3)


class TestValidation:
    def base(self, **overrides):
        payload = {
            "schema_version": 1,
            "components": ["C1", "C2"],
            "cutsets": [["C1"], ["C2"]],
        }
        payload.update(overrides)
        return payload

    def test_not_json(self):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_document("{nope")

    def test_wrong_schema_version(self):
        with pytest.raises(InputError, match="schema_version"):
            read(self.base(schema_version=2))

    def test_unknown_field(self):
        with pytest.raises(InputError, match="unknown"):
            read(self.base(extra=1))

    def test_duplicate_components(self):
        with pytest.raises(InputError, match="unique"):
            read(self.base(components=["C1", "C1"]))

    def test_unknown_cutset_label(self):
        with pytest.raises(InputError, match="not a declared component"):
            read(self.base(cutsets=[["C9"]]))
        with pytest.raises(InputError, match=r"label \['C1'\] is not a declared component"):
            read(self.base(cutsets=[[["C1"]]]))

    def test_repeated_label_in_cutset(self):
        with pytest.raises(InputError, match="repeats"):
            read(self.base(cutsets=[["C1", "C1"]]))

    def test_both_definitions(self):
        with pytest.raises(InputError, match="exactly one"):
            read(self.base(truth_table=[{"state": "00", "failed": 0}]))

    def test_neither_definition(self):
        payload = {"schema_version": 1, "components": ["C1"]}
        with pytest.raises(InputError, match="exactly one"):
            read(payload)

    def test_metadata_is_an_optional_object(self):
        assert read(self.base(metadata=None)) == read(self.base())
        assert read(self.base(metadata={"any": [1, "x"]})) == read(self.base())
        with pytest.raises(InputError, match="metadata must be an object"):
            read(self.base(metadata=[]))

    def test_bad_bit_string(self):
        payload = {
            "schema_version": 1,
            "components": ["C1", "C2"],
            "truth_table": [{"state": "0", "failed": 0}],
        }
        with pytest.raises(InputError, match="bit string"):
            read(payload)
        payload["truth_table"] = [{"state": "02", "failed": 0}]
        with pytest.raises(InputError, match="'02' is not a bit string"):
            read(payload)

    def test_failed_flag_is_0_or_1(self):
        series = [0, 1, 1, 1]
        expected = read(truth_table_doc(series, 2)).truth_table
        for bad in (2, "1", None, [1]):
            with pytest.raises(InputError, match="failed flag must be 0 or 1"):
                read(truth_table_doc(series[:3] + [bad], 2))
        # JSON true and 1.0 equal 1, as they did when flags were counted.
        assert read(truth_table_doc([False, True, 1.0, True], 2)).truth_table == expected

    def test_missing_states(self):
        payload = {
            "schema_version": 1,
            "components": ["C1", "C2"],
            "truth_table": [
                {"state": "00", "failed": 0},
                {"state": "11", "failed": 1},
            ],
        }
        with pytest.raises(InputError, match="lists 2 of the 4"):
            read(payload)

    def test_duplicate_state(self):
        payload = {
            "schema_version": 1,
            "components": ["C1"],
            "truth_table": [
                {"state": "0", "failed": 0},
                {"state": "0", "failed": 0},
            ],
        }
        with pytest.raises(InputError, match="more than once"):
            read(payload)

    def test_too_deeply_nested(self):
        with pytest.raises(InputError, match="nests too deeply"):
            parse_document("[" * 200000)

    def test_integer_beyond_the_conversion_limit(self):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_document('{"schema_version": %s}' % ("1" * 5000))


class TestToStructure:
    def test_equivalent_inputs_reduce_to_same_matrix(self):
        # The same system as a truth table and as a cutset list.
        as_table = minimal_cutsets(read(two_of_three_doc()))
        as_sets = minimal_cutsets(
            read(
                {
                    "schema_version": 1,
                    "components": ["C1", "C2", "C3"],
                    "cutsets": [["C2", "C3"], ["C1", "C2"], ["C1", "C3"]],
                }
            )
        )
        assert as_table.canonical_digest() == as_sets.canonical_digest()
        assert as_table.rows == as_sets.rows

    def test_bit_string_orientation(self):
        # Character k of a state string is the state of components[k].
        doc = {
            "schema_version": 1,
            "components": ["A", "B"],
            "truth_table": [
                {"state": state, "failed": failed}
                for state, failed in (("00", 0), ("10", 1), ("01", 0), ("11", 1))
            ],
        }
        matrix = minimal_cutsets(read(doc))
        assert matrix.rows == (0b01,)

    def test_cutsets_read_as_masks(self):
        doc = {
            "schema_version": 1,
            "components": ["A", "B", "C"],
            "cutsets": [["C", "A"], ["B"], ["A", "B", "C"]],
        }
        assert read(doc).cutsets == (0b101, 0b010, 0b111)
        assert read(doc) == SystemStructure.from_cutsets(["A", "B", "C"], [(2, 0), (1,), (0, 1, 2)])

    def test_random_tables_in_shuffled_order(self):
        # The reader agrees with from_truth_table on the flags in mask order:
        # the same int for a monotone table, the per-state scan's witness
        # for a non-monotone one.
        rng = random.Random(4404)
        witnessed = monotone = 0
        for trial in range(300):
            m = rng.randint(1, 7)
            if trial % 3 == 0:
                table = [rng.randint(0, 1) for _ in range(1 << m)]
            else:
                # A weighted threshold function, with one state flipped in half of them.
                weights = [rng.randint(1, 3) for _ in range(m)]
                threshold = rng.randint(1, sum(weights))
                table = [
                    int(sum(w for j, w in enumerate(weights) if mask >> j & 1) >= threshold)
                    for mask in range(1 << m)
                ]
                if trial % 3 == 1:
                    table[rng.randrange(1 << m)] ^= 1
            order = list(range(1 << m))
            rng.shuffle(order)
            doc = truth_table_doc(table, m, order)
            witness = scan_monotonicity_witness(table, m)
            if witness is not None:
                witnessed += 1
                with pytest.raises(NonCoherentStructure) as excinfo:
                    read(doc)
                low, high = (tuple(mask >> j & 1 for j in range(m)) for mask in witness)
                assert (excinfo.value.state_low, excinfo.value.state_high) == (low, high)
            elif not table[0] and table[-1]:
                monotone += 1
                expected = SystemStructure.from_truth_table(names(m), table)
                assert read(doc).truth_table == expected.truth_table
            else:
                with pytest.raises(DegenerateStructure):
                    read(doc)
        assert witnessed >= 100 and monotone >= 100


def outcome(build):
    """The structure build() returns, or the type and message of its error."""
    try:
        return build()
    except CutplanError as exc:
        return type(exc).__name__, str(exc)


def agrees_with_reference(raw, m):
    """The reader and the entry-by-entry reference give the same structure or the same error."""
    doc = {"schema_version": 1, "components": list(names(m)), "truth_table": raw}
    got = outcome(lambda: document_to_structure(doc))
    want = outcome(lambda: SystemStructure(names(m), truth_table=reference_truth_table(raw, m)))
    return got == want


def threshold_table(rng, m):
    weights = [rng.randint(1, 3) for _ in range(m)]
    threshold = rng.randint(1, sum(weights))
    return [int(sum(w for j, w in enumerate(weights) if mask >> j & 1) >= threshold) for mask in range(1 << m)]


def shuffled_entries(rng, table, m):
    entries = [{"state": state_string(mask, m), "failed": table[mask]} for mask in range(1 << m)]
    rng.shuffle(entries)
    return entries


# Values that break one rule each, or that the reader must accept.
ODD_ENTRIES = ([], "00", None, 1, {"state": "0"}, {"failed": 0}, {"state": "0", "failed": 0, "x": 1})
ODD_STATES = (None, 5, ["0"], "", "2", "_", "+", "-", " ", "\n", "é", "\u0661")
ODD_FLAGS = (2, -1, 0.5, None, "1", "0", [1], {}, float("nan"), True, False, 1.0, -0.0, 0.0)


def mutate(rng, entries, m):
    """A copy of the entries with one random fault, or one odd value the reader accepts."""
    entries = [dict(e) if isinstance(e, dict) else e for e in entries]
    i = rng.randrange(len(entries))
    entry = entries[i] if isinstance(entries[i], dict) else {}
    state = entry.get("state")
    kind = rng.randrange(7)
    if kind == 0:
        entries[i] = rng.choice(ODD_ENTRIES)
    elif kind == 1:
        # A state one character off: a bad character, too short or too long.
        if isinstance(state, str) and state:
            k = rng.randrange(len(state))
            odd = [state[:k] + rng.choice(ODD_STATES[4:]) + state[k + 1:], state[:-1], state + "0"]
            entries[i] = {**entry, "state": rng.choice(odd)}
        else:
            entries[i] = {**entry, "state": rng.choice(ODD_STATES)}
    elif kind == 2:
        entries[i] = {**entry, "failed": rng.choice(ODD_FLAGS)}
    elif kind == 3:
        other = entries[rng.randrange(len(entries))]
        if isinstance(other, dict) and "state" in other:
            entries[i] = {**entry, "state": other["state"]}
    elif kind == 4 and len(entries) > 1:
        del entries[i]
    elif kind == 5:
        # One character moved from this state to another: the total length stays.
        o = rng.randrange(len(entries))
        other = entries[o].get("state") if isinstance(entries[o], dict) else None
        if isinstance(state, str) and state and isinstance(other, str) and o != i:
            k, at = rng.randrange(len(state)), rng.randrange(len(other) + 1)
            entries[i] = {**entry, "state": state[:k] + state[k + 1:]}
            entries[o] = {**entries[o], "state": other[:at] + state[k] + other[at:]}
    else:
        entries.insert(i, rng.choice(entries))
    return entries


class TestTruthTableReader:
    def test_shuffled_tables_match_the_reference(self):
        rng = random.Random(1018)
        for m in range(1, 8):
            for trial in range(12):
                if trial % 3 == 0:
                    table = [rng.randint(0, 1) for _ in range(1 << m)]
                else:
                    table = threshold_table(rng, m)
                entries = shuffled_entries(rng, table, m)
                if trial % 4 == 1:
                    # Flags as JSON may give them: true/false, 1.0, -0.0.
                    odd = {0: (False, 0.0, -0.0), 1: (True, 1.0)}
                    entries = [{**e, "failed": rng.choice(odd[e["failed"]])} for e in entries]
                assert agrees_with_reference(entries, m), (m, trial)

    def test_faulty_tables_match_the_reference(self):
        rng = random.Random(2026)
        faulty = 0
        for case in range(3000):
            m = rng.randint(1, 5)
            entries = shuffled_entries(rng, threshold_table(rng, m), m)
            for _ in range(rng.randint(1, 3)):
                entries = mutate(rng, entries, m)
            assert agrees_with_reference(entries, m), (case, entries)
            try:
                reference_truth_table(entries, m)
            except InputError:
                faulty += 1
        assert faulty >= 2500

    @pytest.mark.parametrize(
        "entries, message",
        [
            # The first faulty entry is reported, whatever follows it.
            ([("00", 0), ("10", 2), {"state": "01"}, ("11", 1)], "failed flag must be 0 or 1"),
            ([("00", 0), {"state": "10"}, ("01", 2), ("11", 1)], "entries must have exactly state and failed"),
            ([("00", 0), ("10", 0), ("10", 0), ("11", 2)], "state '10' appears more than once"),
            ([("00", 0), ("00", 0), ("0x", 0), ("11", 1)], "state '00' appears more than once"),
            # Within one entry: shape, then state, then flag, then repeat.
            ([("00", 0), {"state": "0x", "failed": 2, "x": 0}, ("01", 0), ("11", 1)], "entries must have exactly"),
            ([("00", 0), ("0x", 2), ("01", 0), ("11", 1)], "state '0x' is not a bit string of length 2"),
            ([("00", 0), ("00", 2), ("01", 0), ("11", 1)], "failed flag must be 0 or 1"),
            # A faulty entry is reported before the count.
            ([("0_", 0), ("10", 0), ("11", 1)], "state '0_' is not a bit string of length 2"),
            ([("00", 0), ("10", [1]), ("11", 1)], "failed flag must be 0 or 1"),
            ([("00", 0), ("10", 0), ("01", 0), ("11", 1), ("11", 1)], "state '11' appears more than once"),
            ([("00", 0), ("11", 1)], "truth table lists 2 of the 4 states"),
            # Right-length states that int(s, 2) would take.
            ([("00", 0), ("10", 0), ("+1", 0), ("11", 1)], r"state '\+1' is not a bit string"),
            ([("00", 0), ("10", 0), (" 1", 0), ("11", 1)], "state ' 1' is not a bit string"),
            ([("00", 0), ("10", 0), ("0\u0661", 0), ("11", 1)], "is not a bit string of length 2"),
            # Right total length, but a newline in a state or states of two lengths.
            ([("00", 0), ("1\n", 0), ("01", 0), ("11", 1)], r"state '1\\n' is not a bit string of length 2"),
            ([("00", 0), ("1", 0), ("011", 0), ("11", 1)], "state '1' is not a bit string of length 2"),
            ([("00", 0), (10, 0), ("01", 0), ("11", 1)], "state 10 is not a bit string of length 2"),
            # One component.
            ([("0", 0), ("\n", 1)], r"state '\\n' is not a bit string of length 1"),
            ([("1", 1), ("1", 1)], "state '1' appears more than once"),
        ],
    )
    def test_first_fault_in_listed_order(self, entries, message):
        # Every case lists its first entry as a (state, flag) pair of m characters.
        m = len(entries[0][0])
        raw = [e if isinstance(e, dict) else {"state": e[0], "failed": e[1]} for e in entries]
        doc = {"schema_version": 1, "components": list(names(m)), "truth_table": raw}
        with pytest.raises(InputError, match=message):
            document_to_structure(doc)
        with pytest.raises(InputError, match=message):
            reference_truth_table(raw, m)

    def test_large_shuffled_table(self):
        rng = random.Random(14)
        m = 14
        table = threshold_table(rng, m)
        assert not table[0] and table[-1]
        doc = truth_table_doc(table, m, rng.sample(range(1 << m), 1 << m))
        assert read(doc) == SystemStructure.from_truth_table(names(m), table)

    def test_m17_table_fills_three_byte_lanes(self):
        rng = random.Random(17)
        m = 17
        family = {frozenset(rng.sample(range(m), rng.randint(2, 5))) for _ in range(12)}
        table = list(superset_table(family, m))
        entries = [{"state": format(mask, "017b")[::-1], "failed": table[mask]} for mask in range(1 << m)]
        rng.shuffle(entries)
        doc = {"schema_version": 1, "components": list(names(m)), "truth_table": entries}
        assert document_to_structure(doc) == SystemStructure.from_truth_table(names(m), table)
