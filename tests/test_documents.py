"""Structure document parsing, serialization, and validation."""

import pytest

from cutplan import InputError, minimal_cutsets
from cutplan.documents import (
    StructureDocument,
    document_to_structure,
    parse_document,
    serialize_document,
)


def cutset_doc():
    return StructureDocument(
        schema_version=1,
        components=("C1", "C2", "C3", "C4", "C5"),
        cutsets=(("C1", "C2"), ("C2", "C3"), ("C1", "C3", "C4"), ("C5",)),
        metadata={"name": "asymmetric five-component demo"},
    )


def two_of_three_doc():
    entries = []
    for mask in range(8):
        state = "".join("1" if mask >> k & 1 else "0" for k in range(3))
        entries.append((state, 1 if bin(mask).count("1") >= 2 else 0))
    return StructureDocument(
        schema_version=1,
        components=("C1", "C2", "C3"),
        truth_table=tuple(entries),
    )


class TestRoundTrip:
    def test_cutset_document(self):
        doc = cutset_doc()
        assert parse_document(serialize_document(doc)) == doc

    def test_truth_table_document(self):
        doc = two_of_three_doc()
        assert parse_document(serialize_document(doc)) == doc

    def test_without_metadata(self):
        doc = StructureDocument(
            schema_version=1, components=("A", "B"), cutsets=(("A", "B"),)
        )
        assert parse_document(serialize_document(doc)) == doc


class TestValidation:
    def base(self, **overrides):
        payload = {
            "schema_version": 1,
            "components": ["C1", "C2"],
            "cutsets": [["C1"], ["C2"]],
        }
        payload.update(overrides)
        import json

        return json.dumps(payload)

    def test_not_json(self):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_document("{nope")

    def test_wrong_schema_version(self):
        with pytest.raises(InputError, match="schema_version"):
            parse_document(self.base(schema_version=2))

    def test_unknown_field(self):
        with pytest.raises(InputError, match="unknown"):
            parse_document(self.base(extra=1))

    def test_duplicate_components(self):
        with pytest.raises(InputError, match="unique"):
            parse_document(self.base(components=["C1", "C1"]))

    def test_unknown_cutset_label(self):
        with pytest.raises(InputError, match="not a declared component"):
            parse_document(self.base(cutsets=[["C9"]]))

    def test_repeated_label_in_cutset(self):
        with pytest.raises(InputError, match="repeats"):
            parse_document(self.base(cutsets=[["C1", "C1"]]))

    def test_both_definitions(self):
        with pytest.raises(InputError, match="exactly one"):
            parse_document(
                self.base(truth_table=[{"state": "00", "failed": 0}])
            )

    def test_neither_definition(self):
        import json

        payload = {"schema_version": 1, "components": ["C1"]}
        with pytest.raises(InputError, match="exactly one"):
            parse_document(json.dumps(payload))

    def test_bad_bit_string(self):
        import json

        payload = {
            "schema_version": 1,
            "components": ["C1", "C2"],
            "truth_table": [{"state": "0", "failed": 0}],
        }
        with pytest.raises(InputError, match="bit string"):
            parse_document(json.dumps(payload))
        payload["truth_table"] = [{"state": "02", "failed": 0}]
        with pytest.raises(InputError, match="'02' is not a bit string"):
            parse_document(json.dumps(payload))

    def test_missing_states(self):
        import json

        payload = {
            "schema_version": 1,
            "components": ["C1", "C2"],
            "truth_table": [
                {"state": "00", "failed": 0},
                {"state": "11", "failed": 1},
            ],
        }
        with pytest.raises(InputError, match="lists 2 of the 4"):
            parse_document(json.dumps(payload))

    def test_duplicate_state(self):
        import json

        payload = {
            "schema_version": 1,
            "components": ["C1"],
            "truth_table": [
                {"state": "0", "failed": 0},
                {"state": "0", "failed": 0},
            ],
        }
        with pytest.raises(InputError, match="more than once"):
            parse_document(json.dumps(payload))


class TestToStructure:
    def test_equivalent_inputs_reduce_to_same_matrix(self):
        # The same system as a truth table and as a cutset list.
        as_table = minimal_cutsets(document_to_structure(two_of_three_doc()))
        as_sets = minimal_cutsets(
            document_to_structure(
                StructureDocument(
                    schema_version=1,
                    components=("C1", "C2", "C3"),
                    cutsets=(("C2", "C3"), ("C1", "C2"), ("C1", "C3")),
                )
            )
        )
        assert as_table.canonical_digest() == as_sets.canonical_digest()
        assert as_table.rows == as_sets.rows

    def test_bit_string_orientation(self):
        # Character k of a state string is the state of components[k].
        doc = StructureDocument(
            schema_version=1,
            components=("A", "B"),
            truth_table=(("00", 0), ("10", 1), ("01", 0), ("11", 1)),
        )
        matrix = minimal_cutsets(document_to_structure(doc))
        assert matrix.rows == ((1, 0),)
