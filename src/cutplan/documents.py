"""JSON structure documents: the on-disk input format of the CLI.

A document names the components and gives the failure structure either as a
list of cutsets (lists of component labels) or as a full truth table.  Truth
table entries pair a bit string with the failure flag; character k of the
string is the state of ``components[k]`` (1 = failed), and all 2^m states must
appear exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import InputError
from .structure import SystemStructure, _check_component_names, _check_truth_table_size

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StructureDocument:
    schema_version: int
    components: tuple[str, ...]
    cutsets: tuple[tuple[str, ...], ...] | None = None
    truth_table: tuple[tuple[str, int], ...] | None = None
    metadata: dict | None = None


def parse_document(text: str) -> StructureDocument:
    """Parse and validate a JSON structure document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("input is not valid JSON: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise InputError("input document must be a JSON object")

    allowed = {"schema_version", "components", "cutsets", "truth_table", "metadata"}
    unknown = set(raw) - allowed
    if unknown:
        raise InputError("unknown document fields: %s" % ", ".join(sorted(unknown)))

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InputError("unsupported schema_version %r (expected %d)" % (version, SCHEMA_VERSION))

    components = raw.get("components")
    if not isinstance(components, list):
        raise InputError("components must be a nonempty list of labels")
    components = _check_component_names(components)

    has_cutsets = "cutsets" in raw
    has_table = "truth_table" in raw
    if has_cutsets == has_table:
        raise InputError("provide exactly one of cutsets or truth_table")

    cutsets = None
    truth_table = None
    if has_cutsets:
        cutsets = _parse_cutsets(raw["cutsets"], components)
    else:
        truth_table = _parse_truth_table(raw["truth_table"], len(components))

    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise InputError("metadata must be an object")

    return StructureDocument(
        schema_version=SCHEMA_VERSION,
        components=components,
        cutsets=cutsets,
        truth_table=truth_table,
        metadata=metadata,
    )


def _parse_cutsets(raw: Any, components: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    if not isinstance(raw, list) or not raw:
        raise InputError("cutsets must be a nonempty list of label lists")
    known = set(components)
    parsed = []
    for entry in raw:
        if not isinstance(entry, list) or not entry:
            raise InputError("each cutset must be a nonempty list of labels")
        for label in entry:
            if label not in known:
                raise InputError("cutset label %r is not a declared component" % (label,))
        if len(set(entry)) != len(entry):
            raise InputError("cutset %r repeats a label" % (entry,))
        parsed.append(tuple(entry))
    return tuple(parsed)


def _parse_truth_table(raw: Any, m: int) -> tuple[tuple[str, int], ...]:
    _check_truth_table_size(m)
    if not isinstance(raw, list) or not raw:
        raise InputError("truth_table must be a nonempty list of entries")
    if not all(isinstance(entry, dict) and entry.keys() == {"state", "failed"} for entry in raw):
        raise InputError("truth table entries must have exactly state and failed fields")
    states = [entry["state"] for entry in raw]
    bad = [s for s in states if not isinstance(s, str) or len(s) != m or s.strip("01")]
    if bad:
        raise InputError("state %r is not a bit string of length %d" % (bad[0], m))
    flags = [entry["failed"] for entry in raw]
    if flags.count(0) + flags.count(1) != len(flags):
        raise InputError("failed flag must be 0 or 1")
    if len(set(states)) != len(states):
        seen = set()
        repeated = next(s for s in states if s in seen or seen.add(s))
        raise InputError("state %r appears more than once" % repeated)
    if len(states) != 1 << m:
        raise InputError(
            "truth table lists %d of the %d states" % (len(states), 1 << m)
        )
    return tuple(zip(states, flags))


def load_document(path: str | Path) -> StructureDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    return parse_document(text)


def serialize_document(doc: StructureDocument) -> str:
    """Canonical JSON rendering; parse(serialize(doc)) round-trips exactly."""
    payload: dict[str, Any] = {
        "schema_version": doc.schema_version,
        "components": list(doc.components),
    }
    if doc.cutsets is not None:
        payload["cutsets"] = [list(c) for c in doc.cutsets]
    if doc.truth_table is not None:
        payload["truth_table"] = [
            {"state": state, "failed": failed} for state, failed in doc.truth_table
        ]
    if doc.metadata is not None:
        payload["metadata"] = doc.metadata
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def document_to_structure(doc: StructureDocument) -> SystemStructure:
    """Materialize the document as a validated structure."""
    index = {name: j for j, name in enumerate(doc.components)}
    if doc.cutsets is not None:
        sets = [frozenset(index[label] for label in cut) for cut in doc.cutsets]
        return SystemStructure.from_cutsets(doc.components, sets)
    # Character k of a state is bit k of its mask.  The states are the 2^m
    # distinct bit strings, so in mask order they are masks 0 .. 2^m - 1.
    ordered = sorted((int(state[::-1], 2), failed) for state, failed in doc.truth_table)
    return SystemStructure.from_truth_table(doc.components, [failed for _, failed in ordered])
