"""JSON structure documents: the on-disk input format of the CLI.

A document names the components and gives the failure structure either as a
list of cutsets (lists of component labels) or as a full truth table.  Truth
table entries pair a bit string with the failure flag; character k of the
string is the state of ``components[k]`` (1 = failed), and all 2^m states must
appear exactly once.  ``metadata``, when present, must be an object (or null)
and is otherwise ignored.

Reading takes two steps.  :func:`parse_document` (or :func:`load_document`
for a file) parses the JSON and checks the envelope: the fields, the schema
version, one structure definition, and the types of ``components`` and
``metadata``; it returns the JSON object.  :func:`document_to_structure`
checks the content in one pass over it and builds the
:class:`~cutplan.structure.SystemStructure` directly: cutsets as component
masks, a truth table as its int of 2^m bits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import InputError
from .structure import SystemStructure, _check_component_names, _check_truth_table_size

SCHEMA_VERSION = 1

_FIELDS = {"schema_version", "components", "cutsets", "truth_table", "metadata"}


def parse_document(text: str) -> dict[str, Any]:
    """Parse a JSON structure document and check its envelope; returns the JSON object."""
    try:
        raw = json.loads(text)
    except RecursionError as exc:
        raise InputError("input nests too deeply to read: %s" % exc) from exc
    except ValueError as exc:
        raise InputError("input is not valid JSON: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise InputError("input document must be a JSON object")
    unknown = set(raw) - _FIELDS
    if unknown:
        raise InputError("unknown document fields: %s" % ", ".join(sorted(unknown)))
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InputError("unsupported schema_version %r (expected %d)" % (version, SCHEMA_VERSION))
    if not isinstance(raw.get("components"), list):
        raise InputError("components must be a nonempty list of labels")
    if ("cutsets" in raw) == ("truth_table" in raw):
        raise InputError("provide exactly one of cutsets or truth_table")
    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise InputError("metadata must be an object")
    return raw


def load_document(path: str | Path) -> dict[str, Any]:
    """Read and envelope-check the structure document at path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    return parse_document(text)


def document_to_structure(doc: dict[str, Any]) -> SystemStructure:
    """Check the content of a document from :func:`parse_document` and build its structure."""
    names = _check_component_names(doc["components"])
    if "cutsets" in doc:
        return SystemStructure(names, cutsets=_read_cutsets(doc["cutsets"], names))
    return SystemStructure(names, truth_table=_read_truth_table(doc["truth_table"], len(names)))


def _read_cutsets(raw: Any, names: tuple[str, ...]) -> tuple[int, ...]:
    """Each cutset as the mask of its members' bits."""
    if not isinstance(raw, list) or not raw:
        raise InputError("cutsets must be a nonempty list of label lists")
    bit = {name: 1 << j for j, name in enumerate(names)}
    masks = []
    for entry in raw:
        if not isinstance(entry, list) or not entry:
            raise InputError("each cutset must be a nonempty list of labels")
        mask = 0
        for label in entry:
            if not isinstance(label, str) or label not in bit:
                raise InputError("cutset label %r is not a declared component" % (label,))
            mask |= bit[label]
        if mask.bit_count() != len(entry):
            raise InputError("cutset %r repeats a label" % (entry,))
        masks.append(mask)
    return tuple(masks)


def _read_truth_table(raw: Any, m: int) -> int:
    """The table as one int of 2^m bits: bit ``mask`` is the flag of that state."""
    _check_truth_table_size(m)
    if not isinstance(raw, list) or not raw:
        raise InputError("truth_table must be a nonempty list of entries")
    # The binary digits of the table, most significant first: phi(mask) is
    # digit ~mask, counted from the end.  A zero byte marks a state not seen yet.
    digits = bytearray(1 << m)
    for entry in raw:
        if not isinstance(entry, dict) or len(entry) != 2 or "state" not in entry or "failed" not in entry:
            raise InputError("truth table entries must have exactly state and failed fields")
        state, failed = entry["state"], entry["failed"]
        if not isinstance(state, str) or len(state) != m or state.strip("01"):
            raise InputError("state %r is not a bit string of length %d" % (state, m))
        if failed not in (0, 1):
            raise InputError("failed flag must be 0 or 1")
        # Character k of a state is bit k of its mask.
        mask = int(state[::-1], 2)
        if digits[~mask]:
            raise InputError("state %r appears more than once" % state)
        digits[~mask] = 49 if failed else 48  # ASCII "1" / "0"
    if len(raw) != 1 << m:
        raise InputError("truth table lists %d of the %d states" % (len(raw), 1 << m))
    return int(digits, 2)
