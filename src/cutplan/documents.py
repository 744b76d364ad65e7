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
checks the content and builds the :class:`~cutplan.structure.SystemStructure`
directly: cutsets as component masks, a truth table as its int of 2^m bits.

A truth table is read in whole-list passes that run in C, not one Python step
per entry: the count, the entry shapes and the flag set, then the states
joined one per line into ASCII bytes, whose length, newline places and
characters check every state's type, length and digits at once.  The masks
come from the m character columns of those bytes: each column is one int
with a byte per state, eight columns fill one byte of every mask, and the
masks are read as 32-bit fields.  Each flag is written as an ASCII digit at
its mask into a 2^m-byte buffer in which a byte left empty means a repeated
state.  Only when one of these passes declines are the entries walked one by
one, and that walk only raises: it names the first fault in listed order (the
entry's shape, its state, its flag, a repeat), or the count after the last
entry.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from itertools import repeat
from operator import itemgetter, setitem
from pathlib import Path
from typing import Any, NoReturn

from .errors import InputError
from .structure import SystemStructure, _check_component_names, _check_truth_table_size

SCHEMA_VERSION = 1

_FIELDS = {"schema_version", "components", "cutsets", "truth_table", "metadata"}

_DIGIT = {0: 48, 1: 49}  # failed flag -> ASCII "0" / "1"; True, 1.0 and -0.0 are keys too


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
    table = _valid_table(raw, m)
    if table is None:
        _raise_first_fault(raw, m)
    return table


def _valid_table(raw: list, m: int) -> int | None:
    """The table int of a valid table, read in whole-list passes; None at any fault."""
    n, step = 1 << m, m + 1
    if len(raw) != n or not all(map(isinstance, raw, repeat(dict))) or set(map(len, raw)) != {2}:
        return None
    try:
        # One state per line, a non-ASCII character as one "?" byte.
        data = "\n".join(map(itemgetter("state"), raw)).encode("ascii", "replace")
        # Every state has m characters when the n - 1 newlines, and only
        # they, fall at every (m+1)-th place.  int(s, 2) would also take "_",
        # "+", "-" and spaces: only 0, 1 and the newlines may appear.  The
        # flags are listed only after these checks, so that at most two
        # table-sized buffers are alive at once.
        if len(data) != n * step - 1 or data.count(10) != n - 1 or data[m::step].count(10) != n - 1:
            return None
        if data.translate(None, b"01\n"):
            return None
        flags = list(map(itemgetter("failed"), raw))
        if not set(flags) <= {0, 1}:
            return None
    except (KeyError, TypeError):  # an entry without the field; a state not a str; an unhashable flag
        return None
    # Column k, one byte per state, holds character k of every state, and the
    # low bit of an ASCII 0 or 1 is its value.  Eight columns fill a byte
    # lane, and lane b goes into byte b of a 32-bit mask per state.
    low_bits = int.from_bytes(b"\x01" * n, "little")
    fields = bytearray(4 * n)
    for b, first in enumerate(range(0, m, 8)):
        lane = 0
        for k in range(first, min(first + 8, m)):
            lane |= (int.from_bytes(data[k::step], "little") & low_bits) << (k - first)
        fields[b if sys.byteorder == "little" else 3 - b :: 4] = lane.to_bytes(n, "little")
    # Byte ``mask`` is the ASCII digit of phi(mask).  There are 2^m states,
    # so a zero byte left over means that some state repeats.
    digits = bytearray(n)
    masks = memoryview(fields).cast("I")
    deque(map(setitem, repeat(digits), masks, map(_DIGIT.__getitem__, flags)), maxlen=0)
    if 0 in digits:
        return None
    return int(digits[::-1], 2)


def _raise_first_fault(raw: list, m: int) -> NoReturn:
    """Raise the first fault of the table in listed order, then the count."""
    seen = set()
    for entry in raw:
        if not isinstance(entry, dict) or len(entry) != 2 or "state" not in entry or "failed" not in entry:
            raise InputError("truth table entries must have exactly state and failed fields")
        state, failed = entry["state"], entry["failed"]
        if not isinstance(state, str) or len(state) != m or state.strip("01"):
            raise InputError("state %r is not a bit string of length %d" % (state, m))
        if failed not in (0, 1):
            raise InputError("failed flag must be 0 or 1")
        if state in seen:
            raise InputError("state %r appears more than once" % state)
        seen.add(state)
    raise InputError("truth table lists %d of the %d states" % (len(raw), 1 << m))
