"""Byte-identity corpus of CLI requests: build the inputs, run, record, replay.

    PYTHONPATH=src python3 tests/data/make_cli_corpus.py

rewrites ``cli_corpus.json`` next to this file from the code in ``src``.
``tests/test_cli_corpus.py`` replays it: the corpus pins, for every request,
the exit code and the SHA-256 of stdout, of stderr and of the cache directory
after the request, so any change in a report, a diagnostic, an exit code or
a cache entry fails the test.  A change that alters output on purpose
regenerates the file and says why.

The inputs are the sample documents in ``docs/samples`` and documents drawn
here from ``random.Random(SEED)`` (no other generator is shared with this
one): m=10 cutset lists of 14 pairwise incomparable cutsets plus redundant
supersets, m=12 truth tables, random m<=6 truth tables (monotone or not),
one invalid document for each rule the document reader checks, and truth
tables with several faults or with odd states and flags.  Each input
runs through ``cutplan.cli.main`` in-process with a cold cache, a hot cache
and ``--no-cache``, in text and JSON, with and without ``--plus`` and
``--distribute-remainder``, and with ``--audit`` where the exhaustive search
is small.  Paths in the corpus are relative to a scratch directory; stderr is
stored with that directory replaced by ``<work>`` and the request's cache
directory by ``<cache-dir>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import random
import sys
from pathlib import Path

SEED = 20261018
HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
CORPUS = HERE / "cli_corpus.json"

M10_DOCUMENTS = 60
M12_TABLES = 2
SMALL_TABLES = 24
# Largest number of allocations an audited request may search exhaustively.
AUDIT_ALLOCATIONS = 3000


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _incomparable_family(rng: random.Random, m: int, s: int, sizes, weights, cover=True) -> list[int]:
    """s pairwise incomparable component masks, covering all m components if cover."""
    while True:
        family: list[int] = []
        for _ in range(50 * s):
            if len(family) == s:
                break
            cut = sum(1 << j for j in rng.sample(range(m), rng.choices(sizes, weights)[0]))
            if all(cut & other not in (cut, other) for other in family):
                family.append(cut)
        if len(family) == s and (not cover or _union(family) == (1 << m) - 1):
            return family


def _union(masks) -> int:
    total = 0
    for mask in masks:
        total |= mask
    return total


def _labels(mask: int, m: int) -> list[str]:
    return ["C%d" % (j + 1) for j in range(m) if mask >> j & 1]


def _cutset_document(rng: random.Random, m: int, family: list[int], redundant: int) -> dict:
    listed = list(family)
    for _ in range(redundant):
        cut = rng.choice(family)
        listed.append(cut | 1 << rng.choice([j for j in range(m) if not cut >> j & 1]))
    rng.shuffle(listed)
    return {
        "schema_version": 1,
        "components": ["C%d" % (j + 1) for j in range(m)],
        "cutsets": [_labels(cut, m) for cut in listed],
    }


def _table_of(family: list[int], m: int) -> list[int]:
    return [int(any(mask & cut == cut for cut in family)) for mask in range(1 << m)]


def _table_document(table: list[int], m: int, rng: random.Random | None = None) -> dict:
    entries = [
        {"state": "".join("1" if mask >> k & 1 else "0" for k in range(m)), "failed": table[mask]}
        for mask in range(1 << m)
    ]
    if rng is not None:
        rng.shuffle(entries)
    return {
        "schema_version": 1,
        "components": ["C%d" % (j + 1) for j in range(m)],
        "truth_table": entries,
    }


_DROP = object()


def _invalid_documents() -> dict[str, bytes]:
    """One document per rule of the reader, each breaking only that rule.

    Then truth tables that break several rules at once, where only the first
    fault in listed order may be reported, odd states of the right length, and
    one valid table whose flags are JSON true, 1.0 and -0.0.
    """
    ok_cutsets = {"schema_version": 1, "components": ["A", "B"], "cutsets": [["A"], ["B"]]}
    ok_table = _table_document([0, 0, 0, 1], 2)

    def variant(base, **changes):
        doc = {**base, **changes}
        return json.dumps({k: v for k, v in doc.items() if v is not _DROP}).encode("utf-8")

    entries = ok_table["truth_table"]
    return {
        "not_json": b"{broken",
        "too_deep": b"[" * 10000,
        "not_utf8": b'{"schema_version": 1, "components": ["\xff"]}',
        "not_object": b"[]",
        "unknown_field": variant(ok_cutsets, extra=1),
        "schema_version": variant(ok_cutsets, schema_version=2),
        "components_not_list": variant(ok_cutsets, components="AB"),
        "both_forms": variant(ok_cutsets, truth_table=entries),
        "neither_form": variant(ok_cutsets, cutsets=_DROP),
        "metadata_not_object": variant(ok_cutsets, metadata=[1]),
        "no_components": variant(ok_cutsets, components=[]),
        "empty_label": variant(ok_cutsets, components=["A", ""]),
        "duplicate_label": variant(ok_cutsets, components=["A", "A"]),
        "cutsets_empty": variant(ok_cutsets, cutsets=[]),
        "cutset_empty": variant(ok_cutsets, cutsets=[["A"], []]),
        "cutset_undeclared": variant(ok_cutsets, cutsets=[["A"], ["Z"]]),
        "cutset_repeats": variant(ok_cutsets, cutsets=[["A", "A"]]),
        "table_too_wide": variant(ok_table, components=["C%d" % j for j in range(21)]),
        "table_empty": variant(ok_table, truth_table=[]),
        "entry_shape": variant(ok_table, truth_table=[{"state": "00"}, *entries[1:]]),
        "state_not_bits": variant(ok_table, truth_table=[{"state": "0x", "failed": 0}, *entries[1:]]),
        "flag_not_bit": variant(ok_table, truth_table=[{"state": "00", "failed": 2}, *entries[1:]]),
        "state_repeated": variant(ok_table, truth_table=[entries[0], *entries[:3]]),
        "states_missing": variant(ok_table, truth_table=entries[1:]),
        "non_monotone": variant(ok_table, truth_table=_table_document([0, 1, 0, 0], 2)["truth_table"]),
        "always_fails": variant(ok_table, truth_table=_table_document([1, 1, 1, 1], 2)["truth_table"]),
        "never_fails": variant(ok_table, truth_table=_table_document([0, 0, 0, 0], 2)["truth_table"]),
        "flag_before_shape": variant(
            ok_table, truth_table=[*entries[:2], {**entries[2], "failed": 2}, {"state": "11"}]
        ),
        "repeat_before_flag": variant(
            ok_table, truth_table=[entries[0], entries[1], entries[1], {**entries[3], "failed": 2}]
        ),
        "state_with_missing": variant(ok_table, truth_table=[{**entries[0], "state": "0x"}, *entries[1:3]]),
        "flag_unhashable": variant(
            ok_table, truth_table=[entries[0], {**entries[1], "failed": [1]}, *entries[2:]]
        ),
        "state_underscore": variant(ok_table, truth_table=[*entries[:3], {**entries[3], "state": "0_"}]),
        "state_sign": variant(ok_table, truth_table=[*entries[:3], {**entries[3], "state": "+1"}]),
        "state_not_ascii": variant(ok_table, truth_table=[*entries[:3], {**entries[3], "state": "0é"}]),
        "odd_flags_accepted": variant(
            ok_table,
            truth_table=[
                {**entries[3], "failed": True},
                {**entries[1], "failed": -0.0},
                {**entries[0], "failed": 0},
                {**entries[2], "failed": 1.0},
            ],
        ),
    }


def build_inputs(work: Path) -> dict[str, str]:
    """Write every input document under work/inputs; {relative path: SHA-256}."""
    rng = random.Random(SEED)
    docs: dict[str, bytes] = {}
    for sample in sorted((REPO / "docs" / "samples").glob("*.json")):
        docs["sample_" + sample.stem] = sample.read_bytes()
    for i in range(M10_DOCUMENTS):
        family = _incomparable_family(rng, 10, 14, (2, 3, 4), (4, 4, 1))
        docs["m10_%02d" % i] = json.dumps(_cutset_document(rng, 10, family, 2)).encode("utf-8")
    for i in range(M12_TABLES):
        family = _incomparable_family(rng, 12, 16, (2, 3, 4), (3, 4, 2))
        docs["m12_table_%d" % i] = json.dumps(_table_document(_table_of(family, 12), 12)).encode("utf-8")
    for i in range(SMALL_TABLES):
        if i % 3 == 2:
            # Random bits with phi(none failed) = 0 and phi(all failed) = 1:
            # usually not monotone.
            m = rng.randint(3, 6)
            table = [0] + [rng.randint(0, 1) for _ in range((1 << m) - 2)] + [1]
        else:
            m = rng.randint(1, 6)
            family = _incomparable_family(rng, m, rng.randint(1, min(m, 4)), range(1, m + 1), None, cover=False)
            table = _table_of(family, m)
        docs["small_table_%02d" % i] = json.dumps(_table_document(table, m, rng)).encode("utf-8")
    for name, data in _invalid_documents().items():
        docs["invalid_" + name] = data

    inputs = {}
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    for name, data in docs.items():
        rel = "inputs/%s.json" % name
        (work / rel).write_bytes(data)
        inputs[rel] = sha(data)
    return inputs


def _size(work: Path, rel: str) -> tuple[int, int] | None:
    """(m, N0) of a valid input, from the library; None for an invalid one."""
    from cutplan import CutplanError, minimal_cutsets, optimize_fractions
    from cutplan.documents import document_to_structure, load_document

    try:
        structure = document_to_structure(load_document(work / rel))
    except CutplanError:
        return None
    return structure.m, optimize_fractions(minimal_cutsets(structure)).n_zero


def build_requests(work: Path, inputs: dict[str, str]) -> list[list[str]]:
    """Argument lists, relative to work, in the order they must run."""
    rng = random.Random(SEED + 1)
    requests = []
    for rel in inputs:
        name = Path(rel).stem
        cache = "cache/%s" % name
        json_cache = "cache/%s-json" % name
        tests = str(int(10 ** rng.uniform(3, 8)))
        with_cache = ["--cache-dir", cache]
        plus = ["--plus", "--distribute-remainder"]
        # A budget small enough to audit, or the audit is skipped as too large.
        small, audit = tests, []
        size = _size(work, rel)
        if size:
            m, n_zero = size
            audit = ["--audit"]
            if math.comb(2 * n_zero + m, m - 1) <= AUDIT_ALLOCATIONS:
                small = str(2 * n_zero + 1)
        requests += [
            [rel, "--tests", tests, *with_cache],  # cold
            [rel, "--tests", tests, *plus, "--format", "json", *with_cache],  # hot
            [rel, "--tests", small, *plus, *audit, *with_cache],  # hot
            [rel, "--format", "json", *with_cache],  # hot, fractions only
            [rel, "--tests", tests, "--plus", "--format", "json", "--cache-dir", json_cache],  # cold
            [rel, "--tests", tests, "--distribute-remainder", "--cache-dir", json_cache],  # hot
            [rel, "--tests", tests, "--plus", "--no-cache"],
            [rel, "--tests", small, "--distribute-remainder", *audit, "--format", "json", "--no-cache"],
        ]
    sample = "inputs/sample_asymmetric5.json"
    requests += [
        [sample, "--tests", "3", "--cache-dir", "cache/budget"],  # below N0 = 5: exit 3
        [sample, "--tests", "3", "--format", "json", "--cache-dir", "cache/budget"],
        [sample, "--tests", "0", "--no-cache"],
        [sample, "--tests", "20003", "--alpha", "1.5", "--format", "json", "--no-cache"],
        [sample, "--tests", "20003", "--alpha", "0.001", "--plus", "--no-cache"],
        [sample, "--tests", "abc", "--format", "json", "--no-cache"],
        ["inputs/missing.json", "--tests", "10", "--no-cache"],
    ]
    return requests


@contextlib.contextmanager
def _fresh_root_logger():
    """Let cli.main set up logging as in a new process, then put it back."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        yield
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)


def _cache_digest(directory: Path) -> str | None:
    if not directory.is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_request(work: Path, argv: list[str]) -> tuple[dict, str, str]:
    """Run one request in-process; its record plus the stdout and stderr text."""
    from cutplan import cli

    absolute = [str(work / a) if a.startswith(("inputs/", "cache/")) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with _fresh_root_logger(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(absolute)
    stderr = err.getvalue()
    cache = None
    if "--cache-dir" in argv:
        cache_rel = argv[argv.index("--cache-dir") + 1]
        stderr = stderr.replace(str(work / cache_rel), "<cache-dir>")
        cache = _cache_digest(work / cache_rel)
    stderr = stderr.replace(str(work), "<work>")
    record = {
        "argv": argv,
        "exit": code,
        "stdout": sha(out.getvalue()),
        "stderr": sha(stderr),
        "cache": cache,
    }
    return record, out.getvalue(), stderr


def generate(work: Path) -> dict:
    inputs = build_inputs(work)
    records, texts = [], []
    requests = build_requests(work, inputs)
    # Full stdout and stderr of a few requests, one of each kind of outcome,
    # so that a failure reads.
    keep = {0, 1, 2, len(requests) - 7, len(requests) - 6, len(requests) - 2}
    for index, argv in enumerate(requests):
        record, stdout, stderr = run_request(work, argv)
        records.append(record)
        if index in keep:
            texts.append({"record": index, "stdout": stdout, "stderr": stderr})
    return {
        "about": (
            "Byte-identity corpus of cutplan.cli requests, written by "
            "tests/data/make_cli_corpus.py (seed %d); replayed by "
            "tests/test_cli_corpus.py." % SEED
        ),
        "inputs": inputs,
        "records": records,
        "texts": texts,
    }


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as tmp:
        corpus = generate(Path(tmp))
    lines = [
        "{",
        ' "about": %s,' % json.dumps(corpus["about"]),
        ' "inputs": %s,' % json.dumps(corpus["inputs"], sort_keys=True),
        ' "records": [',
        ",\n".join("  " + json.dumps(r) for r in corpus["records"]),
        " ],",
        ' "texts": %s' % json.dumps(corpus["texts"], indent=1),
        "}",
    ]
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    codes = sorted({r["exit"] for r in corpus["records"]})
    print("%d inputs, %d requests, exit codes %s -> %s" % (len(corpus["inputs"]), len(corpus["records"]), codes, CORPUS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
