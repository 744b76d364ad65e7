"""Byte-identity replay of the CLI corpus in ``data/cli_corpus.json``.

Every request of the corpus runs again, in order, against a scratch directory
rebuilt from the generator in ``data/make_cli_corpus.py``; its exit code and
the digests of its stdout, stderr and cache directory must match the stored
record.  Regenerate the corpus only for a change that alters output on
purpose, and say why.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location("make_cli_corpus", DATA / "make_cli_corpus.py")
corpus_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus_tool)

CORPUS = json.loads((DATA / "cli_corpus.json").read_text(encoding="utf-8"))


def test_inputs_are_rebuilt_byte_for_byte(tmp_path):
    assert corpus_tool.build_inputs(tmp_path) == CORPUS["inputs"]


def test_replay_matches_every_record(tmp_path):
    corpus_tool.build_inputs(tmp_path)
    texts = {t["record"]: t for t in CORPUS["texts"]}
    mismatches = []
    for index, want in enumerate(CORPUS["records"]):
        got, stdout, stderr = corpus_tool.run_request(tmp_path, want["argv"])
        if got == want:
            continue
        fields = [key for key in want if got[key] != want[key]]
        mismatches.append("record %d %s differs in %s" % (index, want["argv"], ", ".join(fields)))
        if index in texts:
            assert (stdout, stderr) == (texts[index]["stdout"], texts[index]["stderr"])
    assert mismatches == []
