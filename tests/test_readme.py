"""The README's examples run as written: the CLI prints the README's report, the
library example computes the same plan and bound."""

import math
import re
import shlex
from pathlib import Path

from cutplan import cli

ROOT = Path(__file__).resolve().parent.parent


def readme_example():
    """The first ``cutplan`` command in the README and the output block after it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"```sh\n(cutplan [^\n]*)\n```\s*```\n(.*?)```", text, re.S)
    assert match, "README has no cutplan example followed by its output"
    return shlex.split(match.group(1))[1:], match.group(2)


def test_readme_cli_example(monkeypatch, capsys):
    argv, expected = readme_example()
    monkeypatch.chdir(ROOT)
    assert cli.main([*argv, "--no-cache"]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = expected.splitlines()
    assert len(out) == len(lines)
    # The README shortens the 64-digit digest to its first 16 digits.
    digest, shortened = out[0], lines[0]
    assert shortened.endswith("...")
    assert digest.startswith(shortened[: -len("...")])
    assert out[1:] == lines[1:]


def test_readme_library_example():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Library example"
    namespace = {}
    exec(match.group(1), namespace)
    assert namespace["plan"].n_min == 8000
    bound = namespace["bound"]
    assert (bound.alpha, bound.n_min) == (0.05, 8000)
    assert bound.q_upper == math.log(1 / 0.05) / 8000
