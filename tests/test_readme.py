"""The README's command-line examples run as their comments say.

Each `bellwigner ...` line of the README "Examples" block runs through
`cli.main`, in order and in one temporary directory, so a later line may
read a file an earlier one wrote. A comment claim `exit N` is the expected
exit code (0 when absent); a claim `word[:] X / Y ...` names the JSON key
(the word, or the word less a plural "s") under which every quoted number
must appear.
"""

import json
import math
import re
import shlex
from pathlib import Path

from bellwigner.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

CLAIM = re.compile(r"([a-z_]+):?\s+([−\-\d.]+(?:\s*/\s*[−\-\d.]+)*)")


def example_lines():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", text, re.S | re.M)
    assert block, "README has no Examples block"
    return [line for line in block.group(1).splitlines() if line.startswith("bellwigner ")]


def numbers_under(node, keys):
    """Every number stored under one of `keys` anywhere in a JSON value."""
    if isinstance(node, dict):
        for name, value in node.items():
            if name in keys and isinstance(value, (int, float)) and not isinstance(value, bool):
                yield value
            else:
                yield from numbers_under(value, keys)
    elif isinstance(node, list):
        for value in node:
            yield from numbers_under(value, keys)


def test_readme_examples_run_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = example_lines()
    assert len(lines) >= 4
    for line in lines:
        command, _, comment = line.partition("#")
        claims = [
            (word, [float(n.replace("−", "-")) for n in numbers.split("/")])
            for word, numbers in CLAIM.findall(comment)
        ]
        expected_rc = next((int(values[0]) for word, values in claims if word == "exit"), 0)
        rc = main(shlex.split(command)[1:])
        summary = json.loads(capsys.readouterr().out)
        assert rc == expected_rc, line
        for word, values in claims:
            if word == "exit":
                continue
            found = list(numbers_under(summary, {word, word.removesuffix("s")}))
            for value in values:
                assert any(math.isclose(x, value, abs_tol=1e-12) for x in found), (line, found)
