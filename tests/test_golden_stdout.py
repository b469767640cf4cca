"""Every request in golden_stdout.json prints the stdout and exit code it did.

The file maps each `gghs` argv to its exit code and the SHA-256 of its stdout;
make_golden_stdout.py regenerates it. The requests run in-process through
`gghs.cli.main`, in a directory that holds the file's input files. The
digests are those of the numpy and BLAS the file was generated with: a
different numpy or BLAS may move a last rendered digit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import cli_stdout

GOLDEN = json.loads(Path(__file__).with_name("golden_stdout.json").read_text(encoding="utf-8"))


def test_stdout_matches_the_golden_digests(tmp_path, monkeypatch):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    changed = []  # (request line, stdout now) of every request that moved
    for want in GOLDEN["requests"]:
        code, out = cli_stdout(want["argv"])
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (want["exit"], want["sha256"]):
            changed.append((f"gghs {' '.join(want['argv'])}: exit {code} (golden {want['exit']})", out))
    if changed:
        pytest.fail(
            f"{len(changed)} of {len(GOLDEN['requests'])} requests changed:\n"
            + "\n".join(line for line, _ in changed)
            + f"\nstdout of the first now:\n{changed[0][1]}"
        )
